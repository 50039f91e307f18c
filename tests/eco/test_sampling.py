"""Tests for the symbolic sampling domain."""

import pytest

from repro.errors import EcoError
from repro.bdd.manager import TRUE, BddManager
from repro.eco.sampling import SamplingDomain
from repro.netlist.circuit import Circuit
from repro.netlist.simulate import evaluate_outputs
from tests.conftest import make_random_circuit


def make_domain(samples, inputs):
    return SamplingDomain(BddManager(), samples, inputs)


class TestConstruction:
    def test_empty_samples_rejected(self):
        with pytest.raises(EcoError):
            make_domain([], ["a"])

    def test_z_variable_count(self):
        inputs = ["a"]
        s = {"a": True}
        assert len(make_domain([s], inputs).z_vars) == 1
        assert len(make_domain([s] * 2, inputs).z_vars) == 1
        assert len(make_domain([s] * 3, inputs).z_vars) == 2
        assert len(make_domain([s] * 5, inputs).z_vars) == 3

    def test_missing_input_in_sample(self):
        with pytest.raises(EcoError):
            make_domain([{"a": True}], ["a", "b"])

    def test_padding_repeats_last_sample(self):
        samples = [{"a": True}, {"a": False}, {"a": True}]
        d = make_domain(samples, ["a"])
        assert len(d.samples) == 4
        assert d.samples[3] == samples[-1]


class TestSamplingFunction:
    def test_g_maps_codes_to_samples(self):
        samples = [
            {"a": True, "b": False},
            {"a": False, "b": False},
            {"a": True, "b": True},
        ]
        d = make_domain(samples, ["a", "b"])
        m = d.manager
        for k, sample in enumerate(samples):
            # evaluate g_i at the assignment encoding sample k
            assignment = m.pick_assignment(d.code_of(k),
                                           variables=d.z_vars)
            for name in ("a", "b"):
                got = m.evaluate(d.input_functions[name], assignment)
                assert got == sample[name], (k, name)

    def test_sample_of_assignment_roundtrip(self):
        samples = [{"a": bool(k & 1), "b": bool(k & 2)} for k in range(4)]
        d = make_domain(samples, ["a", "b"])
        m = d.manager
        for k in range(4):
            assignment = m.pick_assignment(d.code_of(k),
                                           variables=d.z_vars)
            assert d.sample_of_assignment(assignment) == samples[k]

    def test_valid_codes_counts_distinct_samples(self):
        samples = [{"a": True}, {"a": False}, {"a": True}]
        d = make_domain(samples, ["a"])
        m = d.manager
        assert m.satcount(d.valid_codes(), num_vars=len(d.z_vars)) == 3

    def test_count_in_domain(self):
        samples = [{"a": True}, {"a": False}, {"a": True}]
        d = make_domain(samples, ["a"])
        # 'a' holds on samples 0 and 2
        assert d.count_in_domain(d.input_functions["a"]) == 2

    def test_count_in_domain_rejects_foreign_support(self):
        d = make_domain([{"a": True}, {"a": False}], ["a"])
        extra = d.manager.add_var()
        with pytest.raises(EcoError):
            d.count_in_domain(d.manager.var(extra))

    def test_count_in_domain_on_preallocated_manager(self):
        # variables allocated before z must not be counted
        samples = [{"a": True}, {"a": False}, {"a": True}]
        d = SamplingDomain(BddManager(3), samples, ["a"])
        assert d.z_vars[0] == 3
        assert d.count_in_domain(d.input_functions["a"]) == 2


class TestCodeWords:
    def test_masks(self):
        samples = [{"a": True}, {"a": False}, {"a": True}]
        d = make_domain(samples, ["a"])
        assert d.full_mask == 0b1111
        assert d.valid_mask == 0b0111
        # code 3 pads with the last sample
        assert d.word(d.input_functions["a"]) == 0b1101

    @pytest.mark.parametrize("preallocated", [0, 2])
    @pytest.mark.parametrize("num_samples", [1, 5, 8])
    def test_word_matches_code_evaluation(self, preallocated, num_samples):
        import random
        c = make_random_circuit(4, n_inputs=4, n_gates=20)
        rng = random.Random(num_samples)
        samples = [{n: bool(rng.getrandbits(1)) for n in c.inputs}
                   for _ in range(num_samples)]
        d = SamplingDomain(BddManager(preallocated), samples, c.inputs)
        m = d.manager
        values = d.cast_circuit(c)
        for k in range(len(d.samples)):
            assignment = m.pick_assignment(d.code_of(k),
                                           variables=d.z_vars)
            for net, node in values.items():
                assert (d.word(node) >> k) & 1 == \
                    m.evaluate(node, assignment), (net, k)

    def test_word_rejects_foreign_support(self):
        d = make_domain([{"a": True}, {"a": False}], ["a"])
        extra = d.manager.add_var()
        mixed = d.manager.and_(d.input_functions["a"], d.manager.var(extra))
        with pytest.raises(EcoError):
            d.word(mixed)


class TestCastCircuit:
    def test_cast_matches_per_sample_simulation(self):
        c = make_random_circuit(6, n_inputs=4, n_gates=15)
        import random
        rng = random.Random(1)
        samples = [{n: bool(rng.getrandbits(1)) for n in c.inputs}
                   for _ in range(6)]
        d = make_domain(samples, c.inputs)
        values = d.cast_circuit(c)
        m = d.manager
        for k, sample in enumerate(samples):
            assignment = m.pick_assignment(d.code_of(k),
                                           variables=d.z_vars)
            sim = evaluate_outputs(c, sample)
            for port, net in c.outputs.items():
                assert m.evaluate(values[net], assignment) == sim[port]

    def test_extra_inputs_default_false(self):
        c = Circuit()
        c.add_inputs(["a", "extra"])
        c.set_output("o", c.or_("a", "extra"))
        d = make_domain([{"a": True}, {"a": False}], ["a"])
        values = d.cast_circuit(c)
        m = d.manager
        # with extra=False, o == a on the domain
        assert values[c.outputs["o"]] == d.input_functions["a"]

    def test_extra_inputs_overridable(self):
        c = Circuit()
        c.add_inputs(["a", "extra"])
        c.set_output("o", c.or_("a", "extra"))
        d = make_domain([{"a": False}], ["a"])
        from repro.bdd.manager import TRUE
        values = d.cast_circuit(c, extra_inputs={"extra": TRUE})
        assert values[c.outputs["o"]] == TRUE
