"""Tests for candidate rewiring-net selection (Section 4.3)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BddManager
from repro.eco.config import EcoConfig
from repro.eco.rewiring import RewiringContext
from repro.eco.sampling import SamplingDomain, exhaustive_assignments
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.traverse import levelize, support_masks
from tests.conftest import make_random_circuit


def build_context(impl, spec, port, config=None, samples=None, ports=None):
    inputs = list(impl.inputs)
    if samples is None:
        samples = [dict(zip(inputs, bits))
                   for bits in itertools.product([False, True],
                                                 repeat=len(inputs))]
    domain = SamplingDomain(BddManager(), samples, inputs)
    impl_z = domain.cast_circuit(impl)
    spec_z = domain.cast_circuit(spec)
    idx = {n: i for i, n in enumerate(inputs)}
    return RewiringContext(
        impl, spec, port, domain, config or EcoConfig(),
        impl_z, spec_z, support_masks(impl, idx),
        support_masks(spec, idx), levelize(impl), levelize(spec),
        ports=ports)


def simple_pair():
    """impl o = (a|b)&c ; spec o = (a&b)&c."""
    impl = Circuit("impl")
    impl.add_inputs(["a", "b", "c", "d"])
    impl.or_("a", "b", name="g1")
    impl.and_("g1", "c", name="g2")
    impl.set_output("o", "g2")
    impl.set_output("keep", impl.and_("c", "d", name="g3"))
    spec = Circuit("spec")
    spec.add_inputs(["a", "b", "c", "d"])
    spec.and_("a", "b", name="h1")
    spec.and_("h1", "c", name="h2")
    spec.set_output("o", "h2")
    spec.set_output("keep", spec.and_("c", "d", name="h3"))
    return impl, spec


class TestCandidatesForPin:
    def test_trivial_candidate_first(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        assert cands[0].trivial
        assert cands[0].net == "g1"
        assert cands[0].utility == 0.0

    def test_structural_filter_excludes_foreign_support(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        # 'd' is outside the support of f'_o = (a&b)&c
        nets = {c.net for c in ctx.candidates_for_pin(Pin.gate("g2", 0))}
        assert "d" not in nets
        assert "g3" not in nets

    def test_cycle_creating_nets_excluded(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        nets = {c.net for c in ctx.candidates_for_pin(Pin.gate("g1", 0))
                if not c.from_spec}
        assert "g2" not in nets  # g2 is downstream of g1
        assert "g1" not in nets

    def test_spec_output_guaranteed_for_port_pin(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        cands = ctx.candidates_for_pin(Pin.output("o"))
        assert any(c.from_spec and c.net == "h2" for c in cands)

    def test_utility_values_match_definition(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        # error domain: (a|b)&c != (a&b)&c  <=>  c & (a xor b)
        # at pin g2[0] the driver is g1=a|b; candidate h1=a&b differs
        # from g1 exactly on a xor b, i.e. on ALL error assignments
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        h1 = next(c for c in cands if c.from_spec and c.net == "h1")
        assert h1.utility == pytest.approx(1.0)

    def test_utility_ordering_descending(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        utilities = [c.utility for c in cands[1:]]  # skip trivial
        assert utilities == sorted(utilities, reverse=True)

    def test_unordered_mode(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o",
                            config=EcoConfig(utility_ordering=False))
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        assert cands[0].trivial  # trivial stays first regardless

    def test_impl_only_source(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o",
                            config=EcoConfig(use_spec_nets=False,
                                             use_impl_nets=True))
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        assert all(not c.from_spec for c in cands)

    def test_spec_only_source(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o",
                            config=EcoConfig(use_spec_nets=True,
                                             use_impl_nets=False))
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        assert all(c.from_spec for c in cands[1:])  # trivial is impl

    def test_max_candidates_respected(self):
        impl, spec = simple_pair()
        cfg = EcoConfig(max_rewire_candidates=2)
        ctx = build_context(impl, spec, "o", config=cfg)
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0))
        assert len(cands) <= 1 + 2 + 1  # trivial + cap + spec-output slot

    def test_forbidden_nets_respected(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        cands = ctx.candidates_for_pin(Pin.gate("g2", 0),
                                       forbidden={"a"})
        assert "a" not in {c.net for c in cands if not c.from_spec}


class TestErrorRegion:
    def test_error_count_matches_truth_table(self):
        impl, spec = simple_pair()
        ctx = build_context(impl, spec, "o")
        # |E| = |c & (a xor b)| over (a,b,c,d) = 2 * 2 = 4
        assert ctx.error_count == 4

    @staticmethod
    def assert_counts_match_definition(ctx, impl, spec, ports):
        """``error_count`` and ``utility`` equal the satcount-based
        Section 4.3 definitions on the domain's BDDs."""
        domain = ctx.domain
        m = domain.manager
        bits = len(domain.z_vars)
        assert domain.z_vars == list(range(bits))  # fresh manager
        impl_z = domain.cast_circuit(impl)
        spec_z = domain.cast_circuit(spec)
        diff = 0
        for p in ports:
            diff = m.or_(diff, m.xor(impl_z[impl.outputs[p]],
                                     spec_z[spec.outputs[p]]))
        region = m.and_(diff, domain.valid_codes())
        count = max(1, m.satcount(region, num_vars=bits))
        assert ctx.error_count == count
        nets = [impl_z[n] for n in impl.nets()] + \
            [spec_z[n] for n in spec.nets()]
        for driver in nets[::3]:
            for cand in nets[1::2]:
                hits = m.satcount(m.and_(m.xor(driver, cand), region),
                                  num_vars=bits)
                assert ctx.utility(driver, cand) == hits / count

    @given(seed=st.integers(min_value=0, max_value=10_000),
           num_samples=st.integers(min_value=1, max_value=40),
           joint=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_definition_on_random_domains(
            self, seed, num_samples, joint):
        impl = make_random_circuit(seed, n_inputs=6, n_gates=16)
        spec = make_random_circuit(seed + 1, n_inputs=6, n_gates=16)
        rng = random.Random(seed)
        samples = [{n: bool(rng.getrandbits(1)) for n in impl.inputs}
                   for _ in range(num_samples)]
        ports = ["y0", "y1"] if joint else ["y0"]
        ctx = build_context(impl, spec, "y0", samples=samples, ports=ports)
        self.assert_counts_match_definition(ctx, impl, spec, ports)

    def test_counts_match_definition_on_exact_domain(self):
        # 8 inputs: 256 codes, wider than one 64-bit simulation word
        impl = make_random_circuit(31, n_inputs=8, n_gates=24)
        spec = make_random_circuit(32, n_inputs=8, n_gates=24)
        samples = exhaustive_assignments(impl.inputs)
        ctx = build_context(impl, spec, "y0", samples=samples)
        assert ctx.domain.full_mask.bit_length() == 256
        assert ctx.error_count > 1
        self.assert_counts_match_definition(ctx, impl, spec, ["y0"])
