"""Tests for rewiring-choice selection (Xi(c), Example 2)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BddManager
from repro.eco.choices import (
    default_cost,
    enumerate_rewiring_choices,
    enumerate_rewiring_choices_joint,
    make_clone_aware_cost,
)
from repro.eco.rewiring import RewireCandidate
from repro.eco.sampling import SamplingDomain
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.traverse import topological_order
from repro.workloads.figures import example1_circuits
from tests.conftest import make_random_circuit
from tests.eco.reference_xi import reference_choices_joint


def full_domain(circuit):
    inputs = list(circuit.inputs)
    samples = [dict(zip(inputs, bits))
               for bits in itertools.product([False, True],
                                             repeat=len(inputs))]
    return SamplingDomain(BddManager(), samples, inputs)


def example2_setup():
    """Pins {q_k select, q_{n+k} select} with S_i = (trivial, c, ~c)."""
    impl, spec = example1_circuits(width=2)
    domain = full_domain(impl)
    impl_z = domain.cast_circuit(impl)
    spec_z = domain.cast_circuit(spec)
    pins = (Pin.gate("q0", 1), Pin.gate("q2", 1))
    c_net = spec_z[spec.gates["c_new"].name]
    not_c = domain.manager.not_(c_net)

    def cand(net, node, trivial=False, from_spec=True):
        return RewireCandidate(net=net, from_spec=from_spec, utility=0.5,
                               z_function=node, trivial=trivial)

    s1 = [cand("s", impl_z["s"], trivial=True, from_spec=False),
          cand("c_new", c_net), cand("not_c", not_c)]
    s2 = [cand("v1", impl_z["v1"], trivial=True, from_spec=False),
          cand("c_new", c_net), cand("not_c", not_c)]
    return impl, spec, domain, pins, (s1, s2), spec_z


class TestExample2:
    def test_xi_selects_c_and_not_c(self):
        impl, spec, domain, pins, cands, spec_z = example2_setup()
        choices = enumerate_rewiring_choices(
            impl, "w_0", domain, pins, cands,
            spec_z[spec.outputs["w_0"]], limit=16)
        assert choices, "expected Xi(c) to admit the paper's rewiring"
        nets = {(c1.net, c2.net) for c1, c2 in choices}
        # the paper's Xi_k = c1^1 | c2^2: first point takes c, or the
        # second point takes ~c (with any consistent partner)
        assert all(c1 == "c_new" or c2 == "not_c" for c1, c2 in nets)
        assert ("c_new", "not_c") in nets

    def test_all_trivial_excluded(self):
        impl, spec, domain, pins, cands, spec_z = example2_setup()
        choices = enumerate_rewiring_choices(
            impl, "w_0", domain, pins, cands,
            spec_z[spec.outputs["w_0"]], limit=32)
        for choice in choices:
            assert not all(c.trivial for c in choice)

    def test_limit_respected(self):
        impl, spec, domain, pins, cands, spec_z = example2_setup()
        choices = enumerate_rewiring_choices(
            impl, "w_0", domain, pins, cands,
            spec_z[spec.outputs["w_0"]], limit=1)
        assert len(choices) == 1

    def test_empty_when_no_candidate_fits(self):
        impl, spec, domain, pins, cands, spec_z = example2_setup()
        # strip the useful candidates; only trivial ones remain
        trimmed = ([cands[0][0]], [cands[1][0]])
        choices = enumerate_rewiring_choices(
            impl, "w_0", domain, pins, trimmed,
            spec_z[spec.outputs["w_0"]], limit=8)
        assert choices == []

    def test_cost_orders_choices(self):
        impl, spec, domain, pins, cands, spec_z = example2_setup()

        def cost(pin, cand):
            return {"s": 0.0, "v1": 0.0, "c_new": 1.0,
                    "not_c": 5.0}[cand.net]

        choices = enumerate_rewiring_choices(
            impl, "w_0", domain, pins, cands,
            spec_z[spec.outputs["w_0"]], limit=8, cost_fn=cost)
        totals = [sum(cost(p, c) for p, c in zip(pins, ch))
                  for ch in choices]
        assert totals == sorted(totals)


class TestCostFunctions:
    def test_default_cost_ordering(self):
        triv = RewireCandidate("x", False, 0.0, 0, trivial=True)
        impl_net = RewireCandidate("y", False, 0.5, 0)
        spec_net = RewireCandidate("z", True, 0.5, 0, level=3)
        p = Pin.gate("g", 0)
        assert default_cost(p, triv) < default_cost(p, impl_net)
        assert default_cost(p, impl_net) < default_cost(p, spec_net)

    def test_clone_aware_cost_charges_new_gates_only(self):
        spec = Circuit("s")
        spec.add_inputs(["a", "b"])
        g1 = spec.and_("a", "b", name="g1")
        g2 = spec.not_(g1, name="g2")
        spec.set_output("o", g2)
        p = Pin.gate("x", 0)
        fresh = make_clone_aware_cost(spec, {})
        cached = make_clone_aware_cost(spec, {"g1": "eco$g1"})
        cand = RewireCandidate("g2", True, 0.5, 0)
        assert fresh(p, cand) > cached(p, cand)

    def test_clone_aware_inputs_free(self):
        spec = Circuit("s")
        spec.add_inputs(["a"])
        spec.set_output("o", "a")
        cost = make_clone_aware_cost(spec, {})
        cand = RewireCandidate("a", True, 0.5, 0)
        assert cost(Pin.gate("x", 0), cand) == pytest.approx(1.2)

    def test_level_term_added(self):
        spec = Circuit("s")
        spec.add_inputs(["a"])
        spec.set_output("o", "a")
        cost = make_clone_aware_cost(spec, {},
                                     level_term=lambda p, c: 10.0)
        cand = RewireCandidate("a", False, 0.5, 0)
        assert cost(Pin.gate("x", 0), cand) == pytest.approx(11.0)


def random_choice_problem(seed, num_points, num_ports, num_samples):
    """A small impl/spec pair, a sampled domain, a point-set and
    candidate lists drawn from both circuits' nets."""
    rng = random.Random(seed)
    impl = make_random_circuit(seed, n_inputs=5, n_gates=14, n_outputs=2)
    spec = make_random_circuit(seed + 7919, n_inputs=5, n_gates=14,
                               n_outputs=2)
    samples = [{n: bool(rng.getrandbits(1)) for n in impl.inputs}
               for _ in range(num_samples)]
    domain = SamplingDomain(BddManager(), samples, impl.inputs)
    impl_z = domain.cast_circuit(impl)
    spec_z = domain.cast_circuit(spec)
    ports = rng.sample(sorted(impl.outputs), num_ports)
    roots = [impl.outputs[p] for p in ports]
    pool = [Pin.output(p) for p in ports] + [
        Pin.gate(g, i) for g in topological_order(impl, roots=roots)
        for i in range(len(impl.gates[g].fanins))]
    pins = rng.sample(pool, min(num_points, len(pool)))
    sources = ([(n, False) for n in impl.nets()]
               + [(n, True) for n in spec.nets()])
    candidates = []
    for pin in pins:
        driver = impl.pin_driver(pin)
        cands = [RewireCandidate(driver, False, 0.0, impl_z[driver],
                                 trivial=True)]
        for net, from_spec in rng.sample(sources, rng.randint(1, 5)):
            z = spec_z[net] if from_spec else impl_z[net]
            cands.append(RewireCandidate(net, from_spec, 0.5, z))
        if pin.is_output_port and rng.random() < 0.7:
            net = spec.outputs[pin.owner]
            cands.append(RewireCandidate(net, True, 0.5, spec_z[net]))
        candidates.append(cands)
    table = {}

    def cost(pin, cand):
        key = (pin, cand.net, cand.from_spec, cand.trivial)
        if key not in table:
            table[key] = 0.0 if cand.trivial else float(rng.randint(1, 4))
        return table[key]

    spec_values = {p: spec_z[spec.outputs[p]] for p in ports}
    return impl, domain, spec_values, pins, candidates, cost


class TestAgainstSymbolicXi:
    """The word-based check returns exactly the choices the symbolic
    ``Xi(c)`` of ``tests/eco/reference_xi.py`` admits."""

    @given(seed=st.integers(min_value=0, max_value=10_000),
           num_points=st.integers(min_value=1, max_value=3),
           num_ports=st.integers(min_value=1, max_value=2),
           num_samples=st.integers(min_value=1, max_value=13),
           limit=st.integers(min_value=1, max_value=20))
    @settings(max_examples=80, deadline=None)
    def test_same_choices_as_reference(self, seed, num_points, num_ports,
                                       num_samples, limit):
        impl, domain, spec_values, pins, candidates, cost = \
            random_choice_problem(seed, num_points, num_ports, num_samples)
        got = enumerate_rewiring_choices_joint(
            impl, spec_values, domain, pins, candidates, limit=limit,
            cost_fn=cost)
        want = reference_choices_joint(
            impl, spec_values, domain, pins, candidates, limit=limit,
            cost_fn=cost)
        assert got == want
        if len(spec_values) == 1:
            [(port, value)] = spec_values.items()
            assert enumerate_rewiring_choices(
                impl, port, domain, pins, candidates, value, limit=limit,
                cost_fn=cost) == want

    def test_example2_matches_reference(self):
        impl, spec, domain, pins, cands, spec_z = example2_setup()
        spec_values = {"w_0": spec_z[spec.outputs["w_0"]]}
        assert enumerate_rewiring_choices_joint(
            impl, spec_values, domain, pins, cands, limit=16) == \
            reference_choices_joint(impl, spec_values, domain, pins, cands,
                                    limit=16)
