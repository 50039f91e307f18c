"""Soundness of the restricted final verification.

Diagnosis SAT-proves every output it does not report failing; final
verification re-proves only the outputs that failed there or whose
structural key changed since (:class:`repro.eco.engine.DiagnosedOutputs`).
These tests pin that rule: the selection helper on hand-made edits, an
engine run whose netlist is damaged after diagnosis, and a property
test that the engine's verdict always equals a full check.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cec.equivalence import check_equivalence
from repro.errors import EcoError
from repro.eco import engine
from repro.eco.config import EcoConfig
from repro.eco.engine import DiagnosedOutputs, rectify
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import SYMMETRIC_TYPES
from repro.netlist.traverse import topological_order
from tests.conftest import make_random_circuit


def three_cones():
    """o1 over a deep AND/OR chain, o2 an XOR, o3 a NAND; a MUX in o2's
    cone has ordered data inputs."""
    c = Circuit("cones")
    c.add_inputs(["a", "b", "c", "d"])
    g1 = c.and_("a", "b", name="g1")
    g2 = c.or_(g1, "c", name="g2")
    c.set_output("o1", c.and_(g2, "d", name="g4"))
    m = c.mux("a", "c", "d", name="m")
    c.set_output("o2", c.xor(m, "b", name="g3"))
    c.set_output("o3", c.nand("a", "d", name="g5"))
    return c


PORTS = ["o1", "o2", "o3"]


class TestOutputSelection:
    def test_untouched_outputs_are_skipped(self):
        c = three_cones()
        diagnosed = DiagnosedOutputs(c, [])
        # a dangling clone touches no output cone
        c.or_("a", "d", name="clone")
        assert diagnosed.to_reprove(c, PORTS) == []

    def test_deep_rewire_selects_its_output_only(self):
        c = three_cones()
        diagnosed = DiagnosedOutputs(c, [])
        c.rewire_pin(Pin.gate("g1", 1), "c")
        assert diagnosed.to_reprove(c, PORTS) == ["o1"]

    def test_symmetric_fanin_swap_is_not_a_change(self):
        c = three_cones()
        diagnosed = DiagnosedOutputs(c, [])
        c.rewire_pin(Pin.gate("g1", 0), "b")
        c.rewire_pin(Pin.gate("g1", 1), "a")
        assert c.gates["g1"].fanins == ["b", "a"]
        assert diagnosed.to_reprove(c, PORTS) == []

    def test_ordered_fanin_swap_is_a_change(self):
        c = three_cones()
        diagnosed = DiagnosedOutputs(c, [])
        c.rewire_pin(Pin.gate("m", 1), "d")
        c.rewire_pin(Pin.gate("m", 2), "c")
        assert diagnosed.to_reprove(c, PORTS) == ["o2"]

    def test_failing_output_is_always_selected(self):
        c = three_cones()
        diagnosed = DiagnosedOutputs(c, ["o3"])
        assert diagnosed.to_reprove(c, PORTS) == ["o3"]

    def test_port_moved_to_identical_clone_is_not_a_change(self):
        c = three_cones()
        diagnosed = DiagnosedOutputs(c, [])
        c.set_output("o3", c.nand("d", "a", name="g5_clone"))
        assert diagnosed.to_reprove(c, PORTS) == []

    def test_port_moved_to_other_logic_is_a_change(self):
        c = three_cones()
        diagnosed = DiagnosedOutputs(c, [])
        c.set_output("o3", c.nor("a", "d", name="g5_nor"))
        assert diagnosed.to_reprove(c, PORTS) == ["o3"]

    def test_rewire_and_restore_is_not_a_change(self):
        c = three_cones()
        diagnosed = DiagnosedOutputs(c, [])
        c.rewire_pin(Pin.gate("g2", 1), "d")
        c.rewire_pin(Pin.gate("g2", 1), "c")
        assert diagnosed.to_reprove(c, PORTS) == []


def two_blocks():
    """Output o0 carries a bug (OR for AND); o1 is equivalent."""
    def build(name, buggy):
        c = Circuit(name)
        c.add_inputs(["a", "b", "c", "d", "e"])
        g = (c.or_ if buggy else c.and_)("a", "b", name="g0")
        c.set_output("o0", c.xor(g, "c", name="x0"))
        h = c.and_("c", "d", name="h1")
        c.set_output("o1", c.or_(h, "e", name="h2"))
        return c
    return build("impl", True), build("spec", False)


def invert_pin(work, pin):
    """Feed ``pin`` the complement of its driver: a functional change."""
    work.rewire_pin(pin, work.not_(work.pin_driver(pin)))


class TestEngineReprovesChangedOutputs:
    @pytest.fixture
    def proven(self, monkeypatch):
        """The output lists the engine's final verification proves."""
        calls = []

        def recording_check(left, right, outputs=None, **kwargs):
            calls.append(tuple(outputs))
            return check_equivalence(left, right, outputs=outputs, **kwargs)

        monkeypatch.setattr(engine, "check_equivalence", recording_check)
        return calls

    def test_damage_after_diagnosis_is_caught(self, monkeypatch, proven):
        impl, spec = two_blocks()
        real_refine = engine.refine_patch_inputs

        def refine_then_damage(work, cloned, seed=0):
            real_refine(work, cloned, seed=seed)
            # o1 was proven equivalent at diagnosis and is not failing
            invert_pin(work, Pin.gate("h2", 1))

        monkeypatch.setattr(engine, "refine_patch_inputs",
                            refine_then_damage)
        with pytest.raises(EcoError):
            rectify(impl, spec, EcoConfig(num_samples=8))
        assert proven == [("o0", "o1")]

    def test_clean_run_reproves_failing_output_only(self, proven):
        impl, spec = two_blocks()
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        assert proven == [("o0",)]
        assert check_equivalence(result.patched, spec).equivalent is True

    def test_nothing_to_reprove_skips_the_check(self, monkeypatch):
        impl, _ = two_blocks()

        def forbidden(*args, **kwargs):
            raise AssertionError("no output needs re-proving")

        monkeypatch.setattr(engine, "check_equivalence", forbidden)
        result = rectify(impl, impl.copy(name="spec"))
        assert result.verified_outputs == ("o0", "o1")


def _sabotage(work, rng):
    """A random edit inside the output cones: none, a symmetric fanin
    swap, a pin inversion or a rewire to an earlier net (never a
    cycle)."""
    order = topological_order(work)
    cone = set(topological_order(work, roots=list(work.outputs.values())))
    gates = [g for g in order if g in cone]
    kind = rng.choice("nsiirr")
    if kind == "n" or not gates:
        return
    name = rng.choice(gates)
    gate = work.gates[name]
    if kind == "s":
        if len(gate.fanins) >= 2 and gate.gtype in SYMMETRIC_TYPES:
            f0, f1 = gate.fanins[0], gate.fanins[1]
            work.rewire_pin(Pin.gate(name, 0), f1)
            work.rewire_pin(Pin.gate(name, 1), f0)
        return
    pin = Pin.gate(name, rng.randrange(len(gate.fanins)))
    if kind == "i":
        invert_pin(work, pin)
        return
    earlier = list(work.inputs) + order[:order.index(name)]
    work.rewire_pin(pin, rng.choice(earlier))


class TestVerdictMatchesFullCheck:
    @given(seed=st.integers(min_value=0, max_value=400),
           edit_seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_engine_verdict_equals_full_check(self, seed, edit_seed):
        spec = make_random_circuit(seed, n_inputs=5, n_gates=20,
                                   n_outputs=4)
        impl = spec.copy(name="impl")
        _sabotage(impl, random.Random(seed))
        final = {}
        real_refine = engine.refine_patch_inputs

        def refine_then_edit(work, cloned, seed=0):
            real_refine(work, cloned, seed=seed)
            _sabotage(work, random.Random(edit_seed))
            final["work"] = work

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "refine_patch_inputs", refine_then_edit)
            try:
                rectify(impl, spec, EcoConfig(num_samples=8))
                engine_verdict = True
            except EcoError:
                engine_verdict = False
        full = check_equivalence(final["work"], spec)
        assert engine_verdict is full.equivalent
