"""Tests for SAT-based equivalence checking."""

import pytest

from repro.errors import NetlistError
from repro.cec.equivalence import (
    PairwiseChecker,
    check_equivalence,
    check_output_pair,
    nonequivalent_outputs,
)
from repro.netlist.circuit import Circuit
from repro.netlist.simulate import evaluate_outputs
from repro.synth import optimize_heavy
from tests.conftest import make_random_circuit


def two_output_pair():
    left = Circuit("l")
    left.add_inputs(["a", "b", "c"])
    left.set_output("same", left.and_("a", "b"))
    left.set_output("diff", left.or_("a", "c"))
    right = Circuit("r")
    right.add_inputs(["a", "b", "c"])
    right.set_output("same", right.and_("b", "a"))
    right.set_output("diff", right.xor("a", "c"))
    return left, right


class TestCheckEquivalence:
    def test_equivalent_restructured(self):
        c = make_random_circuit(11)
        h = optimize_heavy(c, seed=5)
        result = check_equivalence(c, h)
        assert result.equivalent is True
        assert bool(result)

    def test_counterexample_is_real(self):
        left, right = two_output_pair()
        result = check_equivalence(left, right)
        assert result.equivalent is False
        assert not bool(result)
        cex = result.counterexample
        lv = evaluate_outputs(left, cex)
        rv = evaluate_outputs(right, cex)
        assert any(lv[p] != rv[p] for p in result.failing_outputs)

    def test_failing_outputs_identified(self):
        left, right = two_output_pair()
        result = check_equivalence(left, right)
        assert "diff" in result.failing_outputs
        assert "same" not in result.failing_outputs

    def test_output_subset(self):
        left, right = two_output_pair()
        assert check_equivalence(left, right, outputs=["same"]).equivalent

    def test_empty_output_list_raises(self):
        left, right = two_output_pair()
        with pytest.raises(NetlistError):
            check_equivalence(left, right, outputs=[])

    def test_missing_output_raises(self):
        left, right = two_output_pair()
        with pytest.raises(NetlistError):
            check_equivalence(left, right, outputs=["same", "nope"])
        with pytest.raises(NetlistError):
            nonequivalent_outputs(left, right, outputs=["nope"])

    def test_no_shared_outputs(self):
        left, _ = two_output_pair()
        right = Circuit("r")
        right.add_input("a")
        right.set_output("other", "a")
        with pytest.raises(NetlistError):
            check_equivalence(left, right)


class TestCheckOutputPair:
    def test_pairwise(self):
        left, right = two_output_pair()
        assert check_output_pair(left, right, "same").equivalent is True
        result = check_output_pair(left, right, "diff")
        assert result.equivalent is False
        assert result.failing_outputs == ("diff",)

    def test_budget_unknown(self):
        # a hard miter: two different-looking but equivalent parity trees
        left = make_random_circuit(3, n_inputs=8, n_gates=60, n_outputs=1)
        right = optimize_heavy(left, seed=9)
        result = check_output_pair(left, right, "y0", conflict_budget=1)
        assert result.equivalent in (True, None)


class TestPairwiseChecker:
    def test_incremental_reuse(self):
        left, right = two_output_pair()
        checker = PairwiseChecker(left, right)
        assert checker.check_pair("same").equivalent is True
        assert checker.check_pair("diff").equivalent is False
        assert checker.check_pair("same").equivalent is True

    def test_missing_port(self):
        left, right = two_output_pair()
        with pytest.raises(NetlistError):
            PairwiseChecker(left, right).check_pair("nope")


class TestNonequivalentOutputs:
    def test_lists_only_bad_ports(self):
        left, right = two_output_pair()
        assert nonequivalent_outputs(left, right) == ["diff"]

    def test_empty_when_equivalent(self):
        c = make_random_circuit(2)
        assert nonequivalent_outputs(c, c.copy()) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_simulation_prepass_is_exact(self, seed):
        """The sim pre-pass must never change the SAT-only verdict."""
        import random

        from repro.netlist.circuit import Pin
        from repro.netlist.traverse import topological_order

        left = make_random_circuit(seed)
        right = left.copy(name="right")
        rng = random.Random(seed + 50)
        names = topological_order(right)
        k = rng.randrange(len(names))
        gate = right.gates[names[k]]
        pool = [n for n in list(right.inputs) + names[:k]
                if n != gate.fanins[0]]
        if pool:
            right.rewire_pin(Pin.gate(names[k], 0), rng.choice(pool))
        failing = nonequivalent_outputs(left, right, sim_rounds=0)
        assert nonequivalent_outputs(left, right) == failing
        verdict = check_equivalence(left, right)
        assert verdict.equivalent is (not failing)
        assert set(verdict.failing_outputs) <= set(failing)


def _mutated_pair(seed, n_gates=25):
    """A random circuit and a copy with one gate pin rewired."""
    import random

    from repro.netlist.circuit import Pin
    from repro.netlist.traverse import topological_order

    left = make_random_circuit(seed, n_gates=n_gates)
    right = left.copy(name="right")
    rng = random.Random(seed + 50)
    names = topological_order(right)
    k = rng.randrange(len(names))
    gate = right.gates[names[k]]
    pool = [n for n in list(right.inputs) + names[:k]
            if n != gate.fanins[0]]
    if pool:
        right.rewire_pin(Pin.gate(names[k], 0), rng.choice(pool))
    return left, right


class TestPerOutputQueries:
    @pytest.fixture
    def checkers(self, monkeypatch):
        """Every PairwiseChecker built while the test runs."""
        from repro.cec import equivalence

        made = []

        class Recording(PairwiseChecker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(equivalence, "PairwiseChecker", Recording)
        return made

    @pytest.mark.parametrize("budget", [1, 5, 20, 100])
    def test_conflict_budget_is_a_total(self, checkers, budget):
        left = make_random_circuit(0, n_inputs=10, n_gates=120,
                                   n_outputs=6)
        right = optimize_heavy(left, seed=9)
        unbounded = check_equivalence(left, right)
        assert unbounded.equivalent is True
        # the unbounded proof needs far more conflicts than any budget
        assert checkers[0].solver.conflicts > 100
        del checkers[:]
        result = check_equivalence(left, right, conflict_budget=budget)
        assert result.equivalent is None
        assert len(checkers) == 1
        assert checkers[0].solver.conflicts <= budget

    def test_one_checker_for_all_ports(self, checkers, monkeypatch):
        queried = []
        check_pair = PairwiseChecker.check_pair

        def recording(checker, port, **kwargs):
            queried.append(port)
            return check_pair(checker, port, **kwargs)

        monkeypatch.setattr(PairwiseChecker, "check_pair", recording)
        left = make_random_circuit(4, n_inputs=8, n_gates=60, n_outputs=5)
        right = optimize_heavy(left, seed=2)
        assert check_equivalence(left, right).equivalent
        assert len(checkers) == 1
        assert sorted(queried) == sorted(left.outputs)

    @pytest.mark.parametrize("sim_rounds", [0, 8])
    @pytest.mark.parametrize("seed", range(12))
    def test_failing_outputs_exact_under_counterexample(
            self, monkeypatch, seed, sim_rounds):
        """Exact both for simulation and for SAT counterexamples (no
        pre-pass: every port reaches the solver)."""
        from repro.cec import equivalence

        monkeypatch.setattr(equivalence, "_SIM_ROUNDS", sim_rounds)
        left, right = _mutated_pair(seed)
        result = check_equivalence(left, right)
        if result.equivalent is True:
            assert nonequivalent_outputs(left, right) == []
            return
        assert result.equivalent is False
        lv = evaluate_outputs(left, result.counterexample)
        rv = evaluate_outputs(right, result.counterexample)
        differing = {p for p in left.outputs if lv[p] != rv[p]}
        assert differing
        assert set(result.failing_outputs) == differing
