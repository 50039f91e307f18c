"""SAT-based equivalence queries over output pairs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.sat import Solver, UNSAT, UNKNOWN
from repro.sat.tseitin import CircuitEncoder


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence query.

    ``equivalent`` is ``True`` / ``False`` / ``None`` (budget exhausted).
    On ``False``, ``counterexample`` maps primary inputs to values and
    ``failing_outputs`` lists the ports that differ under it.
    """

    equivalent: Optional[bool]
    counterexample: Optional[Dict[str, bool]] = None
    failing_outputs: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.equivalent is True


class PairwiseChecker:
    """One incremental SAT instance comparing two circuits.

    Encodes both circuits through one hash-consing
    :class:`~repro.sat.tseitin.CircuitEncoder` over shared input
    variables, so every net the two sides have in common gets one
    literal and is encoded once.  Per-output-pair queries run through
    assumptions, so checking many pairs reuses all learned clauses; a
    pair whose two sides map to the same literal is equivalent without
    a solver call.
    """

    def __init__(self, left: Circuit, right: Circuit):
        self.left = left
        self.right = right
        self.solver = Solver()
        self._encoder = CircuitEncoder(self.solver)
        self._left_map = self._encoder.encode(left)
        shared = {n: self._left_map[n] for n in left.inputs}
        self._right_map = self._encoder.encode(right, input_vars=shared)
        self.input_vars: Dict[str, int] = {
            n: shared.get(n, self._right_map.get(n))
            for n in set(left.inputs) | set(right.inputs)}

    def check_pair(self, port: str,
                   conflict_budget: Optional[int] = None) -> EquivalenceResult:
        """Is one output pair equivalent?"""
        if port not in self.left.outputs or port not in self.right.outputs:
            raise NetlistError(f"output {port!r} missing on one side")
        a = self._left_map[self.left.outputs[port]]
        b = self._right_map[self.right.outputs[port]]
        if a == b:
            return EquivalenceResult(True)
        status = self.solver.solve(assumptions=[self._encoder.xor2(a, b)],
                                   conflict_budget=conflict_budget)
        if status == UNSAT:
            return EquivalenceResult(True)
        if status == UNKNOWN:
            return EquivalenceResult(None)
        cex = self._extract_inputs()
        return EquivalenceResult(False, counterexample=cex,
                                 failing_outputs=(port,))

    def _extract_inputs(self) -> Dict[str, bool]:
        model = self.solver.model()
        return {
            n: model.get(v, False) for n, v in self.input_vars.items()
        }


def check_output_pair(left: Circuit, right: Circuit, port: str,
                      conflict_budget: Optional[int] = None
                      ) -> EquivalenceResult:
    """One-shot equivalence query for a single output port."""
    return PairwiseChecker(left, right).check_pair(
        port, conflict_budget=conflict_budget)


#: random 64-pattern words of the simulation pre-pass
_SIM_ROUNDS = 8


def check_equivalence(left: Circuit, right: Circuit,
                      outputs: Optional[Sequence[str]] = None,
                      conflict_budget: Optional[int] = None
                      ) -> EquivalenceResult:
    """Full equivalence over shared (or given) output ports.

    One assumption query per port on a single
    :class:`PairwiseChecker`, after the same simulation pre-pass as
    :func:`nonequivalent_outputs`; the check stops at the first failing
    port.  ``failing_outputs`` lists exactly the ports that differ
    under the returned counterexample (both sides are simulated on
    it).  ``conflict_budget`` bounds the conflicts of the whole call,
    summed over all ports; the verdict is ``None`` once it is spent.
    """
    outputs = _compared_outputs(left, right, outputs)
    if not outputs:
        raise NetlistError("no shared outputs to compare")
    # ``left`` is typically a patched netlist the caller returns: keep
    # no plan in its derived cache
    for _port, verdict, cex in _port_verdicts(
            left, right, outputs, _SIM_ROUNDS, conflict_budget,
            cache_left=False):
        if verdict is None:
            return EquivalenceResult(None)
        if verdict is False:
            return EquivalenceResult(
                False, counterexample=cex,
                failing_outputs=_differing_ports(left, right, outputs, cex))
    return EquivalenceResult(True)


def _compared_outputs(left: Circuit, right: Circuit,
                      outputs: Optional[Sequence[str]]) -> List[str]:
    if outputs is None:
        return [p for p in left.outputs if p in right.outputs]
    for port in outputs:
        if port not in left.outputs or port not in right.outputs:
            raise NetlistError(f"output {port!r} missing on one side")
    return list(outputs)


def _output_words(circuit: Circuit, outputs: Sequence[str],
                  words: Dict[str, int], mask: int,
                  cached: bool) -> Dict[str, int]:
    """Values of the ``outputs`` ports on one multi-word batch.

    ``cached`` runs the circuit's cached whole-circuit plan; otherwise
    an uncached plan of just the ports' cones is built, so the plan
    does not outlive the call.
    """
    from repro.netlist.simulate import CompiledPlan, compiled_plan

    if cached:
        plan = compiled_plan(circuit)
    else:
        plan = CompiledPlan(circuit,
                            roots=[circuit.outputs[p] for p in outputs])
    values = plan.run(words, mask)
    return {p: values[plan.index[circuit.outputs[p]]] for p in outputs}


def _differing_ports(left: Circuit, right: Circuit, outputs: Sequence[str],
                     cex: Dict[str, bool]) -> Tuple[str, ...]:
    """The ports of ``outputs`` whose values differ under ``cex``."""
    words = {n: int(v) for n, v in cex.items()}
    lvals = _output_words(left, outputs, words, 1, cached=False)
    rvals = _output_words(right, outputs, words, 1, cached=True)
    return tuple(p for p in outputs if lvals[p] != rvals[p])


def _port_verdicts(left: Circuit, right: Circuit, outputs: Sequence[str],
                   sim_rounds: int, conflict_budget: Optional[int] = None,
                   cache_left: bool = True
                   ) -> Iterator[Tuple[str, Optional[bool],
                                       Optional[Dict[str, bool]]]]:
    """Yield ``(port, equivalent, counterexample)`` for each port.

    The shared core of :func:`check_equivalence` and
    :func:`nonequivalent_outputs`.  ``sim_rounds`` random 64-pattern
    words pre-classify the ports: a port whose simulated values differ
    is *exactly* non-equivalent (the differing pattern is its
    counterexample) and is yielded first; every simulation-equal port
    then pays one assumption query on one :class:`PairwiseChecker`, so
    learned clauses carry from port to port.  ``conflict_budget`` is a
    total over all queries; the port whose query exhausts it is
    yielded as ``None`` and the generator stops.  ``cache_left``
    picks the left side's simulation plan (see :func:`_output_words`);
    the right side always uses its cached plan.
    """
    import random

    from repro.netlist.simulate import batch_mask

    todo = list(outputs)
    if sim_rounds:
        rng = random.Random(2019)
        mask = batch_mask(sim_rounds)
        # shared words keyed by sorted name: input order independent
        words = {n: rng.getrandbits(64 * sim_rounds)
                 for n in sorted(set(left.inputs) | set(right.inputs))}
        lvals = _output_words(left, outputs, words, mask, cache_left)
        rvals = _output_words(right, outputs, words, mask, cached=True)
        todo = []
        for port in outputs:
            diff = lvals[port] ^ rvals[port]
            if not diff:
                todo.append(port)
                continue
            bit = (diff & -diff).bit_length() - 1
            yield port, False, {n: bool((w >> bit) & 1)
                                for n, w in words.items()}
    if not todo:
        return
    checker = PairwiseChecker(left, right)
    for port in todo:
        budget = None
        if conflict_budget is not None:
            # the checker's fresh solver counts this call's conflicts
            budget = conflict_budget - checker.solver.conflicts
        result = checker.check_pair(port, conflict_budget=budget)
        yield port, result.equivalent, result.counterexample
        if result.equivalent is None:
            return


def nonequivalent_outputs(left: Circuit, right: Circuit,
                          outputs: Optional[Sequence[str]] = None,
                          sim_rounds: int = _SIM_ROUNDS) -> List[str]:
    """All output ports on which the two circuits disagree.

    This is the work-list of the ECO flow (Section 5.2): the engine
    iterates over corresponding output pairs that remain non-equivalent.

    ``sim_rounds`` random 64-pattern words pre-classify the ports: a
    port whose simulated values differ is *exactly* non-equivalent (the
    differing pattern is a counterexample), so only simulation-equal
    ports pay a SAT query.  ``sim_rounds=0`` disables the pre-pass.
    """
    outputs = _compared_outputs(left, right, outputs)
    bad = {port for port, verdict, _cex in _port_verdicts(
        left, right, outputs, sim_rounds) if verdict is False}
    return [p for p in outputs if p in bad]
