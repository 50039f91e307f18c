"""Full-domain validation of sampled rewire candidates (Section 5.2).

Reasoning in the sampling domain over-approximates, so every rewire
choice is re-checked exactly before it is committed: the operation is
applied to a scratch copy of the implementation and the affected
outputs are compared against the specification with a resource-
constrained SAT solver.  The check is *global*: a candidate is rejected
when it damages any currently-correct output, and the number of failing
outputs it fixes is reported so the engine can favor multi-output
repairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PatchStructureError
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import WORD_BITS
from repro.netlist.simulate import batch_mask, compiled_plan, eval_opcode
from repro.netlist.traverse import (
    dependent_outputs,
    topological_order,
    transitive_fanout,
)
from repro.cec.equivalence import PairwiseChecker
from repro.eco.patch import RewireOp

CLONE_PREFIX = "eco$"


def assert_patch_structure(patched: Circuit,
                           ops: Sequence[RewireOp]) -> None:
    """Post-commit structural assertion on a patched circuit.

    Runs the error tier of the netlist analyzer
    (:func:`repro.lint.netlist_rules.lint_netlist` with ``deep=False``)
    on the circuit a patch produced and raises
    :class:`~repro.errors.PatchStructureError` carrying the diagnostics
    when any error-severity finding exists.  The pre-SAT screen should
    make this unreachable; it is the engine's safety net against screen
    bugs, not a user-facing validator.
    """
    from repro.lint.netlist_rules import lint_netlist

    report = lint_netlist(patched, deep=False)
    bad = report.errors
    if bad:
        raise PatchStructureError(
            f"patch of {len(ops)} rewire op(s) left circuit "
            f"{patched.name!r} ill-formed: "
            + "; ".join(d.render() for d in bad),
            diagnostics=bad,
        )


def topological_constraint_ok(impl: Circuit, pins: Sequence[Pin]) -> bool:
    """The Section 3.3 restriction: no path connects any pair of pins."""
    gate_pins = [p for p in pins if not p.is_output_port]
    owners = {p.owner for p in gate_pins}
    for pin in gate_pins:
        downstream = transitive_fanout(impl, [pin.owner])
        downstream.discard(pin.owner)
        if downstream & owners:
            return False
    return True


def rewire_acyclic(impl: Circuit, ops: Sequence[RewireOp]) -> bool:
    """No implementation-sourced rewire may close a combinational cycle.

    Checked jointly: with several simultaneous rewires a cycle can pass
    through more than one new edge, so the test walks the fanout
    relation augmented with all proposed edges at once.
    """
    extra_edges: Dict[str, Set[str]] = {}
    for op in ops:
        if op.from_spec or op.pin.is_output_port:
            continue
        extra_edges.setdefault(op.source_net, set()).add(op.pin.owner)

    if not extra_edges:
        return True

    fanout: Dict[str, List[str]] = {}
    for g in impl.gates.values():
        for i, f in enumerate(g.fanins):
            # skip edges that the rewires remove
            if any(op.pin == Pin.gate(g.name, i) for op in ops):
                continue
            fanout.setdefault(f, []).append(g.name)
    for src, dsts in extra_edges.items():
        fanout.setdefault(src, []).extend(dsts)

    # cycle check via DFS from the new edges' sources
    state: Dict[str, int] = {}

    def dfs(net: str) -> bool:
        stack = [(net, iter(fanout.get(net, ())))]
        state[net] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                st = state.get(nxt)
                if st == 0:
                    return False  # back edge: cycle
                if st is None:
                    state[nxt] = 0
                    stack.append((nxt, iter(fanout.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 1
                stack.pop()
        return True

    for src in extra_edges:
        if state.get(src) is None:
            if not dfs(src):
                return False
    return True


def clone_spec_cone(work: Circuit, spec: Circuit, net: str,
                    clone_map: Dict[str, str]) -> str:
    """Instantiate the cone of a specification net inside ``work``.

    Primary inputs are shared by name; previously cloned gates (tracked
    in ``clone_map``) are reused, so overlapping cones from successive
    rewires share logic.  Returns the name of the clone of ``net``.
    """
    if net in spec.inputs:
        return net
    if net in clone_map:
        return clone_map[net]
    for gname in topological_order(spec, roots=[net]):
        if gname in clone_map:
            continue
        gate = spec.gates[gname]
        fanins = [
            f if f in spec.inputs else clone_map[f] for f in gate.fanins
        ]
        clone_name = f"{CLONE_PREFIX}{gname}"
        while work.has_net(clone_name):
            clone_name += "_"
        work.add_gate(clone_name, gate.gtype, fanins)
        clone_map[gname] = clone_name
    return clone_map[net]


def apply_rewires(work: Circuit, spec: Circuit, ops: Sequence[RewireOp],
                  clone_map: Dict[str, str]) -> Set[str]:
    """Apply rewire operations in place; returns newly cloned gate names.

    ``clone_map`` persists across calls so later rewires reuse earlier
    clones.
    """
    before = set(clone_map.values())
    for op in ops:
        if op.from_spec:
            source = clone_spec_cone(work, spec, op.source_net, clone_map)
        else:
            source = op.source_net
        work.rewire_pin(op.pin, source)
    return set(clone_map.values()) - before


class SimulationFilter:
    """Cheap full-pattern screen applied before SAT validation.

    Sampling-domain reasoning over-approximates, so many rewiring
    choices are false positives.  Before paying for a SAT proof, the
    candidate is re-simulated on a few 64-pattern words (the error
    samples plus fresh random words): any output mismatch on any
    pattern disqualifies it immediately.  Passing the screen is
    necessary but not sufficient — SAT still gives the final word.

    All words are packed into one multi-word batch and evaluated
    through the circuits' compiled plans once at construction; each
    candidate is then screened as a *value overlay* — only gates
    downstream of a rewired pin are re-evaluated, on plain
    integer-indexed values.
    """

    def __init__(self, impl: Circuit, spec: Circuit,
                 words_list: Sequence[Dict[str, int]],
                 counters=None):
        self.impl = impl
        self.spec = spec
        self.words_list = list(words_list)
        self.counters = counters
        self.width = max(1, len(self.words_list))
        self.mask = batch_mask(self.width)
        batch: Dict[str, int] = {}
        for k, words in enumerate(self.words_list):
            shift = WORD_BITS * k
            for name in impl.inputs:
                batch[name] = batch.get(name, 0) | \
                    (words.get(name, 0) << shift)
        self.plan = compiled_plan(impl)
        self.spec_plan = compiled_plan(spec)
        spec_batch = {n: batch.get(n, 0) for n in spec.inputs}
        self.base = self.plan.run(batch, self.mask)
        self.spec_base = self.spec_plan.run(spec_batch, self.mask)
        if counters is not None:
            counters.plan_evals += 2

    def _source_value(self, op: RewireOp,
                      updated: Dict[int, int]) -> int:
        if op.from_spec:
            return self.spec_base[self.spec_plan.index[op.source_net]]
        idx = self.plan.index[op.source_net]
        return updated.get(idx, self.base[idx])

    def passes(self, ops: Sequence[RewireOp], target: str,
               failing: Sequence[str]) -> bool:
        """Screen one candidate rewire.

        Requires the target output and every currently-passing output to
        match the spec on every simulated pattern; other failing outputs
        may remain wrong (SAT validation later reports which of them the
        rewire happens to fix).
        """
        failing_set = set(failing) - {target}
        plan = self.plan
        index = plan.index
        base = self.base
        mask = self.mask
        if self.counters is not None:
            self.counters.plan_evals += 1

        # last op per pin wins, as in the reference per-pattern screen
        gate_ops: Dict[int, Dict[int, RewireOp]] = {}
        port_ops: Dict[str, RewireOp] = {}
        for op in ops:
            if op.pin.is_output_port:
                port_ops[op.pin.owner] = op
            else:
                gate_ops.setdefault(
                    index[op.pin.owner], {})[op.pin.index] = op

        updated: Dict[int, int] = {}
        for out, opcode, fanins in plan.steps:
            pin_ops = gate_ops.get(out)
            if pin_ops is None:
                for j in fanins:
                    if j in updated:
                        break
                else:
                    continue
                operands = [updated.get(j, base[j]) for j in fanins]
            else:
                operands = []
                for pos, j in enumerate(fanins):
                    op = pin_ops.get(pos)
                    if op is not None:
                        operands.append(self._source_value(op, updated))
                    else:
                        operands.append(updated.get(j, base[j]))
            new = eval_opcode(opcode, operands, mask)
            if new != base[out]:
                updated[out] = new

        spec_index = self.spec_plan.index
        spec_base = self.spec_base
        for port, net in self.impl.outputs.items():
            if port in failing_set:
                continue
            op = port_ops.get(port)
            if op is not None:
                got = self._source_value(op, updated)
            else:
                j = index[net]
                got = updated.get(j, base[j])
            if got != spec_base[spec_index[self.spec.outputs[port]]]:
                return False
        return True

    def passes_batch(self, candidates: Sequence[Sequence[RewireOp]],
                     target: str,
                     failing: Sequence[str]) -> List[bool]:
        """:meth:`passes` for each candidate, in order.

        The repository benchmark's ledger (``perfbench/ledger.py``)
        wraps this method by name, so it stays while that ledger does.
        """
        return [self.passes(ops, target, failing) for ops in candidates]


@dataclass
class ValidationOutcome:
    """Result of one full-domain validation."""

    valid: bool
    #: previously-failing ports this rewire provably fixes
    fixed: Tuple[str, ...] = ()
    #: ports whose check exhausted the SAT budget (treated as not fixed)
    unknown: Tuple[str, ...] = ()
    #: the patched scratch circuit (only when valid)
    patched: Optional[Circuit] = None
    clone_map: Dict[str, str] = field(default_factory=dict)
    new_gates: Set[str] = field(default_factory=set)
    #: input assignment refuting the target output, when the check
    #: found one (feeds counterexample-guided domain refinement)
    target_counterexample: Optional[Dict[str, bool]] = None


def validate_rewire(impl: Circuit, spec: Circuit, ops: Sequence[RewireOp],
                    failing: Sequence[str], clone_map: Dict[str, str],
                    sat_budget: Optional[int] = None,
                    target: Optional[str] = None,
                    run=None) -> ValidationOutcome:
    """Exact check of a candidate rewire on the full input domain.

    A candidate is valid when every output it touches is either proven
    equivalent to the spec or was already failing (it may leave other
    failing outputs broken, but must never damage a passing one).

    With a :class:`~repro.runtime.supervisor.RunSupervisor` as ``run``,
    each per-output query goes through the supervisor instead of a flat
    ``sat_budget``: budgets follow the adaptive escalation policy,
    conflicts are charged to the run's aggregate budget, and the
    deadline is checked between outputs.  Budget exhaustion then raises
    a :class:`~repro.errors.ResourceBudgetExceeded` subclass.
    """
    if not topological_constraint_ok(impl, [op.pin for op in ops]):
        return ValidationOutcome(valid=False)
    if not rewire_acyclic(impl, ops):
        return ValidationOutcome(valid=False)

    work = impl.copy()
    local_clone_map = dict(clone_map)
    new_gates = apply_rewires(work, spec, ops, local_clone_map)

    changed_nets = set()
    for op in ops:
        if op.pin.is_output_port:
            changed_nets.add(work.outputs[op.pin.owner])
        else:
            changed_nets.add(op.pin.owner)
    affected = set(dependent_outputs(work, changed_nets))
    for op in ops:
        if op.pin.is_output_port:
            affected.add(op.pin.owner)

    failing_set = set(failing)
    checker = PairwiseChecker(work, spec)
    fixed: List[str] = []
    unknown: List[str] = []
    target_cex: Optional[Dict[str, bool]] = None
    for port in sorted(affected):
        if run is not None:
            run.checkpoint()
            result = run.check_pair_supervised(checker, port)
        else:
            result = checker.check_pair(port, conflict_budget=sat_budget)
        if result.equivalent is True:
            if port in failing_set:
                fixed.append(port)
        elif result.equivalent is False:
            if port == target:
                target_cex = result.counterexample
            if port not in failing_set:
                # damaged a good output
                return ValidationOutcome(valid=False,
                                         target_counterexample=target_cex)
        else:
            unknown.append(port)
            if port not in failing_set:
                # cannot prove we kept a passing output intact: reject
                return ValidationOutcome(valid=False,
                                         target_counterexample=target_cex)
    if not fixed:
        return ValidationOutcome(valid=False,
                                 target_counterexample=target_cex)
    return ValidationOutcome(valid=True, fixed=tuple(fixed),
                             unknown=tuple(unknown), patched=work,
                             clone_map=local_clone_map,
                             new_gates=new_gates)
