"""Patch-input refinement by sweeping (Section 5.2, post-processing).

After all rewires are committed, each gate cloned from the
specification is compared against the pre-existing implementation
logic: when an original net is SAT-proven equivalent to a cloned net
(and wiring it in is acyclic), the clone's sinks are redirected to the
original and the clone is removed.  This 'reuses already existing
current implementation logic, thereby reducing the patch size'.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.simulate import signature
from repro.netlist.traverse import transitive_fanout
from repro.cec.sweep import prune_dangling
from repro.sat import Solver, UNSAT
from repro.sat.tseitin import CircuitEncoder


def refine_patch_inputs(patched: Circuit, cloned_gates: Set[str],
                        rounds: int = 4, seed: int = 97,
                        conflict_budget: Optional[int] = 20000
                        ) -> Tuple[int, Set[str]]:
    """Replace cloned patch logic with equivalent existing nets.

    Args:
        patched: the rectified implementation (modified in place).
        cloned_gates: names of gates the patch instantiated.
        rounds: random-simulation rounds for candidate pairing.
        seed: simulation seed.
        conflict_budget: SAT budget per equivalence proof.

    Returns:
        ``(replacements, remaining_clones)`` — the number of cloned
        nets eliminated and the cloned gates still present afterwards.
    """
    alive = {g for g in cloned_gates if g in patched.gates}
    if not alive:
        return 0, set()

    sigs = signature(patched, rounds=rounds, seed=seed)
    by_sig: Dict[int, List[str]] = {}
    for net, sig in sigs.items():
        if net not in alive:
            by_sig.setdefault(sig, []).append(net)

    solver = Solver()
    encoder = CircuitEncoder(solver)
    varmap = encoder.encode(patched)

    replacements = 0
    # deepest clones first so upstream replacements cascade
    for clone in sorted(alive, key=lambda g: -_depth(patched, g)):
        if clone not in patched.gates or not patched.sinks(clone):
            continue
        originals = by_sig.get(sigs[clone], ())
        for candidate in originals:
            if candidate in transitive_fanout(patched, [clone]):
                continue  # would create a cycle
            neq = encoder.xor2(varmap[clone], varmap[candidate])
            if solver.solve(assumptions=[neq],
                            conflict_budget=conflict_budget) == UNSAT:
                patched.replace_net(clone, candidate)
                replacements += 1
                break
    if replacements:
        prune_dangling(patched)
    remaining = {g for g in alive if g in patched.gates}
    return replacements, remaining


def _depth(circuit: Circuit, net: str) -> int:
    """Cheap depth proxy: fanin count of the driving gate."""
    gate = circuit.gates.get(net)
    return len(gate.fanins) if gate else 0
