"""Structural hashing (strash).

``structural_hash`` assigns every net a key that is identical for
structurally identical cones; ``strash`` rebuilds a circuit merging
gates with identical ``(type, canonical fanins)`` signatures.  This is
the first pass of every synthesis script and the paper's premise that
optimized netlists share logic aggressively.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType, SYMMETRIC_TYPES
from repro.netlist.traverse import topological_order


def _canonical_fanins(gtype: GateType, fanins: Tuple[str, ...]) -> Tuple[str, ...]:
    if gtype in SYMMETRIC_TYPES:
        return tuple(sorted(fanins))
    return fanins


def structural_hash(circuit: Circuit,
                    table: Optional[Dict[object, int]] = None
                    ) -> Dict[str, int]:
    """Map every net to a structural key.

    Two nets receive the same key iff their cones are structurally
    identical up to symmetric-fanin reordering.  Primary inputs hash to
    distinct keys by name.  Keys are indices into the intern ``table``;
    passing one table to several calls makes their keys comparable
    across circuits (or across edits of one circuit).
    """
    keys: Dict[str, int] = {}
    if table is None:
        table = {}

    def intern(sig: object) -> int:
        if sig not in table:
            table[sig] = len(table)
        return table[sig]

    for name in circuit.inputs:
        keys[name] = intern(("input", name))
    for name in topological_order(circuit):
        gate = circuit.gates[name]
        fk = tuple(keys[f] for f in gate.fanins)
        if gate.gtype in SYMMETRIC_TYPES:
            fk = tuple(sorted(fk))
        keys[name] = intern((gate.gtype, fk))
    return keys


def strash(circuit: Circuit, name: Optional[str] = None) -> Circuit:
    """Rebuild the circuit with structurally duplicate gates merged.

    Gate and net names of surviving gates are preserved (the first
    occurrence in topological order wins), so the result can be related
    back to the original netlist — important for ECO flows that must
    track rectification points by name.
    """
    out = Circuit(name or circuit.name)
    out.add_inputs(circuit.inputs)
    rep: Dict[str, str] = {n: n for n in circuit.inputs}
    table: Dict[Tuple, str] = {}
    for gname in topological_order(circuit):
        gate = circuit.gates[gname]
        fanins = tuple(rep[f] for f in gate.fanins)
        # single-fanin AND/OR/XOR degenerate to a buffer of the operand
        if gate.gtype in (GateType.AND, GateType.OR, GateType.XOR) and len(fanins) == 1:
            rep[gname] = fanins[0]
            continue
        if gate.gtype is GateType.BUF:
            rep[gname] = fanins[0]
            continue
        sig = (gate.gtype, _canonical_fanins(gate.gtype, fanins))
        if sig in table:
            rep[gname] = table[sig]
        else:
            out.add_gate(gname, gate.gtype, list(fanins))
            table[sig] = gname
            rep[gname] = gname
    for port, net in circuit.outputs.items():
        out.set_output(port, rep[net])
    return out
