"""Tseitin transformation: netlists to CNF, hash-consed.

:class:`CircuitEncoder` maps every net to a solver *literal* (which may
be negative) and emits Tseitin clauses only for the nodes of a
structurally hashed AND/XOR/MUX graph.  Gates are normalized first:
BUF and NOT cost no variable, AND/NAND/OR/NOR become one AND node over
sorted, de-duplicated operand literals (OR and NOR via De Morgan), and
XOR/XNOR become chains of 2-input XOR nodes over variables (in
variable order) with the sign parity moved to the result.  A node
already in the encoder's table is reused, so structurally identical
logic gets one literal per solver — across circuits too.  Encoding
the implementation and the specification through one encoder over
shared input variables is how miters (:mod:`repro.cec.equivalence`)
and the ECO validation step (:mod:`repro.eco.incremental`) share every
common net of ``C`` and ``C'`` (Kuehlmann & Krohm, DAC 1997).
Primary inputs stay positive variables, so models are read off them
directly.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import SatError
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.netlist.traverse import topological_order


class CircuitEncoder:
    """Encodes circuits into a shared SAT solver instance."""

    def __init__(self, solver):
        self.solver = solver
        self._const0: Optional[int] = None
        self._const1: Optional[int] = None
        #: normalized node key -> output variable
        self._nodes: Dict[Tuple, int] = {}

    def const_var(self, value: bool) -> int:
        """A variable constrained to the given constant."""
        if value:
            if self._const1 is None:
                self._const1 = self.solver.new_var()
                self.solver.add_clause([self._const1])
            return self._const1
        if self._const0 is None:
            self._const0 = self.solver.new_var()
            self.solver.add_clause([-self._const0])
        return self._const0

    # ------------------------------------------------------------------
    def encode(self, circuit: Circuit,
               input_vars: Optional[Mapping[str, int]] = None
               ) -> Dict[str, int]:
        """Encode every net of ``circuit``; returns net -> literal.

        Args:
            circuit: netlist to encode.
            input_vars: existing solver variables per input name; fresh
                variables are created for inputs not listed.

        Returns:
            Mapping from every net name to its solver literal.  Inputs
            map to positive variables; gate nets may map to negative
            literals, and to the same literal as any structurally
            identical net encoded earlier through this encoder.
        """
        litmap: Dict[str, int] = {}
        for name in circuit.inputs:
            if input_vars and name in input_vars:
                litmap[name] = input_vars[name]
            else:
                litmap[name] = self.solver.new_var()
        for name in topological_order(circuit):
            gate = circuit.gates[name]
            operands = [litmap[f] for f in gate.fanins]
            litmap[name] = self.encode_gate(gate.gtype, operands)
        return litmap

    def encode_gate(self, gtype: GateType, operands: Sequence[int]) -> int:
        """The literal of one gate over operand literals."""
        if gtype is GateType.CONST0:
            return self.const_var(False)
        if gtype is GateType.CONST1:
            return self.const_var(True)
        if gtype is GateType.BUF:
            return operands[0]
        if gtype is GateType.NOT:
            return -operands[0]
        if gtype is GateType.AND:
            return self.and_(operands)
        if gtype is GateType.NAND:
            return -self.and_(operands)
        if gtype is GateType.OR:
            return -self.and_([-a for a in operands])
        if gtype is GateType.NOR:
            return self.and_([-a for a in operands])
        if gtype in (GateType.XOR, GateType.XNOR):
            # chain in variable order: fanin permutations share nodes
            operands = sorted(operands, key=abs)
            acc = operands[0]
            for a in operands[1:]:
                acc = self.xor2(acc, a)
            return -acc if gtype is GateType.XNOR else acc
        if gtype is GateType.MUX:
            return self.mux(*operands)
        raise SatError(f"unknown gate type {gtype!r}")

    def and_(self, operands: Sequence[int]) -> int:
        """The literal of the conjunction of ``operands``."""
        distinct = set(operands)
        if any(-a in distinct for a in distinct):
            return self.const_var(False)
        lits = sorted(distinct)
        if len(lits) == 1:
            return lits[0]
        key = ("and",) + tuple(lits)
        out = self._nodes.get(key)
        if out is None:
            s = self.solver
            out = s.new_var()
            for a in lits:
                s.add_clause([-out, a])
            s.add_clause([out] + [-a for a in lits])
            self._nodes[key] = out
        return out

    def xor2(self, a: int, b: int) -> int:
        """The literal of ``a XOR b``."""
        x, y = abs(a), abs(b)
        if x == y:
            return self.const_var(a != b)
        if x > y:
            x, y = y, x
        key = ("xor", x, y)
        out = self._nodes.get(key)
        if out is None:
            s = self.solver
            out = s.new_var()
            s.add_clause([-out, x, y])
            s.add_clause([-out, -x, -y])
            s.add_clause([out, -x, y])
            s.add_clause([out, x, -y])
            self._nodes[key] = out
        return -out if (a < 0) != (b < 0) else out

    def mux(self, sel: int, d0: int, d1: int) -> int:
        """The literal of ``d1 if sel else d0``."""
        key = ("mux", sel, d0, d1)
        out = self._nodes.get(key)
        if out is None:
            s = self.solver
            out = s.new_var()
            s.add_clause([-out, sel, d0])
            s.add_clause([out, sel, -d0])
            s.add_clause([-out, -sel, d1])
            s.add_clause([out, -sel, -d1])
            self._nodes[key] = out
        return out

    def equality(self, a: int, b: int) -> int:
        """A literal true iff ``a == b``."""
        return -self.xor2(a, b)


def encode_circuit(solver, circuit: Circuit,
                   input_vars: Optional[Mapping[str, int]] = None
                   ) -> Dict[str, int]:
    """Convenience wrapper: encode one circuit into a solver."""
    return CircuitEncoder(solver).encode(circuit, input_vars=input_vars)
