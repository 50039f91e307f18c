"""Reference per-gate dictionary walk: the oracle for compiled plans.

:class:`repro.netlist.simulate.CompiledPlan` is the program's only
simulation path.  This walk evaluates the same circuit gate by gate
with :func:`repro.netlist.gate.eval_gate`, one 64-pattern word at a
time, and exists only so tests and benchmarks can pin the plan to an
independent implementation.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Sequence

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.gate import WORD_BITS, WORD_MASK, eval_gate
from repro.netlist.simulate import random_patterns
from repro.netlist.traverse import topological_order


def walk_words(circuit: Circuit, input_words: Mapping[str, int],
               order: Optional[Sequence[str]] = None) -> Dict[str, int]:
    """Every net's 64-bit word, walking ``order`` (default: the whole
    circuit in topological order)."""
    if order is None:
        order = topological_order(circuit)
    values: Dict[str, int] = {}
    for name in circuit.inputs:
        try:
            values[name] = input_words[name] & WORD_MASK
        except KeyError:
            raise NetlistError(f"missing value for input {name!r}")
    gates = circuit.gates
    for name in order:
        gate = gates[name]
        values[name] = eval_gate(gate.gtype,
                                 [values[f] for f in gate.fanins])
    return values


def walk_signature(circuit: Circuit, rounds: int,
                   seed: int = 2019) -> Dict[str, int]:
    """Per-round walk of :func:`repro.netlist.simulate.signature`: each
    round's word is shifted in after the previous rounds'."""
    rng = random.Random(seed)
    sigs: Dict[str, int] = {n: 0 for n in circuit.nets()}
    for _ in range(rounds):
        values = walk_words(circuit, random_patterns(circuit.inputs, rng))
        for net in sigs:
            sigs[net] = (sigs[net] << WORD_BITS) | values[net]
    return sigs
