"""The benchmark's own equivalence check, independent of ``repro.cec``.

Both netlists are turned into BDDs over one :class:`BddManager` and one
input map; BDDs are canonical, so the patched netlist implements the
spec exactly when every output port maps to the same node. ``repro.cec``
(the SAT-based checker) is deliberately not used: it is one of the
layers under test.
"""

from __future__ import annotations

from typing import Dict

from repro.bdd.manager import BddManager
from repro.bdd.netbridge import net_functions
from repro.netlist.circuit import Circuit


def equivalent(patched: Circuit, spec: Circuit) -> bool:
    """True when ``patched`` computes ``spec`` on every output port."""
    if set(patched.outputs) != set(spec.outputs):
        return False
    if set(patched.inputs) - set(spec.inputs):
        return False
    manager = BddManager()
    inputs = {name: manager.var(manager.add_var()) for name in spec.inputs}
    ports = sorted(spec.outputs)
    want = net_functions(spec, manager, inputs,
                         roots=[spec.outputs[p] for p in ports])
    got = net_functions(patched, manager,
                        {name: inputs[name] for name in patched.inputs},
                        roots=[patched.outputs[p] for p in ports])
    return all(got[patched.outputs[p]] == want[spec.outputs[p]]
               for p in ports)


class Checker:
    """Equivalence verdicts, remembered per netlist.

    Repeated calls of one workload return structurally identical
    patched netlists; an identical netlist computes the same functions,
    so its verdict is looked up instead of rebuilt.
    """

    def __init__(self) -> None:
        self._verdicts: Dict[tuple, bool] = {}

    def __call__(self, patched: Circuit, spec: Circuit) -> bool:
        key = (id(spec), _structure(patched))
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = equivalent(patched, spec)
        return verdict


def _structure(circuit: Circuit) -> tuple:
    return (tuple(circuit.inputs),
            tuple(sorted(circuit.outputs.items())),
            tuple(sorted((name, gate.gtype, tuple(gate.fanins))
                         for name, gate in circuit.gates.items())))
