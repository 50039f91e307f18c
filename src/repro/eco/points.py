"""Feasible rectification point-sets: the ``H(t)`` computation (Sec. 4.2).

For a failing output with candidate sink pins ``{q_0 ... q_{M-1}}`` and
at most ``m`` rectification points, parametric variables ``t_i`` (one
``ceil(log2 M)``-bit word per point, big-endian as in the paper) select
a pin per point.  The netlist is augmented *symbolically*: evaluating
the output cone over BDDs, the operand entering a candidate pin ``q_j``
is wrapped as::

    ite(sel_j,  data1_j,  original)
    sel_j   = t_1^j | ... | t_m^j
    data1_j = (t_1^j -> y_1) & ... & (t_m^j -> y_m)

which is exactly the multiplexer construction of Figure 2.  The
characteristic function of all feasible point-sets is then

    H(t) = forall z exists y ( h(z, y, t) == f'(g(z)) )  &  valid(t)

computed in the sampling domain (``x`` overloaded with ``g(z)``), and
its prime cubes seed explicit candidate point-sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import EcoError
from repro.bdd.manager import BddManager, FALSE, TRUE
from repro.bdd.netbridge import apply_gate
from repro.bdd.primes import enumerate_primes
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import GateType
from repro.netlist.traverse import topological_order, transitive_fanin
from repro.eco.sampling import SamplingDomain
from repro.obs.trace import ensure_trace


class PointSelector:
    """Allocates and decodes the ``t`` variables of the selection."""

    def __init__(self, manager: BddManager, num_points: int, num_pins: int):
        if num_pins < 1:
            raise EcoError("no candidate pins")
        self.manager = manager
        self.num_points = num_points
        self.num_pins = num_pins
        self.bits = max(1, math.ceil(math.log2(num_pins))) if num_pins > 1 else 1
        #: t_vars[i] = variable indices of point i's word, MSB first
        self.t_vars: List[List[int]] = [
            [manager.add_var() for _ in range(self.bits)]
            for _ in range(num_points)
        ]
        self._minterm_cache: Dict[Tuple[int, int], int] = {}

    def all_t_vars(self) -> List[int]:
        return [v for word in self.t_vars for v in word]

    def minterm(self, point: int, pin_index: int) -> int:
        """BDD of ``t_point ^ pin_index`` (big-endian code minterm)."""
        key = (point, pin_index)
        hit = self._minterm_cache.get(key)
        if hit is not None:
            return hit
        word = self.t_vars[point]
        assignment = {
            word[b]: bool((pin_index >> (self.bits - 1 - b)) & 1)
            for b in range(self.bits)
        }
        node = self.manager.cube(assignment)
        self._minterm_cache[key] = node
        return node

    def selection(self, pin_index: int) -> int:
        """``sel_j``: pin ``j`` chosen by any point."""
        m = self.manager
        acc = FALSE
        for i in range(self.num_points):
            acc = m.or_(acc, self.minterm(i, pin_index))
        return acc

    def data1(self, pin_index: int, y_nodes: Sequence[int]) -> int:
        """``data1_j``: conjunction of ``t_i^j -> y_i``."""
        m = self.manager
        acc = TRUE
        for i in range(self.num_points):
            acc = m.and_(acc, m.implies(self.minterm(i, pin_index),
                                        y_nodes[i]))
        return acc

    def validity(self) -> int:
        """Every point's code addresses an existing pin (< num_pins)."""
        m = self.manager
        acc = TRUE
        for i in range(self.num_points):
            word = FALSE
            for j in range(self.num_pins):
                word = m.or_(word, self.minterm(i, j))
            acc = m.and_(acc, word)
        return acc

    def decode_cube(self, literals: Mapping[int, bool],
                    point: int) -> List[int]:
        """Pin indices admissible for ``point`` under a prime cube.

        A prime cube constrains some bits of the point's word; every pin
        index consistent with those bits (and in range) is admissible.
        """
        word = self.t_vars[point]
        admissible = []
        for j in range(self.num_pins):
            ok = True
            for b in range(self.bits):
                bit = bool((j >> (self.bits - 1 - b)) & 1)
                want = literals.get(word[b])
                if want is not None and want != bit:
                    ok = False
                    break
            if ok:
                admissible.append(j)
        return admissible


def evaluate_with_pin_overrides(
        circuit: Circuit,
        manager: BddManager,
        input_functions: Mapping[str, int],
        root_net: str,
        override) -> int:
    """BDD of ``root_net`` with per-pin operand transformation.

    ``override(pin, operand_node)`` may replace the BDD flowing into any
    sink pin; this is how both the mux augmentation (``H(t)``) and the
    free-input composition function (``h(x, y)``) are realized without
    editing the netlist.
    """
    return evaluate_roots_with_pin_overrides(
        circuit, functools.partial(apply_gate, manager), input_functions,
        [root_net], override)[root_net]


def evaluate_roots_with_pin_overrides(
        circuit: Circuit,
        gate_fn: Callable[[GateType, Sequence[int]], int],
        input_functions: Mapping[str, int],
        root_nets: Sequence[str],
        override) -> Dict[str, int]:
    """Like :func:`evaluate_with_pin_overrides` over several roots.

    ``gate_fn(gtype, operands)`` evaluates one gate: :func:`apply_gate`
    bound to a BDD manager, or a code-word evaluator.  The union of the
    cones is evaluated once, so joint multi-output computations share
    all intermediate values.
    """
    values: Dict[str, int] = {}
    for name in circuit.inputs:
        if name in input_functions:
            values[name] = input_functions[name]
    for gname in topological_order(circuit, roots=list(root_nets)):
        gate = circuit.gates[gname]
        operands = []
        for idx, fanin in enumerate(gate.fanins):
            node = values[fanin]
            node = override(Pin.gate(gname, idx), node)
            operands.append(node)
        values[gname] = gate_fn(gate.gtype, operands)
    return {net: values[net] for net in root_nets}


def compute_h_function(impl: Circuit, port: str, domain: SamplingDomain,
                       pins: Sequence[Pin], y_nodes: Sequence[int],
                       selector: Optional[PointSelector] = None) -> int:
    """Sampled composition / augmented function at one output.

    With ``selector`` None, each listed pin is hard-replaced by its
    ``y`` node — the composition function ``h(z, y)`` of Section 4.4
    (``pins`` and ``y_nodes`` then correspond 1:1).

    With a ``selector``, every pin is augmented with the parameterized
    multiplexer — the function ``h(z, y, t)`` of Section 4.2.
    """
    return compute_h_functions(impl, [port], domain, pins, y_nodes,
                               selector=selector)[port]


def compute_h_functions(impl: Circuit, ports: Sequence[str],
                        domain: SamplingDomain, pins: Sequence[Pin],
                        y_nodes: Sequence[int],
                        selector: Optional[PointSelector] = None
                        ) -> Dict[str, int]:
    """Joint version of :func:`compute_h_function` over several outputs.

    The union cone is evaluated once with the shared overrides; the
    result maps each port to its (augmented) composition function —
    the basis of the multi-output rectification extension.
    """
    manager = domain.manager
    pin_index = {pin: i for i, pin in enumerate(pins)}

    if selector is None:
        def override(pin: Pin, node: int) -> int:
            idx = pin_index.get(pin)
            return y_nodes[idx] if idx is not None else node
    else:
        sel_cache: Dict[int, Tuple[int, int]] = {}

        def gadget(j: int) -> Tuple[int, int]:
            hit = sel_cache.get(j)
            if hit is None:
                hit = (selector.selection(j), selector.data1(j, y_nodes))
                sel_cache[j] = hit
            return hit

        def override(pin: Pin, node: int) -> int:
            idx = pin_index.get(pin)
            if idx is None:
                return node
            sel, data1 = gadget(idx)
            return manager.ite(sel, data1, node)

    roots = [impl.outputs[p] for p in ports]
    values = evaluate_roots_with_pin_overrides(
        impl, functools.partial(apply_gate, manager),
        domain.input_functions, roots, override)
    out: Dict[str, int] = {}
    for port in ports:
        value = values[impl.outputs[port]]
        # an output-port pin among the candidates overrides the value
        port_pin = Pin.output(port)
        if port_pin in pin_index:
            value = override(port_pin, value)
        out[port] = value
    return out


def feasible_point_sets(impl: Circuit, port: str, domain: SamplingDomain,
                        candidate_pins: Sequence[Pin],
                        spec_value: int, num_points: int,
                        prime_limit: int = 8,
                        pointset_limit: int = 12,
                        checkpoint: Optional[Callable[[], None]] = None,
                        trace=None) -> List[Tuple[Pin, ...]]:
    """Candidate rectification point-sets for one failing output.

    Returns up to ``pointset_limit`` distinct pin tuples (deduplicated
    as sets, smaller sets first), derived from the prime cubes of
    ``H(t)`` computed in the sampling domain.  An empty list means no
    point-set of size ``num_points`` over these pins can rectify the
    sampled behaviour — callers grow ``num_points`` or widen the pins.

    ``checkpoint``, when given, is invoked before the symbolic
    computation and once per expanded prime cube; the run supervisor
    passes its deadline check here.  ``trace`` records the enumeration
    as a ``points.enumerate`` span.
    """
    return feasible_point_sets_joint(
        impl, {port: spec_value}, domain, candidate_pins, num_points,
        prime_limit=prime_limit, pointset_limit=pointset_limit,
        checkpoint=checkpoint, trace=trace)


def feasible_point_sets_joint(impl: Circuit,
                              spec_values: Mapping[str, int],
                              domain: SamplingDomain,
                              candidate_pins: Sequence[Pin],
                              num_points: int,
                              prime_limit: int = 8,
                              pointset_limit: int = 12,
                              checkpoint: Optional[Callable[[], None]] = None,
                              trace=None) -> List[Tuple[Pin, ...]]:
    """Point-sets that rectify *all* given outputs simultaneously.

    The joint characteristic function conjoins the per-output equality
    inside the ``exists y`` — the same rectification functions must fix
    every output — addressing the paper's note that the single-output
    view 'may occasionally overlook candidates that are more economical
    for multiple outputs'.
    """
    with ensure_trace(trace).span(
            "points.enumerate", outputs=",".join(spec_values),
            m=num_points, pins=len(candidate_pins)) as _span:
        result = _feasible_point_sets_joint(
            impl, spec_values, domain, candidate_pins, num_points,
            prime_limit, pointset_limit, checkpoint)
        _span.tag(point_sets=len(result))
        return result


def _feasible_point_sets_joint(impl: Circuit,
                               spec_values: Mapping[str, int],
                               domain: SamplingDomain,
                               candidate_pins: Sequence[Pin],
                               num_points: int,
                               prime_limit: int,
                               pointset_limit: int,
                               checkpoint: Optional[Callable[[], None]],
                               ) -> List[Tuple[Pin, ...]]:
    if checkpoint is not None:
        checkpoint()
    manager = domain.manager
    ports = list(spec_values)
    y_vars = [manager.add_var() for _ in range(num_points)]
    y_nodes = [manager.var(v) for v in y_vars]
    selector = PointSelector(manager, num_points, len(candidate_pins))

    h_map = compute_h_functions(impl, ports, domain, candidate_pins,
                                y_nodes, selector=selector)
    eq = TRUE
    for port in ports:
        eq = manager.and_(eq, manager.xnor(h_map[port],
                                           spec_values[port]))
    h_t = manager.forall(manager.exists(eq, y_vars), domain.z_vars)
    h_t = manager.and_(h_t, selector.validity())
    if h_t == FALSE:
        return []

    seen: set = set()
    results: List[Tuple[Pin, ...]] = []
    for prime in enumerate_primes(manager, h_t, limit=prime_limit):
        if checkpoint is not None:
            checkpoint()
        literals = prime.literals
        per_point = [selector.decode_cube(literals, i)
                     for i in range(num_points)]
        if any(not adm for adm in per_point):
            continue
        for combo in itertools.islice(
                itertools.product(*per_point), 0, 64):
            key = frozenset(combo)
            if key in seen:
                continue
            seen.add(key)
            results.append(tuple(candidate_pins[j] for j in sorted(key)))
            if len(results) >= pointset_limit:
                break
        if len(results) >= pointset_limit:
            break
    results.sort(key=len)
    return results
