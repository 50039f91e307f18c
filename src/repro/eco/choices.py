"""Rewiring-choice selection: Theorem 1 per choice (Section 4.4).

Given a rectification point-set ``(p_1 ... p_m)`` with ordered candidate
rewiring nets ``S_i`` per point, the paper parameterizes choices with
decision words ``c_i`` and the consistency relation::

    R(z, y, c) = AND_i AND_k ( c_i^k -> (y_i == r_ik(z)) )

and Theorem 1 gives the characteristic function of all valid rewire
operations::

    Xi(c) = forall z, y ( (L -> h) & (h -> U) ) & valid(c)
    L = f' & R ,  U = f' | ~R

Since ``(L -> h) & (h -> U) == R -> (h == f')`` and, for a fixed choice
``(k_1 .. k_m)`` and code ``z``, ``R`` forces ``y_i = r_{i,k_i}(z)``,
``Xi`` holds at a choice iff ``h(z, r_k(z)) == f'(z)`` at every code.
In the sampling domain every function of ``z`` is a code word
(:meth:`~repro.eco.sampling.SamplingDomain.word`), so the check runs on
words: the ports' cones are evaluated once with point ``i``'s pin
forced to ``y_i`` -- all ``2^m`` values of ``y`` side by side, one lane
each -- giving ``good[y]``, the codes where every port equals ``f'``.
A choice is valid iff, for every ``y``, the codes where
``r_{i,k_i} == y_i`` for all ``i`` lie inside ``good[y]``.
Combinations are walked in increasing patch-cost order and the valid
ones kept, so the cost order is exact.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.netlist.circuit import Circuit, Pin
from repro.netlist.simulate import eval_gate_masked
from repro.netlist.traverse import topological_order
from repro.eco.rewiring import RewireCandidate
from repro.eco.points import evaluate_roots_with_pin_overrides
from repro.eco.sampling import SamplingDomain
from repro.obs.trace import ensure_trace

#: a choice assigns one candidate to every point of the set
Choice = Tuple[RewireCandidate, ...]

CostFn = Callable[[Pin, RewireCandidate], float]


def default_cost(pin: Pin, candidate: RewireCandidate) -> float:
    """Patch-size flavored cost: trivial < existing net < cloned logic."""
    if candidate.trivial:
        return 0.0
    if not candidate.from_spec:
        return 1.0
    return 2.0 + 0.05 * candidate.level


def make_clone_aware_cost(spec: Circuit, clone_map: Dict[str, str],
                          level_term: Optional[Callable[
                              [Pin, RewireCandidate], float]] = None
                          ) -> CostFn:
    """Cost that charges specification candidates by clone size.

    A candidate from ``C'`` costs one unit per gate that would actually
    be instantiated — gates already cloned by earlier rewires (present
    in ``clone_map``) are free, which makes the engine converge on
    shared patch logic across outputs.
    """
    cache: Dict[str, int] = {}

    def clone_gates(net: str) -> int:
        hit = cache.get(net)
        if hit is not None:
            return hit
        if net in spec.inputs:
            cache[net] = 0
            return 0
        count = sum(
            1 for g in topological_order(spec, roots=[net])
            if g not in clone_map
        )
        cache[net] = count
        return count

    def cost(pin: Pin, candidate: RewireCandidate) -> float:
        if candidate.trivial:
            base = 0.0
        elif not candidate.from_spec:
            base = 1.0
        else:
            base = 1.2 + 0.6 * clone_gates(candidate.net)
        if level_term is not None:
            base += level_term(pin, candidate)
        return base

    return cost


def enumerate_rewiring_choices(
        impl: Circuit, port: str, domain: SamplingDomain,
        pins: Sequence[Pin],
        candidates: Sequence[Sequence[RewireCandidate]],
        spec_value: int,
        limit: int = 16,
        cost_fn: Optional[CostFn] = None,
        trace=None) -> List[Choice]:
    """Valid rewiring choices for one point-set, cheapest first.

    Args:
        impl: current implementation.
        port: the failing output being rectified.
        domain: the sampling domain; ``spec_value`` and every
            candidate's ``z_function`` depend on its ``z`` only.
        pins: the rectification point-set.
        candidates: ordered candidate list per pin (index 0 should be
            the trivial candidate).
        spec_value: ``f'(g(z))`` BDD of the revised output.
        limit: maximum number of choices returned.
        cost_fn: choice ordering; defaults to :func:`default_cost`.

    Returns:
        Up to ``limit`` choices at which ``Xi(c)`` holds, ordered by
        total cost.  The all-trivial choice is excluded (it denotes
        'change nothing' and cannot rectify a failing output).
    """
    return enumerate_rewiring_choices_joint(
        impl, {port: spec_value}, domain, pins, candidates,
        limit=limit, cost_fn=cost_fn, trace=trace)


def enumerate_rewiring_choices_joint(
        impl: Circuit, spec_values,
        domain: SamplingDomain,
        pins: Sequence[Pin],
        candidates: Sequence[Sequence[RewireCandidate]],
        limit: int = 16,
        cost_fn: Optional[CostFn] = None,
        trace=None) -> List[Choice]:
    """Joint multi-output version of :func:`enumerate_rewiring_choices`.

    ``spec_values`` maps each output port to its revised function in
    the sampling domain; a valid choice must satisfy Theorem 1 for
    every listed output with the *same* rewiring (the shared ``R``).
    """
    with ensure_trace(trace).span(
            "choices.enumerate", outputs=",".join(spec_values),
            pins=len(pins)) as _span:
        result = _enumerate_choices_joint(
            impl, spec_values, domain, pins, candidates, limit, cost_fn)
        _span.tag(choices=len(result))
        return result


def _enumerate_choices_joint(
        impl: Circuit, spec_values,
        domain: SamplingDomain,
        pins: Sequence[Pin],
        candidates: Sequence[Sequence[RewireCandidate]],
        limit: int,
        cost_fn: Optional[CostFn]) -> List[Choice]:
    cost_fn = cost_fn or default_cost
    word = domain.word
    ports = list(spec_values)
    pin_index = {pin: i for i, pin in enumerate(pins)}

    # lane j of a packed word holds the codes for y_i = bit i of j
    size = len(domain.samples)  # codes, padding included
    lanes = 1 << len(pins)
    repeat = sum(1 << (j * size) for j in range(lanes))
    lane_mask = domain.full_mask * repeat
    y_words = [
        sum(domain.full_mask << (j * size)
            for j in range(lanes) if (j >> i) & 1)
        for i in range(len(pins))
    ]

    def override(pin: Pin, value: int) -> int:
        idx = pin_index.get(pin)
        return y_words[idx] if idx is not None else value

    inputs = {name: word(node) * repeat
              for name, node in domain.input_functions.items()}
    values = evaluate_roots_with_pin_overrides(
        impl, functools.partial(eval_gate_masked, mask=lane_mask), inputs,
        [impl.outputs[p] for p in ports], override)
    good = lane_mask
    for port in ports:
        h = override(Pin.output(port), values[impl.outputs[port]])
        good &= ~(h ^ word(spec_values[port]) * repeat)
    bad = lane_mask ^ good

    # per candidate: the codes, in each lane, where r_ik == y_i
    agree = [[lane_mask & ~(word(cand.z_function) * repeat ^ y_words[i])
              for cand in cand_list]
             for i, cand_list in enumerate(candidates)]

    # walk candidate combinations cheapest-total-cost first
    indexed: List[List[Tuple[float, int]]] = []
    for i, cand_list in enumerate(candidates):
        pairs = [(cost_fn(pins[i], cand), k)
                 for k, cand in enumerate(cand_list)]
        pairs.sort()
        indexed.append(pairs)

    combos = []
    for combo in itertools.product(*indexed):
        total = sum(c for c, _ in combo)
        combos.append((total, tuple(k for _, k in combo)))
    combos.sort()

    choices: List[Choice] = []
    for _, ks in combos:
        if all(candidates[i][k].trivial for i, k in enumerate(ks)):
            continue
        selected = lane_mask
        for i, k in enumerate(ks):
            selected &= agree[i][k]
        if not selected & bad:
            choices.append(tuple(
                candidates[i][k] for i, k in enumerate(ks)))
            if len(choices) >= limit:
                break
    return choices
