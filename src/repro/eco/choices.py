"""Rewiring-choice selection: the ``Xi(c)`` computation (Section 4.4).

Given a rectification point-set ``(p_1 ... p_m)`` with ordered candidate
rewiring nets ``S_i`` per point, decision words ``c_i`` parameterize the
consistency relation::

    R(z, y, c) = AND_i AND_k ( c_i^k -> (y_i == r_ik(z)) )

and Theorem 1 turns into the characteristic function of all valid
rewire operations::

    Xi(c) = forall z, y ( (L -> h) & (h -> U) ) & valid(c)
    L = f' & R ,  U = f' | ~R

computed in the sampling domain.  Concrete choices are then read off
``Xi``: combinations are walked in increasing patch-cost order and kept
when ``Xi`` evaluates true on their code — cheap point evaluations on
the BDD instead of cube enumeration, so the cost order is exact.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import FALSE, TRUE
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.traverse import topological_order
from repro.eco.rewiring import RewireCandidate
from repro.eco.points import compute_h_function
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
        domain: the sampling domain (fresh ``y``/``c`` variables are
            allocated on its manager).
        pins: the rectification point-set.
        candidates: ordered candidate list per pin (index 0 should be
            the trivial candidate).
        spec_value: ``f'(g(z))`` BDD of the revised output.
        limit: maximum number of choices returned.
        cost_fn: choice ordering; defaults to :func:`default_cost`.

    Returns:
        Up to ``limit`` choices whose codes satisfy ``Xi(c)``, ordered
        by total cost.  The all-trivial choice is excluded (it denotes
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
    from repro.eco.points import compute_h_functions

    manager = domain.manager
    cost_fn = cost_fn or default_cost
    m = len(pins)
    ports = list(spec_values)

    y_vars = [manager.add_var() for _ in range(m)]
    y_nodes = [manager.var(v) for v in y_vars]
    h_map = compute_h_functions(impl, ports, domain, pins, y_nodes,
                                selector=None)

    # decision words c_i, MSB first
    c_words: List[List[int]] = []
    for cand_list in candidates:
        bits = max(1, math.ceil(math.log2(len(cand_list)))) \
            if len(cand_list) > 1 else 1
        c_words.append([manager.add_var() for _ in range(bits)])

    def code_cube(i: int, k: int) -> int:
        word = c_words[i]
        bits = len(word)
        return manager.cube({
            word[b]: bool((k >> (bits - 1 - b)) & 1) for b in range(bits)
        })

    r_relation = TRUE
    valid_c = TRUE
    for i, cand_list in enumerate(candidates):
        word_valid = FALSE
        for k, cand in enumerate(cand_list):
            sel = code_cube(i, k)
            consistent = manager.xnor(y_nodes[i], cand.z_function)
            r_relation = manager.and_(
                r_relation, manager.implies(sel, consistent))
            word_valid = manager.or_(word_valid, sel)
        valid_c = manager.and_(valid_c, word_valid)

    not_r = manager.not_(r_relation)
    f = TRUE
    for port in ports:
        spec_value = spec_values[port]
        h = h_map[port]
        lower = manager.and_(spec_value, r_relation)
        upper = manager.or_(spec_value, not_r)
        f = manager.and_(f, manager.and_(
            manager.implies(lower, h), manager.implies(h, upper)))
    xi = manager.and_(manager.forall(f, list(domain.z_vars) + y_vars),
                      valid_c)
    if xi == FALSE:
        return []

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

    xi_support = manager.support(xi)
    choices: List[Choice] = []
    for _, ks in combos:
        if all(candidates[i][k].trivial for i, k in enumerate(ks)):
            continue
        assignment: Dict[int, bool] = {}
        for i, k in enumerate(ks):
            word = c_words[i]
            bits = len(word)
            for b in range(bits):
                assignment[word[b]] = bool((k >> (bits - 1 - b)) & 1)
        if manager.evaluate(xi, _pad(assignment, xi_support)):
            choices.append(tuple(
                candidates[i][k] for i, k in enumerate(ks)))
            if len(choices) >= limit:
                break
    return choices


def _pad(assignment: Dict[int, bool], support) -> Dict[int, bool]:
    out = dict(assignment)
    for v in support:
        out.setdefault(v, False)
    return out
