"""Reference symbolic ``Xi(c)``: the oracle for the word-based choices.

:func:`repro.eco.choices.enumerate_rewiring_choices_joint` checks
Theorem 1 per choice on sampling-domain code words.  This module builds
the paper's construction literally -- decision words ``c_i``, the
consistency relation ``R``, ``L``/``U`` and ``forall z, y`` -- as one
BDD, then point-evaluates it at the codes of the candidate combinations
in cost order, and exists only so tests and benchmarks can pin the word
path to it.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import FALSE, TRUE
from repro.eco.choices import Choice, CostFn, default_cost
from repro.eco.points import compute_h_functions
from repro.eco.rewiring import RewireCandidate
from repro.eco.sampling import SamplingDomain
from repro.netlist.circuit import Circuit, Pin


def reference_choices_joint(
        impl: Circuit, spec_values,
        domain: SamplingDomain,
        pins: Sequence[Pin],
        candidates: Sequence[Sequence[RewireCandidate]],
        limit: int = 16,
        cost_fn: Optional[CostFn] = None) -> List[Choice]:
    """Valid choices read off the symbolic ``Xi(c)``, cheapest first.

    Same contract as :func:`repro.eco.choices.
    enumerate_rewiring_choices_joint`; fresh ``y`` and ``c`` variables
    are allocated on the domain's manager.
    """
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
        assignment: Dict[int, bool] = {v: False for v in xi_support}
        for i, k in enumerate(ks):
            word = c_words[i]
            bits = len(word)
            for b in range(bits):
                assignment[word[b]] = bool((k >> (bits - 1 - b)) & 1)
        if manager.evaluate(xi, assignment):
            choices.append(tuple(
                candidates[i][k] for i, k in enumerate(ks)))
            if len(choices) >= limit:
                break
    return choices
