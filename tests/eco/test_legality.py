"""The structural legality checks against the pre-SAT lint screen.

Every candidate :class:`~repro.eco.incremental.IncrementalValidator`
sees has already passed :class:`~repro.lint.patch_rules.PatchScreen`.
These tests pin how much of the validator's own legality checking that
screen already covers:

* the cycle check is subsumed: whenever the screen accepts an op set,
  :func:`~repro.eco.validate.rewire_acyclic` holds (and on structurally
  sound op sets the screen's ``PA001`` fires exactly when it fails);
* the Section 3.3 restriction is not:
  :func:`~repro.eco.validate.topological_constraint_ok` still rejects
  lint-passing candidates on Table-1 designs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.eco import incremental
from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco
from repro.eco.patch import RewireOp
from repro.eco.validate import rewire_acyclic
from repro.lint.patch_rules import PatchScreen
from repro.netlist.circuit import Pin
from repro.workloads.suite import build_case
from tests.conftest import make_random_circuit


def _random_ops(impl, spec, rng):
    """One to three rewires; implementation sources are drawn from every
    net, so many op sets close a cycle."""
    gates = list(impl.gates)
    impl_nets = list(impl.inputs) + gates
    spec_nets = list(spec.inputs) + list(spec.gates)
    ops = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            pin = Pin.output(rng.choice(list(impl.outputs)))
        else:
            g = rng.choice(gates)
            pin = Pin.gate(g, rng.randrange(len(impl.gates[g].fanins)))
        if rng.random() < 0.2:
            ops.append(RewireOp(pin, rng.choice(spec_nets), from_spec=True))
        else:
            ops.append(RewireOp(pin, rng.choice(impl_nets)))
    return ops


class TestCycleCheckSubsumed:
    @given(seed=st.integers(min_value=0, max_value=5000),
           op_seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_screen_pass_implies_acyclic(self, seed, op_seed):
        impl = make_random_circuit(seed)
        spec = make_random_circuit(seed + 1)
        ops = _random_ops(impl, spec, random.Random(op_seed))
        report = PatchScreen(impl, spec=spec).check_ops(ops)
        acyclic = rewire_acyclic(impl, ops)
        if report.ok:
            assert acyclic
        # every op here names a real pin and net, so the screen always
        # reaches its cycle rule
        assert ("PA001" in report.codes()) == (not acyclic)


class TestTopologicalConstraintNotSubsumed:
    @pytest.fixture
    def rejections(self, monkeypatch):
        """Counts of lint-passing candidates each legality check
        rejects inside ``IncrementalValidator.validate``."""
        counts = {"topological": 0, "acyclic": 0}

        def counting(check, key):
            def wrapper(*args):
                ok = check(*args)
                if not ok:
                    counts[key] += 1
                return ok
            return wrapper

        monkeypatch.setattr(incremental, "topological_constraint_ok",
                            counting(incremental.topological_constraint_ok,
                                     "topological"))
        monkeypatch.setattr(incremental, "rewire_acyclic",
                            counting(incremental.rewire_acyclic, "acyclic"))
        return counts

    def test_section_3_3_rejects_lint_passing_candidates(self, rejections):
        """Table-1 case 7 at seeds 2019 and 2020: 9 Section 3.3
        rejections, no cycle rejections.  (Measured the same way, cases
        1 and 3 add 2 and 3 more Section 3.3 rejections and still no
        cycle rejection.)"""
        for seed in (2019, 2020):
            case = build_case(7)
            SysEco(EcoConfig(seed=seed)).rectify(case.impl, case.spec)
        assert rejections == {"topological": 9, "acyclic": 0}
