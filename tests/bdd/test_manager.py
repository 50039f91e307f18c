"""Unit and property tests for the ROBDD manager."""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BddError, BddNodeLimitError
from repro.bdd.manager import FALSE, TRUE, BddManager


def brute_count(fn, n):
    return sum(
        1 for bits in itertools.product([False, True], repeat=n)
        if fn(dict(enumerate(bits)))
    )


@pytest.fixture
def m4() -> BddManager:
    return BddManager(4)


class TestBasics:
    def test_terminals(self, m4):
        assert m4.is_terminal(FALSE)
        assert m4.is_terminal(TRUE)
        assert not m4.is_terminal(m4.var(0))

    def test_var_and_nvar(self, m4):
        a = m4.var(0)
        na = m4.nvar(0)
        assert m4.not_(a) == na
        assert m4.not_(na) == a

    def test_literal(self, m4):
        assert m4.literal(1, True) == m4.var(1)
        assert m4.literal(1, False) == m4.nvar(1)

    def test_unallocated_variable(self, m4):
        with pytest.raises(BddError):
            m4.var(4)

    def test_add_var_grows(self, m4):
        v = m4.add_var()
        assert v == 4
        assert m4.var(4) != FALSE

    def test_canonicity(self, m4):
        a, b = m4.var(0), m4.var(1)
        f1 = m4.and_(a, b)
        f2 = m4.and_(b, a)
        assert f1 == f2  # pointer equality == function equality

    def test_node_limit(self):
        m = BddManager(8, node_limit=10)
        with pytest.raises(BddNodeLimitError):
            acc = TRUE
            for i in range(8):
                acc = m.xor(acc, m.var(i)) if i else m.var(i)


class TestConnectives:
    def test_ite_shortcuts(self, m4):
        a, b = m4.var(0), m4.var(1)
        assert m4.ite(TRUE, a, b) == a
        assert m4.ite(FALSE, a, b) == b
        assert m4.ite(a, b, b) == b
        assert m4.ite(a, TRUE, FALSE) == a

    def test_and_or_units(self, m4):
        a = m4.var(0)
        assert m4.and_() == TRUE
        assert m4.or_() == FALSE
        assert m4.and_(a) == a
        assert m4.or_(a) == a
        assert m4.and_(a, FALSE) == FALSE
        assert m4.or_(a, TRUE) == TRUE

    def test_xor_xnor(self, m4):
        a, b = m4.var(0), m4.var(1)
        assert m4.xor(a, a) == FALSE
        assert m4.xnor(a, a) == TRUE
        assert m4.xor(a, b) == m4.not_(m4.xnor(a, b))

    def test_implies_equiv_mux(self, m4):
        a, b = m4.var(0), m4.var(1)
        assert m4.implies(FALSE, a) == TRUE
        assert m4.implies(a, a) == TRUE
        assert m4.equiv(a, b) == m4.xnor(a, b)
        assert m4.mux(a, b, TRUE) == m4.or_(m4.not_(a), b) or True
        # mux(s, d0, d1) = s ? d1 : d0
        s = m4.var(2)
        assert m4.mux(s, FALSE, TRUE) == s

    def test_implies_check(self, m4):
        a, b = m4.var(0), m4.var(1)
        ab = m4.and_(a, b)
        assert m4.implies_check(ab, a)
        assert not m4.implies_check(a, ab)


class TestEvaluateAndCount:
    def test_evaluate(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.xor(a, b)
        assert m4.evaluate(f, {0: True, 1: False})
        assert not m4.evaluate(f, {0: True, 1: True})

    def test_evaluate_missing_var(self, m4):
        f = m4.and_(m4.var(0), m4.var(1))
        with pytest.raises(BddError):
            m4.evaluate(f, {0: True})

    def test_satcount_simple(self, m4):
        a, b = m4.var(0), m4.var(1)
        assert m4.satcount(FALSE) == 0
        assert m4.satcount(TRUE) == 16
        assert m4.satcount(a) == 8
        assert m4.satcount(m4.and_(a, b)) == 4
        assert m4.satcount(m4.or_(a, b)) == 12

    def test_satcount_explicit_num_vars(self, m4):
        a = m4.var(0)
        assert m4.satcount(a, num_vars=1) == 1
        assert m4.satcount(a, num_vars=2) == 2

    def test_satcount_rejects_uncovered_support(self, m4):
        f = m4.var(3)
        with pytest.raises(BddError):
            m4.satcount(f, num_vars=2)

    @pytest.mark.parametrize("seed", range(6))
    def test_satcount_raises_iff_support_uncovered(self, m4, seed):
        """The check runs inside the count walk: an uncovered variable
        below a covered root, or on one branch only, still raises."""
        import random

        rng = random.Random(seed)
        f = m4.var(rng.randrange(2))
        for _ in range(4):
            g = m4.var(rng.randrange(4))
            if rng.random() < 0.5:
                g = m4.not_(g)
            f = rng.choice((m4.and_, m4.or_, m4.xor))(f, g)
        top = max(m4.support(f), default=-1)
        for n in range(5):
            if n <= top:
                with pytest.raises(BddError):
                    m4.satcount(f, num_vars=n)
            else:
                assert m4.satcount(f, num_vars=n) == (
                    m4.satcount(f) >> (4 - n))

    def test_satcount_raises_on_deep_uncovered_variable(self, m4):
        a, d = m4.var(0), m4.var(3)
        # root variable 0 is covered; variable 3 sits on the hi branch
        f = m4.and_(a, d)
        with pytest.raises(BddError):
            m4.satcount(f, num_vars=2)
        with pytest.raises(BddError):
            m4.satcount(m4.or_(a, d), num_vars=3)

    def test_support_and_size(self, m4):
        a, c = m4.var(0), m4.var(2)
        f = m4.and_(a, c)
        assert m4.support(f) == frozenset({0, 2})
        assert m4.size(f) == 2
        assert m4.support(TRUE) == frozenset()
        assert m4.size(FALSE) == 0

    def test_pick_assignment(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.and_(a, m4.not_(b))
        sol = m4.pick_assignment(f)
        assert m4.evaluate(f, {**{0: False, 1: False}, **sol})
        assert m4.pick_assignment(FALSE) is None

    def test_pick_assignment_fills_variables(self, m4):
        f = m4.var(0)
        sol = m4.pick_assignment(f, variables=[0, 1, 2],
                                 prefer=lambda v: True)
        assert sol == {0: True, 1: True, 2: True}

    def test_sat_cubes_cover(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.or_(a, b)
        cubes = list(m4.sat_cubes(f))
        # every cube satisfies f; together they cover all solutions
        total = 0
        for cube in cubes:
            free = 4 - len(cube)
            total += 1 << free
        assert total == m4.satcount(f)

    def test_cube(self, m4):
        c = m4.cube({0: True, 2: False})
        assert m4.evaluate(c, {0: True, 1: False, 2: False, 3: False})
        assert not m4.evaluate(c, {0: True, 1: False, 2: True, 3: False})
        assert m4.cube({}) == TRUE


class TestNoClosureCycles:
    """Counting and cube enumeration leave no reference cycle behind:
    the manager dies with its last reference even with ``gc`` off."""

    @staticmethod
    def freed_after(call) -> bool:
        m = BddManager(4)
        f = m.or_(m.and_(m.var(0), m.var(1)), m.xor(m.var(2), m.var(3)))
        call(m, f)
        ref = weakref.ref(m)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del m, f
            return ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_baseline_manager_is_freed(self):
        assert self.freed_after(lambda m, f: None)

    def test_satcount(self):
        assert self.freed_after(lambda m, f: m.satcount(f))

    def test_sat_cubes_exhausted(self):
        assert self.freed_after(lambda m, f: list(m.sat_cubes(f)))

    def test_sat_cubes_abandoned(self):
        assert self.freed_after(lambda m, f: next(m.sat_cubes(f)))

    def test_satcount_error_path(self, m4):
        with pytest.raises(BddError):
            m4.satcount(m4.var(3), num_vars=2)
        assert self.freed_after(
            lambda m, f: pytest.raises(BddError, m.satcount, m.var(3),
                                       num_vars=2))


class TestQuantification:
    def test_exists(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.and_(a, b)
        assert m4.exists(f, [0]) == b
        assert m4.exists(f, [0, 1]) == TRUE
        assert m4.exists(f, []) == f

    def test_forall(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.or_(a, b)
        assert m4.forall(f, [0]) == b
        assert m4.forall(f, [0, 1]) == FALSE

    def test_quantify_irrelevant_var(self, m4):
        a = m4.var(0)
        assert m4.exists(a, [3]) == a
        assert m4.forall(a, [3]) == a


class TestRestrictCompose:
    def test_restrict(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.xor(a, b)
        assert m4.restrict(f, {0: True}) == m4.not_(b)
        assert m4.restrict(f, {0: False}) == b
        assert m4.restrict(f, {}) == f

    def test_compose(self, m4):
        a, b, c = m4.var(0), m4.var(1), m4.var(2)
        f = m4.and_(a, b)
        g = m4.or_(b, c)
        composed = m4.compose(f, 0, g)
        # (b|c) & b == b
        assert composed == b

    def test_vector_compose_simultaneous(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.xor(a, b)
        # swap a and b simultaneously: function unchanged
        swapped = m4.vector_compose(f, {0: b, 1: a})
        assert swapped == f

    def test_vector_compose_to_constants(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.and_(a, b)
        assert m4.vector_compose(f, {0: TRUE, 1: TRUE}) == TRUE
        assert m4.vector_compose(f, {0: FALSE}) == FALSE


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_bdd_matches_truth_table(table):
    """Property: building a 4-var function from its minterms reproduces
    exactly the truth table (evaluate + satcount agree)."""
    m = BddManager(4)
    f = FALSE
    for k in range(16):
        if table >> k & 1:
            cube = m.cube({i: bool(k >> i & 1) for i in range(4)})
            f = m.or_(f, cube)
    for k in range(16):
        want = bool(table >> k & 1)
        got = m.evaluate(f, {i: bool(k >> i & 1) for i in range(4)})
        assert got == want
    assert m.satcount(f) == bin(table).count("1")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_demorgan_laws_hold(ta, tb):
    """Property: ~(f & g) == ~f | ~g on arbitrary 3-var functions."""
    m = BddManager(3)

    def from_table(t):
        f = FALSE
        for k in range(8):
            if t >> k & 1:
                f = m.or_(f, m.cube({i: bool(k >> i & 1) for i in range(3)}))
        return f

    f, g = from_table(ta), from_table(tb)
    assert m.not_(m.and_(f, g)) == m.or_(m.not_(f), m.not_(g))
    assert m.not_(m.or_(f, g)) == m.and_(m.not_(f), m.not_(g))


class TestDotExport:
    def test_dot_structure(self):
        from repro.bdd.dot import to_dot
        m = BddManager(2)
        f = m.and_(m.var(0), m.var(1))
        text = to_dot(m, {"f": f}, var_names={0: "a", 1: "b"})
        assert text.startswith("digraph")
        assert '"a"' in text and '"b"' in text
        assert "style=dashed" in text
        assert "r_f" in text

    def test_terminal_roots(self):
        from repro.bdd.dot import to_dot
        m = BddManager(1)
        text = to_dot(m, {"T": 1, "F": 0})
        assert "r_T -> nT" in text
        assert "r_F -> nF" in text

    def test_write_dot(self, tmp_path):
        from repro.bdd.dot import write_dot
        m = BddManager(2)
        f = m.xor(m.var(0), m.var(1))
        path = str(tmp_path / "f.dot")
        write_dot(m, {"xor": f}, path)
        with open(path) as fh:
            assert "digraph" in fh.read()

    def test_label_sanitization(self):
        from repro.bdd.dot import to_dot
        m = BddManager(1)
        text = to_dot(m, {"H(t) & valid": m.var(0)})
        assert "r_H_t____valid" in text
