"""The ROBDD manager: unique table, computed cache, core operations.

Nodes are integers.  ``FALSE`` is node 0 and ``TRUE`` is node 1; every
other node ``n`` has a variable index ``var(n)`` and two children
``lo(n)`` (variable false) / ``hi(n)`` (variable true).  Variable
indices double as ordering positions: smaller index = closer to the
root.  The manager enforces the ROBDD invariants (no redundant node,
no duplicate node) so equality of functions is pointer equality.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import BddError, BddNodeLimitError

FALSE = 0
TRUE = 1


class BddManager:
    """Owns the node store and all BDD operations.

    Args:
        num_vars: number of variables to pre-allocate (more can be added
            with :meth:`add_var`).
        node_limit: raise :class:`BddNodeLimitError` when the node count
            would exceed this bound; ``None`` disables the check.  The
            ECO engine uses this as part of its resource-constrained
            symbolic computation.
        node_hook: optional callback invoked with the current node
            count every 4096 allocations.  The run supervisor installs
            its deadline checkpoint here so long symbolic computations
            stay interruptible; the hook may raise to abort the
            operation in progress.
    """

    def __init__(self, num_vars: int = 0, node_limit: Optional[int] = None,
                 node_hook: Optional[Callable[[int], None]] = None):
        # parallel arrays indexed by node id; slots 0/1 are terminals
        self._var: List[int] = [-1, -1]
        self._lo: List[int] = [FALSE, TRUE]
        self._hi: List[int] = [FALSE, TRUE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._cache: Dict[Tuple, int] = {}
        self._nvars = 0
        self.node_limit = node_limit
        self.node_hook = node_hook
        for _ in range(num_vars):
            self.add_var()

    # ------------------------------------------------------------------
    # variables and raw nodes
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._nvars

    @property
    def num_nodes(self) -> int:
        return len(self._var)

    def add_var(self) -> int:
        """Allocate a new variable (at the bottom of the order)."""
        self._nvars += 1
        return self._nvars - 1

    def var(self, index: int) -> int:
        """The BDD of variable ``index``."""
        self._check_var(index)
        return self._node(index, FALSE, TRUE)

    def nvar(self, index: int) -> int:
        """The BDD of the negated variable ``index``."""
        self._check_var(index)
        return self._node(index, TRUE, FALSE)

    def literal(self, index: int, positive: bool) -> int:
        return self.var(index) if positive else self.nvar(index)

    def _check_var(self, index: int) -> None:
        if not 0 <= index < self._nvars:
            raise BddError(f"variable {index} not allocated (have {self._nvars})")

    def _node(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is None:
            if self.node_limit is not None and len(self._var) >= self.node_limit:
                raise BddNodeLimitError(
                    f"BDD node limit {self.node_limit} exceeded")
            node = len(self._var)
            self._var.append(var)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
            if self.node_hook is not None and not (node & 0xFFF):
                self.node_hook(node)
        return node

    def top_var(self, node: int) -> int:
        """Variable index at the root of ``node`` (-1 for terminals)."""
        return self._var[node]

    def low(self, node: int) -> int:
        return self._lo[node]

    def high(self, node: int) -> int:
        return self._hi[node]

    def is_terminal(self, node: int) -> bool:
        return node <= TRUE

    # ------------------------------------------------------------------
    # core: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f & g | ~f & h``; the universal connective."""
        # terminal shortcuts
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = ("ite", f, g, h)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        top = self._var[f]
        for n in (g, h):
            if n > TRUE and self._var[n] < top:
                top = self._var[n]
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        lo = self.ite(f0, g0, h0)
        hi = self.ite(f1, g1, h1)
        result = self._node(top, lo, hi)
        self._cache[key] = result
        return result

    def _cofactors(self, node: int, var: int) -> Tuple[int, int]:
        if node > TRUE and self._var[node] == var:
            return self._lo[node], self._hi[node]
        return node, node

    # ------------------------------------------------------------------
    # derived Boolean connectives
    # ------------------------------------------------------------------
    def not_(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def and_(self, *fs: int) -> int:
        acc = TRUE
        for f in fs:
            acc = self.ite(acc, f, FALSE)
        return acc

    def or_(self, *fs: int) -> int:
        acc = FALSE
        for f in fs:
            acc = self.ite(acc, TRUE, f)
        return acc

    def xor(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def xnor(self, f: int, g: int) -> int:
        return self.ite(f, g, self.not_(g))

    def implies(self, f: int, g: int) -> int:
        return self.ite(f, g, TRUE)

    def equiv(self, f: int, g: int) -> int:
        return self.xnor(f, g)

    def mux(self, s: int, d0: int, d1: int) -> int:
        return self.ite(s, d1, d0)

    # ------------------------------------------------------------------
    # quantification
    # ------------------------------------------------------------------
    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existentially quantify ``variables`` out of ``f``."""
        vs = frozenset(variables)
        if not vs:
            return f
        return self._quantify(f, vs, existential=True)

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universally quantify ``variables`` out of ``f``."""
        vs = frozenset(variables)
        if not vs:
            return f
        return self._quantify(f, vs, existential=False)

    def _quantify(self, f: int, vs: frozenset, existential: bool) -> int:
        if f <= TRUE:
            return f
        key = ("exists" if existential else "forall", f, vs)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        v = self._var[f]
        lo = self._quantify(self._lo[f], vs, existential)
        hi = self._quantify(self._hi[f], vs, existential)
        if v in vs:
            result = self.or_(lo, hi) if existential else self.and_(lo, hi)
        else:
            result = self._node(v, lo, hi)
        self._cache[key] = result
        return result

    # ------------------------------------------------------------------
    # cofactor / restrict / compose
    # ------------------------------------------------------------------
    def restrict(self, f: int, assignment: Mapping[int, bool]) -> int:
        """Cofactor ``f`` by a partial variable assignment."""
        if not assignment:
            return f
        items = frozenset(assignment.items())
        return self._restrict(f, dict(assignment), items)

    def _restrict(self, f: int, assignment: Dict[int, bool],
                  key_items: frozenset) -> int:
        if f <= TRUE:
            return f
        key = ("restrict", f, key_items)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        v = self._var[f]
        if v in assignment:
            branch = self._hi[f] if assignment[v] else self._lo[f]
            result = self._restrict(branch, assignment, key_items)
        else:
            lo = self._restrict(self._lo[f], assignment, key_items)
            hi = self._restrict(self._hi[f], assignment, key_items)
            result = self._node(v, lo, hi)
        self._cache[key] = result
        return result

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` in ``f``."""
        return self.vector_compose(f, {var: g})

    def vector_compose(self, f: int, substitution: Mapping[int, int]) -> int:
        """Simultaneously substitute functions for variables.

        This realizes the input overloading of Section 5.1: composing
        the sampling function ``g(z)`` onto the ``x`` variables casts a
        computation into the sampling domain.
        """
        if not substitution:
            return f
        items = frozenset(substitution.items())
        return self._vcompose(f, dict(substitution), items)

    def _vcompose(self, f: int, sub: Dict[int, int], key_items: frozenset) -> int:
        if f <= TRUE:
            return f
        key = ("vcompose", f, key_items)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        v = self._var[f]
        lo = self._vcompose(self._lo[f], sub, key_items)
        hi = self._vcompose(self._hi[f], sub, key_items)
        selector = sub.get(v)
        if selector is None:
            selector = self.var(v)
        result = self.ite(selector, hi, lo)
        self._cache[key] = result
        return result

    # ------------------------------------------------------------------
    # evaluation, counting, enumeration
    # ------------------------------------------------------------------
    def evaluate(self, f: int, assignment: Mapping[int, bool]) -> bool:
        """Evaluate ``f`` under a total assignment of its support."""
        node = f
        while node > TRUE:
            v = self._var[node]
            try:
                branch = assignment[v]
            except KeyError:
                raise BddError(f"assignment misses variable {v}")
            node = self._hi[node] if branch else self._lo[node]
        return node == TRUE

    def support(self, f: int) -> frozenset:
        """Set of variables ``f`` depends on."""
        seen = set()
        sup = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n <= TRUE or n in seen:
                continue
            seen.add(n)
            sup.add(self._var[n])
            stack.append(self._lo[n])
            stack.append(self._hi[n])
        return frozenset(sup)

    def size(self, f: int) -> int:
        """Number of nodes reachable from ``f`` (excluding terminals)."""
        seen = set()
        stack = [f]
        count = 0
        while stack:
            n = stack.pop()
            if n <= TRUE or n in seen:
                continue
            seen.add(n)
            count += 1
            stack.append(self._lo[n])
            stack.append(self._hi[n])
        return count

    def satcount(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables.

        Defaults to the manager's full variable count.  This is the
        'efficient counting of consistent value assignments' the paper
        relies on for the rectification-utility ratio.
        """
        n = self._nvars if num_vars is None else num_vars
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << n

        def level(node: int) -> int:
            return n if node <= TRUE else self._var[node]

        memo: Dict[int, int] = {}

        def count(node: int) -> int:
            """Solutions over variables strictly below level(node)."""
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            hit = memo.get(node)
            if hit is not None:
                return hit
            here = self._var[node]
            # every internal node is visited once, so this covers the
            # whole support without a separate walk
            if here >= n:
                raise BddError(
                    f"num_vars={n} does not cover support variable {here}")
            lo, hi = self._lo[node], self._hi[node]
            total = (count(lo) << (level(lo) - here - 1)) + \
                    (count(hi) << (level(hi) - here - 1))
            memo[node] = total
            return total

        try:
            return count(f) << level(f)
        finally:
            # ``count`` reaches itself through its closure cell, a cycle
            # that would hold ``self`` until a full collection; clearing
            # the cell frees the manager with its last reference
            del count

    def pick_assignment(self, f: int,
                        variables: Optional[Sequence[int]] = None,
                        prefer: Optional[Callable[[int], bool]] = None,
                        ) -> Optional[Dict[int, bool]]:
        """One satisfying assignment of ``f``, or ``None`` if unsat.

        Variables listed in ``variables`` but not forced by the BDD are
        filled with ``prefer(var)`` (default ``False``).
        """
        if f == FALSE:
            return None
        out: Dict[int, bool] = {}
        node = f
        while node > TRUE:
            v = self._var[node]
            if self._lo[node] != FALSE:
                out[v] = False
                node = self._lo[node]
            else:
                out[v] = True
                node = self._hi[node]
        if variables is not None:
            for v in variables:
                if v not in out:
                    out[v] = bool(prefer(v)) if prefer else False
        return out

    def sat_cubes(self, f: int) -> Iterator[Dict[int, bool]]:
        """Generate all satisfying cubes (partial assignments) of ``f``.

        Each cube assigns exactly the variables on one root-to-TRUE
        path; unassigned variables are don't-cares.
        """
        path: Dict[int, bool] = {}

        def walk(node: int) -> Iterator[Dict[int, bool]]:
            if node == FALSE:
                return
            if node == TRUE:
                yield dict(path)
                return
            v = self._var[node]
            path[v] = False
            yield from walk(self._lo[node])
            path[v] = True
            yield from walk(self._hi[node])
            del path[v]

        try:
            yield from walk(f)
        finally:
            del walk  # break the closure cycle, as in :meth:`satcount`

    def cube(self, assignment: Mapping[int, bool]) -> int:
        """BDD of the conjunction of the given literals."""
        result = TRUE
        for v in sorted(assignment, reverse=True):
            result = self._node(v, FALSE, result) if assignment[v] else \
                self._node(v, result, FALSE)
        return result

    def implies_check(self, f: int, g: int) -> bool:
        """Decide ``f => g`` (i.e. ``f & ~g`` is unsatisfiable)."""
        return self.ite(f, self.not_(g), FALSE) == FALSE

    def clear_cache(self) -> None:
        """Drop the computed cache (keeps the node store)."""
        self._cache.clear()

    def stats(self) -> Dict[str, int]:
        """Session statistics for telemetry (node store never shrinks,
        so ``nodes`` doubles as the session peak)."""
        return {
            "nodes": len(self._var),
            "vars": self._nvars,
            "cache_entries": len(self._cache),
        }

    def __repr__(self) -> str:
        return (f"BddManager(vars={self._nvars}, nodes={len(self._var)}, "
                f"cache={len(self._cache)})")
