"""Concurrency analyzer: AST rules enforcing the threading discipline.

``repro lint --self`` runs these ``CC...`` rules alongside the ``RI``
repo invariants.  The engine itself is single-threaded plus worker
processes; the rules guard what still has a thread to share: the
``--serve-metrics`` endpoint, the run-store lock and the worker pools
(``docs/static-analysis.md``, "Concurrency rules"):

* ``CC002`` — explicit ``.acquire()`` not release-protected: the only
  sanctioned shapes are ``with lock:``, ``acquire()`` immediately
  followed by ``try/finally: release()``, or ``acquire()`` as the
  first statement of such a ``try`` body.  Non-blocking and
  timeout-bounded acquires (try-lock patterns) are exempt.
* ``CC003`` — blocking call inside a held-lock region: ``time.sleep``
  at all, or a zero-argument ``.join()`` / ``.wait()`` / ``.get()``
  (all of which block forever) while a lock is held.
* ``CC004`` — module-level state rebound (``global X; X = ...``) from
  a thread-spawning module outside a held-lock region.
* ``CC005`` — ``ProcessPoolExecutor`` without an explicit
  ``mp_context=`` (the fork-after-thread hazard; use
  :func:`repro.eco.parallel.safe_mp_context`).
* ``CC006`` — a class that starts threads but has no ``.join(...)``
  anywhere on its teardown surface, or a thread started off an
  unowned constructor chain (``Thread(...).start()``).
* ``CC008`` — unbounded ``.join()`` / ``.wait()`` (no timeout)
  anywhere in library code: shutdown paths must not hang forever.
* ``CC009`` — process-global start-method mutation
  (``multiprocessing.set_start_method`` / ``os.fork``); pools must
  take a local context from
  :func:`~repro.eco.parallel.safe_mp_context`.

Like the RI rules, these are AST-level approximations tuned for zero
false positives on this codebase.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional

from repro.lint.diag import Diagnostic, LintReport, error

#: receiver names that mark a ``with`` block as a held-lock region
_LOCKISH = re.compile(r"lock|mutex|guard|cond", re.IGNORECASE)

#: zero-argument methods that block forever (CC003 / CC008)
_BLOCKING_METHODS = frozenset({"join", "wait", "get"})


def _terminal_name(expr: ast.expr) -> Optional[str]:
    """The last identifier of ``a.b.c`` / ``c`` / ``c()`` chains."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_lockish(expr: ast.expr) -> bool:
    name = _terminal_name(expr)
    return bool(name and _LOCKISH.search(name))


def _receiver_key(func: ast.Attribute) -> str:
    """Canonical text of a method call's receiver (``self._lock``)."""
    try:
        return ast.unparse(func.value)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ast.dump(func.value)


def _calls_with_attr(node: ast.AST, attr: str) -> List[ast.Call]:
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == attr]


def _is_thread_ctor(call: ast.Call) -> bool:
    """``threading.Thread(...)`` / ``Thread(...)``."""
    return _terminal_name(call.func) == "Thread"


class _ConcurrencyVisitor(ast.NodeVisitor):
    """Collects CC diagnostics for one module."""

    def __init__(self, display_path: str, spawns_threads: bool):
        self.display_path = display_path
        self.spawns_threads = spawns_threads
        self.diagnostics: List[Diagnostic] = []
        #: stack of held-lock receiver keys (with-block nesting)
        self._lock_stack: List[str] = []
        self._parents: Dict[ast.AST, ast.AST] = {}
        self._pool_names: set = set()

    # ------------------------------------------------------------------
    def analyze(self, tree: ast.Module) -> List[Diagnostic]:
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
            if isinstance(parent, ast.ImportFrom) \
                    and parent.module in ("concurrent.futures",
                                          "multiprocessing"):
                self._pool_names.update(
                    a.asname or a.name for a in parent.names
                    if a.name == "ProcessPoolExecutor")
        self.visit(tree)
        return self.diagnostics

    def _where(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return f"{self.display_path}:{lineno}:{col + 1}"

    def _flag(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    # -- held-lock regions ---------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        keys: List[str] = []
        for item in node.items:
            if _is_lockish(item.context_expr):
                keys.append(ast.unparse(item.context_expr))
        self._lock_stack.extend(keys)
        try:
            self.generic_visit(node)
        finally:
            del self._lock_stack[len(self._lock_stack) - len(keys):]

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        elif isinstance(func, ast.Name):
            self._check_name_call(node, func)
        self._check_unowned_thread_start(node)
        self.generic_visit(node)

    def _check_name_call(self, node: ast.Call, func: ast.Name) -> None:
        if func.id in self._pool_names \
                and not any(k.arg == "mp_context"
                            for k in node.keywords):
            self._flag(error(
                "CC005",
                "ProcessPoolExecutor without an explicit mp_context "
                "(fork-after-thread hazard)",
                where=self._where(node),
                hint="pass mp_context=repro.eco.parallel."
                     "safe_mp_context()"))

    def _check_attribute_call(self, node: ast.Call,
                              func: ast.Attribute) -> None:
        base = func.value
        base_name = base.id if isinstance(base, ast.Name) else None

        # CC002: unprotected explicit acquire
        if func.attr == "acquire" \
                and not node.args and not node.keywords \
                and not self._release_protected(node, func):
            self._flag(error(
                "CC002",
                f"{_receiver_key(func)}.acquire() without with/"
                "try-finally release protection",
                where=self._where(node),
                hint="use `with lock:` (or follow the acquire with "
                     "try/finally: release())"))

        # CC003/CC008: blocking calls
        self._check_blocking(node, func, base_name)

        # CC005: pool without explicit start-method context
        if func.attr == "ProcessPoolExecutor" or (
                base_name == "multiprocessing" and func.attr == "Pool"):
            if not any(k.arg == "mp_context" for k in node.keywords) \
                    and func.attr == "ProcessPoolExecutor":
                self._flag(error(
                    "CC005",
                    "ProcessPoolExecutor without an explicit "
                    "mp_context (fork-after-thread hazard)",
                    where=self._where(node),
                    hint="pass mp_context=repro.eco.parallel."
                         "safe_mp_context()"))
            elif base_name == "multiprocessing":
                self._flag(error(
                    "CC005",
                    "multiprocessing.Pool uses the process-global "
                    "start method (fork-after-thread hazard)",
                    where=self._where(node),
                    hint="use safe_mp_context().Pool(...) instead"))

        # CC009: process-global start-method mutation
        if (base_name == "multiprocessing"
                and func.attr == "set_start_method") \
                or (base_name == "os" and func.attr == "fork"):
            self._flag(error(
                "CC009",
                f"{base_name}.{func.attr}() mutates process-global "
                "fork state",
                where=self._where(node),
                hint="take a local context from safe_mp_context() "
                     "instead of mutating the global default"))

    def _check_blocking(self, node: ast.Call, func: ast.Attribute,
                        base_name: Optional[str]) -> None:
        held = bool(self._lock_stack)
        is_sleep = base_name == "time" and func.attr == "sleep"
        zero_arg_block = (func.attr in _BLOCKING_METHODS
                          and not node.args and not node.keywords)
        if held and (is_sleep or zero_arg_block):
            what = "time.sleep()" if is_sleep \
                else f".{func.attr}() with no timeout"
            self._flag(error(
                "CC003",
                f"blocking call {what} inside held-lock region "
                f"({self._lock_stack[-1]})",
                where=self._where(node),
                hint="move the blocking call outside the lock, or "
                     "bound it with a timeout"))
        elif zero_arg_block and func.attr in ("join", "wait"):
            # str.join / dict.get always take arguments, so a
            # zero-argument join/wait is a thread/event blocking call
            self._flag(error(
                "CC008",
                f"unbounded {_receiver_key(func)}.{func.attr}() "
                "can hang shutdown forever",
                where=self._where(node),
                hint="pass an explicit timeout and handle expiry"))

    # -- CC002 helper ---------------------------------------------------
    def _release_protected(self, node: ast.Call,
                           func: ast.Attribute) -> bool:
        receiver = _receiver_key(func)
        stmt: Optional[ast.AST] = node
        while stmt is not None and not isinstance(stmt, ast.stmt):
            stmt = self._parents.get(stmt)
        if stmt is None:
            return False
        parent = self._parents.get(stmt)
        if parent is None:
            return False

        def releases(body: List[ast.stmt]) -> bool:
            for sub in body:
                for call in _calls_with_attr(sub, "release"):
                    if isinstance(call.func, ast.Attribute) \
                            and _receiver_key(call.func) == receiver:
                        return True
            return False

        # shape 1: acquire is inside a try body whose finally releases
        if isinstance(parent, ast.Try) and stmt in parent.body \
                and releases(parent.finalbody):
            return True
        # shape 2: acquire statement immediately followed by such a try
        for body in (getattr(parent, "body", []),
                     getattr(parent, "orelse", []),
                     getattr(parent, "finalbody", [])):
            if stmt in body:
                i = body.index(stmt)
                if i + 1 < len(body) and isinstance(body[i + 1], ast.Try) \
                        and releases(body[i + 1].finalbody):
                    return True
        return False

    # -- CC004: global rebinding in thread-spawning modules -------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_global_writes(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_global_writes(node)
        self.generic_visit(node)

    def _check_global_writes(self, node: ast.AST) -> None:
        if not self.spawns_threads:
            return
        declared = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                declared.update(sub.names)
        if not declared:
            return
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) \
                    else [sub.target]
                for target in targets:
                    if isinstance(target, ast.Name) \
                            and target.id in declared \
                            and not self._write_locked(sub):
                        self._flag(error(
                            "CC004",
                            f"module-global '{target.id}' rebound "
                            "without a lock in a thread-spawning "
                            "module",
                            where=self._where(sub),
                            hint="guard the write with a lock "
                                 "(threads may read the old binding "
                                 "mid-update)"))

    def _write_locked(self, node: ast.AST) -> bool:
        cur = self._parents.get(node)
        while cur is not None:
            if isinstance(cur, ast.With) \
                    and any(_is_lockish(item.context_expr)
                            for item in cur.items):
                return True
            cur = self._parents.get(cur)
        return False

    # -- CC006: thread lifecycle ----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        ctors = [n for n in ast.walk(node)
                 if isinstance(n, ast.Call) and _is_thread_ctor(n)]
        if ctors:
            joins = _calls_with_attr(node, "join")
            if not joins:
                self._flag(error(
                    "CC006",
                    f"class {node.name} starts threads but never "
                    "joins one on teardown",
                    where=self._where(node),
                    hint="add a stop()/close() that joins the thread "
                         "with a timeout"))
        self.generic_visit(node)

    def _check_unowned_thread_start(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "start" \
                and isinstance(func.value, ast.Call) \
                and _is_thread_ctor(func.value):
            self._flag(error(
                "CC006",
                "thread started off an unowned constructor chain",
                where=self._where(node),
                hint="bind the thread to a variable/attribute so "
                     "teardown can join it"))


# ----------------------------------------------------------------------
def _module_spawns_threads(tree: ast.Module) -> bool:
    return any(isinstance(n, ast.Call) and _is_thread_ctor(n)
               for n in ast.walk(tree))


def lint_concur_source_text(text: str, module: str,
                            display_path: Optional[str] = None
                            ) -> LintReport:
    """Run the concurrency rules on one module's source text.

    Same contract as
    :func:`repro.lint.pylint_rules.lint_source_text`: ``module`` is
    the package-root-relative POSIX path that names the report.
    """
    report = LintReport(tool="self", subject=module)
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        report.add(error(
            "CC000", f"syntax error: {exc.msg}",
            where=f"{display_path or module}:{exc.lineno or 0}:"
                  f"{(exc.offset or 0)}"))
        return report
    visitor = _ConcurrencyVisitor(display_path or module,
                                  _module_spawns_threads(tree))
    report.extend(visitor.analyze(tree))
    return report
