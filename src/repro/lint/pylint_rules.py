"""Codebase analyzer: AST rules enforcing the repo's own invariants.

``python -m repro.lint --self`` (or ``repro lint --self``) parses every
module under ``src/repro`` and checks the conventions the architecture
relies on but Python cannot express:

* ``RI001`` — no ``time.time()`` outside :mod:`repro.runtime`; wall
  clocks must go through :func:`repro.runtime.now` so deadlines and
  fault-injected clocks see every read.
* ``RI002`` — no module-level ``random.*`` calls and no unseeded
  ``random.Random()``; all randomness must be a seeded
  ``random.Random(seed)`` instance (reproducibility contract).
* ``RI003`` — no direct ``.solve()`` calls outside the sanctioned
  solver modules; engine code must route SAT queries through
  :meth:`repro.runtime.supervisor.RunSupervisor.check_pair_supervised`
  so budgets and escalation apply.
* ``RI004`` — no bare ``except:`` (it swallows ``KeyboardInterrupt``
  and masks programming errors).
* ``RI005`` — no mutation of :class:`~repro.netlist.circuit.Circuit`
  topology (``rewire_pin`` / ``replace_net`` / ``remove_gate`` /
  subscript assignment to ``.fanins`` / ``.outputs`` / ``.gates``)
  outside the sanctioned packages.
* ``RI006`` — no ``print()`` in library modules; only the CLI prints,
  everything else logs.
* ``RI007`` — no ``numpy`` imports anywhere in the package: the
  program has no dependencies, and its one simulation path is the
  pure-Python :class:`~repro.netlist.simulate.CompiledPlan`.

Allowlists are module-path prefixes relative to the package root
(POSIX separators); they are part of the invariant definition and are
documented in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Tuple

from repro.lint.diag import Diagnostic, LintReport, error

#: modules allowed to read the wall clock directly
WALL_CLOCK_ALLOWED: Tuple[str, ...] = (
    "repro/runtime/",
)

#: modules allowed to call ``<solver>.solve(...)`` directly; each takes
#: an explicit conflict budget and is driven by supervised code
SOLVE_ALLOWED: Tuple[str, ...] = (
    "repro/sat/",
    "repro/cec/",
    "repro/eco/samples.py",
    "repro/eco/resynth.py",
    "repro/eco/sweep.py",
    "repro/eco/incremental.py",
    "repro/baselines/",
    "repro/runtime/",
)

#: packages sanctioned to mutate Circuit topology
MUTATION_ALLOWED: Tuple[str, ...] = (
    "repro/netlist/",
    "repro/eco/",
    "repro/synth/",
    "repro/cec/",
    "repro/baselines/",
    "repro/workloads/",
)

#: modules allowed to import numpy: none, the package is stdlib-only
NUMPY_ALLOWED: Tuple[str, ...] = ()

#: modules allowed to print to stdout
PRINT_ALLOWED: Tuple[str, ...] = (
    "repro/cli.py",
    "repro/lint/cli.py",
    "repro/obs/runs_cli.py",
    "repro/obs/watch_cli.py",
)

#: ``random`` module functions that use the shared global RNG
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "gauss", "choice",
    "choices", "shuffle", "sample", "seed", "getrandbits", "betavariate",
    "expovariate", "vonmisesvariate", "triangular",
})

_MUTATING_METHODS = frozenset({"rewire_pin", "replace_net", "remove_gate"})
_MUTATING_SUBSCRIPTS = frozenset({"fanins", "outputs", "gates"})


def _allowed(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p) for p in prefixes)


class _InvariantVisitor(ast.NodeVisitor):
    """Collects RI diagnostics for one module."""

    def __init__(self, module: str, display_path: str):
        self.module = module
        self.display_path = display_path
        self.diagnostics: List[Diagnostic] = []

    # ------------------------------------------------------------------
    def _where(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return f"{self.display_path}:{lineno}:{col + 1}"

    def _flag(self, code: str, message: str, node: ast.AST,
              hint: Optional[str] = None) -> None:
        self.diagnostics.append(
            error(code, message, where=self._where(node), hint=hint))

    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        elif isinstance(func, ast.Name):
            if func.id == "print" \
                    and not _allowed(self.module, PRINT_ALLOWED):
                self._flag(
                    "RI006",
                    "print() in a library module",
                    node,
                    hint="use logging (or return the string); only the "
                         "CLI prints")
        self.generic_visit(node)

    def _check_attribute_call(self, node: ast.Call,
                              func: ast.Attribute) -> None:
        base = func.value
        base_name = base.id if isinstance(base, ast.Name) else None
        if base_name == "time" and func.attr == "time" \
                and not _allowed(self.module, WALL_CLOCK_ALLOWED):
            self._flag(
                "RI001",
                "direct wall-clock read time.time() outside "
                "repro.runtime",
                node,
                hint="use repro.runtime.now() so deadline supervision "
                     "and fault-injected clocks observe the read")
        if base_name == "random":
            if func.attr in _GLOBAL_RANDOM_FNS:
                self._flag(
                    "RI002",
                    f"random.{func.attr}() uses the shared global RNG",
                    node,
                    hint="construct a seeded random.Random(seed) "
                         "instance")
            elif func.attr == "Random" and not node.args \
                    and not node.keywords:
                self._flag(
                    "RI002",
                    "unseeded random.Random() breaks run "
                    "reproducibility",
                    node,
                    hint="pass an explicit seed")
        if func.attr == "solve" \
                and not _allowed(self.module, SOLVE_ALLOWED):
            self._flag(
                "RI003",
                "direct .solve() call outside the sanctioned solver "
                "modules",
                node,
                hint="route the query through "
                     "RunSupervisor.check_pair_supervised so budgets "
                     "and escalation apply")
        if func.attr in _MUTATING_METHODS \
                and not _allowed(self.module, MUTATION_ALLOWED):
            self._flag(
                "RI005",
                f"Circuit mutation .{func.attr}() outside the "
                "sanctioned packages",
                node,
                hint="work on a Circuit.copy() or move the edit into "
                     "repro.netlist / repro.eco / repro.synth")

    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            if root == "numpy" \
                    and not _allowed(self.module, NUMPY_ALLOWED):
                self._flag(
                    "RI007",
                    "numpy import in a stdlib-only package",
                    node,
                    hint="the package has no dependencies; simulate "
                         "through repro.netlist.simulate.CompiledPlan")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".", 1)[0]
        if root == "numpy" and node.level == 0 \
                and not _allowed(self.module, NUMPY_ALLOWED):
            self._flag(
                "RI007",
                "numpy import in a stdlib-only package",
                node,
                hint="the package has no dependencies; simulate "
                     "through repro.netlist.simulate.CompiledPlan")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                "RI004",
                "bare except: swallows KeyboardInterrupt and masks "
                "programming errors",
                node,
                hint="catch ReproError (or a concrete exception) "
                     "instead")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_mutating_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutating_target(node.target, node)
        self.generic_visit(node)

    def _check_mutating_target(self, target: ast.expr,
                               node: ast.AST) -> None:
        if _allowed(self.module, MUTATION_ALLOWED):
            return
        if isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Attribute) \
                and target.value.attr in _MUTATING_SUBSCRIPTS:
            self._flag(
                "RI005",
                f"subscript assignment to .{target.value.attr}[...] "
                "mutates Circuit topology outside the sanctioned "
                "packages",
                node,
                hint="use the Circuit editing API from a sanctioned "
                     "module")


# ----------------------------------------------------------------------
def lint_source_text(text: str, module: str,
                     display_path: Optional[str] = None) -> LintReport:
    """Run the invariant rules on one module's source text.

    ``module`` is the package-root-relative POSIX path (e.g.
    ``repro/eco/engine.py``) the allowlists match against;
    ``display_path`` is what diagnostics print (defaults to
    ``module``).
    """
    report = LintReport(tool="self", subject=module)
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        report.add(error(
            "RI000", f"syntax error: {exc.msg}",
            where=f"{display_path or module}:{exc.lineno or 0}:"
                  f"{(exc.offset or 0)}"))
        return report
    visitor = _InvariantVisitor(module, display_path or module)
    visitor.visit(tree)
    report.extend(visitor.diagnostics)
    return report


def package_root() -> str:
    """Directory of the installed ``repro`` package sources."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint_sources(root: Optional[str] = None) -> LintReport:
    """Run the invariant + concurrency rules on every module under
    ``root``.

    ``root`` defaults to the directory containing the ``repro``
    package itself, so ``repro lint --self`` checks whatever
    installation is running it.  Each module gets both the ``RI``
    repo-invariant pass and the ``CC`` concurrency pass
    (:mod:`repro.lint.concur_rules`).
    """
    from repro.lint.concur_rules import lint_concur_source_text

    if root is None:
        root = package_root()
    root = os.path.abspath(root)
    parent = os.path.dirname(root)
    report = LintReport(tool="self", subject=os.path.basename(root))
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            module = os.path.relpath(path, parent).replace(os.sep, "/")
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            report.merge(lint_source_text(text, module,
                                          display_path=module))
            report.merge(lint_concur_source_text(text, module,
                                                 display_path=module))
    return report
