"""Per-layer ledger: spans and counts recorded around public calls.

The benchmark measures each layer of the program from outside. While a
:class:`Ledger` is installed, every public function listed in
:func:`_targets` is replaced by a wrapper that records a span (name,
start, end, parent) or bumps a count, then calls the original. Nothing
in the program is edited: module-level functions are replaced in every
``repro`` module that holds them, because several callers bind them by
name (``repro.eco.engine`` imports ``check_equivalence`` and friends,
``repro.eco.incremental`` imports ``rewire_acyclic``), and methods are
replaced on their class.

Spans stay in memory; :meth:`Ledger.span_times` turns them into the
per-layer table when the run ends. A span's self time is its duration
minus the time its child spans cover. A layer's ``*_s`` metric is the
inclusive time of its outermost spans (nested spans of the same name
are not counted twice), so ``cec.verify_s`` is directly comparable to
the program's own ``cec.verify_final`` span.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: span names grouped under the metric that reports their time
SPAN_METRICS = {
    "cec.diagnose": "cec.diagnose_s",
    "cec.verify": "cec.verify_s",
    "sat.solve": "sat.solve_s",
    "eco.samples": "eco.samples_s",
    "eco.points": "eco.points_s",
    "eco.candidates": "eco.candidates_s",
    "eco.choices": "eco.choices_s",
    "eco.screen": "eco.screen_s",
    "eco.validate": "eco.validate_s",
    "eco.legality": "eco.legality_s",
    "eco.refine": "eco.refine_s",
    "netlist.plan": "netlist.plan_s",
    "netlist.read": "netlist.read_s",
    "obs.publish": "obs.publish_s",
    "journal.append": "journal.append_s",
}


class Ledger:
    """Spans and counts of the calls made while it is installed.

    Only the thread that created the ledger records spans; calls from
    other threads (the program's telemetry sampler) pass straight
    through, so the span stack stays well nested.
    """

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = collections.Counter()
        self.nodes_peak = 0
        self._stack: List[int] = []
        self._owner = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []
        self._managers: List[object] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(self, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
        spans, stack, owner = self.spans, self._stack, self._owner

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _solve(self, fn: Callable) -> Callable:
        """``Solver.solve``: a span plus the deltas of the solver's
        cumulative work counters."""
        counts = self.counts
        timed = self._timed("sat.solve", fn)

        @functools.wraps(fn)
        def wrapper(solver, *args, **kwargs):
            before = (solver.conflicts, solver.decisions,
                      solver.propagations)
            status = timed(solver, *args, **kwargs)
            counts["sat.solves"] += 1
            counts["sat.conflicts"] += solver.conflicts - before[0]
            counts["sat.decisions"] += solver.decisions - before[1]
            counts["sat.propagations"] += solver.propagations - before[2]
            if status == "unknown":
                counts["sat.unknowns"] += 1
            return status
        return wrapper

    def _manager_init(self, fn: Callable) -> Callable:
        counts, managers = self.counts, self._managers

        @functools.wraps(fn)
        def wrapper(manager, *args, **kwargs):
            fn(manager, *args, **kwargs)
            counts["bdd.managers"] += 1
            managers.append(manager)
        return wrapper

    def _num_nodes(self, prop: property) -> property:
        ledger = self

        def getter(manager):
            value = prop.fget(manager)
            if value > ledger.nodes_peak:
                ledger.nodes_peak = value
            return value
        return property(getter)

    def _count_outcome(self, attempts: str, hits: str,
                       test: Callable[[object], bool]) -> Callable:
        counts = self.counts

        def after(result, _args):
            counts[attempts] += 1
            if test(result):
                counts[hits] += 1
        return after

    def _count_batch(self, result, _args) -> None:
        self.counts["eco.screened"] += len(result)
        self.counts["eco.screen_passed"] += sum(1 for ok in result if ok)

    def _count(self, name: str) -> Callable:
        counts = self.counts

        def after(_result, _args):
            counts[name] += 1
        return after

    def _count_read(self, circuit, _args) -> None:
        self.counts["netlist.gates_read"] += len(circuit.gates)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _targets(self):
        from repro.bdd.manager import BddManager
        from repro.cec import equivalence
        from repro.eco import choices, points, samples, sweep, validate
        from repro.eco.checkpoint import RunJournal
        from repro.eco.incremental import IncrementalValidator
        from repro.eco.rewiring import RewiringContext
        from repro.lint.patch_rules import PatchScreen
        io_blif = importlib.import_module("repro.netlist.io_blif")
        simulate = importlib.import_module("repro.netlist.simulate")
        from repro.obs.store import RunStore
        from repro.sat.solver import Solver
        # every module that binds a target by name must be loaded
        # before the scan in install()
        import repro.cli  # noqa: F401
        import repro.eco.engine  # noqa: F401

        valid = self._count_outcome("eco.validate_calls",
                                    "eco.validate_accepted",
                                    lambda outcome: outcome.valid)
        legacy = self._count("eco.legacy_validate_calls")

        def legacy_and_valid(outcome, args):
            legacy(outcome, args)
            valid(outcome, args)

        screen = self._count_outcome("eco.screened", "eco.screen_passed",
                                     bool)
        lint = self._count_outcome("lint.screen_calls", "lint.rejects",
                                   lambda report: not report.ok)
        verify = self._count("cec.verify_calls")
        plan_run = self._count("netlist.plan_runs")
        timed = self._timed
        functions = [
            (equivalence, "nonequivalent_outputs", timed("cec.diagnose", (
                equivalence.nonequivalent_outputs))),
            (equivalence, "check_equivalence", timed("cec.verify", (
                equivalence.check_equivalence), verify)),
            (samples, "collect_error_samples", timed("eco.samples", (
                samples.collect_error_samples))),
            (points, "feasible_point_sets", timed("eco.points", (
                points.feasible_point_sets))),
            (points, "feasible_point_sets_joint", timed("eco.points", (
                points.feasible_point_sets_joint))),
            (choices, "enumerate_rewiring_choices", timed("eco.choices", (
                choices.enumerate_rewiring_choices))),
            (choices, "enumerate_rewiring_choices_joint", timed(
                "eco.choices", choices.enumerate_rewiring_choices_joint)),
            (validate, "validate_rewire", timed("eco.validate", (
                validate.validate_rewire), legacy_and_valid)),
            (validate, "rewire_acyclic", timed("eco.legality", (
                validate.rewire_acyclic))),
            (validate, "topological_constraint_ok", timed("eco.legality", (
                validate.topological_constraint_ok))),
            (sweep, "refine_patch_inputs", timed("eco.refine", (
                sweep.refine_patch_inputs))),
            (simulate, "compiled_plan", timed("netlist.plan", (
                simulate.compiled_plan))),
            (io_blif, "read_blif", timed("netlist.read", (
                io_blif.read_blif), self._count_read)),
        ]
        methods = [
            (Solver, "solve", self._solve(Solver.solve)),
            (BddManager, "__init__",
             self._manager_init(BddManager.__init__)),
            (BddManager, "ite", self._counted("bdd.ite_calls",
                                              BddManager.ite)),
            (BddManager, "num_nodes",
             self._num_nodes(BddManager.__dict__["num_nodes"])),
            (RewiringContext, "candidates_for_pin", timed(
                "eco.candidates", RewiringContext.candidates_for_pin)),
            (RewiringContext, "utility", self._counted(
                "eco.utility_calls", RewiringContext.utility)),
            (validate.SimulationFilter, "passes", timed(
                "eco.screen", validate.SimulationFilter.passes, screen)),
            (validate.SimulationFilter, "passes_batch", timed(
                "eco.screen", validate.SimulationFilter.passes_batch,
                self._count_batch)),
            (IncrementalValidator, "validate", timed(
                "eco.validate", IncrementalValidator.validate, valid)),
            (PatchScreen, "check_ops", timed(
                "lint.screen", PatchScreen.check_ops, lint)),
            (simulate.CompiledPlan, "__init__", self._counted(
                "netlist.plan_compiles", simulate.CompiledPlan.__init__)),
            (simulate.CompiledPlan, "run", timed(
                "netlist.plan", simulate.CompiledPlan.run, plan_run)),
            (simulate.CompiledPlan, "run_lanes", timed(
                "netlist.plan", simulate.CompiledPlan.run_lanes, plan_run)),
            (RunStore, "publish", timed("obs.publish", RunStore.publish)),
            (RunJournal, "record_commit", timed(
                "journal.append", RunJournal.record_commit,
                self._count("journal.appends"))),
        ]
        return functions, methods

    def install(self) -> None:
        """Swap every target for its wrapper."""
        functions, methods = self._targets()
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "repro" or name.startswith("repro."))
                   and m is not None]
        for home, attr, wrapper in functions:
            original = getattr(home, attr)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, value))
                        setattr(module, name, wrapper)
        for cls, attr, wrapper in methods:
            self._patches.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original; reads the node count of the BDD
        managers the call created (the node store never shrinks, so the
        final count is the manager's peak)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for manager in self._managers:
            self.nodes_peak = max(self.nodes_peak, manager.num_nodes)
        self._managers.clear()

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def span_times(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Inclusive and self seconds per span name.

        Inclusive time counts only spans with no ancestor of the same
        name, so a recursive or re-entrant layer is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: Dict[str, float] = collections.defaultdict(float)
        self_time: Dict[str, float] = collections.defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            self_time[name] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return inclusive, self_time

    def solve_callers(self) -> Dict[str, float]:
        """``sat.solve`` seconds split by the span that made the call
        (``-`` when no recorded span encloses the solve)."""
        split: Dict[str, float] = collections.defaultdict(float)
        for name, start, end, parent in self.spans:
            if name == "sat.solve":
                caller = self.spans[parent][0] if parent >= 0 else "-"
                split[caller] += end - start
        return split

    def outermost_layers(self) -> Dict[str, float]:
        """Seconds of the spans no other span encloses, by layer (the
        span name up to its first dot). They never overlap, so this is
        the phase-level split the program's own trace reports: SAT
        time counts toward the layer that called the solver."""
        split: Dict[str, float] = collections.defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent < 0:
                split[name.split(".")[0]] += end - start
        return split

    def unattributed(self, wall: float) -> float:
        """Seconds of ``wall`` that no recorded span covers."""
        return wall - sum(self.span_times()[1].values())

    def table(self, wall: float) -> List[str]:
        """The per-layer table: calls, inclusive and self seconds per
        span name, the SAT time split by caller, and the unattributed
        rest of ``wall``."""
        inclusive, self_time = self.span_times()
        calls = collections.Counter(span[0] for span in self.spans)
        rows = [f"{'span':16s} {'calls':>9s} {'incl s':>9s} "
                f"{'self s':>9s} {'self %':>7s}"]
        for name in sorted(self_time, key=self_time.get, reverse=True):
            rows.append(f"{name:16s} {calls[name]:9d} "
                        f"{inclusive[name]:9.3f} {self_time[name]:9.3f} "
                        f"{100.0 * ratio(self_time[name], wall):6.1f}%")
        for caller, seconds in sorted(self.solve_callers().items(),
                                      key=lambda kv: -kv[1]):
            rows.append(f"  sat.solve in {caller:15s} {'':9s} "
                        f"{seconds:9.3f} {100.0 * ratio(seconds, wall):6.1f}%")
        for layer, seconds in sorted(self.outermost_layers().items(),
                                     key=lambda kv: -kv[1]):
            rows.append(f"  outermost {layer:18s} {'':9s} {seconds:9.3f} "
                        f"{100.0 * ratio(seconds, wall):6.1f}%")
        rest = self.unattributed(wall)
        rows.append(f"{'unattributed':16s} {'':9s} {'':9s} {rest:9.3f} "
                    f"{100.0 * ratio(rest, wall):6.1f}%")
        rows.append(f"{'traced wall':16s} {'':9s} {wall:9.3f}")
        return rows


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
