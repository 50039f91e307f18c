#!/usr/bin/env python3
"""The repository benchmark: time to a verified patch, and patch size.

Run from the repository root::

    python3 perfbench/run.py --workload large --seed 2019 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with no
wrappers installed; ``--trace 1`` is a separate run of the same
workload that records the per-layer ledger (see ``ledger.py``). The
last line of standard output is one JSON object; the lines before it
are a readable report. See ``README.md`` beside this file.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "out")

#: set-up samples per run, each in a fresh interpreter (import included)
SETUP_SAMPLES = 5

clock = time.perf_counter

END_TO_END = {
    "setup_s": "s", "wall_ref": "ref", "rectify_gmean_ref": "ref",
    "rectify_max_ref": "ref", "patch_gates": "count",
    "patch_nets": "count", "peak_rss_mb": "MB",
}
PER_LAYER = [
    "cec.diagnose_s", "cec.verify_s", "cec.verify_calls",
    "sat.solves", "sat.solve_s", "sat.conflicts", "sat.decisions",
    "sat.propagations", "sat.unknown_frac", "sat.conflicts_unreported",
    "bdd.managers", "bdd.ite_calls", "bdd.nodes_peak",
    "eco.samples_s", "eco.points_s", "eco.candidates_s",
    "eco.utility_calls", "eco.choices_s", "eco.screen_s",
    "eco.screen_pass_frac", "eco.validate_s", "eco.validate_calls",
    "eco.validate_accept_frac", "eco.legacy_validate_calls",
    "eco.legality_s", "eco.refine_s",
    "lint.screen_calls", "lint.reject_frac",
    "netlist.plan_compiles", "netlist.plan_runs", "netlist.plan_s",
    "netlist.read_s", "netlist.gate_growth",
    "obs.spans", "obs.events", "obs.publish_s",
    "journal.appends", "journal.append_s",
    "run.fallback_outputs", "run.degraded_frac",
    "unattributed_s", "trace_overhead_frac",
]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_growth"):
        return "ratio"
    return "count"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="the small version the self-test runs")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def _setup_only(args) -> int:
    """One set-up sample: import plus building the workload's circuits,
    timed from this interpreter's first statement."""
    import workloads
    workloads.build(args.workload, args.seed, args.work_dir, args.reduced)
    print(repr(clock() - _STARTED))
    return 0


def _setup_seconds(args, work_dir: str) -> float:
    samples = []
    for k in range(SETUP_SAMPLES):
        sample_dir = os.path.join(work_dir, f"setup{k}")
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--work-dir", sample_dir]
        if args.reduced:
            cmd.append("--reduced")
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(sample_dir, ignore_errors=True)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# calls
# ----------------------------------------------------------------------

class Attempt:
    """One call made and checked."""

    def __init__(self, call, seconds, ref, outcome, correct):
        self.call = call
        self.seconds = seconds
        #: seconds of the reference kernel timed after the call;
        #: _end_to_end replaces it with the mean around the call
        self.ref = ref
        self.outcome = outcome
        self.correct = correct

    @property
    def result(self):
        return self.outcome.result if self.outcome is not None else None


def _reference_kernel() -> int:
    """A fixed piece of interpreter work (integer arithmetic and dict
    stores, about 15 ms) that never changes with the program."""
    acc = 0
    table = {}
    for i in range(60000):
        acc += i * i % 7
        table[i & 1023] = acc
    return acc


def reference_seconds() -> float:
    started = clock()
    _reference_kernel()
    return clock() - started


def _attempt(call, checker, ledger=None) -> Attempt:
    """Prepare, time and check one call; the check runs after the timed
    window, with no ledger installed. The reference kernel is timed
    right after the call."""
    fn = call.prepare()
    gc.collect()
    outcome = error = None
    if ledger is not None:
        ledger.install()
    started = clock()
    try:
        outcome = fn()
    except Exception as exc:  # a failed call is counted, not fatal
        error = exc
        traceback.print_exc(file=sys.stderr)
    finally:
        seconds = clock() - started
        if ledger is not None:
            ledger.uninstall()
    ref = reference_seconds()
    correct = (error is None and outcome.verified
               and outcome.result is not None
               and checker(outcome.result.patched, call.spec))
    if not correct and error is None:
        print(f"error: {call.label}: patch failed verification",
              file=sys.stderr)
    return Attempt(call, seconds, ref, outcome, correct)


def _patch_totals(attempts):
    gates = nets = fallback = degraded = 0
    for a in attempts:
        if a.result is None:
            continue
        stats = a.result.stats()
        gates += stats.gates
        nets += stats.nets
        fallback += sum(1 for how in a.result.per_output.values()
                        if how.startswith("fallback"))
        degraded += int(a.result.degraded)
    return gates, nets, fallback, degraded


def _overshoot(attempts) -> float:
    import workloads
    return max(a.seconds - workloads.DEADLINE_S for a in attempts)


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------

def _end_to_end(args, calls, checker, work_dir, report):
    """Whole passes over the calls, as many as fit in ``--seconds``
    (at least one).

    Each call's time is its median over passes; a pass is the sum of
    its calls. The gated ``*_ref`` metrics first divide each call's
    seconds by the reference kernel's seconds around it (the mean of
    the samples just before and just after the call), so they follow
    the program, not the speed the shared machine happens to run at;
    the seconds are printed.
    """
    setup_s = _setup_seconds(args, work_dir)
    passes = []
    totals = []
    overshoots = []
    elapsed = 0.0
    while not passes or elapsed + statistics.median(
            sum(a.seconds for a in p) for p in passes) <= args.seconds:
        current = []
        ref_before = reference_seconds()
        for call in calls:
            attempt = _attempt(call, checker)
            # the kernel timed after one call is the next call's before
            ref_after = attempt.ref
            attempt.ref = (ref_before + ref_after) / 2.0
            ref_before = ref_after
            current.append(attempt)
        totals.append(_patch_totals(current))
        overshoots.append(_overshoot(current))
        for a in current:
            # so peak memory does not grow with the number of passes
            a.outcome = None
        passes.append(current)
        elapsed += sum(a.seconds for a in current)
    attempts = [a for p in passes for a in p]
    if len(set(totals)) > 1:
        print(f"warning: patch totals differ between passes: {totals}",
              file=sys.stderr)
    gates, nets, fallback, degraded = totals[0]
    failed = sum(1 for a in attempts if not a.correct)

    def per_call(value):
        return [statistics.median(value(p[i]) for p in passes)
                for i in range(len(calls))]

    seconds = per_call(lambda a: a.seconds)
    units = per_call(lambda a: a.seconds / a.ref)
    metrics = {
        "setup_s": setup_s,
        "wall_ref": sum(units),
        "rectify_gmean_ref": statistics.geometric_mean(units),
        "rectify_max_ref": max(units),
        "patch_gates": gates,
        "patch_nets": nets,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # printed only: seconds follow the machine's speed, and the
    # outcome shares are 0 on most workloads
    readable = {
        "wall_s": sum(seconds),
        "rectify_gmean_s": statistics.geometric_mean(seconds),
        "rectify_p50_s": statistics.median(seconds),
        "rectify_max_s": max(seconds),
        "ref_s": statistics.median(a.ref for a in attempts),
        "fallback_outputs": fallback,
        "failed_frac": failed / len(attempts),
        "degraded_frac": degraded / len(calls),
    }
    if args.workload == "deadline":
        readable["deadline_overshoot_s"] = statistics.median(overshoots)
    report.append(f"{len(calls)} calls per pass, {len(passes)} pass(es)")
    for name, value in list(metrics.items()) + list(readable.items()):
        report.append(f"{name:24s} {value:14.6g}")
    return metrics, len(attempts), failed


# ----------------------------------------------------------------------
# --trace 1: per-layer ledger
# ----------------------------------------------------------------------

def _per_layer(args, calls, checker, _work_dir, report):
    """One untraced pass, then one traced pass over the same calls."""
    from ledger import SPAN_METRICS, Ledger, ratio

    untraced = [_attempt(call, checker) for call in calls]
    ledger = Ledger()
    traced = [_attempt(call, checker, ledger) for call in calls]
    attempts = untraced + traced
    failed = sum(1 for a in attempts if not a.correct)

    wall = sum(a.seconds for a in traced)
    inclusive, _ = ledger.span_times()
    counts = ledger.counts
    m = {}
    for span, metric in SPAN_METRICS.items():
        if metric is not None:
            m[metric] = inclusive.get(span, 0.0)
    m["cec.verify_calls"] = counts["cec.verify_calls"]
    for key in ("sat.solves", "sat.conflicts", "sat.decisions",
                "sat.propagations", "bdd.managers", "bdd.ite_calls",
                "eco.utility_calls", "eco.validate_calls",
                "eco.legacy_validate_calls", "lint.screen_calls",
                "netlist.plan_compiles", "netlist.plan_runs",
                "journal.appends"):
        m[key] = counts[key]
    m["sat.unknown_frac"] = ratio(counts["sat.unknowns"],
                                  counts["sat.solves"])
    reported = sum(a.result.counters.sat_conflicts_spent
                   for a in traced if a.result is not None)
    m["sat.conflicts_unreported"] = counts["sat.conflicts"] - reported
    m["bdd.nodes_peak"] = ledger.nodes_peak
    m["eco.screen_pass_frac"] = ratio(counts["eco.screen_passed"],
                                      counts["eco.screened"])
    m["eco.validate_accept_frac"] = ratio(counts["eco.validate_accepted"],
                                          counts["eco.validate_calls"])
    m["lint.reject_frac"] = ratio(counts["lint.rejects"],
                                  counts["lint.screen_calls"])
    m["netlist.gate_growth"] = ratio(counts["netlist.gates_read"],
                                     sum(c.blif_gates for c in calls))
    program_traces = [a.outcome.trace for a in traced
                      if a.outcome is not None and a.outcome.trace]
    m["obs.spans"] = sum(len(t.spans) for t in program_traces)
    # obs.sample events come from a timer thread, so their number
    # follows wall time; every other event marks program work
    m["obs.events"] = sum(1 for t in program_traces for e in t.events
                          if e.name != "obs.sample")
    _, _, fallback, degraded = _patch_totals(traced)
    m["run.fallback_outputs"] = fallback
    m["run.degraded_frac"] = degraded / len(calls)
    m["unattributed_s"] = ledger.unattributed(wall)
    m["trace_overhead_frac"] = ratio(
        wall, sum(a.seconds for a in untraced)) - 1.0

    table = ledger.table(wall)
    table.append(f"{'untraced wall':16s} {'':9s} "
                 f"{sum(a.seconds for a in untraced):9.3f}  "
                 f"(trace overhead {m['trace_overhead_frac']:+.1%})")
    report.extend(table)
    _write_out(args, ledger, table)
    return m, len(attempts), failed


def _write_out(args, ledger, table) -> None:
    """Spans (one JSON array per line) and the layer table of the run."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-{args.seed}")
    with open(stem + ".spans.jsonl", "w") as fh:
        for name, start, end, parent in ledger.spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")
    with open(stem + ".layers.txt", "w") as fh:
        fh.write("\n".join(table) + "\n")


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        return _setup_only(args)

    import workloads
    from check import Checker
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.NAMES)})",
              file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        calls = workloads.build(args.workload, args.seed, work_dir,
                                args.reduced)
        report = [f"workload {args.workload}, seed {args.seed}, "
                  f"trace {args.trace}"]
        measure = _per_layer if args.trace else _end_to_end
        metrics, attempted, failed = measure(args, calls, Checker(),
                                             work_dir, report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("\n".join(report))
    names = PER_LAYER if args.trace else list(END_TO_END)
    units = ({n: _unit(n) for n in PER_LAYER} if args.trace
             else END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
