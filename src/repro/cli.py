"""Command-line interface.

Run ``python -m repro <command> --help``.  Commands:

* ``stats``  — netlist statistics, logic depth and timing summary;
* ``cec``    — combinational equivalence check with counterexample;
* ``synth``  — run the heavy or light optimization script;
* ``eco``    — rectify an implementation against a revised spec with
  any of the three engines, writing the patched netlist and a patch
  report;
* ``trace``  — summarize a trace file written by ``eco --trace``;
* ``runs``   — inspect the persistent run store: list, show, diff,
  and regression-check recorded runs (``repro runs regress
  --baseline REF`` exits nonzero on regression — a CI gate), plus
  ``recover`` to salvage a crashed store and list resumable runs;
* ``watch``  — TTY dashboard over a recorded run, or over a live
  ``repro eco --serve-metrics`` endpoint with ``--url``;
* ``lint``   — static diagnostics: netlist analyzer, patch-op
  legality, or the repo's own invariants (``--self``);
* ``tables`` — regenerate the paper's tables on the scaled suite.

All netlists are exchanged as BLIF; ``eco`` and ``synth`` can also emit
structural Verilog with ``--verilog``.  ``-v``/``--log-level`` turn on
the engines' diagnostic logging (stderr).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from repro.errors import ReproError


def _load_netlist(path: str):
    """Read a netlist, dispatching on the file extension.

    ``.blif`` -> BLIF, ``.v``/``.sv`` -> structural Verilog,
    ``.aag`` -> ASCII AIGER; anything else defaults to BLIF.
    """
    from repro.netlist import read_aiger, read_blif, read_verilog

    lower = path.lower()
    if lower.endswith((".v", ".sv")):
        return read_verilog(path)
    if lower.endswith(".aag"):
        return read_aiger(path)
    return read_blif(path)


def _save_netlist(circuit, path: str) -> None:
    """Write a netlist, dispatching on the file extension."""
    from repro.netlist import write_aiger, write_blif, write_verilog

    lower = path.lower()
    if lower.endswith((".v", ".sv")):
        write_verilog(circuit, path)
    elif lower.endswith(".aag"):
        write_aiger(circuit, path)
    else:
        write_blif(circuit, path)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.netlist import circuit_stats
    from repro.netlist.traverse import levelize
    from repro.timing import analyze

    circuit = _load_netlist(args.netlist)
    stats = circuit_stats(circuit)
    print(f"name    : {circuit.name}")
    print(f"inputs  : {stats.inputs}")
    print(f"outputs : {stats.outputs}")
    print(f"gates   : {stats.gates}")
    print(f"nets    : {stats.nets}")
    print(f"sinks   : {stats.sinks}")
    if circuit.gates:
        levels = levelize(circuit)
        print(f"depth   : {max(levels.values())} levels")
        report = analyze(circuit)
        print(f"arrival : {report.max_arrival:.1f} ps "
              f"(critical output {report.worst_output})")
    return 0


def _cmd_cec(args: argparse.Namespace) -> int:
    from repro.cec import check_equivalence

    left = _load_netlist(args.left)
    right = _load_netlist(args.right)
    result = check_equivalence(left, right,
                               conflict_budget=args.budget)
    if result.equivalent is True:
        print("EQUIVALENT")
        return 0
    if result.equivalent is None:
        print("UNDECIDED (conflict budget exhausted)")
        return 2
    print("NOT EQUIVALENT")
    print(f"failing outputs: {', '.join(result.failing_outputs)}")
    print("counterexample:")
    for name in sorted(result.counterexample):
        print(f"  {name} = {int(result.counterexample[name])}")
    return 1


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.netlist import circuit_stats, write_verilog
    from repro.synth import optimize_heavy, optimize_light

    circuit = _load_netlist(args.netlist)
    before = circuit_stats(circuit)
    if args.script == "heavy":
        result = optimize_heavy(circuit, seed=args.seed)
    else:
        result = optimize_light(circuit)
    after = circuit_stats(result)
    print(f"{args.script} script: {before.gates} -> {after.gates} gates, "
          f"{before.nets} -> {after.nets} nets")
    _save_netlist(result, args.output)
    print(f"wrote {args.output}")
    if args.verilog:
        write_verilog(result, args.verilog)
        print(f"wrote {args.verilog}")
    return 0


def _cmd_eco(args: argparse.Namespace) -> int:
    from repro.cec import check_equivalence
    from repro.eco import EcoConfig, SysEco
    from repro.baselines import ConeMap, DeltaSyn
    from repro.errors import JournalError
    from repro.netlist import write_verilog

    impl = _load_netlist(args.impl)
    spec = _load_netlist(args.spec)

    if args.resume and args.engine != "syseco":
        raise JournalError(
            "--resume is only supported by the syseco engine")

    if args.engine == "syseco":
        engine = SysEco(EcoConfig(
            num_samples=args.samples,
            max_points=args.max_points,
            level_aware=args.level_aware,
            resynthesis=args.resynthesis,
            incremental_validate=args.incremental_validate,
            jobs=args.jobs,
            seed=args.seed,
            deadline_s=args.deadline,
            total_sat_budget=args.total_sat_budget,
            total_bdd_nodes=args.total_bdd_nodes,
            degrade_on_budget=args.degrade_on_budget,
            resume_from=args.resume,
            sync_debug=args.sync_debug,
        ))
    else:
        engine = DeltaSyn() if args.engine == "deltasyn" else ConeMap()

    # journal every recorded syseco run: the checkpoint WAL is what
    # makes a killed or interrupted run resumable (--resume RUN_ID)
    journal = None
    run_id = None
    if args.engine == "syseco" and (args.resume or args.store_runs):
        from repro.eco.checkpoint import RunJournal, resolve_store_root
        from repro.obs.store import new_run_id
        from repro.runtime.clock import now as _clock_now
        store_root = resolve_store_root(args.store)
        if args.resume:
            journal = RunJournal(args.resume, store_root=store_root,
                                 resume=True)
            if not journal.resuming:
                raise JournalError(
                    f"no resumable journal for run {args.resume!r} "
                    f"(store: {store_root}); see 'repro runs recover'")
            run_id = args.resume
        else:
            run_id = new_run_id(_clock_now())
            journal = RunJournal(run_id, store_root=store_root)

    serve_port = getattr(args, "serve_metrics", None)
    want_export = bool(args.trace or args.metrics
                       or serve_port is not None)
    trace = None
    if want_export and args.engine != "syseco":
        print(f"warning: --trace/--metrics/--serve-metrics is only "
              f"supported by the syseco engine, not {args.engine}; "
              f"skipping", file=sys.stderr)
        serve_port = None
    elif (want_export or args.store_runs) and args.engine == "syseco":
        # traced whenever the run is being recorded, so the run store
        # gets the phase summary and the obs.sample timeline; the
        # metrics registry rides on the trace, collecting latency
        # histograms for the run record and the live endpoint
        from repro.obs import MetricsRegistry, Trace
        trace = Trace(name=impl.name, metrics=MetricsRegistry())

    server = None
    if serve_port is not None and trace is not None:
        from repro.obs import maybe_serve
        server = maybe_serve(
            trace.metrics, serve_port, trace=trace,
            health_provider=lambda: {"run_id": run_id,
                                     "engine": args.engine})
        if server is not None:
            print(f"serving metrics on {server.url} "
                  f"(/metrics, /healthz)", file=sys.stderr)

    from repro.runtime.clock import now as _now
    from repro.runtime.profile import profiled
    started_s = _now()
    try:
        with profiled(args.profile):
            if trace is not None or journal is not None:
                result = engine.rectify(impl, spec, trace=trace,
                                        journal=journal)
            else:
                result = engine.rectify(impl, spec)
    except KeyboardInterrupt:
        print("\ninterrupted (SIGINT)", file=sys.stderr)
        if args.store_runs and run_id is not None:
            _publish_interrupted(args, impl, run_id, started_s)
        if server is not None:
            server.stop()
        return 130
    if server is not None:
        server.stop()
    if args.profile:
        print(f"wrote {args.profile} (cProfile stats)")
    from repro.eco.report import format_patch_report
    print(format_patch_report(result, impl=impl,
                              title=f"ECO with {args.engine}"))

    verdict = check_equivalence(result.patched, spec)
    print(f"verified: {verdict.equivalent}")
    if args.store_runs:
        _publish_run(args, engine, impl, result, verdict, trace,
                     run_id=run_id)
    if trace is not None:
        _export_trace(args, trace)
    if args.counters_json:
        _dump_counters(args.counters_json, args, result, verdict)
    if args.output:
        _save_netlist(result.patched, args.output)
        print(f"wrote {args.output}")
    if args.verilog:
        write_verilog(result.patched, args.verilog)
        print(f"wrote {args.verilog}")
    if args.patch_out:
        patch_circuit, port_map = result.patch.extract_circuit(
            result.patched)
        _save_netlist(patch_circuit, args.patch_out)
        print(f"wrote {args.patch_out} "
              f"({len(port_map)} rectification point(s))")
        for port, pin in sorted(port_map.items()):
            print(f"  {port} -> {pin!r}")
    return 0 if verdict.equivalent is True else 1


def _publish_run(args: argparse.Namespace, engine, impl, result,
                 verdict, trace, run_id=None) -> None:
    """Record the run in the persistent store (``repro runs ...``)."""
    from repro.obs import RunStore, record_from_result

    if verdict.equivalent is not True:
        outcome = "failed"
    else:
        outcome = "degraded" if result.degraded else "ok"
    tags = {"engine": args.engine}
    if getattr(args, "resume", None):
        # a resumed completion gets a fresh record id (the interrupted
        # record may already carry the journal's) but stays linked to
        # the journal it replayed
        tags.update(resumed=True, journal=args.resume)
        run_id = None
    record = record_from_result(
        result, trace=trace, kind="eco", name=impl.name,
        config=getattr(engine, "config", None), outcome=outcome,
        tags=tags, run_id=run_id)
    try:
        store = RunStore(args.store)
        store.publish(record)
        print(f"recorded run {record.run_id} (store: {store.root})")
    except OSError as exc:
        print(f"warning: could not record run: {exc}", file=sys.stderr)


def _publish_interrupted(args: argparse.Namespace, impl, run_id: str,
                         started_s: float) -> None:
    """Persist an ``interrupted`` record so the run shows up in
    ``repro runs list`` / ``recover`` and can be resumed."""
    from repro.obs import RunStore
    from repro.obs.store import RunRecord, current_git_sha
    from repro.runtime.clock import now

    record = RunRecord(
        run_id=run_id, kind="eco", name=impl.name,
        started_at=round(started_s, 3),
        wall_seconds=round(now() - started_s, 6),
        outcome="interrupted",
        git_sha=current_git_sha(),
        tags={"engine": args.engine, "resumable": True},
    )
    try:
        store = RunStore(args.store)
        store.publish(record)
        print(f"recorded interrupted run {run_id} (store: {store.root})",
              file=sys.stderr)
    except OSError as exc:
        print(f"warning: could not record interrupted run: {exc}",
              file=sys.stderr)
    print(f"resume with: repro eco --resume {run_id} "
          f"--impl {args.impl} --spec {args.spec}", file=sys.stderr)


def _export_trace(args: argparse.Namespace, trace) -> None:
    from repro.obs import write_chrome, write_jsonl, write_prometheus

    if args.trace:
        if args.trace_format == "chrome":
            write_chrome(trace, args.trace)
        else:
            write_jsonl(trace, args.trace)
        print(f"wrote {args.trace} ({args.trace_format} trace, "
              f"{len(trace.spans)} spans)")
    if args.metrics:
        write_prometheus(trace, args.metrics)
        print(f"wrote {args.metrics} (metrics snapshot)")


def _dump_counters(path: str, args: argparse.Namespace, result,
                   verdict) -> None:
    stats = result.stats()
    payload = {
        "engine": args.engine,
        "design": args.impl,
        "counters": result.counters.as_dict(),
        "degraded": result.degraded,
        "degrade_reason": result.degrade_reason,
        "per_output": dict(sorted(result.per_output.items())),
        "runtime_seconds": result.runtime_seconds,
        "patch": {"inputs": stats.inputs, "outputs": stats.outputs,
                  "gates": stats.gates, "nets": stats.nets},
        "verified": verdict.equivalent,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} (run counters)")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import format_summary, read_trace, summarize

    summary = summarize(read_trace(args.file))
    print(format_summary(summary, hot=args.hot))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.eco.analysis import diagnose, format_diagnosis

    impl = _load_netlist(args.impl)
    spec = _load_netlist(args.spec)
    diagnosis = diagnose(impl, spec, rounds=args.rounds)
    print(format_diagnosis(diagnosis))
    if args.suggest:
        config = diagnosis.suggest_config()
        print("\nsuggested engine settings:")
        print(f"  --samples {config.num_samples}")
        if config.exact_domain_max_inputs:
            print(f"  exact domain (support <= "
                  f"{config.exact_domain_max_inputs} inputs)")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.bench import (
        format_table1, format_table2, format_table3,
        run_table1, run_table2, run_table3,
    )

    ids = None
    if args.cases:
        ids = [int(x) for x in args.cases.split(",")]
    wanted = args.table or "123"
    if "1" in wanted:
        print(format_table1(run_table1(ids)))
        print()
    if "2" in wanted:
        print(format_table2(run_table2(ids)))
        print()
    if "3" in wanted:
        timing_ids = None
        if ids:
            timing_ids = [i for i in ids if 12 <= i <= 15] or None
        print(format_table3(run_table3(timing_ids)))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="syseco reproduction: rewire-based ECO rectification "
                    "via symbolic sampling (DAC 2019)")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v: INFO, -vv: DEBUG); logs go "
             "to stderr")
    parser.add_argument(
        "--log-level", metavar="LEVEL", default=None,
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        help="explicit log level (overrides -v)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="netlist statistics and timing")
    p.add_argument("netlist", help="BLIF file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("cec", help="combinational equivalence check")
    p.add_argument("left", help="BLIF file")
    p.add_argument("right", help="BLIF file")
    p.add_argument("--budget", type=int, default=None,
                   help="SAT conflict budget, total over all outputs")
    p.set_defaults(func=_cmd_cec)

    p = sub.add_parser("synth", help="run an optimization script")
    p.add_argument("netlist", help="input BLIF file")
    p.add_argument("-o", "--output", required=True, help="output BLIF")
    p.add_argument("--script", choices=["heavy", "light"],
                   default="light")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--verilog", help="also write structural Verilog")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eco", help="rectify an implementation")
    p.add_argument("--impl", required=True,
                   help="current implementation C (BLIF)")
    p.add_argument("--spec", required=True,
                   help="revised specification C' (BLIF)")
    p.add_argument("-o", "--output", help="patched netlist (BLIF)")
    p.add_argument("--verilog", help="patched netlist (Verilog)")
    p.add_argument("--patch-out",
                   help="write the patch itself as a standalone netlist")
    p.add_argument("--engine",
                   choices=["syseco", "deltasyn", "conemap"],
                   default="syseco")
    p.add_argument("--samples", type=int, default=16,
                   help="sampling-domain size N")
    p.add_argument("--max-points", type=int, default=2,
                   help="largest rectification point-set size m")
    p.add_argument("--level-aware", action="store_true",
                   help="level-driven rewire selection (Table 3 mode)")
    p.add_argument("--resynthesis", action="store_true",
                   help="run the rectification-logic resynthesis pass")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the per-output search "
                        "phase (default: 1 = sequential)")
    p.add_argument("--no-incremental-validate",
                   dest="incremental_validate", action="store_false",
                   default=True,
                   help="validate candidates with the legacy "
                        "copy-and-re-encode oracle instead of the "
                        "incremental assumption-based miter")
    p.add_argument("--profile", metavar="FILE",
                   help="profile the run with cProfile and write "
                        "sorted stats to FILE")
    p.add_argument("--seed", type=int, default=2019)
    p.add_argument("--deadline", type=float, default=None, dest="deadline",
                   metavar="SECONDS",
                   help="wall-clock deadline of the run; on expiry the "
                        "partial patch is kept and remaining outputs are "
                        "force-completed via the guaranteed fallback")
    p.add_argument("--total-sat-budget", type=int, default=None,
                   metavar="CONFLICTS",
                   help="aggregate SAT conflict budget across the run")
    p.add_argument("--total-bdd-nodes", type=int, default=None,
                   metavar="NODES",
                   help="aggregate BDD node budget across the run")
    strictness = p.add_mutually_exclusive_group()
    strictness.add_argument(
        "--degrade-on-budget", dest="degrade_on_budget",
        action="store_true", default=True,
        help="degrade gracefully when a run budget is exhausted "
             "(default)")
    strictness.add_argument(
        "--strict", dest="degrade_on_budget", action="store_false",
        help="raise instead of degrading on budget exhaustion")
    p.add_argument("--trace", metavar="FILE",
                   help="record a hierarchical span trace of the run "
                        "(syseco engine only)")
    p.add_argument("--trace-format", choices=["jsonl", "chrome"],
                   default="jsonl",
                   help="trace file format: jsonl events or Chrome "
                        "trace-event JSON for Perfetto/chrome://tracing "
                        "(default: jsonl)")
    p.add_argument("--metrics", metavar="FILE",
                   help="write a Prometheus-style text metrics snapshot "
                        "of the run")
    p.add_argument("--serve-metrics", metavar="PORT", type=int,
                   nargs="?", const=0, default=None,
                   help="serve /metrics (Prometheus text) and /healthz "
                        "on 127.0.0.1:PORT for the duration of the run "
                        "(PORT omitted: an ephemeral port, printed to "
                        "stderr); point 'repro watch --url' at it")
    p.add_argument("--sync-debug", action="store_true", default=False,
                   help="enable the runtime lock-order/deadlock "
                        "detector for this run: order inversions are "
                        "logged with both acquisition stacks and "
                        "per-lock wait times land in the "
                        "repro_sync_lock_wait_seconds histogram "
                        "(also: REPRO_SYNC_DEBUG=1)")
    p.add_argument("--counters-json", metavar="FILE",
                   help="dump run counters, degradation state and "
                        "per-output status as JSON")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="run-store directory receiving this run's "
                        "record (default: $REPRO_RUN_STORE or "
                        ".repro/runs)")
    p.add_argument("--no-store", dest="store_runs",
                   action="store_false", default=True,
                   help="do not record this run in the run store")
    p.add_argument("--resume", metavar="RUN_ID", default=None,
                   help="resume a killed or interrupted run from its "
                        "checkpoint journal: committed patches are "
                        "replayed and the search continues with the "
                        "remaining outputs ('repro runs recover' lists "
                        "resumable runs)")
    p.set_defaults(func=_cmd_eco)

    p = sub.add_parser(
        "trace",
        help="summarize a trace file written by eco --trace")
    p.add_argument("file", help="trace file (jsonl or chrome format)")
    p.add_argument("--hot", type=int, default=5, metavar="N",
                   help="number of hottest outputs to list (default: 5)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("diagnose",
                       help="characterize an ECO instance before running")
    p.add_argument("--impl", required=True,
                   help="current implementation C (BLIF)")
    p.add_argument("--spec", required=True,
                   help="revised specification C' (BLIF)")
    p.add_argument("--rounds", type=int, default=16,
                   help="simulation rounds for error-rate estimates")
    p.add_argument("--suggest", action="store_true",
                   help="print suggested engine settings")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser(
        "runs",
        help="inspect the persistent run store: list, show, diff, "
             "regression-check, recover")
    from repro.obs.runs_cli import add_runs_arguments, run_runs
    add_runs_arguments(p)
    p.set_defaults(func=run_runs)

    p = sub.add_parser(
        "watch",
        help="TTY dashboard: render a recorded run, or tail a live "
             "'repro eco --serve-metrics' endpoint with --url")
    from repro.obs.watch_cli import add_watch_arguments, run_watch
    add_watch_arguments(p)
    p.set_defaults(func=run_watch)

    p = sub.add_parser(
        "lint",
        help="static diagnostics for netlists, patches and the repo's "
             "own invariants")
    from repro.lint.cli import add_lint_arguments
    add_lint_arguments(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("tables", help="regenerate the paper's tables")
    p.add_argument("--table", help="subset, e.g. '1' or '13'")
    p.add_argument("--cases", help="comma-separated case ids")
    p.set_defaults(func=_cmd_tables)

    return parser


def _configure_logging(args: argparse.Namespace) -> None:
    if args.log_level:
        level = getattr(logging, args.log_level)
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # commands with resumable state handle SIGINT themselves; this
        # is the generic fallback with the conventional 128+SIGINT code
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
