#!/usr/bin/env python3
"""Compare the benchmark's per-layer ledger with the program's own trace.

Runs one Table-1 case through ``repro.bench.runner.traced_case_run``
(the program's traced path) with the benchmark's ledger installed, then
prints both views of the same call: the ledger's span table and the
program's phase tree. ``cec.verify_s`` should match the program's
``cec.verify_final`` span, and ``cec.diagnose_s`` its ``eco.diagnose``
span, within run-to-run noise. Run from the repository root::

    python3 perfbench/crosscheck.py --case 3 --seed 2019
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _phase_seconds(summary, name: str) -> float:
    total = 0.0
    stack = list(summary.roots)
    while stack:
        node = stack.pop()
        if node.name == name:
            total += node.seconds
        stack.extend(node.children)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2019)
    args = parser.parse_args(argv)

    from ledger import Ledger
    from repro.bench.runner import traced_case_run
    from repro.eco import EcoConfig
    from repro.obs.summary import format_summary
    from repro.workloads.suite import build_case

    case = build_case(args.case)
    ledger = Ledger()
    with ledger:
        started = time.perf_counter()
        result, _record = traced_case_run(case, EcoConfig(seed=args.seed))
        wall = time.perf_counter() - started
    inclusive, _ = ledger.span_times()
    summary = result.trace_summary()

    print(f"case {args.case}, seed {args.seed}: benchmark ledger")
    print("\n".join(ledger.table(wall)))
    print()
    print(format_summary(summary))
    print()
    print(f"{'ledger metric':22s} {'seconds':>9s}   program span")
    for metric, span, phase in (("cec.verify_s", "cec.verify",
                                 "cec.verify_final"),
                                ("cec.diagnose_s", "cec.diagnose",
                                 "eco.diagnose")):
        print(f"{metric:22s} {inclusive.get(span, 0.0):9.3f}   "
              f"{phase} {_phase_seconds(summary, phase):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
