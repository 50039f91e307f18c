#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Runs every workload at reduced size, untraced and traced: twice under
one ``PYTHONHASHSEED`` and once under another. It fails unless

* every metric the benchmark declares is present in each run,
* no call failed,
* the patch size and every work count (per-layer counts, and ratios of
  counts) repeat exactly between the two runs under one hash seed, and
* the patch size, fallback and degraded counts are also the same under
  the other hash seed.

Work counts that differ under the other hash seed are listed, not
failed: the unsupervised SAT solves of diagnosis and verification
depend on set iteration order, so their conflict, decision and
propagation counts do.

Times are not compared; they vary from run to run. Run from the
repository root (about four minutes on a 2-core machine)::

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from run import END_TO_END, PER_LAYER, _unit  # noqa: E402
from workloads import NAMES  # noqa: E402

#: metrics that must repeat exactly: patch sizes, work counts and
#: ratios of counts (times, memory and the trace overhead vary)
EXACT = ({n for n, unit in END_TO_END.items() if unit == "count"}
         | {n for n in PER_LAYER if _unit(n) in ("count", "ratio")}
         - {"trace_overhead_frac"})
#: what the call returns; must not depend on PYTHONHASHSEED either
PATCH = {"patch_gates", "patch_nets", "run.fallback_outputs",
         "run.degraded_frac"}


def _run(workload: str, trace: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit "
                             f"{done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload: str) -> None:
    for trace, names in ((0, list(END_TO_END)), (1, PER_LAYER)):
        first, again, other = (_run(workload, trace, h)
                               for h in ("0", "0", "1"))
        for res in (first, again, other):
            missing = set(names) - set(res["metrics"])
            assert not missing, f"{workload}: missing {sorted(missing)}"
            assert res["correct"] and res["failed"] == 0, \
                f"{workload} trace {trace}: {res['failed']} call(s) failed"
        exact = [n for n in names if n in EXACT]
        for name in exact:
            a, b = (r["metrics"][name]["value"] for r in (first, again))
            assert a == b, f"{workload} trace {trace}: {name} {a} != {b}"
        for name in (n for n in names if n in PATCH):
            a, b = (r["metrics"][name]["value"] for r in (first, other))
            assert a == b, (f"{workload} trace {trace}: {name} {a} != {b} "
                            f"under another PYTHONHASHSEED")
        drift = [n for n in exact if first["metrics"][n]["value"]
                 != other["metrics"][n]["value"]]
        print(f"ok  {workload:9s} trace {trace}: {len(exact)} exact "
              f"metric(s) repeat")
        if drift:
            print(f"    varies with PYTHONHASHSEED: {', '.join(drift)}")


def main() -> int:
    for workload in NAMES:
        check(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
