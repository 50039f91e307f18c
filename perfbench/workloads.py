"""The benchmark's four workloads and the calls each one makes.

Every input comes from ``repro.workloads`` (the Table-1 cases); the
benchmark seed only sets ``EcoConfig.seed`` (or ``--seed`` on the CLI).
A call is prepared outside its timed window: in-memory calls get fresh
copies of the circuits, so no call inherits another call's compiled
plans, and each CLI call starts from an empty run store.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro import cli
from repro.eco import EcoConfig, SysEco
from repro.eco.patch import RectificationResult
from repro.netlist import write_blif
from repro.netlist.circuit import Circuit
from repro.workloads import build_suite

NAMES = ("large", "search", "cli", "deadline")

LARGE_CASES = (1, 3)
SEARCH_CASES = (2, 4, 5, 7, 8, 9, 10, 11)
SEARCH_SEEDS = 3
DEADLINE_S = 0.2

#: the smaller versions the determinism self-test runs
REDUCED = {
    "large": ((1,), 1),
    "search": ((2, 7), 1),
    "cli": ((2, 7), 1),
    "deadline": ((1,), 1),
}


@dataclass
class Outcome:
    """What one call returned."""

    result: Optional[RectificationResult]
    #: the program's own verdict: verified result / CLI exit code 0
    verified: bool
    #: the Trace the program built for the run (CLI runs only)
    trace: object = None


@dataclass
class Call:
    """One timed call of a workload."""

    label: str
    spec: Circuit
    #: returns a zero-argument function that makes the call
    prepare: Callable[[], Callable[[], Outcome]]
    #: gates of the in-memory circuits the call's BLIF inputs were
    #: written from (0 for in-memory calls)
    blif_gates: int = 0


def _cases_and_seeds(workload: str,
                     reduced: bool) -> Tuple[Tuple[int, ...], int]:
    if reduced:
        return REDUCED[workload]
    if workload in ("large", "deadline"):
        return LARGE_CASES, 1
    return SEARCH_CASES, SEARCH_SEEDS


def build(workload: str, seed: int, work_dir: str,
          reduced: bool = False) -> List[Call]:
    """Set up one workload: build its circuits (and, for ``cli``, write
    them to BLIF under ``work_dir``) and return its calls in order."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    case_ids, n_seeds = _cases_and_seeds(workload, reduced)
    cases = build_suite(case_ids)
    seeds = [seed + k for k in range(n_seeds)]
    if workload == "cli":
        return _cli_calls(cases, seeds, work_dir)
    deadline = DEADLINE_S if workload == "deadline" else None
    calls = []
    for s in seeds:
        for case in cases:
            config = EcoConfig(seed=s, deadline_s=deadline)
            calls.append(Call(f"case{case.case_id}@{s}", case.spec,
                              _in_memory(case.impl, case.spec, config)))
    return calls


def _in_memory(impl: Circuit, spec: Circuit,
               config: EcoConfig) -> Callable[[], Callable[[], Outcome]]:
    def prepare() -> Callable[[], Outcome]:
        engine = SysEco(config)
        impl_copy, spec_copy = impl.copy(), spec.copy()

        def call() -> Outcome:
            result = engine.rectify(impl_copy, spec_copy)
            verified = len(result.verified_outputs) == len(spec.outputs)
            return Outcome(result, verified)
        return call
    return prepare


def _cli_calls(cases, seeds: List[int], work_dir: str) -> List[Call]:
    netlists = os.path.join(work_dir, "netlists")
    store = os.path.join(work_dir, "store")
    os.makedirs(netlists, exist_ok=True)
    os.environ["REPRO_RUN_STORE"] = store
    for case in cases:
        for role, circuit in (("impl", case.impl), ("spec", case.spec)):
            write_blif(circuit, os.path.join(
                netlists, f"case{case.case_id}_{role}.blif"))
    calls = []
    for s in seeds:
        for case in cases:
            argv = ["eco"]
            for role in ("impl", "spec"):
                argv += [f"--{role}", os.path.join(
                    netlists, f"case{case.case_id}_{role}.blif")]
            argv += ["--seed", str(s)]
            calls.append(Call(
                f"cli-case{case.case_id}@{s}", case.spec, _cli(argv, store),
                blif_gates=len(case.impl.gates) + len(case.spec.gates)))
    return calls


def _cli(argv: List[str],
         store: str) -> Callable[[], Callable[[], Outcome]]:
    def prepare() -> Callable[[], Outcome]:
        shutil.rmtree(store, ignore_errors=True)

        def call() -> Outcome:
            captured: List[Tuple[RectificationResult, object]] = []
            original = SysEco.rectify

            def capture(engine, impl, spec, **kwargs):
                result = original(engine, impl, spec, **kwargs)
                captured.append((result, kwargs.get("trace")))
                return result

            SysEco.rectify = capture
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            finally:
                SysEco.rectify = original
            result, trace = captured[-1] if captured else (None, None)
            return Outcome(result, code == 0, trace)
        return call
    return prepare
