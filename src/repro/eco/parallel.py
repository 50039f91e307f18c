"""Parallel per-output rectification search (``EcoConfig.jobs``).

With ``jobs > 1`` the non-equivalent outputs are partitioned into
groups and each group is searched by a separate worker process running
the same :meth:`SysEco._repair_outputs` loop the sequential engine
uses.  Every worker gets

* a pickled snapshot of the work-in-progress circuit and the spec
  (derived caches are stripped on pickling and rebuilt lazily),
* the **full** failing list — validation must know every currently
  failing output, or candidates that also touch another group's
  failing outputs would be wrongly rejected as damaging a "passing"
  output — plus its own ``targets`` subset to drive,
* a share of the run budget: SAT conflicts and BDD nodes are divided
  ``remaining // (jobs + 1)`` (one share held back for the main
  process), wall-clock deadline is concurrent and passed whole.

Workers return their commit logs, counters, and trace records.  The
main process absorbs the telemetry into the run supervisor and
*replays* each commit against its own evolving circuit under the
supervised validator — two workers can commit patches that conflict
(e.g. both rewire the same shared gate), so a worker's verdict is
never trusted across process boundaries.  Commits that fail replay are
dropped; their outputs simply stay failing and the sequential loop
that follows the parallel phase repairs them with the reserve budget.

The pool is *supervised*: each partition runs in its own single-worker
executor so a dying process is attributable to exactly one partition.
A death (broken pool, nonzero exit, missed heartbeat deadline derived
from the run budget) is recorded as a ``worker.died`` event and the
partition is re-dispatched after an exponential backoff
(:class:`~repro.runtime.retry.RetryPolicy`, ``task.retried``); a
partition that kills its worker more times than the policy allows is
*quarantined* — its outputs skip the search and complete via the
fallback, and the run is reported degraded (``output.quarantined``).
The :data:`~repro.runtime.faultinject.SITE_WORKER` fault site is
observed in the main process at every dispatch, so the chaos harness
can kill any Nth task deterministically.

``REPRO_ECO_JOBS_INLINE=1`` forces workers to run in-process (same
code path minus the pool, including injected deaths and retries),
which keeps multi-worker merge behavior deterministic for tests.
"""

from __future__ import annotations

import logging
import os
import pickle
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ResourceBudgetExceeded, WorkerDiedError
from repro.netlist.circuit import Circuit
from repro.obs.live import LiveAggregator, LiveBus, WorkerPublisher
from repro.obs.trace import Trace
from repro.runtime.faultinject import FAULT_KILL, SITE_WORKER
from repro.runtime.retry import RetryPolicy
from repro.runtime.supervisor import RunSupervisor

logger = logging.getLogger("repro.eco")

#: seconds past the run deadline before a silent worker is declared dead
HEARTBEAT_GRACE_S = 5.0


class _PoolUnavailable(Exception):
    """Process pools cannot run here; fall back to sequential search."""


@dataclass
class WorkerResult:
    """Everything a search worker ships back to the main process."""

    targets: Tuple[str, ...]
    #: ``(port, how, ops)`` per commit, in commit order
    commits: List[Tuple[str, str, list]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    records: List[dict] = field(default_factory=list)
    degraded: bool = False
    degrade_reason: Optional[str] = None
    #: budget exception message when the worker aborted in strict mode
    error: Optional[str] = None


def _run_worker(payload) -> WorkerResult:
    """One worker: repair ``targets`` on a private copy of the run.

    Module-level so it pickles for :class:`ProcessPoolExecutor`; also
    called directly in inline mode.  ``payload`` is the 5-tuple built
    by :func:`parallel_repair` plus the dispatch extras appended by
    :func:`_run_partitions`: the kill verdict, the live-bus queue (or
    ``None``) and the worker id.
    """
    import random

    from repro.eco.engine import SysEco
    from repro.eco.patch import Patch

    work, spec, config, failing, targets = payload[:5]
    kill = len(payload) > 5 and bool(payload[5])
    bus_queue = payload[6] if len(payload) > 6 else None
    worker_id = (payload[7] if len(payload) > 7
                 else ",".join(targets))
    engine = SysEco(config)
    trace = Trace(name=f"worker:{worker_id}")
    run = RunSupervisor.from_config(config, trace=trace)
    trace.set_counters(run.counters)
    publisher = None
    if bus_queue is not None:
        publisher = WorkerPublisher(bus_queue, worker_id,
                                    counters=run.counters)
        trace.listener = publisher
        publisher.heartbeat(force=True)
    rng = random.Random(config.seed)
    patch = Patch()
    per_output: Dict[str, str] = {}
    result = WorkerResult(targets=tuple(targets))
    if kill:
        # the dispatcher observed an armed SITE_WORKER fault for this
        # task: open the worker span and stream it (so the chaos tests
        # can assert that *pre-death* telemetry survives), then die the
        # way a real crashed worker would.  Inline mode has no process
        # to kill, so it raises the unified death signal the supervisor
        # maps real deaths onto.
        trace.span("eco.worker", targets=",".join(targets),
                   failing=len(failing))
        if publisher is not None:
            publisher.heartbeat(force=True)
        if os.environ.get("REPRO_ECO_JOBS_INLINE") == "1":
            raise WorkerDiedError(
                f"fault injection: worker for {','.join(targets)} killed")
        os._exit(3)
    try:
        with trace.span("eco.worker", targets=",".join(targets),
                        failing=len(failing)):
            engine._repair_outputs(work, spec, list(failing), patch,
                                   per_output, rng, run,
                                   targets=set(targets),
                                   commit_log=result.commits)
    except ResourceBudgetExceeded as exc:
        # strict mode: ship telemetry and partial commits back, the
        # main process re-raises after absorbing them
        result.error = str(exc)
    result.counters = run.counters.as_dict()
    result.records = trace.records()
    result.degraded = run.degraded
    result.degrade_reason = run.degrade_reason
    if publisher is not None:
        publisher.close()
    return result


def partition_targets(failing: Sequence[str],
                      jobs: int) -> List[List[str]]:
    """Deal the failing outputs round-robin into ``jobs`` groups.

    ``failing`` arrives cone-size ordered (small first), so the deal
    balances expected work; empty groups are dropped.
    """
    groups: List[List[str]] = [[] for _ in range(jobs)]
    for i, port in enumerate(failing):
        groups[i % jobs].append(port)
    return [g for g in groups if g]


def _ops_applicable(work: Circuit, spec: Circuit, ops) -> bool:
    """All pins and sources of the ops exist in the replay circuits.

    A commit whose sources were cloned by an *earlier* worker commit
    that failed replay references nets the main circuit never grew;
    such commits cannot be replayed and are dropped.
    """
    for op in ops:
        if op.from_spec:
            if not (spec.has_net(op.source_net)
                    or op.source_net in spec.inputs):
                return False
        elif not work.has_net(op.source_net):
            return False
        if op.pin.is_output_port:
            if op.pin.owner not in work.outputs:
                return False
        elif op.pin.owner not in work.gates:
            return False
    return True


def _heartbeat_timeout(run: RunSupervisor) -> Optional[float]:
    """Per-task deadline for a worker's result, from the run budget.

    A worker that has not answered by the run deadline plus a small
    grace is presumed dead (hung child, lost pipe); ``None`` when the
    run has no deadline — the pool then waits, like the engine would.
    """
    left = run.budget.time_left()
    if left is None:
        return None
    return max(0.0, left) + HEARTBEAT_GRACE_S


def _dispatch_pool(payloads: List[tuple], pending: List[int],
                   extras: Dict[int, tuple], run: RunSupervisor,
                   ) -> Tuple[Dict[int, WorkerResult], Dict[int, str]]:
    """Run one round of partitions in real processes.

    One single-worker executor per partition, so one worker's death
    breaks only its own future — innocent partitions keep their
    results.  ``extras[i]`` is the per-dispatch payload tail (kill
    verdict, live-bus queue, worker id).  Returns ``(outcomes,
    deaths)`` keyed by partition index; a partition appears in exactly
    one of the two.
    """
    import concurrent.futures as cf
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.runtime.sync import safe_mp_context

    outcomes: Dict[int, WorkerResult] = {}
    deaths: Dict[int, str] = {}
    executors: Dict[int, ProcessPoolExecutor] = {}
    futures: Dict[int, cf.Future] = {}
    try:
        try:
            # an explicit start method: with the live-aggregator pump
            # thread running, fork would snapshot held locks into the
            # children (CC005); safe_mp_context keeps fork only while
            # the process is single-threaded
            mp_context = safe_mp_context()
            for i in pending:
                executors[i] = ProcessPoolExecutor(
                    max_workers=1, mp_context=mp_context)
                futures[i] = executors[i].submit(
                    _run_worker, payloads[i] + extras[i])
        except (OSError, ImportError) as exc:
            raise _PoolUnavailable(str(exc)) from exc
        for i in pending:
            try:
                outcomes[i] = futures[i].result(
                    timeout=_heartbeat_timeout(run))
            except BrokenProcessPool as exc:
                deaths[i] = f"worker process died: {exc or 'broken pool'}"
            except WorkerDiedError as exc:
                deaths[i] = str(exc)
            except cf.TimeoutError:
                futures[i].cancel()
                deaths[i] = "heartbeat deadline missed"
            except pickle.PicklingError as exc:
                raise _PoolUnavailable(str(exc)) from exc
            except OSError as exc:
                deaths[i] = f"worker I/O failure: {exc}"
    finally:
        for ex in executors.values():
            ex.shutdown(wait=False, cancel_futures=True)
    return outcomes, deaths


def _worker_id(targets: Sequence[str], attempt: int) -> str:
    return f"{','.join(targets)}@{attempt}"


def _run_partitions(payloads: List[tuple], run: RunSupervisor,
                    policy: RetryPolicy, inline: bool,
                    bus: Optional[LiveBus] = None,
                    aggregator: Optional[LiveAggregator] = None,
                    ) -> List[Optional[WorkerResult]]:
    """Supervised execution of every partition, with retry/quarantine.

    Returns one :class:`WorkerResult` per payload, or ``None`` at the
    indices whose partition was quarantined.  Raises
    :class:`_PoolUnavailable` when process pools cannot run at all.

    With a live ``bus``/``aggregator``, every dispatch streams its
    telemetry under a unique worker id; on a death the aggregator's
    buffered partial spans are grafted into the main trace and the last
    streamed counter snapshot is charged via
    :meth:`RunSupervisor.absorb_worker` — so quarantined partitions
    leave their pre-death telemetry in the run record.  Workers that
    return normally have their live buffer discarded (the shipped
    records absorbed by the caller are authoritative).
    """
    n = len(payloads)
    results: List[Optional[WorkerResult]] = [None] * n
    failures = [0] * n
    pending = list(range(n))
    bus_queue = bus.queue if bus is not None else None
    while pending:
        # observe the fault site at dispatch time, in the main process
        # (the injector's counters cannot cross a process boundary);
        # the verdict rides into the worker payload
        extras: Dict[int, tuple] = {}
        worker_ids: Dict[int, str] = {}
        for i in pending:
            fault = run.injector.observe(SITE_WORKER)
            marked = fault is not None and fault.payload == FAULT_KILL
            worker_ids[i] = _worker_id(payloads[i][4], failures[i] + 1)
            extras[i] = (marked, bus_queue, worker_ids[i])
        deaths: Dict[int, str] = {}
        if inline:
            outcomes: Dict[int, WorkerResult] = {}
            for i in pending:
                try:
                    outcomes[i] = _run_worker(payloads[i] + extras[i])
                except WorkerDiedError as exc:
                    deaths[i] = str(exc)
        else:
            outcomes, deaths = _dispatch_pool(payloads, pending,
                                              extras, run)
        if aggregator is not None:
            aggregator.pump()
        retry: List[int] = []
        for i in pending:
            if i not in deaths:
                results[i] = outcomes[i]
                if aggregator is not None:
                    aggregator.discard(worker_ids[i])
                continue
            failures[i] += 1
            targets = payloads[i][4]
            run.counters.worker_deaths += 1
            run.trace.event("worker.died", targets=",".join(targets),
                            deaths=failures[i], cause=deaths[i])
            logger.warning("worker for %s died (%d): %s",
                           ",".join(targets), failures[i], deaths[i])
            if aggregator is not None:
                partial = aggregator.flush_dead(worker_ids[i])
                if partial:
                    run.absorb_worker(partial, degraded=False)
            reason = None
            if policy.allows(failures[i]):
                delay = policy.sleep_within_budget(failures[i],
                                                   run.budget)
                if delay is not None:
                    run.counters.tasks_retried += 1
                    run.trace.event("task.retried",
                                    targets=",".join(targets),
                                    attempt=failures[i],
                                    backoff_s=round(delay, 3))
                    retry.append(i)
                    continue
                reason = "retry refused: backoff would eat the deadline"
            else:
                reason = f"worker died {failures[i]} times"
            for port in targets:
                run.quarantine(port, reason)
        pending = retry
    return results


def _verify_worker(payload):
    """Prove one output group of the final verification miter."""
    from repro.cec.equivalence import check_equivalence

    work, spec, group = payload
    return check_equivalence(work, spec, outputs=group)


def parallel_verify(work: Circuit, spec: Circuit, jobs: int,
                    outputs: Sequence[str]):
    """Final verification of ``outputs``, fanned across output groups.

    The engine passes only the ports it must re-prove.  Unlike search
    commits, verification verdicts need no replay: each worker proves
    its own output pairs on the same frozen circuits, so the
    conjunction of the group results *is* the verdict over all of
    ``outputs``.  Returns the first failing group's result
    (counterexample included), ``EquivalenceResult(None)`` when any
    group went over budget, or ``EquivalenceResult(True)``.
    """
    from repro.cec.equivalence import EquivalenceResult, check_equivalence

    jobs = min(jobs, len(outputs))
    if jobs < 2:
        return check_equivalence(work, spec, outputs=outputs)
    groups = partition_targets(outputs, jobs)
    payloads = [(work, spec, group) for group in groups]
    if os.environ.get("REPRO_ECO_JOBS_INLINE") == "1":
        results = [_verify_worker(p) for p in payloads]
    else:
        try:
            from concurrent.futures import ProcessPoolExecutor

            from repro.runtime.sync import safe_mp_context
            with ProcessPoolExecutor(
                    max_workers=len(groups),
                    mp_context=safe_mp_context()) as pool:
                results = list(pool.map(_verify_worker, payloads))
        except (OSError, pickle.PicklingError, ImportError) as exc:
            logger.warning("parallel verification unavailable (%s); "
                           "verifying sequentially", exc)
            return check_equivalence(work, spec, outputs=outputs)
    unknown = False
    for result in results:
        if result.equivalent is False:
            return result
        if result.equivalent is None:
            unknown = True
    return EquivalenceResult(None if unknown else True)


def parallel_repair(engine, work: Circuit, spec: Circuit,
                    failing: List[str], patch, per_output: Dict[str, str],
                    run: RunSupervisor, journal=None, rng=None,
                    ) -> Tuple[Circuit, List[str]]:
    """Fan the failing outputs across supervised workers and merge.

    Returns the replayed work circuit and the outputs still failing
    (replay conflicts, worker misses and quarantined partitions fall
    through to the caller's sequential loop).  Raises
    :class:`ResourceBudgetExceeded` when a worker aborted in strict
    mode, after absorbing all telemetry.  Commits that survive replay
    are journaled when a checkpoint ``journal`` is given.
    """
    from repro.eco.validate import assert_patch_structure, validate_rewire

    config = engine.config
    jobs = min(config.jobs, len(failing))
    groups = partition_targets(failing, jobs)
    shares, _reserve = run.partition_shares(len(groups))
    payloads = []
    for group, share in zip(groups, shares):
        worker_config = replace(
            config, jobs=1, resume_from=None,
            deadline_s=share["deadline_s"],
            total_sat_budget=share["total_sat_budget"],
            total_bdd_nodes=share["total_bdd_nodes"])
        payloads.append((work, spec, worker_config, list(failing), group))
    policy = RetryPolicy(max_retries=config.worker_retries,
                         base_delay_s=config.retry_backoff_s,
                         seed=config.seed)

    inline = os.environ.get("REPRO_ECO_JOBS_INLINE") == "1"
    bus = aggregator = None
    if run.trace.enabled:
        bus = LiveBus.create(inline)
        if bus is not None:
            aggregator = LiveAggregator(
                run.trace, bus, registry=run.trace.metrics).start()
    try:
        supervised = _run_partitions(payloads, run, policy, inline,
                                     bus=bus, aggregator=aggregator)
    except _PoolUnavailable as exc:
        # no process pool available (restricted environments):
        # leave everything to the caller's sequential loop
        logger.warning("parallel search unavailable (%s); "
                       "falling back to sequential", exc)
        run.trace.event("eco.parallel_fallback", reason=str(exc))
        return work, failing
    finally:
        if aggregator is not None:
            aggregator.stop()
        if bus is not None:
            bus.close()
    results = [r for r in supervised if r is not None]

    strict_error: Optional[str] = None
    for result in results:
        run.absorb_worker(result.counters, degraded=result.degraded,
                          degrade_reason=result.degrade_reason)
        run.trace.absorb(result.records)
        if result.error is not None and strict_error is None:
            strict_error = result.error
    if strict_error is not None and not config.degrade_on_budget:
        raise ResourceBudgetExceeded(
            f"parallel worker aborted: {strict_error}")

    # replay every worker commit against the main circuit, re-validated
    # under the supervised solver: worker verdicts were computed against
    # a snapshot and may conflict with another group's commits
    failing_now = list(failing)
    replayed = rejected = 0
    for result in results:
        for port, how, ops in result.commits:
            run.checkpoint()
            if not _ops_applicable(work, spec, ops):
                rejected += 1
                run.trace.event("eco.replay_skip", output=port)
                continue
            outcome = validate_rewire(
                work, spec, ops, failing_now, patch.clone_map,
                sat_budget=config.sat_budget, target=port, run=run)
            if not outcome.valid:
                rejected += 1
                run.trace.event("eco.replay_reject", output=port,
                                ops=len(ops))
                continue
            if journal is not None:
                journal.record_commit(
                    port, how, ops, outcome.fixed,
                    rng_state=rng.getstate() if rng is not None else None,
                    sat_spent=run.budget.sat_spent,
                    bdd_spent=run.budget.bdd_spent)
            new_work = outcome.patched
            assert_patch_structure(new_work, ops)
            work = new_work
            patch.record(ops, outcome.clone_map, outcome.new_gates)
            for fixed_port in outcome.fixed:
                per_output[fixed_port] = (
                    how if fixed_port == port else "fixed-by-earlier")
            fixed = set(outcome.fixed)
            failing_now = [p for p in failing_now if p not in fixed]
            replayed += 1
    run.trace.event("eco.parallel_merged", workers=len(results),
                    replayed=replayed, rejected=rejected,
                    remaining=len(failing_now))
    logger.info("parallel phase: %d workers, %d commits replayed, "
                "%d rejected, %d outputs remaining",
                len(results), replayed, rejected, len(failing_now))
    return work, failing_now
