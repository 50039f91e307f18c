"""The syseco rectification engine: overall flow of Section 5.2.

``RewireRectification`` iterates over the non-equivalent output pairs
of the current implementation ``C`` and revised specification ``C'``
(smallest cones first) and, per output:

1. builds an error-biased symbolic sampling domain;
2. enumerates feasible rectification point-sets via ``H(t)``;
3. ranks candidate rewiring nets per point (structural filter +
   rectification utility);
4. walks rewiring choices cheapest first, keeping those where
   ``Xi(c)`` (Theorem 1) holds on the sampled codes;
5. validates each choice on the full domain with a resource-constrained
   SAT solver, favoring choices that fix the most outputs and rejecting
   any that damage an already-correct output.

A guaranteed fallback (rewiring the output port itself to a clone of
the revised function — the completeness argument of Section 3.3)
handles outputs the search cannot fix within budget.  Afterwards the
patch inputs are refined by sweeping against existing logic, and the
final verification re-proves the outputs that failed at diagnosis or
whose cone changed since (see :class:`DiagnosedOutputs`).

Every resource-bounded step runs under a per-run
:class:`~repro.runtime.supervisor.RunSupervisor`: a wall-clock deadline
and aggregate SAT/BDD budgets, adaptive per-call SAT escalation, and —
unless strict mode is configured — *graceful degradation*: when a
run-level budget blows mid-search, the partial patch is kept and every
remaining failing output is force-completed via the Section 3.3
fallback, yielding a fully verified but ``degraded`` result instead of
an exception.
"""

from __future__ import annotations

import logging
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    BddNodeLimitError,
    EcoError,
    JournalError,
    PatchStructureError,
    ReproError,
    ResourceBudgetExceeded,
)
from repro.bdd.manager import BddManager
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import WORD_MASK
from repro.netlist.hashing import structural_hash
from repro.netlist.simulate import patterns_to_words, simulate_words
from repro.netlist.traverse import (
    levelize,
    support_masks,
    topological_order,
    transitive_fanin,
)
from repro.cec.equivalence import (
    EquivalenceResult,
    check_equivalence,
    nonequivalent_outputs,
)
from repro.eco.choices import (
    enumerate_rewiring_choices,
    make_clone_aware_cost,
)
from repro.eco.config import EcoConfig
from repro.eco.incremental import IncrementalValidator
from repro.eco.patch import Patch, RectificationResult, RewireOp
from repro.eco.points import feasible_point_sets
from repro.eco.rewiring import RewireCandidate, RewiringContext
from repro.eco.samples import collect_error_samples
from repro.eco.sampling import SamplingDomain
from repro.eco.sweep import refine_patch_inputs
from repro.eco.validate import (
    SimulationFilter,
    ValidationOutcome,
    assert_patch_structure,
    validate_rewire,
)
from repro.obs.sampler import maybe_sampler
from repro.obs.trace import Trace, ensure_trace
from repro.runtime.clock import now
from repro.runtime.faultinject import FaultInjector
from repro.runtime.supervisor import RunSupervisor


logger = logging.getLogger("repro.eco")


class DiagnosedOutputs:
    """What diagnosis proved, kept so final verification can rely on it.

    Diagnosis SAT-proves every output it does not report failing
    equivalent to the spec.  Each output's structural key is recorded
    through an intern table that outlives the call, so keys of the
    final netlist compare with the diagnosed ones: an equal key means a
    structurally identical cone over the same inputs, hence the same
    function, and that output's diagnosis proof still holds.  Only the
    keys are kept, not a copy of the netlist.
    """

    def __init__(self, circuit: Circuit, failing: Sequence[str]):
        self._table: Dict[object, int] = {}
        keys = structural_hash(circuit, self._table)
        self._keys = {p: keys[n] for p, n in circuit.outputs.items()}
        self.failing = frozenset(failing)

    def to_reprove(self, circuit: Circuit,
                   outputs: Sequence[str]) -> List[str]:
        """The ports of ``outputs`` that failed at diagnosis or whose
        cone changed since; every other port is already proven."""
        keys = structural_hash(circuit, self._table)
        return [p for p in outputs
                if p in self.failing
                or self._keys[p] != keys[circuit.outputs[p]]]


class SysEco:
    """Rewire-based ECO rectification engine.

    One engine instance carries a configuration and can rectify many
    designs; all state of a run lives in its
    :class:`~repro.runtime.supervisor.RunSupervisor`, so one engine can
    serve concurrent ``rectify`` calls.
    """

    def __init__(self, config: Optional[EcoConfig] = None):
        self.config = config or EcoConfig()

    # ------------------------------------------------------------------
    def rectify(self, impl: Circuit, spec: Circuit,
                injector: Optional[FaultInjector] = None,
                trace: Optional[Trace] = None,
                journal=None) -> RectificationResult:
        """Rectify ``impl`` to match ``spec``; returns the result record.

        Both circuits must share primary-input and output-port names.
        Raises :class:`EcoError` when the final verification cannot
        prove full equivalence.  When a run-level budget (deadline,
        aggregate SAT conflicts, aggregate BDD nodes) is exhausted the
        run degrades gracefully — remaining failing outputs are
        force-completed via the guaranteed fallback and the result is
        marked ``degraded`` — unless ``config.degrade_on_budget`` is
        False, in which case :class:`ResourceBudgetExceeded` propagates.

        ``injector`` arms deterministic faults at the supervised call
        sites (tests of the degradation paths use this).  ``trace``
        receives the run's phase spans (see :mod:`repro.obs`); the
        finished trace is attached to the result.  ``journal`` (a
        :class:`~repro.eco.checkpoint.RunJournal`) makes the run
        durable: every commit is journaled write-ahead, and a journal
        opened for resume replays a dead run's commits before the
        search continues — see :mod:`repro.eco.checkpoint`.
        """
        started = now()
        trace = ensure_trace(trace)
        self._check_interfaces(impl, spec)
        config = self.config
        if config.sync_debug:
            from repro.runtime.sync import enable_sync_debug
            enable_sync_debug(registry=trace.metrics)
        rng = random.Random(config.seed)
        run = RunSupervisor.from_config(config, injector=injector,
                                        trace=trace)
        trace.set_counters(run.counters)

        sampler = maybe_sampler(
            trace, counters=run.counters, bdd_stats=run.live_bdd_stats,
            interval_s=config.sample_interval_s,
            stall_window_s=config.stall_window_s,
            gauge_hook=run.publish_gauges,
            trace_malloc=config.trace_malloc)
        try:
            if sampler is not None:
                sampler.start()
            with trace.span("eco.rectify", impl=impl.name,
                            outputs=len(impl.outputs)):
                result = self._rectify_run(impl, spec, rng, run, started,
                                           journal=journal)
        finally:
            if sampler is not None:
                # the sampler thread must never outlive the run, even
                # when teardown's final sample raises (e.g. a broken
                # trace exporter) while the run itself is unwinding a
                # failure — log and keep the original exception
                try:
                    sampler.stop()
                except Exception:
                    logger.exception("telemetry sampler teardown failed")
        trace.meta.update(
            impl=impl.name,
            counters=run.counters.as_dict(),
            degraded=result.degraded,
            degrade_reason=result.degrade_reason,
            wall_seconds=result.runtime_seconds,
            # the budget clock observes injected clock faults, so the
            # supervised elapsed time is the one regression checks trust
            supervised_elapsed_s=run.budget.elapsed(),
        )
        if trace.enabled:
            result.trace = trace
        return result

    def _rectify_run(self, impl: Circuit, spec: Circuit,
                     rng: random.Random, run: RunSupervisor,
                     started: float, journal=None) -> RectificationResult:
        config = self.config
        trace = run.trace
        work = impl.copy()
        patch = Patch()
        per_output: Dict[str, str] = {}

        with trace.span("eco.diagnose") as dsp:
            failing = nonequivalent_outputs(work, spec)
            diagnosed = DiagnosedOutputs(work, failing)
            failing = self._order_by_cone(work, failing)
            dsp.tag(failing=len(failing))
        logger.info("rectifying %s: %d of %d outputs non-equivalent",
                    impl.name, len(failing), len(impl.outputs))

        if journal is not None:
            journal.bind(run.injector, metrics=trace.metrics)
            if journal.resuming:
                journal.check_resumable(impl.name, config, failing)
                with trace.span("eco.resume",
                                commits=len(journal.commits)) as rsp:
                    work, failing = self._replay_journal(
                        work, spec, failing, patch, per_output, rng,
                        run, journal)
                    rsp.tag(remaining=len(failing))
            else:
                journal.start(impl.name, config, failing)

        if config.jobs > 1 and len(failing) > 1:
            from repro.eco.parallel import parallel_repair
            with trace.span("eco.parallel", jobs=config.jobs,
                            failing=len(failing)) as psp:
                try:
                    work, failing = parallel_repair(
                        self, work, spec, failing, patch, per_output,
                        run, journal=journal, rng=rng)
                except ResourceBudgetExceeded as exc:
                    if not config.degrade_on_budget:
                        raise
                    run.mark_degraded(str(exc))
                psp.tag(remaining=len(failing))
            failing = self._order_by_cone(work, failing)

        work, failing = self._repair_outputs(work, spec, failing, patch,
                                             per_output, rng, run,
                                             journal=journal)

        with trace.span("eco.refine"):
            refine_patch_inputs(work, patch.cloned_gates,
                                seed=self.config.seed)
        if self.config.resynthesis:
            from repro.eco.resynth import resubstitute_patch
            with trace.span("eco.resynth") as rsp:
                resubs, patch_gates = resubstitute_patch(
                    work, patch.cloned_gates, seed=self.config.seed)
                rsp.tag(resubstitutions=resubs)
            patch.cloned_gates = patch_gates
            run.counters.resubstitutions = resubs

        with trace.span("cec.verify_final") as vsp:
            shared = [p for p in work.outputs if p in spec.outputs]
            reprove = diagnosed.to_reprove(work, shared)
            if not reprove:
                # every output keeps its diagnosis proof
                verification = EquivalenceResult(True)
            elif config.jobs > 1:
                from repro.eco.parallel import parallel_verify
                verification = parallel_verify(work, spec, config.jobs,
                                               outputs=reprove)
            else:
                verification = check_equivalence(work, spec,
                                                 outputs=reprove)
            vsp.tag(equivalent=verification.equivalent,
                    reproved=len(reprove),
                    skipped=len(shared) - len(reprove))
        if verification.equivalent is not True:
            raise EcoError(
                "final verification failed; counterexample: "
                f"{verification.counterexample}")
        logger.info("run summary: %s", run.summary())
        # a quarantined output forced a fallback for infrastructure
        # reasons; the result is degraded even when no budget blew
        degraded = run.degraded or bool(run.quarantined)
        degrade_reason = run.degrade_reason
        if degrade_reason is None and run.quarantined:
            degrade_reason = "quarantined: " + ", ".join(
                sorted(run.quarantined))
        if journal is not None:
            journal.finish("degraded" if degraded else "ok")
        return RectificationResult(
            patched=work,
            patch=patch,
            verified_outputs=tuple(sorted(work.outputs)),
            runtime_seconds=now() - started,
            per_output=per_output,
            counters=run.counters,
            degraded=degraded,
            degrade_reason=degrade_reason,
        )

    # ------------------------------------------------------------------
    def _replay_journal(self, work: Circuit, spec: Circuit,
                        failing: List[str], patch: Patch,
                        per_output: Dict[str, str], rng: random.Random,
                        run: RunSupervisor, journal
                        ) -> Tuple[Circuit, List[str]]:
        """Re-prove and re-apply a dead run's journaled commits.

        A journal is never trusted blindly: each commit's op set is
        re-validated under the supervised validator before it is
        applied (a commit that no longer validates means the inputs
        changed — :class:`JournalError`).  After the last commit the
        engine RNG is restored to the journaled stream position and the
        journaled cumulative budget spend is topped up, so the
        continued search is bit-identical to the uninterrupted run.
        """
        config = self.config
        replayed = 0
        last = None
        for commit in journal.commits:
            try:
                outcome = validate_rewire(
                    work, spec, commit.ops, failing, patch.clone_map,
                    sat_budget=config.sat_budget, target=commit.port,
                    run=run)
            except ResourceBudgetExceeded as exc:
                if not config.degrade_on_budget:
                    raise
                run.mark_degraded(str(exc))
                # the commit was proven once already; finish the replay
                # unsupervised rather than tear the patch in half
                outcome = validate_rewire(
                    work, spec, commit.ops, failing, patch.clone_map,
                    sat_budget=None, target=commit.port)
            except ReproError as exc:
                # an op that no longer even applies (missing gate or
                # pin) means the designs on disk are not the ones the
                # journal was recorded against
                raise JournalError(
                    f"journaled commit #{commit.seq} for output "
                    f"{commit.port!r} no longer applies to these "
                    f"designs ({exc}); the input netlists changed"
                ) from exc
            if not outcome.valid or commit.port not in outcome.fixed:
                raise JournalError(
                    f"journaled commit #{commit.seq} for output "
                    f"{commit.port!r} failed re-validation; the "
                    "journal does not match the input designs")
            work = outcome.patched
            assert_patch_structure(work, commit.ops)
            patch.record(commit.ops, outcome.clone_map,
                         outcome.new_gates)
            for fixed_port in outcome.fixed:
                per_output[fixed_port] = (
                    commit.how if fixed_port == commit.port
                    else "fixed-by-earlier")
            fixed = set(outcome.fixed)
            failing = [p for p in failing if p not in fixed]
            run.counters.replayed_commits += 1
            replayed += 1
            last = commit
        if last is not None:
            if last.rng_state is not None:
                from repro.eco.checkpoint import decode_rng_state
                rng.setstate(decode_rng_state(last.rng_state))
            # continue with the dead run's *remaining* budget: top the
            # journaled cumulative spend up over what replay charged
            run.budget.charge_sat(
                max(0, last.sat_spent - run.budget.sat_spent))
            run.budget.charge_bdd(
                max(0, last.bdd_spent - run.budget.bdd_spent))
        run.trace.event("eco.resumed", replayed=replayed,
                        remaining=len(failing))
        logger.info("resumed run: %d commit(s) replayed, %d output(s) "
                    "remaining", replayed, len(failing))
        return work, failing

    # ------------------------------------------------------------------
    def _repair_outputs(self, work: Circuit, spec: Circuit,
                        failing: List[str], patch: Patch,
                        per_output: Dict[str, str], rng: random.Random,
                        run: RunSupervisor,
                        targets: Optional[Set[str]] = None,
                        commit_log: Optional[List] = None,
                        journal=None
                        ) -> Tuple[Circuit, List[str]]:
        """Drive the per-output repair loop to completion.

        The workhorse of the run: picks the next failing output, runs
        the symbolic search (joint first when configured), falls back
        when the search comes up empty, commits the winning patch and
        repeats.  With ``targets`` only those outputs are driven (other
        failing outputs pass through untouched — parallel workers
        restrict their search this way while still validating against
        the full failing set).  ``commit_log`` receives one
        ``(port, how, ops)`` entry per commit so a parent process can
        replay the patch sequence.

        Returns the patched circuit and the outputs still failing.
        """
        config = self.config
        trace = run.trace
        while True:
            port = next((p for p in failing
                         if targets is None or p in targets), None)
            if port is None:
                break
            with trace.span("eco.output", output=port) as osp:
                outcome = None
                how = "rewire"
                quarantined = port in run.quarantined
                if not run.degraded and not quarantined:
                    try:
                        run.checkpoint()
                        if config.joint_outputs > 1 and len(failing) > 1:
                            ordered = [port] + [p for p in failing
                                                if p != port]
                            group = self._joint_group(work, ordered)
                            if len(group) > 1:
                                with trace.span(
                                        "eco.joint", output=port,
                                        group=len(group)) as jsp:
                                    outcome = self._rectify_joint(
                                        work, spec, group, failing,
                                        patch, rng, run=run)
                                    jsp.tag(
                                        committed=outcome is not None)
                                if outcome is not None:
                                    how = "joint-rewire"
                        if outcome is None:
                            outcome = self._rectify_output(
                                work, spec, port, failing, patch, rng,
                                run)
                    except ResourceBudgetExceeded as exc:
                        if not config.degrade_on_budget:
                            raise
                        run.mark_degraded(str(exc))
                        logger.warning(
                            "budget exhausted on output %s; degrading: "
                            "remaining outputs force-completed via "
                            "fallback", port)
                        outcome = None
                if outcome is None:
                    forced = run.degraded or quarantined
                    how = "fallback-degraded" if forced else "fallback"
                    with trace.span("eco.fallback", output=port,
                                    degraded=forced):
                        outcome = self._fallback(work, spec, port,
                                                 failing, patch)
                    run.counters.fallbacks += 1
                    if forced:
                        run.counters.degraded_outputs += 1
                logger.info(
                    "output %s: %s with %d op(s), %d cloned gate(s), "
                    "fixes %s", port, how, len(outcome.committed_ops),
                    len(outcome.new_gates), ", ".join(outcome.fixed))
                logger.debug("ops: %s",
                             "; ".join(op.describe()
                                       for op in outcome.committed_ops))
                if journal is not None:
                    # write-ahead: the journal record lands before the
                    # in-memory commit, so a crash at any point either
                    # replays this commit or re-finds it — never loses
                    # it half-applied
                    journal.record_commit(
                        port, how, outcome.committed_ops, outcome.fixed,
                        rng_state=rng.getstate(),
                        sat_spent=run.budget.sat_spent,
                        bdd_spent=run.budget.bdd_spent)
                work = outcome.patched
                # post-commit structural assertion: the lint screen
                # should make this unreachable
                assert_patch_structure(work, outcome.committed_ops)
                patch.record(outcome.committed_ops, outcome.clone_map,
                             outcome.new_gates)
                for fixed_port in outcome.fixed:
                    per_output[fixed_port] = (
                        how if fixed_port == port else "fixed-by-earlier")
                fixed = set(outcome.fixed)
                failing = [p for p in failing if p not in fixed]
                if commit_log is not None:
                    commit_log.append(
                        (port, how, list(outcome.committed_ops)))
                osp.tag(how=how, ops=len(outcome.committed_ops),
                        fixed=len(fixed))
        return work, failing

    # ------------------------------------------------------------------
    def _check_interfaces(self, impl: Circuit, spec: Circuit) -> None:
        if set(spec.inputs) - set(impl.inputs):
            raise EcoError("specification reads inputs the implementation "
                           "does not have")
        if set(impl.outputs) != set(spec.outputs):
            raise EcoError("output ports of C and C' must correspond")

    def _order_by_cone(self, impl: Circuit,
                       ports: Sequence[str]) -> List[str]:
        """Failing outputs sorted by increasing logical complexity."""
        sizes = {
            p: len(transitive_fanin(impl, [impl.outputs[p]]))
            for p in ports
        }
        return sorted(ports, key=lambda p: (sizes[p], p))

    # ------------------------------------------------------------------
    def _rectify_output(self, work: Circuit, spec: Circuit, port: str,
                        failing: Sequence[str], patch: Patch,
                        rng: random.Random,
                        run: RunSupervisor) -> Optional["_Commit"]:
        """Steps 1-5 of the flow for one failing output."""
        config = self.config
        with run.trace.span("eco.samples", output=port) as sp:
            samples = self._exact_domain_samples(work, spec, port)
            exact = samples is not None
            if samples is None:
                samples = collect_error_samples(
                    work, spec, port, config.num_samples, rng,
                    error_bias=config.error_bias,
                    diversify=config.sample_diversify)
            sp.tag(count=len(samples), exact=exact)
        if not samples:
            return None

        commit = self._search_at_scale(work, spec, port, failing, patch,
                                       samples, run)
        if commit is not None or exact:
            return commit

        # counterexample-guided refinement: every sampled candidate was
        # refuted on the full domain; fold the refuting assignments in
        # and search once more on the sharper domain
        if config.cegar_refinement and run.cegar_cex:
            seen = {tuple(sorted(s.items())) for s in samples}
            refined = list(samples)
            for cex in run.cegar_cex:
                key = tuple(sorted(cex.items()))
                if key not in seen and len(refined) < 64:
                    seen.add(key)
                    refined.append(cex)
            if len(refined) > len(samples):
                run.counters.cegar_rounds += 1
                run.trace.event("cegar.refine", output=port,
                                added=len(refined) - len(samples))
                return self._search_at_scale(work, spec, port, failing,
                                             patch, refined, run)
        return None

    def _search_at_scale(self, work: Circuit, spec: Circuit, port: str,
                         failing: Sequence[str], patch: Patch,
                         samples: List[Dict[str, bool]],
                         run: RunSupervisor) -> Optional["_Commit"]:
        """Run the symbolic search, shrinking the pin set on BDD blowup."""
        run.cegar_cex = []
        max_pins = self.config.max_candidate_pins
        while max_pins >= 4:
            if not run.note_attempt(port):
                logger.debug("output %s: attempt cap reached", port)
                return None
            span = run.trace.span("eco.search", output=port,
                                  max_pins=max_pins)
            try:
                with span:
                    return self._search_with_domain(
                        work, spec, port, failing, patch, samples,
                        max_pins, run)
            except BddNodeLimitError:
                run.trace.event("bdd.node_limit", output=port,
                                max_pins=max_pins)
                max_pins //= 2  # shrink the symbolic problem and retry
        return None

    def _exact_domain_samples(self, work: Circuit, spec: Circuit,
                              port: str) -> Optional[List[Dict[str, bool]]]:
        """Exhaustive domain when the failing cone's support is small.

        Returns None when exact mode is off or the support is too wide;
        otherwise all assignments of the joint structural support with
        the remaining inputs tied low — the Section 4 computation in
        its exact form.
        """
        limit = self.config.exact_domain_max_inputs
        if limit <= 0:
            return None
        from repro.netlist.traverse import input_support
        from repro.eco.sampling import exhaustive_assignments
        relevant = sorted(
            input_support(work, work.outputs[port])
            | input_support(spec, spec.outputs[port]))
        if len(relevant) > limit:
            return None
        fixed = {n: False for n in work.inputs if n not in relevant}
        return exhaustive_assignments(relevant, fixed=fixed)

    def _search_with_domain(self, work: Circuit, spec: Circuit, port: str,
                            failing: Sequence[str], patch: Patch,
                            samples: List[Dict[str, bool]],
                            max_pins: int,
                            run: RunSupervisor) -> Optional["_Commit"]:
        config = self.config
        manager = BddManager(
            node_limit=run.open_bdd(config.bdd_node_limit),
            node_hook=run.node_hook)
        run.adopt_bdd(manager)
        try:
            return self._search_in_manager(
                work, spec, port, failing, patch, samples, max_pins,
                run, manager)
        finally:
            run.close_bdd(manager)

    def _search_in_manager(self, work: Circuit, spec: Circuit, port: str,
                           failing: Sequence[str], patch: Patch,
                           samples: List[Dict[str, bool]],
                           max_pins: int, run: RunSupervisor,
                           manager: BddManager) -> Optional["_Commit"]:
        config = self.config
        domain = SamplingDomain(manager, samples, inputs=work.inputs,
                                checkpoint=run.checkpoint)
        impl_z = domain.cast_circuit(work)
        spec_z = domain.cast_circuit(spec)

        input_index = {n: i for i, n in enumerate(work.inputs)}
        impl_supports = support_masks(work, input_index)
        spec_supports = support_masks(spec, input_index)
        impl_levels = levelize(work)
        spec_levels = levelize(spec)

        ctx = RewiringContext(
            work, spec, port, domain, config, impl_z, spec_z,
            impl_supports, spec_supports, impl_levels, spec_levels,
            trace=run.trace)

        with run.trace.span("eco.rank_pins", output=port) as psp:
            candidate_pins = self._select_candidate_pins(
                work, spec, port, samples, max_pins)
            psp.tag(pins=len(candidate_pins))
        if not candidate_pins:
            return None
        spec_value = spec_z[spec.outputs[port]]

        cost_fn = self._make_cost_fn(work, spec, port, impl_levels,
                                     patch.clone_map)
        sim_filter = self._make_sim_filter(work, spec, samples,
                                           counters=run.counters)
        inc_box: List[Optional[IncrementalValidator]] = [None]

        best: Optional[_Commit] = None
        validations = 0
        max_validations = 6 * config.max_points
        for m in range(1, config.max_points + 1):
            point_sets = feasible_point_sets(
                work, port, domain, candidate_pins, spec_value, m,
                prime_limit=config.prime_limit,
                pointset_limit=config.pointset_limit,
                checkpoint=run.checkpoint, trace=run.trace)
            run.counters.point_sets += len(point_sets)
            for pins in point_sets:
                run.checkpoint()
                cand_lists = [ctx.candidates_for_pin(p) for p in pins]
                choices = enumerate_rewiring_choices(
                    work, port, domain, pins, cand_lists, spec_value,
                    limit=config.choice_limit, cost_fn=cost_fn,
                    trace=run.trace)
                run.counters.choices += len(choices)
                # choices are cost-ordered; the simulation screen drops
                # sampling false positives cheaply, and only the first
                # few survivors per point-set get a SAT proof
                sat_tried = 0
                for choice in choices:
                    if sat_tried >= 3:
                        break
                    ops = [
                        RewireOp(pin, cand.net, cand.from_spec)
                        for pin, cand in zip(pins, choice)
                        if not cand.trivial
                    ]
                    if not ops:
                        continue
                    if not self._lint_screen(run, ctx, ops, port):
                        continue
                    if not self._screen(run, sim_filter, ops, port,
                                        failing):
                        run.counters.sim_rejects += 1
                        continue
                    sat_tried += 1
                    run.counters.sat_validations += 1
                    with run.trace.span("eco.validate", output=port,
                                        ops=len(ops)) as vsp:
                        outcome = self._validate_candidate(
                            run, inc_box, work, spec, candidate_pins,
                            ops, failing, patch.clone_map, port)
                        vsp.tag(valid=outcome.valid,
                                fixed=len(outcome.fixed))
                    if not outcome.valid and \
                            outcome.target_counterexample is not None:
                        run.cegar_cex.append(
                            outcome.target_counterexample)
                    validations += 1
                    if outcome.valid and port in outcome.fixed:
                        commit = _Commit.from_outcome(outcome, ops)
                        if best is None or commit.score > best.score:
                            best = commit
                        # a pure rewire (no new logic) cannot be beaten
                        # on patch size; commit it immediately
                        if not commit.outcome.new_gates:
                            return best
                    if validations >= max_validations:
                        return best
            # grow the point-set only while the best patch still clones
            # a noticeable amount of logic
            if best is not None and len(best.outcome.new_gates) <= 2 * m:
                return best
        return best

    # ------------------------------------------------------------------
    # joint multi-output rectification
    # ------------------------------------------------------------------
    def _joint_group(self, work: Circuit,
                     failing: Sequence[str]) -> List[str]:
        """Failing outputs whose cones overlap the head output's cone."""
        head = failing[0]
        head_cone = transitive_fanin(work, [work.outputs[head]])
        head_gates = {n for n in head_cone if n in work.gates}
        group = [head]
        for other in failing[1:]:
            if len(group) >= self.config.joint_outputs:
                break
            cone = transitive_fanin(work, [work.outputs[other]])
            union = len(head_cone | cone)
            overlap = len(head_cone & cone) / union if union else 0.0
            shared_gates = head_gates & cone
            if overlap >= 0.2 or shared_gates:
                group.append(other)
        return group

    def _rectify_joint(self, work: Circuit, spec: Circuit,
                       group: Sequence[str], failing: Sequence[str],
                       patch: Patch, rng: random.Random,
                       run: Optional[RunSupervisor] = None
                       ) -> Optional["_Commit"]:
        """One point-set and rewiring fixing a whole output group."""
        from repro.eco.choices import enumerate_rewiring_choices_joint
        from repro.eco.points import feasible_point_sets_joint

        if run is None:
            run = RunSupervisor.from_config(self.config)
        config = self.config
        per_port = max(2, config.num_samples // len(group))
        samples: List[Dict[str, bool]] = []
        seen = set()
        for p in group:
            for s in collect_error_samples(work, spec, p, per_port, rng,
                                           error_bias=config.error_bias):
                key = tuple(sorted(s.items()))
                if key not in seen:
                    seen.add(key)
                    samples.append(s)
        if not samples:
            return None
        samples = samples[:64]

        manager: Optional[BddManager] = None
        try:
            manager = BddManager(
                node_limit=run.open_bdd(config.bdd_node_limit),
                node_hook=run.node_hook)
            run.adopt_bdd(manager)
            domain = SamplingDomain(manager, samples, inputs=work.inputs,
                                    checkpoint=run.checkpoint)
            impl_z = domain.cast_circuit(work)
            spec_z = domain.cast_circuit(spec)
            input_index = {n: i for i, n in enumerate(work.inputs)}
            impl_supports = support_masks(work, input_index)
            spec_supports = support_masks(spec, input_index)
            impl_levels = levelize(work)
            spec_levels = levelize(spec)
            ctx = RewiringContext(
                work, spec, group[0], domain, config, impl_z, spec_z,
                impl_supports, spec_supports, impl_levels, spec_levels,
                ports=group, trace=run.trace)

            pins: List[Pin] = []
            per_port_pins = max(4, config.max_candidate_pins
                                // len(group))
            for p in group:
                for pin in self._select_candidate_pins(
                        work, spec, p, samples, per_port_pins):
                    if pin not in pins:
                        pins.append(pin)
            spec_values = {p: spec_z[spec.outputs[p]] for p in group}
            cost_fn = self._make_cost_fn(work, spec, group[0],
                                         impl_levels, patch.clone_map)
            sim_filter = self._make_sim_filter(work, spec, samples,
                                               counters=run.counters)
            inc_box: List[Optional[IncrementalValidator]] = [None]

            best: Optional[_Commit] = None
            validations = 0
            for m in range(1, config.max_points + 1):
                point_sets = feasible_point_sets_joint(
                    work, spec_values, domain, pins, m,
                    prime_limit=config.prime_limit,
                    pointset_limit=config.pointset_limit,
                    checkpoint=run.checkpoint, trace=run.trace)
                for point_set in point_sets:
                    cand_lists = [ctx.candidates_for_pin(p)
                                  for p in point_set]
                    choices = enumerate_rewiring_choices_joint(
                        work, spec_values, domain, point_set, cand_lists,
                        limit=config.choice_limit, cost_fn=cost_fn,
                        trace=run.trace)
                    for choice in choices[:4]:
                        ops = [RewireOp(pin, cand.net, cand.from_spec)
                               for pin, cand in zip(point_set, choice)
                               if not cand.trivial]
                        if not ops:
                            continue
                        if not self._lint_screen(run, ctx, ops,
                                                 group[0]):
                            continue
                        if not all(self._screen(run, sim_filter, ops, p,
                                                failing)
                                   for p in group):
                            continue
                        validations += 1
                        with run.trace.span(
                                "eco.validate", output=group[0],
                                ops=len(ops), joint=True) as vsp:
                            outcome = self._validate_candidate(
                                run, inc_box, work, spec, pins, ops,
                                failing, patch.clone_map, group[0])
                            vsp.tag(valid=outcome.valid,
                                    fixed=len(outcome.fixed))
                        if outcome.valid and \
                                set(group) <= set(outcome.fixed):
                            # economy guard: a joint commit must beat
                            # what per-output repair would plausibly
                            # cost — fewer rewires than outputs fixed,
                            # or no new logic at all; otherwise the
                            # single-output path with clone reuse wins
                            economical = (
                                not outcome.new_gates
                                or len(ops) < len(outcome.fixed))
                            if not economical:
                                continue
                            commit = _Commit.from_outcome(outcome, ops)
                            if best is None or commit.score > best.score:
                                best = commit
                            if not commit.outcome.new_gates:
                                run.counters.joint_commits += 1
                                return best
                        if validations >= 6:
                            if best is not None:
                                run.counters.joint_commits += 1
                            return best
                if best is not None:
                    break
            if best is not None:
                run.counters.joint_commits += 1
            return best
        except BddNodeLimitError:
            return None  # joint problem too big; single-output path
        finally:
            if manager is not None:
                run.close_bdd(manager)

    # ------------------------------------------------------------------
    def _validate_candidate(self, run: RunSupervisor, inc_box: List,
                            work: Circuit, spec: Circuit,
                            pins: Sequence[Pin], ops: List[RewireOp],
                            failing: Sequence[str],
                            clone_map: Dict[str, str],
                            port: str) -> ValidationOutcome:
        """Full-domain validation through the incremental miter.

        The :class:`IncrementalValidator` for this search is built
        lazily — only when a candidate actually survives the screens —
        and kept in ``inc_box`` so every later candidate of the same
        search is a single assumption-based solve on the one persistent
        miter.  Rewires outside the registered cut, and runs with
        ``config.incremental_validate`` off, go through the legacy
        copy-and-re-encode oracle instead.
        """
        config = self.config
        if config.incremental_validate:
            validator = inc_box[0]
            if validator is None:
                validator = IncrementalValidator(
                    work, spec, pins, counters=run.counters)
                inc_box[0] = validator
            if validator.covers(ops):
                return validator.validate(
                    ops, failing, clone_map,
                    sat_budget=config.sat_budget, target=port, run=run)
        return validate_rewire(work, spec, ops, failing, clone_map,
                               sat_budget=config.sat_budget,
                               target=port, run=run)

    # ------------------------------------------------------------------
    @staticmethod
    def _screen(run: RunSupervisor, sim_filter: SimulationFilter,
                ops: List[RewireOp], port: str,
                failing: Sequence[str]) -> bool:
        """One simulation-screen decision, recorded as a trace span."""
        with run.trace.span("sim.screen", output=port) as sp:
            ok = sim_filter.passes(ops, port, failing)
            sp.tag(passed=ok)
            return ok

    @staticmethod
    def _lint_screen(run: RunSupervisor, ctx: RewiringContext,
                     ops: List[RewireOp], port: str) -> bool:
        """Static legality screen before any simulation or SAT spend.

        The context's :class:`~repro.lint.patch_rules.PatchScreen`
        proves the candidate cannot close a combinational cycle and
        that every pin/source is structurally sound — rejecting here
        costs a graph walk over already-built adjacency instead of a
        solver call.
        """
        with run.trace.span("lint.screen", output=port,
                            ops=len(ops)) as sp:
            report = ctx.screen.check_ops(ops)
            ok = report.ok
            sp.tag(passed=ok)
            if not ok:
                sp.tag(codes=",".join(sorted(report.codes())))
        run.counters.lint_screens += 1
        if not ok:
            run.counters.lint_rejects += 1
        return ok

    # ------------------------------------------------------------------
    def _make_sim_filter(self, work: Circuit, spec: Circuit,
                         samples: List[Dict[str, bool]],
                         counters=None) -> SimulationFilter:
        """Error samples plus fresh random words for the cheap screen."""
        rng = random.Random(self.config.seed ^ 0x53C0)
        words_list = [patterns_to_words(work.inputs, samples[:64])]
        for _ in range(2):
            words_list.append({
                n: rng.getrandbits(64) for n in work.inputs
            })
        return SimulationFilter(work, spec, words_list,
                                counters=counters)

    # ------------------------------------------------------------------
    def _make_cost_fn(self, work: Circuit, spec: Circuit, port: str,
                      impl_levels: Dict[str, int],
                      clone_map: Dict[str, str]):
        level_term = None
        if self.config.level_aware:
            out_level = impl_levels[work.outputs[port]]

            def level_term(pin: Pin, cand: RewireCandidate) -> float:
                if cand.trivial:
                    return 0.0
                pin_level = 0 if pin.is_output_port else \
                    impl_levels.get(pin.owner, out_level)
                # penalize sources deeper than the logic they feed
                return 0.5 * max(0, cand.level - max(pin_level - 1, 0))

        return make_clone_aware_cost(spec, clone_map,
                                     level_term=level_term)

    # ------------------------------------------------------------------
    def _select_candidate_pins(self, work: Circuit, spec: Circuit,
                               port: str, samples: List[Dict[str, bool]],
                               max_pins: int) -> List[Pin]:
        """Rank the sink pins of the failing cone as candidate points.

        Nets are scored by *flip credit*: the number of error samples on
        which complementing the net corrects the output (64-way parallel
        resimulation).  Pins inherit the score of their driving net;
        the output port pin is always included (completeness).
        """
        out_net = work.outputs[port]
        cone = transitive_fanin(work, [out_net])
        cone_order = topological_order(work, roots=[out_net])

        samples = samples[:64]  # one simulation word for the heuristic
        words = patterns_to_words(work.inputs, samples)
        n_mask = (1 << len(samples)) - 1
        base_values = simulate_words(work, words)
        spec_words = {n: words.get(n, 0) for n in spec.inputs}
        spec_values = simulate_words(spec, spec_words)
        error_mask = (base_values[out_net] ^
                      spec_values[spec.outputs[port]]) & n_mask

        # score only the nets closest to the output when cones are huge
        scored_nets = [n for n in cone]
        if len(scored_nets) > 600:
            lv = levelize(work)
            scored_nets.sort(key=lambda n: -lv[n])
            scored_nets = scored_nets[:600]
        scored_set = set(scored_nets)

        from repro.netlist.gate import eval_gate
        flip_credit: Dict[str, int] = {}
        for net in scored_nets:
            override = {net: base_values[net] ^ WORD_MASK}
            for gname in cone_order:
                gate = work.gates[gname]
                if gname == net:
                    continue
                if not any(f in override for f in gate.fanins):
                    continue
                operands = [override.get(f, base_values[f])
                            for f in gate.fanins]
                value = eval_gate(gate.gtype, operands)
                if value != base_values[gname]:
                    override[gname] = value
            flipped_out = override.get(out_net, base_values[out_net])
            corrected = (~(flipped_out ^ spec_values[spec.outputs[port]])
                         & error_mask)
            flip_credit[net] = bin(corrected & n_mask).count("1")

        # collect gate input pins of the cone, ranked by driver credit
        pins: List[Tuple[int, int, Pin]] = []
        levels = levelize(work)
        for gname in cone:
            gate = work.gates.get(gname)
            if gate is None:
                continue
            for idx, fanin in enumerate(gate.fanins):
                credit = flip_credit.get(fanin, 0)
                if credit <= 0:
                    continue
                pins.append((-credit, levels[fanin], Pin.gate(gname, idx)))
        pins.sort(key=lambda item: (item[0], item[1], item[2]))
        selected = [p for _, _, p in pins[:max_pins - 1]]
        selected.append(Pin.output(port))
        return selected

    # ------------------------------------------------------------------
    def _fallback(self, work: Circuit, spec: Circuit, port: str,
                  failing: Sequence[str], patch: Patch) -> "_Commit":
        """Completeness fallback: drive the output port from a clone of
        the revised function (always valid by Proposition 1).

        Deliberately unsupervised: this is the path degradation relies
        on, so it must complete regardless of budgets (no conflict
        limit, no deadline check).
        """
        ops = [RewireOp(Pin.output(port), spec.outputs[port],
                        from_spec=True)]
        outcome = validate_rewire(work, spec, ops, failing,
                                  patch.clone_map, sat_budget=None)
        if not outcome.valid:
            raise EcoError(
                f"fallback rectification failed for output {port!r}")
        return _Commit.from_outcome(outcome, ops)


class _Commit:
    """A validated rewire bundled with its committed operations."""

    def __init__(self, outcome: ValidationOutcome,
                 committed_ops: List[RewireOp]):
        self.outcome = outcome
        self.committed_ops = committed_ops
        # favor most outputs fixed, then least new logic
        self.score = (len(outcome.fixed), -len(outcome.new_gates))

    @staticmethod
    def from_outcome(outcome: ValidationOutcome,
                     ops: List[RewireOp]) -> "_Commit":
        return _Commit(outcome, list(ops))

    @property
    def patched(self) -> Circuit:
        if self.outcome.patched is None:
            raise PatchStructureError(
                "commit built from an invalid validation outcome "
                "(no patched circuit)")
        return self.outcome.patched

    @property
    def fixed(self) -> Tuple[str, ...]:
        return self.outcome.fixed

    @property
    def clone_map(self) -> Dict[str, str]:
        return self.outcome.clone_map

    @property
    def new_gates(self) -> Set[str]:
        return self.outcome.new_gates


def rectify(impl: Circuit, spec: Circuit,
            config: Optional[EcoConfig] = None,
            injector: Optional[FaultInjector] = None,
            trace: Optional[Trace] = None,
            journal=None) -> RectificationResult:
    """Convenience one-shot: ``SysEco(config).rectify(impl, spec)``."""
    return SysEco(config).rectify(impl, spec, injector=injector,
                                  trace=trace, journal=journal)
