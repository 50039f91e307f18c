"""Parallel per-output search: partitioning, merge, telemetry absorb.

The multi-worker tests run with ``REPRO_ECO_JOBS_INLINE=1`` so the
worker loop executes in-process (same code path minus the pool), which
keeps partitioning, budget shares, counter merges and trace grafting
deterministic.  One test exercises the real :mod:`concurrent.futures`
pool end to end.
"""

import pytest

from repro.cec.equivalence import check_equivalence
from repro.errors import ResourceBudgetExceeded
from repro.netlist.circuit import Circuit
from repro.obs.trace import Trace
from repro.runtime.supervisor import RunSupervisor
from repro.eco.config import EcoConfig
from repro.eco.engine import rectify
from repro.eco.parallel import parallel_verify, partition_targets


def multi_bug_circuits(k=4):
    """``k`` independent single-bug blocks (OR instead of AND each)."""
    spec = Circuit("spec")
    impl = Circuit("impl")
    for i in range(k):
        a, b, c = spec.add_inputs([f"a{i}", f"b{i}", f"c{i}"])
        g1 = spec.and_(a, b, name=f"g1_{i}")
        spec.set_output(f"o{i}", spec.xor(g1, c, name=f"g2_{i}"))
        a, b, c = impl.add_inputs([f"a{i}", f"b{i}", f"c{i}"])
        h1 = impl.or_(a, b, name=f"h1_{i}")
        impl.set_output(f"o{i}", impl.xor(h1, c, name=f"h2_{i}"))
    return impl, spec


class TestPartitioning:
    def test_round_robin_deal(self):
        groups = partition_targets(["a", "b", "c", "d", "e"], 2)
        assert groups == [["a", "c", "e"], ["b", "d"]]

    def test_more_jobs_than_outputs_drops_empty_groups(self):
        groups = partition_targets(["a", "b"], 4)
        assert groups == [["a"], ["b"]]

    def test_budget_shares_reserve_one_for_main(self):
        run = RunSupervisor.from_config(
            EcoConfig(total_sat_budget=100, total_bdd_nodes=50))
        share = run.partition_budget(3)
        assert share["total_sat_budget"] == 100 // 4
        assert share["total_bdd_nodes"] == 50 // 4
        assert share["deadline_s"] is None

    def test_unlimited_budgets_stay_unlimited(self):
        run = RunSupervisor.from_config(EcoConfig())
        share = run.partition_budget(2)
        assert share["total_sat_budget"] is None
        assert share["total_bdd_nodes"] is None

    @pytest.mark.parametrize("total,jobs", [
        (100, 3), (100, 4), (7, 3), (101, 2), (997, 16),
    ])
    def test_partition_shares_sum_exactly(self, total, jobs):
        run = RunSupervisor.from_config(
            EcoConfig(total_sat_budget=total, total_bdd_nodes=total))
        shares, reserve = run.partition_shares(jobs)
        assert len(shares) == jobs
        for key in ("total_sat_budget", "total_bdd_nodes"):
            # the division remainder lands in the reserve: no conflict
            # of the parent budget is lost or double-granted
            assert sum(s[key] for s in shares) + reserve[key] == total
            assert all(s[key] >= 1 for s in shares)
            assert reserve[key] >= min(s[key] for s in shares)

    def test_partition_shares_tiny_budget_floors_at_one(self):
        # budgets below jobs+1 cannot split exactly (configs reject
        # zero): each worker gets the floor of 1, the reserve clamps
        run = RunSupervisor.from_config(EcoConfig(total_sat_budget=2))
        shares, reserve = run.partition_shares(3)
        assert [s["total_sat_budget"] for s in shares] == [1, 1, 1]
        assert reserve["total_sat_budget"] == 0

    def test_partition_shares_track_spent_budget(self):
        run = RunSupervisor.from_config(EcoConfig(total_sat_budget=100))
        run.budget.charge_sat(40)
        shares, reserve = run.partition_shares(2)
        assert sum(s["total_sat_budget"] for s in shares) \
            + reserve["total_sat_budget"] == 60

    def test_partition_shares_unlimited_stay_unlimited(self):
        run = RunSupervisor.from_config(EcoConfig())
        shares, reserve = run.partition_shares(2)
        assert all(s["total_sat_budget"] is None for s in shares)
        assert reserve["total_bdd_nodes"] is None
        assert reserve["deadline_s"] is None


class TestTelemetryMerge:
    def test_absorb_worker_adds_counters_and_charges_budget(self):
        run = RunSupervisor.from_config(EcoConfig(total_sat_budget=1000))
        run.counters.choices = 5
        run.absorb_worker({"choices": 7, "incremental_solves": 3,
                           "sat_conflicts_spent": 40,
                           "not_a_counter": 99})
        assert run.counters.choices == 12
        assert run.counters.incremental_solves == 3
        assert run.counters.parallel_workers == 1
        assert run.budget.sat_remaining() == 1000 - 40

    def test_absorb_worker_escalations_survive_later_assignment(self):
        run = RunSupervisor.from_config(EcoConfig())
        run.absorb_worker({"sat_escalations": 4, "sat_deescalations": 1})
        # check_pair_supervised re-assigns sat_escalations from the
        # local escalation object; the merged base must persist
        run.counters.sat_escalations = (
            run._merged_escalations + run.escalation.escalations)
        assert run.counters.sat_escalations == 4
        assert run.counters.sat_deescalations == 1

    def test_absorb_worker_propagates_degradation(self):
        run = RunSupervisor.from_config(EcoConfig())
        run.absorb_worker({}, degraded=True, degrade_reason="worker hit "
                          "deadline")
        assert run.degraded is True
        assert "deadline" in run.degrade_reason

    def test_trace_absorb_grafts_under_open_span(self):
        worker = Trace(name="worker")
        with worker.span("eco.worker", targets="o1"):
            worker.event("eco.commit", output="o1")
            with worker.span("eco.output", output="o1"):
                pass
        records = worker.records()

        parent = Trace(name="main")
        with parent.span("eco.parallel") as sp:
            parent.absorb(records, offset_s=1.5)
        assert sp.t_end is not None
        names = {s.name for s in parent.spans}
        assert {"eco.parallel", "eco.worker", "eco.output"} <= names
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))
        grafted = {s.name: s for s in parent.spans if s is not sp}
        # worker roots hang under the open parallel span; children keep
        # their worker-relative parent links (re-based ids)
        assert grafted["eco.worker"].parent_id == sp.span_id
        assert grafted["eco.output"].parent_id \
            == grafted["eco.worker"].span_id
        assert grafted["eco.worker"].t_start >= 1.5
        event = next(e for e in parent.events if e.name == "eco.commit")
        assert event.span_id == grafted["eco.worker"].span_id


class TestInlineParallelSearch:
    @pytest.fixture(autouse=True)
    def _inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_ECO_JOBS_INLINE", "1")

    def test_two_workers_fix_all_outputs(self):
        impl, spec = multi_bug_circuits(4)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, jobs=2))
        assert check_equivalence(result.patched, spec).equivalent is True
        assert set(result.per_output) == {f"o{i}" for i in range(4)}
        assert result.counters.parallel_workers == 2

    def test_matches_sequential_outcome(self):
        impl, spec = multi_bug_circuits(3)
        parallel = rectify(impl, spec,
                           EcoConfig(num_samples=8, jobs=2, seed=5))
        sequential = rectify(impl, spec,
                             EcoConfig(num_samples=8, jobs=1, seed=5))
        assert check_equivalence(parallel.patched,
                                 spec).equivalent is True
        assert check_equivalence(sequential.patched,
                                 spec).equivalent is True
        assert set(parallel.per_output) == set(sequential.per_output)
        assert sequential.counters.parallel_workers == 0

    def test_jobs_capped_by_failing_outputs(self):
        impl, spec = multi_bug_circuits(2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, jobs=8))
        assert check_equivalence(result.patched, spec).equivalent is True
        assert result.counters.parallel_workers == 2

    def test_strict_budget_exhaustion_raises(self):
        impl, spec = multi_bug_circuits(3)
        with pytest.raises(ResourceBudgetExceeded):
            rectify(impl, spec,
                    EcoConfig(num_samples=8, jobs=2, total_sat_budget=1,
                              degrade_on_budget=False))

    def test_single_failing_output_skips_parallel_phase(self):
        impl, spec = multi_bug_circuits(1)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, jobs=4))
        assert check_equivalence(result.patched, spec).equivalent is True
        assert result.counters.parallel_workers == 0


class TestParallelVerify:
    @pytest.fixture(autouse=True)
    def _inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_ECO_JOBS_INLINE", "1")

    def test_equivalent_pair_proves_true(self):
        impl, spec = multi_bug_circuits(4)
        assert parallel_verify(spec, spec.copy(), jobs=2,
                               outputs=list(spec.outputs)).equivalent is True

    def test_nonequivalent_pair_returns_counterexample(self):
        from repro.netlist.simulate import evaluate_outputs

        impl, spec = multi_bug_circuits(4)
        result = parallel_verify(impl, spec, jobs=2,
                                 outputs=list(spec.outputs))
        assert result.equivalent is False
        assert result.failing_outputs
        port = result.failing_outputs[0]
        iv = evaluate_outputs(impl, result.counterexample)
        sv = evaluate_outputs(spec, result.counterexample)
        assert iv[port] != sv[port]

    def test_single_output_falls_back_to_plain_check(self):
        impl, spec = multi_bug_circuits(1)
        result = parallel_verify(impl, spec, jobs=4,
                                 outputs=list(spec.outputs))
        assert result.equivalent is False
        assert result.failing_outputs == ("o0",)

    def test_proves_only_the_given_outputs(self):
        impl, spec = multi_bug_circuits(4)
        fixed = impl.copy()
        for i in (1, 3):
            # repair blocks 1 and 3 by cloning the spec's gates
            for name in (f"g1_{i}", f"g2_{i}"):
                gate = spec.gates[name]
                fixed.add_gate(name, gate.gtype, gate.fanins)
            fixed.set_output(f"o{i}", f"g2_{i}")
        assert parallel_verify(fixed, spec, jobs=2,
                               outputs=["o1", "o3"]).equivalent is True
        result = parallel_verify(fixed, spec, jobs=2,
                                 outputs=["o0", "o1", "o3"])
        assert result.equivalent is False
        assert result.failing_outputs == ("o0",)

    def test_matches_sequential_verdict(self):
        impl, spec = multi_bug_circuits(3)
        assert (parallel_verify(impl, spec, jobs=2,
                                outputs=list(spec.outputs)).equivalent
                == check_equivalence(impl, spec).equivalent)


class TestProcessPoolSearch:
    def test_real_pool_fixes_all_outputs(self, monkeypatch):
        monkeypatch.delenv("REPRO_ECO_JOBS_INLINE", raising=False)
        impl, spec = multi_bug_circuits(3)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, jobs=2))
        assert check_equivalence(result.patched, spec).equivalent is True
        assert set(result.per_output) == {"o0", "o1", "o2"}
        # the pool may be unavailable in restricted sandboxes, in which
        # case the engine falls back to the sequential loop
        assert result.counters.parallel_workers in (0, 2)
