"""Metrics derived from trace records, histogram math, and exposition
conformance.

The round-trip tests are the conformance satellite: every payload
``render_prometheus`` emits must survive ``parse_prometheus_text``,
whose validation encodes the exposition-format contract (HELP before
TYPE, ``le`` ordering, cumulative bucket counts, terminal ``+Inf``
equal to ``_count``).
"""

import math

import pytest

from repro.eco import EcoConfig, rectify
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    SPAN_HISTOGRAMS,
    Family,
    Histogram,
    PrometheusParseError,
    derive_metrics,
    histogram_percentiles,
    histogram_snapshots,
    log_buckets,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.trace import Trace, TraceSnapshot
from repro.workloads.figures import example1_circuits


def span(name, dur=0.01, **tags):
    return {"type": "span", "name": name, "ts": 0.0, "dur": dur,
            "tags": tags}


def sample(**tags):
    return {"type": "event", "name": "obs.sample", "ts": 0.0,
            "tags": tags}


def by_name(families):
    return {f.name: f for f in families}


def values(family):
    """``{label-value or None: value}`` of a counter/gauge family."""
    return {(labels[0][1] if labels else None): value
            for labels, value in family.series}


class TestBuckets:
    def test_log_buckets_are_geometric(self):
        assert log_buckets(1.0, 2.0, 4) == [1.0, 2.0, 4.0, 8.0]

    @pytest.mark.parametrize("start,factor,count", [
        (0.0, 2.0, 4), (-1.0, 2.0, 4), (1.0, 1.0, 4), (1.0, 2.0, 0),
    ])
    def test_log_buckets_rejects_degenerate_shapes(self, start, factor,
                                                   count):
        with pytest.raises(ValueError):
            log_buckets(start, factor, count)

    def test_default_boundaries_cover_the_useful_range(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(0.0001)
        assert LATENCY_BUCKETS[-1] > 50.0          # ~52 s
        assert SIZE_BUCKETS[0] == 64
        assert SIZE_BUCKETS[-1] > 1e9


class TestCounterGauge:
    def test_counter_is_monotone(self):
        """Each prefix of a run's records reads the latest sample, and
        the finished run its meta totals: the family never goes down."""
        records = [sample(seq=1, sat_validations=3),
                   sample(seq=2, sat_validations=7),
                   {"type": "meta", "counters": {"sat_validations": 9}}]
        seen = []
        for upto in (1, 2, 3):
            family = by_name(derive_metrics(records[:upto]))[
                "repro_counter_total"]
            assert family.kind == "counter"
            seen.append(values(family)["sat_validations"])
        assert seen == [3, 7, 9]

    def test_gauge_moves_both_ways(self):
        snap = TraceSnapshot(phase=("eco.rectify",), progress=3,
                             last_progress_t=1.0, stall_window_s=5.0)

        def stalled(snapshot, now):
            family = by_name(derive_metrics([], snapshot, now))[
                "repro_run_stalled"]
            assert family.kind == "gauge"
            return values(family)[None]

        assert stalled(snap, now=2.0) == 0
        assert stalled(snap, now=6.0) == 1
        moved = snap._replace(progress=4, last_progress_t=6.0)
        assert stalled(moved, now=7.0) == 0


class TestHistogram:
    def test_observations_land_in_their_buckets(self):
        h = Histogram([1.0, 10.0, 100.0])
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        # <=1, <=10, <=100, overflow
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(556.5)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram([1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])

    def test_percentile_interpolates_within_a_bucket(self):
        h = Histogram([1.0, 2.0])
        for _ in range(10):
            h.observe(1.5)                         # all in (1, 2]
        assert h.percentile(0.5) == pytest.approx(1.5)
        assert 1.0 < h.percentile(0.95) <= 2.0

    def test_percentile_of_overflow_reports_last_bound(self):
        h = Histogram([1.0, 2.0])
        for _ in range(10):
            h.observe(99.0)
        assert h.percentile(0.5) == 2.0

    def test_empty_percentile_is_zero(self):
        assert Histogram([1.0]).percentile(0.95) == 0.0

    def test_snapshot_buckets_are_cumulative_with_inf(self):
        h = Histogram([1.0, 10.0])
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == [[1.0, 1], [10.0, 2], ["+Inf", 3]]
        assert snap["p50"] > 0


class TestRegistry:
    def test_same_name_and_labels_share_a_series(self):
        records = [span("sat.validate", output="o1"),
                   span("sat.validate", output="o2")]
        family = by_name(derive_metrics(records))["repro_sat_call_seconds"]
        ((labels, hist),) = family.series
        assert labels == ()
        assert hist.count == 2

    def test_names_are_sanitized(self):
        text = render_prometheus([Family("repro bad-name.total", "counter",
                                         "help", (((), 1),))])
        assert "repro_bad_name_total" in parse_prometheus_text(text)

    def test_histogram_snapshots_merge_label_series(self):
        """Spans that differ only in their tags merge into one
        persisted snapshot per family."""
        records = [span("eco.output", 0.5, output="o1"),
                   span("eco.output", 1.5, output="o2")]
        snaps = histogram_snapshots(derive_metrics(records))
        assert list(snaps) == ["repro_output_seconds"]
        assert snaps["repro_output_seconds"]["count"] == 2
        assert snaps["repro_output_seconds"]["sum"] == 2.0


class TestDerivation:
    def test_family_counts_equal_mapped_spans(self):
        impl, spec = example1_circuits(width=2)
        trace = Trace(name=impl.name)
        rectify(impl, spec, EcoConfig(num_samples=8), trace=trace)
        families = by_name(derive_metrics(trace.records()))
        mapped = 0
        for span_name, (family, _) in SPAN_HISTOGRAMS.items():
            spans = [s for s in trace.spans if s.name == span_name]
            if not spans:
                assert family not in families
                continue
            mapped += 1
            hist = families[family].series[0][1]
            assert hist.count == len(spans)
            assert hist.sum == pytest.approx(
                sum(s.duration for s in spans))
        assert mapped >= 4
        bdd = [s for s in trace.spans if s.name == "bdd.session"]
        assert bdd
        assert (families["repro_bdd_session_nodes"].series[0][1].count
                == len(bdd))

    def test_unmapped_and_partial_spans_are_skipped(self):
        records = [span("sat.validate"), span("no.such.phase"),
                   span("sat.validate", partial=True)]
        hists = [f for f in derive_metrics(records)
                 if f.kind == "histogram"]
        assert [f.name for f in hists] == ["repro_sat_call_seconds"]
        assert hists[0].series[0][1].count == 1

    def test_bdd_session_nodes_land_in_size_buckets(self):
        records = [span("bdd.session", 0.5, nodes=5000),
                   span("bdd.session", 0.5)]        # no tag: skipped
        family = by_name(derive_metrics(records))["repro_bdd_session_nodes"]
        hist = family.series[0][1]
        assert hist.count == 1
        assert hist.sum == 5000.0                   # nodes, not seconds
        assert hist.bounds == tuple(SIZE_BUCKETS)

    def test_counter_family_reads_latest_sample_then_meta(self):
        records = [{"type": "meta", "name": "run"},
                   sample(seq=1, sat_validations=3, bdd_nodes=10),
                   sample(seq=2, sat_validations=7, plan_evals=2,
                          bdd_nodes=40, mem_kib=5, mem_peak_kib=9)]
        families = by_name(derive_metrics(records))
        # mid-run: the latest sample, minus its non-counter tags
        assert values(families["repro_counter_total"]) == {
            "sat_validations": 7, "plan_evals": 2}
        assert values(families["repro_bdd_live_nodes"]) == {None: 40}
        assert values(families["repro_mem_peak_kib"]) == {None: 9}
        # finished: the meta record's totals, zeros included
        records[0] = {"type": "meta", "name": "run", "counters": {
            "sat_validations": 8, "plan_evals": 2, "fallbacks": 0}}
        assert values(by_name(derive_metrics(records))[
            "repro_counter_total"]) == {
            "sat_validations": 8, "plan_evals": 2, "fallbacks": 0}

    def test_degraded_gauge_reads_meta_or_event(self):
        def degraded(records):
            return values(by_name(derive_metrics(records))[
                "repro_run_degraded"])[None]

        assert degraded([]) == 0
        assert degraded([{"type": "event", "name": "run.degraded",
                          "ts": 0.0, "tags": {}}]) == 1
        assert degraded([{"type": "meta", "degraded": True}]) == 1

    def test_snapshot_gauges_need_a_snapshot(self):
        assert "repro_trace_progress" not in by_name(derive_metrics([]))
        families = by_name(derive_metrics([], TraceSnapshot(progress=5)))
        assert values(families["repro_trace_progress"]) == {None: 5}
        assert values(families["repro_run_stalled"]) == {None: 0}


class TestTraceIntegration:
    def test_finished_spans_feed_the_registry(self):
        trace = Trace(name="t")
        with trace.span("eco.output", output="o1"):
            with trace.span("sat.validate"):
                pass
            open_span = trace.span("eco.search")    # not finished
        snaps = histogram_snapshots(derive_metrics(trace.records()))
        assert snaps["repro_sat_call_seconds"]["count"] == 1
        assert snaps["repro_output_seconds"]["count"] == 1
        assert "repro_search_seconds" not in snaps
        open_span.finish()

    def test_absorb_does_not_double_feed(self):
        """A grafted worker span is one record, counted once."""
        trace = Trace(name="t")
        trace.absorb([{"type": "span", "id": 1, "parent": None,
                       "name": "sat.validate", "ts": 0.0, "dur": 0.5,
                       "tags": {}, "counters": {}}])
        snaps = histogram_snapshots(derive_metrics(trace.records()))
        assert snaps["repro_sat_call_seconds"]["count"] == 1


class TestExpositionRoundTrip:
    def make_families(self):
        records = [{"type": "meta", "counters": {"sat_validations": 42}}]
        records += [span("sat.validate", v)
                    for v in (0.0002, 0.003, 0.003, 0.8, 120.0)]
        return derive_metrics(records, TraceSnapshot(progress=17))

    def test_round_trip_preserves_families_and_samples(self):
        families = parse_prometheus_text(
            render_prometheus(self.make_families()))
        assert families["repro_counter_total"]["type"] == "counter"
        assert families["repro_trace_progress"]["type"] == "gauge"
        hist = families["repro_sat_call_seconds"]
        assert hist["type"] == "histogram"
        assert hist["help"] == SPAN_HISTOGRAMS["sat.validate"][1]
        (sample_,) = families["repro_counter_total"]["samples"]
        assert sample_ == ("repro_counter_total",
                           {"counter": "sat_validations"}, 42.0)
        assert families["repro_trace_progress"]["samples"] == [
            ("repro_trace_progress", {}, 17.0)]
        buckets = [s for s in hist["samples"]
                   if s[0] == "repro_sat_call_seconds_bucket"]
        assert buckets[-1][1]["le"] == "+Inf"
        assert buckets[-1][2] == 5.0                # incl. overflow

    def test_round_trip_with_label_escaping(self):
        text = render_prometheus([Family(
            "repro_g", "gauge", "g", (((("path", 'a\\b"c\nd'),), 1),))])
        families = parse_prometheus_text(text)
        (_, labels, _) = families["repro_g"]["samples"][0]
        assert labels == {"path": 'a\\b"c\nd'}

    def test_percentiles_recoverable_from_parsed_payload(self):
        derived = self.make_families()
        families = parse_prometheus_text(render_prometheus(derived))
        pcts = histogram_percentiles(families["repro_sat_call_seconds"])
        ((_, parsed),) = list(pcts.items())
        direct = by_name(derived)["repro_sat_call_seconds"].series[0][1]
        assert parsed["count"] == 5
        assert parsed["p50"] == pytest.approx(direct.percentile(0.5))
        assert parsed["p95"] == pytest.approx(direct.percentile(0.95))


class TestParserStrictness:
    GOOD = ("# HELP repro_x help text\n"
            "# TYPE repro_x gauge\n"
            "repro_x 1\n")

    def test_accepts_conformant_text(self):
        families = parse_prometheus_text(self.GOOD)
        assert families["repro_x"]["samples"] == [("repro_x", {}, 1.0)]

    @pytest.mark.parametrize("text,match", [
        ("# TYPE repro_x gauge\nrepro_x 1\n", "no # HELP"),
        ("# HELP repro_x h\n# TYPE repro_x gauge\n"
         "# HELP repro_x h\n# TYPE repro_x gauge\n", "duplicate # TYPE"),
        ("repro_x 1\n", "no # TYPE family"),
        ("# HELP repro_x h\n# TYPE repro_x widget\n", "unknown metric"),
        ("# HELP repro_x h\n# TYPE repro_x gauge\nrepro_x not-a-num\n",
         "unparsable sample value"),
        ("# HELP repro_x h\n# TYPE repro_x gauge\n"
         'repro_x{k=unquoted} 1\n', "malformed labels"),
    ])
    def test_rejects_malformed_text(self, text, match):
        with pytest.raises(PrometheusParseError, match=match):
            parse_prometheus_text(text)

    def _hist(self, body):
        return ("# HELP repro_h h\n# TYPE repro_h histogram\n" + body)

    def test_rejects_histogram_without_inf_bucket(self):
        text = self._hist('repro_h_bucket{le="1"} 1\n'
                          "repro_h_sum 1\nrepro_h_count 1\n")
        with pytest.raises(PrometheusParseError, match="\\+Inf"):
            parse_prometheus_text(text)

    def test_rejects_non_cumulative_buckets(self):
        text = self._hist('repro_h_bucket{le="1"} 5\n'
                          'repro_h_bucket{le="2"} 3\n'
                          'repro_h_bucket{le="+Inf"} 5\n'
                          "repro_h_sum 1\nrepro_h_count 5\n")
        with pytest.raises(PrometheusParseError, match="not cumulative"):
            parse_prometheus_text(text)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = self._hist('repro_h_bucket{le="+Inf"} 5\n'
                          "repro_h_sum 1\nrepro_h_count 7\n")
        with pytest.raises(PrometheusParseError, match="!="):
            parse_prometheus_text(text)

    def test_rejects_bucket_without_le(self):
        text = self._hist("repro_h_bucket 5\n"
                          "repro_h_sum 1\nrepro_h_count 5\n")
        with pytest.raises(PrometheusParseError, match="without le"):
            parse_prometheus_text(text)

    def test_special_values_parse(self):
        text = ("# HELP repro_x h\n# TYPE repro_x gauge\n"
                'repro_x{k="a"} +Inf\nrepro_x{k="b"} NaN\n')
        samples = parse_prometheus_text(text)["repro_x"]["samples"]
        assert samples[0][2] == math.inf
        assert math.isnan(samples[1][2])
