"""Observability layer: registry, spans, export, and pipeline wiring.

Also covers the two accounting satellites of the obs PR:

* ``CloakingEngine.request_many`` cache hit/miss counters against a
  known cluster structure, including invalidation;
* message-accounting reconciliation between the analytic bounding
  protocol (Cb units) and the message-level network layer — both report
  through the canonical ``bounding.verifications`` counter.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.bounding.p2p import p2p_upper_bound
from repro.bounding.policies import LinearPolicy
from repro.bounding.protocol import BoundingOutcome, progressive_upper_bound
from repro.cloaking.engine import CloakingEngine
from repro.datasets import uniform_points
from repro.errors import ConfigurationError
from repro.graph.build import build_wpg_fast
from repro.network.node import populate_network
from repro.network.simulator import PeerNetwork
from repro.obs import names as metric
from repro.obs.report import main as report_main, render


@pytest.fixture()
def metrics():
    """A fresh active registry for one test; always disabled afterwards."""
    registry = obs.enable(obs.MetricsRegistry())
    obs.reset_traces()
    yield registry
    obs.disable()
    obs.reset_traces()


SCHEMA = {
    "schema": "obs/v1",
    "name_pattern": r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$",
    "sections": {
        "counters": "number",
        "gauges": "number",
        "histograms": "histogram",
        "spans": "histogram",
    },
}


class TestRegistry:
    def test_counter_gauge_histogram(self, metrics):
        obs.inc("a.count")
        obs.inc("a.count", 2.5)
        obs.set_gauge("a.level", -3)
        obs.observe("a.sizes", 5)
        obs.observe("a.sizes", 100)
        assert metrics.counters["a.count"].value == 3.5
        assert metrics.gauges["a.level"].value == -3
        hist = metrics.histograms["a.sizes"]
        assert hist.count == 2
        assert hist.total == 105
        assert hist.min == 5 and hist.max == 100
        assert sum(hist.bucket_counts) == 2

    def test_malformed_names_rejected(self, metrics):
        for bad in ("Caps.name", "1leading", "has space", "trail.", "a..b", ""):
            with pytest.raises(ConfigurationError):
                obs.inc(bad)

    def test_counters_cannot_decrease(self, metrics):
        with pytest.raises(ConfigurationError):
            obs.inc("a.count", -1)

    def test_disabled_is_a_noop(self):
        assert not obs.enabled()
        obs.inc("ignored.counter")
        obs.observe("ignored.hist", 1.0)
        obs.set_gauge("ignored.gauge", 1.0)
        with obs.span("ignored.span"):
            pass
        registry = obs.enable(obs.MetricsRegistry())
        try:
            assert registry.counters == {}
            assert registry.spans == {}
        finally:
            obs.disable()

    def test_reset_clears_metrics(self, metrics):
        obs.inc("a.count")
        obs.reset()
        assert metrics.counters == {}

    def test_histogram_bounds_must_ascend(self, metrics):
        with pytest.raises(ConfigurationError):
            metrics.histogram("bad.hist", bounds=(1.0, 1.0))


class TestSpans:
    def test_nesting_and_trace_ids(self, metrics):
        with obs.span("outer.a"):
            with obs.span("inner.b"):
                pass
        with obs.span("outer.c"):
            pass
        records = obs.recent_spans()
        by_name = {r.name: r for r in records}
        assert by_name["inner.b"].depth == 1
        assert by_name["outer.a"].depth == 0
        assert by_name["inner.b"].trace_id == by_name["outer.a"].trace_id
        assert by_name["outer.c"].trace_id != by_name["outer.a"].trace_id
        assert metrics.spans["outer.a"].count == 1
        # Children complete before parents, so durations nest.
        assert by_name["inner.b"].duration <= by_name["outer.a"].duration

    def test_last_trace_returns_whole_tree(self, metrics):
        with obs.span("first.request"):
            pass
        with obs.span("second.request"):
            with obs.span("second.child"):
                pass
        trace = obs.last_trace()
        assert {r.name for r in trace} == {"second.request", "second.child"}

    def test_disabled_span_is_shared_noop(self):
        assert obs.span("x.y") is obs.span("z.w")


class TestExport:
    def test_snapshot_roundtrip_and_validation(self, metrics):
        obs.inc(metric.CLOAKING_REQUESTS, 7)
        obs.set_gauge(metric.WPG_EDGES, 42)
        obs.observe(metric.BOUNDING_ITERATIONS_PER_RUN, 3)
        with obs.span(metric.SPAN_REQUEST):
            pass
        snap = obs.snapshot()
        assert snap["schema"] == "obs/v1"
        assert snap["counters"][metric.CLOAKING_REQUESTS] == 7
        assert obs.validate_snapshot(snap, SCHEMA) == []
        # JSON-serialisable (no infinities leak out).
        reparsed = json.loads(json.dumps(snap))
        assert obs.validate_snapshot(reparsed, SCHEMA) == []

    def test_validation_catches_malformed_names_and_histograms(self):
        bad = {
            "schema": "obs/v1",
            "counters": {"Bad-Name": 1, "ok.name": float("nan")},
            "gauges": {},
            "histograms": {
                "ok.hist": {
                    "count": 3,
                    "total": 1.0,
                    "mean": 0.3,
                    "min": 0,
                    "max": 1,
                    "bounds": [1.0, 2.0],
                    "bucket_counts": [1, 1],  # wrong length
                }
            },
            "spans": {},
        }
        errors = obs.validate_snapshot(bad, SCHEMA)
        assert any("malformed metric name" in e for e in errors)
        assert any("non-finite" in e for e in errors)
        assert any("bucket_counts" in e for e in errors)

    def test_prometheus_text_format(self, metrics):
        obs.inc(metric.CLOAKING_CACHE_HITS, 3)
        with obs.span(metric.SPAN_BOUNDING):
            pass
        text = obs.to_prometheus()
        assert "cloaking_cache_hits_total 3.0" in text
        assert "# TYPE cloaking_bounding_seconds histogram" in text
        assert 'le="+Inf"' in text

    def test_snapshot_requires_enabled_registry(self):
        with pytest.raises(ConfigurationError):
            obs.snapshot()

    def test_load_snapshot_from_bench_file(self, metrics, tmp_path):
        obs.inc(metric.CLOAKING_REQUESTS)
        bench = {
            "schema": "bench_wpg/v2",
            "sizes": [{"users": 10, "obs": {"snapshot": obs.snapshot()}}],
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(bench))
        loaded = obs.load_snapshot(path)
        assert loaded["counters"][metric.CLOAKING_REQUESTS] == 1


class TestBoundingOutcomeDefaults:
    def test_omitted_rounds_assume_last_iteration(self):
        outcome = BoundingOutcome(
            bound=2.0,
            start=0.0,
            iterations=5,
            messages=9,
            agreement_intervals={0: (1.5, 2.0), 1: (float("-inf"), 0.0)},
        )
        assert outcome.agreement_rounds == {0: 5, 1: 5}

    def test_empty_intervals_keep_empty_rounds(self):
        outcome = BoundingOutcome(
            bound=0.0, start=0.0, iterations=0, messages=0,
            agreement_intervals={},
        )
        assert outcome.agreement_rounds == {}

    def test_explicit_rounds_untouched(self):
        outcome = BoundingOutcome(
            bound=2.0, start=0.0, iterations=5, messages=9,
            agreement_intervals={0: (1.5, 2.0)},
            agreement_rounds={0: 3},
        )
        assert outcome.agreement_rounds == {0: 3}

    def test_exposed_users_counts_finite_intervals(self):
        outcome = BoundingOutcome(
            bound=2.0, start=0.0, iterations=2, messages=4,
            agreement_intervals={
                0: (float("-inf"), 0.0),  # covered by the start: no leak
                1: (1.0, 2.0),
                2: (0.0, 1.0),
            },
        )
        assert outcome.exposed_users == 2


class TestRequestManyCacheAccounting:
    """Satellite: hit/miss counters vs the known cluster structure."""

    def _engine(self, small_dataset, small_graph, small_config):
        return CloakingEngine(small_dataset, small_graph, small_config)

    def test_counters_match_cluster_structure(
        self, metrics, small_dataset, small_graph, small_config
    ):
        engine = self._engine(small_dataset, small_graph, small_config)
        first = engine.request(0)
        members = sorted(first.cluster.members)
        assert not first.region_from_cache
        # Every cluster mate (and the host again) is a region-cache hit,
        # served by request_many's fast path.
        results = engine.request_many(members)
        assert all(r.region_from_cache for r in results)
        counters = metrics.counters
        assert counters[metric.CLOAKING_REQUESTS].value == 1 + len(members)
        assert counters[metric.CLOAKING_CACHE_MISSES].value == 1
        assert counters[metric.CLOAKING_CACHE_HITS].value == len(members)

    def test_request_hits_are_stamped_cache_hit(
        self, metrics, small_dataset, small_graph, small_config
    ):
        from repro.obs import trace

        engine = self._engine(small_dataset, small_graph, small_config)
        recorder = trace.install_recorder(trace.FlightRecorder())
        try:
            first = engine.request(0)
            mates = sorted(first.cluster.members - {0})
            for mate in mates:
                assert engine.request(mate).region_from_cache
            statuses = [
                e.fields["status"]
                for e in recorder.events()
                if e.kind == trace.EVT_REQUEST_END
            ]
        finally:
            trace.uninstall_recorder()
        assert statuses == ["ok"] + ["cache_hit"] * len(mates)
        counters = metrics.counters
        assert counters[metric.CLOAKING_CACHE_HITS].value == len(mates)
        assert counters[metric.CLOAKING_CACHE_MISSES].value == 1

    def test_hit_miss_split_matches_results(
        self, metrics, small_dataset, small_graph, small_config
    ):
        engine = self._engine(small_dataset, small_graph, small_config)
        hosts = list(range(40)) + list(range(20))
        results = engine.request_many(hosts)
        hits = sum(1 for r in results if r.region_from_cache)
        counters = metrics.counters
        assert counters[metric.CLOAKING_REQUESTS].value == len(hosts)
        assert counters[metric.CLOAKING_CACHE_HITS].value == hits
        assert counters[metric.CLOAKING_CACHE_MISSES].value == len(hosts) - hits
        assert metrics.gauges[metric.CLOAKING_REGIONS_CACHED].value == (
            engine.regions_cached
        )

    def test_invalidate_region_resets_cache_accounting(
        self, metrics, small_dataset, small_graph, small_config
    ):
        engine = self._engine(small_dataset, small_graph, small_config)
        first = engine.request(0)
        members = first.cluster.members
        assert engine.invalidate_region(members)
        counters = metrics.counters
        assert counters[metric.CLOAKING_REGIONS_INVALIDATED].value == 1
        assert metrics.gauges[metric.CLOAKING_REGIONS_CACHED].value == 0
        # The next batch over the same cluster re-bounds once (a miss),
        # then serves the mates from the rebuilt cache.
        results = engine.request_many(sorted(members))
        assert not results[0].region_from_cache
        assert all(r.region_from_cache for r in results[1:])
        assert counters[metric.CLOAKING_CACHE_MISSES].value == 2
        assert counters[metric.CLOAKING_CACHE_HITS].value == len(members) - 1

    def test_clear_regions_counts_all_drops(
        self, metrics, small_dataset, small_graph, small_config
    ):
        engine = self._engine(small_dataset, small_graph, small_config)
        engine.request_many(range(30))
        cached = engine.regions_cached
        assert engine.clear_regions() == cached
        counters = metrics.counters
        assert counters[metric.CLOAKING_REGIONS_INVALIDATED].value == cached
        assert metrics.gauges[metric.CLOAKING_REGIONS_CACHED].value == 0


class TestMessageAccountingReconciliation:
    """Satellite: protocol-layer Cb units vs network-layer message counts."""

    @pytest.fixture()
    def world(self):
        ds = uniform_points(40, seed=5)
        graph = build_wpg_fast(ds, delta=0.5, max_peers=12)
        network = PeerNetwork()
        populate_network(network, graph, list(ds.points))
        return ds, graph, network

    def test_layers_agree_through_shared_counters(self, metrics, world):
        ds, _graph, network = world
        members = [1, 2, 3, 4, 5]
        # The host drives the run but is not a member: every verification
        # is then a real round trip, so protocol Cb units and network
        # request legs must match one for one.
        host = 0
        start = min(ds[m].x for m in members) - 0.05
        report = p2p_upper_bound(
            network, host, members, axis=0, sign=1.0, start=start,
            policy=LinearPolicy(0.08),
        )
        counters = metrics.counters
        verifications = counters[metric.BOUNDING_VERIFICATIONS].value
        assert verifications == report.outcome.messages
        assert (
            counters[metric.network_kind("verify_bound")].value == verifications
        )
        assert (
            counters[metric.network_kind("verify_bound:reply")].value
            == verifications
        )
        # Total legs: one request plus one reply per verification.
        assert counters[metric.NETWORK_MESSAGES_SENT].value == 2 * verifications
        assert counters[metric.NETWORK_CALLS].value == verifications
        # No drops on a failure-free network: the counter never appears.
        assert metric.NETWORK_MESSAGES_DROPPED not in counters

    def test_p2p_matches_analytic_plus_screening(self, metrics, world):
        ds, _graph, network = world
        members = [1, 2, 3, 4, 5]
        host = 0
        start = min(ds[m].x for m in members) - 0.05
        values = [ds[m].x for m in members]
        analytic = progressive_upper_bound(values, start, LinearPolicy(0.08))
        report = p2p_upper_bound(
            network, host, members, axis=0, sign=1.0, start=start,
            policy=LinearPolicy(0.08),
        )
        # Identical run: same bound and iteration count; the wire pays
        # one extra screening round trip per member (the host cannot know
        # who the starting bound covers without asking).
        assert report.outcome.bound == pytest.approx(analytic.bound)
        assert report.outcome.iterations == analytic.iterations
        assert report.outcome.messages == analytic.messages + len(members)
        # Both layers reported through the same canonical counter.
        assert metrics.counters[metric.BOUNDING_VERIFICATIONS].value == (
            analytic.messages + report.outcome.messages
        )


class TestPipelineInstrumentation:
    def test_request_records_phase_spans_and_bounding_counters(
        self, metrics, small_dataset, small_graph, small_config
    ):
        engine = CloakingEngine(small_dataset, small_graph, small_config)
        result = engine.request(7)
        spans = metrics.spans
        assert spans[metric.SPAN_REQUEST].count == 1
        assert spans[metric.SPAN_CLUSTERING].count == 1
        assert spans[metric.SPAN_BOUNDING].count == 1
        # Phases nest inside the request span.
        assert (
            spans[metric.SPAN_CLUSTERING].total + spans[metric.SPAN_BOUNDING].total
            <= spans[metric.SPAN_REQUEST].total
        )
        counters = metrics.counters
        assert counters[metric.BOUNDING_RUNS].value == 4  # four directions
        assert counters[metric.BOUNDING_VERIFICATIONS].value == (
            result.bounding_messages
        )
        assert counters[metric.CLUSTERING_INVOLVED_USERS].value == (
            result.clustering_messages
        )

    def test_exposed_user_leak_is_counted(
        self, metrics, small_dataset, small_graph, small_config
    ):
        engine = CloakingEngine(small_dataset, small_graph, small_config)
        engine.request(7)
        counters = metrics.counters
        assert metric.BOUNDING_EXPOSED_USERS in counters
        # At most every member in each of the four directional runs.
        size = engine.clustering.registry.cluster_of(7)
        assert counters[metric.BOUNDING_EXPOSED_USERS].value <= 4 * len(size)


class TestReportCLI:
    def test_report_renders_and_validates(self, metrics, tmp_path, capsys):
        obs.inc(metric.CLOAKING_REQUESTS, 12)
        with obs.span(metric.SPAN_REQUEST):
            pass
        snapshot_path = tmp_path / "snap.json"
        obs.write_snapshot(snapshot_path)
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(SCHEMA))
        assert (
            report_main([str(snapshot_path), "--validate", str(schema_path)])
            == 0
        )
        assert report_main([str(snapshot_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert metric.SPAN_REQUEST in out
        assert metric.CLOAKING_REQUESTS in out

    def test_report_rejects_invalid_snapshot(self, tmp_path, capsys):
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps({"schema": "obs/v1", "counters": {"X": 1}}))
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(SCHEMA))
        assert (
            report_main([str(bad_path), "--validate", str(schema_path)]) == 1
        )

    def test_report_prometheus_mode(self, metrics, tmp_path, capsys):
        obs.inc(metric.CLOAKING_REQUESTS, 2)
        snapshot_path = tmp_path / "snap.json"
        obs.write_snapshot(snapshot_path)
        assert report_main([str(snapshot_path), "--prometheus"]) == 0
        assert "cloaking_requests_total 2.0" in capsys.readouterr().out

    def test_render_empty_snapshot(self):
        empty = {"schema": "obs/v1", "counters": {}, "gauges": {},
                 "histograms": {}, "spans": {}}
        assert "empty snapshot" in render(empty)
