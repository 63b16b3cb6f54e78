"""Trace-context propagation, the flight recorder, and the trace CLI.

Covers the four tentpole surfaces of ``repro.obs.trace``:

* the request scope (fresh id at top level, adoption when nested, no-op
  singleton on the fully disabled path);
* the bounded flight recorder (typed kinds, overflow accounting,
  per-trace filtering) and end-to-end attribution through a faulted
  engine run — every message, retry, eviction and abort carries the
  originating request's trace id;
* ``trace/v1`` JSONL export/load round-trips and the CLI renderings
  (summary table, waterfall, JSON mode) pinned against golden fragments;
* exemplars and exact tail quantiles on histograms, and their rendering
  in the snapshot report.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cloaking.p2p_engine import P2PCloakingSession
from repro.config import SimulationConfig
from repro.datasets import uniform_points
from repro.errors import ConfigurationError
from repro.graph.build import build_wpg_fast
from repro.network.failures import FailurePlan
from repro.network.reliability import ProtocolAbort, ReliabilityPolicy
from repro.network.simulator import PeerNetwork
from repro.obs import names as metric
from repro.obs import trace
from repro.obs.report import main as report_main
from repro.obs.trace import main as trace_main


@pytest.fixture()
def recorder():
    """A fresh installed flight recorder; always uninstalled afterwards."""
    trace.reset_trace_context()
    rec = trace.install_recorder(trace.FlightRecorder())
    yield rec
    trace.uninstall_recorder()
    trace.reset_trace_context()


@pytest.fixture()
def metrics():
    """A fresh active registry for one test; always disabled afterwards."""
    registry = obs.enable(obs.MetricsRegistry())
    obs.reset_traces()
    yield registry
    obs.disable()
    obs.reset_traces()


class TestRequestScope:
    def test_disabled_path_returns_shared_noop(self):
        assert trace.get_recorder() is None
        scope = trace.request_scope()
        assert scope is trace.request_scope()  # the shared singleton
        with scope:
            assert trace.current_trace_id() is None

    def test_top_level_scope_allocates_fresh_ids(self, recorder):
        with trace.request_scope() as first:
            assert trace.current_trace_id() == first
        with trace.request_scope() as second:
            assert second == first + 1
        assert trace.current_trace_id() is None

    def test_nested_scope_adopts_outer_id(self, recorder):
        with trace.request_scope() as outer:
            with trace.request_scope() as inner:
                assert inner == outer
            assert trace.current_trace_id() == outer

    def test_scope_restores_on_exception(self, recorder):
        with pytest.raises(RuntimeError):
            with trace.request_scope():
                raise RuntimeError("boom")
        assert trace.current_trace_id() is None


class TestFlightRecorder:
    def test_rejects_unknown_kind(self, recorder):
        with pytest.raises(ConfigurationError, match="unknown"):
            recorder.record("not_a_kind")

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            trace.FlightRecorder(capacity=0)

    def test_overflow_counts_dropped(self):
        rec = trace.FlightRecorder(capacity=3)
        for _ in range(5):
            rec.record(trace.EVT_RETRY, peer=1)
        assert len(rec) == 3
        assert rec.dropped == 2
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0

    def test_events_filter_by_trace(self, recorder):
        with trace.request_scope() as a:
            recorder.record(trace.EVT_CACHE_MISS, host=1)
        with trace.request_scope() as b:
            recorder.record(trace.EVT_CACHE_HIT, host=2)
        assert [e.kind for e in recorder.events(a)] == [trace.EVT_CACHE_MISS]
        assert [e.kind for e in recorder.events(b)] == [trace.EVT_CACHE_HIT]
        assert len(recorder.events()) == 2

    def test_record_event_helper_noop_without_recorder(self):
        assert trace.get_recorder() is None
        trace.record_event(trace.EVT_RETRY, peer=1)  # must not raise


@pytest.fixture(scope="module")
def faulted_world():
    """A lossy world with one crashed peer, served under reliability."""
    config = SimulationConfig(
        user_count=80, delta=0.12, max_peers=8, k=4, request_count=10
    )
    dataset = uniform_points(80, seed=3)
    graph = build_wpg_fast(dataset, config.delta, config.max_peers)
    return config, dataset, graph


class TestEndToEndAttribution:
    def _serve(self, faulted_world):
        config, dataset, graph = faulted_world
        network = PeerNetwork(
            failure_plan=FailurePlan(
                drop_probability=0.08, crashed=frozenset({7}), seed=11
            )
        )
        session = P2PCloakingSession.bootstrapped(
            dataset,
            graph,
            config,
            network=network,
            reliability=ReliabilityPolicy(
                max_attempts=4, crash_after=2, max_reforms=3
            ),
        )
        served = aborted = 0
        for host in range(12):
            if host == 7:
                continue
            try:
                session.request(host)
                served += 1
            except ProtocolAbort:
                aborted += 1
        return session, served, aborted

    def test_every_protocol_event_is_attributed(self, recorder, faulted_world):
        session, served, aborted = self._serve(faulted_world)
        events = recorder.events()
        stats = session.network.stats
        assert stats.unattributed == 0
        assert all(e.trace_id is not None for e in events)
        kinds = {}
        for event in events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        assert kinds[trace.EVT_REQUEST_START] == served + aborted
        assert kinds[trace.EVT_REQUEST_END] == served + aborted
        assert kinds[trace.EVT_MESSAGE] == stats.sent
        assert kinds.get(trace.EVT_RETRY, 0) == session.transport.retries
        assert aborted >= 1 and kinds[trace.EVT_ABORT] == aborted
        starts = [e for e in events if e.kind == trace.EVT_REQUEST_START]
        assert len({e.trace_id for e in starts}) == served + aborted

    def test_abort_events_name_their_request(self, recorder, faulted_world):
        _session, _served, aborted = self._serve(faulted_world)
        aborts = [
            e for e in recorder.events() if e.kind == trace.EVT_ABORT
        ]
        assert len(aborts) == aborted
        for event in aborts:
            assert event.fields["reason"]
            ends = [
                e
                for e in recorder.events(event.trace_id)
                if e.kind == trace.EVT_REQUEST_END
            ]
            assert len(ends) == 1
            assert ends[0].fields["status"] == f"abort:{event.fields['reason']}"


class TestJsonlAndCli:
    def _export(self, recorder, tmp_path):
        with trace.request_scope():
            recorder.record(trace.EVT_REQUEST_START, host=9)
            recorder.record(
                trace.EVT_MESSAGE,
                kind="verify_bound",
                sender=9,
                recipient=4,
                leg="request",
                dropped=False,
                deduped=False,
            )
            recorder.record(trace.EVT_REQUEST_END, host=9, status="ok")
        with trace.request_scope():
            recorder.record(trace.EVT_REQUEST_START, host=5)
            recorder.record(
                trace.EVT_REQUEST_END, host=5, status="abort:below_k"
            )
        return trace.export_jsonl(tmp_path / "t.jsonl")

    def test_round_trip_preserves_every_event(self, recorder, tmp_path):
        path = self._export(recorder, tmp_path)
        meta, spans, events = trace.load_jsonl(path)
        assert meta["schema"] == trace.TRACE_SCHEMA
        assert meta["events"] == len(events) == 5
        assert meta["events_dropped"] == 0
        original = recorder.events()
        for row, event in zip(events, original):
            assert row["trace_id"] == event.trace_id
            assert row["kind"] == event.kind
            assert row["fields"] == event.fields

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"type": "meta", "schema": "nope/v9"}) + "\n")
        with pytest.raises(ConfigurationError, match="schema"):
            trace.load_jsonl(bad)

    def test_summary_golden(self, recorder, tmp_path, capsys):
        path = self._export(recorder, tmp_path)
        assert trace_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert (
            "trace/v1: 2 trace(s), 5 event(s), 0 span record(s), "
            "0 dropped, 0 unattributed" in out
        )
        assert "abort:below_k" in out
        assert "slowest 2 trace(s):" in out

    def test_waterfall_golden(self, recorder, tmp_path, capsys):
        path = self._export(recorder, tmp_path)
        first = recorder.events()[0].trace_id
        assert trace_main([str(path), "--trace", str(first)]) == 0
        out = capsys.readouterr().out
        assert f"trace #{first}" in out
        assert "status ok" in out
        assert "· request_start  host=9" in out
        assert "messages by kind: verify_bound=1" in out

    def test_slowest_renders_some_waterfall(self, recorder, tmp_path, capsys):
        path = self._export(recorder, tmp_path)
        assert trace_main([str(path), "--slowest"]) == 0
        assert "trace #" in capsys.readouterr().out

    def test_json_mode_is_schema_tagged(self, recorder, tmp_path, capsys):
        path = self._export(recorder, tmp_path)
        assert trace_main([str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == trace.TRACE_SCHEMA
        assert len(payload["traces"]) == 2
        statuses = {t["status"] for t in payload["traces"]}
        assert statuses == {"ok", "abort:below_k"}

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert trace_main([str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_spans_export_alongside_events(
        self, recorder, metrics, tmp_path
    ):
        with trace.request_scope():
            with obs.span(metric.SPAN_REQUEST):
                recorder.record(trace.EVT_CACHE_MISS, host=0)
        path = trace.export_jsonl(tmp_path / "t.jsonl")
        _meta, spans, events = trace.load_jsonl(path)
        assert [s["name"] for s in spans] == [metric.SPAN_REQUEST]
        # The span adopted the request scope's id: one correlated trace.
        assert spans[0]["trace_id"] == events[0]["trace_id"]


class TestExemplarsAndTails:
    def test_exemplars_attach_under_active_trace(self, recorder, metrics):
        hist = metrics.histogram("demo.latency", track_tails=True)
        with trace.request_scope() as tid:
            hist.observe(0.004)
        hist.observe(7.0)  # outside any scope: no exemplar
        snapshot = obs.snapshot(metrics)["histograms"]["demo.latency"]
        exemplars = snapshot["exemplars"]
        assert any(
            entry["trace_id"] == tid and entry["value"] == 0.004
            for entry in exemplars.values()
        )
        tails = snapshot["tails"]
        assert tails["exact"] is True
        assert tails["samples"] == 2
        assert tails["p99"]["value"] == 7.0
        assert tails["p50"]["trace_id"] == tid

    def test_span_stats_always_track_tails(self, recorder, metrics):
        with trace.request_scope() as tid:
            with obs.span(metric.SPAN_REQUEST):
                pass
        tails = obs.snapshot(metrics)["spans"][metric.SPAN_REQUEST]["tails"]
        assert tails["exact"] is True
        assert tails["p99"]["trace_id"] == tid

    def test_report_renders_tail_latencies(
        self, recorder, metrics, tmp_path, capsys
    ):
        with trace.request_scope():
            with obs.span(metric.SPAN_REQUEST):
                pass
        snapshot_path = tmp_path / "snap.json"
        obs.write_snapshot(snapshot_path, registry=metrics)
        assert report_main([str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "tail latencies" in out
        assert "p99" in out and "trace #" in out

    def test_conflicting_bounds_rejected(self, metrics):
        metrics.histogram("demo.h", bounds=(1.0, 2.0))
        metrics.histogram("demo.h", bounds=(1.0, 2.0))  # identical: fine
        with pytest.raises(ConfigurationError, match="bounds"):
            metrics.histogram("demo.h", bounds=(1.0, 3.0))

    def test_reservoir_overflow_marks_inexact(self, metrics):
        from repro.obs.registry import RESERVOIR_CAPACITY

        hist = metrics.histogram("demo.big", track_tails=True)
        for index in range(RESERVOIR_CAPACITY + 10):
            hist.observe(float(index))
        tails = hist.tails()
        assert tails["exact"] is False
        assert tails["samples"] == RESERVOIR_CAPACITY
