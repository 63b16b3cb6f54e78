"""Protocol robustness: backpressure, malformed frames, clean shutdown.

Three contracts from ISSUE 9, each pinned at the layer that owns it:

* **bounded admission** — when ``queue_capacity`` requests are in
  flight the next caller gets a typed
  :class:`~repro.errors.ServiceOverload` immediately; nothing hangs and
  nothing is silently dropped, and capacity freed by completions is
  usable again;
* **a worker is unkillable by input** — bad JSON, non-object JSON,
  unknown ops, mis-typed fields, unowned hosts and oversized length
  declarations all come back as typed error frames on a live loop;
  only a truncated frame (peer died mid-write) or clean EOF ends it;
* **shutdown drains** — ``close()`` lets in-flight work finish and
  answers late callers with a typed error instead of a hang.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.errors import ServiceError, ServiceOverload, WireFormatError
from repro.network.frames import read_frame, send_frame
from repro.service import CloakingService, ServiceSpec, build_engine
from repro.service.frontend import BackgroundFrontend
from repro.service.shards import ShardMap
from repro.service.worker import ShardServer, serve

SPEC = ServiceSpec.synthetic(
    users=120, seed=9, kind="uniform", delta=0.08, k=3, shards=1,
    queue_capacity=2,
)


# -- in-process op handler ------------------------------------------------------------


@pytest.fixture(scope="module")
def server() -> ShardServer:
    engine = build_engine(SPEC)
    return ShardServer(0, engine, ShardMap(1, SPEC.delta), range(120))


def _error_type(reply: dict) -> str:
    assert reply["status"] == "error"
    return reply["error"]["type"]


def test_unknown_op_is_a_typed_error(server):
    reply, keep = server.handle({"op": "frobnicate", "id": 3})
    assert _error_type(reply) == "WireFormatError"
    assert reply["id"] == 3
    assert keep


def test_missing_op_is_a_typed_error(server):
    reply, keep = server.handle({"id": 4})
    assert _error_type(reply) == "WireFormatError"
    assert keep


def test_mistyped_host_is_a_typed_error(server):
    for bad in ("7", None, 3.5, True, [7]):
        reply, _ = server.handle({"op": "request", "host": bad, "id": 1})
        assert _error_type(reply) == "WireFormatError", bad


def test_unowned_host_is_a_typed_error(server):
    reply, _ = server.handle({"op": "request", "host": 500, "id": 2})
    assert _error_type(reply) == "ServiceError"
    assert "not owned" in reply["error"]["message"]


def test_cloaking_failure_is_an_outcome_not_an_error():
    # A deliberately sparse world: most users sit in components smaller
    # than k, so their requests fail *as cloaking outcomes*.
    sparse = ServiceSpec.synthetic(
        users=40, seed=1, kind="uniform", delta=0.02, k=8, shards=1
    )
    engine = build_engine(sparse)
    sparse_server = ShardServer(0, engine, ShardMap(1, sparse.delta), range(40))
    failures = 0
    for host in range(40):
        reply, _ = sparse_server.handle({"op": "request", "host": host, "id": host})
        assert reply["status"] == "ok"
        outcome = reply["outcome"]
        if not outcome["ok"]:
            failures += 1
            assert outcome["error"]["type"]
            assert outcome["host"] == host
    assert failures > 0, "expected at least one under-k component"


def test_spec_refuses_a_tuning_policy_but_loads_a_null_one():
    payload = SPEC.to_dict()
    assert ServiceSpec.from_dict({**payload, "tuning": None}) == SPEC
    with pytest.raises(ServiceError, match="tuning"):
        ServiceSpec.from_dict({**payload, "tuning": {"k_floor": 3}})


# -- the frame loop over a real socket ------------------------------------------------

MAX_FRAME = 4096


@pytest.fixture()
def live_loop():
    engine = build_engine(SPEC)
    worker = ShardServer(0, engine, ShardMap(1, SPEC.delta), range(120))
    ours, theirs = socket.socketpair()
    thread = threading.Thread(
        target=serve, args=(theirs, worker, MAX_FRAME), daemon=True
    )
    thread.start()
    yield ours, thread
    ours.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def _send_raw(sock: socket.socket, body: bytes) -> None:
    sock.sendall(struct.pack(">I", len(body)) + body)


def test_bad_json_gets_a_reply_and_the_loop_survives(live_loop):
    sock, _ = live_loop
    _send_raw(sock, b"{this is not json")
    reply = read_frame(sock, MAX_FRAME)
    assert reply["status"] == "error"
    assert reply["error"]["type"] == "WireFormatError"
    # The loop is still serving:
    send_frame(sock, {"op": "ping", "id": 5}, MAX_FRAME)
    assert read_frame(sock, MAX_FRAME)["status"] == "ok"


def test_non_object_json_gets_a_reply_and_the_loop_survives(live_loop):
    sock, _ = live_loop
    _send_raw(sock, json.dumps([1, 2, 3]).encode())
    assert read_frame(sock, MAX_FRAME)["error"]["type"] == "WireFormatError"
    send_frame(sock, {"op": "ping", "id": 6}, MAX_FRAME)
    assert read_frame(sock, MAX_FRAME)["status"] == "ok"


def test_oversized_frame_resyncs_without_killing_the_worker(live_loop):
    sock, _ = live_loop
    oversized = b"x" * (MAX_FRAME + 100)
    sock.sendall(struct.pack(">I", len(oversized)) + oversized)
    reply = read_frame(sock, MAX_FRAME)
    assert reply["status"] == "error"
    assert reply["error"]["type"] == "FrameTooLarge"
    # The worker discarded the declared bytes and resynced at the next
    # frame boundary:
    send_frame(sock, {"op": "ping", "id": 7}, MAX_FRAME)
    assert read_frame(sock, MAX_FRAME)["status"] == "ok"


def test_truncated_frame_exits_the_loop_cleanly(live_loop):
    sock, thread = live_loop
    sock.sendall(struct.pack(">I", 64) + b"only ten b")
    sock.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def test_clean_eof_exits_the_loop(live_loop):
    sock, thread = live_loop
    send_frame(sock, {"op": "ping", "id": 1}, MAX_FRAME)
    assert read_frame(sock, MAX_FRAME)["status"] == "ok"
    sock.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


# -- backpressure and shutdown through the real multi-process service -----------------


def test_queue_full_is_typed_overload_not_a_hang_or_drop():
    with CloakingService(SPEC) as service:
        first = service.stall(0, 0.5)
        second = service.stall(0, 0.5)
        started = time.perf_counter()
        with pytest.raises(ServiceOverload, match="admission queue full"):
            service.request(0)
        # Rejection was immediate — backpressure, not queueing.
        assert time.perf_counter() - started < 0.4
        # Nothing was dropped: the stalled work completes...
        assert first.result(timeout=10.0)["status"] == "ok"
        assert second.result(timeout=10.0)["status"] == "ok"
        # ...and freed capacity serves the retry.
        outcome = service.request(0)
        assert outcome["host"] == 0


def test_shutdown_drains_in_flight_work():
    service = CloakingService(SPEC)
    pending = service.stall(0, 0.4)
    service.close()
    # close() waited for the in-flight op instead of dropping it.
    assert pending.result(timeout=1.0)["status"] == "ok"
    with pytest.raises(ServiceError, match="closed"):
        service.request(0)


def test_close_is_idempotent():
    service = CloakingService(SPEC)
    service.close()
    service.close()


def test_churn_barriers_run_one_at_a_time():
    """A second ``apply_moves`` waits until the first barrier reopens
    the gate, then runs; both batches land, in call order."""
    spec = ServiceSpec.synthetic(
        users=120, seed=9, kind="uniform", delta=0.08, k=3, shards=2
    )
    with CloakingService(spec) as service:
        barrier = service._barrier
        entered: list[list[int]] = []
        first_inside = threading.Event()
        release_first = threading.Event()

        def held_barrier(batch):
            entered.append([user for user, _ in batch])
            if len(entered) == 1:
                first_inside.set()
                release_first.wait(timeout=30.0)
            return barrier(batch)

        service._barrier = held_barrier
        summaries: dict[str, dict] = {}

        def churn(name: str, moves: list) -> None:
            summaries[name] = service.apply_moves(moves)

        first = threading.Thread(target=churn, args=("first", [(5, 0.21, 0.22)]))
        second = threading.Thread(target=churn, args=("second", [(5, 0.61, 0.62)]))
        first.start()
        try:
            assert first_inside.wait(timeout=30.0)
            second.start()
            time.sleep(0.3)
            # The first barrier is still open: the second must wait outside.
            assert entered == [[5]]
        finally:
            release_first.set()
            first.join(timeout=30.0)
            if second.ident is not None:  # started
                second.join(timeout=30.0)
        assert entered == [[5], [5]]
        assert summaries["first"]["moved"] == summaries["second"]["moved"] == 1
        # The later call's move is the one that stands.
        point = service._mirror.dataset[5]
        assert (point.x, point.y) == (0.61, 0.62)
        assert service.request(5)["host"] == 5


def test_concurrent_churn_callers_never_overlap():
    """Four threads churning at once, with a short switch interval:
    no two barriers are ever inside at the same time, and every batch
    lands."""
    spec = ServiceSpec.synthetic(
        users=120, seed=9, kind="uniform", delta=0.08, k=3, shards=2
    )
    with CloakingService(spec) as service:
        barrier = service._barrier
        lock = threading.Lock()
        inside = [0]
        seen: list[int] = []
        errors: list[BaseException] = []

        def counted_barrier(batch):
            with lock:
                inside[0] += 1
                seen.append(inside[0])
            try:
                return barrier(batch)
            finally:
                with lock:
                    inside[0] -= 1

        def churn(user: int) -> None:
            try:
                for step in range(5):
                    service.apply_moves([(user, 0.1 + 0.2 * user, 0.1 * (step + 1))])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        service._barrier = counted_barrier
        threads = [threading.Thread(target=churn, args=(user,)) for user in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(seen) == 20 and max(seen) == 1
        for user in range(4):
            point = service._mirror.dataset[user]
            assert (point.x, point.y) == (0.1 + 0.2 * user, 0.1 * 5)


# -- the TCP front door ----------------------------------------------------------------


def _rpc(sock: socket.socket, payload: dict) -> dict:
    body = json.dumps(payload).encode()
    sock.sendall(struct.pack(">I", len(body)) + body)
    return _read_reply(sock)


def _read_reply(sock: socket.socket) -> dict:
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        assert chunk, "connection closed before a reply"
        header += chunk
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        body += sock.recv(length - len(body))
    return json.loads(body)


def test_frontend_survives_malformed_json_and_closes_on_oversize():
    with CloakingService(SPEC) as service, BackgroundFrontend(service) as addr:
        with socket.create_connection(addr) as sock:
            # Malformed body: typed reply, connection keeps serving.
            sock.sendall(struct.pack(">I", 9) + b"not json!")
            assert _read_reply(sock)["error"]["type"] == "WireFormatError"
            reply = _rpc(sock, {"op": "request", "host": 3, "id": 1})
            assert reply["status"] == "ok"
            # Unknown op: typed reply, still serving.
            assert _rpc(sock, {"op": "nope", "id": 2})["status"] == "error"
        with socket.create_connection(addr) as sock:
            # Oversized declaration: typed reply, then the server hangs
            # up (an untrusted stream has no resync point).
            sock.sendall(struct.pack(">I", 1 << 30))
            reply = _read_reply(sock)
            assert reply["status"] == "error"
            assert reply["error"]["type"] == "WireFormatError"
            assert sock.recv(4) == b""


def test_frontend_propagates_typed_service_errors():
    with CloakingService(SPEC) as service, BackgroundFrontend(service) as addr:
        with socket.create_connection(addr) as sock:
            reply = _rpc(sock, {"op": "request", "host": 10_000, "id": 1})
            assert reply["status"] == "error"
            assert reply["error"]["type"] == "ServiceError"
