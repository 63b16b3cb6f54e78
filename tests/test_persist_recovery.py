"""Crash/warm-restart equivalence: restore is bit-identical, everywhere.

The suite drives a persisted :class:`CloakingEngine` and an
uninterrupted twin through identical serve + churn workloads and kills
the persisted one at adversarial points:

* at **every journal boundary** of the schedule (crash after batch 0,
  after batch 1, ...),
* **mid-record**, by truncating the write-ahead log at raw byte
  offsets inside the last appended frame (a torn tail must be
  discarded, never guessed at),
* inside the **checkpoint window** — snapshot committed, journal not
  yet truncated — where the monotonic-seq guard must skip the
  already-covered records on replay.

After each crash the engine restored from the store must match the
reference exactly: same WPG (float weights bit for bit), same cached
regions, same registry, same dataset positions, and the same answers
to the same requests going forward.
"""

from __future__ import annotations

import random

import pytest

from repro.cloaking.engine import CloakingEngine
from repro.cloaking.p2p_engine import P2PCloakingSession
from repro.config import SimulationConfig
from repro.datasets import uniform_points
from repro.datasets.base import MutablePointDataset
from repro.errors import ClusteringError, ConfigurationError, PersistError
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast
from repro.network import (
    PeerNetwork,
    ReliabilityPolicy,
    export_ledgers,
    import_ledgers,
    populate_network,
)
from repro.persist import ChurnJournal, PersistentStore
from repro.verify.invariants import graph_equality_details

USERS = 60
CONFIG = SimulationConfig(
    user_count=USERS, delta=0.16, max_peers=6, k=3, seed=7
)


def _fresh_parts():
    dataset = uniform_points(USERS, seed=7)
    graph = build_wpg_fast(dataset, CONFIG.delta, CONFIG.max_peers)
    return dataset, graph


def make_engine(**kwargs) -> CloakingEngine:
    dataset, graph = _fresh_parts()
    return CloakingEngine(
        MutablePointDataset.from_dataset(dataset), graph, CONFIG, **kwargs
    )


def make_batches(count: int = 5, movers: int = 8) -> list:
    rng = random.Random(99)
    batches = []
    for _ in range(count):
        users = rng.sample(range(USERS), movers)
        batches.append(
            [
                (user, Point(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)))
                for user in users
            ]
        )
    return batches


def serve(engine: CloakingEngine, hosts) -> list:
    outcomes = []
    for host in hosts:
        try:
            result = engine.request(host)
            outcomes.append(
                (
                    "ok",
                    tuple(sorted(result.cluster.members)),
                    result.region.rect,
                    result.region_from_cache,
                )
            )
        except ClusteringError as exc:
            outcomes.append(("err", str(exc)))
    return outcomes


def assert_engines_equal(restored: CloakingEngine, reference: CloakingEngine):
    details = graph_equality_details(
        restored.graph, reference.graph, "restored", "reference"
    )
    assert not details, details
    assert restored.cached_regions() == reference.cached_regions()
    reg_a, reg_b = restored.clustering.registry, reference.clustering.registry
    assert [sorted(reg_a.cluster_by_id(c)) for c in range(len(reg_a))] == [
        sorted(reg_b.cluster_by_id(c)) for c in range(len(reg_b))
    ]
    assert restored.dataset.points == reference.dataset.points
    tree_a = getattr(restored.clustering, "tree", None)
    tree_b = getattr(reference.clustering, "tree", None)
    if tree_a is not None and tree_b is not None:
        assert sorted(tree_a.node_signatures()) == sorted(
            tree_b.node_signatures()
        )


class TestCrashAtEveryJournalBoundary:
    @pytest.mark.parametrize("flavor", ["distributed", "centralized", "tree"])
    def test_every_boundary_restores_bit_identical(self, tmp_path, flavor):
        batches = make_batches()
        hosts = list(range(0, USERS, 5))
        for boundary in range(len(batches) + 1):
            root = tmp_path / f"{flavor}-{boundary}"
            kwargs = (
                {"clustering": "tree"}
                if flavor == "tree"
                else {"mode": flavor}
            )
            live = make_engine(**kwargs)
            reference = make_engine(**kwargs)
            live.enable_persistence(PersistentStore(root))
            assert serve(live, hosts) == serve(reference, hosts)
            live.checkpoint()
            for batch in batches[:boundary]:
                live.apply_moves(batch)
                reference.apply_moves(batch)
            live.disable_persistence()  # crash at the boundary

            restored = CloakingEngine.restore(PersistentStore(root))
            assert_engines_equal(restored, reference)
            # The restored engine must also BEHAVE identically from here.
            for batch in batches[boundary:]:
                restored.apply_moves(batch)
                reference.apply_moves(batch)
            assert serve(restored, hosts) == serve(reference, hosts)
            assert_engines_equal(restored, reference)
            restored.disable_persistence()


class TestOlderSnapshots:
    def test_tree_columns_of_older_snapshots_are_ignored(self, tmp_path):
        """Snapshots once stored the cluster tree as ``tree_*`` columns.
        The tree is derived from the graph, so a restore ignores them:
        with or without them the restored engines are identical."""
        import numpy as np

        live = make_engine(clustering="tree")
        hosts = list(range(0, USERS, 5))
        serve(live, hosts)
        for batch in make_batches(count=2):
            live.apply_moves(batch)
        arrays, meta = live.snapshot_state()
        assert not any(key.startswith("tree_") for key in arrays)
        # The column layout older snapshots carried, one entry per
        # component tree.
        columns = list(live.clustering.tree.component_columns())
        legacy = {
            "comp_ids": range(len(columns)),
            "node_indptr": np.cumsum([0] + [len(c[0]) for c in columns]),
            "parent": [p for c in columns for p in c[0]],
            "weight": [w for c in columns for w in c[1]],
            "size": [z for c in columns for z in c[2]],
            "leaf_lo": [lo for c in columns for lo in c[3]],
            "leaf_order": [v for c in columns for v in c[4]],
            "next_id": [len(columns)],
        }
        older = dict(arrays)
        for key, value in legacy.items():
            dtype = float if key == "weight" else np.int64
            older[f"tree_{key}"] = np.asarray(list(value), dtype=dtype)
        PersistentStore(tmp_path / "new").checkpoint(0, arrays, meta)
        PersistentStore(tmp_path / "old").checkpoint(0, older, meta)

        restored = CloakingEngine.restore(PersistentStore(tmp_path / "new"))
        from_older = CloakingEngine.restore(PersistentStore(tmp_path / "old"))
        assert_engines_equal(from_older, restored)
        assert_engines_equal(from_older, live)
        for batch in make_batches(count=2, movers=5):
            restored.apply_moves(batch)
            from_older.apply_moves(batch)
        assert serve(from_older, range(USERS)) == serve(restored, range(USERS))
        assert_engines_equal(from_older, restored)
        restored.disable_persistence()
        from_older.disable_persistence()


class TestTornTail:
    def _persisted_store(self, tmp_path, batches):
        """A store holding a checkpoint + every batch in the journal."""
        live = make_engine()
        live.enable_persistence(PersistentStore(tmp_path / "store"))
        serve(live, range(0, USERS, 5))
        live.checkpoint()
        for batch in batches:
            live.apply_moves(batch)
        live.disable_persistence()
        return tmp_path / "store"

    def test_truncation_at_every_byte_of_last_record(self, tmp_path):
        """Cut the journal anywhere inside the final frame: the intact
        prefix replays, the torn suffix is discarded without error."""
        batches = make_batches(count=3, movers=4)
        root = self._persisted_store(tmp_path, batches)
        journal = root / "journal.wal"
        pristine = journal.read_bytes()

        # Find the last record's start by walking the frames.
        records = ChurnJournal(journal).records()
        assert len(records) == len(batches)
        sizes = []
        probe = ChurnJournal(tmp_path / "probe.wal")
        for record in records:
            sizes.append(probe.append(record.seq, list(record.moves)))
        probe.close()
        last_start = len(pristine) - sizes[-1]

        reference = make_engine()
        serve(reference, range(0, USERS, 5))
        for batch in batches[:-1]:
            reference.apply_moves(batch)

        for cut in range(last_start + 1, len(pristine)):
            journal.write_bytes(pristine[:cut])
            restored = CloakingEngine.restore(PersistentStore(root))
            assert_engines_equal(restored, reference)
            restored.disable_persistence()

    def test_garbage_tail_is_discarded(self, tmp_path):
        batches = make_batches(count=2, movers=4)
        root = self._persisted_store(tmp_path, batches)
        with open(root / "journal.wal", "ab") as handle:
            handle.write(b"\xff\x13\x00\x00 not a frame")

        reference = make_engine()
        serve(reference, range(0, USERS, 5))
        for batch in batches:
            reference.apply_moves(batch)
        restored = CloakingEngine.restore(PersistentStore(root))
        assert_engines_equal(restored, reference)
        restored.disable_persistence()

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        """A CRC-valid but undecodable record mid-file is tampering, not
        a torn tail — the journal refuses to guess."""
        journal = ChurnJournal(tmp_path / "j.wal")
        journal.append(1, [(0, Point(0.1, 0.2))])
        import json as _json
        import struct as _struct
        import zlib as _zlib

        payload = _json.dumps({"wrong": "shape"}).encode()
        with open(tmp_path / "j.wal", "ab") as handle:
            handle.write(_struct.pack("<II", len(payload), _zlib.crc32(payload)))
            handle.write(payload)
        journal.append(2, [(1, Point(0.3, 0.4))])
        with pytest.raises(PersistError):
            ChurnJournal(tmp_path / "j.wal").records()


class TestCheckpointCrashWindow:
    def test_snapshot_committed_journal_not_truncated(self, tmp_path):
        """Crash between snapshot commit and journal truncation: replay
        must skip every record the snapshot already covers."""
        batches = make_batches(count=4, movers=5)
        live = make_engine()
        reference = make_engine()
        store = PersistentStore(tmp_path / "store")
        live.enable_persistence(store)
        hosts = list(range(0, USERS, 4))
        assert serve(live, hosts) == serve(reference, hosts)
        for batch in batches[:2]:
            live.apply_moves(batch)
            reference.apply_moves(batch)
        # The checkpoint's first half only: snapshot lands, journal keeps
        # seqs 1..2 that the snapshot covers.
        store.write_snapshot(live.journal_seq, *live.snapshot_state())
        for batch in batches[2:]:
            live.apply_moves(batch)
            reference.apply_moves(batch)
        live.disable_persistence()

        restored = CloakingEngine.restore(PersistentStore(tmp_path / "store"))
        assert restored.journal_seq == reference_seq_of(batches)
        assert_engines_equal(restored, reference)
        assert serve(restored, hosts) == serve(reference, hosts)
        restored.disable_persistence()

    def test_rotation_restores_newest(self, tmp_path):
        batches = make_batches(count=3, movers=5)
        live = make_engine()
        reference = make_engine()
        live.enable_persistence(PersistentStore(tmp_path / "store"))
        hosts = list(range(0, USERS, 4))
        assert serve(live, hosts) == serve(reference, hosts)
        for batch in batches:
            live.apply_moves(batch)
            reference.apply_moves(batch)
            live.checkpoint()
        live.disable_persistence()
        snapshots = sorted((tmp_path / "store" / "snapshots").iterdir())
        assert len(snapshots) == 2  # KEEP_SNAPSHOTS prunes the rest
        restored = CloakingEngine.restore(PersistentStore(tmp_path / "store"))
        assert_engines_equal(restored, reference)
        restored.disable_persistence()


def reference_seq_of(batches) -> int:
    """Journal seqs are 1-based and one per non-empty batch."""
    return len(batches)


class TestRestoreRefusals:
    def test_empty_store(self, tmp_path):
        with pytest.raises(PersistError):
            CloakingEngine.restore(PersistentStore(tmp_path / "empty"))

    def test_corrupt_snapshot_arrays(self, tmp_path):
        live = make_engine()
        live.enable_persistence(PersistentStore(tmp_path / "store"))
        live.checkpoint()
        live.disable_persistence()
        [snap] = (tmp_path / "store" / "snapshots").iterdir()
        blob = bytearray((snap / "state.npz").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (snap / "state.npz").write_bytes(bytes(blob))
        with pytest.raises(PersistError, match="corrupt"):
            CloakingEngine.restore(PersistentStore(tmp_path / "store"))

    def test_tuning_block_refused(self, tmp_path):
        # Engines with proactive region sharing on wrote their per-member
        # slots under meta["tuning"]; a restore must not drop them quietly.
        arrays, meta = make_engine().snapshot_state()
        meta["tuning"] = {"policy": {"k_floor": 3}, "slots": []}
        store = PersistentStore(tmp_path / "store")
        store.checkpoint(0, arrays, meta)
        with pytest.raises(PersistError, match="tuning"):
            CloakingEngine.restore(store)

    def test_custom_policy_refused(self):
        engine = make_engine(policy=lambda rect, area: rect)
        with pytest.raises(PersistError):
            engine.enable_persistence(None)

    def test_custom_clustering_refused(self, tmp_path):
        from repro.clustering.distributed import DistributedClustering

        dataset, graph = _fresh_parts()
        service = DistributedClustering(graph, CONFIG.k)
        engine = CloakingEngine(dataset, graph, CONFIG, clustering=service)
        with pytest.raises(PersistError):
            engine.enable_persistence(PersistentStore(tmp_path / "s"))

    def test_duplicate_ids_never_reach_the_journal(self, tmp_path):
        engine = make_engine()
        store = PersistentStore(tmp_path / "store")
        engine.enable_persistence(store)
        engine.apply_moves([(1, Point(0.5, 0.5))])
        with pytest.raises(ConfigurationError):
            engine.apply_moves(
                [(2, Point(0.1, 0.1)), (2, Point(0.2, 0.2))]
            )
        assert len(store.journal.records()) == 1
        engine.disable_persistence()


class TestReliabilityEngines:
    """Reliability snapshots of older engines are refused; disclosure
    ledgers round-trip on the message-level session's devices."""

    @staticmethod
    def _served_devices() -> dict:
        dataset, graph = _fresh_parts()
        network = PeerNetwork()
        devices = populate_network(network, graph, list(dataset.points))
        session = P2PCloakingSession(
            network, graph, dataset, CONFIG,
            reliability=ReliabilityPolicy(seed=5),
        )
        serve(session, range(0, USERS, 6))
        return devices

    def test_ledgers_snapshot_and_refused_restore(self, tmp_path):
        # Engines that served through a reliability session wrote this
        # flavor and the devices' ledgers into their snapshots.
        engine = make_engine()
        serve(engine, range(0, USERS, 6))
        arrays, meta = engine.snapshot_state()
        meta["engine"].update(clustering="reliable", reliability=True)
        meta["ledgers"] = export_ledgers(self._served_devices())
        store = PersistentStore(tmp_path / "store")
        store.checkpoint(engine.journal_seq, arrays, meta)
        with pytest.raises(PersistError, match="reliability"):
            CloakingEngine.restore(store)
        store.close()

    def test_ledger_roundtrip_restores_disclosures(self):
        exported = export_ledgers(self._served_devices())
        assert exported["format"] == "device-ledgers-v1"
        assert any(entry["questions"] for entry in exported["devices"].values())
        dataset, graph = _fresh_parts()
        twin = populate_network(PeerNetwork(), graph, list(dataset.points))
        import_ledgers(twin, exported)
        assert export_ledgers(twin) == exported
