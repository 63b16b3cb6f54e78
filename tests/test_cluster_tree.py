"""The persistent bottleneck cluster tree vs the throwaway dendrogram math.

Every query the tree answers has an existing reference implementation —
the literal Algorithm 1 oracles, the level-scan oracles, the exhaustive
isolation sweep — and each test here pins the tree to one of them, on
hand-checkable fixtures and on randomized graphs.  The churn tests drive
:meth:`ClusterTree.apply_patch` with real :class:`IncrementalWPG` patches
and compare node signatures against a from-scratch build.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.datasets import uniform_points
from repro.datasets.california import california_like_poi
from repro.errors import GraphError
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast
from repro.graph.cluster_tree import ClusterTree
from repro.graph.incremental import IncrementalWPG
from repro.graph.wpg import WeightedProximityGraph
from repro.spatial.grid import GridIndex
from repro.verify.oracles import (
    oracle_greedy_partition,
    oracle_isolation_violations,
    oracle_kruskal_forest,
    oracle_ordered_partition,
    oracle_smallest_cluster,
    oracle_strict_partition,
    oracle_tree_columns,
)


def canonical(groups):
    """Order-free partition form (never sort sets: subset partial order)."""
    return sorted(tuple(sorted(group)) for group in groups)


def random_graph(rng: random.Random, n: int, density: float) -> WeightedProximityGraph:
    graph = WeightedProximityGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.randint(1, 6)))
    return graph


# -- hand-checkable fixture ----------------------------------------------------


class TestTwoBlobs:
    def test_partitions_and_lookup(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        assert tree.component_count == 1
        assert tree.vertex_count == 8
        # k=4 splits at the bridge, k=5 cannot.
        assert canonical(tree.strict_partition(4)) == [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
        ]
        assert canonical(tree.strict_partition(5)) == [tuple(range(8))]
        cluster, t = tree.smallest_valid_cluster(0, 4)
        assert cluster == frozenset({0, 1, 2, 3})
        assert t == 2.0
        cluster, t = tree.smallest_valid_cluster(0, 5)
        assert cluster == frozenset(range(8))
        assert t == 9.0

    def test_node_at_tracks_t(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        assert tree.leaves(tree.node_at(0, 2.0)) == frozenset({0, 1, 2, 3})
        assert tree.leaves(tree.node_at(0, 8.9)) == frozenset({0, 1, 2, 3})
        assert tree.leaves(tree.node_at(0, 9.0)) == frozenset(range(8))
        assert tree.leaves(tree.node_at(0, 0.5)) == frozenset({0})

    def test_isolation_bits(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        # Each blob is the other's only sibling; both hold >= 4 users.
        blob = tree.smallest_valid_node(0, 4)
        assert tree.is_isolated(blob, 4)
        # At k=5 the sibling blob is undersized, so neither is isolated
        # (an outside vertex resolves through the root).
        assert not tree.is_isolated(blob, 5)
        assert tree.is_isolated(tree.root_of(0), 5)

    def test_marks_propagate_to_ancestors(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        blob_a = tree.smallest_valid_node(0, 4)
        blob_b = tree.smallest_valid_node(4, 4)
        tree.mark([0, 1])
        tree.mark([1])  # idempotent
        assert tree.marked == frozenset({0, 1})
        assert tree.marked_below(blob_a) == 2
        assert tree.marked_below(blob_b) == 0
        assert tree.marked_below(tree.root_of(0)) == 2

    def test_node_partition_rejects_undersized_node(self, two_blobs_graph):
        tree = ClusterTree(two_blobs_graph)
        leaf = tree.leaf_of(0)
        with pytest.raises(GraphError):
            tree.node_partition(leaf, 2)


# -- randomized differentials --------------------------------------------------


def test_partitions_match_centralized_on_random_graphs():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 36)
        graph = random_graph(rng, n, rng.uniform(0.04, 0.3))
        tree = ClusterTree(graph)
        for k in (1, 2, 3, 5):
            if k > n:
                continue
            for method, ours, literal in (
                ("strict", tree.strict_partition, oracle_strict_partition),
                ("greedy", tree.greedy_partition, oracle_greedy_partition),
            ):
                assert canonical(ours(k)) == canonical(literal(graph, k)), (
                    seed,
                    k,
                    method,
                )


def test_smallest_valid_cluster_matches_level_scan_oracle():
    for seed in range(30):
        rng = random.Random(100 + seed)
        n = rng.randint(2, 30)
        graph = random_graph(rng, n, rng.uniform(0.04, 0.25))
        tree = ClusterTree(graph)
        k = rng.randint(1, 5)
        for vertex in range(n):
            scan = oracle_smallest_cluster(graph, vertex, k)
            walk = tree.smallest_valid_cluster(vertex, k)
            if scan is None:
                assert walk is None, (seed, vertex)
            else:
                assert walk is not None
                assert set(walk[0]) == set(scan[0]), (seed, vertex)
                assert walk[1] == scan[1], (seed, vertex)


def test_isolation_bits_match_removal_oracle():
    for seed in range(12):
        rng = random.Random(500 + seed)
        n = rng.randint(4, 18)
        graph = random_graph(rng, n, rng.uniform(0.1, 0.35))
        tree = ClusterTree(graph)
        k = rng.randint(2, 4)
        for vertex in range(n):
            node = tree.smallest_valid_node(vertex, k)
            while node is not None:
                leaves = set(tree.leaves(node))
                violators = oracle_isolation_violations(graph, leaves, k)
                assert tree.is_isolated(node, k) == (not violators), (
                    seed,
                    sorted(leaves),
                    violators,
                )
                node = tree.parent(node)


# -- churn maintenance ---------------------------------------------------------


def _signatures(tree: ClusterTree):
    return sorted(tree.node_signatures())


def test_apply_patch_equals_fresh_build_under_churn():
    for seed in range(8):
        rng = random.Random(900 + seed)
        n = rng.randint(20, 60)
        dataset = uniform_points(n, seed=seed)
        delta, max_peers = 0.18, 5
        graph = build_wpg_fast(dataset, delta, max_peers)
        grid = GridIndex(list(dataset), cell_size=delta)
        runtime = IncrementalWPG(grid, delta, max_peers, graph=graph)
        tree = ClusterTree(graph)
        tree.mark(range(min(5, n)))
        for _batch in range(6):
            size = rng.randint(1, 4)
            moves = [
                (user, Point(rng.random(), rng.random()))
                for user in rng.sample(range(n), size)
            ]
            patch = runtime.apply_moves(moves)
            tree.apply_patch(patch)
            assert _signatures(tree) == _signatures(ClusterTree(graph)), (
                seed,
                _batch,
            )
        # Marks survive the rebuilds on every ancestor counter.
        assert tree.marked == frozenset(range(min(5, n)))
        for vertex in tree.marked:
            node = tree.leaf_of(vertex)
            while node is not None:
                assert tree.marked_below(node) >= 1
                node = tree.parent(node)


def test_apply_patch_empty_patch_is_a_noop():
    graph = WeightedProximityGraph()
    for v in range(4):
        graph.add_vertex(v)
    graph.add_edge(0, 1, 1.0)
    grid = GridIndex([Point(0.1, 0.1)] * 4, cell_size=0.2)
    runtime = IncrementalWPG(grid, 0.2, 3)
    tree = ClusterTree(graph)
    before = _signatures(tree)
    assert tree.apply_patch(runtime.apply_moves([])) == 0
    assert _signatures(tree) == before


# -- exact layout: child order, forest order, ordered partitions ---------------


def layout_graph(rng: random.Random) -> WeightedProximityGraph:
    """Sparse ids, isolated vertices, non-consecutive float weights with
    many equal-weight ties (as in ``two_blobs_graph``)."""
    n = rng.randint(1, 45)
    ids = sorted(rng.sample(range(4 * n), n))
    levels = rng.sample([0.5, 1.0, 2.0, 2.5, 4.0, 9.0, 17.25], rng.randint(1, 4))
    graph = WeightedProximityGraph()
    for vertex in ids:
        graph.add_vertex(vertex)
    density = rng.uniform(0.02, 0.35)
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if rng.random() < density:
                graph.add_edge(u, v, rng.choice(levels))
    return graph


def assert_exact_layout(tree: ClusterTree, graph: WeightedProximityGraph, tag):
    """Per-component preorder columns and forest adjacency lists equal
    the dendrogram walk and the sequential constrained Kruskal scan."""
    ours = sorted(tree.component_columns(), key=lambda cols: min(cols[4]))
    reference = sorted(oracle_tree_columns(graph), key=lambda cols: min(cols[4]))
    assert len(ours) == len(reference), tag
    for got, want in zip(ours, reference):
        assert tuple(got) == want, tag
    forest = oracle_kruskal_forest(graph)
    for vertex in graph.vertices():
        assert tree.forest_neighbors(vertex) == forest[vertex], (tag, vertex)


def assert_ordered_node_partitions(tree: ClusterTree, graph, k: int, tag):
    """Every >= k node partitions exactly as the ordered Algorithm 1
    oracle on its leaves' induced subgraph, group order included."""
    for cols in tree.component_columns():
        root = tree.root_of(cols[4][0])
        for index, size in enumerate(cols[2]):
            if size < k:
                continue
            node = (root[0], index)
            leaves = tree.leaves(node)
            for method in ("strict", "greedy"):
                reference = oracle_ordered_partition(
                    graph.subgraph(leaves), k, method
                )
                assert list(tree.node_partition(node, k, method)) == [
                    frozenset(group) for group in reference
                ], (tag, sorted(leaves)[:6], method)


def test_layout_equals_dendrogram_on_random_graphs():
    for seed in range(120):
        rng = random.Random(2000 + seed)
        graph = layout_graph(rng)
        tree = ClusterTree(graph)
        assert_exact_layout(tree, graph, seed)
        assert_ordered_node_partitions(tree, graph, rng.randint(1, 4), seed)


def test_two_blobs_layout_is_exact(two_blobs_graph):
    tree = ClusterTree(two_blobs_graph)
    assert_exact_layout(tree, two_blobs_graph, "two blobs")
    assert_ordered_node_partitions(tree, two_blobs_graph, 2, "two blobs")


def test_layout_stays_exact_under_churn():
    for seed in range(10):
        rng = random.Random(3000 + seed)
        n = rng.randint(25, 70)
        dataset = uniform_points(n, seed=40 + seed)
        delta, max_peers = rng.choice([0.14, 0.2]), rng.choice([3, 5])
        graph = build_wpg_fast(dataset, delta, max_peers)
        grid = GridIndex(list(dataset), cell_size=delta)
        runtime = IncrementalWPG(grid, delta, max_peers, graph=graph)
        tree = ClusterTree(graph)
        k = rng.randint(2, 4)
        for batch in range(5):
            moves = [
                (user, Point(rng.random(), rng.random()))
                for user in rng.sample(range(n), rng.randint(1, 6))
            ]
            tree.apply_patch(runtime.apply_moves(moves))
            assert_exact_layout(tree, graph, (seed, batch))
            assert_ordered_node_partitions(tree, graph, k, (seed, batch))


def test_patch_rebuilds_exactly_the_stale_components():
    """Untouched component trees survive a patch as the same objects,
    with the same arrays and the same memos."""
    rng = random.Random(11)
    dataset = uniform_points(60, seed=3)
    graph = build_wpg_fast(dataset, 0.12, 4)
    grid = GridIndex(list(dataset), cell_size=0.12)
    runtime = IncrementalWPG(grid, 0.12, 4, graph=graph)
    tree = ClusterTree(graph)
    for _batch in range(4):
        tree.greedy_partition(2)  # fills every component's memos
        before = {
            comp_id: (component, component.parent, component.memo())
            for comp_id, component in tree._components.items()
        }
        patch = runtime.apply_moves(
            [(rng.randrange(60), Point(rng.random(), rng.random()))]
        )
        stale = {
            tree.root_of(vertex)[0]
            for edge in patch.changed_edges
            for vertex in edge
        }
        assert tree.apply_patch(patch) == len(stale)
        for comp_id, (component, parent, memo) in before.items():
            if comp_id in stale:
                assert comp_id not in tree._components
            else:
                assert tree._components[comp_id] is component
                assert component.parent is parent
                assert component.memo() is memo
                assert ("cut", 2) in memo


# -- marks and memory ----------------------------------------------------------


def assert_marks_match_definition(tree: ClusterTree, marked: set, tag):
    """Every node's counter is the number of marked vertices among its
    leaves, and ``marked`` is exactly what was marked."""
    assert tree.marked == frozenset(marked), tag
    for cols in tree.component_columns():
        comp_id = tree.root_of(cols[4][0])[0]
        for index in range(len(cols[0])):
            node = (comp_id, index)
            assert tree.marked_below(node) == len(tree.leaves(node) & marked), (
                tag,
                node,
            )


def test_mark_counts_match_their_definition_under_churn():
    """Overlapping mark batches (whole nodes, so siblings share parents;
    repeated and already-marked vertices; an unknown id), interleaved
    with patches that rebuild the marked components."""
    for seed in range(6):
        rng = random.Random(4000 + seed)
        n = rng.randint(30, 70)
        dataset = uniform_points(n, seed=70 + seed)
        graph = build_wpg_fast(dataset, 0.2, 4)
        grid = GridIndex(list(dataset), cell_size=0.2)
        runtime = IncrementalWPG(grid, 0.2, 4, graph=graph)
        tree = ClusterTree(graph)
        marked: set = set()
        for step in range(8):
            node = tree.node_at(rng.randrange(n), rng.choice([1.0, 2.0, 4.0]))
            batch = list(tree.leaves(node))[: rng.randint(2, 12)]
            batch += rng.sample(range(n), 3)
            batch += rng.sample(sorted(marked), min(3, len(marked)))
            batch += batch[:2]
            if step == 3:
                batch.append(10 * n)  # no such vertex: recorded, never counted
            rng.shuffle(batch)
            tree.mark(batch)
            marked.update(batch)
            assert_marks_match_definition(tree, marked, (seed, step, "mark"))
            moves = [
                (user, Point(rng.random(), rng.random()))
                for user in rng.sample(range(n), rng.randint(1, 5))
            ]
            tree.apply_patch(runtime.apply_moves(moves))
            assert_marks_match_definition(tree, marked, (seed, step, "patch"))


def _tracked_objects_added(action) -> int:
    """Net garbage-collector-tracked objects left behind by ``action``."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        action()
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


def test_tree_footprint_is_per_component_not_per_vertex():
    """A build or a patch leaves a small constant of Python containers
    per component it lays out, none per vertex or node: the tree lives
    in numpy arrays, which the collector does not track."""
    users = 3000
    delta = 2e-3 * (104_770 / users) ** 0.5
    dataset = california_like_poi(users, seed=5)
    graph = build_wpg_fast(dataset, delta, 10)
    grid = GridIndex(list(dataset), cell_size=delta)
    runtime = IncrementalWPG(grid, delta, 10, graph=graph)
    rng = random.Random(8)

    def patch():
        return runtime.apply_moves(
            [
                (user, Point(rng.random(), rng.random()))
                for user in sorted(rng.sample(range(users), 30))
            ]
        )

    # Warm-up: numpy imports some modules on first use of a function.
    ClusterTree(graph).apply_patch(patch())
    holder: list[ClusterTree] = []
    added = _tracked_objects_added(lambda: holder.append(ClusterTree(graph)))
    tree = holder[0]
    assert tree.component_count > 100
    assert added <= 2 * tree.component_count + 20, (added, tree.component_count)

    churn = patch()
    count = tree.component_count
    rebuilt: list[int] = []
    added = _tracked_objects_added(lambda: rebuilt.append(tree.apply_patch(churn)))
    built = tree.component_count - count + rebuilt[0]
    assert rebuilt[0] > 0
    assert added <= 2 * built + 20, (added, built)
