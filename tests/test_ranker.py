import math
import random

import numpy as np
import pytest

from linkrec import ranker
from linkrec.graphs import (
    ITEM,
    SESSION,
    TITEM,
    TUSER,
    USER,
    RecGraph,
    build_bip,
    build_lsg,
    build_stg,
)
from linkrec.ranker import (
    DEFAULT_TOL,
    certified_steps,
    item_matrix,
    item_scores,
    pagerank,
    pagerank_batch,
    personalization,
    personalization_matrix,
    recommend,
    step_count,
    transition_matrix,
)
from linkrec.tuning import GRID_ALPHA, ParamSetting

from conftest import make_stream


def two_node_cycle():
    return RecGraph(
        flavor="bip",
        nodes=frozenset({(USER, "a"), (ITEM, "b")}),
        edges={
            ((USER, "a"), (ITEM, "b")): 1.0,
            ((ITEM, "b"), (USER, "a")): 1.0,
        },
    )


def random_digraph(rng: random.Random, max_nodes: int = 50) -> RecGraph:
    """Arbitrary weighted digraph (dangling nodes likely), as a RecGraph."""
    n = rng.randint(2, max_nodes)
    density = rng.uniform(0.1, 0.5)
    nodes = [(USER, f"n{k}") for k in range(n)]
    edges = {}
    for src in nodes:
        for dst in nodes:
            if src != dst and rng.random() < density:
                edges[(src, dst)] = rng.uniform(0.1, 1.0)
    return RecGraph(flavor="bip", nodes=frozenset(nodes), edges=edges)


def random_digraph_with_dangling(rng: random.Random, max_nodes: int = 40) -> RecGraph:
    """random_digraph with the out-edges of a random third of its nodes
    removed, so every graph has dangling nodes."""
    graph = random_digraph(rng, max_nodes)
    nodes = sorted(graph.nodes)
    sinks = set(rng.sample(nodes, max(1, len(nodes) // 3)))
    edges = {e: w for e, w in graph.edges.items() if e[0] not in sinks}
    return RecGraph(flavor="bip", nodes=graph.nodes, edges=edges)


def random_restart(rng: random.Random, tm) -> dict:
    support = rng.sample(tm.nodes, rng.randint(1, len(tm.nodes)))
    masses = [rng.random() + 1e-3 for _ in support]
    total = sum(masses)
    return {node: m / total for node, m in zip(support, masses)}


def dense_pagerank(tm, d: dict, alpha: float) -> np.ndarray:
    """Oracle: direct linear solve of the restart equation with the
    dangling columns replaced by the restart vector."""
    n = tm.n
    d_vec = np.zeros(n)
    for node, mass in d.items():
        d_vec[tm.index[node]] = mass
    A = tm.matrix.toarray()
    A[:, tm.dangling] = d_vec[:, None]
    return np.linalg.solve(np.eye(n) - alpha * A, (1.0 - alpha) * d_vec)


def dense(block) -> np.ndarray:
    """A restart block as a dense (nodes, columns) array."""
    D = np.zeros(block.shape)
    D[block.row, block.col] = block.mass
    return D


def adaptive_pagerank_batch(tm, D, alpha, tol=1e-10, max_iter=100):
    """Reference: the earlier loop, which stopped at the first step whose
    largest per-column L1 change fell below tol. It steps D densified."""
    D = dense(D)
    M = tm.matrix
    has_dangling = bool(tm.dangling.any())
    restart = (1.0 - alpha) * D
    X = D.copy()
    for iteration in range(1, max_iter + 1):
        X_next = M @ X
        if has_dangling:
            X_next += D * X[tm.dangling].sum(axis=0)
        X_next *= alpha
        X_next += restart
        err = np.abs(X_next - X).sum(axis=0).max()
        X = X_next
        if err < tol:
            return X, True, iteration
    return X, False, max_iter


# --- transition matrix ---------------------------------------------------------


def test_transition_matrix_two_cycle():
    tm = transition_matrix(two_node_cycle())
    assert tm.matrix.toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert not tm.dangling.any()


def test_transition_matrix_proportional_normalization():
    graph = RecGraph(
        flavor="bip",
        nodes=frozenset({(USER, "x"), (ITEM, "a"), (ITEM, "b")}),
        edges={
            ((USER, "x"), (ITEM, "a")): 2.0,
            ((USER, "x"), (ITEM, "b")): 2.0,
        },
    )
    tm = transition_matrix(graph)
    col = tm.matrix.toarray()[:, tm.index[(USER, "x")]]
    assert col[tm.index[(ITEM, "a")]] == 0.5
    assert col[tm.index[(ITEM, "b")]] == 0.5
    # the two items have no out-edges here
    assert tm.dangling[tm.index[(ITEM, "a")]]
    assert tm.dangling[tm.index[(ITEM, "b")]]


def test_transition_matrix_stg_item_column():
    # item with edges item->session (0.5) and item->user (1): 1/3 and 2/3
    graph = RecGraph(
        flavor="stg",
        nodes=frozenset({(USER, "u"), (ITEM, "i"), (SESSION, "u", 1)}),
        edges={
            ((ITEM, "i"), (SESSION, "u", 1)): 0.5,
            ((ITEM, "i"), (USER, "u")): 1.0,
            ((USER, "u"), (ITEM, "i")): 1.0,
            ((SESSION, "u", 1), (ITEM, "i")): 1.0,
        },
    )
    tm = transition_matrix(graph)
    col = tm.matrix.toarray()[:, tm.index[(ITEM, "i")]]
    assert col[tm.index[(SESSION, "u", 1)]] == pytest.approx(0.5 / 1.5)
    assert col[tm.index[(USER, "u")]] == pytest.approx(1.0 / 1.5)


@pytest.mark.parametrize("seed", range(6))
def test_transition_matrix_columns_stochastic(seed):
    graph = random_digraph(random.Random(seed), max_nodes=25)
    tm = transition_matrix(graph)
    sums = np.asarray(tm.matrix.sum(axis=0)).ravel()
    for j in range(tm.n):
        if tm.dangling[j]:
            assert sums[j] == 0.0
        else:
            assert abs(sums[j] - 1.0) <= 1e-12


def shuffled(graph: RecGraph, seed: int) -> RecGraph:
    """The same graph with its edge arrays in a random order."""
    order = np.random.default_rng(seed).permutation(graph.n_edges)
    return RecGraph.coded(
        graph.flavor, graph.kind, graph.ident, graph.time, graph.src[order], graph.dst[order],
        graph.weight[order], graph.users, graph.items, graph.delta, graph.eta_s,
    )


@pytest.mark.parametrize("seed", range(3))
def test_transition_matrix_rows_sorted_without_duplicates(seed):
    # the sparse start of pagerank_batch is exact only if each row's
    # entries are stored by ascending column, once each
    stream = make_stream(seed, n_users=8, n_items=12, n_events=80)
    built = [build_bip(stream), build_stg(stream, delta=200, eta_s=0.5), build_lsg(stream, 0.5)]
    for graph in built + [shuffled(g, seed) for g in built]:
        tm = transition_matrix(graph)
        m = tm.matrix
        row = np.repeat(np.arange(tm.n), np.diff(m.indptr))
        same_row = row[1:] == row[:-1]
        assert (np.diff(m.indices)[same_row] > 0).all()
        assert m.nnz == graph.n_edges
        assert (tm.transposed != m.T).nnz == 0


# --- pagerank -------------------------------------------------------------------


def test_pagerank_single_node_fixed_point():
    graph = RecGraph(flavor="bip", nodes=frozenset({(USER, "a")}), edges={})
    tm = transition_matrix(graph)
    pr = pagerank(tm, {(USER, "a"): 1.0}, alpha=0.7)
    assert pr.scores[(USER, "a")] == pytest.approx(1.0)
    assert pr.converged


def test_pagerank_two_cycle_closed_form():
    tm = transition_matrix(two_node_cycle())
    d = {(USER, "a"): 1.0}
    expected = dense_pagerank(tm, d, alpha=0.5)
    # closed form: PR_a = 2/3, PR_b = 1/3
    assert expected[tm.index[(USER, "a")]] == pytest.approx(2 / 3)
    assert expected[tm.index[(ITEM, "b")]] == pytest.approx(1 / 3)
    pr = pagerank(tm, d, alpha=0.5, tol=1e-13, max_iter=500)
    assert pr.scores[(USER, "a")] == pytest.approx(2 / 3, abs=1e-10)
    assert pr.scores[(ITEM, "b")] == pytest.approx(1 / 3, abs=1e-10)


def test_pagerank_uniform_restart_on_symmetric_graph():
    # 3-cycle of identical nodes with uniform restart stays uniform
    nodes = [(USER, c) for c in "abc"]
    edges = {}
    for i in range(3):
        edges[(nodes[i], nodes[(i + 1) % 3])] = 1.0
        edges[(nodes[i], nodes[(i + 2) % 3])] = 1.0
    graph = RecGraph(flavor="bip", nodes=frozenset(nodes), edges=edges)
    tm = transition_matrix(graph)
    pr = pagerank(tm, {node: 1 / 3 for node in nodes}, alpha=0.5)
    for node in nodes:
        assert pr.scores[node] == pytest.approx(1 / 3, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_pagerank_matches_dense_solve(seed):
    rng = random.Random(seed)
    graph = random_digraph(rng, max_nodes=30)
    tm = transition_matrix(graph)
    d = random_restart(rng, tm)
    alpha = rng.choice([0.05, 0.3, 0.5, 0.9])
    pr = pagerank(tm, d, alpha=alpha, tol=1e-13, max_iter=1000)
    expected = dense_pagerank(tm, d, alpha)
    got = np.array([pr.scores[node] for node in tm.nodes])
    assert np.max(np.abs(got - expected)) <= 1e-8
    assert abs(sum(pr.scores.values()) - 1.0) <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_pagerank_mass_conserved_each_iteration(seed):
    rng = random.Random(100 + seed)
    graph = random_digraph(rng, max_nodes=20)
    tm = transition_matrix(graph)
    d = random_restart(rng, tm)
    D = dense(personalization_matrix(tm, [d]))
    X = D.copy()
    for _ in range(30):
        dangling_mass = X[tm.dangling].sum(axis=0)
        X = 0.85 * (tm.matrix @ X + D * dangling_mass) + 0.15 * D
        assert abs(X.sum() - 1.0) <= 1e-9


def test_pagerank_restart_dominance_at_small_alpha():
    rng = random.Random(7)
    for _ in range(5):
        graph = random_digraph(rng, max_nodes=25)
        tm = transition_matrix(graph)
        d = random_restart(rng, tm)
        pr = pagerank(tm, d, alpha=0.01)
        dist = sum(
            abs(pr.scores[node] - d.get(node, 0.0)) for node in tm.nodes
        )
        assert dist < 0.05


def test_pagerank_nonconvergence_flagged():
    tm = transition_matrix(two_node_cycle())
    pr = pagerank(tm, {(USER, "a"): 1.0}, alpha=0.9, tol=1e-15, max_iter=3)
    assert not pr.converged
    assert pr.iterations == 3
    assert abs(sum(pr.scores.values()) - 1.0) <= 1e-9


def test_pagerank_rejects_bad_restart():
    tm = transition_matrix(two_node_cycle())
    with pytest.raises(ValueError, match="restart column 0 mass sums to 0.0"):
        pagerank(tm, {}, alpha=0.5)
    with pytest.raises(ValueError, match=r"unknown node \('U', 'zzz'\)"):
        pagerank(tm, {(USER, "zzz"): 1.0}, alpha=0.5)
    with pytest.raises(ValueError, match="sums to"):
        pagerank(tm, {(USER, "a"): 0.5}, alpha=0.5)


def test_pagerank_batch_matches_single():
    rng = random.Random(42)
    graph = random_digraph(rng, max_nodes=20)
    tm = transition_matrix(graph)
    ds = [random_restart(rng, tm) for _ in range(4)]
    D = personalization_matrix(tm, ds)
    X, _, _ = pagerank_batch(tm, D, alpha=0.3, tol=1e-13, max_iter=1000)
    for j, d in enumerate(ds):
        single = pagerank(tm, d, alpha=0.3, tol=1e-13, max_iter=1000)
        got = np.array([single.scores[node] for node in tm.nodes])
        assert np.max(np.abs(X[:, j] - got)) <= 1e-10


@pytest.mark.parametrize("alpha", GRID_ALPHA)
@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_pagerank_batch_certified_step_count_and_bound(alpha, tol):
    rng = random.Random(f"{alpha}-{tol}")
    for _ in range(4):
        graph = random_digraph_with_dangling(rng)
        tm = transition_matrix(graph)
        assert tm.dangling.any()
        ds = [random_restart(rng, tm) for _ in range(3)]
        X, converged, iterations = pagerank_batch(
            tm, personalization_matrix(tm, ds), alpha, tol=tol, max_iter=1000
        )
        assert converged
        assert iterations == math.ceil(math.log(tol / 2) / math.log(alpha))
        for j, d in enumerate(ds):
            assert np.abs(X[:, j] - dense_pagerank(tm, d, alpha)).sum() <= tol


# certified steps at tol 1e-10: 0.5 needs 35, 0.7 needs 67, 0.9 needs 226
@pytest.mark.parametrize("max_iter,capped", [(100, [0.9]), (30, [0.5, 0.7, 0.9])])
def test_step_count_matches_pagerank_batch(max_iter, capped):
    tm = transition_matrix(two_node_cycle())
    D = personalization_matrix(tm, [{0: 1.0}])
    for alpha in GRID_ALPHA:
        iterations, converged = step_count(alpha, max_iter=max_iter)
        _, batch_converged, batch_iterations = pagerank_batch(tm, D, alpha, max_iter=max_iter)
        assert (converged, iterations) == (batch_converged, batch_iterations)
        assert iterations == min(certified_steps(alpha, DEFAULT_TOL), max_iter)
    assert [a for a in GRID_ALPHA if not step_count(a, max_iter=max_iter)[1]] == capped


def differential_cases(rng: random.Random):
    """(transition matrix, restart block) pairs: recommender graphs, whose
    bipartite structure makes the adaptive loop stop at the certified
    step, and random digraphs with dangling nodes, where it stops early."""
    for seed in range(3):
        stream = make_stream(seed, n_users=6, n_items=10, n_events=40)
        users = sorted(stream.users)
        t = stream.omega
        for graph in (
            build_bip(stream),
            build_stg(stream, delta=200, eta_s=0.5),
            build_lsg(stream, eta_s=0.5),
        ):
            tm = transition_matrix(graph)
            ds = [personalization(graph, u, t=t, beta=0.5) for u in users]
            yield tm, personalization_matrix(tm, ds)
        tm = transition_matrix(random_digraph_with_dangling(rng))
        yield tm, personalization_matrix(tm, [random_restart(rng, tm) for _ in range(4)])


@pytest.mark.parametrize("alpha", GRID_ALPHA)
def test_pagerank_batch_matches_adaptive_reference(alpha):
    same_step = other_step = 0
    for tm, D in differential_cases(random.Random(alpha)):
        X, converged, iterations = pagerank_batch(tm, D, alpha, max_iter=1000)
        X_ref, ref_converged, ref_iterations = adaptive_pagerank_batch(
            tm, D, alpha, max_iter=1000
        )
        assert converged and ref_converged
        if ref_iterations == iterations:
            same_step += 1
            assert np.array_equal(X, X_ref)
        else:
            # the certified iterate is within tol of the fixed point; the
            # adaptive stop (step change below tol) only guarantees
            # alpha / (1 - alpha) * tol for the reference
            other_step += 1
            assert np.abs(X - X_ref).sum(axis=0).max() <= 1e-10 / (1.0 - alpha)
    assert same_step and other_step


def test_pagerank_batch_capped_run_matches_adaptive_reference():
    # alpha = 0.9 needs 226 steps; on a bipartite graph both loops stop
    # at the 100-step cap
    graph = build_bip(make_stream(3, n_users=6, n_items=10, n_events=40))
    tm = transition_matrix(graph)
    D = personalization_matrix(tm, [personalization(graph, u) for u in ("u0", "u1")])
    X, converged, iterations = pagerank_batch(tm, D, 0.9)
    X_ref, ref_converged, ref_iterations = adaptive_pagerank_batch(tm, D, 0.9)
    assert (converged, iterations) == (ref_converged, ref_iterations) == (False, 100)
    assert np.array_equal(X, X_ref)


def test_pagerank_batch_rejects_negative_restart_mass():
    tm = transition_matrix(two_node_cycle())
    with pytest.raises(ValueError, match=r"restart columns \[1\] have negative mass"):
        pagerank_batch(tm, personalization_matrix(tm, [{0: 1.0}, {0: 1.5, 1: -0.5}]), 0.5)


def test_pagerank_batch_rejects_restart_not_summing_to_one():
    tm = transition_matrix(two_node_cycle())
    with pytest.raises(ValueError, match="restart column 1 mass sums to 0.9"):
        pagerank_batch(tm, personalization_matrix(tm, [{0: 1.0}, {0: 0.4, 1: 0.5}]), 0.5)
    with pytest.raises(ValueError, match="restart column 0 mass sums to 0.0"):
        pagerank_batch(tm, personalization_matrix(tm, [{}]), alpha=0.5)
    with pytest.raises(ValueError, match="mass sums to nan"):
        pagerank_batch(tm, personalization_matrix(tm, [{0: np.nan, 1: 1.0}]), alpha=0.5)


def test_restart_block_column_slices():
    D = np.array([[0.5, 0.0, 1.0, 0.0], [0.5, 1.0, 0.0, 0.25], [0.0, 0.0, 0.0, 0.75]])
    tm = transition_matrix(RecGraph(
        flavor="bip",
        nodes=frozenset({(USER, "x"), (ITEM, "a"), (ITEM, "b")}),
        edges={((USER, "x"), (ITEM, "a")): 1.0},
    ))
    block = personalization_matrix(
        tm, [{i: D[i, j] for i in np.flatnonzero(D[:, j]).tolist()} for j in range(4)]
    )
    assert block.shape == (3, 4)
    for start, stop in ((0, 4), (1, 3), (3, 4), (2, None), (None, 1), (4, 4), (3, 1)):
        part = block[:, start:stop]
        assert np.array_equal(dense(part), D[:, start:stop])
        assert np.array_equal(np.lexsort((part.row, part.col)), np.arange(len(part.row)))
    with pytest.raises(IndexError):
        block[:, ::2]
    with pytest.raises(IndexError):
        block[1:, :]



def test_pagerank_batch_rejects_block_of_another_graph():
    tm = transition_matrix(two_node_cycle())
    other = transition_matrix(random_digraph(random.Random(5), max_nodes=20))
    assert other.n != tm.n
    with pytest.raises(ValueError, match="restart matrix must have shape"):
        pagerank_batch(tm, personalization_matrix(other, [{0: 1.0}]), alpha=0.5)


def test_personalization_matrix_sums_a_node_given_by_index_and_tuple():
    tm = transition_matrix(two_node_cycle())
    block = personalization_matrix(tm, [{1: 1.0}, {0: 0.5, tm.nodes[0]: 0.5}])
    assert block.shape == (2, 2)
    assert (block.row.tolist(), block.col.tolist(), block.mass.tolist()) == (
        [1, 0], [0, 1], [1.0, 1.0]
    )

def sparse_start_cases(flavor):
    """(transition matrix, every user's restart block) of one graph
    without dangling nodes, built from a stream of 60 users."""
    stream = make_stream(5, n_users=60, n_items=80, n_events=400, t_max=10_000)
    graph, t, beta = {
        "lsg-0.5": (build_lsg(stream, 0.5), stream.omega, None),
        "lsg-0": (build_lsg(stream, 0.0), stream.omega, None),
        "bip": (build_bip(stream), None, None),
        "stg-0.1": (build_stg(stream, delta=1000, eta_s=0.5), None, 0.1),
        "stg-0.9": (build_stg(stream, delta=1000, eta_s=0.5), None, 0.9),
    }[flavor]
    tm = transition_matrix(graph)
    assert not tm.dangling.any()
    ds = [personalization(graph, u, t=t, beta=beta) for u in sorted(stream.users)]
    return tm, personalization_matrix(tm, ds)


def spy_sparse_start(monkeypatch) -> list:
    """Record (steps taken, steps in all) of every sparse start."""
    calls = []
    sparse_start = ranker._sparse_start

    def spy(tm, D, alpha, restart, iterations):
        X, done = sparse_start(tm, D, alpha, restart, iterations)
        calls.append((done, iterations))
        return X, done

    monkeypatch.setattr(ranker, "_sparse_start", spy)
    return calls


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.9])
@pytest.mark.parametrize("flavor", ["lsg-0.5", "lsg-0", "bip", "stg-0.1", "stg-0.9"])
def test_sparse_start_is_bitwise_equal_to_dense_loop(monkeypatch, flavor, alpha):
    tm, restarts = sparse_start_cases(flavor)
    calls = spy_sparse_start(monkeypatch)
    # the narrow widths cut the first 12 users, 48 all of them
    for width, users in ((1, 12), (3, 12), (48, restarts.shape[1])):
        blocks = [restarts[:, s:s + width] for s in range(0, users, width)]
        monkeypatch.setattr(ranker, "_SPARSE_MIN_WORK", math.inf)
        sparse_starts = len(calls)
        dense = [pagerank_batch(tm, D, alpha) for D in blocks]
        assert len(calls) == sparse_starts
        # fill 1 stays sparse while any entry is zero; 8 hands over early
        for fill in (1, 8):
            monkeypatch.setattr(ranker, "_SPARSE_MIN_WORK", 0)
            monkeypatch.setattr(ranker, "_SPARSE_FILL", fill)
            for D, (X_dense, converged, iterations) in zip(blocks, dense):
                X, got_converged, got_iterations = pagerank_batch(tm, D, alpha)
                assert (got_converged, got_iterations) == (converged, iterations)
                assert np.array_equal(X, X_dense)
                assert X.tobytes() == X_dense.tobytes()
    assert len(calls) == 2 * (12 + 4 + -(-restarts.shape[1] // 48))
    assert all(done >= 1 for done, _ in calls)
    handed_over = any(done < steps for done, steps in calls)
    # the forward-only walk of lsg-0 never fills an eighth of a block
    assert handed_over == (flavor != "lsg-0")


def test_dangling_graph_skips_sparse_start(monkeypatch):
    rng = random.Random(3)
    graph = random_digraph_with_dangling(rng)
    tm = transition_matrix(graph)
    ds = [random_restart(rng, tm) for _ in range(3)]
    calls = spy_sparse_start(monkeypatch)
    monkeypatch.setattr(ranker, "_SPARSE_MIN_WORK", 0)
    X, converged, _ = pagerank_batch(tm, personalization_matrix(tm, ds), 0.5)
    assert converged and not calls
    for j, d in enumerate(ds):
        assert np.abs(X[:, j] - dense_pagerank(tm, d, 0.5)).sum() <= DEFAULT_TOL


# --- personalization -------------------------------------------------------------


def test_personalization_bip(toy_stream):
    graph = build_bip(toy_stream)
    assert personalization(graph, "u1") == {(USER, "u1"): 1.0}


def test_personalization_bip_unknown_user(toy_stream):
    graph = build_bip(toy_stream)
    with pytest.raises(ValueError, match="not in training graph"):
        personalization(graph, "nobody")


def test_personalization_stg_splits_mass(toy_stream):
    graph = build_stg(toy_stream, delta=3, eta_s=0.5)
    d = personalization(graph, "u1", beta=0.7)
    assert d == {(USER, "u1"): 0.7, (SESSION, "u1", 2): pytest.approx(0.3)}


def test_personalization_stg_beta_extremes(toy_stream):
    graph = build_stg(toy_stream, delta=3, eta_s=0.5)
    assert personalization(graph, "u2", beta=1.0) == {(USER, "u2"): 1.0}
    assert personalization(graph, "u2", beta=0.0) == {(SESSION, "u2", 2): 1.0}


def test_personalization_stg_requires_beta(toy_stream):
    graph = build_stg(toy_stream, delta=3, eta_s=0.5)
    with pytest.raises(ValueError, match="beta"):
        personalization(graph, "u1")


def test_personalization_lsg_latest_node_at_or_before_t(toy_stream):
    graph = build_lsg(toy_stream, eta_s=0.5)
    # u1 active at 1, 2, 4, 6; query between 2 and 4 picks 2
    assert personalization(graph, "u1", t=3.5) == {(TUSER, 2, "u1"): 1.0}
    assert personalization(graph, "u1", t=2) == {(TUSER, 2, "u1"): 1.0}
    assert personalization(graph, "u1", t=100) == {(TUSER, 6, "u1"): 1.0}


def test_personalization_lsg_before_first_activity(toy_stream):
    graph = build_lsg(toy_stream, eta_s=0.5)
    with pytest.raises(ValueError, match="not in training graph"):
        personalization(graph, "u1", t=0.5)


def test_personalization_lsg_requires_t(toy_stream):
    graph = build_lsg(toy_stream, eta_s=0.5)
    with pytest.raises(ValueError, match="query time"):
        personalization(graph, "u1")


# --- item scores -------------------------------------------------------------------


def test_item_scores_lsg_sums_temporal_nodes(toy_stream):
    graph = build_lsg(toy_stream, eta_s=0.5)
    tm = transition_matrix(graph)
    assert sum(node[0] == TITEM and node[2] == "i3" for node in tm.nodes) == 3
    for user, t in (("u1", 4), ("u2", 5)):
        pr = pagerank(tm, personalization(graph, user, t=t), alpha=0.5)
        # each item's TI node scores, added in node order
        expected = {}
        for node, score in pr.scores.items():
            if node[0] == TITEM:
                expected[node[2]] = expected.get(node[2], 0.0) + score
        assert item_scores(graph, pr) == expected


def test_item_scores_bip_is_identity_on_items(toy_stream):
    graph = build_bip(toy_stream)
    tm = transition_matrix(graph)
    pr = pagerank(tm, personalization(graph, "u1"), alpha=0.3)
    per_item = item_scores(graph, pr)
    for item in toy_stream.items:
        assert per_item[item] == pr.scores[(ITEM, item)]


def test_item_matrix_aggregates_like_item_scores(toy_stream):
    graph = build_lsg(toy_stream, eta_s=0.5)
    tm = transition_matrix(graph)
    d = personalization(graph, "u2", t=5)
    pr = pagerank(tm, d, alpha=0.5)
    items, A = item_matrix(graph)
    vec = np.array([pr.scores[node] for node in tm.nodes])
    agg = A @ vec
    direct = item_scores(graph, pr)
    for row, item in enumerate(items):
        assert agg[row] == pytest.approx(direct[item], abs=1e-15)


# --- recommend --------------------------------------------------------------------


def bip_u1_item_scores(stream):
    # u1 at alpha 0.5 on the toy BIP: i3 > i1 == i2 > i4
    graph = build_bip(stream)
    pr = pagerank(transition_matrix(graph), personalization(graph, "u1"), alpha=0.5)
    return graph, item_scores(graph, pr)


def test_recommend_exclusion_and_order(toy_stream):
    graph, scores = bip_u1_item_scores(toy_stream)
    recs = recommend(graph, "u1", 6, ParamSetting(alpha=0.5, n=2), seen={"i1"})
    assert recs == [("i3", scores["i3"]), ("i2", scores["i2"])]


def test_recommend_tie_breaks_by_item_id(toy_stream):
    graph, scores = bip_u1_item_scores(toy_stream)
    assert scores["i1"] == scores["i2"]
    recs = recommend(graph, "u1", 6, ParamSetting(alpha=0.5, n=2), seen=set())
    assert recs == [("i3", scores["i3"]), ("i1", scores["i1"])]


def test_recommend_truncates_to_unseen_candidates(toy_stream):
    graph, scores = bip_u1_item_scores(toy_stream)
    recs = recommend(graph, "u1", 6, ParamSetting(alpha=0.5, n=10), seen={"i1", "i3"})
    assert recs == [("i2", scores["i2"]), ("i4", scores["i4"])]
    # items outside the graph neither count nor fail
    recs = recommend(graph, "u1", 6, ParamSetting(alpha=0.5, n=3), seen={"i3", "zzz"})
    assert [item for item, _ in recs] == ["i1", "i2", "i4"]



def test_recommend_bip_toy_only_i4_left(toy_stream):
    graph = build_bip(toy_stream)
    recs = recommend(
        graph, "u1", 6, ParamSetting(alpha=0.5, n=10), seen={"i1", "i2", "i3"}
    )
    assert [item for item, _ in recs] == ["i4"]


def test_recommend_all_seen_gives_empty_list(toy_stream):
    graph = build_bip(toy_stream)
    recs = recommend(
        graph, "u1", 6, ParamSetting(alpha=0.5, n=10), seen=set(toy_stream.items)
    )
    assert recs == []


def test_recommend_lsg_personalizes_on_latest_activity(toy_stream):
    graph = build_lsg(toy_stream, eta_s=0.5)
    d = personalization(graph, "u2", t=5.5)
    assert d == {(TUSER, 5, "u2"): 1.0}
    recs = recommend(
        graph, "u2", 5.5, ParamSetting(alpha=0.5, n=2, eta_s=0.5), seen={"i3", "i4"}
    )
    assert sorted(item for item, _ in recs) == ["i1", "i2"]


def test_recommend_excludes_seen_always(toy_stream):
    graph = build_stg(toy_stream, delta=3, eta_s=0.5)
    params = ParamSetting(alpha=0.3, n=10, delta=3, beta=0.5, eta_s=0.5)
    seen = {"i1", "i3"}
    recs = recommend(graph, "u1", 6, params, seen=seen)
    assert all(item not in seen for item, _ in recs)


# --- scaling invariance ------------------------------------------------------------


@pytest.mark.parametrize("c", [0.5, 3.0])
@pytest.mark.parametrize("seed", range(4))
def test_scaled_weights_leave_ranking_unchanged(seed, c):
    stream = make_stream(seed, n_users=5, n_items=10, n_events=40, t_max=50)
    graph = build_lsg(stream, eta_s=0.5)
    scaled = RecGraph(
        flavor=graph.flavor,
        nodes=graph.nodes,
        edges={e: w * c for e, w in graph.edges.items()},
        eta_s=graph.eta_s,
    )
    params = ParamSetting(alpha=0.3, n=5, eta_s=0.5)
    user = sorted(stream.users)[0]
    t = stream.omega
    base = recommend(graph, user, t, params, seen=set())
    other = recommend(scaled, user, t, params, seen=set())
    assert [item for item, _ in base] == [item for item, _ in other]
    # the transition matrix itself is scale-free up to rounding
    diff = (transition_matrix(graph).matrix - transition_matrix(scaled).matrix)
    assert abs(diff).max() <= 1e-15


@pytest.mark.parametrize("kwargs,message", [
    ({"alpha": 0.0}, r"alpha must lie in \(0, 1\)"),
    ({"alpha": 1.0}, r"alpha must lie in \(0, 1\)"),
    ({"alpha": 0.5, "tol": 0.0}, "tol must be positive"),
    ({"alpha": 0.5, "max_iter": 0}, "max_iter must be at least 1"),
], ids=["alpha-0", "alpha-1", "tol", "max-iter"])
def test_step_count_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        step_count(**kwargs)


def test_transition_matrix_rejects_empty_graph():
    with pytest.raises(ValueError, match="cannot build transition matrix of empty graph"):
        transition_matrix(RecGraph(flavor="bip", nodes=frozenset(), edges={}))


def test_restart_vectors_reject_unknown_flavor():
    graph = RecGraph(flavor="xyz", nodes=frozenset({(USER, "a")}), edges={})
    with pytest.raises(ValueError, match="unknown graph flavor 'xyz'"):
        ranker._restart_vectors(graph, ["a"])
