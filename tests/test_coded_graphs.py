"""The integer-coded builders and matrices against the dict-based
reference they replaced, and the rule that the protocol and the search
never render the tagged-tuple views."""

import numpy as np
import pytest
from scipy import sparse

from linkrec import evaluation
from linkrec.evaluation import iter_folds, run_protocol
from linkrec.graphs import (
    ITEM,
    SESSION,
    TITEM,
    TUSER,
    USER,
    RecGraph,
    build_graph,
    edge_list_lines,
    render_node,
    slice_index,
)
from linkrec.linkstream import LinkStream
from linkrec.ranker import item_matrix, recommend, transition_matrix
from linkrec.tuning import GRID_ETA_S, ParamGrid, ParamSetting, search

from conftest import make_stream

# --- reference: the dict-based builders and matrices -----------------------------


def reference_bip_edges(stream):
    edges = {}
    for ev in stream.events:
        u, i = (USER, ev.user), (ITEM, ev.item)
        edges[(u, i)] = 1.0
        edges[(i, u)] = 1.0
    return edges


def reference_bip(stream):
    nodes = {(USER, u) for u in stream.users} | {(ITEM, i) for i in stream.items}
    return nodes, reference_bip_edges(stream)


def reference_stg(stream, delta, eta_s):
    alpha, omega = stream.time_span
    edges = reference_bip_edges(stream)
    nodes = {(USER, u) for u in stream.users} | {(ITEM, i) for i in stream.items}
    for ev in stream.events:
        k = slice_index(ev.t, alpha, omega, delta)
        session, item = (SESSION, ev.user, k), (ITEM, ev.item)
        nodes.add(session)
        edges[(session, item)] = 1.0
        if eta_s > 0:
            edges[(item, session)] = eta_s
    return nodes, edges


def reference_lsg(stream, eta_s):
    edges = {}
    user_times, item_times = {}, {}
    for ev in stream.events:
        tu, ti = (TUSER, ev.t, ev.user), (TITEM, ev.t, ev.item)
        edges[(tu, ti)] = 1.0
        edges[(ti, tu)] = 1.0
        user_times.setdefault(ev.user, set()).add(ev.t)
        item_times.setdefault(ev.item, set()).add(ev.t)

    def chain(times_by_id, tag):
        for ident, times in times_by_id.items():
            ordered = sorted(times)
            for prev, nxt in zip(ordered, ordered[1:]):
                edges[((tag, prev, ident), (tag, nxt, ident))] = 1.0
                if eta_s > 0:
                    edges[((tag, nxt, ident), (tag, prev, ident))] = eta_s

    chain(user_times, TUSER)
    chain(item_times, TITEM)
    nodes = {(TUSER, t, u) for u, ts in user_times.items() for t in ts} | {
        (TITEM, t, i) for i, ts in item_times.items() for t in ts
    }
    return nodes, edges


def reference_graph(flavor, stream, delta, eta_s):
    if flavor == "bip":
        return reference_bip(stream)
    if flavor == "stg":
        return reference_stg(stream, delta, eta_s)
    return reference_lsg(stream, eta_s)


def reference_transition_matrix(nodes, edges):
    """Out-weights summed in edge-dict order, one edge at a time."""
    nodes = sorted(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    out_weight = np.zeros(n)
    for (src, _), w in edges.items():
        out_weight[index[src]] += w
    rows = np.empty(len(edges), dtype=np.int64)
    cols = np.empty(len(edges), dtype=np.int64)
    data = np.empty(len(edges))
    for k, ((src, dst), w) in enumerate(edges.items()):
        s = index[src]
        rows[k], cols[k] = index[dst], s
        data[k] = w / out_weight[s]
    matrix = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    return nodes, matrix, out_weight == 0.0


def reference_item_matrix(nodes):
    items = sorted({n[1] for n in nodes if n[0] == ITEM} | {n[2] for n in nodes if n[0] == TITEM})
    item_row = {item: r for r, item in enumerate(items)}
    rows, cols = [], []
    for idx, node in enumerate(nodes):
        if node[0] in (ITEM, TITEM):
            rows.append(item_row[node[1] if node[0] == ITEM else node[2]])
            cols.append(idx)
    A = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(items), len(nodes)))
    return items, A


def reference_edge_lines(edges):
    return [
        f"{render_node(src)}\t{render_node(dst)}\t{format(w, 'g')}"
        for (src, dst), w in sorted(edges.items())
    ]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.astype(b.dtype).tobytes() == b.tobytes()


def assert_matches_reference(flavor, stream, delta=None, eta_s=None):
    graph = build_graph(flavor, stream, delta=delta, eta_s=eta_s)
    ref_nodes, ref_edges = reference_graph(flavor, stream, delta, eta_s)
    nodes, matrix, dangling = reference_transition_matrix(ref_nodes, ref_edges)
    tm = transition_matrix(graph)
    assert graph.node_list == nodes
    assert tm.matrix.format == "csr"
    for part in ("indptr", "indices", "data"):
        assert same_bits(getattr(tm.matrix, part), getattr(matrix, part)), part
    assert same_bits(tm.dangling, dangling)
    codes, A = item_matrix(graph)
    ref_items, ref_A = reference_item_matrix(nodes)
    assert [graph.items[c] for c in codes] == ref_items
    for part in ("indptr", "indices", "data"):
        assert same_bits(getattr(A, part), getattr(ref_A, part)), part
    assert edge_list_lines(graph) == reference_edge_lines(ref_edges)


# Timestamps collide (t_max well under the event count), so temporal
# nodes carry several event edges and chain sums mix 1 and eta_s.
STREAMS = [dict(seed=s, n_users=12, n_items=20, n_events=300, t_max=200) for s in range(3)]


@pytest.mark.parametrize("kw", STREAMS, ids=lambda kw: f"seed{kw['seed']}")
def test_bip_matches_reference(kw):
    assert_matches_reference("bip", make_stream(**kw))


@pytest.mark.parametrize("eta_s", GRID_ETA_S)
@pytest.mark.parametrize("kw", STREAMS, ids=lambda kw: f"seed{kw['seed']}")
def test_lsg_matches_reference(kw, eta_s):
    assert_matches_reference("lsg", make_stream(**kw), eta_s=eta_s)


@pytest.mark.parametrize("delta", [1, 7, 45, 200, 1000])
@pytest.mark.parametrize("eta_s", GRID_ETA_S)
def test_stg_matches_reference(eta_s, delta):
    for kw in STREAMS:
        assert_matches_reference("stg", make_stream(**kw), delta=delta, eta_s=eta_s)


@pytest.mark.parametrize("flavor,delta", [("bip", None), ("stg", 30), ("lsg", None)])
def test_fold_prefixes_match_reference(flavor, delta):
    # training prefixes share the parent's columns and id tables
    stream = make_stream(4, n_users=10, n_items=15, n_events=250, t_max=300)
    for fold in iter_folds(stream, 8):
        if len(fold.train) == 0:
            continue
        assert fold.train == LinkStream.from_events(fold.train.events, fold.train.time_span)
        for eta_s in (0.0, 0.1, 0.2):
            assert_matches_reference(flavor, fold.train, delta=delta, eta_s=eta_s)


def test_stream_columns_sort_like_the_ids():
    stream = make_stream(5, n_users=11, n_items=13, n_events=80)
    cols = stream.columns
    assert list(cols.users) == sorted(stream.users)
    assert list(cols.items) == sorted(stream.items)
    assert [(ev.t, ev.user, ev.item) for ev in stream.events] == [
        (t, cols.users[u], cols.items[i])
        for t, u, i in zip(cols.t.tolist(), cols.user_code.tolist(), cols.item_code.tolist())
    ]


def test_graph_counts_come_from_the_arrays(toy_stream):
    graph = build_graph("lsg", toy_stream, eta_s=0.5)
    assert (graph.n_nodes, graph.n_edges) == (len(graph.kind), len(graph.src)) == (16, 36)
    assert "node_list" not in vars(graph)  # counting renders nothing


# --- the protocol and the search never render tagged tuples ----------------------


@pytest.mark.parametrize("flavor", ["bip", "stg", "lsg"])
def test_protocol_and_search_render_no_tagged_tuples(flavor, monkeypatch):
    def refuse(self, indices):
        raise AssertionError("tagged tuples rendered")

    monkeypatch.setattr(RecGraph, "render", refuse)
    stream = make_stream(6, n_users=6, n_items=10, n_events=120, t_max=800)
    params = ParamSetting(alpha=0.3, n=3, delta=100.0, beta=0.5, eta_s=0.5)
    report = run_protocol(stream, flavor, params, n_windows=4)
    assert not report.nothing_evaluated
    grid = ParamGrid(delta=(100.0,), beta=(0.5,), eta_s=(0.0, 0.5), alpha=(0.3, 0.5))
    result = search(stream, flavor, grid=grid, count=4, seed=0, n=3, n_windows=4)
    assert result.entries and not result.failed
    graph = build_graph(flavor, stream, delta=100.0, eta_s=0.5)
    user = min(stream.users)
    assert recommend(graph, user, stream.omega, params, seen=set())
    with pytest.raises(AssertionError, match="rendered"):
        evaluation.FoldGraph.build(
            iter_folds(stream, 4)[-1], flavor, 100.0, 0.5
        ).graph.nodes
