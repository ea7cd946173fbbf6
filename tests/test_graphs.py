import random

import pytest

from linkrec.graphs import (
    ITEM,
    SESSION,
    TITEM,
    TUSER,
    USER,
    RecGraph,
    build_bip,
    build_graph,
    build_lsg,
    build_stg,
    edge_list_lines,
    render_node,
    slice_index,
    write_edge_list,
)
from linkrec.linkstream import Event, LinkStream

from conftest import TOY_EVENTS, make_stream


def brute_force_lsg_counts(events):
    """Independent recount of LSG sizes straight from the event list."""
    tu = {(ev.t, ev.user) for ev in events}
    ti = {(ev.t, ev.item) for ev in events}
    user_times: dict[str, set[int]] = {}
    item_times: dict[str, set[int]] = {}
    for ev in events:
        user_times.setdefault(ev.user, set()).add(ev.t)
        item_times.setdefault(ev.item, set()).add(ev.t)
    chain_links = sum(len(ts) - 1 for ts in user_times.values()) + sum(
        len(ts) - 1 for ts in item_times.values()
    )
    distinct_events = {(ev.t, ev.user, ev.item) for ev in events}
    return len(tu) + len(ti), len(distinct_events), chain_links


# --- BIP ----------------------------------------------------------------------


def test_bip_toy_stream_structure(toy_stream):
    graph = build_bip(toy_stream)
    assert graph.n_nodes == 6
    assert graph.n_edges == 10
    assert all(w == 1.0 for w in graph.edges.values())
    pairs = {
        (src[1], dst[1])
        for (src, dst) in graph.edges
        if src[0] == USER and dst[0] == ITEM
    }
    assert pairs == {("u1", "i1"), ("u1", "i2"), ("u1", "i3"), ("u2", "i3"), ("u2", "i4")}
    for (src, dst) in list(graph.edges):
        assert (dst, src) in graph.edges


def test_bip_single_event():
    graph = build_bip(LinkStream.from_events([Event(7, "u", "i")]))
    assert graph.nodes == frozenset({(USER, "u"), (ITEM, "i")})
    assert graph.edges == {
        ((USER, "u"), (ITEM, "i")): 1.0,
        ((ITEM, "i"), (USER, "u")): 1.0,
    }


def test_bip_repeated_pair_dedupes():
    once = build_bip(LinkStream.from_events([Event(1, "u", "i")]))
    five = build_bip(
        LinkStream.from_events([Event(t, "u", "i") for t in range(1, 6)])
    )
    assert five.nodes == once.nodes
    assert five.edges == once.edges


def test_bip_permutation_invariant(toy_stream):
    events = list(TOY_EVENTS)
    random.Random(3).shuffle(events)
    assert build_bip(LinkStream.from_events(events)) == build_bip(toy_stream)


def test_bip_empty_stream_rejected():
    empty = LinkStream.from_events([], time_span=(0, 1))
    with pytest.raises(ValueError, match="cannot build graph from empty stream"):
        build_bip(empty)


# --- STG ----------------------------------------------------------------------


def test_stg_toy_stream_unit_timestamps(toy_stream):
    # t = 1..6 with delta = 3: slices [0,3) and [3,6] of offsets, so both
    # users are active in both slices -> four session nodes.
    graph = build_stg(toy_stream, delta=3, eta_s=0.5)
    sessions = {n for n in graph.nodes if n[0] == SESSION}
    assert sessions == {
        (SESSION, "u1", 1),
        (SESSION, "u1", 2),
        (SESSION, "u2", 1),
        (SESSION, "u2", 2),
    }


def test_stg_toy_stream_stretched_timestamps():
    # Stretched so u2's activity fits entirely in the first slice while
    # u1 spills into the second: two slices, three session nodes.
    events = [Event(ev.t * 10, ev.user, ev.item) for ev in TOY_EVENTS]
    graph = build_stg(LinkStream.from_events(events), delta=45, eta_s=0.5)
    sessions = {n for n in graph.nodes if n[0] == SESSION}
    assert sessions == {
        (SESSION, "u1", 1),
        (SESSION, "u1", 2),
        (SESSION, "u2", 1),
    }
    ks = {n[2] for n in sessions}
    assert ks == {1, 2}


def test_stg_contains_bip(toy_stream):
    bip = build_bip(toy_stream)
    for delta, eta_s in [(1, 0.0), (2, 0.5), (10, 2.0)]:
        stg = build_stg(toy_stream, delta=delta, eta_s=eta_s)
        assert bip.nodes <= stg.nodes
        for edge, w in bip.edges.items():
            assert stg.edges[edge] == w


def test_stg_session_edge_weights(toy_stream):
    graph = build_stg(toy_stream, delta=10, eta_s=0.25)
    session_to_item = [
        w for (src, dst), w in graph.edges.items() if src[0] == SESSION
    ]
    item_to_session = [
        w for (src, dst), w in graph.edges.items() if dst[0] == SESSION
    ]
    assert session_to_item and set(session_to_item) == {1.0}
    assert item_to_session and set(item_to_session) == {0.25}


def test_stg_eta_zero_drops_item_to_session_edges(toy_stream):
    graph = build_stg(toy_stream, delta=3, eta_s=0.0)
    assert all(dst[0] != SESSION for (src, dst) in graph.edges)
    assert all(w > 0 for w in graph.edges.values())


def test_stg_delta_covering_span_gives_one_session_per_user(toy_stream):
    graph = build_stg(toy_stream, delta=100, eta_s=1.0)
    sessions = {n for n in graph.nodes if n[0] == SESSION}
    assert sessions == {(SESSION, "u1", 1), (SESSION, "u2", 1)}
    # session edges mirror each user's distinct items
    for user, items in toy_stream.items_by_user().items():
        linked = {
            dst[1]
            for (src, dst) in graph.edges
            if src == (SESSION, user, 1) and dst[0] == ITEM
        }
        assert linked == items


def test_stg_rejects_bad_delta(toy_stream):
    with pytest.raises(ValueError):
        build_stg(toy_stream, delta=0, eta_s=1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_graphs_reject_non_finite_delta_and_eta_s(toy_stream, value):
    with pytest.raises(ValueError, match="slice duration delta must be positive and finite"):
        build_stg(toy_stream, delta=value, eta_s=1.0)
    with pytest.raises(ValueError, match="eta_s must be non-negative and finite"):
        build_stg(toy_stream, delta=10, eta_s=value)
    with pytest.raises(ValueError, match="eta_s must be non-negative and finite"):
        build_lsg(toy_stream, eta_s=value)


def test_slice_index_clamps_omega_into_last_slice():
    assert slice_index(6, 0, 6, 3) == 2
    assert slice_index(5, 0, 6, 3) == 2
    assert slice_index(2, 0, 6, 3) == 1


@pytest.mark.parametrize("seed", range(5))
def test_stg_session_count_monotone_under_refinement(seed):
    # Holds along divisor chains, where every fine slice nests inside a
    # coarse one. Non-nested widths can merge a pair that a coarse
    # boundary separated (e.g. t=12,13 with widths 13 then 7).
    stream = make_stream(seed, n_events=30, t_max=200)

    def count(delta):
        graph = build_stg(stream, delta=delta, eta_s=1.0)
        return sum(1 for n in graph.nodes if n[0] == SESSION)

    for chain in ((200, 100, 50, 25), (240, 80, 40, 8, 2)):
        counts = [count(d) for d in chain]
        assert counts == sorted(counts)


# --- LSG ----------------------------------------------------------------------


def test_lsg_toy_stream_structure(toy_stream):
    graph = build_lsg(toy_stream, eta_s=0.5)
    expected_nodes, expected_events, expected_chains = brute_force_lsg_counts(
        TOY_EVENTS
    )
    assert (expected_nodes, expected_events, expected_chains) == (16, 8, 10)

    assert graph.n_nodes == 16
    event_edges = [e for e in graph.edges if e[0][0] != e[1][0]]
    forward = [
        e for e in graph.edges if e[0][0] == e[1][0] and e[0][1] < e[1][1]
    ]
    backward = [
        e for e in graph.edges if e[0][0] == e[1][0] and e[0][1] > e[1][1]
    ]
    assert len(event_edges) == 16
    assert len(forward) == 10
    assert len(backward) == 10
    assert all(graph.edges[e] == 1.0 for e in event_edges + forward)
    assert all(graph.edges[e] == 0.5 for e in backward)


def test_lsg_toy_stream_nodes(toy_stream):
    graph = build_lsg(toy_stream, eta_s=1.0)
    users = {n for n in graph.nodes if n[0] == TUSER}
    assert users == {
        (TUSER, 1, "u1"), (TUSER, 2, "u1"), (TUSER, 4, "u1"), (TUSER, 6, "u1"),
        (TUSER, 1, "u2"), (TUSER, 2, "u2"), (TUSER, 3, "u2"), (TUSER, 5, "u2"),
    }
    items = {n for n in graph.nodes if n[0] == TITEM}
    assert items == {
        (TITEM, 1, "i1"),
        (TITEM, 2, "i2"), (TITEM, 6, "i2"),
        (TITEM, 1, "i3"), (TITEM, 2, "i3"), (TITEM, 4, "i3"),
        (TITEM, 3, "i4"), (TITEM, 5, "i4"),
    }


def test_lsg_chain_weights_single_user():
    stream = LinkStream.from_events([Event(1, "u", "a"), Event(2, "u", "b")])
    graph = build_lsg(stream, eta_s=0.3)
    assert graph.edges[((TUSER, 1, "u"), (TUSER, 2, "u"))] == 1.0
    assert graph.edges[((TUSER, 2, "u"), (TUSER, 1, "u"))] == 0.3


def test_lsg_eta_zero_omits_backward_edges():
    stream = LinkStream.from_events([Event(1, "u", "a"), Event(2, "u", "a")])
    graph = build_lsg(stream, eta_s=0.0)
    assert ((TUSER, 1, "u"), (TUSER, 2, "u")) in graph.edges
    assert ((TUSER, 2, "u"), (TUSER, 1, "u")) not in graph.edges
    assert ((TITEM, 2, "a"), (TITEM, 1, "a")) not in graph.edges


def test_lsg_single_timestamp_is_bip_under_collapse():
    events = [Event(5, f"u{k}", f"i{k % 3}") for k in range(6)]
    stream = LinkStream.from_events(events)
    lsg = build_lsg(stream, eta_s=0.7)
    bip = build_bip(stream)

    def collapse(node):
        return (USER, node[2]) if node[0] == TUSER else (ITEM, node[2])

    collapsed = {
        (collapse(src), collapse(dst)): w for (src, dst), w in lsg.edges.items()
    }
    assert collapsed == bip.edges
    assert {collapse(n) for n in lsg.nodes} == set(bip.nodes)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("eta_s", [0.0, 0.5])
def test_lsg_counts_match_brute_force(seed, eta_s):
    stream = make_stream(seed, n_users=6, n_items=7, n_events=35, t_max=60)
    graph = build_lsg(stream, eta_s=eta_s)
    nodes, events, chains = brute_force_lsg_counts(stream.events)
    assert graph.n_nodes == nodes
    expected_edges = 2 * events + (2 if eta_s > 0 else 1) * chains
    assert graph.n_edges == expected_edges


def test_lsg_empty_stream_rejected():
    empty = LinkStream.from_events([], time_span=(0, 1))
    with pytest.raises(ValueError, match="empty stream"):
        build_lsg(empty, eta_s=1.0)


# --- dispatch, rendering, export ------------------------------------------------


def test_build_graph_dispatch(toy_stream):
    assert build_graph("bip", toy_stream).flavor == "bip"
    assert build_graph("stg", toy_stream, delta=3, eta_s=0.1).delta == 3
    assert build_graph("lsg", toy_stream, eta_s=0.1).eta_s == 0.1
    with pytest.raises(ValueError, match="stg requires delta"):
        build_graph("stg", toy_stream)
    with pytest.raises(ValueError, match="unknown graph flavor"):
        build_graph("hits", toy_stream)


def test_render_node_forms():
    assert render_node((USER, "u1")) == "U:u1"
    assert render_node((ITEM, "i9")) == "I:i9"
    assert render_node((SESSION, "u1", 2)) == "S:u1@2"
    assert render_node((TUSER, 42, "u1")) == "TU:42@u1"
    assert render_node((TITEM, 42, "i1")) == "TI:42@i1"


def test_edge_list_export_is_bit_exact(tmp_path):
    stream = LinkStream.from_events([Event(1, "u", "a"), Event(2, "u", "b")])
    graph = build_lsg(stream, eta_s=0.5)
    expected = [
        "TI:1@a\tTU:1@u\t1",
        "TI:2@b\tTU:2@u\t1",
        "TU:1@u\tTI:1@a\t1",
        "TU:1@u\tTU:2@u\t1",
        "TU:2@u\tTI:2@b\t1",
        "TU:2@u\tTU:1@u\t0.5",
    ]
    assert edge_list_lines(graph) == expected
    path = tmp_path / "edges.tsv"
    write_edge_list(graph, path)
    assert path.read_text() == "\n".join(expected) + "\n"


def test_graphs_are_plain_value_objects(toy_stream):
    a = build_bip(toy_stream)
    b = build_bip(toy_stream)
    assert a == b
    assert isinstance(a, RecGraph)


def test_render_node_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown node kind"):
        render_node(("Q", "a"))
