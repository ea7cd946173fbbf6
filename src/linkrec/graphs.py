"""The three recommender graphs built from a link stream.

* BIP -- classical bipartite user-item graph, weight-1 edges both ways.
* STG -- BIP plus per-slice session nodes (u, k); sessions point to the
  items picked in the slice with weight 1, items point back with eta_s.
* LSG -- link stream graph: one node per (t, user) / (t, item)
  occurrence, weight-1 event edges at shared timestamps, and chain
  edges between consecutive occurrences of the same user or item
  (forward weight 1, backward weight eta_s).

Nodes are integer-coded. A graph is a node table -- per node its kind,
its user or item code and its time (session slice k, or timestamp t) --
plus parallel (src, dst, weight) edge arrays over node indices. Codes
index the graph's sorted user and item id tables, so they sort like the
ids, and the builders emit the table in the order of the sorted tagged
tuples ("I", i) < ("S", u, k) < ("TI", t, i) < ("TU", t, u) < ("U", u).
Those tuples are a rendered view in that same order: ``RecGraph.nodes``
and ``RecGraph.edges`` render them on first read, for export and tests;
building, ranking and evaluating never do.

Edges pointing "into the past" (item->session, backward chains) carry
the eta_s weight; eta_s = 0 omits them entirely so transition matrices
never see zero-weight edges. Edges are emitted so that each node's
out-edges come in a fixed order (LSG: event edges, then the backward
chain edge, then the forward one; STG: BIP edges, then session edges),
which fixes the order in which out-weights are summed.
"""

from __future__ import annotations

import math
from functools import cached_property
from pathlib import Path

import numpy as np

from .linkstream import LinkStream, StreamColumns

__all__ = [
    "RecGraph",
    "Node",
    "USER",
    "ITEM",
    "SESSION",
    "TUSER",
    "TITEM",
    "build_bip",
    "build_stg",
    "build_lsg",
    "build_graph",
    "slice_index",
    "slice_count",
    "render_node",
    "edge_list_lines",
    "write_edge_list",
]

USER = "U"
ITEM = "I"
SESSION = "S"
TUSER = "TU"
TITEM = "TI"

# Node kinds, numbered in the sort order of their tags.
TAGS = (ITEM, SESSION, TITEM, TUSER, USER)
_KIND = {tag: k for k, tag in enumerate(TAGS)}

Node = tuple  # ("U", u) | ("I", i) | ("S", u, k) | ("TU", t, u) | ("TI", t, i)


class RecGraph:
    """Weighted directed graph over an integer-coded node table.

    Node j has kind ``TAGS[kind[j]]``, code ``ident[j]`` into ``users``
    (U, S, TU) or ``items`` (I, TI), and ``time[j]``: the slice k of a
    session, the timestamp t of a temporal node, 0 otherwise. Edge e
    goes from node ``src[e]`` to node ``dst[e]`` with positive
    ``weight[e]``; zero-weight edges are never stored. Instances are
    not modified once built and are safe to share across threads. Two
    graphs are equal when their rendered nodes, edges and parameters are.

    ``RecGraph(flavor, nodes, edges)`` encodes a graph given as
    tagged-tuple nodes and a (src, dst) -> weight map, keeping the map's
    edge order; the builders assemble the arrays with :meth:`coded`.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        flavor: str,
        nodes,
        edges: dict,
        delta: float | None = None,
        eta_s: float | None = None,
    ):
        ordered = sorted(nodes)
        users = sorted(
            {n[1] for n in ordered if n[0] in (USER, SESSION)}
            | {n[2] for n in ordered if n[0] == TUSER}
        )
        items = sorted(
            {n[1] for n in ordered if n[0] == ITEM} | {n[2] for n in ordered if n[0] == TITEM}
        )
        user_code = {u: c for c, u in enumerate(users)}
        item_code = {i: c for c, i in enumerate(items)}
        kind, ident, time = [], [], []
        for node in ordered:
            tag = node[0]
            kind.append(_KIND[tag])
            if tag in (USER, ITEM):
                ident.append((user_code if tag == USER else item_code)[node[1]])
                time.append(0)
            elif tag == SESSION:
                ident.append(user_code[node[1]])
                time.append(node[2])
            else:
                ident.append((user_code if tag == TUSER else item_code)[node[2]])
                time.append(node[1])
        index = {node: j for j, node in enumerate(ordered)}
        self._set(
            flavor,
            np.array(kind, dtype=np.int8),
            np.array(ident, dtype=np.int64),
            np.array(time) if time else np.zeros(0, np.int64),
            np.array([index[s] for s, _ in edges], dtype=np.int64),
            np.array([index[d] for _, d in edges], dtype=np.int64),
            np.array(list(edges.values()), dtype=float),
            tuple(users),
            tuple(items),
            delta,
            eta_s,
        )

    @classmethod
    def coded(
        cls, flavor, kind, ident, time, src, dst, weight, users, items, delta=None, eta_s=None
    ) -> "RecGraph":
        """A graph from its node table, edge arrays and id tables, as is."""
        graph = cls.__new__(cls)
        graph._set(flavor, kind, ident, time, src, dst, weight, users, items, delta, eta_s)
        return graph

    def _set(self, flavor, kind, ident, time, src, dst, weight, users, items, delta, eta_s):
        self.flavor, self.delta, self.eta_s = flavor, delta, eta_s
        self.kind, self.ident, self.time = kind, ident, time
        self.src, self.dst, self.weight = src, dst, weight
        self.users, self.items = users, items

    @property
    def n_nodes(self) -> int:
        return len(self.kind)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def render(self, indices) -> list:
        """Tagged tuples of the nodes at ``indices``, in that order."""
        indices = np.asarray(indices, dtype=np.int64)
        out = []
        for k, c, t in zip(
            self.kind[indices].tolist(), self.ident[indices].tolist(), self.time[indices].tolist()
        ):
            tag = TAGS[k]
            if tag == ITEM:
                out.append((ITEM, self.items[c]))
            elif tag == USER:
                out.append((USER, self.users[c]))
            elif tag == SESSION:
                out.append((SESSION, self.users[c], t))
            elif tag == TITEM:
                out.append((TITEM, t, self.items[c]))
            else:
                out.append((TUSER, t, self.users[c]))
        return out

    @cached_property
    def node_list(self) -> list:
        """Rendered nodes in index order (sorted tagged-tuple order)."""
        return self.render(np.arange(self.n_nodes))

    @cached_property
    def nodes(self) -> frozenset:
        return frozenset(self.node_list)

    @cached_property
    def edges(self) -> dict:
        """Rendered (src, dst) -> weight map, in edge-array order."""
        nodes = self.node_list
        return {
            (nodes[s], nodes[d]): w
            for s, d, w in zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist())
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecGraph):
            return NotImplemented
        return (self.flavor, self.delta, self.eta_s, self.nodes, self.edges) == (
            other.flavor, other.delta, other.eta_s, other.nodes, other.edges
        )

    def item_nodes(self) -> np.ndarray:
        """Indices of the item-side nodes (I or TI), ascending."""
        return np.flatnonzero((self.kind == _KIND[ITEM]) | (self.kind == _KIND[TITEM]))


def _columns(stream: LinkStream) -> StreamColumns:
    if len(stream) == 0:
        raise ValueError("cannot build graph from empty stream")
    return stream.columns


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values and each value's rank among them."""
    distinct, rank = np.unique(values, return_inverse=True)
    return distinct, rank.ravel()


def _bip(cols: StreamColumns):
    """Present item and user codes, each event's item rank, and the
    distinct (user rank, item rank) pairs."""
    item_codes, item_rank = _ranks(cols.item_code)
    user_codes, user_rank = _ranks(cols.user_code)
    n_items = len(item_codes)
    pairs = np.unique(user_rank * n_items + item_rank)
    return item_codes, item_rank, user_codes, pairs // n_items, pairs % n_items


def _graph(flavor, cols, blocks, edges, **params) -> RecGraph:
    """Assemble a graph from (kind, codes, times) node blocks in table
    order and (src, dst, weight) edge parts in emission order."""
    kind = np.concatenate([np.full(len(codes), _KIND[tag], np.int8) for tag, codes, _ in blocks])
    ident = np.concatenate([codes for _, codes, _ in blocks])
    time = np.concatenate([times for _, _, times in blocks])
    src, dst = (np.concatenate(part).astype(np.int64) for part in edges[:2])
    return RecGraph.coded(
        flavor, kind, ident, time, src, dst, np.concatenate(edges[2]).astype(float),
        cols.users, cols.items, **params,
    )


def build_bip(stream: LinkStream) -> RecGraph:
    """Bipartite graph: one weight-1 edge pair per distinct (user, item)."""
    cols = _columns(stream)
    item_codes, _, user_codes, u, i = _bip(cols)
    u = u + len(item_codes)
    ones = np.ones(len(u))
    return _graph(
        "bip",
        cols,
        [(ITEM, item_codes, np.zeros_like(item_codes)),
         (USER, user_codes, np.zeros_like(user_codes))],
        ([u, i], [i, u], [ones, ones]),
    )


def slice_count(alpha: float, omega: float, delta: float) -> int:
    """Number of delta-wide slices covering [alpha, omega] (at least 1)."""
    return max(1, math.ceil((omega - alpha) / delta))


def _slice_indices(t: np.ndarray, alpha: float, omega: float, delta: float) -> np.ndarray:
    k = np.floor((t - alpha) / delta).astype(np.int64) + 1
    return np.minimum(k, slice_count(alpha, omega, delta))


def slice_index(t: float, alpha: float, omega: float, delta: float) -> int:
    """1-based slice of time t; half-open slices anchored at alpha.

    An event at exactly omega is clamped into the last slice, mirroring
    the closed right edge of the last evaluation window.
    """
    return int(_slice_indices(np.array([t]), alpha, omega, delta)[0])


def build_stg(stream: LinkStream, delta: float, eta_s: float) -> RecGraph:
    """Session-based temporal graph: BIP plus (user, slice) session nodes."""
    if not 0.0 < delta < math.inf:
        raise ValueError("slice duration delta must be positive and finite")
    if not 0.0 <= eta_s < math.inf:
        raise ValueError("eta_s must be non-negative and finite")
    cols = _columns(stream)
    item_codes, item_rank, user_codes, u, i = _bip(cols)
    n_items = len(item_codes)
    # sessions sort by (user, slice), like their tuples
    k = _slice_indices(cols.t, *stream.time_span, delta)
    n_slices = int(k.max()) + 1
    sessions, session_rank = _ranks(cols.user_code * n_slices + k)
    links = np.unique(session_rank * n_items + item_rank)
    s, si = links // n_items + n_items, links % n_items
    u = u + n_items + len(sessions)
    ones = np.ones(len(u))
    # per item: edges to users first, then edges to sessions
    src, dst, weight = [u, i, s], [i, u, si], [ones, ones, np.ones(len(links))]
    if eta_s > 0:
        src, dst = src + [si], dst + [s]
        weight = weight + [np.full(len(links), float(eta_s))]
    return _graph(
        "stg",
        cols,
        [(ITEM, item_codes, np.zeros_like(item_codes)),
         (SESSION, sessions // n_slices, sessions % n_slices),
         (USER, user_codes, np.zeros_like(user_codes))],
        (src, dst, weight),
        delta=delta,
        eta_s=eta_s,
    )


def _chains(node_ident: np.ndarray, node_time: np.ndarray, offset: int):
    """Consecutive (earlier, later) node pairs of the same id, as node
    indices shifted by ``offset``."""
    order = np.lexsort((node_time, node_ident))
    same = node_ident[order[1:]] == node_ident[order[:-1]]
    return order[:-1][same] + offset, order[1:][same] + offset


def build_lsg(stream: LinkStream, eta_s: float) -> RecGraph:
    """Link stream graph: temporal nodes, event edges and chain edges."""
    if not 0.0 <= eta_s < math.inf:
        raise ValueError("eta_s must be non-negative and finite")
    cols = _columns(stream)
    times, t_rank = _ranks(cols.t)
    # (t, item) and (t, user) occurrences, sorted like their tuples
    n_ids = max(len(cols.users), len(cols.items))
    occ_items, ti_rank = _ranks(t_rank * n_ids + cols.item_code)
    occ_users, tu_rank = _ranks(t_rank * n_ids + cols.user_code)
    n_ti = len(occ_items)
    ti_ident, ti_time = occ_items % n_ids, times[occ_items // n_ids]
    tu_ident, tu_time = occ_users % n_ids, times[occ_users // n_ids]
    tu_node = n_ti + tu_rank
    n_nodes = n_ti + len(occ_users)
    links = np.unique(tu_node * n_nodes + ti_rank)
    tu, ti = links // n_nodes, links % n_nodes
    ones = np.ones(len(links))
    user_prev, user_next = _chains(tu_ident, tu_time, n_ti)
    item_prev, item_next = _chains(ti_ident, ti_time, 0)
    # per source node: event edges, then the backward, then the forward chain edge
    src, dst, weight = [tu, ti], [ti, tu], [ones, ones]
    for prev, nxt in ((user_prev, user_next), (item_prev, item_next)):
        if eta_s > 0:
            src.append(nxt)
            dst.append(prev)
            weight.append(np.full(len(prev), float(eta_s)))
        src.append(prev)
        dst.append(nxt)
        weight.append(np.ones(len(prev)))
    return _graph(
        "lsg",
        cols,
        [(TITEM, ti_ident, ti_time), (TUSER, tu_ident, tu_time)],
        (src, dst, weight),
        eta_s=eta_s,
    )


def build_graph(
    flavor: str,
    stream: LinkStream,
    delta: float | None = None,
    eta_s: float | None = None,
) -> RecGraph:
    """Dispatch to the named construction, checking flavor parameters."""
    if flavor == "bip":
        return build_bip(stream)
    if flavor == "stg":
        if delta is None:
            raise ValueError("stg requires delta")
        return build_stg(stream, delta, 0.0 if eta_s is None else eta_s)
    if flavor == "lsg":
        return build_lsg(stream, 0.0 if eta_s is None else eta_s)
    raise ValueError(f"unknown graph flavor {flavor!r}")


def render_node(node: Node) -> str:
    """Stable text form: U:u, I:i, S:u@k, TU:t@u, TI:t@i."""
    tag = node[0]
    if tag in (USER, ITEM):
        return f"{tag}:{node[1]}"
    if tag == SESSION:
        return f"S:{node[1]}@{node[2]}"
    if tag in (TUSER, TITEM):
        return f"{tag}:{node[1]}@{node[2]}"
    raise ValueError(f"unknown node kind {node!r}")


def edge_list_lines(graph: RecGraph) -> list[str]:
    """Edge list as 'src<TAB>dst<TAB>weight' lines, sorted by endpoints."""
    return [
        f"{render_node(src)}\t{render_node(dst)}\t{format(w, 'g')}"
        for (src, dst), w in sorted(graph.edges.items())
    ]


def write_edge_list(graph: RecGraph, path) -> None:
    Path(path).write_text("\n".join(edge_list_lines(graph)) + "\n", encoding="utf-8")
