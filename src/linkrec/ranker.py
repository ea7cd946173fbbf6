"""Personalized PageRank over a recommender graph and top-N extraction.

The walk solves PR = alpha * M * PR + (1 - alpha) * d by power
iteration, where M is the column-stochastic transition matrix, d the
restart vector and alpha the probability of following an edge rather
than restarting (the damping factor multiplies M, so grid values plug
in unchanged). Dangling nodes hand their mass back to d, which keeps
the scores summing to 1 and preserves the personalized-restart
semantics.

Restart vectors depend on the graph flavor:

* BIP -- all mass on the user's node.
* STG -- beta on the user node, 1 - beta on the most recent session.
* LSG -- all mass on the user's latest temporal node at or before the
  recommendation time.

:func:`rank_items` is the one ranking path. The evaluation protocol
calls it per block of users; :func:`recommend` is the protocol's ranking
for one user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .graphs import SESSION, TAGS, TUSER, USER, RecGraph

if TYPE_CHECKING:
    from .tuning import ParamSetting

__all__ = [
    "TransitionMatrix",
    "RestartBlock",
    "ScoreVector",
    "transition_matrix",
    "personalization",
    "personalization_matrix",
    "pagerank",
    "pagerank_batch",
    "certified_steps",
    "step_count",
    "item_scores",
    "item_matrix",
    "rank_items",
    "recommend",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100

# pagerank_batch starts a block sparse only when one dense product of
# it is at least this large (M.nnz * columns). A sparse step costs about
# 0.2 ms in scipy overhead alone, more than a whole dense product of a
# search-campaign graph (at most 1,400 nodes; M.nnz * columns up to
# 162k on campaign-lsg): without the gate, PageRank of a campaign-lsg
# search took 1.63 s instead of 1.32 s. 221 of 230 protocol-lsg blocks
# (seeds 1-4) measure 262k-2.4M.
_SPARSE_MIN_WORK = 2**18
# It hands over to the dense loop once the iterate holds one nonzero in
# this many entries of the block. On protocol-lsg (alpha = 0.3, 20
# steps) a column of the last fold's first block holds 1, 3, 7, 14, 26,
# 50, 93, 172, 320 of 17,860 entries after steps 0-8, and blocks hand
# over after 6-8 steps; 32 and 128 were no faster.
_SPARSE_FILL = 64


@dataclass(eq=False)
class TransitionMatrix:
    """Column-stochastic matrix over the graph's node order.

    ``matrix[y, x]`` is w(x, y) / out_weight(x); columns of dangling
    nodes (zero out-weight) are empty and flagged in ``dangling``.
    ``transposed`` is ``matrix.T`` in CSR, built with it for the sparse
    start of :func:`pagerank_batch`. ``nodes`` and ``index`` are the
    rendered tagged-tuple view of that order, built on first read.
    """

    graph: RecGraph
    matrix: sparse.csr_matrix
    dangling: np.ndarray  # bool mask over node indices
    transposed: sparse.csr_matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def nodes(self) -> list:
        return self.graph.node_list

    @cached_property
    def index(self) -> dict:
        return {node: i for i, node in enumerate(self.nodes)}


@dataclass(eq=False)
class ScoreVector:
    """PageRank scores of one restart vector, plus convergence status.

    ``x`` holds the scores in ``tm``'s node order; ``scores`` is the
    rendered node -> score view of it, built on first read.
    ``iterations`` is the fixed step count of :func:`pagerank_batch`,
    after which the L1 error is at most 2 * alpha**iterations.
    ``converged`` is False when max_iter capped the steps before that
    bound reached tol; the scores are still usable.
    """

    tm: TransitionMatrix
    x: np.ndarray
    converged: bool
    iterations: int

    @cached_property
    def scores(self) -> dict:
        return dict(zip(self.tm.nodes, self.x.tolist()))


def transition_matrix(graph: RecGraph) -> TransitionMatrix:
    """Out-weight-normalize the graph's edges into column convention.

    Out-weights are summed per source node in edge-array order. The CSR
    matrix is canonical, whatever the edge order: each row's entries are
    stored by ascending column, without duplicates. The dense product
    adds a row's terms in that order, which is what makes the sparse
    start of :func:`pagerank_batch` exact.
    """
    n = graph.n_nodes
    if n == 0:
        raise ValueError("cannot build transition matrix of empty graph")
    out_weight = np.bincount(graph.src, weights=graph.weight, minlength=n)
    data = graph.weight / out_weight[graph.src]
    matrix = sparse.csr_matrix((data, (graph.dst, graph.src)), shape=(n, n))
    return TransitionMatrix(
        graph=graph, matrix=matrix, dangling=out_weight == 0.0, transposed=matrix.T.tocsr()
    )


def _restart_vectors(
    graph: RecGraph, users: Sequence[str], t: float | None = None, beta: float | None = None
) -> list[dict[int, float]]:
    """Restart vectors of ``users`` as node index -> mass maps.

    Each node kind is looked up for all users in one pass over the node
    table: its nodes (LSG: temporal user nodes at or before t), sorted
    by (user code, time), keep the last node of each code. Of several
    faults, the first of these raises ValueError: an unknown flavor; LSG
    without t; STG without beta in [0, 1]; the first user, in the order
    given, absent from the graph; for LSG, the first with no node at or
    before t. No users and valid arguments give [].
    """
    if graph.flavor not in ("bip", "stg", "lsg"):
        raise ValueError(f"unknown graph flavor {graph.flavor!r}")
    if graph.flavor == "lsg" and t is None:
        raise ValueError("lsg personalization requires the query time t")
    if graph.flavor == "stg" and (beta is None or not 0.0 <= beta <= 1.0):
        raise ValueError("stg personalization requires beta in [0, 1]")
    user_code = {u: c for c, u in enumerate(graph.users)}
    codes = np.array([user_code.get(u, -1) for u in users], dtype=np.int64)

    def latest(tag: str, message: str, t: float | None = None) -> list[int]:
        idx = np.flatnonzero(graph.kind == TAGS.index(tag))
        if t is not None:
            idx = idx[graph.time[idx] <= t]
        idx = idx[np.lexsort((graph.time[idx], graph.ident[idx]))]
        last = np.diff(graph.ident[idx], append=-1) != 0
        node = np.full(len(graph.users) + 1, -1)  # the last slot answers code -1
        node[graph.ident[idx[last]]] = idx[last]
        found = node[codes]
        for j in np.flatnonzero(found < 0)[:1].tolist():
            raise ValueError(message.format(user=users[j], t=t))
        return found.tolist()

    absent = "user {user!r} not in training graph"
    if graph.flavor == "lsg":
        latest(TUSER, absent)
        return [{n: 1.0} for n in latest(TUSER, absent + " at or before t={t}", t)]
    nodes = latest(USER, absent)
    if graph.flavor == "bip":
        return [{n: 1.0} for n in nodes]
    # unreachable: active users always have a session
    sessions = latest(SESSION, "user {user!r} has no session node")
    return [
        {n: m for n, m in ((u, beta), (s, 1.0 - beta)) if m > 0.0}
        for u, s in zip(nodes, sessions)
    ]


def personalization(
    graph: RecGraph,
    user: str,
    t: float | None = None,
    beta: float | None = None,
) -> dict:
    """Restart vector d for recommending to ``user`` (at time t for LSG).

    Returns a sparse node -> mass map; zero masses are omitted.
    """
    (d,) = _restart_vectors(graph, [user], t, beta)
    return dict(zip(graph.render(list(d)), d.values()))


def personalization_matrix(tm: TransitionMatrix, vectors: Iterable[Mapping]) -> RestartBlock:
    """The restart block of ``vectors``, one column each, in order: the
    one place a :class:`RestartBlock` is built and checked.

    Vectors map nodes to mass; a node is its index in ``tm`` or its
    tagged tuple, and masses that land on the same node are summed.
    Raises ValueError naming a tagged tuple that is not a node of
    ``tm``, or else the columns with negative mass, or else the first
    column whose mass does not sum to 1 (NaN included).
    """
    rows, cols, mass = [], [], []
    width = 0
    for j, d in enumerate(vectors):
        width = j + 1
        for node, m in d.items():
            if not isinstance(node, (int, np.integer)):
                if node not in tm.index:
                    raise ValueError(f"personalization references unknown node {node!r}")
                node = tm.index[node]
            rows.append(node)
            cols.append(j)
            mass.append(m)
    D = sparse.coo_matrix((mass, (rows, cols)), shape=(tm.n, width), dtype=float)
    D.sum_duplicates()
    # the bound of pagerank_batch holds only for probability columns
    negative = np.unique(D.col[D.data < 0.0])
    if negative.size:
        raise ValueError(f"restart columns {negative.tolist()} have negative mass")
    totals = np.bincount(D.col, weights=D.data, minlength=width)
    bad = np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-12))  # NaN is bad too
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"restart column {j} mass sums to {float(totals[j])}, expected 1")
    order = np.lexsort((D.row, D.col))
    return RestartBlock(D.shape, D.row[order], D.col[order], D.data[order])


@dataclass(frozen=True, eq=False)
class RestartBlock:
    """Checked restart vectors as the columns of a (nodes, columns) block,
    as :func:`personalization_matrix` builds them.

    Entry e puts ``mass[e]`` on node ``row[e]`` of column ``col[e]``;
    entries are sorted by column, then row, without duplicates, and
    every column is non-negative and sums to 1. ``block[:, a:b]`` is
    columns a to b - 1 as a block of their own, cut by slicing.
    """

    shape: tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    mass: np.ndarray

    def __getitem__(self, key: tuple[slice, slice]) -> "RestartBlock":
        rows, cols = key
        if rows != slice(None) or not isinstance(cols, slice) or cols.step not in (None, 1):
            raise IndexError("a restart block is cut only as block[:, start:stop]")
        start, stop, _ = cols.indices(self.shape[1])
        stop = max(start, stop)
        a, b = np.searchsorted(self.col, [start, stop]).tolist()
        return RestartBlock(
            (self.shape[0], stop - start), self.row[a:b], self.col[a:b] - start, self.mass[a:b]
        )


def certified_steps(alpha: float, tol: float) -> int:
    """Power-iteration steps after which every column is within tol in L1.

    The update is an alpha-contraction in L1 started from X = D, so the
    error after k steps is at most 2 * alpha**k; the smallest k with
    2 * alpha**k <= tol is ceil(log(tol / 2) / log(alpha)), and at least
    one step is always taken.
    """
    return max(1, math.ceil(math.log(tol / 2.0) / math.log(alpha)))


def step_count(
    alpha: float, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> tuple[int, bool]:
    """(steps, converged) of :func:`pagerank_batch` at alpha, known
    before any iteration: ``min(certified_steps(alpha, tol), max_iter)``
    steps, not converged when the cap cut them short (the L1 bound is
    then 2 * alpha**max_iter, e.g. 5.3e-5 at alpha = 0.9 after 100)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    steps = certified_steps(alpha, tol)
    return min(steps, max_iter), steps <= max_iter


def pagerank_batch(
    tm: TransitionMatrix,
    D: RestartBlock,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, bool, int]:
    """Power iteration for many restart vectors at once.

    ``D`` holds one restart vector per column, as
    :func:`personalization_matrix` builds and checks it. The recurrence
    X <- alpha * (M X + D * dangling_mass) + (1 - alpha) * D is applied
    to all columns in one sparse product per step, starting from X = D.

    The recurrence is an alpha-contraction in L1, so after k steps each
    column is within 2 * alpha**k of its fixed point. The step count and
    ``converged`` are fixed in advance by :func:`step_count` rather than
    by watching the change per step. Returns (scores, converged,
    iterations).

    A large block without dangling nodes starts sparse: while its
    iterate is mostly zeros, a step is ``X.T @ M.T`` on the sparse
    transpose, its rows kept sorted. The dense product sums
    M[i, j] * X[j, c] from +0.0 by ascending j, as ``tm.matrix`` is
    canonical CSR; the sparse one adds the nonzero terms of that sum in
    the same order, and the others only add +0.0 to finite non-negative
    values, so the iterates are bitwise equal (the restart mass is
    added as alpha * y + r, or r where y is not stored, as the dense
    scatter does). The dense loop takes over for the remaining steps.
    """
    iterations, converged = step_count(alpha, tol, max_iter)
    if D.shape[0] != tm.n:
        raise ValueError(f"restart matrix must have shape ({tm.n}, columns), got {D.shape}")
    # D has one or two nonzeros per column; its terms are scatter-adds
    # there, which equal the dense adds because adding +0.0 is exact.
    rows, cols, mass = D.row, D.col, D.mass
    restart = (1.0 - alpha) * mass
    dangling = np.flatnonzero(tm.dangling)
    M = tm.matrix
    if dangling.size or M.nnz * D.shape[1] < _SPARSE_MIN_WORK:
        X = np.zeros(D.shape)
        X[rows, cols] = mass
        done = 0
    else:
        X, done = _sparse_start(tm, D, alpha, restart, iterations)
    for _ in range(iterations - done):
        X_next = M @ X
        if dangling.size:
            X_next[rows, cols] += mass * X[dangling].sum(axis=0)[cols]
        X_next *= alpha
        X_next[rows, cols] += restart
        X = X_next
    return X, converged, iterations


def _sparse_start(
    tm: TransitionMatrix, D: RestartBlock, alpha: float, restart: np.ndarray, iterations: int
) -> tuple[np.ndarray, int]:
    """The first steps of :func:`pagerank_batch` on the sparse
    (columns, nodes) transpose of the iterate, until it fills one entry
    in ``_SPARSE_FILL`` or the steps run out. Returns the dense iterate
    and the number of steps taken. Each row of the transpose is kept in
    ascending node order, the order in which the product adds terms."""
    n, width = D.shape
    starts = np.searchsorted(D.col, np.arange(width + 1))
    XT = sparse.csr_matrix((D.mass, D.row, starts), shape=(width, n))
    RT = sparse.csr_matrix((restart, D.row, starts), shape=(width, n))
    done = 0
    while done < iterations and XT.nnz * _SPARSE_FILL < n * width:
        XT = XT @ tm.transposed
        XT.sort_indices()
        XT.data *= alpha
        XT = XT + RT
        done += 1
    X = np.zeros(D.shape)
    X[XT.indices, np.repeat(np.arange(width), np.diff(XT.indptr))] = XT.data
    return X, done


def pagerank(
    tm: TransitionMatrix,
    d: Mapping,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ScoreVector:
    """Solve PR = alpha * M * PR + (1 - alpha) * d for one restart vector."""
    D = personalization_matrix(tm, [d])
    X, converged, iterations = pagerank_batch(tm, D, alpha, tol=tol, max_iter=max_iter)
    return ScoreVector(tm, X[:, 0], converged, iterations)


def item_matrix(graph: RecGraph) -> tuple[list[str], sparse.csr_matrix]:
    """Sparse aggregation matrix A with A @ scores = per-item scores.

    BIP/STG items are their item node; an LSG item sums every temporal
    occurrence, in node order. Items are sorted, so row order doubles
    as the ranking tie-break.
    """
    cols = graph.item_nodes()
    codes, rows = np.unique(graph.ident[cols], return_inverse=True)
    items = [graph.items[c] for c in codes.tolist()]
    A = sparse.csr_matrix(
        (np.ones(len(cols)), (rows.ravel(), cols)), shape=(len(items), graph.n_nodes)
    )
    return items, A


def item_scores(graph: RecGraph, pr: ScoreVector) -> dict[str, float]:
    """Per-item scores of ``pr``, collapsed through :func:`item_matrix`."""
    items, A = item_matrix(graph)
    return dict(zip(items, (A @ pr.x).tolist()))


def rank_items(
    tm: TransitionMatrix,
    A: sparse.csr_matrix,
    D: RestartBlock,
    alpha: float,
    seen: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank items for a block of restart vectors, one row per column of D.

    ``D`` is a restart block built by :func:`personalization_matrix`, or
    a column slice of one, ``A`` the :func:`item_matrix` of ``tm``'s
    graph and ``seen`` a columns x items mask of the items each row must
    skip.
    Returns the top-n item rows, best first, with -1 past the last
    unseen item (ties go to the lower row, the smaller item id), and the
    item scores, -inf at seen items. Whether the scores are certified is
    ``step_count(alpha)``'s to say.
    """
    X, _, _ = pagerank_batch(tm, D, alpha)
    S = np.ascontiguousarray((A @ X).T)
    S[seen] = -np.inf
    top = np.argsort(-S, axis=1, kind="stable")[:, :n]
    top[np.take_along_axis(seen, top, axis=1)] = -1
    return top, S


def recommend(
    graph: RecGraph,
    user: str,
    t: float,
    params: "ParamSetting",
    seen: set[str],
    tm: TransitionMatrix | None = None,
) -> list[tuple[str, float]]:
    """The protocol's ranking for one user: :func:`rank_items` on a block
    of one. Returns up to ``params.n`` (item, score) pairs not in
    ``seen``, by descending score, ties by ascending item id."""
    if tm is None:
        tm = transition_matrix(graph)
    D = personalization_matrix(tm, _restart_vectors(graph, [user], t, params.beta))
    items, A = item_matrix(graph)
    mask = np.array([[item in seen for item in items]], dtype=bool)
    top, S = rank_items(tm, A, D, params.alpha, mask, params.n)
    return [(items[r], float(S[0, r])) for r in top[0].tolist() if r >= 0]
