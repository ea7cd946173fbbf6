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

:func:`rank_items` is the ranking's specification: one power iteration
per alpha. :func:`rank_users` is the protocol's ranking of a fold's
users at every alpha of one (beta, n), and :func:`recommend` its
ranking for one user. When several alphas rank the same block,
:func:`series_scores` computes all their item scores from one power
series and :func:`certified_top_n` proves each top-n list equal to
:func:`rank_items`' own, or says it cannot.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .graphs import _KIND, SESSION, TUSER, USER, RecGraph

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
    "step_count",
    "item_scores",
    "item_matrix",
    "rank_items",
    "rank_users",
    "recommend",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100

# Users are scored in column blocks so one sparse product serves many
# walks. Results do not depend on the width, as the step count is fixed
# by alpha. A block is at most 48 columns wide, which still scores a
# fold of up to 48 users, as in a small search campaign, in one product
# per step; 32 split such folds and slowed the campaign. A step holds
# two dense iterates of nodes x columns, and the protocol runs whole
# folds on its threads, so the iterates of the largest graphs set the
# peak memory: a block is narrowed until one iterate fits in
# _BLOCK_BYTES, but not below _MIN_COLUMNS. On the protocol-lsg stream
# (17.2k nodes in the last fold) 24-48 columns rank at the same cost per
# column, 16 at about 10% more and 8 at 35% more, and the 4 MiB budget
# (30-48 columns there) took the two-thread peak RSS from 99.8 to 90.8 MB.
_BATCH_COLUMNS = 48
_MIN_COLUMNS = 16
_BLOCK_BYTES = 2**22

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
    ``transposed`` is ``matrix.T`` in CSR, built on first read by the
    sparse start of :func:`pagerank_batch`. ``nodes`` and ``index`` are
    the rendered tagged-tuple view of that order, built on first read.
    """

    graph: RecGraph
    matrix: sparse.csr_matrix
    dangling: np.ndarray  # bool mask over node indices

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def transposed(self) -> sparse.csr_matrix:
        return self.matrix.T.tocsr()

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
    return TransitionMatrix(graph=graph, matrix=matrix, dangling=out_weight == 0.0)


def _restart_vectors(
    graph: RecGraph,
    users: Sequence[str] | np.ndarray,
    t: float | None = None,
    beta: float | None = None,
) -> list[dict[int, float]]:
    """Restart vectors of ``users`` (ids, or an integer array of their
    codes into ``graph.users``) as node index -> mass maps.

    Each node kind is looked up for all users in one pass over the node
    table: its nodes (LSG: temporal user nodes at or before t), sorted
    by (user code, time), keep the last node of each code. Of several
    faults, the first of these raises ValueError: an unknown flavor; LSG
    without t; STG without beta in [0, 1]; the first code, in the order
    given, outside the user table; the first user, in the order given,
    absent from the graph; for LSG, the first with no node at or before
    t. No users and valid arguments give [].
    """
    if graph.flavor not in ("bip", "stg", "lsg"):
        raise ValueError(f"unknown graph flavor {graph.flavor!r}")
    if graph.flavor == "lsg" and t is None:
        raise ValueError("lsg personalization requires the query time t")
    if graph.flavor == "stg" and (beta is None or not 0.0 <= beta <= 1.0):
        raise ValueError("stg personalization requires beta in [0, 1]")
    if isinstance(users, np.ndarray) and np.issubdtype(users.dtype, np.integer):
        codes = users
        for code in codes[(codes < 0) | (codes >= len(graph.users))][:1].tolist():
            raise ValueError(f"user code {code} is outside [0, {len(graph.users)})")
    else:
        user_code = {u: c for c, u in enumerate(graph.users)}
        codes = np.array([user_code.get(u, -1) for u in users], dtype=np.int64)

    def latest(tag: str, message: str, t: float | None = None) -> list[int]:
        idx = np.flatnonzero(graph.kind == _KIND[tag])
        if t is not None:
            idx = idx[graph.time[idx] <= t]
        idx = idx[np.lexsort((graph.time[idx], graph.ident[idx]))]
        last = np.diff(graph.ident[idx], append=-1) != 0
        node = np.full(len(graph.users) + 1, -1)  # the last slot answers code -1
        node[graph.ident[idx[last]]] = idx[last]
        found = node[codes]
        for j in np.flatnonzero(found < 0)[:1].tolist():
            user = graph.users[codes[j]] if codes[j] >= 0 else users[j]
            raise ValueError(message.format(user=user, t=t))
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
    every column is non-negative and sums to 1.
    """

    shape: tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    mass: np.ndarray


def step_count(
    alpha: float, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> tuple[int, bool]:
    """(steps, converged) of :func:`pagerank_batch` at alpha, known
    before any iteration: the one place that decides step counts.

    The update is an alpha-contraction in L1 started from X = D, so the
    error after k steps is at most 2 * alpha**k; the smallest k with
    2 * alpha**k <= tol is ceil(log(tol / 2) / log(alpha)), and at least
    one step is always taken. max_iter caps the steps, which are then
    not converged (the L1 bound is 2 * alpha**max_iter, e.g. 5.3e-5 at
    alpha = 0.9 after 100).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not sys.float_info.min <= tol < math.inf:  # the least subnormal halves to 0.0
        raise ValueError("tol must be positive and finite, and not subnormal")
    if not isinstance(max_iter, numbers.Integral) or isinstance(max_iter, bool):
        raise ValueError("max_iter must be an integer")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    steps = max(1, math.ceil(math.log(tol / 2.0) / math.log(alpha)))
    return min(steps, max_iter), steps <= max_iter


def pagerank_batch(
    tm: TransitionMatrix,
    D: RestartBlock,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, bool, int]:
    """Power iteration at one alpha for many restart vectors at once.

    ``D`` holds one restart vector per column, as
    :func:`personalization_matrix` builds and checks it. The recurrence
    X <- alpha * (M X + D * dangling_mass) + (1 - alpha) * D is applied
    to all columns in one sparse product per step, starting from X = D.

    The recurrence is an alpha-contraction in L1, so after k steps each
    column is within 2 * alpha**k of its fixed point. The step count and
    ``converged`` are fixed in advance by :func:`step_count` rather than
    by watching the change per step. Returns (scores, converged,
    iterations).

    Each column of a product reads only its own column, so a column's
    scores are bitwise the same in any block that holds it, whatever its
    companions and the block's width.

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


def item_matrix(graph: RecGraph) -> tuple[np.ndarray, sparse.csr_matrix]:
    """Sparse aggregation matrix A with A @ scores = per-item scores, and
    the item code of each row of A, ascending.

    BIP/STG items are their item node; an LSG item sums every temporal
    occurrence, in node order. Codes sort like the ids in
    ``graph.items``, so row order doubles as the ranking tie-break.
    """
    cols = graph.item_nodes()
    codes, rows = np.unique(graph.ident[cols], return_inverse=True)
    A = sparse.csr_matrix(
        (np.ones(len(cols)), (rows.ravel(), cols)), shape=(len(codes), graph.n_nodes)
    )
    return codes, A


def item_scores(graph: RecGraph, pr: ScoreVector) -> dict[str, float]:
    """Per-item scores of ``pr``, collapsed through :func:`item_matrix`.
    Raises ValueError when ``pr`` holds scores of another graph."""
    if pr.tm.graph is not graph:
        raise ValueError("pr holds the scores of another graph")
    codes, A = item_matrix(graph)
    return dict(zip((graph.items[c] for c in codes.tolist()), (A @ pr.x).tolist()))


def rank_items(
    tm: TransitionMatrix,
    A: sparse.csr_matrix,
    D: RestartBlock,
    alpha: float,
    seen: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank items at one alpha for a block of restart vectors, one row
    per column of D: the per-alpha walk, which is the ranking's
    specification.

    ``D`` is a restart block built by :func:`personalization_matrix`,
    ``A`` the :func:`item_matrix` of ``tm``'s graph and ``seen`` a
    columns x items mask of the items each row must skip. A row does
    not depend on the block's other columns (see :func:`pagerank_batch`).
    Returns the top-n item rows, best first, with -1 past the last
    unseen item (ties go to the lower row, the smaller item id), and the
    item scores, -inf at seen items. The rows are selected by
    :func:`_select`. Whether the scores are certified is
    ``step_count(alpha)``'s to say. :func:`series_scores` and
    :func:`certified_top_n` give the same lists for many alphas at once,
    where they can prove it.
    """
    X, _, _ = pagerank_batch(tm, D, alpha)
    S = np.ascontiguousarray((A @ X).T)
    return _select(S, seen, n)[0], S


def series_scores(
    tm: TransitionMatrix, A: sparse.csr_matrix, D: RestartBlock, alphas: Sequence[float]
) -> list[np.ndarray] | None:
    """Item scores of restart block ``D`` at every alpha of ``alphas``
    from one power series, or None where the series does not apply.

    With no dangling node, the k-step iterate of :func:`pagerank_batch`
    is X_k = alpha**k M**k D + (1 - alpha) sum_{j<k} alpha**j M**j D,
    linear in the powers M**j D (Boldi, Santini and Vigna, "PageRank as
    a Function of the Damping Factor", WWW 2005). So one sequence
    V_0 = D, V_{j+1} = M V_j, run to the largest step count, serves
    every alpha, each accumulating its item scores in item space:
    T = sum_{j<k} (1 - alpha) alpha**j A V_j + alpha**k A V_k, with
    alpha**j by repeated multiplication and k = ``step_count(alpha)``.
    T equals the item scores of :func:`rank_items` in exact arithmetic;
    the two differ by rounding alone, which :func:`certified_top_n`
    bounds. Returns one columns x items array per alpha, in order.

    None when a node is dangling (its mass returns to D, which the
    series leaves out) or when, for some alpha, the smallest weight of
    a path, (1 - alpha) m (alpha m)**k with m the smallest positive
    entry of M or D, is below 2**-1000: then a product could leave
    float64's normal range and the rounding bound would not hold.
    """
    M = tm.matrix
    if tm.dangling.any():
        return None
    m = min(M.data.min(), D.mass[D.mass > 0.0].min(initial=1.0))
    steps = [step_count(alpha)[0] for alpha in alphas]
    if any(k * math.log2(alpha * m) + math.log2((1.0 - alpha) * m) < -1000
           for alpha, k in zip(alphas, steps)):
        return None
    # one product per step gives M V_j and A V_j: the rows of M, then A's
    MA = sparse.vstack([M, A], format="csr")
    V = np.zeros(D.shape)
    V[D.row, D.col] = D.mass
    T = [np.zeros((A.shape[0], D.shape[1])) for _ in alphas]
    power = [1.0] * len(alphas)
    for j in range(max(steps, default=0) + 1):
        W = MA @ V
        V, AV = W[: tm.n], W[tm.n :]
        for i, (alpha, k) in enumerate(zip(alphas, steps)):
            if j <= k:
                T[i] += (power[i] if j == k else (1.0 - alpha) * power[i]) * AV
                power[i] *= alpha
    for i, t in enumerate(T):  # one transposed copy at a time
        T[i] = np.ascontiguousarray(t.T)
    return T


def certified_top_n(
    tm: TransitionMatrix,
    A: sparse.csr_matrix,
    S: np.ndarray,
    alpha: float,
    seen: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The selection of :func:`rank_items` on the series scores ``S`` of
    a restart block at ``alpha`` (one array of :func:`series_scores`),
    and per row whether the list is certified to be the one
    :func:`rank_items` gives.

    Returns the top-n item rows, -1 past the last unseen item, and a
    boolean per row; ``S`` gets -inf at seen items. Both computations
    only add and multiply non-negative terms of M, D, alpha and
    1 - alpha, and a term meets at most m = k (d + 2) + o + 2 roundings
    on its way to an item score, with k = ``step_count(alpha)``, d the
    most nonzeros in a row of M and o the most nodes of one item. So
    each score lies within a relative gamma_m = m u / (1 - m u) of the
    exact one (u = 2**-53; Higham, "Accuracy and Stability of Numerical
    Algorithms", section 3.1), and a score is 0 exactly when the exact
    one is, as :func:`series_scores` keeps products in the normal range.
    Let s_1 >= ... >= s_n be the selected scores and s_{n+1} the best
    score left out, if any, from the same selection. The list is
    certified when every adjacent pair has s_i > s_{i+1} (1 + eps),
    eps = 8 gamma_m, so that both computations order the pair alike, or
    s_i = s_{i+1} at 0 or -inf, where both computations tie the pair
    exactly and so break the tie by item row.
    """
    d = np.diff(tm.matrix.indptr).max(initial=0)
    o = np.diff(A.indptr).max(initial=0)
    m = step_count(alpha)[0] * (d + 2) + o + 2
    eps = 8.0 * m * 2.0**-53 / (1.0 - m * 2.0**-53)
    top, s = _select(S, seen, n)
    hi, lo = s[:, :-1], s[:, 1:]
    exact_tie = (hi == lo) & ((hi == 0.0) | (hi == -np.inf))
    return top, ((hi > lo * (1.0 + eps)) | exact_tie).all(axis=1)


def rank_users(
    tm: TransitionMatrix,
    A: sparse.csr_matrix,
    users: Sequence[str] | np.ndarray,
    t: float | None,
    beta: float | None,
    alphas: Sequence[float],
    seen: sparse.spmatrix | np.ndarray,
    n: int,
) -> tuple[dict, int]:
    """Rank ``users`` at every alpha of ``alphas`` for one (beta, n): the
    protocol's ranking of a fold's users, with :func:`rank_items`' lists.

    ``users`` are ids, or an integer array of their codes into the
    graph's user table (a code outside it is a restart-vector error,
    below). ``A`` is the :func:`item_matrix` of ``tm``'s graph and
    ``seen`` a users x items matrix, sparse or dense, of the items each
    user must skip; a ``ValueError`` names its shape when it is not
    users x items. The restart vectors (at time t for LSG) are
    looked up once and cut into blocks of up to ``_BATCH_COLUMNS``,
    fewer where a nodes x columns iterate would exceed ``_BLOCK_BYTES``
    (but not fewer than ``_MIN_COLUMNS``), each ranked once for the
    alphas still running with its rows of ``seen`` made dense. Where
    their walks take at least twice the steps of the longest (never for
    a lone alpha), :func:`series_scores` is tried per block and
    :func:`certified_top_n` selects each alpha's lists.
    :func:`rank_items` walks every list not certified: the whole block
    where no series ran or it declined, else a sub-block of the
    uncertified users, whose rows are bitwise the whole block's.

    Returns per alpha a users x min(n, items) array of item rows, best
    first, -1 past the last unseen item, or the exception that stopped
    it; and the number of lists walked where a series was tried (0
    otherwise). An error in one alpha's selection or walk stops that
    alpha; a restart-vector, restart-block or series error stops them
    all, and the count keeps the lists walked before it.
    """
    if np.shape(seen) != (len(users), A.shape[0]):
        raise ValueError(f"seen must be users x items, {len(users)} x {A.shape[0]}; "
                         f"got shape {np.shape(seen)}")
    seen = sparse.csr_matrix(seen, dtype=bool)
    steps = [step_count(alpha)[0] for alpha in alphas]
    series = sum(steps) >= 2 * max(steps)
    tops: dict = {a: np.empty((len(users), min(n, A.shape[0])), np.intp) for a in alphas}
    walked = 0
    try:
        vectors = _restart_vectors(tm.graph, users, t, beta)
        width = min(_BATCH_COLUMNS, max(_MIN_COLUMNS, _BLOCK_BYTES // (8 * tm.n)))
        blocks = [slice(s, s + width) for s in range(0, len(vectors), width)]
        for block, D in [(b, personalization_matrix(tm, vectors[b])) for b in blocks]:
            live = [alpha for alpha in alphas if isinstance(tops[alpha], np.ndarray)]
            if not live:
                break
            block_seen = seen[block].toarray()
            scores = series_scores(tm, A, D, live) if series else None
            for j, alpha in enumerate(live):
                try:
                    if scores is None:
                        top, _ = rank_items(tm, A, D, alpha, block_seen, n)
                        walked += len(top) if series else 0
                    else:
                        top, certified = certified_top_n(tm, A, scores[j], alpha, block_seen, n)
                        scores[j] = None  # free this alpha's accumulator before its walk
                        redo = np.flatnonzero(~certified).tolist()
                        if redo:
                            sub = personalization_matrix(tm, [vectors[block][c] for c in redo])
                            top[redo], _ = rank_items(tm, A, sub, alpha, block_seen[redo], n)
                        walked += len(redo)
                    tops[alpha][block] = top
                except Exception as exc:  # this alpha stops; the others go on
                    tops[alpha] = exc
    except Exception as exc:  # a restart-vector, restart-block or series error stops every alpha
        return dict.fromkeys(alphas, exc), walked
    return tops, walked


def _select(S: np.ndarray, seen: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of :func:`rank_items` from scores ``S``, which get -inf at
    ``seen`` items, and the scores of one :func:`_top_n` of n + 1: the
    rows' scores, then the best score left out, if any."""
    S[seen] = -np.inf
    top = _top_n(S, n + 1)
    s = np.take_along_axis(S, top, axis=1)
    top = top[:, :n]
    top[np.take_along_axis(seen, top, axis=1)] = -1
    return top, s


def _top_n(S: np.ndarray, n: int) -> np.ndarray:
    """The first n columns of ``np.argsort(-S, axis=1, kind="stable")``:
    each row's columns by descending score, ties to the lower column.

    Only n entries per row are sorted. A partition finds each row's n-th
    best score v; the row keeps every column scoring above v and the
    lowest columns tied at v, up to n; those n are stable-sorted by
    descending score. Rows of at most n columns are sorted whole.
    """
    rows, width = S.shape
    if n >= width:
        return np.argsort(-S, axis=1, kind="stable")
    v = np.partition(S, width - n, axis=1)[:, width - n, None]
    above = S > v
    tied = S == v
    keep = above | (tied & (np.cumsum(tied, axis=1) <= n - above.sum(axis=1, keepdims=True)))
    kept = np.nonzero(keep)[1].reshape(rows, n)
    order = np.argsort(-np.take_along_axis(S, kept, axis=1), axis=1, kind="stable")
    return np.take_along_axis(kept, order, axis=1)


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
    ``seen``, by descending score, ties by ascending item id. Raises
    ValueError when ``tm`` is the transition matrix of another graph."""
    if tm is None:
        tm = transition_matrix(graph)
    elif tm.graph is not graph:
        raise ValueError("tm is the transition matrix of another graph")
    D = personalization_matrix(tm, _restart_vectors(graph, [user], t, params.beta))
    codes, A = item_matrix(graph)
    items = [graph.items[c] for c in codes.tolist()]
    mask = np.array([[item in seen for item in items]], dtype=bool)
    top, S = rank_items(tm, A, D, params.alpha, mask, params.n)
    return [(items[r], float(S[0, r])) for r in top[0].tolist() if r >= 0]
