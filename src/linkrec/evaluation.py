"""Time-windowed evaluation: F1@N, Hit Ratio@N and MAP@N with
numerator/denominator decomposition, the sliding 8-window protocol and
time averaging.

The stream is split into n equal windows; fold k trains on windows
1..k and tests on window k+1. A user is evaluated in fold k when they
appear in the training data and selected at least one *new* item (one
they never picked during training) in the test window. Per-fold metric
components are summed across folds and divided once at the end, giving
the time-averaged value of each metric.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .graphs import build_graph
from .linkstream import LinkStream, Window, split_windows
from .ranker import item_matrix, rank_users, step_count, transition_matrix

if TYPE_CHECKING:
    from .tuning import ParamSetting

__all__ = [
    "Fold",
    "MetricComponents",
    "EvaluationReport",
    "hits_at_n",
    "f1_components",
    "hit_ratio_components",
    "map_components",
    "iter_folds",
    "evaluate_settings",
    "run_protocol",
    "time_average",
    "report_to_dict",
    "report_json",
    "report_csv",
    "write_report_files",
    "REPORT_SCHEMA",
]

log = logging.getLogger(__name__)

EVALUATED_USERS_RULE = "present in training with at least one new item in the test window"


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_workers(workers) -> None:
    """Raise ValueError unless ``workers`` is an integer of at least 1."""
    if not isinstance(workers, numbers.Integral) or isinstance(workers, bool):
        raise ValueError("workers must be an integer")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


class FoldRows(NamedTuple):
    """What every graph of a fold ranks and scores (:attr:`Fold.rows`)."""

    items: np.ndarray
    users: np.ndarray
    seen: sparse.csr_matrix
    truth: sparse.csr_matrix
    new_counts: np.ndarray


@dataclass(frozen=True)
class Fold:
    """Training/test split for one evaluation step.

    ``rec_time`` is the exact right edge of the training span, the time
    recommendations are issued at. ``train`` and ``test`` are slices of
    one stream and share its id tables, so a (user, item) pair is one
    int64 key ``user_code * n_items + item_code``, and keys sort like
    (user id, item id). :attr:`train_keys` and :attr:`new_keys` are the
    fold's code view, and :attr:`rows` the ranking rows derived from
    them, each read on first use and kept, so every graph key scored
    on the fold shares them; the protocol reads nothing else.
    :attr:`train_items` and :attr:`truth` render the keys as id sets,
    for tests and demos.
    """

    k: int
    train: LinkStream
    test_window: Window
    test: LinkStream
    rec_time: Fraction

    @property
    def n_items(self) -> int:
        """The size of the item table the fold's slices share."""
        return len(self.train.columns.items)

    @cached_property
    def train_keys(self) -> np.ndarray:
        """The keys of the distinct training pairs, ascending."""
        return self.train.pair_keys()

    @cached_property
    def new_keys(self) -> np.ndarray:
        """The keys of the new test pairs, ascending: each pair's user is
        present in training and its item is not among that user's
        training items. The users of these pairs are the evaluated users.
        Empty for an empty test window, which reads no training pair."""
        c, train = self.test.columns, self.train.columns
        if (c.users, c.items) != (train.users, train.items):
            raise ValueError("a fold's train and test slices must share id tables")
        if not len(c.t):
            return np.zeros(0, np.int64)
        keys = self.test.pair_keys()
        trained = np.isin(keys // self.n_items, self.train_keys // self.n_items)
        return keys[trained & ~np.isin(keys, self.train_keys)]

    @cached_property
    def rows(self) -> FoldRows:
        """The fold's ranking rows, from its keys with no per-user loop.

        Every graph built from the training slice has the training items
        as its items, so these serve every graph key. ``items`` are their
        codes, ascending: the rows of :func:`item_matrix`'s ``A``.
        ``users`` are the ranked users: the codes, ascending (so in id
        order), of the evaluated users with at least one new item among
        the training items. Only graph items can be ranked, so an
        evaluated user whose new items all first appear in the test
        window scores no hit under any setting and is not ranked. Every
        evaluated user has training nodes, so leaving them out hides no
        restart-vector error. ``seen`` and ``truth`` are users x items
        boolean CSR rows of the ranked users' training items and of
        their new items among the training items, one stored entry per
        (user, item) pair. ``new_counts`` holds |I_new| of every
        evaluated user: the ranked users' in row order, then the
        others'.
        """
        n_users = len(self.train.columns.users)
        train_user, train_item = np.divmod(self.train_keys, self.n_items)
        items = np.unique(train_item)
        new_user, new_item = np.divmod(self.new_keys, self.n_items)
        in_graph = np.isin(new_item, items)
        ranked = np.bincount(new_user[in_graph], minlength=n_users) > 0
        sizes = np.bincount(new_user, minlength=n_users)  # |I_new| by user code
        users = np.flatnonzero(ranked)
        of_ranked = ranked[train_user]
        return FoldRows(
            items, users,
            _item_rows(train_user[of_ranked], train_item[of_ranked], users, items),
            _item_rows(new_user[in_graph], new_item[in_graph], users, items),
            np.concatenate([sizes[users], sizes[(sizes > 0) & ~ranked]]),
        )

    @cached_property
    def train_items(self) -> dict[str, set[str]]:
        """Each training user's distinct items, users by first appearance."""
        return self.train.items_by_user()

    @cached_property
    def truth(self) -> dict[str, set[str]]:
        """Each evaluated user's new test-window items (never empty sets),
        rendered from :attr:`new_keys`."""
        c = self.train.columns
        truth: dict[str, set[str]] = {}
        for u, i in zip(*(a.tolist() for a in np.divmod(self.new_keys, self.n_items))):
            truth.setdefault(c.users[u], set()).add(c.items[i])
        return truth


@dataclass(frozen=True)
class MetricComponents:
    """Per-window numerator/denominator pairs for F1, HR and MAP."""

    window: int
    users: int
    f1: tuple[float, float]
    hr: tuple[float, float]
    map: tuple[float, float]
    skipped: bool = False


@dataclass
class EvaluationReport:
    flavor: str
    params: "ParamSetting"
    n_windows: int
    windows: list[MetricComponents]
    ta_f1: float | None
    ta_hr: float | None
    ta_map: float | None
    all_converged: bool = True

    @property
    def nothing_evaluated(self) -> bool:
        return all(c.skipped for c in self.windows)


def hits_at_n(
    recommended: Sequence[tuple[str, float]], relevant: set[str]
) -> tuple[list[int], list[int]]:
    """Per-rank hit flags h(1..N) and their prefix sums hit_k."""
    h = [1 if item in relevant else 0 for item, _ in recommended]
    return h, list(accumulate(h))


def f1_components(
    hit_counts: Sequence[int], new_counts: Sequence[int], n: int
) -> tuple[float, float]:
    """F1@N components: (sum of 2*hit_N(u), sum of |I_new(u)| + N)."""
    hit_counts, new_counts = np.asarray(hit_counts), np.asarray(new_counts)
    if hit_counts.shape != new_counts.shape:
        raise ValueError("one hit count and one I_new size per user")
    if (new_counts < 1).any():
        raise ValueError("every evaluated user needs at least one relevant item")
    if (hit_counts > np.minimum(new_counts, n)).any():
        raise ValueError("a hit count exceeds min(n, |I_new|) of its user")
    return (2.0 * int(hit_counts.sum()), float(int(new_counts.sum()) + n * len(new_counts)))


def hit_ratio_components(hit_counts: Sequence[int]) -> tuple[float, float]:
    """HR@N components: (#users with a hit, #users evaluated)."""
    return (float(np.count_nonzero(np.greater(hit_counts, 0))), float(len(hit_counts)))


def _fadd(values: Iterable[float]) -> float:
    """The floats added left to right from 0.0, as builtin ``sum()``
    did until Python 3.12, so MAP does not depend on the version."""
    return reduce(add, values, 0.0)


def average_precision(h: Sequence[int], n: int) -> float:
    """AP@N from at most n per-rank hit flags; 0 when nothing was hit."""
    if len(h) > n:
        raise ValueError(f"{len(h)} hit flags for a top-{n} list")
    hit_k = list(accumulate(h))
    hit_n = hit_k[-1] if hit_k else 0
    if hit_n == 0:
        return 0.0
    return _fadd(hk * hj / k for k, (hk, hj) in enumerate(zip(hit_k, h), start=1)) / hit_n


def map_components(
    flags_per_user: np.ndarray | Sequence[Sequence[int]], n: int
) -> tuple[float, float]:
    """MAP@N components: (sum of AP_N(u), #users evaluated), from a users
    x ranks hit array or one flag list per user, at most n ranks wide,
    whose missing ranks are misses (their terms add exactly 0.0).
    Left-to-right cumsums add each AP and then the APs, bitwise as
    :func:`_fadd` adds them."""
    h = flags_per_user
    if not isinstance(h, np.ndarray):  # pad the lists with misses
        h = np.zeros((len(h), max(map(len, h), default=0)), dtype=np.intp)
        for u, flags in enumerate(flags_per_user):
            h[u, : len(flags)] = flags
    if h.shape[1] > n:
        raise ValueError(f"{h.shape[1]} ranks of hit flags for a top-{n} list")
    hit_k = np.cumsum(h, axis=1)
    terms = np.hstack([np.zeros((len(h), 1)), hit_k * h / np.arange(1, h.shape[1] + 1)])
    ap = np.cumsum(terms, axis=1)[:, -1] / np.maximum(h.sum(axis=1), 1)  # 0.0 without hits
    return float(np.cumsum(np.append(0.0, ap))[-1]), float(len(h))


def time_average(components: Iterable[MetricComponents]) -> tuple[float, float, float]:
    """TA value per metric: summed numerators over summed denominators."""
    comps = list(components)
    sums = {
        name: (
            _fadd(getattr(c, name)[0] for c in comps),
            _fadd(getattr(c, name)[1] for c in comps),
        )
        for name in ("f1", "hr", "map")
    }
    if all(den == 0 for _, den in sums.values()):
        raise ValueError("nothing evaluated")
    return tuple(num / den for num, den in sums.values())  # type: ignore[return-value]


def iter_folds(stream: LinkStream, n_windows: int = 8) -> list[Fold]:
    """Cut the sliding train/test folds of the protocol.

    Windows are runs of the time-sorted stream, so each fold's training
    stream is a prefix of the stream's columns and its test stream one
    window's run, both sharing the stream's id tables. Only the windows
    are cut here: each fold reads its pair keys from its own slices when
    first asked.
    """
    windows = split_windows(stream, n_windows)
    folds = []
    end = 0
    for k in range(1, n_windows):
        (w_train, sub), (w_test, test_sub) = windows[k - 1], windows[k]
        end += len(sub)
        train = stream.slice(0, end, (stream.alpha, w_train.end))
        folds.append(Fold(k=k, train=train, test_window=w_test, test=test_sub,
                          rec_time=w_train.end))
    return folds


def _item_rows(user: np.ndarray, item: np.ndarray, users: np.ndarray,
               item_codes: np.ndarray) -> sparse.csr_matrix:
    """Sorted (user, item) code pairs as users x items boolean CSR rows,
    one stored entry per pair; every pair's user is in ``users`` and its
    item in ``item_codes``, both ascending."""
    indptr = np.append(np.searchsorted(user, users), len(user))
    return sparse.csr_matrix(
        (np.ones(len(user), dtype=bool), np.searchsorted(item_codes, item), indptr),
        shape=(len(users), len(item_codes)),
    )


def _hits(truth: sparse.csr_matrix, top: np.ndarray) -> np.ndarray:
    """Whether each item row of ``top`` (-1: none) is stored in its row of
    ``truth``: each stored (user, item) is looked for among its user's
    rows of ``top``, so the work follows the pairs, not users x items."""
    user = np.repeat(np.arange(truth.shape[0]), np.diff(truth.indptr))
    entry, rank = np.divmod(np.flatnonzero(top[user] == truth.indices[:, None]), top.shape[1])
    hits = np.zeros(top.shape, dtype=bool)
    hits[user[entry], rank] = True
    return hits


def _evaluate_fold(fold: Fold, flavor: str, settings: Sequence["ParamSetting"]):
    """Skip, build, rank and score one fold for every setting.

    Returns ``(counts, outcomes)``: ``counts`` is the fold's (nodes,
    edges, evaluated users, ranked users, recomputed lists), or None when
    no graph was built, and ``outcomes`` holds per setting its
    components, the skipped (0, 0) components of a fold without evaluated
    users, or the exception that stopped it. An error building the graph
    and its matrices, or reading the fold's :attr:`Fold.rows` on first
    use, is every setting's, and so is a ``ValueError`` when the codes of
    ``A``'s rows are not the fold's training items; :func:`rank_users`
    ranks each (beta, n) once for all its alphas, and an error there
    belongs to the settings it stopped. No scoring error escapes. The
    graph is freed on return; the rows stay with the fold.

    The evaluated users and their I_new sizes come from the fold's new
    pair keys, through ``rows.new_counts``, and hits are read from the
    ``truth`` rows: no users x items array is built. An evaluated user
    with no new item in the graph is only counted: they score a hit
    count of 0, and the AP sum leaves out their AP of 0.0, whose addition
    is exact. The users and denominators still count every evaluated
    user, so the components equal ranking them all.
    """
    if not len(fold.new_keys):
        skipped = MetricComponents(
            window=fold.k, users=0, f1=(0.0, 0.0), hr=(0.0, 0.0), map=(0.0, 0.0), skipped=True
        )
        return None, [skipped] * len(settings)
    first = settings[0]
    try:
        graph = build_graph(flavor, fold.train, delta=first.delta, eta_s=first.eta_s)
        tm = transition_matrix(graph)
        codes, A = item_matrix(graph)
        rows = fold.rows
        if not np.array_equal(codes, rows.items):
            raise ValueError(f"fold {fold.k}: the {flavor} graph's items are not the fold's "
                             "training items")
    except Exception as exc:  # the whole group stops; the caller reports it
        return None, [exc] * len(settings)
    groups: dict = {}
    for params in settings:
        groups.setdefault((params.beta, params.n), {})[params.alpha] = None
    evaluated = len(rows.new_counts)  # one I_new size per evaluated user
    t = fold.train.columns.t[-1].item()  # LSG finds at the last event the nodes rec_time would
    scored: dict = {}
    recomputed = 0
    for (beta, n), alphas in groups.items():
        tops, walked = rank_users(tm, A, rows.users, t, beta, list(alphas), rows.seen, n)
        recomputed += walked
        for alpha, top in tops.items():
            if isinstance(top, Exception):
                scored[beta, n, alpha] = top
                continue
            hits = _hits(rows.truth, top)
            # row sums, then a 0 for each unranked user, whom minlength counts
            hit_counts = np.bincount(hits.nonzero()[0], minlength=evaluated)
            scored[beta, n, alpha] = MetricComponents(
                window=fold.k,
                users=evaluated,
                f1=f1_components(hit_counts, rows.new_counts, n),
                hr=hit_ratio_components(hit_counts),
                map=(map_components(hits, n)[0], float(evaluated)),
            )
    counts = (graph.n_nodes, graph.n_edges, evaluated, len(rows.users), recomputed)
    return counts, [scored[params.beta, params.n, params.alpha] for params in settings]


def evaluate_settings(
    folds: Sequence[Fold],
    flavor: str,
    settings: Sequence["ParamSetting"],
    pool: ThreadPoolExecutor | None = None,
) -> list["EvaluationReport | Exception"]:
    """Evaluate settings that share one graph key over the protocol folds.

    All settings must share delta and eta_s, so each fold's graph and
    matrices are built once and every setting (alpha, beta, n) is scored
    on them in one pass, each restart block ranked once per (beta, n)
    for all its alphas (:func:`rank_users`). The ranking rows are the
    fold's (:attr:`Fold.rows`), built on first use and shared by every
    call given the same folds, whatever its graph key. Returns one
    outcome per setting, in order: its report, or the exception that
    stopped it. An error building a fold's graph or matrices, or its
    rows, stops every setting still running; a restart-vector, restart-block or series error while ranking a
    (beta, n) stops its settings, and an error in one alpha's selection
    or walk only that alpha's; the first error in fold order wins. Folds
    without evaluable users contribute (0, 0) components and are marked
    skipped. Each fold whose graph is built is logged once, in fold
    order, as a DEBUG record with its node, edge, evaluated-user and
    ranked-user counts and the number of top-n lists that the per-alpha
    walk computed because a shared power series could not certify them
    or declined their block (0 where no series was tried). Each
    setting's step count is decided once, by :func:`step_count`; when
    max_iter caps it before the certified count, every fold scored with
    it is logged as a WARNING with its L1 error bound.

    Each fold is one call of :func:`_evaluate_fold`, which skips,
    builds, ranks and scores it for every setting, and one loop takes
    the results in fold order, keeping those of the settings still
    running; it stops once none is. With ``pool``, each fold is one
    task, submitted largest training prefix first so the longest
    fold does not start last, and the tasks not yet started are
    cancelled when the loop stops. Without a pool, each fold is scored
    in this thread when the loop reaches it, so none is built once every
    setting has stopped. Either way the results, records and outcomes
    are the same.
    """
    if not settings:
        return []
    first = settings[0]
    if any((s.delta, s.eta_s) != (first.delta, first.eta_s) for s in settings):
        raise ValueError("settings evaluated together must share delta and eta_s")
    # Each setting's slot holds its components while it runs, then the
    # exception that stopped it or its report.
    outcomes: list = [[] for _ in settings]
    steps = [step_count(s.alpha) for s in settings]
    if pool is None:
        tasks = []
        results = (_evaluate_fold(fold, flavor, settings) for fold in folds)
    else:
        # training prefixes grow with k: the last fold is the largest task
        tasks = [pool.submit(_evaluate_fold, fold, flavor, settings) for fold in reversed(folds)]
        results = (task.result() for task in reversed(tasks))
    for fold, (counts, scored) in zip(folds, results):
        if counts is not None:
            log.debug(
                "%s fold %d: %d nodes, %d edges, %d evaluated users, %d ranked, "
                "%d lists recomputed",
                flavor, fold.k, *counts,
            )
        for j, comp in enumerate(scored):
            if not isinstance(outcomes[j], list):
                continue
            if isinstance(comp, Exception):
                outcomes[j] = comp
                continue
            params = settings[j]
            iterations, converged = steps[j]
            if not (converged or comp.skipped):
                log.warning(
                    "%s fold %d: PageRank not converged at alpha=%g, capped at %d steps; "
                    "L1 error bound 2*alpha^%d = %.2g",
                    flavor, fold.k, params.alpha, iterations, iterations,
                    2.0 * params.alpha**iterations,
                )
            outcomes[j].append(comp)
        if not any(isinstance(slot, list) for slot in outcomes):
            break
    for task in tasks:
        task.cancel()

    for j, comps in enumerate(outcomes):
        if isinstance(comps, Exception):
            continue
        scored = not all(c.skipped for c in comps)
        ta = time_average(comps) if scored else (None, None, None)
        outcomes[j] = EvaluationReport(
            flavor=flavor,
            params=settings[j],
            n_windows=len(folds) + 1,
            windows=comps,
            ta_f1=ta[0],
            ta_hr=ta[1],
            ta_map=ta[2],
            all_converged=steps[j][1] or not scored,
        )
    return outcomes


def run_protocol(
    stream: LinkStream,
    flavor: str,
    params: "ParamSetting",
    n_windows: int = 8,
    workers: int | None = None,
) -> EvaluationReport:
    """Evaluate one parameter setting over all folds of the protocol.

    The one-setting case of :func:`evaluate_settings`, raising what
    stopped the setting. ``workers`` threads (default: every usable
    core; not an integer, or below 1: ``ValueError``), but no more than
    there are folds, each take whole folds, largest first, from one pool
    that lives for this call; with one, no pool is made and the folds
    run in order in this thread. A report where every fold was skipped
    has None for the time-averaged metrics and ``nothing_evaluated`` set.
    """
    if workers is None:
        workers = _usable_cores()
    _check_workers(workers)
    folds = iter_folds(stream, n_windows)
    workers = min(workers, len(folds))
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        (outcome,) = evaluate_settings(folds, flavor, [params], pool)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# --- serialization ---------------------------------------------------------

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["flavor", "n_windows", "params", "windows", "time_averaged"],
    "properties": {
        "flavor": {"enum": ["bip", "stg", "lsg"]},
        "n_windows": {"type": "integer", "minimum": 2},
        "params": {
            "type": "object",
            "required": ["delta", "beta", "eta_s", "alpha", "n"],
            "properties": {
                "delta": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "beta": {"type": ["number", "null"], "minimum": 0, "maximum": 1},
                "eta_s": {"type": ["number", "null"], "minimum": 0},
                "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "n": {"type": "integer", "minimum": 1},
            },
        },
        "windows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["window", "users", "skipped", "f1", "hr", "map"],
                "properties": {
                    "window": {"type": "integer", "minimum": 1},
                    "users": {"type": "integer", "minimum": 0},
                    "skipped": {"type": "boolean"},
                    "f1": {"$ref": "#/$defs/components"},
                    "hr": {"$ref": "#/$defs/components"},
                    "map": {"$ref": "#/$defs/components"},
                },
            },
        },
        "time_averaged": {
            "type": "object",
            "required": ["f1", "hr", "map"],
            "properties": {
                name: {"type": ["number", "null"], "minimum": 0, "maximum": 1}
                for name in ("f1", "hr", "map")
            },
        },
        "all_converged": {"type": "boolean"},
        "notes": {"type": "object"},
        "config": {"type": "object"},
    },
    "$defs": {
        "components": {
            "type": "object",
            "required": ["numerator", "denominator"],
            "properties": {
                "numerator": {"type": "number", "minimum": 0},
                "denominator": {"type": "number", "minimum": 0},
            },
        },
    },
}


def report_to_dict(report: EvaluationReport, config: Mapping | None = None) -> dict:
    """JSON-ready structure; ``config`` embeds the run's effective settings."""
    params = report.params
    out: dict = {
        "flavor": report.flavor,
        "n_windows": report.n_windows,
        "params": {
            "delta": params.delta,
            "beta": params.beta,
            "eta_s": params.eta_s,
            "alpha": params.alpha,
            "n": params.n,
        },
        "windows": [
            {
                "window": c.window,
                "users": c.users,
                "skipped": c.skipped,
                "f1": {"numerator": c.f1[0], "denominator": c.f1[1]},
                "hr": {"numerator": c.hr[0], "denominator": c.hr[1]},
                "map": {"numerator": c.map[0], "denominator": c.map[1]},
            }
            for c in report.windows
        ],
        "time_averaged": {"f1": report.ta_f1, "hr": report.ta_hr, "map": report.ta_map},
        "all_converged": report.all_converged,
        "notes": {"evaluated_users": EVALUATED_USERS_RULE},
    }
    if config is not None:
        out["config"] = dict(config)
    return out


def report_json(report: EvaluationReport, config: Mapping | None = None) -> str:
    return json.dumps(report_to_dict(report, config), indent=2) + "\n"


def report_csv(report: EvaluationReport) -> str:
    """One flat row per (window, metric): numerator, denominator, value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["window", "users", "metric", "numerator", "denominator", "value"])
    for c in report.windows:
        for name in ("f1", "hr", "map"):
            num, den = getattr(c, name)
            value = repr(num / den) if den else ""
            writer.writerow([c.window, c.users, name, repr(num), repr(den), value])
    return buf.getvalue()


def write_report_files(
    report: EvaluationReport, out_dir, config: Mapping | None = None
) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    csv_path = out / "report.csv"
    json_path.write_text(report_json(report, config), encoding="utf-8")
    csv_path.write_text(report_csv(report), encoding="utf-8")
    return json_path, csv_path
