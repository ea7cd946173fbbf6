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
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .graphs import RecGraph, build_graph
from .linkstream import LinkStream, Window, split_windows
from .ranker import (
    RestartBlock,
    TransitionMatrix,
    _restart_vectors,
    item_matrix,
    personalization_matrix,
    rank_items,
    step_count,
    transition_matrix,
)

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
    "FoldGraph",
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

# Users are scored in column blocks so one sparse product serves many
# walks, and the blocks of a fold are spread over the worker threads.
# Results do not depend on the width, as the step count is fixed by
# alpha. 48 keeps two live blocks (one per thread on two cores) at about
# the memory of one 128-column iterate (18 MB for 17.9k nodes), and
# still scores a fold of up to 48 users, as in a small search campaign,
# in one product per step; 32 split such folds and slowed the campaign.
# Each thread holds one block live, so peak memory grows with the
# thread count, hence with the core count by default: the last
# protocol-lsg fold peaked at 82 MB on one thread, ~104 MB on two,
# ~136 MB on four and ~210 MB on eight or sixteen.
_BATCH_COLUMNS = 48


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Fold:
    """Training/test split for one evaluation step.

    ``truth`` maps each evaluated user to their new test-window items
    (never empty sets); ``rec_time`` is the right edge of the training
    span, the timestamp recommendations are issued at.
    """

    k: int
    train: LinkStream
    test_window: Window
    test: LinkStream
    rec_time: float
    train_items: dict[str, set[str]]
    truth: dict[str, set[str]]


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
    if len(hit_counts) != len(new_counts):
        raise ValueError("one hit count and one I_new size per user")
    if any(c < 1 for c in new_counts):
        raise ValueError("every evaluated user needs at least one relevant item")
    if not hit_counts:
        return (0.0, 0.0)
    return (2.0 * sum(hit_counts), float(sum(c + n for c in new_counts)))


def hit_ratio_components(hit_counts: Sequence[int]) -> tuple[float, float]:
    """HR@N components: (#users with a hit, #users evaluated)."""
    return (float(sum(1 for c in hit_counts if c > 0)), float(len(hit_counts)))


def average_precision(h: Sequence[int], n: int) -> float:
    """AP@N from per-rank hit flags; 0 when nothing was hit."""
    hit_k = list(accumulate(h))
    hit_n = hit_k[-1] if hit_k else 0
    if hit_n == 0:
        return 0.0
    return sum(hk * hj / k for k, (hk, hj) in enumerate(zip(hit_k, h), start=1)) / hit_n


def map_components(
    flags_per_user: Sequence[Sequence[int]], n: int
) -> tuple[float, float]:
    """MAP@N components: (sum of AP_N(u), #users evaluated)."""
    return (
        float(sum(average_precision(h, n) for h in flags_per_user)),
        float(len(flags_per_user)),
    )


def time_average(components: Iterable[MetricComponents]) -> tuple[float, float, float]:
    """TA value per metric: summed numerators over summed denominators."""
    comps = list(components)
    sums = {
        name: (
            sum(getattr(c, name)[0] for c in comps),
            sum(getattr(c, name)[1] for c in comps),
        )
        for name in ("f1", "hr", "map")
    }
    if all(den == 0 for _, den in sums.values()):
        raise ValueError("nothing evaluated")
    return tuple(num / den for num, den in sums.values())  # type: ignore[return-value]


def iter_folds(stream: LinkStream, n_windows: int = 8) -> list[Fold]:
    """Materialize the sliding train/test folds of the protocol.

    Windows are runs of the time-sorted stream, so each fold's training
    stream is a prefix of the stream's columns. Each fold is read from
    its own windows alone: its training items from that prefix, its
    truth from its test window.
    """
    windows = split_windows(stream, n_windows)
    folds = []
    end = 0
    for k in range(1, n_windows):
        (w_train, sub), (w_test, test_sub) = windows[k - 1], windows[k]
        end += len(sub)
        train = stream.slice(0, end, (stream.alpha, w_train.end))
        train_items = train.items_by_user()
        truth = {}
        for user, items in test_sub.items_by_user().items():
            if user in train_items and (new := items - train_items[user]):
                truth[user] = new
        folds.append(
            Fold(
                k=k,
                train=train,
                test_window=w_test,
                test=test_sub,
                rec_time=w_train.end,
                train_items=train_items,
                truth=truth,
            )
        )
    return folds


@dataclass
class FoldGraph:
    """One fold's graph and what every setting scored on it shares.

    Settings with the same graph key (flavor, delta, eta_s) build the
    graph, transition matrix and item aggregation matrix of a fold
    once, with users x items masks of the ranked users' training items
    (``seen``) and new test-window items (``truth``); the restart
    matrix is kept per beta on first use.

    ``users`` are the ranked users: the evaluated users, sorted, with at
    least one new item among the graph's items. Only graph items can be
    ranked, so an evaluated user whose new items all first appear in the
    test window scores no hit under any setting and is not ranked. The
    rows of ``seen`` and ``truth`` and the columns of ``restarts(beta)``
    follow ``users``.
    """

    fold: Fold
    graph: RecGraph
    tm: TransitionMatrix
    items: list[str]
    A: sparse.csr_matrix
    users: list[str]
    seen: np.ndarray
    truth: np.ndarray
    _restarts: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(
        cls, fold: Fold, flavor: str, delta: float | None, eta_s: float | None
    ) -> "FoldGraph":
        graph = build_graph(flavor, fold.train, delta=delta, eta_s=eta_s)
        tm = transition_matrix(graph)
        items, A = item_matrix(graph)
        item_row = {item: r for r, item in enumerate(items)}
        users = [u for u in sorted(fold.truth) if any(i in item_row for i in fold.truth[u])]
        seen = np.zeros((len(users), len(items)), dtype=bool)
        truth = np.zeros_like(seen)
        for r, user in enumerate(users):
            seen[r, [item_row[i] for i in fold.train_items[user]]] = True
            truth[r, [item_row[i] for i in fold.truth[user] if i in item_row]] = True
        return cls(fold, graph, tm, items, A, users, seen, truth)

    def restarts(self, beta: float | None) -> RestartBlock:
        """The ranked users' restart vectors as the columns of a
        (nodes, users) block, built and checked once per beta; every
        alpha of the fold ranks column slices of it. Ranked users are
        evaluated users, and every evaluated user has training nodes at
        or before ``rec_time``, so leaving the others out removes no
        error that building their vectors could raise."""
        if beta not in self._restarts:
            vectors = _restart_vectors(self.graph, self.users, self.fold.rec_time, beta)
            self._restarts[beta] = personalization_matrix(self.tm, vectors)
        return self._restarts[beta]


def _evaluate_fold(
    shared: FoldGraph, params: "ParamSetting", pool: ThreadPoolExecutor | None = None
) -> MetricComponents:
    """Components of one fold for one setting. The ranked users' restart
    matrix is cut into column blocks here, the blocks are ranked on
    ``pool`` when one is given, and collected in block order.

    Every other evaluated user has no new item in the graph, so their
    hit flags are all zero; they are appended after the ranked users'.
    The users and denominators still count every evaluated user. The
    integer sums do not depend on order and the AP sum only adds +0.0
    for them, which is exact, so the components equal ranking them all.
    """
    fold, users = shared.fold, shared.users
    blocks = [
        slice(start, start + _BATCH_COLUMNS) for start in range(0, len(users), _BATCH_COLUMNS)
    ]
    columns = [shared.restarts(params.beta)[:, block] for block in blocks]

    def rank(D, block: slice) -> np.ndarray:
        top, _ = rank_items(shared.tm, shared.A, D, params.alpha, shared.seen[block], params.n)
        return top

    flags: list[list[int]] = []
    ranked = pool.map(rank, columns, blocks) if pool else map(rank, columns, blocks)
    for block, top in zip(blocks, ranked):
        # truth and seen items are disjoint, so hits stop where unseen items do
        hits = np.take_along_axis(shared.truth[block], top, axis=1) & (top >= 0)
        flags.extend(hits.astype(int).tolist())
    flags.extend([0] * params.n for _ in range(len(fold.truth) - len(users)))
    hit_counts = [sum(h) for h in flags]
    new_counts = [len(items) for items in fold.truth.values()]

    return MetricComponents(
        window=fold.k,
        users=len(fold.truth),
        f1=f1_components(hit_counts, new_counts, params.n),
        hr=hit_ratio_components(hit_counts),
        map=map_components(flags, params.n),
    )


def evaluate_settings(
    folds: Sequence[Fold],
    flavor: str,
    settings: Sequence["ParamSetting"],
    pool: ThreadPoolExecutor | None = None,
) -> list["EvaluationReport | Exception"]:
    """Evaluate settings that share one graph key over the protocol folds.

    All settings must share delta and eta_s, so each fold's graph and
    matrices are built once and every setting (alpha, beta, n) is scored
    on them. Returns one outcome per setting, in order: its report, or
    the exception that stopped it. An error building a fold's shared
    graph stops every setting still running; an error scoring one
    setting stops only that one. Folds without evaluable users
    contribute (0, 0) components and are marked skipped. Each fold whose
    graph is built is logged once as a DEBUG record with its node, edge,
    evaluated-user and ranked-user counts. Each setting's
    step count is decided once, by :func:`step_count`; when max_iter
    caps it before the certified count, every fold scored with it is
    logged as a WARNING with its L1 error bound. The column blocks of
    each fold are ranked on ``pool`` when one is given, and collected in
    order, so the pool cannot change a result.
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
    for fold in folds:
        running = [j for j, slot in enumerate(outcomes) if isinstance(slot, list)]
        if not running:
            break
        if not fold.truth:
            for j in running:
                outcomes[j].append(
                    MetricComponents(
                        window=fold.k,
                        users=0,
                        f1=(0.0, 0.0),
                        hr=(0.0, 0.0),
                        map=(0.0, 0.0),
                        skipped=True,
                    )
                )
            continue
        try:
            shared = FoldGraph.build(fold, flavor, first.delta, first.eta_s)
        except Exception as exc:  # the whole group stops; the caller reports it
            for j in running:
                outcomes[j] = exc
            continue
        log.debug(
            "%s fold %d: %d nodes, %d edges, %d evaluated users, %d ranked",
            flavor, fold.k, shared.graph.n_nodes, shared.graph.n_edges,
            len(fold.truth), len(shared.users),
        )
        for j in running:
            params = settings[j]
            try:
                comp = _evaluate_fold(shared, params, pool)
            except Exception as exc:  # this setting stops; the others go on
                outcomes[j] = exc
                continue
            iterations, converged = steps[j]
            if not converged:
                log.warning(
                    "%s fold %d: PageRank not converged at alpha=%g, capped at %d steps; "
                    "L1 error bound 2*alpha^%d = %.2g",
                    flavor, fold.k, params.alpha, iterations, iterations,
                    2.0 * params.alpha**iterations,
                )
            outcomes[j].append(comp)
        del shared  # free it before the next, larger, fold is built

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
    core; below 1: ``ValueError``) rank each fold's column blocks on one
    pool that lives for this call; with one, no pool is made. A report
    where every fold was skipped has None for the time-averaged metrics
    and ``nothing_evaluated`` set.
    """
    if workers is None:
        workers = _usable_cores()
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    folds = iter_folds(stream, n_windows)
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
