"""Randomized hyperparameter search over the predefined parameter grid.

Settings are drawn uniformly (without replacement) from the cross
product of the lists relevant to the graph flavor: alpha alone for BIP;
eta_s and alpha for LSG; delta, beta, eta_s and alpha for STG. The
top-N length is fixed per run, not searched. Every sampled setting is
scored with the full windowed protocol and all three time-averaged
metrics are kept, so the best row can be read off for any metric.

Settings that share a graph key (flavor, delta, eta_s) share work: the
folds are computed once per campaign, and each fold's graph, transition
matrix and item matrix once per key, with every setting of the key
scored on them in one pass that ranks each restart block of a (beta, n)
once for all its alphas, by one power series where it saves steps (see
``evaluation``). Results are keyed by sample index, so the output does
not depend on the number of workers.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import numbers
import random
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import product

from .evaluation import EvaluationReport, evaluate_settings, iter_folds
from .linkstream import LinkStream

__all__ = [
    "ParamSetting",
    "ParamGrid",
    "SearchEntry",
    "SearchResult",
    "sample_settings",
    "search",
    "leaderboard_csv",
    "OBJECTIVES",
]

log = logging.getLogger(__name__)

DAY = 86400.0

# Predefined candidate values (durations in seconds).
GRID_DELTA = tuple(d * DAY for d in (7, 30, 60, 90, 180, 365, 540, 730))
GRID_BETA = (0.1, 0.3, 0.5, 0.7, 0.9)
GRID_ETA_S = (0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
GRID_ALPHA = (0.05, 0.1, 0.15, 0.3, 0.5, 0.7, 0.9)

OBJECTIVES = ("f1", "hr", "map")

# Grid dimensions that matter per flavor, in cross-product order.
RELEVANT_FIELDS = {
    "bip": ("alpha",),
    "stg": ("delta", "beta", "eta_s", "alpha"),
    "lsg": ("eta_s", "alpha"),
}


@dataclass(frozen=True)
class ParamSetting:
    """One point of the hyperparameter space.

    Fields irrelevant to a flavor stay None (delta/beta for LSG,
    everything but alpha for BIP). ``n`` is the recommendation list
    length.
    """

    alpha: float
    n: int = 10
    delta: float | None = None
    beta: float | None = None
    eta_s: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool):
            raise ValueError("n must be an integer")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        for name in ("delta", "beta", "eta_s"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a bool")
        if self.delta is not None and not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if self.beta is not None and not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.eta_s is not None and not 0.0 <= self.eta_s < math.inf:
            raise ValueError("eta_s must be non-negative and finite")


@dataclass(frozen=True)
class ParamGrid:
    """Ordered lists of distinct candidates per parameter; defaults are
    the predefined grid."""

    delta: tuple[float, ...] = GRID_DELTA
    beta: tuple[float, ...] = GRID_BETA
    eta_s: tuple[float, ...] = GRID_ETA_S
    alpha: tuple[float, ...] = GRID_ALPHA

    def __post_init__(self):
        for name in ("delta", "beta", "eta_s", "alpha"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"grid list {name!r} is empty")
            if any(isinstance(v, bool) for v in values):
                raise ValueError(f"grid list {name!r} holds a bool")
            repeated = [v for k, v in enumerate(values) if v in values[:k]]
            if repeated:
                raise ValueError(f"grid list {name!r} repeats {repeated[0]!r}")
        if any(not 0.0 < d < math.inf for d in self.delta):
            raise ValueError("delta candidates must be positive and finite")
        if any(not 0.0 <= b <= 1.0 for b in self.beta):
            raise ValueError("beta candidates must lie in [0, 1]")
        if any(not 0.0 <= e < math.inf for e in self.eta_s):
            raise ValueError("eta_s candidates must be non-negative and finite")
        if any(not 0.0 < a < 1.0 for a in self.alpha):
            raise ValueError("alpha candidates must lie in (0, 1)")

    def size(self, flavor: str) -> int:
        out = 1
        for name in RELEVANT_FIELDS[flavor]:
            out *= len(getattr(self, name))
        return out


def sample_settings(
    grid: ParamGrid, flavor: str, count: int, seed: int, n: int = 10
) -> list[ParamSetting]:
    """Draw ``count`` distinct settings uniformly from the flavor's grid.

    Deterministic for a given seed. When the cross product is smaller
    than ``count`` the whole product is returned (with a log notice).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    fields = RELEVANT_FIELDS.get(flavor)
    if fields is None:
        raise ValueError(f"unknown graph flavor {flavor!r}")
    combos = list(product(*(getattr(grid, name) for name in fields)))
    if count >= len(combos):
        if count > len(combos):
            log.warning(
                "grid for %s has only %d combinations (requested %d); using all",
                flavor,
                len(combos),
                count,
            )
        chosen = combos
    else:
        chosen = random.Random(seed).sample(combos, count)
    return [
        ParamSetting(n=n, **dict(zip(fields, combo)))
        for combo in chosen
    ]


@dataclass(frozen=True)
class SearchEntry:
    """Outcome of scoring one sampled setting."""

    sample_index: int
    setting: ParamSetting
    ta_f1: float | None
    ta_hr: float | None
    ta_map: float | None
    status: str  # "ok" | "failed"
    error: str | None = None

    def objective_value(self, objective: str) -> float:
        value = {"f1": self.ta_f1, "hr": self.ta_hr, "map": self.ta_map}[objective]
        assert value is not None
        return value


@dataclass
class SearchResult:
    """Ranked leaderboard plus the settings that failed to evaluate."""

    flavor: str
    objective: str
    entries: list[SearchEntry]  # ok rows, ranked by the chosen objective
    failed: list[SearchEntry]
    n_sampled: int

    @property
    def best(self) -> SearchEntry:
        if not self.entries:
            raise ValueError("nothing evaluated")
        return self.entries[0]

    def ranked_by(self, objective: str) -> list[SearchEntry]:
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        return sorted(
            self.entries,
            key=lambda e: (-e.objective_value(objective), e.sample_index),
        )

    def best_for(self, objective: str) -> SearchEntry:
        ranked = self.ranked_by(objective)
        if not ranked:
            raise ValueError("nothing evaluated")
        return ranked[0]


def _entry(
    index: int, setting: ParamSetting, outcome: "EvaluationReport | Exception"
) -> SearchEntry:
    if isinstance(outcome, Exception):
        return SearchEntry(index, setting, None, None, None, "failed", str(outcome))
    if outcome.nothing_evaluated:
        return SearchEntry(
            index, setting, None, None, None, "failed", "nothing evaluated"
        )
    return SearchEntry(
        index, setting, outcome.ta_f1, outcome.ta_hr, outcome.ta_map, "ok"
    )


def _graph_groups(settings: list[ParamSetting]) -> list[list[int]]:
    """Sample indices grouped by graph key, in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for index, setting in enumerate(settings):
        groups.setdefault((setting.delta, setting.eta_s), []).append(index)
    return list(groups.values())


def _split_groups(groups: list[list[int]], workers: int) -> list[list[int]]:
    """Halve the largest group by setting until ``workers`` tasks exist
    or every task holds one setting, so that fewer graph-key groups than
    workers still keep min(workers, settings) processes busy."""
    tasks = [list(group) for group in groups]
    while len(tasks) < workers:
        largest = max(range(len(tasks)), key=lambda k: len(tasks[k]))
        group = tasks[largest]
        if len(group) < 2:
            break
        half = (len(group) + 1) // 2
        tasks[largest : largest + 1] = [group[:half], group[half:]]
    return tasks


def _run_here(fn, *args) -> Future:
    """``fn(*args)`` run in this process, as a finished future."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def search(
    stream: LinkStream,
    flavor: str,
    grid: ParamGrid | None = None,
    count: int = 50,
    seed: int = 0,
    objective: str = "f1",
    n: int = 10,
    n_windows: int = 8,
    workers: int = 1,
) -> SearchResult:
    """Score sampled settings with the windowed protocol and rank them.

    The folds are computed once. Settings are evaluated in tasks, one
    per graph key, and the largest task is split by setting while there
    are fewer tasks than ``workers`` (each part then builds its own
    graphs). With one worker or one task the tasks run in this process;
    otherwise on a pool of min(workers, tasks) processes that lives for
    this call; with fewer than one worker, ``ValueError``. A setting
    whose evaluation raises (or evaluates nobody) is recorded as failed
    and left out of the ranking; the campaign continues. An error in a
    fold's graph build or in a task's process fails every setting of its
    task. An error cutting the folds is raised, as :func:`run_protocol`
    raises it, before any setting runs. Results are keyed by sample
    index, so the worker count cannot change the output.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if grid is None:
        grid = ParamGrid()
    settings = sample_settings(grid, flavor, count, seed, n=n)
    tasks = _split_groups(_graph_groups(settings), workers)
    workers = min(workers, len(tasks))
    outcomes: list = [None] * len(settings)
    folds = iter_folds(stream, n_windows)
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        submit = pool.submit if pool else _run_here
        futures = [
            submit(evaluate_settings, folds, flavor, [settings[i] for i in task])
            for task in tasks
        ]
        for task, future in zip(tasks, futures):
            try:
                results = future.result()
            except Exception as exc:  # every setting of the task fails
                results = [exc] * len(task)
            for index, outcome in zip(task, results):
                outcomes[index] = outcome

    ordered = [_entry(i, settings[i], outcome) for i, outcome in enumerate(outcomes)]
    ok = [e for e in ordered if e.status == "ok"]
    failed = [e for e in ordered if e.status != "ok"]
    ok.sort(key=lambda e: (-e.objective_value(objective), e.sample_index))
    return SearchResult(
        flavor=flavor,
        objective=objective,
        entries=ok,
        failed=failed,
        n_sampled=len(settings),
    )


def leaderboard_csv(result: SearchResult) -> str:
    """Ranked rows first, then failed rows in sample order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "sample_index",
            "flavor",
            "delta",
            "beta",
            "eta_s",
            "alpha",
            "n",
            "TA_F1",
            "TA_HR",
            "TA_MAP",
            "status",
        ]
    )

    def fmt(value) -> str:
        return "" if value is None else repr(value)

    for entry in list(result.entries) + list(result.failed):
        s = entry.setting
        writer.writerow(
            [
                entry.sample_index,
                result.flavor,
                fmt(s.delta),
                fmt(s.beta),
                fmt(s.eta_s),
                repr(s.alpha),
                s.n,
                fmt(entry.ta_f1),
                fmt(entry.ta_hr),
                fmt(entry.ta_map),
                entry.status,
            ]
        )
    return buf.getvalue()
