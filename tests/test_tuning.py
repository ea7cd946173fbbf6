import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import linkrec.evaluation as evaluation
import linkrec.ranker as ranker
import linkrec.tuning as tuning
from linkrec.evaluation import MetricComponents, EvaluationReport, run_protocol
from linkrec.linkstream import Event, LinkStream
from linkrec.tuning import (
    GRID_ALPHA,
    GRID_BETA,
    GRID_DELTA,
    GRID_ETA_S,
    ParamGrid,
    ParamSetting,
    SearchEntry,
    SearchResult,
    leaderboard_csv,
    sample_settings,
    search,
)

from conftest import make_stream


# --- ParamSetting / ParamGrid ----------------------------------------------------


def test_param_setting_validation():
    with pytest.raises(ValueError):
        ParamSetting(alpha=0.0)
    with pytest.raises(ValueError):
        ParamSetting(alpha=0.5, n=0)
    with pytest.raises(ValueError):
        ParamSetting(alpha=0.5, delta=-1.0)
    with pytest.raises(ValueError):
        ParamSetting(alpha=0.5, beta=1.5)
    with pytest.raises(ValueError):
        ParamSetting(alpha=0.5, eta_s=-0.1)


@pytest.mark.parametrize("n", [2.5, 5.0, True, "5"])
def test_param_setting_rejects_a_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        ParamSetting(alpha=0.3, n=n)


@pytest.mark.parametrize("name", ["delta", "beta", "eta_s"])
@pytest.mark.parametrize("value", [True, False])
def test_param_setting_and_grid_reject_bools(name, value):
    # a bool passes the range checks, and a report holding it breaks REPORT_SCHEMA
    with pytest.raises(ValueError, match=f"{name} must be a number, not a bool"):
        ParamSetting(alpha=0.3, **{name: value})
    with pytest.raises(ValueError, match=f"grid list '{name}' holds a bool"):
        ParamGrid(**{name: (0.5, value)})


def test_param_setting_accepts_a_numpy_integer_n():
    report = run_protocol(make_stream(11, n_users=20, n_items=30, n_events=300), "bip",
                          ParamSetting(alpha=0.3, n=np.int64(2)), n_windows=4, workers=1)
    assert not report.nothing_evaluated


def test_default_grid_matches_predefined_values():
    grid = ParamGrid()
    assert grid.alpha == (0.05, 0.1, 0.15, 0.3, 0.5, 0.7, 0.9)
    assert grid.beta == (0.1, 0.3, 0.5, 0.7, 0.9)
    assert grid.eta_s == (0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
    assert grid.delta == tuple(
        d * 86400.0 for d in (7, 30, 60, 90, 180, 365, 540, 730)
    )


def test_grid_sizes_per_flavor():
    grid = ParamGrid()
    assert grid.size("bip") == 7
    assert grid.size("lsg") == 8 * 7
    assert grid.size("stg") == 8 * 5 * 8 * 7  # 2240


def test_grid_validation():
    with pytest.raises(ValueError):
        ParamGrid(alpha=())
    with pytest.raises(ValueError):
        ParamGrid(delta=(0.0,))
    with pytest.raises(ValueError):
        ParamGrid(beta=(2.0,))


NON_FINITE = [float("nan"), float("inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
def test_param_setting_rejects_non_finite_delta_and_eta_s(value):
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        ParamSetting(alpha=0.5, delta=value)
    with pytest.raises(ValueError, match="eta_s must be non-negative and finite"):
        ParamSetting(alpha=0.5, eta_s=value)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
def test_grid_rejects_non_finite_delta_and_eta_s(value):
    with pytest.raises(ValueError, match="delta candidates must be positive and finite"):
        ParamGrid(delta=(86400.0, value))
    with pytest.raises(ValueError, match="eta_s candidates must be non-negative and finite"):
        ParamGrid(eta_s=(0.0, value))


@pytest.mark.parametrize("name,values,repeated", [
    ("alpha", (0.3, 0.3), "0.3"),
    ("beta", (0.1, 0.5, 0.1), "0.1"),
    ("eta_s", (0.0, 1.0, 1), "1"),
    ("delta", (60.0, 30.0, 60.0, 30.0), "60.0"),
])
def test_grid_rejects_repeated_candidates(name, values, repeated):
    with pytest.raises(ValueError, match=f"grid list '{name}' repeats {repeated}$"):
        ParamGrid(**{name: values})


# --- sampling ----------------------------------------------------------------------


def test_sample_bip_exhausts_alpha_grid():
    settings = sample_settings(ParamGrid(), "bip", count=50, seed=1)
    assert len(settings) == 7
    assert {s.alpha for s in settings} == set(GRID_ALPHA)
    assert all(s.delta is None and s.beta is None and s.eta_s is None for s in settings)


def test_sample_is_deterministic_per_seed():
    a = sample_settings(ParamGrid(), "stg", count=50, seed=7)
    b = sample_settings(ParamGrid(), "stg", count=50, seed=7)
    c = sample_settings(ParamGrid(), "stg", count=50, seed=8)
    assert a == b
    assert a != c


def test_sample_stg_draws_distinct_settings():
    settings = sample_settings(ParamGrid(), "stg", count=50, seed=3)
    assert len(settings) == 50
    assert len(set(settings)) == 50
    for s in settings:
        assert s.delta in GRID_DELTA
        assert s.beta in GRID_BETA
        assert s.eta_s in GRID_ETA_S
        assert s.alpha in GRID_ALPHA
        assert s.n == 10


def test_sample_lsg_fields():
    settings = sample_settings(ParamGrid(), "lsg", count=10, seed=2, n=5)
    for s in settings:
        assert s.delta is None and s.beta is None
        assert s.eta_s in GRID_ETA_S and s.alpha in GRID_ALPHA
        assert s.n == 5


def test_sample_count_must_be_positive():
    with pytest.raises(ValueError):
        sample_settings(ParamGrid(), "bip", count=0, seed=1)


def test_sample_unknown_flavor():
    with pytest.raises(ValueError):
        sample_settings(ParamGrid(), "hits", count=1, seed=1)


# --- search ------------------------------------------------------------------------


def tiny_stream() -> LinkStream:
    events = []
    for u in range(4):
        for step in range(8):
            events.append(Event(1 + step * 12 + u, f"u{u}", f"i{(u + step) % 6}"))
    return LinkStream.from_events(events, time_span=(0, 100))


def fake_report(flavor, params, scores, n_windows=8):
    f1, hr, map_ = scores
    return EvaluationReport(
        flavor=flavor,
        params=params,
        n_windows=n_windows,
        windows=[MetricComponents(1, 1, (f1, 1.0), (hr, 1.0), (map_, 1.0))],
        ta_f1=f1,
        ta_hr=hr,
        ta_map=map_,
    )


def fake_group(scores_by_alpha):
    """evaluate_settings stand-in mapping alpha -> (f1, hr, map)."""

    def fake(folds, flavor, settings):
        return [fake_report(flavor, s, scores_by_alpha[s.alpha]) for s in settings]

    return fake


def test_search_single_setting_is_best():
    result = search(
        tiny_stream(), "bip", grid=ParamGrid(alpha=(0.3,)), count=1, seed=0,
        n=3, n_windows=4,
    )
    assert result.n_sampled == 1
    assert len(result.entries) == 1
    assert result.best.setting.alpha == 0.3


def test_search_dominant_setting_heads_every_objective(monkeypatch):
    scores = {0.1: (0.9, 0.9, 0.9), 0.5: (0.1, 0.2, 0.3)}
    monkeypatch.setattr(tuning, "evaluate_settings", fake_group(scores))
    result = search(
        tiny_stream(), "bip", grid=ParamGrid(alpha=(0.1, 0.5)), count=2, seed=0
    )
    for objective in ("f1", "hr", "map"):
        assert result.best_for(objective).setting.alpha == 0.1


def test_search_objectives_can_disagree(monkeypatch):
    scores = {0.1: (0.9, 0.1, 0.1), 0.5: (0.1, 0.2, 0.9)}
    monkeypatch.setattr(tuning, "evaluate_settings", fake_group(scores))
    result = search(
        tiny_stream(), "bip", grid=ParamGrid(alpha=(0.1, 0.5)), count=2, seed=0
    )
    assert result.best_for("f1").setting.alpha == 0.1
    assert result.best_for("map").setting.alpha == 0.5


def test_search_records_failures_and_continues(monkeypatch):
    def flaky(folds, flavor, settings):
        return [
            ValueError("boom") if s.alpha == 0.5
            else fake_report(flavor, s, (0.5, 0.5, 0.5))
            for s in settings
        ]

    monkeypatch.setattr(tuning, "evaluate_settings", flaky)
    result = search(
        tiny_stream(), "bip", grid=ParamGrid(alpha=(0.1, 0.5, 0.9)), count=3, seed=0
    )
    assert result.n_sampled == 3
    assert len(result.entries) + len(result.failed) == 3
    assert len(result.failed) == 1
    assert result.failed[0].error == "boom"
    assert result.failed[0].setting.alpha == 0.5


def test_search_nothing_evaluated_counts_as_failed():
    # events confined to the first window: every setting evaluates nobody
    events = [Event(t, "u", f"i{t}") for t in range(4)]
    stream = LinkStream.from_events(events, time_span=(0, 1000))
    result = search(stream, "bip", grid=ParamGrid(alpha=(0.3,)), count=1, seed=0)
    assert result.entries == []
    assert result.failed[0].error == "nothing evaluated"


def test_search_leaderboard_sorted_with_ties_by_sample_order(monkeypatch):
    scores = {0.1: (0.5, 0.5, 0.5), 0.5: (0.5, 0.5, 0.5), 0.9: (0.7, 0.7, 0.7)}
    monkeypatch.setattr(tuning, "evaluate_settings", fake_group(scores))
    result = search(
        tiny_stream(), "bip", grid=ParamGrid(alpha=(0.1, 0.5, 0.9)), count=3, seed=0
    )
    assert result.entries[0].ta_f1 == 0.7
    tied = result.entries[1:]
    assert [e.sample_index for e in tied] == sorted(e.sample_index for e in tied)
    assert all(
        result.entries[k].ta_f1 >= result.entries[k + 1].ta_f1
        for k in range(len(result.entries) - 1)
    )


def test_search_identical_inputs_identical_leaderboards():
    stream = tiny_stream()
    kwargs = dict(grid=ParamGrid(alpha=(0.1, 0.5, 0.9)), count=3, seed=5,
                  n=3, n_windows=4)
    a = search(stream, "bip", **kwargs)
    b = search(stream, "bip", **kwargs)
    assert leaderboard_csv(a) == leaderboard_csv(b)


def test_search_workers_do_not_change_output():
    stream = tiny_stream()
    kwargs = dict(grid=ParamGrid(alpha=(0.1, 0.5, 0.9)), count=3, seed=5,
                  n=3, n_windows=4)
    serial = search(stream, "bip", workers=1, **kwargs)
    parallel = search(stream, "bip", workers=2, **kwargs)
    assert leaderboard_csv(serial) == leaderboard_csv(parallel)


def test_split_groups_fills_the_workers():
    assert tuning._split_groups([[0, 1, 2, 3, 4, 5, 6]], 2) == [[0, 1, 2, 3], [4, 5, 6]]
    assert tuning._split_groups([[0, 1, 2, 3, 4, 5, 6]], 3) == [[0, 1], [2, 3], [4, 5, 6]]
    assert tuning._split_groups([[0, 1], [2]], 8) == [[0], [1], [2]]
    assert tuning._split_groups([[0, 2], [1, 3]], 2) == [[0, 2], [1, 3]]


@pytest.mark.parametrize("count,tasks", [(1, 1), (2, 2), (3, 3)])
def test_search_pool_has_no_more_processes_than_tasks(monkeypatch, count, tasks):
    built = []

    class InlinePool:
        """A pool that records its size and runs each task in this process."""

        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return tuning._run_here(fn, *args)

    monkeypatch.setattr(tuning, "ProcessPoolExecutor", InlinePool)
    grid = ParamGrid(alpha=(0.1, 0.5, 0.9))
    serial = search(tiny_stream(), "bip", grid=grid, count=count, n=3, n_windows=4)
    result = search(tiny_stream(), "bip", grid=grid, count=count, n=3, n_windows=4,
                    workers=8)
    assert built == ([tasks] if tasks > 1 else [])
    assert leaderboard_csv(result) == leaderboard_csv(serial)


@pytest.mark.parametrize(
    "flavor,grid",
    [
        ("bip", ParamGrid(alpha=GRID_ALPHA)),  # one graph-key group
        ("lsg", ParamGrid(eta_s=(0.0, 0.5), alpha=(0.1, 0.3, 0.9))),
    ],
    ids=["bip", "lsg"],
)
def test_search_leaderboard_identical_for_1_2_3_workers(flavor, grid):
    stream = make_stream(8, n_users=8, n_items=15, n_events=150)
    boards = {
        workers: leaderboard_csv(
            search(stream, flavor, grid=grid, count=grid.size(flavor), seed=2,
                   n=5, n_windows=4, workers=workers)
        )
        for workers in (1, 2, 3)
    }
    assert boards[1] == boards[2] == boards[3]
    assert "failed" not in boards[1]


def test_search_rejects_unknown_objective():
    with pytest.raises(ValueError, match="objective"):
        search(tiny_stream(), "bip", objective="accuracy")


def test_leaderboard_csv_layout():
    result = search(
        tiny_stream(), "lsg", grid=ParamGrid(alpha=(0.3,), eta_s=(0.0, 0.5)),
        count=2, seed=0, n=3, n_windows=4,
    )
    lines = leaderboard_csv(result).splitlines()
    assert lines[0] == (
        "sample_index,flavor,delta,beta,eta_s,alpha,n,TA_F1,TA_HR,TA_MAP,status"
    )
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] == "lsg"
        assert cells[2] == "" and cells[3] == ""  # delta/beta not relevant
        assert cells[-1] in ("ok", "failed")


# --- shared graph groups against per-setting evaluation ----------------------------


def per_setting_leaderboard(stream, flavor, settings, objective, n_windows):
    """Leaderboard built from one run_protocol call per sampled setting."""
    entries = []
    for index, setting in enumerate(settings):
        report = run_protocol(stream, flavor, setting, n_windows)
        if report.nothing_evaluated:
            entries.append(SearchEntry(index, setting, None, None, None, "failed",
                                       "nothing evaluated"))
        else:
            entries.append(SearchEntry(index, setting, report.ta_f1, report.ta_hr,
                                       report.ta_map, "ok"))
    ok = sorted((e for e in entries if e.status == "ok"),
                key=lambda e: (-e.objective_value(objective), e.sample_index))
    failed = [e for e in entries if e.status != "ok"]
    return leaderboard_csv(SearchResult(flavor, objective, ok, failed, len(settings)))


SHARED_CASES = [
    ("bip", ParamGrid(alpha=(0.1, 0.5, 0.9)), 3, 11),
    ("stg", ParamGrid(delta=(150.0, 400.0), beta=(0.3, 0.7), eta_s=(0.0, 0.5),
                      alpha=(0.1, 0.5)), 7, 12),
    ("lsg", ParamGrid(eta_s=(0.0, 0.5, 2.0), alpha=(0.1, 0.3, 0.9)), 5, 13),
]


@pytest.mark.parametrize("flavor,grid,count,seed", SHARED_CASES,
                         ids=[case[0] for case in SHARED_CASES])
def test_search_matches_per_setting_protocol(flavor, grid, count, seed):
    stream = make_stream(seed, n_users=8, n_items=12, n_events=120)
    settings = sample_settings(grid, flavor, count, seed=seed, n=5)
    if flavor != "bip":
        assert count < grid.size(flavor)
        sizes = Counter((s.delta, s.eta_s) for s in settings).values()
        assert min(sizes) == 1 and max(sizes) > 1
    expected = per_setting_leaderboard(stream, flavor, settings, "map", 4)
    assert ",ok\n" in expected
    for workers in (1, 2):
        result = search(stream, flavor, grid=grid, count=count, seed=seed,
                        objective="map", n=5, n_windows=4, workers=workers)
        assert leaderboard_csv(result) == expected


LSG_GRID = ParamGrid(eta_s=(0.0, 0.5), alpha=(0.1, 0.5, 0.9))


def lsg_search():
    stream = make_stream(14, n_users=8, n_items=12, n_events=120)
    return search(stream, "lsg", grid=LSG_GRID, count=6, seed=0, n=5, n_windows=4)


def test_search_graph_build_error_fails_its_group_only(monkeypatch):
    reference = {e.sample_index: e for e in lsg_search().entries}
    build_graph = evaluation.build_graph

    def failing(flavor, stream, delta=None, eta_s=None):
        if eta_s == 0.5:
            raise ValueError("no graph")
        return build_graph(flavor, stream, delta=delta, eta_s=eta_s)

    monkeypatch.setattr(evaluation, "build_graph", failing)
    result = lsg_search()
    assert sorted(e.setting.alpha for e in result.failed) == [0.1, 0.5, 0.9]
    assert all(e.setting.eta_s == 0.5 and e.error == "no graph" for e in result.failed)
    assert [e.setting.eta_s for e in result.entries] == [0.0] * 3
    assert all(e == reference[e.sample_index] for e in result.entries)


def test_search_scoring_error_fails_one_setting_only(monkeypatch):
    reference = {e.sample_index: e for e in lsg_search().entries}
    pagerank_batch = ranker.pagerank_batch

    def failing(tm, D, alpha):
        if alpha == 0.5:
            raise ValueError("walk failed")
        return pagerank_batch(tm, D, alpha)

    monkeypatch.setattr(ranker, "pagerank_batch", failing)
    result = lsg_search()
    assert sorted(e.setting.eta_s for e in result.failed) == [0.0, 0.5]
    assert all(e.setting.alpha == 0.5 and e.error == "walk failed" for e in result.failed)
    assert len(result.entries) == 4
    assert all(e == reference[e.sample_index] for e in result.entries)


def test_search_task_error_fails_its_group_only(monkeypatch):
    # one worker: each graph-key group is one task run in this process
    reference = [e for e in lsg_search().entries if e.setting.eta_s == 0.0]
    evaluate_settings = tuning.evaluate_settings

    def failing(folds, flavor, settings):
        if settings[0].eta_s == 0.5:
            raise RuntimeError("group lost")
        return evaluate_settings(folds, flavor, settings)

    monkeypatch.setattr(tuning, "evaluate_settings", failing)
    result = lsg_search()
    assert sorted(e.setting.alpha for e in result.failed) == [0.1, 0.5, 0.9]
    assert all(e.setting.eta_s == 0.5 and e.error == "group lost" for e in result.failed)
    assert result.entries == reference


def test_search_raises_the_fold_error_run_protocol_raises():
    # one timestamp: the span has no duration to split into windows
    stream = LinkStream.from_events([Event(5, "u1", "i1"), Event(5, "u2", "i2")])
    with pytest.raises(ValueError, match="positive duration") as protocol:
        run_protocol(stream, "bip", ParamSetting(alpha=0.3), n_windows=4, workers=1)
    with pytest.raises(ValueError) as searched:
        search(stream, "bip", count=2, n_windows=4)
    assert str(searched.value) == str(protocol.value)


FORK_SCRIPT = """
from conftest import make_stream
from linkrec import evaluation, ranker
from linkrec.tuning import ParamGrid, ParamSetting, search

ranker._BATCH_COLUMNS = 3
stream = make_stream(11, n_users=20, n_items=30, n_events=300)
params = ParamSetting(alpha=0.3, n=5, eta_s=0.5)
evaluation.run_protocol(stream, "lsg", params, n_windows=4, workers=2)
grid = ParamGrid(eta_s=(0.0, 0.5), alpha=(0.3, 0.5))
result = search(stream, "lsg", grid=grid, count=4, seed=0, n=5, n_windows=4, workers=2)
print(len(result.entries))
"""


def test_threaded_protocol_then_forked_search_both_finish():
    # search forks its worker processes after the protocol's threads ran
    # in the same process; a thread pool that outlived the protocol would
    # leave a forked worker waiting on threads it does not have.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    # its own session, so a hang is ended with the forked workers too
    proc = subprocess.Popen(
        [sys.executable, "-c", FORK_SCRIPT], cwd=root, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("threaded protocol then forked search did not finish in 120 s")
    assert proc.returncode == 0, err
    assert out.strip() == "4"


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5], ids=["zero", "one", "above"])
def test_grid_rejects_alpha_out_of_range(alpha):
    with pytest.raises(ValueError, match=r"alpha candidates must lie in \(0, 1\)"):
        ParamGrid(alpha=(0.3, alpha))


def test_empty_search_result_has_no_best():
    result = SearchResult("bip", "f1", [], [], 0)
    with pytest.raises(ValueError, match="nothing evaluated"):
        result.best
    with pytest.raises(ValueError, match="nothing evaluated"):
        result.best_for("hr")
    with pytest.raises(ValueError, match="unknown objective 'bogus'"):
        result.ranked_by("bogus")


def test_search_without_grid_uses_predefined_grid():
    # the README quickstart's call, which passes no grid
    stream = make_stream(3, n_users=10, n_items=20, n_events=200)
    kwargs = dict(count=10, seed=0, objective="f1", n_windows=4)
    default = search(stream, "lsg", **kwargs)
    assert default.entries
    assert leaderboard_csv(default) == leaderboard_csv(
        search(stream, "lsg", grid=ParamGrid(), **kwargs)
    )
