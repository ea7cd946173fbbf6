import itertools
import json
import logging
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import jsonschema
import pytest

from linkrec import evaluation, ranker
from linkrec.evaluation import (
    EVALUATED_USERS_RULE,
    REPORT_SCHEMA,
    MetricComponents,
    _restart_vectors,
    average_precision,
    f1_components,
    hit_ratio_components,
    hits_at_n,
    iter_folds,
    map_components,
    report_csv,
    report_json,
    report_to_dict,
    run_protocol,
    time_average,
    write_report_files,
)
from linkrec.graphs import build_bip, build_graph, build_lsg, build_stg
from linkrec.linkstream import Event, LinkStream
from linkrec.ranker import personalization, rank_items, recommend
from linkrec.tuning import ParamGrid, ParamSetting, search

from conftest import make_stream


def comp(window, users, f1, hr, map_, skipped=False):
    return MetricComponents(
        window=window, users=users, f1=f1, hr=hr, map=map_, skipped=skipped
    )


# --- hits ---------------------------------------------------------------------


def test_hits_at_n_membership():
    h, hit_k = hits_at_n([("a", 0.3), ("b", 0.2), ("c", 0.1)], {"b"})
    assert h == [0, 1, 0]
    assert hit_k == [0, 1, 1]


def test_hits_at_n_no_overlap():
    h, hit_k = hits_at_n([("a", 0.3), ("b", 0.2)], {"z"})
    assert h == [0, 0]
    assert hit_k == [0, 0]


def test_hits_at_n_all_hit():
    h, hit_k = hits_at_n([("a", 0.3), ("b", 0.2)], {"a", "b"})
    assert h == [1, 1]
    assert hit_k == [1, 2]


# --- F1 -----------------------------------------------------------------------


def test_f1_components_single_user():
    # hit_5 = 2, |I_new| = 3, N = 5 -> (4, 8), value 0.5
    assert f1_components([2], [3], 5) == (4.0, 8.0)


def test_f1_components_no_hits():
    num, den = f1_components([0, 0], [2, 3], 5)
    assert num == 0.0
    assert den == 15.0


def test_f1_components_two_users():
    assert f1_components([1, 0], [1, 2], 5) == (2.0, 13.0)


def test_f1_components_empty_flagged():
    assert f1_components([], [], 5) == (0.0, 0.0)


def test_f1_components_rejects_empty_relevant_sets():
    with pytest.raises(ValueError):
        f1_components([1], [0], 5)


# --- HR -----------------------------------------------------------------------


def test_hit_ratio_counts_users_with_hits():
    assert hit_ratio_components([2, 0, 1]) == (2.0, 3.0)


def test_hit_ratio_extremes():
    assert hit_ratio_components([1, 3]) == (2.0, 2.0)
    assert hit_ratio_components([0, 0]) == (0.0, 2.0)


# --- MAP ----------------------------------------------------------------------


def test_average_precision_hits_at_1_and_3():
    # AP = (1/2) * (1*1/1 + 2*1/3) = 5/6
    assert average_precision([1, 0, 1], 3) == pytest.approx(5 / 6, abs=1e-12)


def test_average_precision_first_rank_only():
    assert average_precision([1, 0, 0], 3) == 1.0


def test_average_precision_no_hits():
    assert average_precision([0, 0, 0], 3) == 0.0


def test_map_components_sums_ap():
    num, den = map_components([[1, 0, 1], [0, 0, 0], [1]], 3)
    assert num == pytest.approx(5 / 6 + 0.0 + 1.0, abs=1e-12)
    assert den == 3.0


# --- time average ----------------------------------------------------------------


def test_time_average_ratio_of_sums():
    comps = [
        comp(1, 1, (1.0, 4.0), (1.0, 4.0), (1.0, 4.0)),
        comp(2, 1, (2.0, 4.0), (2.0, 4.0), (2.0, 4.0)),
    ]
    assert time_average(comps) == (
        pytest.approx(3 / 8),
        pytest.approx(3 / 8),
        pytest.approx(3 / 8),
    )


def test_time_average_single_window_is_plain_ratio():
    comps = [comp(1, 2, (2.0, 8.0), (1.0, 2.0), (0.5, 2.0))]
    assert time_average(comps) == (0.25, 0.5, 0.25)


def test_time_average_ignores_skipped_windows():
    active = [comp(1, 1, (1.0, 4.0), (1.0, 1.0), (1.0, 1.0))]
    padded = active + [comp(2, 0, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), skipped=True)]
    assert time_average(padded) == time_average(active)


def test_time_average_nothing_evaluated():
    with pytest.raises(ValueError, match="nothing evaluated"):
        time_average([comp(1, 0, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), skipped=True)])


def test_time_average_is_user_weighted_mean_for_hr():
    # equal per-window denominators: TA equals the arithmetic mean
    comps = [
        comp(1, 4, (0.0, 1.0), (1.0, 4.0), (1.0, 4.0)),
        comp(2, 4, (0.0, 1.0), (3.0, 4.0), (2.0, 4.0)),
    ]
    _, hr, map_ = time_average(comps)
    assert hr == pytest.approx((1 / 4 + 3 / 4) / 2)
    assert map_ == pytest.approx((1 / 4 + 2 / 4) / 2)


# --- monotonicity: a miss turned into a hit never hurts ---------------------------


def test_metrics_monotone_in_hits():
    base_flags = [[0, 1, 0], [0, 0, 0]]
    better_flags = [[0, 1, 0], [1, 0, 0]]
    n = 3
    base_hits = [sum(h) for h in base_flags]
    better_hits = [sum(h) for h in better_flags]
    new_counts = [2, 2]
    assert f1_components(better_hits, new_counts, n)[0] >= f1_components(
        base_hits, new_counts, n
    )[0]
    assert hit_ratio_components(better_hits)[0] >= hit_ratio_components(base_hits)[0]
    assert map_components(better_flags, n)[0] >= map_components(base_flags, n)[0]


def test_perfect_recommender_bound():
    # every user's top-N contains all of I_new(u), |I_new| <= N
    flags = [[1, 1, 0], [1, 0, 0]]
    hits = [2, 1]
    new_counts = [2, 1]
    n = 3
    hr_num, hr_den = hit_ratio_components(hits)
    assert hr_num / hr_den == 1.0
    f1_num, f1_den = f1_components(hits, new_counts, n)
    assert (f1_num, f1_den) == (2.0 * 3, float(2 + 3 + 1 + 3))


# --- folds ------------------------------------------------------------------------


def test_iter_folds_toy_two_windows(toy_stream):
    folds = iter_folds(toy_stream, 2)
    assert len(folds) == 1
    fold = folds[0]
    assert [ev.t for ev in fold.train.events] == [1, 1, 2, 2, 3]
    assert [ev.t for ev in fold.test.events] == [4, 5, 6]
    assert fold.rec_time == 3.5
    # u1 trained on {i1, i2}, tests {i3, i2} -> new item i3
    # u2 trained on {i3, i4}, tests {i4} -> nothing new, excluded
    assert fold.truth == {"u1": {"i3"}}


def test_iter_folds_excludes_cold_start_users():
    events = [
        Event(0, "a", "x"),
        Event(1, "a", "y"),
        Event(10, "b", "z"),  # b first appears in the test window
        Event(19, "b", "w"),
    ]
    stream = LinkStream.from_events(events, time_span=(0, 20))
    folds = iter_folds(stream, 2)
    assert folds[0].truth == {}


def test_iter_folds_count_is_windows_minus_one(stream_factory):
    stream = stream_factory(1, n_events=60, t_max=800)
    assert len(iter_folds(stream, 8)) == 7


def test_iter_folds_train_test_hygiene(stream_factory):
    for seed in range(5):
        stream = stream_factory(seed, n_events=50, t_max=500)
        for fold in iter_folds(stream, 8):
            if fold.train.events:
                assert max(ev.t for ev in fold.train.events) < fold.test_window.start
            for ev in fold.test.events:
                assert ev.t >= fold.test_window.start
            for user, new_items in fold.truth.items():
                assert user in fold.train.users
                assert not (new_items & fold.train_items[user])


# --- restart vector fast path matches the public op --------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_restart_vectors_match_personalization(seed):
    stream = make_stream(seed, n_events=40, t_max=300)
    t = stream.omega
    rng = random.Random(seed)
    # shuffled, with repeats
    users = sorted(stream.users)
    users = rng.sample(users, len(users)) + rng.choices(users, k=6)

    def rendered(graph, vectors):
        # batched vectors are keyed by node index
        return [{graph.node_list[i]: mass for i, mass in d.items()} for d in vectors]

    bip = build_bip(stream)
    assert rendered(bip, _restart_vectors(bip, users, t, None)) == [
        personalization(bip, u) for u in users
    ]

    stg = build_stg(stream, delta=40, eta_s=0.5)
    assert rendered(stg, _restart_vectors(stg, users, t, 0.7)) == [
        personalization(stg, u, beta=0.7) for u in users
    ]

    lsg = build_lsg(stream, eta_s=0.5)
    assert rendered(lsg, _restart_vectors(lsg, users, t, None)) == [
        personalization(lsg, u, t=t) for u in users
    ]
    # query times strictly between node times, for the users active by then
    times = sorted({ev.t for ev in stream.events})
    first = {u: min(ev.t for ev in stream.events if ev.user == u) for u in users}
    for k in (len(times) // 4, len(times) // 2, len(times) - 2):
        mid = (times[k] + times[k + 1]) / 2
        assert times[k] < mid < times[k + 1]
        active = [u for u in users if first[u] < mid]
        assert active
        assert rendered(lsg, _restart_vectors(lsg, active, mid, None)) == [
            personalization(lsg, u, t=mid) for u in active
        ]


@pytest.mark.parametrize(
    "build,t,beta",
    [
        (build_bip, None, None),
        (lambda s: build_stg(s, delta=40, eta_s=0.5), None, 0.7),
        (lambda s: build_lsg(s, eta_s=0.5), "omega", None),
    ],
    ids=["bip", "stg", "lsg"],
)
def test_restart_vectors_name_an_absent_user(build, t, beta):
    stream = make_stream(2, n_events=40, t_max=300)
    graph = build(stream)
    t = stream.omega if t == "omega" else t
    users = sorted(stream.users) + ["ghost"]
    with pytest.raises(ValueError) as public:
        personalization(graph, "ghost", t=t, beta=beta)
    with pytest.raises(ValueError, match="user 'ghost' not in training graph") as batched:
        _restart_vectors(graph, users, stream.omega, beta)
    assert str(batched.value) == str(public.value)


def test_restart_vectors_name_an_lsg_user_absent_at_t():
    stream = make_stream(2, n_events=40, t_max=300)
    graph = build_lsg(stream, eta_s=0.5)
    user = min(stream.users)
    t = min(ev.t for ev in stream.events if ev.user == user) - 1
    with pytest.raises(ValueError) as public:
        personalization(graph, user, t=t)
    with pytest.raises(ValueError, match="at or before") as batched:
        _restart_vectors(graph, [user], t, None)
    assert str(batched.value) == str(public.value)


# --- protocol ----------------------------------------------------------------------


def drifting_stream(n_users=6, n_items=10, t_max=400) -> LinkStream:
    """Deterministic stream where users keep picking new items over time,
    so every fold has something to evaluate."""
    events = []
    for u in range(n_users):
        for step in range(12):
            t = 1 + step * 33 + u
            item = (u + step) % n_items
            events.append(Event(t, f"u{u}", f"i{item}"))
    return LinkStream.from_events(events, time_span=(0, t_max))


def test_run_protocol_bip_produces_components():
    stream = drifting_stream()
    report = run_protocol(stream, "bip", ParamSetting(alpha=0.3, n=5), n_windows=8)
    assert len(report.windows) == 7
    assert not report.nothing_evaluated
    assert 0.0 <= report.ta_f1 <= 1.0
    assert 0.0 <= report.ta_hr <= 1.0
    assert 0.0 <= report.ta_map <= 1.0
    evaluated = [c for c in report.windows if not c.skipped]
    assert evaluated
    for c in evaluated:
        assert c.users > 0
        assert c.hr[1] == c.users
        assert c.map[1] == c.users
        assert c.hr[0] <= c.hr[1]


def test_run_protocol_all_flavors_agree_on_shape():
    stream = drifting_stream()
    for flavor, params in [
        ("bip", ParamSetting(alpha=0.5, n=5)),
        ("stg", ParamSetting(alpha=0.5, n=5, delta=50.0, beta=0.5, eta_s=0.2)),
        ("lsg", ParamSetting(alpha=0.5, n=5, eta_s=0.2)),
    ]:
        report = run_protocol(stream, flavor, params, n_windows=8)
        assert [c.window for c in report.windows] == list(range(1, 8))
        assert not report.nothing_evaluated


def test_run_protocol_stream_confined_to_first_window(caplog):
    events = [Event(t, "u", f"i{t}") for t in range(5)]
    stream = LinkStream.from_events(events, time_span=(0, 100))
    # alpha 0.9 is capped below its certified steps, but no fold is scored
    for alpha in (0.3, 0.9):
        with caplog.at_level(logging.DEBUG, logger="linkrec"):
            report = run_protocol(stream, "bip", ParamSetting(alpha=alpha, n=5), n_windows=8)
        assert report.nothing_evaluated
        assert report.ta_f1 is None
        assert all(c.skipped for c in report.windows)
        assert report.all_converged
    assert caplog.records == []


def test_run_protocol_user_without_new_items_excluded(toy_stream):
    report = run_protocol(
        toy_stream, "bip", ParamSetting(alpha=0.3, n=5), n_windows=2
    )
    assert report.windows[0].users == 1  # only u1; u2 repeats i4


def test_run_protocol_requires_flavor_params():
    stream = drifting_stream()
    with pytest.raises(ValueError, match="stg requires delta"):
        run_protocol(stream, "stg", ParamSetting(alpha=0.3, n=5), n_windows=4)


FLAVOR_PARAMS = [
    ("bip", ParamSetting(alpha=0.5, n=5)),
    ("stg", ParamSetting(alpha=0.5, n=5, delta=100.0, beta=0.5, eta_s=0.2)),
    ("lsg", ParamSetting(alpha=0.5, n=5, eta_s=0.2)),
]


@pytest.mark.parametrize("flavor,params", FLAVOR_PARAMS)
def test_run_protocol_independent_of_block_width(monkeypatch, flavor, params):
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    reports = {}
    for width in (1, 5, 128):
        monkeypatch.setattr(evaluation, "_BATCH_COLUMNS", width)
        reports[width] = report_json(run_protocol(stream, flavor, params, n_windows=4))
    assert max(c["users"] for c in json.loads(reports[1])["windows"]) > 5
    assert reports[1] == reports[5] == reports[128]


@pytest.mark.parametrize("flavor,params", FLAVOR_PARAMS)
def test_run_protocol_identical_for_1_2_3_workers(monkeypatch, flavor, params):
    # narrow blocks, so each fold is several blocks spread over the threads
    monkeypatch.setattr(evaluation, "_BATCH_COLUMNS", 3)
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    reports = {
        workers: report_json(run_protocol(stream, flavor, params, n_windows=4, workers=workers))
        for workers in (1, 2, 3)
    }
    assert max(c["users"] for c in json.loads(reports[1])["windows"]) > 3 * 3
    assert reports[1] == reports[2] == reports[3]


def test_run_protocol_identical_with_more_threads_than_cores(monkeypatch):
    # more threads than blocks and a switch every microsecond, so blocks
    # finish out of order; a lost or misplaced block changes the report
    monkeypatch.setattr(evaluation, "_BATCH_COLUMNS", 2)
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    params = ParamSetting(alpha=0.5, n=5, eta_s=0.2)
    serial = report_json(run_protocol(stream, "lsg", params, n_windows=4, workers=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = report_json(run_protocol(stream, "lsg", params, n_windows=4, workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_one_worker_makes_no_thread_pool(monkeypatch):
    def no_pool(workers):
        raise AssertionError("a thread pool was made for one worker")

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", no_pool)
    report = run_protocol(drifting_stream(), "lsg", ParamSetting(alpha=0.3, n=5, eta_s=0.2),
                          n_windows=4, workers=1)
    assert not report.nothing_evaluated


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    params = ParamSetting(alpha=0.3, n=5)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_protocol(drifting_stream(), "bip", params, n_windows=4, workers=workers)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        search(drifting_stream(), "bip", grid=ParamGrid(alpha=(0.3,)), count=1, n=5,
               n_windows=4, workers=workers)


class BlockError(Exception):
    pass


def fail_third_block(monkeypatch, alpha=None):
    """Patch ranker.pagerank_batch to raise BlockError on the third call
    (at ``alpha`` only, when given)."""
    pagerank_batch = ranker.pagerank_batch
    calls = itertools.count()

    def failing(tm, D, a):
        if (alpha is None or a == alpha) and next(calls) == 2:
            raise BlockError("block failed")
        return pagerank_batch(tm, D, a)

    monkeypatch.setattr(evaluation, "_BATCH_COLUMNS", 3)
    monkeypatch.setattr(ranker, "pagerank_batch", failing)


def test_block_error_propagates_from_threaded_protocol(monkeypatch):
    fail_third_block(monkeypatch)
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    with pytest.raises(BlockError, match="block failed"):
        run_protocol(stream, "lsg", ParamSetting(alpha=0.3, n=5, eta_s=0.2),
                     n_windows=4, workers=2)


def test_block_error_stops_only_its_setting(monkeypatch):
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    ok, bad = ParamSetting(alpha=0.3, n=5, eta_s=0.2), ParamSetting(alpha=0.5, n=5, eta_s=0.2)
    reference = report_json(run_protocol(stream, "lsg", ok, n_windows=4, workers=1))
    fail_third_block(monkeypatch, alpha=bad.alpha)
    with ThreadPoolExecutor(2) as pool:
        outcomes = evaluation.evaluate_settings(iter_folds(stream, 4), "lsg", [ok, bad], pool)
    assert isinstance(outcomes[1], BlockError)
    assert report_json(outcomes[0]) == reference


def test_run_protocol_warns_once_per_capped_fold(caplog):
    stream = drifting_stream()
    with caplog.at_level(logging.WARNING, logger="linkrec.evaluation"):
        capped = run_protocol(stream, "lsg", ParamSetting(alpha=0.9, n=5, eta_s=0.2))
    assert not capped.all_converged
    evaluated = [c.window for c in capped.windows if not c.skipped]
    assert [r.levelno for r in caplog.records] == [logging.WARNING] * len(evaluated)
    for record, k in zip(caplog.records, evaluated):
        message = record.getMessage()
        assert message.startswith(f"lsg fold {k}: ")
        assert "alpha=0.9" in message
        assert "capped at 100 steps" in message
        assert "2*alpha^100 = 5.3e-05" in message

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="linkrec.evaluation"):
        converged = run_protocol(stream, "lsg", ParamSetting(alpha=0.7, n=5, eta_s=0.2))
    assert converged.all_converged
    assert caplog.records == []


# --- serialization -------------------------------------------------------------------


def small_report():
    stream = drifting_stream()
    return run_protocol(stream, "bip", ParamSetting(alpha=0.3, n=5), n_windows=4)


def test_report_dict_structure_and_schema():
    report = small_report()
    payload = report_to_dict(report, config={"seed": 0, "input": "x.tsv"})
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["config"] == {"seed": 0, "input": "x.tsv"}
    assert payload["notes"]["evaluated_users"] == EVALUATED_USERS_RULE
    assert json.loads(report_json(report)) == report_to_dict(report)


def test_report_schema_rejects_malformed():
    payload = report_to_dict(small_report())
    payload["flavor"] = "pip"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, REPORT_SCHEMA)


def crossing_stream() -> LinkStream:
    """Two users swapping items over 4 windows of [0, 20].

    Hand evaluation with N=2 (single-candidate folds, so scores are
    irrelevant): fold 1 evaluates both users, u2 hits; fold 2 evaluates
    both, both hit; fold 3 has an empty test window.
    """
    events = [
        Event(0, "u1", "a"), Event(1, "u2", "c"),
        Event(5, "u2", "a"), Event(6, "u1", "b"),
        Event(11, "u1", "c"), Event(12, "u2", "b"),
    ]
    return LinkStream.from_events(events, time_span=(0, 20))


def test_report_csv_golden():
    report = run_protocol(crossing_stream(), "bip", ParamSetting(alpha=0.5, n=2),
                          n_windows=4)
    expected = "\n".join([
        "window,users,metric,numerator,denominator,value",
        "1,2,f1,2.0,6.0,0.3333333333333333",
        "1,2,hr,1.0,2.0,0.5",
        "1,2,map,1.0,2.0,0.5",
        "2,2,f1,4.0,6.0,0.6666666666666666",
        "2,2,hr,2.0,2.0,1.0",
        "2,2,map,2.0,2.0,1.0",
        "3,0,f1,0.0,0.0,",
        "3,0,hr,0.0,0.0,",
        "3,0,map,0.0,0.0,",
    ]) + "\n"
    assert report_csv(report) == expected


def test_report_json_golden():
    report = run_protocol(crossing_stream(), "bip", ParamSetting(alpha=0.5, n=2),
                          n_windows=4)
    payload = report_to_dict(report)
    assert payload == {
        "flavor": "bip",
        "n_windows": 4,
        "params": {"delta": None, "beta": None, "eta_s": None, "alpha": 0.5, "n": 2},
        "windows": [
            {"window": 1, "users": 2, "skipped": False,
             "f1": {"numerator": 2.0, "denominator": 6.0},
             "hr": {"numerator": 1.0, "denominator": 2.0},
             "map": {"numerator": 1.0, "denominator": 2.0}},
            {"window": 2, "users": 2, "skipped": False,
             "f1": {"numerator": 4.0, "denominator": 6.0},
             "hr": {"numerator": 2.0, "denominator": 2.0},
             "map": {"numerator": 2.0, "denominator": 2.0}},
            {"window": 3, "users": 0, "skipped": True,
             "f1": {"numerator": 0.0, "denominator": 0.0},
             "hr": {"numerator": 0.0, "denominator": 0.0},
             "map": {"numerator": 0.0, "denominator": 0.0}},
        ],
        "time_averaged": {"f1": 0.5, "hr": 0.75, "map": 0.75},
        "all_converged": True,
        "notes": {"evaluated_users": EVALUATED_USERS_RULE},
    }


def test_write_report_files(tmp_path):
    report = small_report()
    json_path, csv_path = write_report_files(report, tmp_path / "out", {"seed": 1})
    assert json_path.exists() and csv_path.exists()
    payload = json.loads(json_path.read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["config"]["seed"] == 1


def test_evaluate_settings_rejects_mixed_graph_keys():
    settings = [ParamSetting(alpha=0.3, eta_s=0.0), ParamSetting(alpha=0.3, eta_s=0.5)]
    with pytest.raises(ValueError, match="share delta and eta_s"):
        evaluation.evaluate_settings(iter_folds(drifting_stream(), 4), "lsg", settings)


def test_evaluate_settings_with_no_settings_is_empty():
    assert evaluation.evaluate_settings(iter_folds(drifting_stream(), 4), "lsg", []) == []


@pytest.mark.parametrize("flavor,params", FLAVOR_PARAMS)
@pytest.mark.parametrize("seed", range(3))
def test_protocol_ranking_matches_public_recommend(monkeypatch, seed, flavor, params):
    # small blocks, so several blocks per fold are compared
    monkeypatch.setattr(evaluation, "_BATCH_COLUMNS", 3)
    stream = make_stream(20 + seed, n_users=12, n_items=25, n_events=250)
    compared = 0
    for fold in iter_folds(stream, 4):
        if not fold.truth:
            continue
        shared = evaluation.FoldGraph.build(fold, flavor, params.delta, params.eta_s)
        restarts = shared.restarts(params.beta)
        for start in range(0, len(shared.users), evaluation._BATCH_COLUMNS):
            block = slice(start, start + evaluation._BATCH_COLUMNS)
            top, _ = rank_items(
                shared.tm, shared.A, restarts[:, block], params.alpha, shared.seen[block],
                params.n,
            )
            for user, rows in zip(shared.users[start:], top.tolist()):
                expected = recommend(
                    shared.graph, user, fold.rec_time, params,
                    seen=fold.train_items[user], tm=shared.tm,
                )
                assert [shared.items[r] for r in rows if r >= 0] == [
                    item for item, _ in expected
                ]
                compared += 1
    assert compared > 10


def test_sparse_start_leaves_protocol_report_unchanged(monkeypatch):
    # large enough that blocks pass the sparse start's size gate as is
    stream = make_stream(7, n_users=120, n_items=200, n_events=5000, t_max=1_000_000)
    params = ParamSetting(alpha=0.3, n=10, eta_s=0.5)
    sparse_starts = []
    sparse_start = ranker._sparse_start

    def spy(*args):
        X, done = sparse_start(*args)
        sparse_starts.append(done)
        return X, done

    monkeypatch.setattr(ranker, "_sparse_start", spy)
    reports = {}
    for workers in (1, 2):
        reports[workers] = report_json(run_protocol(stream, "lsg", params, workers=workers), {})
        assert sparse_starts and all(done > 0 for done in sparse_starts)
        sparse_starts.clear()
    monkeypatch.setattr(ranker, "_SPARSE_MIN_WORK", math.inf)
    for workers in (1, 2):
        dense = report_json(run_protocol(stream, "lsg", params, workers=workers), {})
        assert not sparse_starts
        assert dense == reports[workers] == reports[1]


# --- evaluated users whose new items are all outside the training graph -------------


def cold_item_stream() -> LinkStream:
    """Four windows of 250 over six core users and warm items i0-i14.
    From the second window on, each window brings items no earlier one
    has (cold in the fold that tests on it). After their first event, uc
    picks only cold items, uw only items already in the graph, um both."""
    rng = random.Random(11)
    events = {Event(t, "core", f"i{t}") for t in range(15)}
    while len(events) < 215:
        events.add(Event(rng.randrange(1000), f"u{rng.randrange(6)}", f"i{rng.randrange(15)}"))
    events |= {Event(20, user, "i0") for user in ("uc", "uw", "um")}
    for w in range(1, 4):
        t = 250 * w + 10
        cold = [f"new{w}_{j}" for j in range(3)]
        events |= {Event(t + j, f"u{j}", item) for j, item in enumerate(cold)}
        events |= {Event(t, "uc", cold[0]), Event(t + 1, "uc", cold[1])}
        events |= {Event(t, "uw", f"i{w}"), Event(t + 1, "uw", f"i{w + 5}")}
        events |= {Event(t, "um", cold[2]), Event(t + 1, "um", f"i{w + 9}")}
    return LinkStream.from_events(events, time_span=(0, 1000))


def reference_components(fold, flavor: str, params: ParamSetting) -> MetricComponents:
    """One fold's components from the public ranking of each evaluated user."""
    graph = build_graph(flavor, fold.train, delta=params.delta, eta_s=params.eta_s)
    flags, hit_counts, new_counts = [], [], []
    for user in sorted(fold.truth):
        ranked = recommend(graph, user, fold.rec_time, params, seen=fold.train_items[user])
        h, hit_k = hits_at_n(ranked, fold.truth[user])
        flags.append(h)
        hit_counts.append(hit_k[-1] if hit_k else 0)
        new_counts.append(len(fold.truth[user]))
    return comp(
        fold.k,
        len(fold.truth),
        f1_components(hit_counts, new_counts, params.n),
        hit_ratio_components(hit_counts),
        map_components(flags, params.n),
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("flavor,params", FLAVOR_PARAMS)
def test_protocol_with_cold_new_items_matches_per_user_reference(
    monkeypatch, flavor, params, workers
):
    # narrow blocks, so each fold's ranked users span several blocks
    monkeypatch.setattr(evaluation, "_BATCH_COLUMNS", 2)
    stream = cold_item_stream()
    folds = iter_folds(stream, 4)
    kinds = set()
    for fold in folds:
        train_items = fold.train.items
        for items in fold.truth.values():
            warm = len(items & train_items)
            kinds.add("warm" if warm == len(items) else "mixed" if warm else "cold")
    assert kinds == {"cold", "warm", "mixed"}
    report = run_protocol(stream, flavor, params, n_windows=4, workers=workers)
    assert report.windows == [reference_components(fold, flavor, params) for fold in folds]
    assert any(c.hr[0] > 0 for c in report.windows)


@pytest.mark.parametrize("flavor,params", FLAVOR_PARAMS)
def test_fold_with_only_cold_new_items_is_scored_without_pagerank(
    monkeypatch, flavor, params
):
    # fold 1: a and b pick only items the training windows lack; fold 2:
    # a, b and c pick items the graph has
    stream = LinkStream.from_events(
        [
            Event(1, "a", "x"), Event(2, "a", "y"), Event(3, "b", "y"), Event(4, "b", "z"),
            Event(5, "c", "x"),
            Event(110, "a", "cold1"), Event(120, "b", "cold2"), Event(121, "b", "cold3"),
            Event(210, "a", "z"), Event(220, "c", "cold1"), Event(230, "b", "x"),
        ],
        time_span=(0, 300),
    )
    shared_of, ranked_on = {}, []
    evaluate_fold, pagerank_batch = evaluation._evaluate_fold, ranker.pagerank_batch

    def fold_spy(shared, *args):
        shared_of[shared.fold.k] = shared
        return evaluate_fold(shared, *args)

    def pagerank_spy(tm, *args, **kwargs):
        ranked_on.append(tm)
        return pagerank_batch(tm, *args, **kwargs)

    monkeypatch.setattr(evaluation, "_evaluate_fold", fold_spy)
    monkeypatch.setattr(ranker, "pagerank_batch", pagerank_spy)
    report = run_protocol(stream, flavor, params, n_windows=3, workers=1)
    cold, warm = report.windows
    n = params.n
    assert cold == comp(1, 2, (0.0, float(1 + n + 2 + n)), (0.0, 2.0), (0.0, 2.0))
    assert shared_of[1].users == [] and shared_of[1].seen.shape == (0, 3)
    assert shared_of[2].users == ["a", "b", "c"] and warm.users == 3
    assert all(tm is shared_of[2].tm for tm in ranked_on) and ranked_on


def test_fold_debug_record_counts_evaluated_and_ranked_users(caplog):
    stream = cold_item_stream()
    folds = iter_folds(stream, 4)
    settings = [ParamSetting(alpha=0.3, n=5, eta_s=0.2), ParamSetting(alpha=0.5, n=3, eta_s=0.2)]
    with caplog.at_level(logging.DEBUG, logger="linkrec.evaluation"):
        evaluation.evaluate_settings(folds, "lsg", settings)
    records = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(records) == len(folds)  # one per fold, not one per setting
    for record, fold in zip(records, folds):
        graph = build_graph("lsg", fold.train, eta_s=0.2)
        train_items = fold.train.items
        ranked = sum(1 for items in fold.truth.values() if items & train_items)
        assert ranked < len(fold.truth)
        assert record.getMessage() == (
            f"lsg fold {fold.k}: {graph.n_nodes} nodes, {graph.n_edges} edges, "
            f"{len(fold.truth)} evaluated users, {ranked} ranked"
        )


# --- folds against their plain definition -------------------------------------------


def plain_fold(fold) -> tuple[dict, dict]:
    """(train_items, truth) of a fold from its own events: each training
    user's items, by first appearance; each training user's test items
    they never trained on, when there are any."""
    train_items: dict[str, set[str]] = {}
    for ev in fold.train.events:
        train_items.setdefault(ev.user, set()).add(ev.item)
    test_items: dict[str, set[str]] = {}
    for ev in fold.test.events:
        test_items.setdefault(ev.user, set()).add(ev.item)
    truth = {
        user: items - train_items[user]
        for user, items in test_items.items()
        if user in train_items and items - train_items[user]
    }
    return train_items, truth


def edge_case_stream() -> LinkStream:
    """Four windows of 100; the first is empty. In window 3, a picks only
    items they picked before, c appears for the first time and b picks a
    new item; in window 4, c (now trained) picks a new one."""
    return LinkStream.from_events(
        [
            Event(110, "a", "x"), Event(120, "a", "y"), Event(130, "b", "y"),
            Event(210, "a", "x"), Event(220, "c", "z"), Event(230, "b", "z"),
            Event(240, "a", "y"),
            Event(310, "c", "x"), Event(320, "a", "x"), Event(330, "b", "w"),
        ],
        time_span=(0, 400),
    )


def test_iter_folds_edge_cases():
    first, second, third = iter_folds(edge_case_stream(), 4)
    assert len(first.train) == 0 and first.train_items == {} and first.truth == {}
    assert second.train_items == {"a": {"x", "y"}, "b": {"y"}}
    assert second.truth == {"b": {"z"}}  # a's items are all old, c is untrained
    assert third.truth == {"b": {"w"}, "c": {"x"}}


@pytest.mark.parametrize("n_windows", [2, 4, 8])
def test_iter_folds_match_their_plain_definition(n_windows):
    streams = [edge_case_stream(), cold_item_stream()] + [
        make_stream(seed, n_users=8, n_items=12, n_events=120) for seed in range(4)
    ]
    for stream in streams:
        for fold in iter_folds(stream, n_windows):
            train_items, truth = plain_fold(fold)
            assert fold.train_items == train_items
            assert list(fold.train_items) == list(train_items)
            assert fold.truth == truth


@pytest.mark.parametrize("flavor,params", FLAVOR_PARAMS)
def test_ranked_users_match_their_plain_definition(flavor, params):
    streams = [cold_item_stream()] + [
        make_stream(seed, n_users=8, n_items=30, n_events=120) for seed in range(3)
    ]
    ranked = unranked = 0
    for stream in streams:
        for fold in iter_folds(stream, 4):
            shared = evaluation.FoldGraph.build(fold, flavor, params.delta, params.eta_s)
            graph_items = set(shared.items)
            assert shared.users == [
                u for u in sorted(fold.truth) if fold.truth[u] & graph_items
            ]
            ranked += len(shared.users)
            unranked += len(fold.truth) - len(shared.users)
    assert ranked and unranked


def test_f1_components_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="one hit count and one I_new size per user"):
        f1_components([1, 0], [2], 5)
