import dataclasses
import itertools
import json
import logging
import math
import pickle
import random
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from linkrec import evaluation, ranker
from linkrec.evaluation import (
    EVALUATED_USERS_RULE,
    REPORT_SCHEMA,
    MetricComponents,
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
from linkrec.graphs import RecGraph, build_bip, build_graph, build_lsg, build_stg
from linkrec.linkstream import Event, LinkStream, split_windows
from linkrec.ranker import _restart_vectors, personalization, personalization_matrix, recommend
from linkrec.tuning import GRID_ALPHA, ParamGrid, ParamSetting, leaderboard_csv, search

from conftest import make_stream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_metrics_reject_hit_data_beyond_n():
    with pytest.raises(ValueError, match="3 hit flags for a top-2 list"):
        average_precision([0, 0, 1], 2)
    with pytest.raises(ValueError, match="3 ranks of hit flags for a top-2 list"):
        map_components([[0, 0, 1]], 2)
    with pytest.raises(ValueError, match="3 ranks of hit flags for a top-2 list"):
        map_components(np.zeros((4, 3), bool), 2)
    for hits, new_counts in (([3], [1]), ([3], [5]), ([0, 2], [1, 1])):
        with pytest.raises(ValueError, match=r"a hit count exceeds min\(n, \|I_new\|\)"):
            f1_components(hits, new_counts, 2)
    # at the limits
    assert average_precision([0, 1], 2) == 0.5
    assert map_components([[0, 1]], 2) == (0.5, 1.0)
    assert f1_components([2, 1], [5, 1], 2) == (6.0, 10.0)


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


def test_map_sums_add_left_to_right():
    # each input rounds differently when added left to right than when
    # added exactly, as builtin sum() does from Python 3.12 on
    terms = [1 / 3, 2 / 4, 3 / 5]
    assert math.fsum(terms) != (terms[0] + terms[1]) + terms[2]
    assert average_precision([0, 0, 1, 1, 1], 5) == ((terms[0] + terms[1]) + terms[2]) / 3
    aps = [1 / 5, (1 / 3 + 2 / 5) / 2, 1 / 5]
    assert math.fsum(aps) != (aps[0] + aps[1]) + aps[2]
    flags = [[0, 0, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 0, 1]]
    assert map_components(flags, 5) == ((aps[0] + aps[1]) + aps[2], 3.0)
    numerators = [1.0, 1e-16, 1e-16]
    assert math.fsum(numerators) != 1.0
    comps = [comp(k, 1, (0.0, 1.0), (0.0, 1.0), (num, float(k == 1))) for k, num in
             enumerate(numerators, start=1)]
    assert time_average(comps)[2] == 1.0


def bits(components) -> list[str]:
    """A components pair bit for bit, and only if both are Python floats
    (numpy 2 reprs a np.float64 as "np.float64(x)", and report_csv
    writes repr)."""
    assert all(type(v) is float for v in components)
    return [v.hex() for v in components]


@st.composite
def ranked_and_unranked(draw):
    """A ranked users x ranks hit array, a count of unranked users, and one
    I_new size per user, ranked first, at least 1 and the user's hits."""
    hits = draw(arrays(np.bool_, st.tuples(st.integers(0, 12), st.integers(0, 10))))
    users = len(hits) + draw(st.integers(0, 5))
    least = hits.sum(axis=1).tolist() + [0] * (users - len(hits))
    return hits, users, [max(h, 1) + draw(st.integers(0, 4)) for h in least]


@given(ranked_and_unranked(), st.integers(0, 3))
@example((np.zeros((0, 0), bool), 0, []), 0)  # no users
@example((np.zeros((3, 0), bool), 5, [1, 2, 3, 1, 2]), 1)  # no ranks, two users unranked
@settings(max_examples=300, deadline=None)
def test_array_scoring_is_bitwise_the_per_user_specification(case, extra):
    # the unranked users enter the hit counts as a count, as in _evaluate_fold
    hits, users, new_counts = case
    n = hits.shape[1] + extra
    flags = hits.astype(int).tolist()
    hit_counts = [sum(h) for h in flags] + [0] * (users - len(flags))
    counts = np.bincount(hits.nonzero()[0], minlength=users)
    assert bits(f1_components(counts, new_counts, n)) == bits(
        (2.0 * sum(hit_counts), float(sum(c + n for c in new_counts))))
    assert bits(hit_ratio_components(counts)) == bits(
        (float(sum(1 for c in hit_counts if c > 0)), float(users)))
    expected = evaluation._fadd(average_precision(h, n) for h in flags)
    assert bits(map_components(hits, n)) == bits((expected, float(len(flags))))


@given(st.lists(st.lists(st.integers(0, 1), max_size=10), max_size=12), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_map_components_scores_ragged_flag_lists(flags, extra):
    # a list shorter than n misses at its missing ranks, which add exactly 0.0
    n = max(map(len, flags), default=0) + extra
    expected = evaluation._fadd(average_precision(h, n) for h in flags)
    assert bits(map_components(flags, n)) == bits((expected, float(len(flags))))
    padded = np.array([h + [0] * (n - len(h)) for h in flags], bool).reshape(len(flags), n)
    assert bits(map_components(padded, n)) == bits(map_components(flags, n))


def test_protocol_components_are_python_floats():
    report = run_protocol(make_stream(3, n_users=20, n_items=30, n_events=300), "bip",
                          ParamSetting(alpha=0.3, n=3), n_windows=4, workers=1)
    assert not report.nothing_evaluated
    for c in report.windows:
        for pair in (c.f1, c.hr, c.map):
            bits(pair)
    assert "np." not in report_csv(report)


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


# Epochs of the hygiene and translation properties: 0, seconds since 1970
# (spans up to 1e16) and nanoseconds since 1970, past 2**53.
EPOCHS = (0, 1_600_000_000, 1_600_000_000_000_000_000)


@st.composite
def edge_streams(draw):
    """A stream with events on and 1-2 units below the exact window edges."""
    epoch = draw(st.sampled_from(EPOCHS))
    alpha = epoch + draw(st.integers(0, 10**9))
    omega = alpha + draw(st.integers(1, 10**6 if epoch == 0 else 10**16))
    if draw(st.booleans()) and omega < 2**53:
        alpha, omega = float(alpha), float(omega)
    n = draw(st.integers(2, 9))
    a = Fraction(alpha)
    edges = [math.ceil(a + (Fraction(omega) - a) * k / n) for k in range(1, n)]
    times = [alpha, omega] + [
        min(max(edge - below, alpha), omega)
        for edge in edges
        for below in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    ]
    events = [
        Event(t, f"u{draw(st.integers(0, 2))}", f"i{draw(st.integers(0, 3))}") for t in times
    ]
    note(f"time_span=({alpha!r}, {omega!r}), n_windows={n}, times={sorted(times)}")
    return LinkStream.from_events(events, time_span=(alpha, omega)), n


@given(edge_streams())
@settings(max_examples=60, deadline=None)
def test_fold_hygiene_at_exact_window_edges(drawn):
    stream, n = drawn
    for fold in iter_folds(stream, n):
        start = fold.test_window.start
        assert all(ev.t >= start for ev in fold.test.events)
        if len(fold.train):
            last = fold.train.columns.t[-1].item()
            assert last < start
            assert last <= fold.rec_time


TRANSLATION_PARAMS = ParamSetting(alpha=0.3, n=3, delta=150.0, beta=0.5, eta_s=0.5)


def _outcome(stream, flavor, n, params=TRANSLATION_PARAMS):
    """Each window's event partition and the report's users and TA values
    (or the error that stopped the run), with times relative to alpha."""
    partition = [
        [(ev.t - stream.alpha, ev.user, ev.item) for ev in sub.events]
        for _, sub in split_windows(stream, n)
    ]
    try:
        report = run_protocol(stream, flavor, params, n_windows=n, workers=1)
    except ValueError as exc:
        return partition, str(exc)
    users = [w.users for w in report.windows]
    return partition, users, (report.ta_f1, report.ta_hr, report.ta_map)


@given(
    st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 3), st.integers(0, 4)),
        min_size=2,
        max_size=40,
    ),
    st.integers(1_600_000_000_000_000_000, 1_600_000_001_000_000_000),
    st.integers(2, 5),
)
@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("flavor", ["bip", "stg", "lsg"])
def test_translation_leaves_windows_and_metrics_unchanged(flavor, triples, shift, n):
    events = [Event(t, f"u{u}", f"i{i}") for t, u, i in triples]
    span = (0, 1000)
    stream = LinkStream.from_events(events, time_span=span)
    shifted = LinkStream.from_events(
        [dataclasses.replace(ev, t=ev.t + shift) for ev in events],
        time_span=(span[0] + shift, span[1] + shift),
    )
    assert _outcome(shifted, flavor, n) == _outcome(stream, flavor, n)


SMALL_STREAMS = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(0, 3), st.integers(0, 4)),
    min_size=2,
    max_size=40,
)


@given(SMALL_STREAMS, st.sampled_from(EPOCHS[:2]), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("flavor", ["bip", "stg", "lsg"])
def test_rescaling_times_and_delta_leaves_windows_and_metrics_unchanged(
    flavor, triples, epoch, n
):
    # seconds to nanoseconds: an epoch of 1.6e9 s becomes 1.6e18 ns, past 2**53
    scale = 10**9
    events = [Event(epoch + t, f"u{u}", f"i{i}") for t, u, i in triples]
    stream = LinkStream.from_events(events, time_span=(epoch, epoch + 1000))
    scaled = LinkStream.from_events(
        [dataclasses.replace(ev, t=ev.t * scale) for ev in events],
        time_span=(epoch * scale, (epoch + 1000) * scale),
    )
    params = dataclasses.replace(TRANSLATION_PARAMS, delta=TRANSLATION_PARAMS.delta * scale)
    note(f"scaled time_span={scaled.time_span}, delta={params.delta!r}, n_windows={n}")
    partition, *rest = _outcome(stream, flavor, n)
    expected = [[(t * scale, u, i) for t, u, i in window] for window in partition]
    assert _outcome(scaled, flavor, n, params) == (expected, *rest)


@given(
    SMALL_STREAMS,
    st.lists(st.text("abuz09", min_size=1, max_size=3), min_size=4, max_size=4, unique=True),
    st.lists(st.text("aciz09", min_size=1, max_size=3), min_size=5, max_size=5, unique=True),
    st.integers(2, 5),
)
@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("flavor", ["bip", "stg", "lsg"])
def test_order_preserving_renaming_leaves_metrics_unchanged(flavor, triples, users, items, n):
    # u0 < u1 < ... and i0 < i1 < ... map to the sorted drawn names, in order
    users, items = sorted(users), sorted(items)
    note(f"users u0..u3 -> {users}, items i0..i4 -> {items}")
    events = [Event(t, f"u{u}", f"i{i}") for t, u, i in triples]
    renamed = [Event(t, users[u], items[i]) for t, u, i in triples]
    partition, *rest = _outcome(LinkStream.from_events(events, time_span=(0, 1000)), flavor, n)
    expected = [[(t, users[int(u[1:])], items[int(i[1:])]) for t, u, i in w] for w in partition]
    outcome = _outcome(LinkStream.from_events(renamed, time_span=(0, 1000)), flavor, n)
    assert outcome == (expected, *rest)


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


@pytest.mark.parametrize("build,beta", [
    (build_bip, None), (lambda s: build_stg(s, delta=40, eta_s=0.5), 0.7),
    (lambda s: build_lsg(s, eta_s=0.5), None),
], ids=["bip", "stg", "lsg"])
def test_restart_vectors_take_user_codes_or_ids(build, beta):
    stream = make_stream(5, n_events=40, t_max=300)
    graph = build(stream)
    users = sorted(stream.users)[::-1]
    codes = np.array([graph.users.index(u) for u in users])
    t = stream.omega
    assert _restart_vectors(graph, codes, t, beta) == _restart_vectors(graph, users, t, beta)
    # an array of ids is looked up as ids, not taken for codes
    assert _restart_vectors(graph, np.array(users), t, beta) == _restart_vectors(
        graph, users, t, beta)
    if graph.flavor == "lsg":  # an error names the user of the code
        early = min(ev.t for ev in stream.events if ev.user == users[0]) - 1
        with pytest.raises(ValueError, match=f"user {users[0]!r} not in training graph at"):
            _restart_vectors(graph, codes[:1], early, beta)


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
        monkeypatch.setattr(ranker, "_BATCH_COLUMNS", width)
        reports[width] = report_json(run_protocol(stream, flavor, params, n_windows=4))
    assert max(c["users"] for c in json.loads(reports[1])["windows"]) > 5
    assert reports[1] == reports[5] == reports[128]


@pytest.mark.parametrize("flavor,params", FLAVOR_PARAMS)
def test_run_protocol_identical_for_1_2_3_workers(monkeypatch, flavor, params):
    # narrow blocks, so each fold is several blocks spread over the threads
    monkeypatch.setattr(ranker, "_BATCH_COLUMNS", 3)
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
    monkeypatch.setattr(ranker, "_BATCH_COLUMNS", 2)
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


def test_protocol_pool_is_capped_at_the_fold_count(monkeypatch):
    sizes = []

    class InlinePool:
        """Records its size and runs each task when submitted, on no thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    params = ParamSetting(alpha=0.3, n=5, eta_s=0.2)
    serial = report_json(run_protocol(drifting_stream(), "lsg", params, n_windows=4, workers=1))
    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", InlinePool)
    report = run_protocol(drifting_stream(), "lsg", params, n_windows=4, workers=10**6)
    assert sizes == [3]
    assert report_json(report) == serial


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

    monkeypatch.setattr(ranker, "_BATCH_COLUMNS", 3)
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


class BuildError(Exception):
    pass


def fail_builds(monkeypatch, failing_folds):
    """Patch FoldGraph.build to raise BuildError(k) on the folds in
    ``failing_folds``, and record the thread that builds each fold."""
    build = evaluation.FoldGraph.build.__func__
    threads = {}

    def failing(cls, fold, *args):
        threads[fold.k] = threading.current_thread()
        if fold.k in failing_folds:
            raise BuildError(fold.k)
        return build(cls, fold, *args)

    monkeypatch.setattr(evaluation.FoldGraph, "build", classmethod(failing))
    return threads


@pytest.mark.parametrize("workers", [1, 2])
def test_first_build_error_in_fold_order_wins(monkeypatch, workers):
    # fold 3 is submitted first and may fail first; fold 2's error is
    # the one the serial loop meets, so it is the one reported
    fail_builds(monkeypatch, {2, 3})
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    params = ParamSetting(alpha=0.3, n=5, eta_s=0.2)
    with pytest.raises(BuildError) as caught:
        run_protocol(stream, "lsg", params, n_windows=5, workers=workers)
    assert caught.value.args == (2,)
    settings = [params, ParamSetting(alpha=0.5, n=3, eta_s=0.2)]
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        outcomes = evaluation.evaluate_settings(iter_folds(stream, 5), "lsg", settings, pool)
    assert [type(o) for o in outcomes] == [BuildError, BuildError]
    assert all(o.args == (2,) for o in outcomes)


def test_serial_protocol_stops_building_once_every_setting_stopped(monkeypatch):
    threads = fail_builds(monkeypatch, {2})
    with pytest.raises(BuildError):
        run_protocol(make_stream(11, n_users=20, n_items=30, n_events=300), "lsg",
                     ParamSetting(alpha=0.3, n=5, eta_s=0.2), n_windows=5, workers=1)
    assert sorted(threads) == [1, 2]


@pytest.mark.parametrize("workers", [1, 2])
def test_fold_builds_run_on_the_pool_threads(monkeypatch, workers):
    threads = fail_builds(monkeypatch, set())
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    run_protocol(stream, "lsg", ParamSetting(alpha=0.3, n=5, eta_s=0.2),
                 n_windows=5, workers=workers)
    assert sorted(threads) == [1, 2, 3, 4]
    on_caller = {t is threading.current_thread() for t in threads.values()}
    assert on_caller == {workers == 1}


def test_pool_takes_the_largest_fold_first():
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    folds = iter_folds(stream, 5)
    submitted = []

    class RecordingPool(ThreadPoolExecutor):
        def submit(self, fn, fold, *args):
            submitted.append(fold.k)
            return super().submit(fn, fold, *args)

    settings = [ParamSetting(alpha=0.3, n=5, eta_s=0.2)]
    with RecordingPool(2) as pool:
        (threaded,) = evaluation.evaluate_settings(folds, "lsg", settings, pool)
    (serial,) = evaluation.evaluate_settings(folds, "lsg", settings)
    assert submitted == [4, 3, 2, 1]
    assert report_json(threaded) == report_json(serial)


@pytest.mark.parametrize("flavor,params", FLAVOR_PARAMS)
def test_serial_and_pooled_runs_give_the_same_outcomes_and_records(
    monkeypatch, caplog, flavor, params
):
    # fold 1 trains on an empty window and is skipped; both settings are
    # capped, so every scored fold warns once per running setting, and
    # the second setting stops on fold 3
    events = make_stream(11, n_users=20, n_items=30, n_events=300).events
    folds = iter_folds(LinkStream.from_events(events, time_span=(-200, 1000)), 6)
    assert not folds[0].truth and all(fold.truth for fold in folds[1:])
    settings = [dataclasses.replace(params, alpha=0.8), dataclasses.replace(params, alpha=0.9)]
    rank_users = evaluation.rank_users
    # each fold's users are ranked at its last training event's time
    fold_at = {fold.train.columns.t[-1].item(): fold.k for fold in folds[1:]}

    def failing(tm, A, users, t, beta, alphas, seen, n):
        tops, walked = rank_users(tm, A, users, t, beta, alphas, seen, n)
        if fold_at[t] == 3:
            tops[settings[1].alpha] = BlockError(fold_at[t])
        return tops, walked

    monkeypatch.setattr(evaluation, "rank_users", failing)
    runs = []
    for pool in (nullcontext(), ThreadPoolExecutor(2)):
        caplog.clear()
        with pool as p, caplog.at_level(logging.DEBUG, logger="linkrec.evaluation"):
            ok, stopped = evaluation.evaluate_settings(folds, flavor, settings, p)
        records = [(r.levelno, r.getMessage()) for r in caplog.records
                   if r.name == "linkrec.evaluation"]
        runs.append((report_json(ok), repr(stopped), records))
    assert runs[0] == runs[1]
    _, stopped, records = runs[0]
    assert stopped == "BlockError(3)"
    expected = []
    for k in range(2, 6):
        expected.append((logging.DEBUG, f"{flavor} fold {k}: "))
        expected += [(logging.WARNING, f"{flavor} fold {k}: PageRank not converged at "
                      f"alpha={alpha}") for alpha in (0.8, 0.9) if alpha == 0.8 or k < 3]
    assert [(level, message[:len(prefix)]) for (level, message), (_, prefix)
            in zip(records, expected)] == expected
    assert len(records) == len(expected)


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
    monkeypatch.setattr(ranker, "_BATCH_COLUMNS", 3)
    stream = make_stream(20 + seed, n_users=12, n_items=25, n_events=250)
    compared = 0
    for fold in iter_folds(stream, 4):
        if not fold.truth:
            continue
        shared = evaluation.FoldGraph.build(fold, flavor, params.delta, params.eta_s)
        tops, _ = ranker.rank_users(
            shared.tm, shared.A, shared.users, fold.train.columns.t[-1].item(), params.beta,
            [params.alpha], shared.seen, params.n,
        )
        for user, rows in zip(shared.users, tops[params.alpha].tolist()):
            expected = recommend(
                shared.graph, user, fold.rec_time, params,
                seen=fold.train_items[user], tm=shared.tm,
            )
            assert [shared.items[r] for r in rows if r >= 0] == [item for item, _ in expected]
            compared += 1
    assert compared > 10


@pytest.mark.parametrize("flavor,params", FLAVOR_PARAMS)
def test_fold_restart_blocks_are_column_blocks_of_all_ranked_users(monkeypatch, flavor, params):
    monkeypatch.setattr(ranker, "_BATCH_COLUMNS", 3)
    stream = make_stream(21, n_users=12, n_items=25, n_events=250)
    blocks = []

    def spy(tm, vectors):
        blocks.append(personalization_matrix(tm, vectors))
        return blocks[-1]

    monkeypatch.setattr(ranker, "personalization_matrix", spy)
    cut = 0
    for fold in iter_folds(stream, 4):
        if not fold.truth:
            continue
        blocks.clear()
        # one alpha, so no sub-block is built: the blocks are those ranked
        evaluation._evaluate_fold(fold, flavor, [params])
        shared = evaluation.FoldGraph.build(fold, flavor, params.delta, params.eta_s)
        widths = [B.shape[1] for B in blocks]
        assert widths[:-1] == [3] * (len(widths) - 1) and sum(widths) == len(shared.users)
        whole = personalization_matrix(shared.tm, [
            personalization(shared.graph, user, t=fold.rec_time, beta=params.beta)
            for user in shared.users
        ])
        expected = np.zeros(whole.shape)
        expected[whole.row, whole.col] = whole.mass
        for start, B in zip(range(0, len(shared.users), 3), blocks):
            got = np.zeros(B.shape)
            got[B.row, B.col] = B.mass
            assert np.array_equal(got, expected[:, start:start + 3])
        cut += len(blocks) > 1
    assert cut


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
    monkeypatch.setattr(ranker, "_BATCH_COLUMNS", 2)
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
    build, pagerank_batch = evaluation.FoldGraph.build, ranker.pagerank_batch

    def build_spy(*args):
        shared = build(*args)
        shared_of[shared.fold.k] = shared
        return shared

    def pagerank_spy(tm, *args, **kwargs):
        ranked_on.append(tm)
        return pagerank_batch(tm, *args, **kwargs)

    monkeypatch.setattr(evaluation.FoldGraph, "build", build_spy)
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
            f"{len(fold.truth)} evaluated users, {ranked} ranked, 0 lists recomputed"
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


def test_fold_of_slices_with_other_id_tables_is_rejected():
    stream = edge_case_stream()
    _, second, _ = iter_folds(stream, 4)
    other = LinkStream.from_events(second.test.events, second.test.time_span)
    fold = dataclasses.replace(second, test=other)
    with pytest.raises(ValueError, match="a fold's train and test slices must share id tables"):
        fold.new_keys


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


def name_loop_rows(fold, items):
    """The ranked users, seen and truth masks and I_new sizes of a fold
    from its id sets (:func:`plain_fold`): the loop over users that
    ``FoldGraph.build`` ran before it read the fold's keys."""
    train_items, new_items = plain_fold(fold)
    item_row = {item: r for r, item in enumerate(items)}
    users = [u for u in sorted(new_items) if any(i in item_row for i in new_items[u])]
    seen = np.zeros((len(users), len(items)), dtype=bool)
    truth = np.zeros_like(seen)
    for r, user in enumerate(users):
        seen[r, [item_row[i] for i in train_items[user]]] = True
        truth[r, [item_row[i] for i in new_items[user] if i in item_row]] = True
    unranked = sorted(new_items.keys() - set(users))
    return users, seen, truth, [len(new_items[user]) for user in users + unranked]


@given(
    st.integers(0, 10_000),
    st.integers(2, 6),
    st.sampled_from(FLAVOR_PARAMS),
)
@settings(max_examples=40, deadline=None)
def test_fold_rows_from_keys_match_the_name_loop(seed, n_windows, flavor_params):
    flavor, params = flavor_params
    stream = make_stream(seed, n_users=7, n_items=16, n_events=90)
    for fold in iter_folds(stream, n_windows):
        if not len(fold.new_keys):
            assert plain_fold(fold)[1] == {}
            continue
        shared = evaluation.FoldGraph.build(fold, flavor, params.delta, params.eta_s)
        users, seen, truth, new_counts = name_loop_rows(fold, shared.items)
        assert shared.users == users
        assert shared.new_counts.tolist() == new_counts
        for rows, mask in ((shared.seen, seen), (shared.truth, truth)):
            assert rows.shape == mask.shape and rows.dtype == bool
            assert np.array_equal(rows.toarray(), mask)
            assert rows.nnz == mask.sum()  # one stored entry per (user, item) pair


def test_protocol_and_search_render_no_fold_ids(monkeypatch):
    rendered, folds = [], []
    items_by_user, evaluate_fold = LinkStream.items_by_user, evaluation._evaluate_fold

    def items_spy(self):
        rendered.append(self)
        return items_by_user(self)

    def fold_spy(fold, *args):
        folds.append(fold)
        return evaluate_fold(fold, *args)

    monkeypatch.setattr(LinkStream, "items_by_user", items_spy)
    monkeypatch.setattr(evaluation, "_evaluate_fold", fold_spy)
    stream = make_stream(6, n_users=6, n_items=10, n_events=120, t_max=800)
    report = run_protocol(stream, "lsg", ParamSetting(alpha=0.3, n=3, eta_s=0.5), n_windows=4,
                          workers=1)
    grid = ParamGrid(delta=(100.0,), beta=(0.5,), eta_s=(0.0, 0.5), alpha=(0.3, 0.5))
    result = search(stream, "stg", grid=grid, count=4, seed=0, n=3, n_windows=4)
    assert not report.nothing_evaluated and result.entries and not result.failed
    assert rendered == []
    assert folds and all("new_keys" in vars(fold) for fold in folds)
    assert not any({"train_items", "truth"} & vars(fold).keys() for fold in folds)


def test_rank_users_names_a_seen_of_the_wrong_shape():
    stream = make_stream(4, n_users=6, n_items=10, n_events=80)
    fold = iter_folds(stream, 3)[-1]
    shared = evaluation.FoldGraph.build(fold, "bip", None, None)
    users, items = shared.seen.shape
    assert users and items > 1
    for seen in (shared.seen[:, 1:], shared.seen.toarray()[1:]):
        shape = seen.shape
        with pytest.raises(ValueError, match=fr"^seen must be users x items, {users} x "
                                             fr"{items}; got shape \({shape[0]}, {shape[1]}\)$"):
            ranker.rank_users(shared.tm, shared.A, shared.user_codes, None, None, [0.3], seen, 5)


def test_rank_users_narrows_blocks_to_the_iterate_budget(monkeypatch):
    # a block's dense iterate, nodes x columns of float64, stays within
    # _BLOCK_BYTES unless that is narrower than _MIN_COLUMNS; lists do
    # not depend on the width
    stream = make_stream(4, n_users=30, n_items=20, n_events=400)
    fold = iter_folds(stream, 3)[-1]
    shared = evaluation.FoldGraph.build(fold, "lsg", None, 0.5)
    t = fold.train.columns.t[-1].item()
    users, n = len(shared.user_codes), shared.tm.n
    widths = []
    personalization_matrix = ranker.personalization_matrix

    def spy(tm, vectors):
        D = personalization_matrix(tm, vectors)
        widths.append(D.shape[1])
        return D

    monkeypatch.setattr(ranker, "personalization_matrix", spy)

    def rank():
        widths.clear()
        tops, _ = ranker.rank_users(shared.tm, shared.A, shared.user_codes, t, None, [0.3],
                                    shared.seen, 5)
        return tops[0.3]

    expected = rank()
    assert widths == [users] and users > 6
    for budget, least, width in ((8 * n * 5 + 7, 2, 5), (8 * n, 3, 3)):
        monkeypatch.setattr(ranker, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(ranker, "_MIN_COLUMNS", least)
        assert np.array_equal(rank(), expected)
        assert widths == [min(width, users - s) for s in range(0, users, width)]


# --- costs bounded by the data, not by a flag value ---------------------------------


def test_unranked_users_take_no_memory_per_list_slot():
    # u2 and u3 are evaluated, but their new items first appear in the
    # test window, so they are not ranked; u1 is ranked
    stream = LinkStream.from_events([
        Event(0, "u1", "a"), Event(1, "u2", "b"), Event(2, "u3", "a"), Event(3, "u3", "b"),
        Event(5, "u1", "b"), Event(6, "u2", "c"), Event(7, "u3", "d"), Event(8, "u1", "e"),
    ])
    n = 10**6
    folds = iter_folds(stream, 2)
    tracemalloc.start()
    try:
        (report,) = evaluation.evaluate_settings(folds, "bip", [ParamSetting(alpha=0.3, n=n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # n list slots for each unranked user would take 8n bytes
    (window,) = report.windows
    assert window.users == 3
    assert window.f1 == (2.0, 3.0 * n + 4)
    assert window.hr == (1.0, 3.0) and window.map == (1.0, 3.0)


def test_folds_with_empty_test_windows_read_no_item_sets():
    stream = make_stream(3, n_users=5, n_items=8, n_events=30)
    folds = iter_folds(stream, 2000)
    (report,) = evaluation.evaluate_settings(folds, "bip", [ParamSetting(alpha=0.3, n=5)])
    # only a fold whose test window has events reads its training pairs
    assert ["train_keys" in vars(fold) for fold in folds] == [len(fold.test) > 0 for fold in folds]
    assert not report.nothing_evaluated


@pytest.mark.parametrize("workload", ["protocol-lsg", "campaign-lsg"])
def test_folds_pickle_their_stream_once(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import streams
    import workloads

    path = tmp_path / "stream.tsv"
    streams.write_tsv(streams.generate(1, workloads.WORKLOADS[workload].smoke_shape), path)
    stream = workloads.load(path, workloads.WORKLOADS[workload])
    folds = iter_folds(stream, workloads.WINDOWS)
    data = pickle.dumps(folds)
    # every training prefix and test window is a slice of the one stream
    assert len(data) <= 1.2 * len(pickle.dumps(stream))
    back = pickle.loads(data)
    assert back == folds
    assert [f.train.time_span for f in back] == [f.train.time_span for f in folds]
    assert [f.test.time_span for f in back] == [f.test.time_span for f in folds]


def test_f1_components_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="one hit count and one I_new size per user"):
        f1_components([1, 0], [2], 5)


# --- one power series for the alphas of a (beta, n) group ---------------------------


def series_off():
    """Patch the shared series out: every group ranks with the per-alpha walk."""
    return mock.patch.object(ranker, "series_scores", lambda *args: None)


def setting_reports(folds, flavor, settings):
    """Each setting's report, or the repr of the error that stopped it."""
    return [report_json(o) if isinstance(o, evaluation.EvaluationReport) else repr(o)
            for o in evaluation.evaluate_settings(folds, flavor, settings)]


def outputs(stream, flavor, settings, grid, n):
    """Every setting's report and the leaderboard of a search over ``grid``."""
    reports = setting_reports(iter_folds(stream, 4), flavor, settings)
    result = search(stream, flavor, grid=grid, count=grid.size(flavor), n=n, n_windows=4)
    return reports, leaderboard_csv(result)


def mirrored_bip_stream() -> LinkStream:
    """One fold in which r's walk reaches x and y alike: c picked x and
    y, p only x, q only y. Their scores tie exactly, but x's row of M
    holds p where y's holds q, so they are no twins and the tie cannot
    be certified."""
    train = [("c", "x"), ("c", "y"), ("p", "x"), ("q", "y"), ("r", "z"), ("c", "z"), ("s", "w")]
    events = [Event(t, user, item) for t, (user, item) in enumerate(train, start=1)]
    return LinkStream.from_events(events + [Event(150, "r", "w")], time_span=(0, 200))


@st.composite
def series_cases(draw):
    """A small stream and settings of several alphas per (beta, n)."""
    flavor = draw(st.sampled_from(["bip", "stg", "lsg"]))
    stream = make_stream(draw(st.integers(0, 10**6)), n_users=draw(st.integers(3, 12)),
                         n_items=draw(st.integers(3, 15)), n_events=draw(st.integers(20, 120)))
    alphas = draw(st.lists(st.sampled_from(GRID_ALPHA), min_size=2, max_size=7, unique=True))
    ns = draw(st.lists(st.sampled_from([1, 3, 10]), min_size=1, max_size=2, unique=True))
    betas = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=2, unique=True))
    if flavor != "stg":
        betas = [None]
    delta, eta_s = (100.0 if flavor == "stg" else None), (None if flavor == "bip" else 0.2)
    settings = [ParamSetting(alpha=a, n=n, delta=delta, beta=b, eta_s=eta_s)
                for b in betas for n in ns for a in alphas]
    grid = ParamGrid(delta=(100.0,), beta=tuple(b for b in betas if b is not None) or (0.5,),
                     eta_s=(0.2,), alpha=tuple(alphas))
    note(f"{flavor} {len(stream)} events, alphas {alphas}, n {ns}, beta {betas}")
    return flavor, stream, settings, grid, ns[0]


@given(series_cases())
@example(("bip", mirrored_bip_stream(), [ParamSetting(alpha=a, n=3) for a in GRID_ALPHA],
          ParamGrid(), 3))
@settings(max_examples=25, deadline=None)
def test_shared_series_leaves_reports_and_leaderboards_unchanged(case):
    flavor, stream, settings, grid, n = case
    ran = []
    series_scores = ranker.series_scores

    def counted(*args):
        ran.append(1)
        return series_scores(*args)

    with mock.patch.object(ranker, "series_scores", counted):
        shared = outputs(stream, flavor, settings, grid, n)
    note(f"series ran on {len(ran)} blocks")
    with series_off():
        assert outputs(stream, flavor, settings, grid, n) == shared
    # each setting's report is its report when evaluated alone
    folds = iter_folds(stream, 4)
    assert shared[0] == [r for s in settings for r in setting_reports(folds, flavor, [s])]


def test_bip_tie_without_twins_is_recomputed(caplog):
    settings = [ParamSetting(alpha=a, n=3) for a in GRID_ALPHA]
    folds = iter_folds(mirrored_bip_stream(), 2)
    with caplog.at_level(logging.DEBUG, logger="linkrec.evaluation"):
        shared = evaluation.evaluate_settings(folds, "bip", settings)
    (record,) = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert record.endswith(f"1 ranked, {len(GRID_ALPHA)} lists recomputed")
    with series_off():
        reference = evaluation.evaluate_settings(folds, "bip", settings)
    assert [report_json(o) for o in shared] == [report_json(o) for o in reference]


def test_group_series_runs_only_where_the_walks_take_twice_its_steps(monkeypatch):
    calls = []
    monkeypatch.setattr(ranker, "series_scores", lambda *args: calls.append(args[3]))
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    folds = iter_folds(stream, 4)
    run_protocol(stream, "lsg", ParamSetting(alpha=0.9, n=5, eta_s=0.2), n_windows=4, workers=1)
    # 20 + 35 steps against 35; one alpha per (beta, n)
    evaluation.evaluate_settings(folds, "lsg", [ParamSetting(alpha=a, n=5, eta_s=0.2)
                                                for a in (0.3, 0.5)])
    evaluation.evaluate_settings(folds, "lsg", [ParamSetting(alpha=a, n=n, eta_s=0.2)
                                                for a, n in ((0.3, 5), (0.5, 3))])
    assert calls == []
    # 8 + 11 + 13 steps against 13
    evaluation.evaluate_settings(folds, "lsg", [ParamSetting(alpha=a, n=5, eta_s=0.2)
                                                for a in (0.05, 0.1, 0.15)])
    assert calls and all(alphas == [0.05, 0.1, 0.15] for alphas in calls)


def faulty_graphs(monkeypatch, fault):
    """Patch build_graph so every fold graph has a dangling node (the
    first item node loses its out-edges) or one edge 1e-300 times as
    heavy as the others."""
    build_graph = evaluation.build_graph

    def hand_made(flavor, stream, delta=None, eta_s=None):
        g = build_graph(flavor, stream, delta=delta, eta_s=eta_s)
        keep = g.src != g.item_nodes()[0] if fault == "dangling" else np.ones(g.n_edges, bool)
        weight = g.weight.copy()
        if fault == "tiny weight":
            weight[0] = 1e-300
        return RecGraph.coded(flavor, g.kind, g.ident, g.time, g.src[keep], g.dst[keep],
                              weight[keep], g.users, g.items, g.delta, g.eta_s)

    monkeypatch.setattr(evaluation, "build_graph", hand_made)


@pytest.mark.parametrize("fault", ["dangling", "tiny weight"])
def test_dangling_or_tiny_weight_graph_takes_the_per_alpha_path(monkeypatch, fault):
    faulty_graphs(monkeypatch, fault)
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    settings = [ParamSetting(alpha=a, n=5, eta_s=0.2) for a in GRID_ALPHA]
    folds = iter_folds(stream, 4)
    declined, columns, walked = [], [], []
    series_scores, rank = ranker.series_scores, ranker.rank_items

    def series_spy(tm, A, D, alphas):
        declined.append(series_scores(tm, A, D, alphas) is None)
        columns.append(D.shape[1])
        return None

    def rank_spy(tm, A, D, alpha, seen, n):
        walked.extend(np.broadcast_to(alpha, D.shape[1:]).tolist())
        return rank(tm, A, D, alpha, seen, n)

    monkeypatch.setattr(ranker, "series_scores", series_spy)
    monkeypatch.setattr(ranker, "rank_items", rank_spy)
    outcomes = evaluation.evaluate_settings(folds, "lsg", settings)
    assert declined and all(declined)
    # every alpha walks every column of every block
    assert sorted(walked) == sorted(a for a in GRID_ALPHA for _ in range(sum(columns)))
    with series_off():
        reference = evaluation.evaluate_settings(folds, "lsg", settings)
    assert [report_json(o) for o in outcomes] == [report_json(o) for o in reference]


@pytest.mark.parametrize("fault", ["dangling", "tiny weight"])
def test_declined_blocks_count_as_recomputed_lists(monkeypatch, caplog, fault):
    faulty_graphs(monkeypatch, fault)
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    settings = [ParamSetting(alpha=a, n=5, eta_s=0.2) for a in GRID_ALPHA]
    with caplog.at_level(logging.DEBUG, logger="linkrec.evaluation"):
        evaluation.evaluate_settings(iter_folds(stream, 4), "lsg", settings)
    records = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert records
    for record in records:
        ranked = int(record.split(", ")[-2].split()[0])
        # every alpha walks every ranked user's list
        assert ranked and record.endswith(
            f"{ranked} ranked, {len(GRID_ALPHA) * ranked} lists recomputed")


def test_duplicate_settings_share_one_walk(monkeypatch):
    monkeypatch.setattr(ranker, "_BATCH_COLUMNS", 3)
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    folds = iter_folds(stream, 4)
    setting = ParamSetting(alpha=0.3, n=5, eta_s=0.2)
    ranked = sum(len(evaluation.FoldGraph.build(fold, "lsg", None, 0.2).users)
                 for fold in folds if fold.truth)
    blocks, walked = [], []
    block, rank = ranker.personalization_matrix, ranker.rank_items

    def block_spy(tm, vectors):
        D = block(tm, vectors)
        blocks.append(D.shape[1])
        return D

    def rank_spy(tm, A, D, alpha, seen, n):
        walked.append(D.shape[1])
        return rank(tm, A, D, alpha, seen, n)

    monkeypatch.setattr(ranker, "personalization_matrix", block_spy)
    monkeypatch.setattr(ranker, "rank_items", rank_spy)
    first, second = evaluation.evaluate_settings(folds, "lsg", [setting, setting])
    # each ranked user is in one block, and each block is walked once
    assert len(blocks) > len(folds) and sum(blocks) == ranked and walked == blocks
    assert report_json(first) == report_json(second)


def test_series_error_stops_every_setting_of_its_group_and_no_other(monkeypatch):
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    folds = iter_folds(stream, 4)
    settings = [ParamSetting(alpha=a, n=n, eta_s=0.2) for n in (5, 3) for a in GRID_ALPHA]
    settings.append(ParamSetting(alpha=0.3, n=7, eta_s=0.2))
    reference = [report_json(o) for o in evaluation.evaluate_settings(folds, "lsg", settings)]
    series_scores = ranker.series_scores
    calls = itertools.count()

    def failing(tm, A, D, alphas):
        if next(calls) == 0:  # the first group's first block
            raise BlockError("series failed")
        return series_scores(tm, A, D, alphas)

    monkeypatch.setattr(ranker, "series_scores", failing)
    outcomes = evaluation.evaluate_settings(folds, "lsg", settings)
    group = len(GRID_ALPHA)
    assert all(isinstance(o, BlockError) for o in outcomes[:group])
    assert [report_json(o) for o in outcomes[group:]] == reference[group:]


def test_selection_error_stops_only_its_alpha(monkeypatch):
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    folds = iter_folds(stream, 4)
    settings = [ParamSetting(alpha=a, n=5, eta_s=0.2) for a in GRID_ALPHA]
    reference = [report_json(o) for o in evaluation.evaluate_settings(folds, "lsg", settings)]
    certified_top_n = ranker.certified_top_n

    def failing(tm, A, S, alpha, seen, n):
        if alpha == 0.5:
            raise BlockError("selection failed")
        return certified_top_n(tm, A, S, alpha, seen, n)

    monkeypatch.setattr(ranker, "certified_top_n", failing)
    outcomes = evaluation.evaluate_settings(folds, "lsg", settings)
    bad = GRID_ALPHA.index(0.5)
    assert isinstance(outcomes[bad], BlockError)
    assert [report_json(o) for j, o in enumerate(outcomes) if j != bad] == [
        r for j, r in enumerate(reference) if j != bad
    ]


def test_recomputation_error_stops_only_its_alpha(monkeypatch):
    stream = make_stream(11, n_users=20, n_items=30, n_events=300)
    folds = iter_folds(stream, 4)
    settings = [ParamSetting(alpha=a, n=5, eta_s=0.2) for a in GRID_ALPHA]
    reference = [report_json(o) for o in evaluation.evaluate_settings(folds, "lsg", settings)]
    certified_top_n, pagerank_batch = ranker.certified_top_n, ranker.pagerank_batch
    walked = []

    def uncertified(tm, A, S, alpha, seen, n):
        top, certified = certified_top_n(tm, A, S, alpha, seen, n)
        return top, certified & (alpha != 0.5)

    def failing(tm, D, alpha, *args, **kwargs):
        walked.append(alpha)
        if alpha == 0.5:
            raise BlockError("recomputation failed")
        return pagerank_batch(tm, D, alpha, *args, **kwargs)

    monkeypatch.setattr(ranker, "certified_top_n", uncertified)
    monkeypatch.setattr(ranker, "pagerank_batch", failing)
    outcomes = evaluation.evaluate_settings(folds, "lsg", settings)
    bad = GRID_ALPHA.index(0.5)
    assert 0.5 in walked
    assert isinstance(outcomes[bad], BlockError)
    assert [report_json(o) for j, o in enumerate(outcomes) if j != bad] == [
        r for j, r in enumerate(reference) if j != bad
    ]
