"""The columnar link stream against the Event-based stream it replaced,
parse and filter errors, input decoding, and the rule that loading,
the protocol and the search never render the ``events`` view."""

import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from linkrec.cli import EXIT_OK, main
from linkrec.evaluation import run_protocol
from linkrec.linkstream import (
    Event,
    FilterConfig,
    LinkStream,
    ParseError,
    filter_min_activity,
    filter_positive,
    parse_link_stream,
    split_windows,
)
from linkrec.tuning import ParamGrid, ParamSetting, search

from conftest import make_stream

SRC = Path(__file__).resolve().parent.parent / "src"

# --- reference: the Event-based stream and filters -------------------------------
#
# As they were before the stream became columns, with one change: events
# sort by (t, user, item) and then rating, unrated first, instead of in
# hash order among rating ties.


@dataclass(frozen=True)
class RefStream:
    events: tuple
    time_span: tuple
    users: frozenset
    items: frozenset


def ref_key(ev):
    return (ev.t, ev.user, ev.item, ev.rating is not None, ev.rating or 0.0)


def ref_from_events(events, time_span=None):
    ordered = sorted(set(events), key=ref_key)
    if not ordered and time_span is None:
        raise ValueError("empty stream")
    for ev in ordered:
        if not ev.user or not ev.item:
            raise ValueError(f"event at t={ev.t} has an empty identifier")
    if time_span is None:
        time_span = (float(ordered[0].t), float(ordered[-1].t))
    alpha, omega = time_span
    if ordered and (alpha > ordered[0].t or omega < ordered[-1].t):
        raise ValueError(
            f"time span [{alpha}, {omega}] does not cover events "
            f"[{ordered[0].t}, {ordered[-1].t}]"
        )
    return RefStream(
        events=tuple(ordered),
        time_span=(float(alpha), float(omega)),
        users=frozenset(ev.user for ev in ordered),
        items=frozenset(ev.item for ev in ordered),
    )


def ref_filter_positive(stream, rating_floor=2.5):
    totals, counts = {}, {}
    for ev in stream.events:
        if ev.rating is None:
            raise ValueError("rating required for positive filtering")
        totals[ev.user] = totals.get(ev.user, 0.0) + ev.rating
        counts[ev.user] = counts.get(ev.user, 0) + 1
    means = {u: totals[u] / counts[u] for u in totals}
    kept = [
        ev for ev in stream.events
        if ev.rating >= rating_floor and ev.rating >= means[ev.user]
    ]
    return ref_from_events(kept, time_span=stream.time_span)


def ref_filter_min_activity(stream, cfg):
    events = list(stream.events)
    while events:
        user_counts, item_counts = {}, {}
        for ev in events:
            user_counts[ev.user] = user_counts.get(ev.user, 0) + 1
            item_counts[ev.item] = item_counts.get(ev.item, 0) + 1
        bad_users = {u for u, c in user_counts.items() if c < cfg.sigma_u}
        bad_items = {i for i, c in item_counts.items() if c < cfg.sigma_i}
        if not bad_users and not bad_items:
            break
        events = [ev for ev in events if ev.user not in bad_users and ev.item not in bad_items]
    return ref_from_events(events, time_span=stream.time_span)


def assert_same_stream(stream, ref):
    """Events, id sets, time span and columns agree bit for bit."""
    assert repr(stream.events) == repr(ref.events)
    assert stream.users == ref.users and stream.items == ref.items
    assert stream.time_span == ref.time_span
    cols = stream.columns
    users, items = tuple(sorted(ref.users)), tuple(sorted(ref.items))
    assert (cols.users, cols.items) == (users, items)
    user_code = {u: c for c, u in enumerate(users)}
    item_code = {i: c for c, i in enumerate(items)}
    expected = {
        "t": np.array([ev.t for ev in ref.events]) if ref.events else np.zeros(0, np.int64),
        "user_code": np.array([user_code[ev.user] for ev in ref.events], dtype=np.int64),
        "item_code": np.array([item_code[ev.item] for ev in ref.events], dtype=np.int64),
        "rating": np.array(
            [np.nan if ev.rating is None else ev.rating for ev in ref.events], dtype=float
        ),
    }
    for name, want in expected.items():
        got = getattr(cols, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def random_events(rng, n, rated, ties):
    """``n`` events over few ids and times, so duplicates and ties occur;
    ratings are None, or drawn from a small set when ``rated``."""
    events = []
    for _ in range(n):
        rating = None
        if rated is True or (rated == "mixed" and rng.random() < 0.5):
            rating = rng.choice((0.0, -0.0, 1.0, 2.5, 3.1, 3.3, 3.5, 4.0, 5.0))
        ev = Event(
            t=1_000_000 + rng.randrange(40) * 3600,
            user=f"u{rng.randrange(9)}",
            item=f"i{rng.randrange(12)}",
            rating=rating,
        )
        events.append(ev)
        if ties and rng.random() < 0.2:
            events.append(ev)  # an exact duplicate
    rng.shuffle(events)
    return events


def write(events, layout, rng, fmt):
    """The events as TSV/CSV text in one of the layouts parse accepts."""
    sep = "\t" if fmt == "tsv" else ","

    def when(t):
        if rng.random() < 0.5:
            return str(t)
        return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")

    def rating(ev):
        return "" if ev.rating is None else repr(ev.rating)

    if layout == "positional":
        rows = [[ev.user, ev.item, when(ev.t), rating(ev)] for ev in events]
        return "\n".join(sep.join(r) for r in rows) + "\n", None
    if layout == "header":
        rows = [["rating", "ts", "item", "user"]]
        rows += [[rating(ev), when(ev.t), ev.item, ev.user] for ev in events]
        return "\n".join(sep.join(r) for r in rows) + "\n", None
    rows = [["x", ev.item, when(ev.t), ev.user, rating(ev)] for ev in events]
    return "\n".join(sep.join(r) for r in rows) + "\n", ["-", "item", "time", "user", "r"]


@pytest.mark.parametrize("seed", range(24))
def test_parse_and_filters_match_the_event_reference(seed):
    rng = random.Random(seed)
    rated = (True, False, "mixed")[seed % 3]
    events = random_events(rng, rng.randrange(1, 120), rated, ties=seed % 2 == 0)
    layout = ("positional", "header", "columns")[seed // 3 % 3]
    fmt = ("tsv", "csv")[seed // 9 % 2]
    text, columns = write(events, layout, rng, fmt)
    stream = parse_link_stream(io.StringIO(text), fmt=fmt, columns=columns)
    ref = ref_from_events(events)
    assert_same_stream(stream, ref)
    assert_same_stream(LinkStream.from_events(events), ref)
    if rated is True:
        floor = rng.choice((0.0, 2.5, 3.3, 4.5))
        stream, ref = filter_positive(stream, floor), ref_filter_positive(ref, floor)
        assert_same_stream(stream, ref)
    for sigma_u, sigma_i in ((0, 0), (1, 1), (2, 3), (3, 2), (5, 5)):
        cfg = FilterConfig(sigma_u=sigma_u, sigma_i=sigma_i)
        assert_same_stream(filter_min_activity(stream, cfg), ref_filter_min_activity(ref, cfg))


def test_user_means_sum_in_event_order():
    # 0.6 + 5.0 + 2.8 summed in this order gives a mean just below 2.8;
    # summed backwards, just above it, and the 2.8 would be dropped.
    events = [Event(1, "u", "a", 0.6), Event(2, "u", "b", 5.0), Event(3, "u", "c", 2.8)]
    out = filter_positive(LinkStream.from_events(events), 2.5)
    assert [ev.rating for ev in out.events] == [5.0, 2.8]
    assert_same_stream(out, ref_filter_positive(ref_from_events(events), 2.5))


def test_filters_that_empty_the_stream_match_the_reference():
    events = [Event(1, "u", "i", 2.0), Event(2, "v", "i", 1.0), Event(3, "v", "j", 1.0)]
    stream, ref = LinkStream.from_events(events), ref_from_events(events)
    empty = filter_positive(stream, 2.5)
    assert len(empty) == 0
    assert_same_stream(empty, ref_filter_positive(ref, 2.5))
    cfg = FilterConfig(sigma_u=4, sigma_i=1)
    assert_same_stream(filter_min_activity(stream, cfg), ref_filter_min_activity(ref, cfg))
    assert_same_stream(
        filter_min_activity(empty, cfg), ref_filter_min_activity(ref_filter_positive(ref, 2.5), cfg)
    )


@pytest.mark.parametrize("seed", range(6))
def test_windows_and_slices_match_the_reference(seed):
    stream = make_stream(seed, n_users=7, n_items=9, n_events=150, with_ratings=True)
    ref = ref_from_events(stream.events)
    assert_same_stream(stream, ref)
    cfg = FilterConfig(sigma_u=3, sigma_i=3)
    active = filter_min_activity(filter_positive(stream), cfg)
    assert_same_stream(active, ref_filter_min_activity(ref_filter_positive(ref), cfg))
    lo, hi = len(active) // 3, 2 * len(active) // 3
    part = active.slice(lo, hi, active.time_span)
    assert part.events == active.events[lo:hi]
    assert part.columns.users == active.columns.users  # tables are shared
    assert part == LinkStream.from_events(active.events[lo:hi], active.time_span)
    pairs = {(ev.user, ev.item) for ev in part.events}
    users, items = part.columns.users, part.columns.items
    keys = part.pair_keys().tolist()
    assert {(users[k // len(items)], items[k % len(items)]) for k in keys} == pairs
    assert len(keys) == len(pairs)  # what `linkrec inspect` counts
    by_user = {}
    for ev in part.events:
        by_user.setdefault(ev.user, set()).add(ev.item)
    assert part.items_by_user() == by_user
    assert part.users == {ev.user for ev in part.events}


def test_split_windows_keeps_integer_arithmetic_on_int64_columns():
    # 3 * (2**53 + 1) lies just below omega = 3 * 2**53 + 4, but rounds up
    # to it in float64, which would push that event into the second window.
    omega = 3 * 2**53 + 4
    stream = LinkStream.from_events(
        [Event(0, "u", "i"), Event(2**53 + 1, "u", "j"), Event(omega, "u", "k")]
    )
    windows = split_windows(stream, 3)
    assert [[ev.t for ev in sub.events] for _, sub in windows] == [[0, 2**53 + 1], [], [omega]]


# An epoch in nanoseconds. It is a multiple of 256, the float64 spacing
# at that size, so NS + 255 rounds up and NS + 256 * k + 1 rounds down.
NS = 1_700_000_000_000_000_000


def test_integer_span_past_2_53_stays_exact():
    # 2**54 + 2 rounds down to 2**54 in float64
    ts = [0, 2**53, 2**54 + 2]
    stream = LinkStream.from_events(Event(t, "u", f"i{k}") for k, t in enumerate(ts))
    assert stream.time_span == (0, 2**54 + 2)
    assert [ev.t for ev in stream.events] == ts


def test_nanosecond_tsv_loads():
    ts = [NS + 255 + 1_000_000_007 * k for k in range(24)]
    text = "".join(f"u{k % 3}\ti{k % 4}\t{t}\n" for k, t in enumerate(ts))
    stream = parse_link_stream(io.StringIO(text))
    assert float(ts[0]) > ts[0]
    assert stream.time_span == (ts[0], ts[-1])
    assert [ev.t for ev in stream.events] == ts


@pytest.mark.parametrize("flavor", ["bip", "stg", "lsg"])
def test_run_protocol_on_nanosecond_stream_with_inexact_ends(flavor):
    first, last = NS + 255, NS + 256 * 10**9 + 1
    assert float(first) > first and float(last) < last
    rng = random.Random(5)
    events = [Event(first, "u0", "i0"), Event(last, "u1", "i1")] + [
        Event(rng.randrange(first, last), f"u{rng.randrange(6)}", f"i{rng.randrange(10)}")
        for _ in range(200)
    ]
    stream = LinkStream.from_events(events)
    assert stream.time_span == (first, last)
    params = ParamSetting(alpha=0.3, n=3, delta=32e9, beta=0.5, eta_s=0.5)
    report = run_protocol(stream, flavor, params, n_windows=4)
    assert not report.nothing_evaluated and report.all_converged


def test_lsg_protocol_on_fold_whose_float_rec_time_rounds_below_training():
    alpha, span = 1600257564042624565, 4408481350015891
    late = 1600808624211376551  # u2's training event, the last of window 1
    events = [
        Event(alpha, "u1", "i1"),
        Event(late, "u2", "i2"),
        Event(alpha + span * 3 // 16, "u2", "i1"),  # window 2: new to u2, in the graph
        Event(alpha + span, "u1", "i2"),
    ]
    stream = LinkStream.from_events(events)
    windows = split_windows(stream, 8)
    assert [len(sub) for _, sub in windows[:2]] == [2, 1]
    assert windows[0][0].end > late  # the exact edge lies after the event
    params = ParamSetting(alpha=0.3, n=3, eta_s=0.5)
    lsg = run_protocol(stream, "lsg", params, n_windows=8)
    bip = run_protocol(stream, "bip", params, n_windows=8)
    assert lsg.windows[0].users == bip.windows[0].users == 1
    assert lsg.windows[0].hr == bip.windows[0].hr == (1.0, 1.0)


def test_stream_equality_compares_events_and_span():
    events = [Event(1, "u", "i", 4.0), Event(2, "u", "j")]
    a = LinkStream.from_events(events)
    assert a == LinkStream.from_events(reversed(events))
    assert hash(a) == hash(LinkStream.from_events(events))
    assert a != LinkStream.from_events(events, time_span=(0, 2))
    assert a != LinkStream.from_events([Event(1, "u", "i", 3.0), Event(2, "u", "j")])


# --- event order does not depend on hashing --------------------------------------

_TIES = """
import io
from linkrec.linkstream import filter_positive, parse_link_stream
text = "u1\\ti1\\t100\\t3.1\\nu1\\ti1\\t100\\t3.3\\nu1\\ti1\\t100\\t3.5\\nu2\\ti2\\t50\\t4\\n"
stream = filter_positive(parse_link_stream(io.StringIO(text)), 2.5)
print(stream.events)
"""


def test_rating_ties_keep_one_order_under_every_hash_seed():
    outputs = set()
    for hash_seed in range(1, 9):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", _TIES], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1
    # u1's mean, summed 3.1 + 3.3 + 3.5 in rating order, lands just above 3.3
    assert [ev.rating for ev in eval(outputs.pop(), {"Event": Event})] == [4.0, 3.5]


def test_unrated_events_sort_before_rated_ties():
    stream = LinkStream.from_events(
        [Event(1, "u", "i", 2.0), Event(1, "u", "i"), Event(1, "u", "i", 0.0)]
    )
    assert [ev.rating for ev in stream.events] == [None, 0.0, 2.0]


# --- errors and decoding ------------------------------------------------------------


@pytest.mark.parametrize(
    "text, kwargs, error, message",
    [
        ("u1\ti1\t100\nu2\ti2\tnot-a-time\n", {}, ParseError,
         "line 2: unparseable timestamp 'not-a-time'"),
        ("u\ti\t1\t7.5\n", {}, ParseError, "line 1: rating 7.5 outside [0, 5]"),
        ("u\ti\t1\tx\n", {}, ParseError, "line 1: unparseable rating 'x'"),
        ("u\ti\t1\tnan\n", {}, ParseError, "line 1: rating nan outside [0, 5]"),
        ("u\t\t1\n", {}, ParseError, "line 1: record needs user, item and timestamp fields"),
        ("\n\t \nu\ti\n", {}, ParseError, "line 3: record needs user, item and timestamp fields"),
        ("u\ti\t2007-13-01\n", {}, ParseError, "line 1: unparseable timestamp '2007-13-01'"),
        ("", {}, ValueError, "empty stream"),
        ("user\titem\ttimestamp\n", {}, ValueError, "empty stream"),
        ("a,b\n", {"fmt": "csv", "columns": ["user", "item"]}, ValueError,
         "no column mapped to 'timestamp'"),
        ("a,b,c\n", {"fmt": "csv", "columns": ["user", "item", "when"]}, ValueError,
         "unknown column name 'when'"),
        ("a\tb\t1\n", {"fmt": "json"}, ValueError,
         "unknown format 'json' (expected 'tsv' or 'csv')"),
        ("u\ti\t5\n", {"time_span": (10, 20)}, ValueError,
         "time span [10, 20] does not cover events [5, 5]"),
        ("u\ti\t99999999999999999999999\n", {}, ValueError,
         "timestamps must be 64-bit integers or floats"),
    ],
)
def test_parse_errors_keep_type_message_and_line(text, kwargs, error, message):
    with pytest.raises(error) as info:
        parse_link_stream(io.StringIO(text), **kwargs)
    assert type(info.value) is error
    assert str(info.value) == message


def test_from_events_errors():
    with pytest.raises(ValueError, match="^event at t=2 has an empty identifier$"):
        LinkStream.from_events([Event(3, "u", ""), Event(2, "", "i")])
    with pytest.raises(ValueError, match="^empty stream$"):
        LinkStream.from_events([])
    with pytest.raises(ValueError, match="^rating required for positive filtering$"):
        filter_positive(LinkStream.from_events([Event(1, "u", "i", 3.0), Event(2, "u", "j")]))


@pytest.mark.parametrize("fmt", ["tsv", "csv"])
@pytest.mark.parametrize("header", [True, False])
def test_byte_order_mark_is_ignored(fmt, header, tmp_path):
    sep = "\t" if fmt == "tsv" else ","
    rows = [["u1", "i1", "100", "4"], ["u2", "i2", "200", "5"]]
    if header:
        rows.insert(0, ["user", "item", "timestamp", "rating"])
    text = "\n".join(sep.join(r) for r in rows) + "\n"
    expected = parse_link_stream(io.StringIO(text), fmt=fmt)
    assert [(ev.user, ev.rating) for ev in expected.events] == [("u1", 4.0), ("u2", 5.0)]
    path = tmp_path / f"events.{fmt}"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for source in (path, str(path), path.read_bytes(), io.BytesIO(path.read_bytes()),
                   io.StringIO("\ufeff" + text)):
        assert parse_link_stream(source, fmt=fmt) == expected


# --- loading, the protocol and the search never render events ---------------------


@pytest.mark.parametrize("flavor", ["bip", "stg", "lsg"])
def test_load_protocol_and_search_render_no_events(flavor, monkeypatch):
    rng = random.Random(7)
    lines = [
        f"u{rng.randrange(6)}\ti{rng.randrange(10)}\t{rng.randrange(800)}\t{rng.randint(1, 5)}"
        for _ in range(400)
    ]
    text = "\n".join(lines) + "\n"

    def refuse(self):
        raise AssertionError("events rendered")

    monkeypatch.setattr(LinkStream, "events", property(refuse))
    stream = filter_positive(parse_link_stream(io.StringIO(text)), 2.5)
    stream = filter_min_activity(stream, FilterConfig(sigma_u=2, sigma_i=2))
    params = ParamSetting(alpha=0.3, n=3, delta=100.0, beta=0.5, eta_s=0.5)
    report = run_protocol(stream, flavor, params, n_windows=4)
    assert not report.nothing_evaluated
    grid = ParamGrid(delta=(100.0,), beta=(0.5,), eta_s=(0.5,), alpha=(0.3, 0.5))
    result = search(stream, flavor, grid=grid, count=2, seed=0, n=3, n_windows=4)
    assert len(result.entries) == 2 and not result.failed
    with pytest.raises(AssertionError, match="rendered"):
        stream.events


def test_inspect_renders_no_events(monkeypatch, tmp_path, capsys):
    def refuse(self):
        raise AssertionError("events rendered")

    monkeypatch.setattr(LinkStream, "events", property(refuse))
    path = tmp_path / "events.tsv"
    path.write_text("".join(f"u{k % 3}\ti{k % 5}\t{10 * k}\n" for k in range(30)))
    assert main(["inspect", "--input", str(path), "--delta", "50"]) == EXIT_OK
    assert "events (links):     30" in capsys.readouterr().out
