import io
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkrec.linkstream import (
    Event,
    FilterConfig,
    LinkStream,
    ParseError,
    _compact,
    _packed_order,
    filter_min_activity,
    filter_positive,
    parse_link_stream,
    split_windows,
    window_index,
)

from conftest import make_stream

# --- parsing ----------------------------------------------------------------


def test_parse_three_tsv_lines():
    text = "u1\ti1\t100\nu2\ti2\t200\nu1\ti2\t300\n"
    stream = parse_link_stream(io.StringIO(text))
    assert len(stream) == 3
    assert stream.users == {"u1", "u2"}
    assert stream.items == {"i1", "i2"}
    assert stream.time_span == (100.0, 300.0)


def test_parse_csv_with_header_and_ratings():
    text = "user,item,timestamp,rating\na,x,10,4.5\nb,y,20,1\n"
    stream = parse_link_stream(io.StringIO(text), fmt="csv")
    assert [ev.rating for ev in stream.events] == [4.5, 1.0]


def test_parse_header_reorders_columns():
    text = "timestamp\tuser\titem\n5\tu\ti\n"
    stream = parse_link_stream(io.StringIO(text))
    assert stream.events[0] == Event(5, "u", "i")


@pytest.mark.parametrize("header", ["user,item,timestamp,user", "u,item,t,user_id"])
def test_parse_header_naming_a_field_twice_names_its_line(header):
    text = f"\n{header}\na,x,10,b\n"
    with pytest.raises(ParseError, match="line 2: field 'user' named twice"):
        parse_link_stream(io.StringIO(text), fmt="csv")


def test_parse_explicit_column_mapping_with_skip():
    text = "x,10,u,i\ny,20,v,j\n"
    stream = parse_link_stream(
        io.StringIO(text), fmt="csv", columns=["-", "timestamp", "user", "item"]
    )
    assert stream.events[0] == Event(10, "u", "i")
    assert stream.users == {"u", "v"}


def test_parse_iso_dates_map_to_midnight_utc():
    text = "u\ti\t2007-01-01\n"
    stream = parse_link_stream(io.StringIO(text))
    assert stream.events[0].t == 1167609600  # 2007-01-01T00:00:00Z


def test_parse_sub_second_iso_times_round_down():
    text = "u\ti\t1969-12-31T23:59:59.5Z\nu\tj\t1970-01-01T00:00:00.5Z\n"
    stream = parse_link_stream(io.StringIO(text))
    assert [ev.t for ev in stream.events] == [-1, 0]


def test_parse_bad_timestamp_names_line():
    text = "u1\ti1\t100\nu2\ti2\tnot-a-time\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_link_stream(io.StringIO(text))


def test_parse_quoted_csv_field_keeps_its_line_break():
    stream = parse_link_stream(io.StringIO('a,"x\ny",1\n'), fmt="csv")
    assert stream.events == (Event(1, "a", "x\ny"),)


def test_parse_error_after_a_multiline_record_names_the_physical_line():
    with pytest.raises(ParseError, match=r"^line 3: unparseable timestamp 'zz'"):
        parse_link_stream(io.StringIO('a,"x\ny",1\nb,c,zz\n'), fmt="csv")


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1e"])
def test_parse_splits_records_only_at_cr_and_lf(separator):
    text = f"a{separator}b\tx\t1\r\nc\ty\t2\rd\tz\t3"
    stream = parse_link_stream(io.StringIO(text))
    assert [(ev.user, ev.item, ev.t) for ev in stream.events] == [
        (f"a{separator}b", "x", 1), ("c", "y", 2), ("d", "z", 3)
    ]


@pytest.mark.parametrize("fmt", ["tsv", "csv"])
def test_parse_oversized_field_names_line(fmt):
    sep = "\t" if fmt == "tsv" else ","
    text = sep.join(["u1", "i1", "100"]) + "\n" + sep.join(["u" + "x" * 140_000, "i1", "5"])
    with pytest.raises(ParseError, match=r"^line 2: field larger than field limit"):
        parse_link_stream(io.StringIO(text), fmt=fmt)


def test_parse_rating_out_of_range_rejected():
    with pytest.raises(ParseError, match="line 1"):
        parse_link_stream(io.StringIO("u\ti\t1\t7.5\n"))


def test_parse_empty_input():
    with pytest.raises(ValueError, match="empty stream"):
        parse_link_stream(io.StringIO(""))


def test_parse_sorts_out_of_order_records():
    text = "u\ti2\t300\nu\ti1\t100\nu\ti3\t200\n"
    stream = parse_link_stream(io.StringIO(text))
    assert [ev.t for ev in stream.events] == [100, 200, 300]


def test_parse_tie_order_is_lexicographic():
    text = "b\tx\t5\na\ty\t5\na\tx\t5\n"
    stream = parse_link_stream(io.StringIO(text))
    assert [(ev.user, ev.item) for ev in stream.events] == [
        ("a", "x"),
        ("a", "y"),
        ("b", "x"),
    ]


def test_exact_duplicates_collapse():
    stream = LinkStream.from_events([Event(1, "u", "i"), Event(1, "u", "i")])
    assert len(stream) == 1


def test_time_span_override():
    stream = parse_link_stream(io.StringIO("u\ti\t50\n"), time_span=(0, 100))
    assert stream.time_span == (0.0, 100.0)


def test_time_span_must_cover_events():
    with pytest.raises(ValueError, match="does not cover"):
        LinkStream.from_events([Event(5, "u", "i")], time_span=(10, 20))


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_event_time_rejected(t):
    with pytest.raises(ValueError, match=f"event time {t} is not finite"):
        LinkStream.from_events([Event(1.0, "u", "i"), Event(t, "v", "j")])


@pytest.mark.parametrize("times,inexact", [
    ([2**53 + 1, 0.5], 2**53 + 1),
    ([-1, 2**63 + 1], 2**63 + 1),
    ([0.5, 2**60 + 1, 2**60], 2**60 + 1),
], ids=["past-2**53", "past-int64", "among-exact"])
def test_integer_time_that_float64_would_round_rejected(times, inexact):
    # a float among the times makes the column float64; rounding would move the event
    events = [Event(t, "u", f"i{k}") for k, t in enumerate(times)]
    with pytest.raises(ValueError, match=f"^event time {inexact} has no exact float64 value$"):
        LinkStream.from_events(events)
    # one unit earlier the time is exact in float64, and the stream keeps it
    exact = [t - 1 if t == inexact else t for t in times]
    stream = LinkStream.from_events([Event(t, "u", f"i{k}") for k, t in enumerate(exact)])
    assert sorted(ev.t for ev in stream.events) == sorted(exact)


@pytest.mark.parametrize(
    "span", [(0, float("inf")), (float("-inf"), 10), (float("nan"), 10), (0, float("nan"))]
)
@pytest.mark.parametrize("events", [[Event(5, "u", "i")], []], ids=["events", "empty"])
def test_non_finite_time_span_rejected(span, events):
    with pytest.raises(ValueError, match="has a non-finite end"):
        LinkStream.from_events(events, time_span=span)


def test_parse_rejects_non_finite_time_span():
    with pytest.raises(ValueError, match="has a non-finite end"):
        parse_link_stream(io.StringIO("u\ti\t50\n"), time_span=(0, float("inf")))


@pytest.mark.parametrize("span", [(0, 10**400), (-(10**400), 10), (0, "10")])
def test_time_span_ends_must_be_64_bit_integers_or_floats(span):
    # the rule of event times: an end past the float range is not one
    with pytest.raises(ValueError, match="^time span ends must be 64-bit integers or floats$"):
        LinkStream.from_events([Event(5, "u", "i")], time_span=span)


def test_time_span_may_end_at_an_exact_window_edge():
    stream = LinkStream.from_events([Event(0, "u", "i"), Event(10, "u", "j")])
    window, sub = split_windows(stream, 3)[0]
    assert window.end == Fraction(10, 3)
    assert LinkStream.from_events(sub.events, (window.start, window.end)) == sub


# --- positive-rating filter ---------------------------------------------------


def _rated(ratings, user="u"):
    return LinkStream.from_events(
        Event(t, user, f"i{t}", rating=r) for t, r in enumerate(ratings, start=1)
    )


def test_filter_positive_keeps_above_floor_and_user_mean():
    # ratings [5, 1, 3], mean 3: keep 5 and 3, drop 1
    out = filter_positive(_rated([5, 1, 3]), rating_floor=2.5)
    assert [ev.rating for ev in out.events] == [5.0, 3.0]


def test_filter_positive_all_fives_unchanged():
    stream = _rated([5, 5, 5])
    assert filter_positive(stream).events == stream.events


def test_filter_positive_drops_single_low_rating_user():
    # one event rated 2: mean 2 but below the 2.5 floor
    out = filter_positive(_rated([2]), rating_floor=2.5)
    assert len(out) == 0
    assert out.users == frozenset()


def test_filter_positive_requires_ratings():
    stream = LinkStream.from_events([Event(1, "u", "i")])
    with pytest.raises(ValueError, match="rating required"):
        filter_positive(stream)


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), -float("inf")])
def test_filter_positive_rejects_non_finite_floor(floor):
    with pytest.raises(ValueError, match="rating_floor must be finite"):
        filter_positive(_rated([5, 1, 3]), rating_floor=floor)


def test_filter_positive_mean_is_per_user():
    events = [
        Event(1, "a", "x", rating=5.0),
        Event(2, "a", "y", rating=3.0),  # mean(a) = 4 -> dropped
        Event(3, "b", "x", rating=3.0),  # mean(b) = 3 -> kept
    ]
    out = filter_positive(LinkStream.from_events(events))
    assert [(ev.user, ev.rating) for ev in out.events] == [("a", 5.0), ("b", 3.0)]


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12))
def test_filter_positive_never_adds_or_alters_events(ratings):
    stream = _rated(ratings)
    out = filter_positive(stream)
    assert len(out) <= len(stream)
    assert set(out.events) <= set(stream.events)


# --- minimum-activity filter --------------------------------------------------


def test_filter_min_activity_thresholds_of_one_are_noop(toy_stream):
    out = filter_min_activity(toy_stream, FilterConfig(sigma_u=1, sigma_i=1))
    assert out.events == toy_stream.events


def test_filter_min_activity_toy_stream_sigma_u_3(toy_stream):
    # u1 and u2 both have 4 events, so nothing is removed
    out = filter_min_activity(toy_stream, FilterConfig(sigma_u=3, sigma_i=1))
    assert out.events == toy_stream.events


def test_filter_min_activity_cascades():
    # B is under-active; dropping B's event starves item x, whose removal
    # still leaves A with its two y-events.
    events = [
        Event(1, "A", "x"),
        Event(2, "A", "y"),
        Event(3, "A", "y"),
        Event(4, "B", "x"),
    ]
    out = filter_min_activity(
        LinkStream.from_events(events), FilterConfig(sigma_u=2, sigma_i=2)
    )
    assert set(out.events) == {Event(2, "A", "y"), Event(3, "A", "y")}


def test_filter_min_activity_can_empty_the_stream():
    stream = LinkStream.from_events([Event(1, "u", "i")])
    out = filter_min_activity(stream, FilterConfig(sigma_u=5, sigma_i=5))
    assert len(out) == 0
    assert out.time_span == stream.time_span


@pytest.mark.parametrize("seed", range(8))
def test_filter_min_activity_soundness_and_idempotence(seed):
    stream = make_stream(seed, n_users=6, n_items=6, n_events=25)
    cfg = FilterConfig(sigma_u=3, sigma_i=2)
    once = filter_min_activity(stream, cfg)
    user_counts: dict[str, int] = {}
    item_counts: dict[str, int] = {}
    for ev in once.events:
        user_counts[ev.user] = user_counts.get(ev.user, 0) + 1
        item_counts[ev.item] = item_counts.get(ev.item, 0) + 1
    assert all(c >= cfg.sigma_u for c in user_counts.values())
    assert all(c >= cfg.sigma_i for c in item_counts.values())
    twice = filter_min_activity(once, cfg)
    assert twice.events == once.events


def test_filter_config_rejects_negative_thresholds():
    with pytest.raises(ValueError):
        FilterConfig(sigma_u=-1)


@pytest.mark.parametrize("value", [float("nan"), 1.5, 2.0, True], ids=["nan", "1.5", "2.0", "bool"])
def test_filter_config_rejects_non_integer_thresholds(value):
    with pytest.raises(ValueError, match="sigma_u must be an integer"):
        FilterConfig(sigma_u=value)
    with pytest.raises(ValueError, match="sigma_i must be an integer"):
        FilterConfig(sigma_i=value)


# --- windows ------------------------------------------------------------------


def test_split_windows_equal_partition():
    stream = LinkStream.from_events(
        [Event(0, "u", "i"), Event(79, "u", "j")], time_span=(0, 80)
    )
    windows = [w for w, _ in split_windows(stream, 8)]
    assert [(w.start, w.end) for w in windows] == [
        (0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0),
        (40.0, 50.0), (50.0, 60.0), (60.0, 70.0), (70.0, 80.0),
    ]


def test_split_windows_boundary_event_goes_right():
    stream = LinkStream.from_events(
        [Event(10, "u", "i")], time_span=(0, 20)
    )
    splits = split_windows(stream, 2)
    assert len(splits[0][1]) == 0
    assert len(splits[1][1]) == 1


def test_split_windows_last_window_closed_at_omega():
    stream = LinkStream.from_events([Event(0, "u", "i"), Event(20, "u", "j")])
    splits = split_windows(stream, 2)
    assert [ev.t for ev in splits[1][1].events] == [20]


def test_split_windows_toy_stream_two_halves(toy_stream):
    splits = split_windows(toy_stream, 2)
    first, second = splits[0][1], splits[1][1]
    assert [ev.t for ev in first.events] == [1, 1, 2, 2, 3]
    assert [ev.t for ev in second.events] == [4, 5, 6]
    assert set(first.events) | set(second.events) == set(toy_stream.events)


def test_split_windows_toy_stream_with_padded_span():
    # observation interval widened slightly beyond the event range
    from conftest import TOY_EVENTS

    stream = LinkStream.from_events(TOY_EVENTS, time_span=(0.5, 6.5))
    splits = split_windows(stream, 2)
    assert [ev.t for ev in splits[0][1].events] == [1, 1, 2, 2, 3]
    assert [ev.t for ev in splits[1][1].events] == [4, 5, 6]
    assert len(splits[0][1]) + len(splits[1][1]) == 8


def test_split_windows_requires_two():
    stream = LinkStream.from_events([Event(0, "u", "i"), Event(9, "u", "j")])
    with pytest.raises(ValueError, match="at least two windows"):
        split_windows(stream, 1)


def test_split_windows_requires_positive_duration():
    stream = LinkStream.from_events([Event(5, "u", "i")])
    with pytest.raises(ValueError, match="positive duration"):
        split_windows(stream, 2)


def test_window_index_exact_on_fractional_widths():
    # span 0..10 in 3 windows: boundaries at 10/3 and 20/3
    assert window_index(3, 0, 10, 3) == 1
    assert window_index(4, 0, 10, 3) == 2
    assert window_index(6, 0, 10, 3) == 2
    assert window_index(7, 0, 10, 3) == 3
    assert window_index(10, 0, 10, 3) == 3


@pytest.mark.parametrize("args,message", [
    ((5, 0, 10, 0), "at least one window"),
    ((5, 0, 0, 8), "positive duration"),
    ((5, 10, 0, 8), "positive duration"),
    ((-5, 0, 10, 2), r"time -5 outside \[0, 10\]"),
    ((15, 0, 10, 2), r"time 15 outside \[0, 10\]"),
], ids=["no-windows", "empty-span", "reversed-span", "before-span", "after-span"])
def test_window_index_rejects_bad_input(args, message):
    with pytest.raises(ValueError, match=message):
        window_index(*args)



# In float64, 3 * THIRD rounds up to 2**60, so float arithmetic would put
# THIRD into the second of three windows; exactly it is in the first.
THIRD = 384307168202282304


@pytest.mark.parametrize("times,omega,n", [
    (range(101), 100, 7),
    ((0, THIRD, 2**60), 2**60, 3),
], ids=["span-100", "span-2**60"])
def test_split_windows_integral_float_span_bins_like_int_span(times, omega, n):
    # integral float times and ends are binned in exact integer
    # arithmetic, like the ints they equal
    events = [Event(float(t), "u", f"i{k}") for k, t in enumerate(times)]
    exact = [[t for t in times if min(t * n // omega + 1, n) == k] for k in range(1, n + 1)]
    for span in [(0.0, float(omega)), (0, omega)]:
        stream = LinkStream.from_events(events, time_span=span)
        assert [[ev.t for ev in sub.events] for _, sub in split_windows(stream, n)] == exact

@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=2,
        max_size=40,
    ),
    st.integers(min_value=2, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_split_windows_partitions_events(triples, n):
    events = {Event(t, f"u{u}", f"i{i}") for t, u, i in triples}
    stream = LinkStream.from_events(events)
    if stream.omega == stream.alpha:
        return
    splits = split_windows(stream, n)
    total = [ev for _, sub in splits for ev in sub.events]
    assert len(total) == len(stream)
    assert sorted(total, key=lambda ev: (ev.t, ev.user, ev.item)) == list(stream.events)
    for window, sub in splits:
        for ev in sub.events:
            assert window.start <= ev.t
            assert ev.t < window.end or (window.index == n and ev.t <= window.end)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_streams_always_sorted(triples):
    stream = LinkStream.from_events(
        Event(t, f"u{u}", f"i{i}") for t, u, i in triples
    )
    keys = [(ev.t, ev.user, ev.item) for ev in stream.events]
    assert keys == sorted(keys)


RATINGS = [math.nan, 0.0, 1.0, 2.5, 5.0]


@st.composite
def coded_events(draw):
    """Event times, user and item codes into tables of the drawn sizes, and
    ratings (NaN: unrated), as parallel lists. The times are small (many
    repeated (t, user, item) keys), negative, near 2**64, floats, or span
    the widest range whose packed keys fit in 63 bits, or one more."""
    n_users, n_items = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = draw(st.integers(1, 12))
    space = draw(st.sampled_from(["small", "negative", "near 2**64", "float", "key edge"]))
    if space == "float":
        ts = draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size))
    else:
        lo, span = {"small": (0, 5), "negative": (-10**12, 50),
                    "near 2**64": (2**64 - 1001, 1000)}.get(space, (None, None))
        if space == "key edge":  # the largest key is 2**63 - 1 or past it
            span = 2**63 // (n_users * n_items) - 1 + draw(st.integers(0, 1))
            lo = draw(st.sampled_from([0, -2**62, -2**63]))
        ts = [lo, lo + span] + draw(st.lists(st.integers(lo, lo + span), max_size=size))
    codes = st.lists(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1),
                               st.sampled_from(RATINGS)), min_size=len(ts), max_size=len(ts))
    users, items, ratings = map(list, zip(*draw(codes)))
    return ts, users, items, ratings, n_users, n_items


@given(coded_events())
@settings(max_examples=300, deadline=None)
def test_packed_order_is_the_five_key_lexsort(case):
    ts, users, items, ratings, n_users, n_items = case
    t, user, item, rating = np.array(ts), np.array(users), np.array(items), np.array(ratings)
    order = _packed_order(t, user, item, n_users, n_items)
    packs = (t.dtype.kind in "iu"
             and (max(ts) - min(ts) + 1) * n_users * n_items <= 2**63
             and len(set(zip(ts, users, items))) == len(ts))
    assert (order is not None) == packs
    if packs:
        unrated = np.isnan(rating)
        lexsort = np.lexsort((np.where(unrated, 0.0, rating), ~unrated, item, user, t))
        assert order.tolist() == lexsort.tolist()


@pytest.mark.parametrize("lo", [0, -2**63])
def test_packed_key_just_fits_or_falls_back(lo):
    # 2 users x 3 items: span + 1 = 2**63 // 6 puts the largest key at 2**63 - 1
    user, item = np.array([1, 0]), np.array([2, 0])
    span = 2**63 // 6 - 1
    assert _packed_order(np.array([lo + span, lo]), user, item, 2, 3).tolist() == [1, 0]
    assert _packed_order(np.array([lo + span + 1, lo]), user, item, 2, 3) is None


@given(coded_events())
@example(([0, 2**63], [0, 0], [0, 0], [math.nan, math.nan], 1, 1))  # int64 + uint64 times
@settings(max_examples=300, deadline=None)
def test_stream_events_are_the_sorted_set_of_the_input(case):
    ts, users, items, ratings, _, _ = case
    events = [Event(t, f"u{u}", f"i{i}", None if math.isnan(r) else r)
              for t, u, i, r in zip(ts, users, items, ratings)]
    stream = LinkStream.from_events(events)
    expected = sorted(set(events), key=lambda ev: (ev.t, ev.user, ev.item,
                                                  ev.rating is not None, ev.rating or 0.0))
    assert list(stream.events) == expected
    assert [type(ev.t) for ev in stream.events] == [type(ev.t) for ev in expected]


@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, max(n - 1, 0)),
                                             max_size=20 if n else 0))))
@example((0, []))
@example((5, []))
@settings(max_examples=200, deadline=None)
def test_compact_is_unique_and_searchsorted(case):
    n, codes = case
    table = tuple(f"id{k}" for k in range(n))
    codes = np.array(codes, dtype=np.int64)
    present = np.unique(codes)
    expected = np.searchsorted(present, codes)
    got_table, got_codes = _compact(table, codes)
    assert got_table == tuple(table[c] for c in present.tolist())
    assert got_codes.dtype == expected.dtype
    assert got_codes.tolist() == expected.tolist()


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=40,
    ),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=100, deadline=None)
def test_items_by_user_matches_per_event_definition(triples, lo, hi):
    stream = LinkStream.from_events(
        (Event(t, f"u{u}", f"i{i}") for t, u, i in triples), time_span=(0, 100)
    )
    # slices share the whole stream's id tables, some ids absent from them
    for part in (stream, stream.slice(0, hi, stream.time_span),
                 stream.slice(lo, max(lo, hi), stream.time_span)):
        by_user = {}
        for ev in part.events:
            by_user.setdefault(ev.user, set()).add(ev.item)
        got = part.items_by_user()
        assert got == by_user
        assert list(got) == list(by_user)  # users by first appearance


@pytest.mark.parametrize("blank", ["", " \t \t "])
def test_blank_record_after_first_data_row_is_skipped(blank):
    stream = parse_link_stream(f"u1\ti1\t1\n{blank}\nu2\ti2\t2\n".encode(), fmt="tsv")
    assert [(ev.t, ev.user, ev.item) for ev in stream.events] == [(1, "u1", "i1"), (2, "u2", "i2")]


def test_slices_pickle_as_their_root_stream_and_bounds():
    stream = make_stream(4, n_users=6, n_items=9, n_events=40)
    outer = stream.slice(5, 30, stream.time_span)
    slices = [outer, outer.slice(3, 12, stream.time_span), outer.slice(-4, 99, (0, 10**9)),
              outer.slice(20, 2, stream.time_span), stream.slice(0, 0, stream.time_span)]
    back = pickle.loads(pickle.dumps([stream] + slices))
    assert back == [stream] + slices
    assert [s.time_span for s in back] == [s.time_span for s in [stream] + slices]
    assert [s.events for s in back[1:]] == [stream.events[5:30], stream.events[8:17],
                                            stream.events[26:30], (), ()]
    # the root is sent once, whatever the number of slices
    assert len(pickle.dumps([stream] + slices)) < 1.2 * len(pickle.dumps(stream))
    # an unpickled slice pickles again
    assert pickle.loads(pickle.dumps(back[2])) == slices[1]
