import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkrec.linkstream import (
    Event,
    FilterConfig,
    LinkStream,
    ParseError,
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


def test_parse_bad_timestamp_names_line():
    text = "u1\ti1\t100\nu2\ti2\tnot-a-time\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_link_stream(io.StringIO(text))


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


@pytest.mark.parametrize("blank", ["", " \t \t "])
def test_blank_record_after_first_data_row_is_skipped(blank):
    stream = parse_link_stream(f"u1\ti1\t1\n{blank}\nu2\ti2\t2\n".encode(), fmt="tsv")
    assert [(ev.t, ev.user, ev.item) for ev in stream.events] == [(1, "u1", "i1"), (2, "u2", "i2")]
