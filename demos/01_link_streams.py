"""Link streams: parsing, positive-rating filtering, activity
thresholds and equal time windows.

Run from the repository root:  python demos/01_link_streams.py
"""

import io

from linkrec import (
    Event,
    FilterConfig,
    LinkStream,
    filter_min_activity,
    filter_positive,
    parse_link_stream,
    split_windows,
)

# A link stream is a set of (t, user, item[, rating]) events observed over
# an interval. Files can be TSV or CSV, with a header or positional
# columns, and timestamps as epoch seconds or ISO dates.
raw = """\
user,item,timestamp,rating
alice,book-1,2020-01-05,5
alice,book-2,2020-02-11,1
alice,book-3,2020-03-02,3
bob,book-1,2020-01-20,4
bob,book-4,2020-04-09,4
"""
stream = parse_link_stream(io.StringIO(raw), fmt="csv")
print("events:", len(stream))
print("users: ", sorted(stream.users))
print("items: ", sorted(stream.items))
print("span:  ", stream.time_span)

# Events are always sorted by (t, user, item); exact duplicates collapse.
assert [ev.user for ev in stream.events] == ["alice", "bob", "alice", "alice", "bob"]

# Positive filtering keeps an event only when its rating reaches both the
# floor and the user's own mean. alice rated [5, 1, 3] (mean 3): the 1 goes,
# and so does nothing else.
positive = filter_positive(stream, rating_floor=2.5)
print("\nafter positive filter:", [(ev.user, ev.rating) for ev in positive.events])
assert len(positive) == 4

# Activity thresholds remove under-active users/items, cascading until the
# thresholds hold everywhere. Requiring 2 events per item keeps only book-1.
active = filter_min_activity(positive, FilterConfig(sigma_u=1, sigma_i=2))
print("after sigma_i=2 filter:", sorted(active.items))

# Equal windows partition the observation interval; each event lands in
# exactly one window (half-open spans, the last one closed).
toy = LinkStream.from_events(
    [Event(t, "u", f"i{t}") for t in (0, 10, 25, 39, 40, 79, 80)],
    time_span=(0, 80),
)
for window, sub in split_windows(toy, 4):
    closer = "]" if window.index == 4 else ")"
    start, end = float(window.start), float(window.end)
    print(f"window {window.index} [{start:>4.1f}, {end:>4.1f}{closer}:",
          [ev.t for ev in sub.events])
