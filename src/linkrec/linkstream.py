"""Bipartite link streams: timestamped user-item interactions over an
observation interval, plus the ingestion, filtering and time-window
operations every experiment starts from.

A link stream is an ordered set of events (t, user, item[, rating])
observed over a closed interval [alpha, omega]. Timestamps are integer
epoch seconds internally; ISO-8601 inputs are converted on parse.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Event",
    "LinkStream",
    "StreamColumns",
    "FilterConfig",
    "Window",
    "ParseError",
    "parse_link_stream",
    "filter_positive",
    "filter_min_activity",
    "split_windows",
    "window_index",
]

# Recognized header spellings, lowercased.
_HEADER_NAMES = {
    "user": "user",
    "user_id": "user",
    "u": "user",
    "item": "item",
    "item_id": "item",
    "i": "item",
    "timestamp": "timestamp",
    "time": "timestamp",
    "ts": "timestamp",
    "t": "timestamp",
    "rating": "rating",
    "r": "rating",
}


class ParseError(ValueError):
    """Malformed input record; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, slots=True)
class Event:
    """One interaction: user selected item at time t (optionally rated)."""

    t: int
    user: str
    item: str
    rating: float | None = None

    def sort_key(self) -> tuple[int, str, str]:
        return (self.t, self.user, self.item)


@dataclass(frozen=True)
class StreamColumns:
    """Integer-coded columns of a stream's events, in event order.

    ``users`` and ``items`` are sorted id tables and the codes index
    them, so codes sort like the ids they stand for. A training prefix
    shares its parent's tables, which may list ids absent from it.
    """

    t: np.ndarray
    user_code: np.ndarray
    item_code: np.ndarray
    users: tuple[str, ...]
    items: tuple[str, ...]


@dataclass(frozen=True)
class LinkStream:
    """Events sorted by (t, user, item) with their observation interval.

    Build instances through :meth:`from_events`; it sorts, drops exact
    duplicates (event sets, not multisets), derives the user/item sets
    and checks the interval actually covers the events. An empty stream
    is legal only with an explicit time span (filters may empty a stream;
    parsing empty input is an error). :attr:`columns` is an
    integer-coded view of the events, built on first use.
    """

    events: tuple[Event, ...]
    time_span: tuple[float, float]
    users: frozenset[str]
    items: frozenset[str]
    _columns: StreamColumns | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_events(
        cls,
        events: Iterable[Event],
        time_span: tuple[float, float] | None = None,
    ) -> "LinkStream":
        ordered = sorted(set(events), key=Event.sort_key)
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
        return cls(
            events=tuple(ordered),
            time_span=(float(alpha), float(omega)),
            users=frozenset(ev.user for ev in ordered),
            items=frozenset(ev.item for ev in ordered),
        )

    def __len__(self) -> int:
        return len(self.events)

    @property
    def columns(self) -> StreamColumns:
        """Sorted ``t`` with user and item codes per event, plus the id tables."""
        if self._columns is None:
            users, items = tuple(sorted(self.users)), tuple(sorted(self.items))
            user_code = {u: c for c, u in enumerate(users)}
            item_code = {i: c for c, i in enumerate(items)}
            n = len(self.events)
            cols = StreamColumns(
                t=np.array([ev.t for ev in self.events]) if n else np.zeros(0, np.int64),
                user_code=np.fromiter(
                    (user_code[ev.user] for ev in self.events), np.int64, count=n
                ),
                item_code=np.fromiter(
                    (item_code[ev.item] for ev in self.events), np.int64, count=n
                ),
                users=users,
                items=items,
            )
            object.__setattr__(self, "_columns", cols)
        return self._columns

    def slice(self, lo: int, hi: int, time_span: tuple[float, float]) -> "LinkStream":
        """Events lo..hi-1 over ``time_span``, which must cover them.

        Events, columns and id tables are slices and shares of this
        stream's, so nothing is sorted again.
        """
        cols = self.columns
        sub = StreamColumns(
            cols.t[lo:hi], cols.user_code[lo:hi], cols.item_code[lo:hi], cols.users, cols.items
        )
        return LinkStream(
            events=self.events[lo:hi],
            time_span=(float(time_span[0]), float(time_span[1])),
            users=frozenset(cols.users[c] for c in np.unique(sub.user_code).tolist()),
            items=frozenset(cols.items[c] for c in np.unique(sub.item_code).tolist()),
            _columns=sub,
        )

    @property
    def alpha(self) -> float:
        return self.time_span[0]

    @property
    def omega(self) -> float:
        return self.time_span[1]

    def distinct_pairs(self) -> set[tuple[str, str]]:
        """Distinct (user, item) pairs (dataset summaries report both
        this and the raw event count)."""
        return {(ev.user, ev.item) for ev in self.events}

    def items_by_user(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for ev in self.events:
            out.setdefault(ev.user, set()).add(ev.item)
        return out


@dataclass(frozen=True)
class FilterConfig:
    """Minimum-activity thresholds."""

    sigma_u: int = 1
    sigma_i: int = 1

    def __post_init__(self):
        if self.sigma_u < 0 or self.sigma_i < 0:
            raise ValueError("activity thresholds must be non-negative")


@dataclass(frozen=True)
class Window:
    """One of n equal-duration windows over [alpha, omega].

    Spans are half-open [start, end); the last window is closed at omega.
    """

    index: int
    start: float
    end: float


def _parse_timestamp(text: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"unparseable timestamp {text!r}") from None
    if dt.tzinfo is None:
        # Date-only and naive datetimes are taken as UTC.
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _read_lines(source) -> list[str]:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8").splitlines()
    if isinstance(source, bytes):
        return source.decode("utf-8").splitlines()
    if isinstance(source, io.TextIOBase):
        return source.read().splitlines()
    # binary file-like
    return source.read().decode("utf-8").splitlines()


def parse_link_stream(
    source,
    fmt: str = "tsv",
    columns: Sequence[str] | None = None,
    time_span: tuple[float, float] | None = None,
) -> LinkStream:
    """Parse TSV/CSV records into a LinkStream.

    Records carry user, item, timestamp and an optional rating, either
    positionally in that order or named by a header row. ``columns``
    overrides both: a sequence of field names per input column, with
    ``"-"`` for columns to ignore. Timestamps may be integer epoch
    seconds or ISO-8601 dates.
    """
    if fmt not in ("tsv", "csv"):
        raise ValueError(f"unknown format {fmt!r} (expected 'tsv' or 'csv')")
    delim = "\t" if fmt == "tsv" else ","
    lines = _read_lines(source)
    rows = [
        (ln, row)
        for ln, row in enumerate(csv.reader(lines, delimiter=delim), start=1)
        if row and any(cell.strip() for cell in row)
    ]
    if not rows:
        raise ValueError("empty stream")

    mapping: dict[str, int] = {}
    if columns is not None:
        for pos, name in enumerate(columns):
            if name and name != "-":
                key = _HEADER_NAMES.get(name.strip().lower())
                if key is None:
                    raise ValueError(f"unknown column name {name!r}")
                mapping[key] = pos
    else:
        first = [cell.strip().lower() for cell in rows[0][1]]
        header = {}
        for pos, cell in enumerate(first):
            key = _HEADER_NAMES.get(cell)
            if key is not None:
                header[key] = pos
        # A first row only counts as a header when it names all three
        # required fields; otherwise short ids would shadow data rows.
        if all(key in header for key in ("user", "item", "timestamp")):
            mapping = header
            rows = rows[1:]
        else:
            mapping = {"user": 0, "item": 1, "timestamp": 2, "rating": 3}
    for required in ("user", "item", "timestamp"):
        if required not in mapping:
            raise ValueError(f"no column mapped to {required!r}")

    events = []
    for ln, row in rows:
        def field(key: str) -> str | None:
            pos = mapping.get(key)
            if pos is None or pos >= len(row):
                return None
            return row[pos].strip()

        user, item, ts = field("user"), field("item"), field("timestamp")
        if not user or not item or not ts:
            raise ParseError(ln, "record needs user, item and timestamp fields")
        try:
            t = _parse_timestamp(ts)
        except ValueError as exc:
            raise ParseError(ln, str(exc)) from None
        rating_text = field("rating")
        rating = None
        if rating_text:
            try:
                rating = float(rating_text)
            except ValueError:
                raise ParseError(ln, f"unparseable rating {rating_text!r}") from None
            if not 0.0 <= rating <= 5.0:
                raise ParseError(ln, f"rating {rating} outside [0, 5]")
        events.append(Event(t=t, user=user, item=item, rating=rating))

    if not events:
        raise ValueError("empty stream")
    return LinkStream.from_events(events, time_span=time_span)


def filter_positive(stream: LinkStream, rating_floor: float = 2.5) -> LinkStream:
    """Keep only positive feedback: rating >= floor and >= the user's mean.

    The per-user mean is computed over the *input* stream. Every event
    must carry a rating. The result may be empty.
    """
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for ev in stream.events:
        if ev.rating is None:
            raise ValueError("rating required for positive filtering")
        totals[ev.user] = totals.get(ev.user, 0.0) + ev.rating
        counts[ev.user] = counts.get(ev.user, 0) + 1
    means = {u: totals[u] / counts[u] for u in totals}
    kept = [
        ev
        for ev in stream.events
        if ev.rating >= rating_floor and ev.rating >= means[ev.user]
    ]
    return LinkStream.from_events(kept, time_span=stream.time_span)


def filter_min_activity(stream: LinkStream, cfg: FilterConfig) -> LinkStream:
    """Drop events of under-active users/items until both thresholds hold.

    Removal cascades: losing a user's events can push an item below its
    threshold and vice versa, so the rule is iterated to a fixed point.
    The result may be empty.
    """
    events = list(stream.events)
    while events:
        user_counts: dict[str, int] = {}
        item_counts: dict[str, int] = {}
        for ev in events:
            user_counts[ev.user] = user_counts.get(ev.user, 0) + 1
            item_counts[ev.item] = item_counts.get(ev.item, 0) + 1
        bad_users = {u for u, c in user_counts.items() if c < cfg.sigma_u}
        bad_items = {i for i, c in item_counts.items() if c < cfg.sigma_i}
        if not bad_users and not bad_items:
            break
        events = [
            ev
            for ev in events
            if ev.user not in bad_users and ev.item not in bad_items
        ]
    return LinkStream.from_events(events, time_span=stream.time_span)


def window_index(t: float, alpha: float, omega: float, n: int) -> int:
    """1-based window index of time t in an n-way equal split of [alpha, omega].

    Window k covers [start, end) except the last, which is closed at
    omega. Integral inputs are compared in exact integer arithmetic so
    boundary events land deterministically even when the window width
    is fractional.
    """
    if isinstance(t, float) and t.is_integer():
        t = int(t)
    if isinstance(alpha, float) and alpha.is_integer():
        alpha = int(alpha)
    if isinstance(omega, float) and omega.is_integer():
        omega = int(omega)
    if isinstance(t, int) and isinstance(alpha, int) and isinstance(omega, int):
        k = (t - alpha) * n // (omega - alpha) + 1
    else:
        k = math.floor((t - alpha) * n / (omega - alpha)) + 1
    return min(k, n)


def split_windows(stream: LinkStream, n: int) -> list[tuple[Window, LinkStream]]:
    """Split [alpha, omega] into n equal windows and bin the events.

    Each event lands in exactly one window; the concatenation of the
    sub-streams equals the input events. Sub-streams may be empty.
    """
    if n < 2:
        raise ValueError("a train/test split needs at least two windows")
    alpha, omega = stream.time_span
    if not omega > alpha:
        raise ValueError("time span must have positive duration to split")
    # Events are sorted by t and window_index grows with t, so each
    # window is a run of the stream's events.
    bounds = [
        bisect_left(stream.events, k, key=lambda ev: window_index(ev.t, alpha, omega, n))
        for k in range(1, n + 1)
    ] + [len(stream)]
    out = []
    span = omega - alpha
    for k in range(1, n + 1):
        window = Window(
            index=k, start=alpha + span * (k - 1) / n, end=alpha + span * k / n
        )
        sub = stream.slice(bounds[k - 1], bounds[k], (window.start, window.end))
        out.append((window, sub))
    return out
