"""Bipartite link streams: timestamped user-item interactions over an
observation interval, plus the ingestion, filtering and time-window
operations every experiment starts from.

A link stream is an ordered set of events (t, user, item[, rating])
observed over a closed interval [alpha, omega]. Timestamps are integer
epoch seconds internally; ISO-8601 inputs are converted on parse.

The stream *is* its columns: sorted ``t``, ``user_code``, ``item_code``
and ``rating`` arrays (NaN when unrated) with codes into sorted user
and item id tables. Parsing collects plain lists and codes and sorts
them once; the filters are counts and masks over the codes; windows
and training prefixes are slices. ``LinkStream.events`` and its
``users``/``items`` sets are views rendered on first read, for tests,
demos and summaries; loading, the protocol and the search never render
them.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import cached_property
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
    "map_columns",
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


@dataclass(frozen=True, eq=False)
class StreamColumns:
    """Integer-coded columns of a stream's events, in event order.

    ``rating`` is NaN for unrated events. ``users`` and ``items`` are
    sorted id tables and the codes index them, so codes sort like the
    ids they stand for. A training prefix shares its parent's tables,
    which may list ids absent from it.
    """

    t: np.ndarray
    user_code: np.ndarray
    item_code: np.ndarray
    rating: np.ndarray
    users: tuple[str, ...]
    items: tuple[str, ...]


def _code(ids: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted table of the distinct ids and each id's index in it."""
    table = tuple(sorted(set(ids)))
    index = {x: c for c, x in enumerate(table)}
    return table, np.fromiter(map(index.__getitem__, ids), np.int64, count=len(ids))


def _compact(table: tuple[str, ...], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The part of a sorted table that ``codes`` use, and the codes into it.

    Counts instead of sorting: an id is kept when some code uses it, and
    its new code is the number of kept ids before it, so the result
    equals ``np.unique`` of the codes and a ``searchsorted`` into that.
    """
    used = np.bincount(codes, minlength=len(table)) > 0
    return tuple(itertools.compress(table, used)), (np.cumsum(used) - 1)[codes]


def _packed_order(t: np.ndarray, user_code: np.ndarray, item_code: np.ndarray,
                  n_users: int, n_items: int) -> np.ndarray | None:
    """The (t, user, item) order of integer-timed events, as one argsort of
    the int64 key ``(t - t_min) * U * I + user * I + item``; None when the
    times are not integers, a key would not fit in 63 bits, or two events
    share (t, user, item) (only then do the rating keys decide)."""
    if t.dtype.kind not in "iu" or not len(t):
        return None
    lo, hi = t.min().item(), t.max().item()
    if (hi - lo + 1) * n_users * n_items > 2**63:  # the largest key is this minus 1
        return None
    # int64 throughout: uint64 times mixed with int64 codes would become float64
    key = (t - t.min()).astype(np.int64) * (n_users * n_items) + user_code * n_items + item_code
    order = np.argsort(key)  # distinct keys: every sort gives the one order
    key = key[order]
    return None if (key[1:] == key[:-1]).any() else order


class LinkStream:
    """Events sorted by (t, user, item, rating) with their observation interval.

    Unrated events sort before rated ones with the same (t, user, item),
    so the order is total and does not depend on input order or hashing.
    Build instances through :meth:`from_events` or :func:`parse_link_stream`;
    both sort, drop exact duplicates (event sets, not multisets) and check
    that event times and span ends are finite 64-bit integers or floats
    (or, for an end, an exact window edge), that an integer time among
    float times has an exact float64 value, and that the interval covers
    the events. An empty stream is legal only with an explicit time span
    (filters may empty a stream; parsing empty input is an error). A span
    derived from the events keeps their type, so integer timestamps past
    2**53 (nanosecond epochs) stay exact. Integer times are stored as
    int64, or as uint64 when one passes 2**63 - 1 and none is negative.

    :attr:`columns` holds the stream. :attr:`events`, :attr:`users` and
    :attr:`items` are rendered from it on first read. Two streams are
    equal when their events and time spans are. A :meth:`slice` pickles
    as its root stream and its bounds, so slices of one stream pickled
    together send that stream once.
    """

    def __init__(self, columns: StreamColumns, time_span: tuple[float, float]):
        self.columns = columns
        self.time_span = tuple(time_span)
        self._root: tuple[LinkStream, int] | None = None  # a slice's stream and offset

    @classmethod
    def from_events(
        cls,
        events: Iterable[Event],
        time_span: tuple[float, float] | None = None,
    ) -> "LinkStream":
        events = list(events)
        return cls._sorted(
            [ev.t for ev in events],
            [ev.user for ev in events],
            [ev.item for ev in events],
            [math.nan if ev.rating is None else ev.rating for ev in events],
            time_span,
        )

    @classmethod
    def _sorted(cls, ts: list, users: list[str], items: list[str], ratings: list[float],
                time_span) -> "LinkStream":
        """Code, sort and deduplicate parallel per-event lists.

        The order is the five-key ``np.lexsort`` on (t, user, item, rated,
        rating). Integer times whose (t, user, item) keys are distinct and
        pack into an int64 take the same order from one argsort of the
        packed key (:func:`_packed_order`): with no ties there, the
        rating keys break none.
        """
        if not ts and time_span is None:
            raise ValueError("empty stream")
        user_table, user_code = _code(users)
        item_table, item_code = _code(items)
        t = np.array(ts) if ts else np.zeros(0, np.int64)
        # numpy infers float64 for int64 and uint64 integers together; when
        # none is negative, uint64 holds them all exactly
        if (t.dtype.kind == "f" and all(isinstance(x, (int, np.integer)) for x in ts)
                and min(ts) >= 0):
            t = np.array(ts, dtype=np.uint64)
        if t.dtype.kind not in "iuf":
            raise ValueError("timestamps must be 64-bit integers or floats")
        if t.dtype.kind == "f":
            if not np.isfinite(t).all():
                raise ValueError(f"event time {t[~np.isfinite(t)][0].item()} is not finite")
            # integer times mixed with floats are stored as float64; none may round
            for x in ts:
                if isinstance(x, (int, np.integer)) and int(float(x)) != int(x):
                    raise ValueError(f"event time {x} has no exact float64 value")
        if time_span is not None:
            ends = np.array([math.floor(x) if isinstance(x, Fraction) else x for x in time_span])
            if ends.dtype.kind not in "iuf":
                raise ValueError("time span ends must be 64-bit integers or floats")
            if not np.isfinite(ends).all():
                raise ValueError(f"time span {tuple(time_span)} has a non-finite end")
        rating = np.array(ratings, dtype=float)
        unrated = np.isnan(rating)
        order = _packed_order(t, user_code, item_code, len(user_table), len(item_table))
        if order is None:
            order = np.lexsort((np.where(unrated, 0.0, rating), ~unrated, item_code, user_code, t))
        t, user_code, item_code, rating, unrated = (
            a[order] for a in (t, user_code, item_code, rating, unrated)
        )
        # Exact duplicates are neighbours now; keep the first of each run.
        dup = (
            (t[1:] == t[:-1])
            & (user_code[1:] == user_code[:-1])
            & (item_code[1:] == item_code[:-1])
            & ((rating[1:] == rating[:-1]) | (unrated[1:] & unrated[:-1]))
        )
        if dup.any():
            keep = np.concatenate(([True], ~dup))
            t, user_code, item_code, rating = (a[keep] for a in (t, user_code, item_code, rating))
        # Tables are sorted, so an empty id can only be code 0.
        empty = np.zeros(len(t), dtype=bool)
        if user_table[:1] == ("",):
            empty |= user_code == 0
        if item_table[:1] == ("",):
            empty |= item_code == 0
        if empty.any():
            raise ValueError(f"event at t={t[empty.argmax()].item()} has an empty identifier")
        if len(t):
            first, last = t[0].item(), t[-1].item()
            if time_span is None:
                time_span = (first, last)
            alpha, omega = time_span
            if alpha > first or omega < last:
                raise ValueError(
                    f"time span [{alpha}, {omega}] does not cover events [{first}, {last}]"
                )
        return cls(StreamColumns(t, user_code, item_code, rating, user_table, item_table),
                   time_span)

    def __len__(self) -> int:
        return len(self.columns.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinkStream):
            return NotImplemented
        return (self.time_span, self.events) == (other.time_span, other.events)

    def __hash__(self) -> int:
        return hash((self.time_span, len(self)))

    def __repr__(self) -> str:
        return f"LinkStream({len(self)} events over {self.time_span})"

    @cached_property
    def events(self) -> tuple[Event, ...]:
        """The events in stream order, rendered from the columns."""
        cols = self.columns
        users, items = cols.users, cols.items
        return tuple(
            Event(t, users[u], items[i], None if math.isnan(r) else r)
            for t, u, i, r in zip(
                cols.t.tolist(), cols.user_code.tolist(),
                cols.item_code.tolist(), cols.rating.tolist(),
            )
        )

    @cached_property
    def users(self) -> frozenset[str]:
        """Ids of the users with events in this stream."""
        return frozenset(_compact(self.columns.users, self.columns.user_code)[0])

    @cached_property
    def items(self) -> frozenset[str]:
        """Ids of the items with events in this stream."""
        return frozenset(_compact(self.columns.items, self.columns.item_code)[0])

    def slice(self, lo: int, hi: int, time_span: tuple[float, float]) -> "LinkStream":
        """Events lo..hi-1 over ``time_span``, which must cover them.

        The columns are slices of this stream's and share its id tables,
        so nothing is sorted again.
        """
        c = self.columns
        out = LinkStream(
            StreamColumns(c.t[lo:hi], c.user_code[lo:hi], c.item_code[lo:hi],
                          c.rating[lo:hi], c.users, c.items),
            time_span,
        )
        root, start = self._root or (self, 0)
        out._root = (root, start + range(len(self))[lo:hi].start)
        return out

    def __reduce_ex__(self, protocol):
        if self._root is None:
            return super().__reduce_ex__(protocol)
        root, start = self._root
        return root.slice, (start, start + len(self), self.time_span)

    def _take(self, rows: np.ndarray) -> "LinkStream":
        """The events at ``rows`` (a mask, or ascending indices) over this
        stream's time span, with id tables cut to the ids they use."""
        c = self.columns
        users, user_code = _compact(c.users, c.user_code[rows])
        items, item_code = _compact(c.items, c.item_code[rows])
        return LinkStream(
            StreamColumns(c.t[rows], user_code, item_code, c.rating[rows], users, items),
            self.time_span,
        )

    @property
    def alpha(self) -> float:
        return self.time_span[0]

    @property
    def omega(self) -> float:
        return self.time_span[1]

    def _pairs(self):
        c = self.columns
        return zip(c.user_code.tolist(), c.item_code.tolist())

    def distinct_pairs(self) -> set[tuple[str, str]]:
        """Distinct (user, item) pairs (dataset summaries report both
        this and the raw event count)."""
        users, items = self.columns.users, self.columns.items
        return {(users[u], items[i]) for u, i in self._pairs()}

    def pair_keys(self) -> np.ndarray:
        """The distinct (user, item) pairs as int64 keys ``user_code *
        len(columns.items) + item_code``, ascending: by user code, then
        item code, which sort like the ids."""
        c = self.columns
        key = np.sort(c.user_code * len(c.items) + c.item_code)
        return key[np.diff(key, prepend=-1) != 0]

    def items_by_user(self) -> dict[str, set[str]]:
        """Each user's distinct items, users in order of first appearance.

        The :meth:`pair_keys` are split by user, and each pair's item is
        named once; each user's set is built from its run of names.
        """
        c = self.columns
        n_events = len(c.user_code)
        user_of, item_of = np.divmod(self.pair_keys(), len(c.items))
        bounds = np.searchsorted(user_of, np.arange(len(c.users) + 1)).tolist()
        names = np.array(c.items, dtype=object)[item_of].tolist()
        first = np.full(len(c.users), n_events)
        np.minimum.at(first, c.user_code, np.arange(n_events))
        present = np.flatnonzero(first < n_events)
        return {
            c.users[u]: set(names[bounds[u]:bounds[u + 1]])
            for u in present[np.argsort(first[present])].tolist()
        }


@dataclass(frozen=True)
class FilterConfig:
    """Minimum-activity thresholds."""

    sigma_u: int = 1
    sigma_i: int = 1

    def __post_init__(self):
        for name in ("sigma_u", "sigma_i"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class Window:
    """One of n equal-duration windows over [alpha, omega].

    Spans are half-open [start, end); the last window is closed at omega.
    Window k starts at the exact rational alpha + (omega - alpha) * (k - 1) / n.
    """

    index: int
    start: Fraction
    end: Fraction


def _parse_timestamp(text: str) -> int:
    """Epoch seconds of stripped ISO-8601 text (the record loop reads
    integer stamps itself)."""
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"unparseable timestamp {text!r}") from None
    if dt.tzinfo is None:
        # Date-only and naive datetimes are taken as UTC.
        dt = dt.replace(tzinfo=timezone.utc)
    return math.floor(dt.timestamp())


def _read_text(source) -> str:
    """Text of a path, bytes, or text or binary file; a leading UTF-8
    byte-order mark is dropped so it cannot hide a header."""
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8-sig")
    if isinstance(source, bytes):
        return source.decode("utf-8-sig")
    if isinstance(source, io.TextIOBase):
        return source.read().removeprefix("\ufeff")
    # binary file-like
    return source.read().decode("utf-8-sig")


def map_columns(columns: Sequence[str]) -> dict[str, int]:
    """Field -> position for column names, ``"-"`` skipping a column; a
    ``ValueError`` names an unknown name, a field named twice or a
    required field left out."""
    mapping: dict[str, int] = {}
    for pos, name in enumerate(columns):
        if name and name != "-":
            key = _HEADER_NAMES.get(name.strip().lower())
            if key is None:
                raise ValueError(f"unknown column name {name!r}")
            if key in mapping:
                raise ValueError(f"field {key!r} named twice")
            mapping[key] = pos
    for required in ("user", "item", "timestamp"):
        if required not in mapping:
            raise ValueError(f"no column mapped to {required!r}")
    return mapping


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
    seconds or ISO-8601 dates. Records end at a line feed, a carriage
    return or both, outside quotes; a quoted field keeps its line
    breaks. A :class:`ParseError` names the physical line its record
    ends on.
    """
    if fmt not in ("tsv", "csv"):
        raise ValueError(f"unknown format {fmt!r} (expected 'tsv' or 'csv')")
    reader = csv.reader(io.StringIO(_read_text(source), newline=""),
                        delimiter="\t" if fmt == "tsv" else ",")
    try:
        ts, users, items, ratings = _read_records(reader, columns)
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise ParseError(reader.line_num, str(exc)) from None
    if not ts:
        raise ValueError("empty stream")
    return LinkStream._sorted(ts, users, items, ratings, time_span)


def _read_records(reader, columns: Sequence[str] | None):
    """The parallel time, user, item and rating lists of a CSV reader's
    records; an error names ``reader.line_num``, the physical line the
    record in hand ends on."""
    # Records whose cells are all blank are skipped; the first other one
    # may be a header.
    first = next((row for row in reader if any(map(str.strip, row))), None)
    if first is None:
        raise ValueError("empty stream")
    rows = itertools.chain([first], reader)

    if columns is not None:
        mapping = map_columns(columns)
    else:
        keys = [_HEADER_NAMES.get(cell.strip().lower()) for cell in first]
        # A first row only counts as a header when it names all three
        # required fields; otherwise short ids would shadow data rows.
        if {"user", "item", "timestamp"} <= set(keys):
            try:
                mapping = map_columns([c if key else "-" for c, key in zip(first, keys)])
            except ValueError as exc:  # a field named twice
                raise ParseError(reader.line_num, str(exc)) from None
            rows = reader
        else:
            mapping = {"user": 0, "item": 1, "timestamp": 2, "rating": 3}

    pu, pi, pt = mapping["user"], mapping["item"], mapping["timestamp"]
    pr = mapping.get("rating", math.inf)  # no rating column: past every row
    ts, users, items, ratings = [], [], [], []
    for row in rows:
        n = len(row)
        user = row[pu].strip() if pu < n else None
        item = row[pi].strip() if pi < n else None
        text = row[pt].strip() if pt < n else None
        if not user or not item or not text:
            if not any(map(str.strip, row)):
                continue
            raise ParseError(reader.line_num, "record needs user, item and timestamp fields")
        try:
            t = int(text)
        except ValueError:
            try:
                t = _parse_timestamp(text)
            except ValueError as exc:
                raise ParseError(reader.line_num, str(exc)) from None
        rating = math.nan
        text = row[pr].strip() if pr < n else None
        if text:
            try:
                rating = float(text)
            except ValueError:
                raise ParseError(reader.line_num, f"unparseable rating {text!r}") from None
            if not 0.0 <= rating <= 5.0:
                raise ParseError(reader.line_num, f"rating {rating} outside [0, 5]")
        ts.append(t)
        users.append(user)
        items.append(item)
        ratings.append(rating)
    return ts, users, items, ratings


def filter_positive(stream: LinkStream, rating_floor: float = 2.5) -> LinkStream:
    """Keep only positive feedback: rating >= floor and >= the user's mean.

    The per-user mean is computed over the *input* stream. Every event
    must carry a rating, and the floor must be finite. The result may be
    empty.
    """
    if not math.isfinite(rating_floor):
        raise ValueError(f"rating_floor must be finite, got {rating_floor}")
    c = stream.columns
    if np.isnan(c.rating).any():
        raise ValueError("rating required for positive filtering")
    # bincount adds the weights one event at a time, in event order, so the
    # sums (and means) equal those of a loop over the events.
    totals = np.bincount(c.user_code, weights=c.rating)[c.user_code]
    counts = np.bincount(c.user_code)[c.user_code]
    return stream._take((c.rating >= rating_floor) & (c.rating >= totals / counts))


def filter_min_activity(stream: LinkStream, cfg: FilterConfig) -> LinkStream:
    """Drop events of under-active users/items until both thresholds hold.

    Removal cascades: losing a user's events can push an item below its
    threshold and vice versa, so the rule is iterated to a fixed point.
    The result may be empty.
    """
    c = stream.columns
    rows = np.arange(len(stream))
    while len(rows):
        user, item = c.user_code[rows], c.item_code[rows]
        bad = (np.bincount(user) < cfg.sigma_u)[user] | (np.bincount(item) < cfg.sigma_i)[item]
        if not bad.any():
            break
        rows = rows[~bad]
    return stream._take(rows)


def window_index(t: float, alpha: float, omega: float, n: int) -> int:
    """1-based window index of time t in an n-way equal split of [alpha, omega].

    Window k covers [start, end) except the last, which is closed at
    omega; its edges are the exact rationals of :class:`Window`, so a
    time on an edge lands in the window that edge starts. A ``ValueError``
    rejects n below 1, a span that is not positive and t outside it.
    """
    if n < 1:
        raise ValueError(f"need at least one window, got {n}")
    if not omega > alpha:
        raise ValueError("time span must have positive duration to split")
    if not alpha <= t <= omega:
        raise ValueError(f"time {t} outside [{alpha}, {omega}]")
    a = Fraction(alpha)
    return min(math.floor((Fraction(t) - a) * n / (Fraction(omega) - a)) + 1, n)


def split_windows(stream: LinkStream, n: int) -> list[tuple[Window, LinkStream]]:
    """Split [alpha, omega] into n equal windows and bin the events.

    Each event lands in the one window :func:`window_index` names; the
    sub-streams, possibly empty, concatenate to the input events.
    """
    if n < 2:
        raise ValueError("a train/test split needs at least two windows")
    alpha, omega = stream.time_span
    if not omega > alpha:
        raise ValueError("time span must have positive duration to split")
    a = Fraction(alpha)
    edges = [a + (Fraction(omega) - a) * k / n for k in range(n + 1)]
    # Window k is the run of sorted events from edges[k - 1] on; ``item()``
    # gives a Python int or float, which compares exactly with a Fraction.
    t = stream.columns.t
    bounds = [bisect_left(t, edge, key=lambda x: x.item()) for edge in edges[:-1]] + [len(t)]
    return [
        (Window(k, edges[k - 1], edges[k]),
         stream.slice(bounds[k - 1], bounds[k], (edges[k - 1], edges[k])))
        for k in range(1, n + 1)
    ]
