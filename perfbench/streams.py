"""Seeded synthetic link streams and the reference values they imply.

The generator draws Zipf-skewed users and items, uniform integer
timestamps over three years and, for rated streams, integer ratings 1-5.
Only the written TSV reaches the library. The reference functions
recompute, in plain Python and independently of the library, what the
library's outputs must satisfy: the events kept by the filters and the
evaluated users of every fold.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict
from dataclasses import dataclass

T0 = 1_500_000_000
SPAN_SECONDS = 3 * 365 * 86400
USER_SKEW = 0.8
ITEM_SKEW = 1.0


@dataclass(frozen=True)
class StreamShape:
    events: int
    users: int
    items: int
    rated: bool


def generate(seed: int, shape: StreamShape) -> list[tuple]:
    """``shape.events`` distinct (t, user, item, rating) tuples.

    ``rating`` is None for unrated streams. No two events share
    (t, user, item), so parsing drops nothing as a duplicate.
    """
    rng = random.Random(seed)
    user_weights = list(
        itertools.accumulate(r ** -USER_SKEW for r in range(1, shape.users + 1))
    )
    item_weights = list(
        itertools.accumulate(r ** -ITEM_SKEW for r in range(1, shape.items + 1))
    )
    ranks_u, ranks_i = range(shape.users), range(shape.items)
    seen: set[tuple] = set()
    out = []
    while len(out) < shape.events:
        u = rng.choices(ranks_u, cum_weights=user_weights)[0]
        i = rng.choices(ranks_i, cum_weights=item_weights)[0]
        t = T0 + rng.randrange(SPAN_SECONDS)
        rating = rng.randint(1, 5) if shape.rated else None
        if (t, u, i) in seen:
            continue
        seen.add((t, u, i))
        out.append((t, f"u{u}", f"i{i}", rating))
    return out


def write_tsv(events: list[tuple], path) -> None:
    """One `user<TAB>item<TAB>t[<TAB>rating]` line per event."""
    with open(path, "w", encoding="utf-8") as fh:
        for t, user, item, rating in events:
            tail = "" if rating is None else f"\t{rating}"
            fh.write(f"{user}\t{item}\t{t}{tail}\n")


def reference_filter(
    events: list[tuple], rating_floor: float | None, sigma_u: int, sigma_i: int
) -> list[tuple]:
    """Events kept by the positive filter (when ``rating_floor`` is set)
    followed by the cascading minimum-activity filter."""
    kept = list(events)
    if rating_floor is not None:
        totals: Counter = Counter()
        counts: Counter = Counter()
        for _, user, _, rating in kept:
            totals[user] += rating
            counts[user] += 1
        kept = [
            ev
            for ev in kept
            if ev[3] >= rating_floor and ev[3] >= totals[ev[1]] / counts[ev[1]]
        ]
    while kept:
        users = Counter(ev[1] for ev in kept)
        items = Counter(ev[2] for ev in kept)
        survivors = [
            ev for ev in kept if users[ev[1]] >= sigma_u and items[ev[2]] >= sigma_i
        ]
        if len(survivors) == len(kept):
            break
        kept = survivors
    return kept


def stream_stats(events: list[tuple]) -> dict:
    """Events, users, items and distinct (user, item) pairs."""
    return {
        "events": len(events),
        "users": len({ev[1] for ev in events}),
        "items": len({ev[2] for ev in events}),
        "pairs": len({(ev[1], ev[2]) for ev in events}),
    }


def reference_folds(
    events: list[tuple], span: tuple[int, int], n_windows: int, n: int
) -> list[dict]:
    """Per fold k = 1..n_windows-1: training size, evaluated users and
    the F1 denominator, the sum over users of |new items| + n.

    Windows are equal splits of ``span``, the first and last timestamp
    of the stream before filtering; the last window is closed.
    """
    alpha, omega = span
    by_window: dict[int, list[tuple]] = defaultdict(list)
    for ev in events:
        k = min((ev[0] - alpha) * n_windows // (omega - alpha) + 1, n_windows)
        by_window[k].append(ev)
    train_items: dict[str, set] = defaultdict(set)
    train_size = 0
    out = []
    for k in range(1, n_windows):
        for _, user, item, _ in by_window[k]:
            train_items[user].add(item)
        train_size += len(by_window[k])
        test_items: dict[str, set] = defaultdict(set)
        for _, user, item, _ in by_window[k + 1]:
            test_items[user].add(item)
        new_counts = [
            len(items - train_items[user])
            for user, items in test_items.items()
            if user in train_items and items - train_items[user]
        ]
        out.append(
            {
                "window": k,
                "train_events": train_size,
                "users": len(new_counts),
                "f1_den": float(sum(c + n for c in new_counts)),
            }
        )
    return out
