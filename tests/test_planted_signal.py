"""The paper's comparison on streams where the answer is known.

Each user walks a ring of items: their next item is 1-3 steps on with
probability 0.9, and uniform otherwise. Recent items then predict the
next ones, so the graphs that see recency should rank better: TA-F1
LSG > STG > BIP. Permuting the event times keeps every (user, item)
pair and removes that signal; on this control LSG, which follows each
user's latest items, must fall below BIP, which ignores time.

The seeds and settings are fixed in advance, not chosen by outcome.
Each case prints its TA-F1 values and margins (``pytest -s``).
"""

import random

import pytest

from linkrec.evaluation import run_protocol
from linkrec.linkstream import Event, LinkStream
from linkrec.tuning import DAY, ParamSetting

HOUR = 3600
N = 10
WINDOWS = 8
SETTINGS = {
    "bip": ParamSetting(alpha=0.3, n=N),
    "stg": ParamSetting(alpha=0.3, n=N, delta=7 * DAY, beta=0.5, eta_s=0.5),
    "lsg": ParamSetting(alpha=0.3, n=N, eta_s=0.5),
}


def planted_stream(
    seed: int, control: bool = False, n_users: int = 120, n_items: int = 300,
    n_events: int = 2400,
) -> LinkStream:
    """Ring walks, one event an hour by a uniformly drawn user; with
    ``control``, the same (user, item) pairs at permuted times."""
    rng = random.Random(seed)
    position = [rng.randrange(n_items) for _ in range(n_users)]
    picks = []
    for _ in range(n_events):
        user = rng.randrange(n_users)
        if rng.random() < 0.9:
            position[user] = (position[user] + rng.randint(1, 3)) % n_items
        else:
            position[user] = rng.randrange(n_items)
        picks.append((user, position[user]))
    times = [HOUR * k for k in range(n_events)]
    if control:
        rng.shuffle(times)
    return LinkStream.from_events(
        Event(t, f"u{user}", f"i{item}") for t, (user, item) in zip(times, picks)
    )


def ta_f1(stream: LinkStream) -> dict[str, float]:
    return {
        flavor: run_protocol(stream, flavor, params, n_windows=WINDOWS, workers=1).ta_f1
        for flavor, params in SETTINGS.items()
    }


def test_planted_stream_keeps_its_pairs_and_times():
    planted, control = planted_stream(0), planted_stream(0, control=True)
    assert len(planted) == len(control) == 2400
    assert sorted(planted.columns.t.tolist()) == sorted(control.columns.t.tolist())
    pairs = sorted((ev.user, ev.item) for ev in planted.events)
    assert sorted((ev.user, ev.item) for ev in control.events) == pairs


@pytest.mark.parametrize("seed", range(8))
def test_recency_graphs_win_on_a_planted_signal(seed):
    f1 = ta_f1(planted_stream(seed))
    print(f"planted seed {seed}: {f1}, LSG-STG {f1['lsg'] - f1['stg']:+.4f}, "
          f"STG-BIP {f1['stg'] - f1['bip']:+.4f}")
    assert f1["lsg"] > f1["stg"] > f1["bip"]


@pytest.mark.parametrize("seed", range(8))
def test_lsg_falls_below_bip_when_times_are_permuted(seed):
    f1 = ta_f1(planted_stream(seed, control=True))
    print(f"control seed {seed}: {f1}, BIP-LSG {f1['bip'] - f1['lsg']:+.4f}")
    assert f1["lsg"] < f1["bip"]
