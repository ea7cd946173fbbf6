"""The workloads: how each loads its stream, the timed work, and the
checks on the work's output.

Every library call goes through a module attribute (``evaluation.
run_protocol``, not a name bound at import) so the traced run's
wrappers see it. ``check`` returns the number of operations whose
output is wrong; an operation is a fold for the protocol and a setting
for the campaign.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import jsonschema

from linkrec import evaluation, linkstream, tuning

from streams import StreamShape, reference_filter, reference_folds, stream_stats

WINDOWS = 8
N = 10
PROTOCOL_PARAMS = tuning.ParamSetting(alpha=0.3, n=N, eta_s=0.5)
CAMPAIGN_SEED = 0
# Recorded values are compared to this relative precision, so a change
# in summation order does not count as a wrong result.
REL_TOL = 1e-9


@dataclass
class Reference:
    """What the output of one workload must satisfy, for one stream."""

    stats: dict
    folds: list[dict]
    recorded: list | None


@dataclass(frozen=True)
class Workload:
    name: str
    shape: StreamShape
    smoke_shape: StreamShape
    rating_floor: float | None
    sigma: int
    ops: int
    run: Callable
    check: Callable
    work: Callable


def load(path, workload: Workload):
    """Parse and filter as the command line's stream loading does."""
    stream = linkstream.parse_link_stream(path, fmt="tsv")
    if workload.rating_floor is not None:
        stream = linkstream.filter_positive(stream, workload.rating_floor)
    return linkstream.filter_min_activity(
        stream, linkstream.FilterConfig(sigma_u=workload.sigma, sigma_i=workload.sigma)
    )


def reference(events: list[tuple], workload: Workload, recorded) -> Reference:
    kept = reference_filter(events, workload.rating_floor, workload.sigma, workload.sigma)
    # Filters keep the parsed stream's time span.
    span = (min(ev[0] for ev in events), max(ev[0] for ev in events))
    return Reference(
        stats=stream_stats(kept),
        folds=reference_folds(kept, span, WINDOWS, N),
        recorded=recorded,
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


# --- protocol-lsg: one LSG run_protocol, as `linkrec evaluate` -------------

def run_protocol(stream) -> str:
    report = evaluation.run_protocol(stream, "lsg", PROTOCOL_PARAMS, n_windows=WINDOWS)
    return evaluation.report_json(report, {"graph": "lsg", "windows": WINDOWS})


def protocol_record(text: str) -> list:
    """Per window: users and the F1, HR and MAP numerators and denominators."""
    return [
        [w["users"]] + [w[m][part] for m in ("f1", "hr", "map")
                        for part in ("numerator", "denominator")]
        for w in json.loads(text)["windows"]
    ]


def check_protocol(text: str, ref: Reference) -> int:
    doc = json.loads(text)
    try:
        jsonschema.validate(doc, evaluation.REPORT_SCHEMA)
    except jsonschema.ValidationError:
        return len(ref.folds)
    windows = {w["window"]: w for w in doc["windows"]}
    got = protocol_record(text)
    failed = 0
    for k, fold in enumerate(ref.folds):
        w = windows.get(fold["window"])
        ok = (
            w is not None
            and w["users"] == fold["users"]
            and w["skipped"] == (fold["users"] == 0)
            and w["f1"]["denominator"] == fold["f1_den"]
            and w["hr"]["denominator"] == fold["users"]
            and w["map"]["denominator"] == fold["users"]
        )
        if ok and ref.recorded is not None:
            ok = k < len(got) and all(map(_close, got[k], ref.recorded[k]))
        failed += not ok
    return failed


def protocol_work(text: str) -> dict:
    return {"rankings": sum(w["users"] for w in json.loads(text)["windows"])}


# --- campaign-lsg: search over the whole LSG grid, as `linkrec search` -----

def run_campaign(stream) -> str:
    grid = tuning.ParamGrid()
    result = tuning.search(
        stream, "lsg", grid=grid, count=grid.size("lsg"), seed=CAMPAIGN_SEED,
        n=N, n_windows=WINDOWS, workers=1,
    )
    return tuning.leaderboard_csv(result)


def campaign_record(text: str) -> list:
    """Leaderboard rows in order: sample index and the three TA values."""
    return [
        [int(row["sample_index"]), float(row["TA_F1"]), float(row["TA_HR"]),
         float(row["TA_MAP"])]
        for row in csv.DictReader(io.StringIO(text))
    ]


def check_campaign(text: str, ref: Reference) -> int:
    grid = tuning.ParamGrid()
    combos = list(product(grid.eta_s, grid.alpha))
    rows = list(csv.DictReader(io.StringIO(text)))
    failed = max(0, len(combos) - len(rows))
    previous = None
    for pos, row in enumerate(rows[: len(combos)]):
        try:
            index = int(row["sample_index"])
            values = [float(row[k]) for k in ("TA_F1", "TA_HR", "TA_MAP")]
            setting = (float(row["eta_s"]), float(row["alpha"]))
        except (KeyError, ValueError):
            failed += 1
            continue
        ok = (
            row["status"] == "ok"
            and 0 <= index < len(combos)
            and setting == combos[index]
            and all(0.0 <= v <= 1.0 for v in values)
            and (previous is None or (-previous[1], previous[0]) <= (-values[0], index))
        )
        if ok and ref.recorded is not None:
            want = ref.recorded[pos]
            ok = index == want[0] and all(map(_close, values, want[1:]))
        failed += not ok
        previous = (index, values[0])
    return failed


def campaign_work(text: str) -> dict:
    return {"settings": len(campaign_record(text))}


# Sizes keep a pass to a few seconds, so one run of BENCHMARK.json's
# run_seconds reports a median over about ten passes or more.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="protocol-lsg",
            shape=StreamShape(events=22_000, users=700, items=1_800, rated=True),
            smoke_shape=StreamShape(events=800, users=60, items=120, rated=True),
            rating_floor=2.5,
            sigma=3,
            ops=WINDOWS - 1,
            run=run_protocol,
            check=check_protocol,
            work=protocol_work,
        ),
        Workload(
            name="campaign-lsg",
            shape=StreamShape(events=800, users=120, items=300, rated=False),
            smoke_shape=StreamShape(events=200, users=15, items=30, rated=False),
            rating_floor=None,
            sigma=1,
            ops=tuning.ParamGrid().size("lsg"),
            run=run_campaign,
            check=check_campaign,
            work=campaign_work,
        ),
    )
}

RECORDERS = {"protocol-lsg": protocol_record, "campaign-lsg": campaign_record}
