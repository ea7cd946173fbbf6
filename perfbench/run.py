"""Seeded benchmark of linkrec's protocol run and search campaign.

    python3 perfbench/run.py --workload protocol-lsg --seed 1 --seconds 20 --trace 0

Run from the repository root. The seed fixes the synthetic stream that
is written as TSV and read back through ``parse_link_stream``. One pass
loads the stream (``setup_s``) and then does the workload's work up to
its serialized result (``wall_s``); passes repeat until ``--seconds``
are used up and the medians are reported. Every pass's output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 1 when any check failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half
its time untraced and half with spans around the library's functions,
and reports the per-layer metrics plus ``trace.overhead_s``, the traced
minus the untraced median ``wall_s``. Records of each run (and the spans
of a traced run) are written to ``perfbench/out``.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS/OpenMP thread, so a run measures
# the code and not the scheduler of a shared machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
WORKLOAD_NAMES = ("protocol-lsg", "campaign-lsg")
SETUP_FLOOR_S = 0.3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny streams, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("s_per_iteration"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def recorded_values(name: str, shape, seed: int):
    """Outputs record_expected.py stored for this seed and shape, if any."""
    if not EXPECTED.is_file():
        return None
    entry = json.loads(EXPECTED.read_text()).get(name)
    if entry is None or entry["shape"] != list(dataclasses.astuple(shape)):
        return None
    return entry["seeds"].get(str(seed))


def one_pass(workload, path, ref) -> dict:
    """Load, run, then check outside the timed spans. Locals die on
    return, so a pass never holds the previous pass's output."""
    import workloads

    failed, work, setups, wall = workload.ops, {}, [], 0.0
    try:
        # A small stream loads in milliseconds; repeat so the set-up
        # median rests on enough time to be steady.
        while sum(setups) < SETUP_FLOOR_S:
            stream = None
            t0 = time.perf_counter()
            stream = workloads.load(path, workload)
            setups.append(time.perf_counter() - t0)
        t1 = time.perf_counter()
        output = workload.run(stream)
        wall = time.perf_counter() - t1
        failed = workload.check(output, ref)
        work = workload.work(output)
    except Exception:
        traceback.print_exc()
    return {"setup_s": setups, "wall_s": wall, "failed": failed, "work": work}


def measure(workload, path, ref, seconds: float, tracer=None) -> list[dict]:
    """Passes until the next one would end after ``seconds``; at least one."""
    import spans

    passes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        offset = 0
        if tracer is not None:
            tracer.run += 1
            offset = len(tracer.spans)
        t0 = time.perf_counter()
        result = one_pass(workload, path, ref)
        result["seconds"] = time.perf_counter() - t0
        if tracer is not None:
            result["layers"] = spans.layer_metrics(
                tracer.spans[offset:], offset, tracer.missing
            )
        passes.append(result)
        elapsed = time.perf_counter() - started
        mean = elapsed / len(passes)
        if elapsed + mean > seconds:
            return passes


def median_of(values) -> float:
    """Median, or 0.0 when every pass failed before measuring anything."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def import_library() -> str | None:
    """Put the checkout's sources first on the path; an error, or None."""
    if not (SRC / "linkrec" / "__init__.py").is_file():
        return f"no linkrec sources in {SRC}"
    sys.path.insert(0, str(SRC))
    import linkrec

    if Path(linkrec.__file__).resolve().parent != SRC / "linkrec":
        return f"imported linkrec from {linkrec.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = import_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import spans
    import streams
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    shape = workload.smoke_shape if args.smoke else workload.shape
    recorded = None if args.smoke else recorded_values(workload.name, shape, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    path = OUT / f"{tag}.tsv"

    events = streams.generate(args.seed, shape)
    streams.write_tsv(events, path)
    generated = streams.stream_stats(events)
    ref = workloads.reference(events, workload, recorded)
    del events
    try:
        if args.trace:
            untraced = measure(workload, path, ref, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = measure(workload, path, ref, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            names = list(traced[0]["layers"])
            metrics = {n: median_of(p["layers"][n] for p in traced) for n in names}
            metrics["trace.overhead_s"] = (
                median_of(p["wall_s"] for p in traced) - median_of(p["wall_s"] for p in untraced)
            )
        else:
            passes = measure(workload, path, ref, args.seconds)
            metrics = {
                "wall_s": median_of(p["wall_s"] for p in passes),
                "setup_s": median_of(t for p in passes for t in p["setup_s"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        path.unlink(missing_ok=True)

    attempted = workload.ops * len(passes)
    failed = sum(p["failed"] for p in passes)
    host = host_info()
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "host": host,
        "stream": {"generated": generated, "kept": ref.stats},
        "recorded_values_checked": recorded is not None,
        "passes": passes, "metrics": metrics,
        "attempted": attempted, "failed": failed,
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.dump(OUT / f"{tag}-spans.json", {"workload": workload.name, "seed": args.seed})

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}")
    print("host    " + "  ".join(f"{k}={v}" for k, v in host.items()))
    for label, stats in (("generated", generated), ("kept", ref.stats)):
        print(f"stream  {label:9s} {stats['events']} events, {stats['users']} users, "
              f"{stats['items']} items, {stats['pairs']} distinct pairs")
    print("work    per pass: " + "  ".join(f"{k}={v}" for k, v in passes[-1]["work"].items())
          + f"  (recorded values checked: {'yes' if recorded is not None else 'no'})")
    if args.trace:
        wall = median_of(p["wall_s"] for p in traced)
        print(f"per-layer medians of {len(traced)} traced passes; "
              f"traced wall_s {wall:.6g} s")
        for name, value in metrics.items():
            timed = name.endswith("_s") and name.startswith(("evaluation.", "graphs.", "ranker."))
            share = f"{value / wall:8.1%} of wall_s" if timed and wall else ""
            print(f"{name:34s} {value:14.6g} {unit(name):6s} {share}")
    else:
        samples = {"wall_s": len(passes), "setup_s": sum(len(p["setup_s"]) for p in passes)}
        for name, value in metrics.items():
            note = f"median of {samples[name]}" if name in samples else "whole run"
            print(f"{name:34s} {value:14.6g} {unit(name):6s} {note}")
    print(f"{'failed_frac':34s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    if args.trace:
        print("missing: " + (", ".join(tracer.missing) or "none"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit(n)} for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
