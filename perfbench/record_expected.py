"""Record the outputs that run.py compares exactly, for a range of seeds.

    python3 perfbench/record_expected.py --first 0 --last 31

Records, per seed, the protocol report's per-window users and metric
numerators and denominators, and the campaign leaderboard's rows. Run it
only on library code whose outputs are known good: every later version
is checked against these values. Each output must first pass the
seed-independent checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=31)
    args = parser.parse_args(argv)
    error = run.import_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import streams
    import workloads

    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "record.tsv"
    recorded = {}
    try:
        for name, record in workloads.RECORDERS.items():
            workload = workloads.WORKLOADS[name]
            seeds = {}
            for seed in range(args.first, args.last + 1):
                events = streams.generate(seed, workload.shape)
                streams.write_tsv(events, path)
                ref = workloads.reference(events, workload, None)
                output = workload.run(workloads.load(path, workload))
                failed = workload.check(output, ref)
                if failed:
                    print(f"error: {name} seed {seed}: {failed} checks failed",
                          file=sys.stderr)
                    return 1
                seeds[str(seed)] = record(output)
                print(f"{name} seed {seed} recorded", flush=True)
            recorded[name] = {"shape": list(dataclasses.astuple(workload.shape)),
                              "seeds": seeds}
    finally:
        path.unlink(missing_ok=True)
    run.EXPECTED.write_text(json.dumps(recorded, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
