"""Print sha256 hashes of the library's outputs on the benchmark streams.

Run from the root of a source tree; it imports that tree's ``src/`` and
``perfbench/``:

    python tools/output_hashes.py --seeds 0-31
    python tools/output_hashes.py --seeds 1 --smoke

Each stream is generated and loaded as ``perfbench/run.py`` does it.
Per seed, one line per output:

* ``protocol-lsg/stream`` and ``campaign-lsg/stream`` -- the loaded
  (parsed and filtered) streams: their columns, id tables and time span;
* ``protocol-lsg/folds`` -- every protocol-lsg fold's training items and
  truth (``Fold.train_items`` and ``Fold.truth``), rendered and sorted;
* ``protocol-lsg/report`` -- the protocol-lsg workload's ``report_json``;
* ``campaign-lsg/leaderboard`` -- the campaign-lsg workload's
  ``leaderboard_csv``;
* ``bip-grid/leaderboard`` and ``stg-56/leaderboard`` -- a search over the
  full BIP grid and one of 56 STG settings (sample seed 0), on the
  campaign-lsg stream;
* ``stg-key/reports`` -- the reports of the 35 STG settings with
  delta = 30 days and eta_s = 0.5 (every beta and alpha), scored together
  on the campaign-lsg stream;

and, per run, ``<run>/warnings``, the hash of its WARNING records, and
``<run>/debug``, the hash of its DEBUG records with the count of
recomputed lists taken out, followed by that count. The last lines sum
the counts per run and per graph flavor. Two trees produce the same
outputs when their lines are equal, counts aside.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
RECOMPUTED = re.compile(r", (\d+) lists recomputed$")


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=range(32),
                        help="a seed or an inclusive range A-B (default 0-31)")
    parser.add_argument("--smoke", action="store_true",
                        help="use the workloads' small smoke streams")
    return parser.parse_args(argv)


class Records(logging.Handler):
    """Keeps the formatted messages of every record it handles."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages: list[tuple[int, str]] = []

    def emit(self, record):
        self.messages.append((record.levelno, record.getMessage()))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stream_sha(stream) -> str:
    """Hash of a stream's columns (dtype, shape and bytes), id tables and
    time span."""
    c = stream.columns
    digest = hashlib.sha256()
    for column in (c.t, c.user_code, c.item_code, c.rating):
        digest.update(f"{column.dtype.str} {column.shape}\n".encode())
        digest.update(column.tobytes())
    digest.update(repr((c.users, c.items, stream.time_span)).encode())
    return digest.hexdigest()


def folds_sha(folds) -> str:
    """Hash of each fold's rendered training items and truth, sorted."""
    return sha("".join(
        repr([fold.k] + [sorted((user, sorted(items)) for user, items in sets.items())
                         for sets in (fold.train_items, fold.truth)]) + "\n"
        for fold in folds
    ))


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import linkrec
    from linkrec import evaluation, tuning

    import streams
    import workloads

    if Path(linkrec.__file__).resolve().parent != (ROOT / "src" / "linkrec").resolve():
        print(f"error: imported linkrec from {linkrec.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2
    logger = logging.getLogger("linkrec")
    logger.setLevel(logging.DEBUG)

    def stream_of(name: str, seed: int):
        workload = workloads.WORKLOADS[name]
        shape = workload.smoke_shape if args.smoke else workload.shape
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stream.tsv"
            streams.write_tsv(streams.generate(seed, shape), path)
            return workloads.load(path, workload)

    def search(flavor: str, count: int):
        def run(stream):
            result = tuning.search(stream, flavor, grid=tuning.ParamGrid(), count=count, seed=0,
                                   n=workloads.N, n_windows=workloads.WINDOWS, workers=1)
            return tuning.leaderboard_csv(result)
        return run

    def stg_key(stream):
        settings = [tuning.ParamSetting(alpha=a, n=workloads.N, delta=30 * tuning.DAY, beta=b,
                                        eta_s=0.5)
                    for b in tuning.GRID_BETA for a in tuning.GRID_ALPHA]
        folds = evaluation.iter_folds(stream, workloads.WINDOWS)
        return "".join(evaluation.report_json(o) if isinstance(o, evaluation.EvaluationReport)
                       else repr(o) + "\n"
                       for o in evaluation.evaluate_settings(folds, "stg", settings))

    # (run, output, flavor, stream's workload, the run's output text)
    runs = [
        ("protocol-lsg", "report", "lsg", "protocol-lsg", workloads.run_protocol),
        ("campaign-lsg", "leaderboard", "lsg", "campaign-lsg", workloads.run_campaign),
        ("bip-grid", "leaderboard", "bip", "campaign-lsg",
         search("bip", tuning.ParamGrid().size("bip"))),
        ("stg-56", "leaderboard", "stg", "campaign-lsg", search("stg", 56)),
        ("stg-key", "reports", "stg", "campaign-lsg", stg_key),
    ]
    per_run: Counter = Counter()
    per_flavor: Counter = Counter()
    for seed in args.seeds:
        loaded = {name: stream_of(name, seed) for name in ("protocol-lsg", "campaign-lsg")}
        for name, stream in loaded.items():
            print(f"{name}/stream seed={seed} {stream_sha(stream)}")
        folds = evaluation.iter_folds(loaded["protocol-lsg"], workloads.WINDOWS)
        print(f"protocol-lsg/folds seed={seed} {folds_sha(folds)}")
        for name, output, flavor, workload, run in runs:
            records = Records()
            logger.addHandler(records)
            try:
                text = run(loaded[workload])
            finally:
                logger.removeHandler(records)
            warnings = "".join(m + "\n" for level, m in records.messages
                               if level == logging.WARNING)
            debug, recomputed = [], 0
            for level, message in records.messages:
                if level == logging.DEBUG:
                    found = RECOMPUTED.search(message)
                    if found:
                        recomputed += int(found.group(1))
                        message = message[: found.start()] + ", _ lists recomputed"
                    debug.append(message + "\n")
            per_run[name] += recomputed
            per_flavor[flavor] += recomputed
            print(f"{name}/{output} seed={seed} {sha(text)}")
            print(f"{name}/warnings seed={seed} {sha(warnings)}")
            print(f"{name}/debug seed={seed} {sha(''.join(debug))} recomputed={recomputed}",
                  flush=True)
    for name, count in per_run.items():
        print(f"recomputed run={name} total={count}")
    for flavor, count in sorted(per_flavor.items()):
        print(f"recomputed flavor={flavor} total={count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
