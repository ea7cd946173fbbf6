"""tools/output_hashes.py runs end to end on one seed's smoke streams."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNS = ["protocol-lsg", "campaign-lsg", "bip-grid", "stg-56", "stg-key"]


def test_output_hashes_prints_one_line_per_output_and_seed():
    done = subprocess.run(
        [sys.executable, "tools/output_hashes.py", "--seeds", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    hashes = [line for line in lines if not line.startswith("recomputed ")]
    outputs = ["report", "leaderboard", "leaderboard", "leaderboard", "reports"]
    assert [line.split()[0] for line in hashes] == [
        "protocol-lsg/stream", "campaign-lsg/stream", "protocol-lsg/folds",
    ] + [
        f"{run}/{part}" for run, output in zip(RUNS, outputs)
        for part in (output, "warnings", "debug")
    ]
    assert all(re.fullmatch(r"\S+ seed=1 [0-9a-f]{64}( recomputed=\d+)?", line)
               for line in hashes)
    counts = {line.split()[0]: int(line.split("recomputed=")[1])
              for line in hashes if "/debug" in line}
    totals = dict(line.split()[1:] for line in lines if line.startswith("recomputed run="))
    assert totals == {f"run={run}": f"total={counts[run + '/debug']}" for run in RUNS}
    flavors = [line.split()[1] for line in lines if line.startswith("recomputed flavor=")]
    assert flavors == ["flavor=bip", "flavor=lsg", "flavor=stg"]
    # a lone alpha never uses the shared series
    assert counts["protocol-lsg/debug"] == 0
