"""The sliding-window evaluation protocol: train on windows 1..k,
test on window k+1, decompose F1/HR/MAP into numerators and
denominators, then time-average across folds.

Run from the repository root:  python demos/04_windowed_evaluation.py
"""

from linkrec import Event, LinkStream, ParamSetting, iter_folds, run_protocol
from linkrec.evaluation import FoldGraph, report_csv

# A synthetic stream with drift: every user keeps moving on to new items,
# so each fold has something to predict.
events = []
for u in range(6):
    for step in range(12):
        events.append(Event(1 + step * 33 + u, f"u{u}", f"i{(u + step) % 10}"))
# u6 shows up once, then picks only an item nobody had picked before.
events += [Event(5, "u6", "i0"), Event(150, "u6", "fresh")]
stream = LinkStream.from_events(events, time_span=(0, 400))

# Folds pair a growing training stream with the next window as test set.
# A user is evaluated only if they were seen in training AND picked at
# least one new item in the test window. Only items of the training
# graph can be recommended, so an evaluated user whose new items are all
# absent from it (u6 in fold 1) scores no hit: the protocol counts them
# with zero hits and ranks only the others.
for fold in iter_folds(stream, 4):
    ranked = FoldGraph.build(fold, "lsg", None, 0.2).users
    print(
        f"fold {fold.k}: train={len(fold.train)} events, "
        f"test={len(fold.test)} events, evaluated users={sorted(fold.truth)}, "
        f"ranked users={ranked}"
    )

# run_protocol scores every fold for one setting and one graph flavor.
report = run_protocol(
    stream, "lsg", ParamSetting(alpha=0.3, n=5, eta_s=0.2), n_windows=8
)
print("\nper-window components (window, users, F1 num/den, HR num/den):")
for c in report.windows:
    label = "skipped" if c.skipped else ""
    print(f"  W{c.window}: users={c.users:2d} f1={c.f1} hr={c.hr} {label}")

print(f"\ntime-averaged: F1={report.ta_f1:.4f} HR={report.ta_hr:.4f} "
      f"MAP={report.ta_map:.4f}")

# Reports serialize to JSON (full structure) and to a flat CSV with one
# row per (window, metric) for spreadsheets.
print("\nCSV head:")
for line in report_csv(report).splitlines()[:4]:
    print(" ", line)
