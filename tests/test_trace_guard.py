"""The benchmark's traced run still finds every library function it
wraps, and every layer it reports is reached, on each graph flavor."""

from pathlib import Path

import pytest

from linkrec import evaluation, linkstream, tuning
from linkrec.tuning import ParamGrid, ParamSetting

from conftest import make_stream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Span names a protocol run and a search each record at least once.
LAYERS = {
    "evaluation.iter_folds",
    "evaluation.fold",
    "graphs.build",
    "ranker.transition_matrix",
    "ranker.item_matrix",
    "ranker.personalization_matrix",
    "ranker.pagerank",
}


@pytest.mark.parametrize("flavor", ["bip", "stg", "lsg"])
def test_tracer_wraps_every_target(flavor, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    stream = make_stream(9, n_users=8, n_items=12, n_events=120)
    params = ParamSetting(alpha=0.3, n=5, delta=100.0, beta=0.5, eta_s=0.5)
    grid = ParamGrid(delta=(100.0,), beta=(0.5,), eta_s=(0.5,), alpha=(0.3, 0.5))
    tracer = spans.Tracer()
    tracer.install()
    try:
        # through module attributes, which the tracer replaces
        evaluation.run_protocol(stream, flavor, params, n_windows=4)
        protocol = {s.name for s in tracer.spans}
        tuning.search(stream, flavor, grid=grid, count=2, seed=0, n=5, n_windows=4)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert LAYERS | {"evaluation.run_protocol"} <= protocol
    assert LAYERS | {"tuning.search"} <= {s.name for s in tracer.spans}


def test_tracer_times_loading(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # u9's single event is rated 5 and survives the positive filter, then
    # falls to the activity filter; u1's 1.0 falls below its own mean.
    lines = [f"u{k % 3}\ti{k % 4}\t{100 + k}\t5" for k in range(24)]
    lines += ["u1\ti0\t200\t1.0", "u9\ti1\t300\t5"]
    path = tmp_path / "rated.tsv"
    path.write_text("\n".join(lines) + "\n")
    tracer = spans.Tracer()
    tracer.install()
    try:
        # through module attributes, which the tracer replaces
        stream = linkstream.parse_link_stream(path)
        stream = linkstream.filter_positive(stream, 2.5)
        stream = linkstream.filter_min_activity(stream, linkstream.FilterConfig(2, 2))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert [(s.name, s.counts) for s in tracer.spans] == [
        ("linkstream.parse", {"events": 26}),
        ("linkstream.filter_positive", {"events": 25}),
        ("linkstream.filter_min_activity", {"events": 24}),
    ]
    layers = spans.layer_metrics(tracer.spans, 0, tracer.missing)
    assert (layers["linkstream.events_in"], layers["linkstream.events_kept"]) == (26, 24)
    assert all(layers[f"linkstream.{stage}_s"] > 0
               for stage in ("parse", "filter_positive", "filter_min_activity"))
