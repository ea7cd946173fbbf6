"""The benchmark's traced run still finds every library function it
wraps, and every layer it reports is reached, on each graph flavor."""

from pathlib import Path

import pytest

from linkrec import evaluation, tuning
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
