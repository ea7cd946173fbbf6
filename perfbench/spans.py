"""Spans around the library's module-level functions, wrapped from outside.

:meth:`Tracer.install` replaces each target function, in every
``linkrec`` module that holds it, with a wrapper that records a span (name, start,
end, parent, run id) and a few counts read from the call's arguments
and result. Spans stay in memory until :meth:`Tracer.dump`. A target
that no longer exists, or whose counts can no longer be read, is listed
in ``Tracer.missing`` and the run goes on without it.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

# (module, function, span name). build_graph only dispatches, so the
# three builders are wrapped instead; _evaluate_fold is the fold span
# whose self time is ranking and selection.
TARGETS = (
    ("linkrec.linkstream", "parse_link_stream", "linkstream.parse"),
    ("linkrec.linkstream", "filter_positive", "linkstream.filter_positive"),
    ("linkrec.linkstream", "filter_min_activity", "linkstream.filter_min_activity"),
    ("linkrec.evaluation", "iter_folds", "evaluation.iter_folds"),
    ("linkrec.evaluation", "run_protocol", "evaluation.run_protocol"),
    ("linkrec.evaluation", "_evaluate_fold", "evaluation.fold"),
    ("linkrec.graphs", "build_bip", "graphs.build"),
    ("linkrec.graphs", "build_stg", "graphs.build"),
    ("linkrec.graphs", "build_lsg", "graphs.build"),
    ("linkrec.ranker", "transition_matrix", "ranker.transition_matrix"),
    ("linkrec.ranker", "item_matrix", "ranker.item_matrix"),
    ("linkrec.ranker", "personalization_matrix", "ranker.personalization_matrix"),
    ("linkrec.ranker", "pagerank_batch", "ranker.pagerank"),
    ("linkrec.tuning", "search", "tuning.search"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _stream_counts(args, kwargs, result) -> dict:
    return {"events": len(result)}


def _graph_counts(args, kwargs, result) -> dict:
    stream = args[0]
    # One graph per training stream and parameters; a fold's training
    # stream is identified by its span and size.
    key = repr((stream.time_span, len(stream), args[1:], sorted(kwargs.items())))
    return {"nodes": result.n_nodes, "edges": result.n_edges, "key": key}


def _pagerank_counts(args, kwargs, result) -> dict:
    tm, block = args[0], args[1]
    scores, converged, iterations = result
    matrix = tm.matrix
    csr_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    # One sparse-times-dense product per step: read the CSR arrays and
    # the dense block, write a block of the same shape.
    block_bytes = 2 * matrix.shape[0] * block.shape[1] * scores.dtype.itemsize
    return {
        "columns": block.shape[1],
        "iterations": iterations,
        "unconverged": 0 if converged else 1,
        "flops": 2 * matrix.nnz * block.shape[1] * iterations,
        "bytes": (csr_bytes + block_bytes) * iterations,
    }


COUNTERS = {
    "linkstream.parse": _stream_counts,
    "linkstream.filter_positive": _stream_counts,
    "linkstream.filter_min_activity": _stream_counts,
    "graphs.build": _graph_counts,
    "ranker.pagerank": _pagerank_counts,
}


class Tracer:
    """In-memory span recorder; ``run`` tags the spans of one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.run = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.run)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    if f"{name}:counts" not in self.missing:
                        self.missing.append(f"{name}:counts")
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a ``linkrec`` module imported it."""
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "linkrec" and not mod_name.startswith("linkrec."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def dump(self, path, meta: dict) -> None:
        payload = {"meta": meta, "missing": self.missing,
                   "spans": [asdict(s) for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``offset`` is the index of ``spans[0]`` in the tracer's list, which
    parent indices refer to. Calls nest without overlap in one thread.
    """
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None and s.parent >= offset:
            own[s.parent - offset] -= s.seconds
    return own


def layer_metrics(spans: list[Span], offset: int, missing: list[str]) -> dict:
    """Per-layer values of one pass, from its spans alone."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    own = self_times(spans, offset)

    def total(name: str) -> float:
        return sum(spans[i].seconds for i in by_name.get(name, ()))

    def count(name: str, key: str) -> float:
        return sum(spans[i].counts.get(key, 0) for i in by_name.get(name, ()))

    def last_count(name: str, key: str) -> float:
        found = by_name.get(name)
        return spans[found[-1]].counts.get(key, 0) if found else 0

    builds = by_name.get("graphs.build", [])
    keys = {spans[i].counts.get("key") for i in builds}
    pagerank_s = total("ranker.pagerank")
    iterations = count("ranker.pagerank", "iterations")
    searches = {offset + i for i in by_name.get("tuning.search", ())}
    settings = sorted(
        spans[i].seconds
        for i in by_name.get("evaluation.run_protocol", ())
        if spans[i].parent in searches
    )
    if len(settings) >= 2:
        p50 = statistics.median(settings)
        p80 = statistics.quantiles(settings, n=5)[-1]
    else:
        p50 = p80 = settings[0] if settings else 0.0

    # A pass may load its stream several times; report one load.
    loads = max(1, len(by_name.get("linkstream.parse", ())))
    return {
        "linkstream.parse_s": total("linkstream.parse") / loads,
        "linkstream.filter_positive_s": total("linkstream.filter_positive") / loads,
        "linkstream.filter_min_activity_s": total("linkstream.filter_min_activity") / loads,
        "linkstream.events_in": last_count("linkstream.parse", "events"),
        "linkstream.events_kept": last_count("linkstream.filter_min_activity", "events"),
        "evaluation.iter_folds_s": total("evaluation.iter_folds"),
        "evaluation.iter_folds_calls": len(by_name.get("evaluation.iter_folds", ())),
        "graphs.build_s": total("graphs.build"),
        "graphs.build_calls": len(builds),
        "graphs.nodes": count("graphs.build", "nodes"),
        "graphs.edges": count("graphs.build", "edges"),
        "ranker.transition_matrix_s": total("ranker.transition_matrix"),
        "ranker.item_matrix_s": total("ranker.item_matrix"),
        "ranker.personalization_matrix_s": total("ranker.personalization_matrix"),
        "ranker.pagerank_s": pagerank_s,
        "ranker.pagerank_calls": len(by_name.get("ranker.pagerank", ())),
        "ranker.iterations": iterations,
        "ranker.s_per_iteration": pagerank_s / iterations if iterations else 0.0,
        "ranker.columns": count("ranker.pagerank", "columns"),
        "ranker.unconverged_calls": count("ranker.pagerank", "unconverged"),
        "ranker.spmm_flops_computed": count("ranker.pagerank", "flops"),
        "ranker.spmm_bytes_computed": count("ranker.pagerank", "bytes"),
        # Protocol and fold time outside the wrapped calls: restart
        # lookup, seen-item masking, top-N selection, metric components.
        "evaluation.rank_select_self_s": sum(
            own[i]
            for name in ("evaluation.run_protocol", "evaluation.fold")
            for i in by_name.get(name, ())
        ),
        "tuning.settings": len(settings),
        "tuning.setting_p50_s": p50,
        "tuning.setting_p80_s": p80,
        "tuning.graph_reuse_ratio": len(keys) / len(builds) if builds else 0.0,
        "trace.missing": len(missing),
    }
