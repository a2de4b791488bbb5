"""Outside-in span tracer for the traced benchmark run.

Spans are recorded only from the benchmark's own files. While a traced phase
runs, the tracer swaps a timing wrapper in for each public library function
and method listed below, at the place its callers look it up, and puts the
original back afterwards; the library itself is never edited. ``engine`` and
``mia`` import the ``nn``, ``data`` and ``costs`` functions by name, so those
are wrapped in the importing module; the functions the benchmark calls itself
are wrapped on the ``mubench`` package, which no library module calls through.

Each span is ``[name, start, end, parent, request, phase, rows, flops]``:
``parent`` is the index of the enclosing span (-1 at top level), ``request``
the index of the request being served (-1 outside a request), ``phase`` one of
``setup``, ``stream``, ``after`` (evaluation and audits after a stream) or
``restart``. ``rows`` and ``flops`` are
filled for ``nn.loss_grad`` only. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children. The run is single-threaded, so children never overlap each other
and always lie inside their parent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import mubench
import mubench.engine
import mubench.mia
from mubench import SlicePlan, StateStore, UnlearnEngine

# (span name, owner, attribute) of every traced call boundary.
TRACED = (
    ("nn.loss_grad", mubench.engine, "loss_grad"),
    ("nn.adam_step", mubench.engine, "adam_step"),
    ("nn.combine", mubench.engine, "combine"),
    ("nn.evaluate", mubench, "evaluate"),
    ("data.gen_synthetic", mubench, "gen_synthetic"),
    ("data.split_dataset", mubench, "split_dataset"),
    ("data.make_slice_plan", mubench.engine, "make_slice_plan"),
    ("data.locate", SlicePlan, "locate"),
    ("data.tombstone", SlicePlan, "tombstone"),
    ("data.batch_ids", SlicePlan, "batch_ids"),
    ("costs.threshold", mubench.engine, "compute_threshold"),
    ("store.persist", StateStore, "persist"),
    ("store.load", StateStore, "load"),
    ("store.recorded_batch_index", StateStore, "recorded_batch_index"),
    ("store.set_tombstones", StateStore, "set_tombstones"),
    ("store.get_increment", StateStore, "get_increment"),
    ("store.get_checkpoint", StateStore, "get_checkpoint"),
    ("store.put_checkpoint", StateStore, "put_checkpoint"),
    ("store.record_increment", StateStore, "record_increment"),
    ("store.mark_consumed", StateStore, "mark_consumed"),
    ("engine.train", UnlearnEngine, "train"),
    ("engine.fit", UnlearnEngine, "fit"),
    ("engine.dispatch", UnlearnEngine, "dispatch"),
    ("engine.from_store", UnlearnEngine, "from_store"),
    ("engine.clone", UnlearnEngine, "clone"),
    ("mia.train_shadows", mubench, "train_shadows"),
    ("mia.fit_dense", mubench.mia, "fit_dense"),
    ("mia.build_attack_dataset", mubench, "build_attack_dataset"),
    ("mia.train_attack", mubench, "train_attack"),
    ("mia.audit", mubench, "audit"),
)

NAME, START, END, PARENT, REQUEST, PHASE, ROWS, FLOPS = range(8)
ONCE_PHASES = ("setup",)  # once per traced run; the other phases once per episode


def gemm_flops_per_row(layout) -> int:
    """GEMM flops of one loss_grad row, from the layer shapes alone.

    Forward and weight-gradient products cost 2*in*out per row and layer; the
    backpropagated delta costs the same for every layer but the first.
    Elementwise work (bias, ReLU, softmax) is not counted.
    """
    macs = [fan_in * fan_out for fan_in, fan_out in layout.layer_shapes()]
    return 2 * (2 * sum(macs) + sum(macs[1:]))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._open: list[int] = []
        self._phase = ""

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.request, self._phase, 0, 0]
            if name == "nn.loss_grad":
                params, batch = args[0], args[1]
                span[ROWS] = len(batch)
                span[FLOPS] = len(batch) * gemm_flops_per_row(params.layout)
            open_.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_.pop()

        return traced

    @contextlib.contextmanager
    def phase(self, phase: str):
        """Install every wrapper for the duration of one traced phase."""
        originals = []
        self._phase = phase
        try:
            for name, owner, attr in TRACED:
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)
            self.request = -1

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def accounting(spans: list[list], selfs: list[float], lo: int, hi: int,
               start: float, end: float) -> tuple[float, float]:
    """(span self time, harness time) of the stream window [start, end].

    ``spans[lo:hi]`` are the spans recorded in the window. Harness time is
    the sum of the gaps between consecutive top-level spans: the benchmark's
    own work between library calls. The two add up to the window's wall time
    only if every span closed inside the window and no spans overlap.
    """
    tops = [s for s in spans[lo:hi] if s[PARENT] < 0]
    edges = [start] + [t for s in tops for t in (s[START], s[END])] + [end]
    gaps = sum(b - a for a, b in zip(edges[::2], edges[1::2]))
    return sum(selfs[lo:hi]), gaps


class LayerTotals:
    """Per-span-name totals, with each-episode phases averaged per episode."""

    def __init__(self, spans: list[list], selfs: list[float], episodes: int) -> None:
        groups = {"once": defaultdict(Counter), "episode": defaultdict(Counter)}
        for span, own in zip(spans, selfs):
            group = groups["once" if span[PHASE] in ONCE_PHASES else "episode"]
            totals = group[span[NAME]]
            totals["calls"] += 1
            totals["self_s"] += own
            totals["wall_s"] += span[END] - span[START]
            totals["rows"] += span[ROWS]
            totals["flops"] += span[FLOPS]
            if span[REQUEST] >= 0:
                totals["request_rows"] += span[ROWS]
        self._once, self._episode, self._n = groups["once"], groups["episode"], max(episodes, 1)

    def get(self, name: str, key: str) -> float:
        return self._once[name][key] + self._episode[name][key] / self._n
