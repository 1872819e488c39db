"""Span tracer that times calls into su3lab from outside the package.

Each traced layer is a public function (or RepPoint's validation hook).
`from .su3 import exp_algebra` binds the same function object under a new
name in every importing module, so the tracer replaces the function in
every su3lab namespace that binds it, not only in its defining module;
patching `su3` alone would miss the calls made from `flows`, `fiber` and
`mcg`.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields

import numpy as np

from su3lab.errors import Su3LabError


def _rows(args) -> int:
    """Stack rows of the first array argument with batch axes, else 1."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            return int(np.prod(arg.shape[:-2])) if arg.ndim > 2 else 1
    return 1


def _flow_work(args) -> int:
    # flow_walk_stack(a, b, steps, rng): one unit is one row advanced one step.
    return _rows(args) * int(args[2])


def _word_work(args) -> int:
    # apply_word_stack(indices, a, b): one unit is one row advanced one letter.
    return int(np.asarray(args[0]).size)


@dataclass(frozen=True)
class Layer:
    """A traced function: its defining module, attribute path and work count."""

    module: str
    attr: str
    work: object = None

    @property
    def name(self) -> str:
        short = self.module.rsplit(".", 1)[-1]
        attr = self.attr.replace("RepPoint.__post_init__", "RepPoint.validate")
        return f"{short}.{attr}"


LAYERS = (
    Layer("su3lab.su3", "renormalize"),
    Layer("su3lab.su3", "exp_algebra"),
    Layer("su3lab.su3", "haar_random"),
    Layer("su3lab.flows", "flow_walk_stack", _flow_work),
    Layer("su3lab.mcg", "apply_word_stack", _word_work),
    Layer("su3lab.mcg", "apply_word"),
    Layer("su3lab.mcg", "random_word_indices"),
    Layer("su3lab.fiber", "RepPoint.__post_init__"),
    Layer("su3lab.fiber", "base_point"),
    Layer("su3lab.fiber", "d_kappa_matrix"),
    Layer("su3lab.fiber", "d_kappa_rank"),
    Layer("su3lab.fiber", "centralizer_intersection"),
    Layer("su3lab.fiber", "fiber_residual"),
    Layer("su3lab.traces", "is_generic"),
    Layer("su3lab.traces", "character_values"),
    Layer("su3lab.experiments", "ks_statistic"),
    Layer("su3lab.cli", "cmd_orbit"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    rows: int
    work: int
    error: bool


@dataclass
class LayerTotals:
    calls: int = 0
    rows: int = 0
    work: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: int = 0


def _su3lab_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if (name == "su3lab" or name.startswith("su3lab.")) and m is not None
    ]


def _owner_and_attr(layer: Layer):
    owner = sys.modules[layer.module]
    *path, attr = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records one span per call into each layer while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._run = ""
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, fn):
        name = layer.name
        work_of = layer.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            error = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Su3LabError:
                error = True
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                rows = _rows(args)
                work = work_of(args) if work_of else rows
                self.spans.append(
                    Span(span_id, name, start, end, parent, self._run, rows, work, error)
                )

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _su3lab_modules()
        for layer in LAYERS:
            owner, attr = _owner_and_attr(layer)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                bound = [k for k, v in vars(module).items() if v is original]
                for key in bound:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, run: str):
        """Trace every layer call made inside the block under run id `run`."""
        self._run = run
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": [f.name for f in fields(Span)],
                       "spans": [astuple(s) for s in self.spans]}, handle)


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans) -> dict[str, dict[str, LayerTotals]]:
    """Per run id, per layer name: calls, rows, work, self and total time."""
    own = self_times(spans)
    out: dict[str, dict[str, LayerTotals]] = defaultdict(lambda: defaultdict(LayerTotals))
    for s in spans:
        t = out[s.run][s.name]
        t.calls += 1
        t.rows += s.rows
        t.work += s.work
        t.self_s += own[s.id]
        t.total_s += s.end - s.start
        t.errors += int(s.error)
    return out
