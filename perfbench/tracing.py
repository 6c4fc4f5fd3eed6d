"""Spans around the calls into each ringlat layer, from outside the package.

The tracer replaces layer entry points with timing wrappers under the
names their callers use (the names imported into ``ringlat.sweep`` and
``ringlat.cli``, the package's public names, and the matrix-vector method
of ``HermitianOperator``), and puts the originals back afterwards.  An
entry point that a later version no longer has is skipped, so its
metrics read 0.

A span is (id, parent, name, start, end, run id, count).  Spans stay in
memory until the benchmark writes them out.  Spans opened in the sweep's
worker threads take the innermost span open in the main thread as their
parent, which is the sweep call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

#: Layer metric names, in report order.
LAYER_METRICS = (
    "basis.enumerate_s", "basis.enumerate_calls", "basis.dimension",
    "basis.sector_s", "basis.sector_calls",
    "hamiltonian.build_s", "hamiltonian.build_calls", "hamiltonian.nnz",
    "hamiltonian.apply_s", "hamiltonian.apply_calls",
    "eigen.solve_s", "eigen.solve_calls", "eigen.solves_per_point",
    "observables.current_op_s", "observables.current_op_calls",
    "observables.evaluate_s", "observables.evaluate_calls",
    "sweep.self_s", "sweep.solves_per_result",
    "cli.self_s",
)

_SWEEP_SPANS = ("sweep.run", "sweep.find_crossings", "sweep.fast_mode_boundary")


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: int
    count: int  # dimension, nnz or result count where the layer has one


def _dimension(result) -> int:
    return int(getattr(result, "dimension", 0))


def _nnz(result) -> int:
    matrix = getattr(result, "matrix", result)
    return int(getattr(matrix, "nnz", 0))


def _result_count(result) -> int:
    rows = getattr(result, "rows", result)
    try:
        return len(rows)
    except TypeError:
        return 0


def _entry_points():
    """(owner, attribute, span name, count of result) for every layer."""
    import ringlat
    import ringlat.cli
    import ringlat.hamiltonian
    import ringlat.sweep

    sweep, cli = ringlat.sweep, ringlat.cli
    points = [
        (ringlat, "run", "sweep.run", _result_count),
        (ringlat, "find_crossings", "sweep.find_crossings", _result_count),
        (ringlat, "fast_mode_boundary", "sweep.fast_mode_boundary",
         _result_count),
        (cli, "main", "cli.main", None),
        (cli, "run_sweep", "sweep.run", _result_count),
        (cli, "find_crossings", "sweep.find_crossings", _result_count),
        (cli, "fast_mode_boundary", "sweep.fast_mode_boundary", _result_count),
        (sweep, "enumerate_basis", "basis.enumerate", _dimension),
        (sweep, "sector_of_state", "basis.sector", None),
        (sweep, "split_into_sectors", "basis.sector", None),
        (sweep, "build_operator", "hamiltonian.build", _nnz),
        (sweep, "lowest_k", "eigen.solve", None),
        (sweep, "ground_state", "eigen.solve", None),
        (sweep, "current_operator", "observables.current_op", None),
        (sweep, "evaluate", "observables.evaluate", None),
    ]
    operator = getattr(ringlat.hamiltonian, "HermitianOperator", None)
    if operator is not None:
        points.append((operator, "apply", "hamiltonian.apply", None))
    return points


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._run = 0

    def _wrap(self, original, name, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            result, done = None, False
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = counter(result) if counter and done else 0
                tracer.spans.append(Span(span_id, parent, name, start, end,
                                         tracer._run, count))

        return traced

    def install(self, run: int) -> list:
        """Wrap every entry point present; returns what to restore."""
        self._run = run
        restore = []
        for owner, attr, name, counter in _entry_points():
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                continue
            restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return restore

    @staticmethod
    def uninstall(restore: list) -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def _self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that child spans cover."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where a layer was not called."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append(span)

    def busy(name):
        return sum(s.end - s.start for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    sweep_spans = [s for name in _SWEEP_SPANS for s in by_name[name]]
    results = sum(s.count for s in sweep_spans)
    return {
        "basis.enumerate_s": busy("basis.enumerate"),
        "basis.enumerate_calls": calls("basis.enumerate"),
        "basis.dimension": max((s.count for s in by_name["basis.enumerate"]),
                               default=0),
        "basis.sector_s": busy("basis.sector"),
        "basis.sector_calls": calls("basis.sector"),
        "hamiltonian.build_s": busy("hamiltonian.build"),
        "hamiltonian.build_calls": calls("hamiltonian.build"),
        "hamiltonian.nnz": max((s.count for s in by_name["hamiltonian.build"]),
                               default=0),
        "hamiltonian.apply_s": busy("hamiltonian.apply"),
        "hamiltonian.apply_calls": calls("hamiltonian.apply"),
        "eigen.solve_s": busy("eigen.solve"),
        "eigen.solve_calls": calls("eigen.solve"),
        "eigen.solves_per_point": ratio(calls("eigen.solve"),
                                        calls("hamiltonian.build")),
        "observables.current_op_s": busy("observables.current_op"),
        "observables.current_op_calls": calls("observables.current_op"),
        "observables.evaluate_s": busy("observables.evaluate"),
        "observables.evaluate_calls": calls("observables.evaluate"),
        "sweep.self_s": sum(_self_time(s, children[s.id]) for s in sweep_spans),
        "sweep.solves_per_result": ratio(calls("eigen.solve"), results),
        "cli.self_s": sum(_self_time(s, children[s.id])
                          for s in by_name["cli.main"]),
    }
