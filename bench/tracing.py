"""Spans around acyclo's layer boundaries, recorded from outside the package.

The tracer replaces module attributes with timing wrappers and puts the
originals back afterwards. Each name is patched in the module where the
caller looks it up: `faces` and `census` import `solve_feasibility`, `rank`
and `_invariant_factors` by name, so patching them in `ratlp` or `exactalg`
would miss every call.

A span is (job, id, parent, name, start_ns, end_ns, value). Spans stay in
memory until the run writes them out; a layer's self time is its spans'
duration minus that of their child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import NamedTuple, Optional

JOB = "cli.main"
CENSUS_ENTRIES = ("census.kalai_census", "census.ehrhart", "census.volume")
FACES_ENTRIES = ("faces.face_lattice", "faces.enumerate_vertices", "faces.is_acyclic_hypertournament")
FEASIBILITY = "faces.solve_feasibility"
FM = "ratlp._fourier_motzkin"
SIMPLEX = "ratlp._phase_one_simplex"
SNF = "census._invariant_factors"
RANK = "faces.rank"
FOREST = "census._forest_nodes"


def _feasible(result) -> bool:
    return result is not None


def _has_torsion(factors) -> bool:
    product = 1
    for f in factors:
        if f:
            product *= f
    return abs(product) > 1


# (module, attribute, kind, outcome recorded as the span's value)
TARGETS = (
    ("acyclo.census", "kalai_census", "call", None),
    ("acyclo.census", "ehrhart", "call", None),
    ("acyclo.census", "volume", "call", None),
    ("acyclo.census", "_invariant_factors", "call", _has_torsion),
    ("acyclo.census", "_forest_nodes", "count", None),
    ("acyclo.faces", "face_lattice", "call", None),
    ("acyclo.faces", "enumerate_vertices", "generator", None),
    ("acyclo.faces", "is_acyclic_hypertournament", "call", None),
    ("acyclo.faces", "solve_feasibility", "call", _feasible),
    ("acyclo.faces", "rank", "call", None),
    ("acyclo.ratlp", "_fourier_motzkin", "call", None),
    ("acyclo.ratlp", "_phase_one_simplex", "call", None),
)


class Span(NamedTuple):
    job: int
    id: int
    parent: Optional[int]
    name: str
    start: int
    end: int
    value: object


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, Optional[int]]:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _close(self, span_id: int, parent, name: str, start: int, value=None) -> None:
        self._stack.remove(span_id)
        self.spans.append(Span(self.job, span_id, parent, name, start, perf_counter_ns(), value))

    def run_job(self, job_id: int, fn, *args):
        """Call fn(*args) as job job_id, under a `cli.main` span whose value
        is set afterwards by `set_job_value`."""
        self.job = job_id
        span_id, parent = self._open()
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(span_id, parent, JOB, start)

    def set_job_value(self, value) -> None:
        self.spans[-1] = self.spans[-1]._replace(value=value)

    def wrap_call(self, name: str, fn, outcome=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = perf_counter_ns()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                value = outcome(result) if returned and outcome else None
                self._close(span_id, parent, name, start, value)

        return traced

    def wrap_generator(self, name: str, fn):
        """One span from the first item to exhaustion. Calls the consumer makes
        between items would be parented to it; the CLI only collects a list."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = perf_counter_ns()
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)

        return traced

    def wrap_counter(self, name: str, fn):
        """Count a generator's items without opening a span around it: the
        consumer's own calls between items belong to the caller. The count is
        recorded as a span that no self time is charged to."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            start = perf_counter_ns()
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                self._next_id += 1
                self.spans.append(
                    Span(self.job, self._next_id, parent, name, start, perf_counter_ns(), items)
                )

        return counted

    def install(self):
        """Patch every target; return a function that restores the originals."""
        saved = []
        for module_name, attr, kind, outcome in TARGETS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            name = f"{module_name.split('.')[-1]}.{attr}"
            if kind == "call":
                wrapper = self.wrap_call(name, original, outcome)
            elif kind == "generator":
                wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap_counter(name, original)
            setattr(module, attr, wrapper)
            saved.append((module, attr, original))

        def restore() -> None:
            for module, attr, original in saved:
                setattr(module, attr, original)

        return restore

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times (seconds) of one pass, from its spans."""
    children_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None and s.name != FOREST:
            children_ns[s.parent] += s.end - s.start
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    truthy: Counter = Counter()
    values: Counter = Counter()
    for s in spans:
        duration = s.end - s.start
        total[s.name] += duration
        own[s.name] += duration - children_ns[s.id]
        calls[s.name] += 1
        if s.value is True:
            truthy[s.name] += 1
        elif isinstance(s.value, int) and not isinstance(s.value, bool):
            values[s.name] += s.value

    def seconds(ns: int) -> float:
        return ns / 1e9

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    nodes = values[FOREST]
    dfs_s = seconds(sum(own[n] for n in CENSUS_ENTRIES))
    return {
        "cli.self_s": seconds(own[JOB]),
        "cli.output_bytes": values[JOB],
        "census.busy_s": seconds(sum(total[n] for n in CENSUS_ENTRIES)),
        "census.forest_nodes": nodes,
        "census.dfs_s": dfs_s,
        "census.us_per_node": ratio(dfs_s * 1e6, nodes),
        "census.torsion_calls": calls[SNF],
        "census.torsion_useful_ratio": ratio(truthy[SNF], calls[SNF]),
        "faces.busy_s": seconds(sum(total[n] for n in FACES_ENTRIES)),
        "faces.feasibility_calls": calls[FEASIBILITY],
        "faces.feasible_ratio": ratio(truthy[FEASIBILITY], calls[FEASIBILITY]),
        "faces.self_s": seconds(sum(own[n] for n in FACES_ENTRIES)),
        "ratlp.calls": calls[FEASIBILITY],
        "ratlp.busy_s": seconds(total[FEASIBILITY]),
        "ratlp.elim_s": seconds(own[FEASIBILITY]),
        "ratlp.fm_calls": calls[FM],
        "ratlp.fm_s": seconds(total[FM]),
        "ratlp.simplex_calls": calls[SIMPLEX],
        "ratlp.simplex_s": seconds(total[SIMPLEX]),
        "exactalg.snf_calls": calls[SNF],
        "exactalg.snf_s": seconds(total[SNF]),
        "exactalg.rank_calls": calls[RANK],
        "exactalg.rank_s": seconds(total[RANK]),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes; counts repeat exactly
    and stay integers."""
    out = {}
    for k in per_pass[0]:
        values = [m[k] for m in per_pass]
        integral = all(isinstance(v, int) for v in values)
        out[k] = statistics.median_low(values) if integral else statistics.median(values)
    return out
