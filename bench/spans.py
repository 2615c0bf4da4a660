"""In-memory spans recorded around the package's public functions, from outside.

``Tracer.install`` replaces each target attribute (``module.attr`` or
``module.Class.attr``) with a wrapper that records a span: name, start, end
and the span that was open when it started. Targets are the attributes the
callers look up at call time, e.g. ``densebip.cli.load_graph`` rather than
``densebip.graph.load_graph``. ``Tracer.restore`` puts every original back.
Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (target, span name, note): note(result) -> dict of counts added to the span.
TARGETS: list[tuple[str, str, Callable[[Any], dict] | None]] = [
    ("densebip.cli.load_graph", "graph.load", None),
    ("densebip.cli.canonical_sha256", "graph.sha256", None),
    ("densebip.cli.bipartite_pair_report", "graph.pair_report", None),
    ("densebip.extractor.bipartite_pair_report", "graph.pair_report", None),
    ("densebip.graph.Graph.induced_subgraph", "graph.induced_subgraph", None),
    ("densebip.cli.reduce_and_order", "reducer.reduce_and_order", None),
    ("densebip.reducer.minimal_min_degree_subgraph", "reducer.minimal",
     lambda r: {"reduced_n": r[0].n, "reduced_m": r[0].m}),
    ("densebip.reducer.d_core", "reducer.d_core", lambda r: {"core_n": len(r)}),
    ("densebip.reducer.build_ordered", "reducer.build_ordered", None),
    ("densebip.reducer.degeneracy_ordering", "reducer.degeneracy", None),
    ("densebip.cli.extract", "extractor.extract", None),
    ("densebip.extractor.sample_trial", "extractor.sample_trial",
     lambda r: {"accepted": int(r.potential > 0)}),
    ("densebip.stats.sample_trial", "extractor.sample_trial",
     lambda r: {"accepted": int(r.potential > 0)}),
    ("densebip.extractor.greedy_independent_set", "extractor.greedy", None),
    ("densebip.extractor.stream", "rng.stream", None),
    ("densebip.stats.stream", "rng.stream", None),
    ("densebip.extractor.iter_indexed", "parallel.iter_indexed", None),
    ("densebip.stats.iter_indexed", "parallel.iter_indexed", None),
    ("densebip.cli.mc_potential", "stats.mc_potential", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    notes: dict = field(default_factory=dict)


def _resolve_owner(target: str):
    """(owner object, attribute name) for 'pkg.module.attr' or 'pkg.module.Class.attr'."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise ImportError(f"no importable module in {target!r}")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []
        self.wrapped_names: set[str] = set()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, result: Any = None, note=None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        # A suspended generator can close after spans opened later, so remove
        # this span wherever it sits rather than popping blindly.
        for pos in range(len(self._stack) - 1, -1, -1):
            if self._stack[pos] == index:
                del self._stack[pos]
                break
        if note is not None and result is not None:
            span.notes = note(result)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrapper(self, name: str, original: Callable, note):
        tracer = self
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def traced_gen(*args, **kwargs):
                index = tracer._open(name)
                try:
                    yield from original(*args, **kwargs)
                finally:
                    tracer._close(index)
            return traced_gen

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._close(index, result, note)
        return traced

    def install(self, targets=TARGETS) -> None:
        for target, name, note in targets:
            try:
                owner, attr = _resolve_owner(target)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                print(f"warning: trace target {target} is missing; its metrics are absent",
                      file=sys.stderr)
                self.missing.append(target)
                continue
            setattr(owner, attr, self._wrapper(name, original, note))
            self._installed.append((owner, attr, original))
            self.wrapped_names.add(name)

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class SpanTotals:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    notes: dict = field(default_factory=dict)


def summarize(spans: list[Span]) -> dict[str, SpanTotals]:
    """Per span name: call count, total duration, self time and summed notes."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, SpanTotals] = {}
    for index, span in enumerate(spans):
        totals = out.setdefault(span.name, SpanTotals())
        duration = span.end - span.start
        totals.count += 1
        totals.total_s += duration
        totals.self_s += duration - covered(children.get(index, []))
        for key, value in span.notes.items():
            totals.notes[key] = totals.notes.get(key, 0) + value
    return out


# name -> (unit, span names it needs); a metric whose spans could not be
# installed is reported absent.
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "graph.load_s": ("s", ("graph.load",)),
    "graph.sha256_s": ("s", ("graph.sha256",)),
    "graph.pair_report_s": ("s", ("graph.pair_report",)),
    "graph.induced_subgraph_s": ("s", ("graph.induced_subgraph",)),
    "graph.n": ("count", ()),
    "graph.m": ("count", ()),
    "graph.input_bytes": ("bytes", ()),
    "reducer.minimal_self_s": ("s", ("reducer.minimal",)),
    "reducer.d_core_s": ("s", ("reducer.d_core",)),
    "reducer.degeneracy_s": ("s", ("reducer.degeneracy",)),
    "reducer.build_ordered_self_s": ("s", ("reducer.build_ordered",)),
    "reducer.core_n": ("count", ("reducer.d_core",)),
    "reducer.reduced_n": ("count", ("reducer.minimal",)),
    "reducer.reduced_m": ("count", ("reducer.minimal",)),
    "reducer.removed_frac": ("1", ("reducer.d_core", "reducer.minimal")),
    "extractor.sample_trial_s": ("s", ("extractor.sample_trial",)),
    "extractor.sample_trial_calls": ("count", ("extractor.sample_trial",)),
    "extractor.sample_trial_us": ("us", ("extractor.sample_trial",)),
    "extractor.extract_self_s": ("s", ("extractor.extract",)),
    "extractor.greedy_s": ("s", ("extractor.greedy",)),
    "extractor.accept_ratio": ("1", ("extractor.sample_trial",)),
    "rng.stream_s": ("s", ("rng.stream",)),
    "rng.streams": ("count", ("rng.stream",)),
    "parallel.iter_indexed_self_s": ("s", ("parallel.iter_indexed",)),
    "parallel.pool_w2_s": ("s", ("parallel.iter_indexed",)),
    "parallel.speedup": ("1", ("parallel.iter_indexed",)),
    "stats.mc_potential_self_s": ("s", ("stats.mc_potential",)),
    "stats.trials_per_s": ("1/s", ("stats.mc_potential",)),
    "stats.success_rate": ("1", ()),
    "cli.main_s": ("s", ()),
    "cli.self_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


def layer_metrics(workload, serial, pool, payload: dict, inp: dict,
                  setup_s: float, wall_s: float) -> tuple[dict, list[str], dict]:
    """Per-layer metrics from the serial and --workers 2 traced passes.

    The serial pass has the untraced runs' argv, so trace.overhead_s compares
    like with like. Returns (metrics, absent metric names, layer split as
    shares of cli.main's duration).
    """
    serial_sums, pool_sums = summarize(serial.spans), summarize(pool.spans)

    def get(name: str, sums=serial_sums) -> SpanTotals:
        return sums.get(name, SpanTotals())

    trials = get("extractor.sample_trial")
    core_n = get("reducer.d_core").notes.get("core_n", 0)
    minimal = get("reducer.minimal")
    reduced_n = minimal.notes.get("reduced_n", 0)
    serial_iter = get("parallel.iter_indexed").total_s
    pool_iter = get("parallel.iter_indexed", pool_sums).total_s
    mc_s = get("stats.mc_potential").total_s
    main = get("cli.main")
    values = {
        "graph.load_s": get("graph.load").total_s,
        "graph.sha256_s": get("graph.sha256").total_s,
        "graph.pair_report_s": get("graph.pair_report").total_s,
        "graph.induced_subgraph_s": get("graph.induced_subgraph").total_s,
        "graph.n": inp["n"],
        "graph.m": inp["m"],
        "graph.input_bytes": inp["bytes"],
        "reducer.minimal_self_s": minimal.self_s,
        "reducer.d_core_s": get("reducer.d_core").total_s,
        "reducer.degeneracy_s": get("reducer.degeneracy").total_s,
        "reducer.build_ordered_self_s": get("reducer.build_ordered").self_s,
        "reducer.core_n": core_n,
        "reducer.reduced_n": reduced_n,
        "reducer.reduced_m": minimal.notes.get("reduced_m", 0),
        "reducer.removed_frac": (core_n - reduced_n) / core_n if core_n else 0.0,
        "extractor.sample_trial_s": trials.total_s,
        "extractor.sample_trial_calls": trials.count,
        "extractor.sample_trial_us": trials.total_s / trials.count * 1e6 if trials.count else 0.0,
        "extractor.extract_self_s": get("extractor.extract").self_s,
        "extractor.greedy_s": get("extractor.greedy").total_s,
        "extractor.accept_ratio":
            trials.notes.get("accepted", 0) / trials.count if trials.count else 0.0,
        "rng.stream_s": get("rng.stream").total_s,
        "rng.streams": get("rng.stream").count,
        "parallel.iter_indexed_self_s": get("parallel.iter_indexed").self_s,
        "parallel.pool_w2_s": pool_iter,
        "parallel.speedup": serial_iter / pool_iter if pool_iter else 0.0,
        "stats.mc_potential_self_s": get("stats.mc_potential").self_s,
        "stats.trials_per_s": workload.trials / mc_s if mc_s else 0.0,
        "stats.success_rate": payload.get("success_rate", 0.0),
        "cli.main_s": main.total_s,
        "cli.self_s": main.self_s,
        "trace.overhead_s": main.total_s + setup_s - wall_s,
    }
    absent = [name for name, (_, needs) in PER_LAYER.items()
              if any(n not in serial.wrapped_names for n in needs)]
    split: dict[str, float] = {}
    for name, sums in serial_sums.items():
        layer = name.split(".")[0]
        split[layer] = split.get(layer, 0.0) + sums.self_s / main.total_s
    metrics = {name: values[name] for name in PER_LAYER if name not in absent}
    return metrics, absent, split
