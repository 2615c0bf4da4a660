"""The traced benchmark's hooks still find every function they time.

`bench/spans.py` wraps package attributes by name from outside (for example
`densebip.cli.load_graph` or `densebip.graph.Graph.induced_subgraph`, which
must sit in the class's own dict). A rename in the package leaves a metric
absent while the benchmark run still exits 0, so this checks the names here.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
# stale: the extractor runs no pool; densebip.stats.iter_indexed records the span
STALE_TARGETS = {"densebip.extractor.iter_indexed"}


def _import_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under bench/
    sys.modules.pop("spans", None)
    try:
        return importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)


def _current(spans, target):
    owner, attr = spans._resolve_owner(target)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_per_layer_span_is_wrapped(monkeypatch):
    spans = _import_spans(monkeypatch)
    resolvable = {}
    for target, _, _ in spans.TARGETS:
        try:
            resolvable[target] = _current(spans, target)
        except (ImportError, AttributeError, KeyError):
            pass
    tracer = spans.Tracer()
    try:
        tracer.install()
        needed = {name for _, needs in spans.PER_LAYER.values() for name in needs}
        assert needed - tracer.wrapped_names == set()
        assert set(tracer.missing) <= STALE_TARGETS
    finally:
        tracer.restore()
    for target, original in resolvable.items():
        assert _current(spans, target) is original, target
