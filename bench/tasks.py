"""Work the benchmark keeps out of its measuring process, run as a child of it.

    python bench/tasks.py prepare WORKLOAD SEED PATH
    python bench/tasks.py verify WORKLOAD SEED PATH SHA256 REFERENCE
                          [--trace SPANS_OUT --setup-s S --wall-s S]

``prepare`` builds the workload's input from the seed, writes it with
``save_graph`` and reports n, m, bytes, sha256 and generation time.
``verify`` re-checks a CLI output that exited 0 (the file REFERENCE) against
the input file and makes sure the checks reject tampered copies of it. With
``--trace`` it then runs ``densebip.cli.main`` in-process under the tracer,
with ``--workers 1`` and ``--workers 2``, requires both outputs to equal
REFERENCE byte for byte, reports the per-layer metrics and writes the spans to
SPANS_OUT. Each command prints one JSON object. Run with this tree's ``src``
on PYTHONPATH.

These steps hold whole graphs in memory. They run in a separate process
because a child's ``ru_maxrss`` counts the memory of the process that spawned
it, so the measuring process must stay small.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import densebip
import densebip.cli

from check import check_payload, check_repetition, tamper_selftest
from spans import Tracer, layer_metrics
from workloads import WORKLOADS


def prepare(args) -> dict:
    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    graph = workload.build(densebip, args.seed)
    densebip.save_graph(graph, args.path)
    gen_s = time.perf_counter() - start
    data = Path(args.path).read_bytes()
    sha = hashlib.sha256(data).hexdigest()
    problems = [] if sha == densebip.canonical_sha256(graph) else ["input is not canonical"]
    return {"densebip_file": densebip.__file__, "python": sys.version.split()[0],
            "n": graph.n, "m": graph.m, "bytes": len(data), "sha256": sha,
            "gen_s": gen_s, "problems": problems}


def traced_pass(argv: list[str]):
    """Run the CLI in-process under a fresh Tracer; returns (code, stdout, tracer)."""
    buf = io.StringIO()
    gc.collect()
    gc.freeze()  # keep the already loaded input graph out of the traced collections
    try:
        with Tracer() as tracer, contextlib.redirect_stdout(buf):
            code = tracer.call("cli.main", densebip.cli.main, argv)
    finally:
        gc.unfreeze()
    return code, buf.getvalue().encode(), tracer


def verify(args) -> dict:
    workload = WORKLOADS[args.workload]
    graph = densebip.load_graph(args.path)
    reference = Path(args.reference).read_bytes()
    payload_problems = check_payload(workload, reference, graph, args.sha256)
    problems = [] if payload_problems else tamper_selftest(workload, reference, graph, args.sha256)
    result: dict = {"payload_problems": payload_problems, "problems": problems}
    if args.trace is None:
        return result
    tracers, failed = {}, 0
    for workers in (1, 2):
        code, out, tracers[workers] = traced_pass(workload.argv(args.path, args.seed, workers))
        reasons = check_repetition(code, out, reference)
        if reasons:
            failed += 1
            problems.append(f"traced pass --workers {workers}: {'; '.join(reasons)}")
    inp = {"n": graph.n, "m": graph.m, "bytes": Path(args.path).stat().st_size}
    per_layer, absent, split = layer_metrics(
        workload, tracers[1], tracers[2], json.loads(reference), inp, args.setup_s, args.wall_s)
    Path(args.trace).write_text(json.dumps(
        {w: [(s.name, s.start, s.end, s.parent, s.notes) for s in t.spans]
         for w, t in tracers.items()}))
    result.update(traced_attempted=len(tracers), traced_failed=failed, per_layer=per_layer,
                  absent=absent, layer_split=split, missing_targets=tracers[1].missing)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="task", required=True)
    prep = sub.add_parser("prepare")
    ver = sub.add_parser("verify")
    for p in (prep, ver):
        p.add_argument("workload", choices=WORKLOADS)
        p.add_argument("seed", type=int)
        p.add_argument("path")
    ver.add_argument("sha256")
    ver.add_argument("reference")
    ver.add_argument("--trace", default=None)
    ver.add_argument("--setup-s", type=float, default=0.0)
    ver.add_argument("--wall-s", type=float, default=0.0)
    args = parser.parse_args()
    result = prepare(args) if args.task == "prepare" else verify(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
