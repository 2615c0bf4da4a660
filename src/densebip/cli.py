"""Command-line interface binding generators, reduction, extraction, the exact
oracle, and the distribution checks into reproducible runs.

Exit codes: 0 success, 1 verified failure (extraction failed, a claim check
did not pass, a candidate pair is invalid), 2 usage or input errors. JSON
output is byte-identical for identical inputs, seeds, and flags regardless of
the worker count, on one Python version: the interval endpoints of the mean
checks come from `statistics.stdev`, whose rounding changed in 3.11, so they
can differ in the last digit between 3.10 and 3.11 or later.

`extract` and `stats` read their input through one helper, `_reduced_input`:
`check_degree`, `load_core` (which may skip the adjacency of vertices outside
the d-core), `derive_params`, `reduce_and_order`, and the input id of each core
vertex. They work on core ids throughout, including the pair report, and
translate to input ids only for `--x`/`--y` and the printed output.

Importing this module loads only what `extract` runs: the graph, reducer,
extractor and rng modules. The functions that `gen`, `oracle` and `stats`
call live in the generators, oracle and stats modules; each public name that
`densebip._EXPORTS` lists for them, and `DEFAULT_CAP`, is imported on first
access to it here (a module `__getattr__`) and then cached. The commands read
these names as attributes of this module, so patching
`densebip.cli.mc_potential` reaches `stats potential`.

A run from the command line (`entry`, behind the `densebip` script and
`python -m densebip.cli`) ends with `os._exit` once `main` has returned and
stdout and stderr are flushed: the interpreter's teardown, its collection
passes and the clearing of every module and of the graph, is skipped. That
loses nothing only while nothing is pending when `main` returns:

- `stats.iter_indexed` shuts its pool down inside `with`, so no worker
  process or thread outlives it;
- every file is written under `with`, so it is closed;
- the package registers no `atexit` hook.

A change that breaks one of these has to revisit the exit. `main` itself
returns its code and is the in-process entry for tests and tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import _EXPORTS, _lazy_getattr
from .extractor import (
    ExtractionError,
    ParamsError,
    Params,
    SIZE_RATIO_BOUND,
    check_degree,
    derive_params,
    extract,
)
from .graph import (
    _ID,
    BipartitePairReport,
    GraphError,
    bipartite_pair_report,
    canonical_sha256,
    format_edge_list,
    load_core,
    load_graph,
    save_graph,
)
from .reducer import EmptyCoreError, OrderedGraph, OrderingError, reduce_and_order

__getattr__ = _lazy_getattr(globals(), {
    "DEFAULT_CAP": "oracle",
    **{name: module for module in ("generators", "oracle", "stats") for name in _EXPORTS[module]},
})

# gen family: (generator, parameter types, wrong-count message, seeded)
_FAMILIES = {
    "complete-bipartite": ("complete_bipartite", (int, int),
                           "complete-bipartite needs two integers: A B", False),
    "random-bipartite": ("random_bipartite", (int, int, float),
                         "random-bipartite needs: N1 N2 RHO", True),
    "c5-blowup": ("c5_blowup", (int,), "c5-blowup needs one integer: T", False),
    "binomial-scrubbed": ("binomial_triangle_scrubbed", (int, float),
                          "binomial-scrubbed needs: N RHO", True),
}

_DEFAULT_TRIALS = {
    "conditional": 10_000,
    "survival": 10_000,
    "edge-identity": 10_000,
    "potential": 1_000,
}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _params_payload(params: Params) -> dict:
    return {
        "d": params.d,
        "ell": params.ell,
        "p": _rational(params.p),
        "p_float": float(params.p),
        "q": _rational(params.q),
        "q_float": float(params.q),
        "threshold": params.threshold,
        "guarantee": params.guarantee,
    }


def _pair_payload(side_i: list[int], side_j: list[int], report: BipartitePairReport) -> dict:
    """The keys `extract` and `verify` share: the pair, on the ids they print, and its report."""
    return {
        "I": side_i,
        "J": side_j,
        "I_size": len(side_i),
        "J_size": len(side_j),
        "cross_edges": report.cross_edges,
        "average_degree": _rational(report.average_degree),
        "average_degree_float": float(report.average_degree),
        "valid": report.valid,
    }


def vertex_id(token: str) -> int:
    """A vertex id given on the command line, in the edge-list grammar
    (`graph._ID`): ASCII digits, optionally after '-'."""
    if not _ID.fullmatch(token):
        raise ValueError(f"{token!r} is not an ASCII decimal vertex id")
    return int(token)


def _parse_id_list(text: str) -> list[int]:
    """Comma-separated vertex ids, each with optional spaces and tabs around it."""
    if not text.strip(" \t"):
        return []
    try:
        return [vertex_id(part.strip(" \t")) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad vertex list {text!r}: {exc}") from None


def _positive_int(label: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{label} must be at least 1")
    return value


def cmd_gen(args: argparse.Namespace) -> int:
    name, types, wrong_count, seeded = _FAMILIES[args.family]
    if len(args.params) != len(types):
        raise ValueError(wrong_count)
    values = [kind(text) for kind, text in zip(types, args.params)]
    if seeded:
        values.append(args.seed)
    g = getattr(sys.modules[__name__], name)(*values)
    if args.out:
        save_graph(g, args.out)
    else:
        sys.stdout.write(format_edge_list(g))
    return 0


def _reduced_input(args: argparse.Namespace) -> tuple[str, Params, OrderedGraph, tuple[int, ...]]:
    """Load `--in`, derive the params and reduce to the ordered core.

    Returns (input sha256, params, ordered core, original), where original[v]
    is the input id of core vertex v; it is ascending, as both `load_core` and
    the reduction relabel in ascending id.
    """
    check_degree(args.d, args.guarantee)  # a bad --d fails before the read
    g, ids, sha256 = load_core(args.infile, args.d)
    params = derive_params(args.d, args.guarantee)
    og, kept = reduce_and_order(g, args.d)
    return sha256, params, og, tuple(ids[v] for v in kept)


def cmd_extract(args: argparse.Namespace) -> int:
    _positive_int("--max-retries", args.max_retries)
    _positive_int("--workers", args.workers)
    sha256, params, og, original = _reduced_input(args)
    try:
        result = extract(og, params, args.seed, args.max_retries)
    except ExtractionError as exc:
        _emit({
            "error": str(exc),
            "diagnostics": exc.diagnostics,
            "input_sha256": sha256,
            "seed": args.seed,
            "params": _params_payload(params),
        })
        return 1
    # extract verified I and J on the core, which the input induces: the same
    # cross edges and independence as on the input ids
    report = result.report
    side_i = [original[v] for v in report.I]
    side_j = [original[v] for v in report.J]
    payload = {
        "input_sha256": sha256,
        "seed": args.seed,
        "params": _params_payload(params),
        "reduced_n": og.graph.n,
        "reduced_m": og.graph.m,
        "trials_used": result.trials_used,
        **_pair_payload(side_i, side_j, report),
    }
    if params.guarantee:
        payload["guarantee_checks"] = {
            "average_degree_floor": _rational(params.degree_floor),
            "meets_floor": result.meets_floor,
            "size_ratio_bound": SIZE_RATIO_BOUND,
            "size_ratio_ok": True,  # extract raises on a pair that breaks the ratio
        }
    _emit(payload)
    return 1 if not report.valid or result.meets_floor is False else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    cli = sys.modules[__name__]
    g = load_graph(args.infile)
    cap = cli.DEFAULT_CAP if args.cap is None else args.cap
    result = cli.max_induced_bipartite_average_degree(g, cap)
    _emit(
        {
            "input_sha256": canonical_sha256(g),
            "best_value": _rational(result.best_value),
            "best_value_float": float(result.best_value),
            "witness_I": list(result.witness_I),
            "witness_J": list(result.witness_J),
        }
    )
    return 0


def _translate_vertex(original: tuple[int, ...], vertex: int | None, default_local: int) -> int:
    if vertex is None:
        return default_local
    if vertex not in original:
        raise ValueError(f"vertex {vertex} was dropped by the reduction")
    return original.index(vertex)


def cmd_stats(args: argparse.Namespace) -> int:
    cli = sys.modules[__name__]
    _positive_int("--workers", args.workers)
    if args.check == "check-q":
        result = cli.check_q_bound(args.d)
        _emit(
            {
                "check": "check-q",
                "d": result.d,
                "ell": result.ell,
                "ratio": result.ratio,
                "passed": result.passed,
            }
        )
        return 0 if result.passed else 1
    if not args.infile:
        raise ValueError(f"stats {args.check} needs --in FILE")
    trials = args.trials if args.trials is not None else _DEFAULT_TRIALS[args.check]
    _positive_int("--trials", trials)
    sha256, params, og, original = _reduced_input(args)
    payload: dict = {
        "check": args.check,
        "input_sha256": sha256,
        "seed": args.seed,
        "trials": trials,
        "params": _params_payload(params),
    }
    if args.check == "conditional":
        y = _translate_vertex(original, args.y, 0)
        est = cli.mc_conditional(og, params, y, trials, args.seed, args.workers)
        payload["vertex"] = original[y]
    elif args.check == "survival":
        default_x = max(range(og.graph.n), key=lambda v: (len(og.left_neighbors[v]), -v))
        x = _translate_vertex(original, args.x, default_x)
        est = cli.mc_per_vertex_survival(og, params, x, trials, args.seed, args.workers)
        payload["vertex"] = original[x]
        payload["left_degree"] = len(og.left_neighbors[x])
    elif args.check == "edge-identity":
        est = cli.mc_edge_identity(og, params, trials, args.seed, args.workers)
    elif args.check == "potential":
        est, payload["success_rate"] = cli.mc_potential(og, params, trials, args.seed, args.workers)
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown check {args.check!r}")
    payload["estimate"] = est._asdict()
    payload["passed"] = est.passed
    _emit(payload)
    return 0 if est.passed else 1


def cmd_verify(args: argparse.Namespace) -> int:
    # the 0-core is the whole graph; the reader hashes edges in order as it reads them
    g, _, sha256 = load_core(args.infile, 0)
    side_i = _parse_id_list(args.I)
    side_j = _parse_id_list(args.J)
    report = bipartite_pair_report(g, side_i, side_j)
    _emit(
        {
            "input_sha256": sha256,
            **_pair_payload(list(report.I), list(report.J), report),
            "reason": report.reason,
        }
    )
    return 0 if report.valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densebip",
        description="Extract and verify dense induced bipartite subgraphs of triangle-free graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated instance in edge-list form")
    gen.add_argument("family", choices=list(_FAMILIES))
    gen.add_argument("params", nargs="*", help="family parameters, e.g. 200 200")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.set_defaults(func=cmd_gen)

    ext = sub.add_parser("extract", help="reduce the input and extract a verified pair")
    ext.add_argument("--in", dest="infile", required=True)
    ext.add_argument("--d", type=int, required=True, help="minimum-degree parameter")
    ext.add_argument("--guarantee", action="store_true",
                     help="enforce the d>=16 constants and the ell/2310 floor")
    ext.add_argument("--seed", type=int, default=0)
    ext.add_argument("--max-retries", type=int, default=1000)
    ext.add_argument("--workers", type=int, default=1,
                     help="checked and ignored: extract runs its trials in one process")
    ext.add_argument("--json", action="store_true",
                     help="accepted and ignored: extract always prints its JSON report")
    ext.set_defaults(func=cmd_extract)

    orc = sub.add_parser("oracle", help="exact best induced bipartite average degree")
    orc.add_argument("--in", dest="infile", required=True)
    orc.add_argument("--cap", type=int, default=None)
    orc.set_defaults(func=cmd_oracle)

    st = sub.add_parser("stats", help="run one distributional check")
    st.add_argument(
        "check",
        choices=["check-q", "conditional", "edge-identity", "potential", "survival"],
    )
    st.add_argument("--in", dest="infile", default=None)
    st.add_argument("--d", type=int, required=True)
    st.add_argument("--trials", type=int, default=None)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--workers", type=int, default=1)
    st.add_argument("--guarantee", action="store_true")
    st.add_argument("--y", type=vertex_id, default=None, help="conditioned vertex (original id)")
    st.add_argument("--x", type=vertex_id, default=None, help="survival vertex (original id)")
    st.set_defaults(func=cmd_stats)

    ver = sub.add_parser("verify", help="validate a candidate pair")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--I", required=True, help="comma-separated vertex ids")
    ver.add_argument("--J", required=True, help="comma-separated vertex ids")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExtractionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, EmptyCoreError, OrderingError, ParamsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Run `main` on the process's argv and end the process with its code.

    Once the output is flushed the process ends with `os._exit`, without the
    interpreter's teardown; see the module docstring for why that is safe.
    A failed flush, as on a closed pipe, ends it with `sys.exit`, whose
    shutdown reports the failure as a normal exit would.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # the stream's normal shutdown reports what went wrong
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
