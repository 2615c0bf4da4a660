"""densebip: dense induced bipartite subgraphs of triangle-free graphs.

A triangle-free graph of minimum degree d admits an induced bipartite
subgraph of average degree ell/2310 with ell = floor(ln d / ln ln d). This
package turns that existence argument into a seeded, verifiable pipeline:
reduction to a d-degenerate core, randomized extraction with an exact
acceptance potential, exhaustive small-instance oracles, triangle-free
generators, and Monte Carlo checks of every distributional step.

`import densebip` loads no submodule. Each public name is imported from the
module `_EXPORTS` lists it under on first access (PEP 562), so
`densebip.extract`, `from densebip import extract` and `from densebip import *`
load only what they name.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "extractor": (
        "BEST_EFFORT_MIN_DEGREE",
        "DEGREE_FLOOR_DENOM",
        "GUARANTEE_MIN_DEGREE",
        "SIZE_RATIO_BOUND",
        "ExtractionError",
        "ExtractionResult",
        "Params",
        "ParamsError",
        "SampleOutcome",
        "derive_params",
        "exact_q",
        "extract",
        "greedy_independent_set",
        "left_minimal_members",
        "potential_value",
        "sample_trial",
        "survival_probability",
        "target_hit_count",
    ),
    "generators": (
        "binomial_triangle_scrubbed",
        "c5_blowup",
        "complete_bipartite",
        "random_bipartite",
    ),
    "graph": (
        "BipartitePairReport",
        "Graph",
        "GraphError",
        "MAX_VERTICES",
        "bipartite_pair_report",
        "canonical_sha256",
        "format_edge_list",
        "from_edge_list",
        "load_core",
        "load_graph",
        "parse_edge_list",
        "save_graph",
    ),
    "oracle": (
        "OracleResult",
        "max_independent_set",
        "max_induced_bipartite_average_degree",
    ),
    "reducer": (
        "EmptyCoreError",
        "OrderedGraph",
        "OrderingError",
        "build_ordered",
        "d_core",
        "degeneracy_ordering",
        "minimal_min_degree_subgraph",
        "reduce_and_order",
    ),
    "rng": ("mix64", "stream", "stream_seed"),
    "stats": (
        "Estimate",
        "MarkovBound",
        "QBoundCheck",
        "check_q_bound",
        "log_spaced_ints",
        "mc_conditional",
        "mc_conditional_sweep",
        "mc_edge_identity",
        "mc_markov_bound",
        "mc_per_vertex_survival",
        "mc_potential",
        "mean_interval",
        "wilson_interval",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _lazy_getattr(namespace: dict, module_of: dict[str, str]):
    """A PEP 562 module `__getattr__` for the module whose globals are `namespace`.

    On first access to `name` it imports this package's submodule
    `module_of[name]`, caches the attribute of the same name in `namespace`
    and returns it; later lookups find it there without a call.
    """

    def __getattr__(name: str):
        try:
            module = module_of[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy_getattr(
    globals(), {name: module for module, names in _EXPORTS.items() for name in names}
)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
