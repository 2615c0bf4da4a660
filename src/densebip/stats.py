"""Exact and Monte Carlo checks of the sampler's distributional claims.

Each check returns an Estimate carrying a 95% interval and a pass flag whose
meaning depends on the claim: lower-bound claims pass when the interval clears
the target, identities pass when the interval contains it. All checks are
deterministic given (seed, trials) and independent of the worker count: trial
i draws from its own stream `stream(seed, i)` and `iter_indexed` yields the
results in index order, whichever process computed them. With workers > 1
the trials fan out to a process pool that receives the shared arguments once,
through its initializer, so tasks carry only indices; `concurrent.futures` is
imported only when a pool is opened. `extract` runs its trials serially.

Every driver reads its trials in one pass and keeps only its fold: the
proportion checks keep counts, and the mean checks keep one float per trial
in an `array("d")`. The three conditioned checks score each trial with one
function, `_forced_outcome`: `mc_conditional` and `mc_markov_bound` force a
uniform ell-subset of the vertex's candidate set, and `mc_conditional_sweep`
forces each such subset in turn. The sweep and the Markov check are library
functions only; the CLI's `stats` does not run them.

In guarantee mode `mc_potential` and the three conditioned checks refuse a
core with a triangle (`require_premise`), as the steps they check are proved
for a triangle-free core only. Survival's closed form holds on any ordered
core, and `mc_edge_identity` refuses a triangle in either mode.
"""

from __future__ import annotations

import math
import os
import statistics
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from itertools import combinations

from .extractor import (
    GUARANTEE_MIN_DEGREE,
    Q_OVER_P_FLOOR,
    Params,
    _edges_within,
    _layer_mask,
    _potential_denominator,
    _supported_mask,
    _trial_numerator,
    derive_params,
    exact_q,
    left_minimal_members,
    require_compatible,
    require_premise,
    require_vertex,
    sample_trial,  # not called here: bench/spans.py wraps it by this name
    survival_probability,
    target_hit_count,
)
from .reducer import OrderedGraph
from .rng import sampled_members, stream

Z95 = 1.96
CONDITIONAL_TARGET = 0.2  # supported-given-layer probability must beat 1/5


class Estimate(namedtuple("Estimate", "mean trials ci_low ci_high target passed")):
    """Monte Carlo estimate with a 95% interval and the claim's target."""

    __slots__ = ()


class QBoundCheck(namedtuple("QBoundCheck", "d ell ratio passed")):
    """Ratio q/p at the guarantee hit target; passes at >= 0.35."""

    __slots__ = ()


class MarkovBound(namedtuple("MarkovBound", "mean_missing frac_high_missing ell trials")):
    """Forced-subset attrition: mean count of forced vertices that fail to
    survive, and how often at least 90% of them fail."""

    __slots__ = ()


_WORK: tuple[Callable, object] | None = None


def _init_worker(fn: Callable, args: object) -> None:
    global _WORK
    _WORK = (fn, args)


def _run_index(index: int):
    fn, args = _WORK  # type: ignore[misc]
    return fn(args, index)


def iter_indexed(fn: Callable[[object, int], object], args: object, count: int,
                 workers: int = 1) -> Iterator[object]:
    """Yield fn(args, index) for index in range(count), in index order.

    A pool opens only for two or more indices, with at most
    min(workers, count, os.cpu_count()) processes: a fork pool starts all of
    them on the first task, and more processes than CPUs or tasks only wait.
    Every index goes to it in one `map`, in about four chunks per process:
    each consumer reads all of the trials, so no index is computed in vain.
    `fn` must be a picklable module-level function.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    workers = min(workers, count, os.cpu_count() or 1)
    if workers <= 1:
        for i in range(count):
            yield fn(args, i)
        return
    import concurrent.futures as cf

    chunk = -(-count // (4 * workers))
    with cf.ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(fn, args)
    ) as pool:
        yield from pool.map(_run_index, range(count), chunksize=chunk)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # at the boundaries the true endpoints are exactly 0 and 1; float rounding
    # of the closed form misses them by an ulp
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def mean_interval(values: Sequence[float]) -> tuple[float, float, float]:
    """(mean, low, high): normal-approximation interval for a sample mean."""
    k = len(values)
    if k < 1:
        raise ValueError("need at least one value")
    mu = statistics.fmean(values)
    sd = statistics.stdev(values) if k > 1 else 0.0
    half = Z95 * sd / math.sqrt(k)
    return mu, mu - half, mu + half


def log_spaced_ints(lo: int, hi: int, count: int) -> list[int]:
    """About `count` geometrically spaced integers from lo to hi, deduplicated."""
    if lo < 1 or hi < lo or count < 1:
        raise ValueError("need 1 <= lo <= hi and count >= 1")
    if count == 1:
        return [lo]
    la, lb = math.log(lo), math.log(hi)
    out = [round(math.exp(la + (lb - la) * i / (count - 1))) for i in range(count)]
    out[0], out[-1] = lo, hi
    return sorted(set(out))


def check_q_bound(d: int) -> QBoundCheck:
    """q/p at the hit target for degree d; the extraction constants need >= 0.35."""
    if d < GUARANTEE_MIN_DEGREE:
        raise ValueError(f"the bound is only claimed for d >= {GUARANTEE_MIN_DEGREE}")
    ell = target_hit_count(d)
    ratio = exact_q(d, ell) * d
    return QBoundCheck(d, ell, ratio, ratio >= float(Q_OVER_P_FLOOR))


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be at least 1")


def _require_conditionable(og: OrderedGraph, params: Params, y: int, trials: int) -> None:
    """Checks shared by the conditioned drivers: forcing an ell-subset of y's
    candidate set needs y to have degree at least d, and in guarantee mode
    the claim needs a triangle-free core."""
    _require_trials(trials)
    require_compatible(og, params)
    require_premise(og, params)
    require_vertex(og, y)
    if len(og.graph.adjacency[y]) < params.d:
        raise ValueError(f"vertex {y} has degree below d={params.d}")


def _free_vertices(og: OrderedGraph, y: int) -> list[int]:
    """The vertices outside y's candidate set, in ascending order: those a
    conditioned trial samples at 1/d."""
    blocked = set(og.candidate_sets[y])
    return [v for v in range(og.graph.n) if v not in blocked]


def _forced_outcome(og: OrderedGraph, params: Params, y: int, free: list[int], forced,
                    rng) -> tuple[bool, int]:
    """Complete a trial whose candidate-set coordinates are pinned to `forced`
    and score it: whether y reaches the supported set, and how many forced
    vertices fail to survive. Every vertex of `free`, which is
    `_free_vertices(og, y)`, is sampled independently at 1/d."""
    sampled = [*forced, *sampled_members(rng, free, params.d)]
    survivor_set = set(left_minimal_members(og, sampled))
    missing = sum(1 for x in forced if x not in survivor_set)
    return bool(_supported_mask(og, survivor_set, 1 << y, params.threshold)), missing


def _conditional_worker(args, index: int) -> tuple[bool, int]:
    og, params, y, free, seed = args
    rng = stream(seed, index)
    # the forced subset is drawn first, uniformly among ell-subsets
    return _forced_outcome(og, params, y, free, rng.sample(og.candidate_sets[y], params.ell), rng)


def _conditional_outcomes(og: OrderedGraph, params: Params, y: int, trials: int, seed: int,
                          workers: int) -> Iterator[tuple[bool, int]]:
    """(supported, missing) of each trial conditioned on a uniform forced
    subset, in index order: the one pass of `mc_conditional` and
    `mc_markov_bound`."""
    _require_conditionable(og, params, y, trials)
    args = (og, params, y, _free_vertices(og, y), seed)
    return iter_indexed(_conditional_worker, args, trials, workers)


def mc_conditional(
    og: OrderedGraph, params: Params, y: int, trials: int, seed: int, workers: int = 1
) -> Estimate:
    """P(vertex reaches the supported set | it is in the layer); claim: > 1/5.

    Conditioning is operational: the candidate-set coordinates are forced and
    the rest sampled, which is valid because coordinates are independent.
    """
    successes = 0
    for ok, _ in _conditional_outcomes(og, params, y, trials, seed, workers):
        successes += ok
    low, high = wilson_interval(successes, trials)
    return Estimate(successes / trials, trials, low, high, CONDITIONAL_TARGET, low > CONDITIONAL_TARGET)


def _sweep_worker(args, index: int) -> bool:
    og, params, y, free, seed, subsets, trials = args
    ok, _ = _forced_outcome(og, params, y, free, subsets[index // trials], stream(seed, index))
    return ok


def mc_conditional_sweep(
    og: OrderedGraph,
    params: Params,
    y: int,
    trials: int,
    seed: int,
    cap: int = 4096,
    workers: int = 1,
) -> tuple[Estimate, tuple[int, ...]]:
    """Worst forced subset instead of a uniform one.

    Enumerates every size-ell subset of y's candidate set (rejecting more than
    `cap` of them), estimates the conditional support probability for each
    with `trials` draws, and returns the smallest estimate together with the
    subset achieving it. The support claim is per-subset, so the worst one
    still has to beat 1/5.
    """
    _require_conditionable(og, params, y, trials)
    count = math.comb(len(og.candidate_sets[y]), params.ell)
    if count > cap:
        raise ValueError(f"{count} forced subsets exceed the sweep cap {cap}")
    subsets = tuple(combinations(og.candidate_sets[y], params.ell))
    counts = [0] * count
    args = (og, params, y, _free_vertices(og, y), seed, subsets, trials)
    for index, ok in enumerate(iter_indexed(_sweep_worker, args, count * trials, workers)):
        counts[index // trials] += ok
    worst_index = min(range(count), key=lambda i: (counts[i], subsets[i]))
    low, high = wilson_interval(counts[worst_index], trials)
    estimate = Estimate(
        counts[worst_index] / trials, trials, low, high, CONDITIONAL_TARGET,
        low > CONDITIONAL_TARGET,
    )
    return estimate, subsets[worst_index]


def mc_markov_bound(
    og: OrderedGraph, params: Params, y: int, trials: int, seed: int, workers: int = 1
) -> MarkovBound:
    """Attrition statistics of the forced subset under the same conditioning."""
    total_missing = 0
    high_missing = 0
    cutoff = 0.9 * params.ell
    for _, missing in _conditional_outcomes(og, params, y, trials, seed, workers):
        total_missing += missing
        if missing >= cutoff:
            high_missing += 1
    return MarkovBound(total_missing / trials, high_missing / trials, params.ell, trials)


def _survival_worker(args, index: int) -> int:
    og, params, x, seed = args
    return 0 if sampled_members(stream(seed, index), og.left_neighbors[x], params.d) else 1


def mc_per_vertex_survival(
    og: OrderedGraph, params: Params, x: int, trials: int, seed: int, workers: int = 1
) -> Estimate:
    """P(sampled vertex x keeps no sampled left-neighbor).

    The target is the exact closed form (1 - 1/d)^(left-degree of x); passing
    means the interval contains it. A vertex with zero left-neighbors always
    survives, so the estimate is exactly 1 there.
    """
    _require_trials(trials)
    require_compatible(og, params)
    require_vertex(og, x)
    successes = 0
    for r in iter_indexed(_survival_worker, (og, params, x, seed), trials, workers):
        successes += r
    low, high = wilson_interval(successes, trials)
    target = survival_probability(params.d, exposures=len(og.left_neighbors[x]))
    return Estimate(successes / trials, trials, low, high, target, low <= target <= high)


def _edge_identity_worker(args, index: int) -> int:
    og, params, seed = args
    sampled = sampled_members(stream(seed, index), range(og.graph.n), params.d)
    return _edges_within(og, _layer_mask(og, sampled, params.ell))


def mc_edge_identity(
    og: OrderedGraph, params: Params, trials: int, seed: int, workers: int = 1
) -> Estimate:
    """Mean layer-internal edge count versus the independence target q^2 * m.

    Refuses graphs with triangles: adjacent vertices must have disjoint
    candidate sets for layer membership to be pairwise independent.
    """
    _require_trials(trials)
    require_compatible(og, params)
    if not og.graph.is_triangle_free():
        raise ValueError("edge identity requires a triangle-free graph")
    values = array("d", iter_indexed(_edge_identity_worker, (og, params, seed), trials, workers))
    mu, low, high = mean_interval(values)
    target = float(params.q * params.q * og.graph.m)
    return Estimate(mu, trials, low, high, target, low <= target <= high)


def _potential_worker(args, index: int) -> int:
    og, params, seed = args
    return _trial_numerator(og, params, stream(seed, index))


def mc_potential(
    og: OrderedGraph, params: Params, trials: int, seed: int, workers: int = 1
) -> tuple[Estimate, float]:
    """(Estimate of the mean potential, fraction of trials with potential > 0).

    The acceptance argument needs a strictly positive mean, so the estimate
    passes when the interval is clear of zero. Each trial yields the integer
    numerator of its potential over the positive denominator 10abd (q = a/b):
    its sign decides success, and num / den, a correctly rounded int
    division, is the potential's nearest float.
    """
    _require_trials(trials)
    require_compatible(og, params)
    require_premise(og, params)
    den = _potential_denominator(params)
    successes = 0
    values = array("d")
    for num in iter_indexed(_potential_worker, (og, params, seed), trials, workers):
        successes += num > 0
        values.append(num / den)
    mu, low, high = mean_interval(values)
    estimate = Estimate(mu, trials, low, high, 0.0, low > 0.0)
    return estimate, successes / trials
