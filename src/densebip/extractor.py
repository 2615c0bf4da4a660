"""Randomized extraction of a dense induced bipartite pair from an ordered core.

Given a d-degenerate graph of minimum degree >= d with a fixed left-to-right
order, each trial samples every vertex independently with probability 1/d,
keeps the sampled vertices with no sampled left-neighbor as the independent
side I, and collects the layer of vertices whose candidate set is hit exactly
ell times. Layer vertices with enough neighbors in I form the supported set.
A trial is accepted when the potential

    |supported| - layer_edges/(10 q d) - q |sampled| d / 10

is strictly positive; a positive potential certifies the supported set is
large yet sparse, so a greedy independent set inside it yields the second side
J with the promised size and degree bounds. With q = a/b the three terms share
the positive denominator 10abd, so acceptance is the sign of an integer
numerator, and the potential's float is num / den, which Python rounds
correctly.

A trial's layer mask comes from its hit counts; its layer edge count and
supported mask follow from the layer mask and the survivors. The counts-only
kernel, through which `stats` and the trial loop of `extract` draw every
trial, returns just the numerator of those counts; a trial that sampled
fewer than ell vertices, or hit no layer, stops there. Each driver binds the
kernel once per run to the run's constants (`_counts_kernel`): ell, the
threshold, the three integer coefficients of the numerator, the ordered
graph's two mask tables and its positions, so a trial reads nothing off the
ordered graph or the params. `sample_trial` reads a `SampleOutcome`'s layer
and supported sets off the same masks and adds the survivors and the exact
Fraction; `extract` builds it only for the trial it accepts.

The layer, its edge count and the support counts are computed on Python-int
bitmasks over the core's vertex ids: the ordered graph derives and caches,
per vertex, a neighbor mask and a holder mask (the neighbors whose candidate
set, their d smallest neighbor ids, ends at an id at least its own). The
survivors come from the order alone: the sample is swept in order of
position, and a member survives when its neighbor mask misses the members
already swept. A mask takes at most n/8 bytes for an n-vertex core. On a
dense core, where n masks take no more memory than the adjacency tuples,
`reducer.build_ordered` fills both tables up front: the neighbor masks from
its bit-sliced ordering, the holder masks from the neighbor masks. On any
other core each mask is built on first use, so a trial costs at most n/8
bytes per vertex it touches the first time. `reducer.bitmask` and
`reducer.mask_members` convert between id lists and masks.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import and_

from .graph import Graph, bipartite_pair_report
from .reducer import OrderedGraph, bitmask, mask_members
from .rng import sampled_members, stream

GUARANTEE_MIN_DEGREE = 16
BEST_EFFORT_MIN_DEGREE = 2
Q_OVER_P_FLOOR = Fraction(35, 100)  # guarantee mode promises q >= 0.35 p
SURVIVAL_FLOOR = 0.35               # (1 - 1/d)^d stays above this for d >= 12
SIZE_RATIO_BOUND = 230              # |I| <= 230 |J| in guarantee mode
DEGREE_FLOOR_DENOM = 2310           # guaranteed average degree is ell / 2310


class ParamsError(ValueError):
    """Degree parameter out of range, or a guarantee-mode premise failed: a
    constant check, or a triangle in the reduced core."""


class ExtractionError(RuntimeError):
    """Extraction could not produce a valid pair; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def exact_q(d: int, ell: int) -> float:
    """Binomial(d, 1/d) pmf at ell, to relative error well below 1e-12.

    The binomial coefficient is exact (arbitrary-precision integers); only the
    two power factors go through log space. Nothing can overflow and the
    rounding error stays at a few ulp even around d = 1e6, where a pure
    log-gamma evaluation would already lose nine digits to cancellation.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0 <= ell <= d:
        raise ValueError(f"ell must lie in [0, d], got {ell}")
    if d == 1:
        # p = 1: the sample is forced, so the hit count is d with certainty
        return 1.0 if ell == 1 else 0.0
    log_powers = 0.0
    if ell:
        log_powers -= ell * math.log(d)
    if ell < d:
        log_powers += (d - ell) * math.log1p(-1.0 / d)
    return math.exp(math.log(math.comb(d, ell)) + log_powers)


def survival_probability(d: int, exposures: int | None = None) -> float:
    """(1 - 1/d)^k: no event fires among k independent 1/d events (default k = d)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    k = d if exposures is None else exposures
    if k < 0:
        raise ValueError("exposure count must be nonnegative")
    if k == 0:
        return 1.0
    return math.exp(k * math.log1p(-1.0 / d))


def target_hit_count(d: int) -> int:
    """floor(ln d / ln ln d): the layer hit count that keeps q within a constant of p."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return math.floor(math.log(d) / math.log(math.log(d)))


class Params(namedtuple("Params", "d ell p q threshold guarantee")):
    """Derived sampling constants for degree parameter d.

    ell is the exact number of candidate-set hits that puts a vertex in the
    layer; p is the per-vertex sampling probability, exactly 1/d; q is the
    binomial pmf at ell, frozen as a rational so potential comparisons are
    exact and deterministic; threshold is the minimum number of I-neighbors a
    layer vertex needs to join the supported set.
    """

    __slots__ = ()

    @property
    def degree_floor(self) -> Fraction:
        """ell / 2310: the average degree guarantee mode promises for the pair."""
        return Fraction(self.ell, DEGREE_FLOOR_DENOM)


def check_degree(d: int, guarantee_mode: bool) -> None:
    """Raise ParamsError if d is below the least degree of the mode.

    The first check of `derive_params`, which needs no arithmetic, so a caller
    can refuse a bad d before it reads its input.
    """
    if guarantee_mode and d < GUARANTEE_MIN_DEGREE:
        raise ParamsError(f"guarantee mode needs d >= {GUARANTEE_MIN_DEGREE}, got {d}")
    if d < BEST_EFFORT_MIN_DEGREE:
        raise ParamsError(f"d must be at least {BEST_EFFORT_MIN_DEGREE}, got {d}")


def derive_params(d: int, guarantee_mode: bool) -> Params:
    """Build Params for degree d.

    Guarantee mode needs d >= 16 and re-checks the constants the size and
    degree bounds rest on (q >= 0.35 p, ell^ell <= d, survival floor).
    Best-effort mode accepts d >= 2 and clamps ell into [1, d]; the formula
    can leave that range for tiny d (d = 3 gives 11).
    """
    check_degree(d, guarantee_mode)
    raw = target_hit_count(d)
    ell = raw if guarantee_mode else min(d, max(1, raw))
    q_float = exact_q(d, ell)
    if q_float <= 0.0:
        raise ParamsError(f"pmf underflow at d={d}, ell={ell}")
    p = Fraction(1, d)
    q = Fraction(q_float)
    threshold = max(1, -(-ell // 10))
    if guarantee_mode:
        if not 1 <= ell <= d:
            raise ParamsError(f"hit target {ell} out of range for d={d}")
        if ell**ell > d:
            raise ParamsError(f"ell^ell = {ell**ell} exceeds d = {d}")
        if survival_probability(d) < SURVIVAL_FLOOR:
            raise ParamsError(f"survival probability below {SURVIVAL_FLOOR} at d={d}")
        if q < Q_OVER_P_FLOOR * p:
            raise ParamsError(f"q/p = {float(q / p):.4f} is below {float(Q_OVER_P_FLOOR)}")
    return Params(d, ell, p, q, threshold, guarantee_mode)


class SampleOutcome(
    namedtuple("SampleOutcome", "sampled survivors layer supported layer_edges potential")
):
    """One sampling trial.

    sampled is the 1/d-sample; survivors its left-minimal members (always an
    independent set); layer the vertices hit exactly ell times in their
    candidate set; supported the layer vertices with >= threshold survivor
    neighbors; layer_edges the edge count inside the layer; potential the
    exact acceptance value.
    """

    __slots__ = ()


def _potential_coefficients(params: Params) -> tuple[int, int, int]:
    """(10abd, b^2, a^2 d^2), with q = a/b: the potential times 10abd is
    10abd |supported| - b^2 layer_edges - a^2 d^2 |sampled|, an integer, and
    10abd is positive, so a potential has its numerator's sign."""
    a, b, d = params.q.numerator, params.q.denominator, params.d
    return 10 * a * b * d, b * b, a * a * d * d


def potential_value(n_supported: int, layer_edges: int, n_sampled: int, params: Params) -> Fraction:
    """|supported| - layer_edges/(10 q d) - q |sampled| d/10, exactly."""
    den, b2, a2d2 = _potential_coefficients(params)
    return Fraction(den * n_supported - b2 * layer_edges - a2d2 * n_sampled, den)


def require_compatible(og: OrderedGraph, params: Params) -> None:
    """Reject an ordered graph built for a different d than `params`."""
    if og.d != params.d:
        raise ValueError(f"ordered graph built for d={og.d}, params for d={params.d}")


def require_premise(og: OrderedGraph, params: Params) -> None:
    """In guarantee mode, raise ParamsError when the core has a triangle: the
    proof of the floor, and of each step it rests on, uses only the core and
    needs it triangle-free."""
    if params.guarantee and not og.graph.is_triangle_free():
        raise ParamsError(
            "guarantee mode needs a triangle-free input, but the reduced core has a triangle"
        )


def require_vertex(og: OrderedGraph, v: int) -> None:
    """Reject a vertex id outside 0..n-1 of the ordered graph."""
    if not 0 <= v < og.graph.n:
        raise ValueError(f"vertex {v} out of range 0..{og.graph.n - 1}")


def left_minimal_members(og: OrderedGraph, sampled) -> list[int]:
    """The members of `sampled` with no sampled left-neighbor, in the given order.

    The sample is swept in order of position (`_left_minimal`), then put
    back in the given order.
    """
    survivors = set(_left_minimal(og.neighbor_masks, og.positions, sampled))
    return [x for x in sampled if x in survivors]


def _left_minimal(neighbors, pos, sampled) -> list[int]:
    """The members of `sampled` with no sampled left-neighbor, in order of
    position, by the ordered graph's neighbor mask table `neighbors` and its
    positions `pos`: a member survives when its neighbor mask misses the mask
    of the members swept before it. The kernel needs them in no order."""
    swept = 0
    survivors = []
    for x in sorted(sampled, key=pos.__getitem__):
        if not neighbors[x] & swept:
            survivors.append(x)
        swept |= 1 << x
    return survivors


def _layer_mask(holders, n: int, sampled, ell: int) -> int:
    """The mask of the vertices whose candidate set holds exactly ell sampled
    vertices, on an n-vertex ordered graph whose holder mask table is `holders`.

    The hit counts live in a bit-sliced counter: levels[i] holds bit i of
    every vertex's count, and each sampled x adds its holder mask with a
    ripple carry. The layer mask selects the vertices whose levels spell ell.
    Each int here is at most n/8 bytes, and so is each cached mask.
    """
    if len(sampled) < ell:
        return 0  # no candidate set can be hit ell times
    levels: list[int] = []
    for x in sampled:
        carry = holders[x]
        for i, level in enumerate(levels):
            levels[i] = level ^ carry
            carry &= level
            if not carry:
                break
        else:
            if carry:
                levels.append(carry)
    if ell >> len(levels):
        return 0  # every count is below 2**len(levels) <= ell
    layer_mask = (1 << n) - 1
    for i, level in enumerate(levels):
        layer_mask &= level if ell >> i & 1 else ~level
    return layer_mask


def _edges_within(neighbors, mask: int) -> int:
    """The number of edges among the vertices of `mask`: each member's
    neighbor mask in the table `neighbors`, cut by it, counts that member's
    edges inside."""
    # map chains run the loop in C; a generator costs about twice as much here,
    # and the mask's bound __and__ about an eighth more than operator.and_
    cut = map(and_, map(neighbors.__getitem__, mask_members(mask)), repeat(mask))
    return sum(map(int.bit_count, cut)) // 2


def _supported_mask(neighbors, survivors, layer_mask: int, threshold: int) -> int:
    """The mask of the vertices of `layer_mask` with at least `threshold`
    neighbors in `survivors`, by the neighbor mask table `neighbors`.

    At threshold 1 a vertex is supported when it lies in the union of the
    survivors' neighbor masks, so when the survivors are fewer than the layer
    vertices one OR per survivor replaces a count per layer vertex. Otherwise
    each layer vertex's neighbor mask is cut by the survivors' mask and its
    bits are counted.
    """
    if threshold == 1 and len(survivors) < layer_mask.bit_count():
        reach = 0
        for w in survivors:
            reach |= neighbors[w]
        return reach & layer_mask
    survivor_mask = bitmask(survivors)
    return bitmask(
        y for y in mask_members(layer_mask)
        if (neighbors[y] & survivor_mask).bit_count() >= threshold
    )


def sample_trial(og: OrderedGraph, params: Params, rng) -> SampleOutcome:
    """Draw one trial from `rng`: a random.Random, usually a seeded stream, or
    anything whose getrandbits(k) gives the same 32-bit words for any k.

    Sampling goes through `sampled_members`, so the per-vertex probability is
    exactly 1/d and the stream is consumed as by one randrange(d) per vertex,
    though for d < 256 most of it is drawn as one getrandbits block of a word
    per vertex. The record's layer and supported sets are read off the masks
    of `_layer_mask` and `_supported_mask`.
    """
    require_compatible(og, params)
    n = og.graph.n
    neighbors = og.neighbor_masks
    sampled = sampled_members(rng, range(n), params.d)
    survivors = left_minimal_members(og, sampled)
    layer_mask = _layer_mask(og.holder_masks, n, sampled, params.ell)
    layer_edges = _edges_within(neighbors, layer_mask)
    supported_mask = _supported_mask(neighbors, survivors, layer_mask, params.threshold)
    layer, supported = mask_members(layer_mask), mask_members(supported_mask)
    phi = potential_value(len(supported), layer_edges, len(sampled), params)
    return SampleOutcome(
        tuple(sampled), tuple(survivors), tuple(layer), tuple(supported), layer_edges, phi
    )


def _trial_numerator(vertices: range, d: int, ell: int, threshold: int, den: int, b2: int,
                     a2d2: int, holders, neighbors, pos, rng) -> int:
    """The numerator of `sample_trial(og, params, rng).potential` over 10abd,
    unreduced, and `rng` left in the same state.

    All but `rng` are the run's constants, which `_counts_kernel` binds once:
    the vertices range(n), d, ell, the threshold, the coefficients of
    `_potential_coefficients`, the holder and neighbor mask tables and the
    positions. It draws the same sample and evaluates it the same way, but
    keeps only counts: a trial whose layer is empty, as when it sampled fewer
    than ell vertices, scores -a^2 d^2 |sampled| before its survivors are
    found, the support count is one bit count of a mask, and no tuple, record
    or Fraction is built.
    """
    sampled = sampled_members(rng, vertices, d)
    n_sampled = len(sampled)
    layer_mask = _layer_mask(holders, len(vertices), sampled, ell) if n_sampled >= ell else 0
    if not layer_mask:
        return -a2d2 * n_sampled
    survivors = _left_minimal(neighbors, pos, sampled)
    layer_edges = _edges_within(neighbors, layer_mask)
    supported_mask = _supported_mask(neighbors, survivors, layer_mask, threshold)
    return den * supported_mask.bit_count() - b2 * layer_edges - a2d2 * n_sampled


def _counts_kernel(og: OrderedGraph, params: Params) -> partial:
    """`_trial_numerator` with the run's constants bound: call it on a stream.
    The caller checks that `og` and `params` are compatible. It pickles, with
    the mask tables and positions, as a `partial` of a module-level function."""
    return partial(
        _trial_numerator, range(og.graph.n), params.d, params.ell, params.threshold,
        *_potential_coefficients(params), og.holder_masks, og.neighbor_masks, og.positions,
    )


def greedy_independent_set(g: Graph) -> tuple[int, ...]:
    """Minimum-degree greedy independent set (ties to the smallest id).

    Repeatedly takes a minimum-degree vertex of the remaining graph and
    deletes its closed neighborhood; the classic guarantee gives at least
    n / (average_degree + 1) vertices.
    """
    n = g.n
    deg = [len(nbrs) for nbrs in g.adjacency]
    alive = [True] * n
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    chosen: list[int] = []
    while heap:
        dv, v = heapq.heappop(heap)
        if not alive[v] or dv != deg[v]:
            continue
        chosen.append(v)
        removed = [v] + [w for w in g.adjacency[v] if alive[w]]
        for u in removed:
            alive[u] = False
        for u in removed:
            for w in g.adjacency[u]:
                if alive[w]:
                    deg[w] -= 1
                    heapq.heappush(heap, (deg[w], w))
    return tuple(sorted(chosen))


class ExtractionResult(namedtuple("ExtractionResult", "report trials_used meets_floor")):
    """Accepted pair and its trial metadata.

    report is the verification of the pair on the ordered graph's vertex ids:
    report.I is the survivor side of the accepted trial, report.J a greedy
    independent set inside the supported layer minus I. trials_used counts
    the trials drawn; meets_floor is whether the average degree reaches
    params.degree_floor (None in best-effort mode). A guarantee-mode result
    always has |I| <= 230 |J|: `extract` raises rather than return one.
    """

    __slots__ = ()


def extract(
    og: OrderedGraph, params: Params, seed: int, max_retries: int = 1000
) -> ExtractionResult:
    """Resample until the potential is positive, then carve out the pair.

    Trial i draws only from stream(seed, i) and the smallest index with
    positive potential wins. Trials run in index order in the calling
    process, with no pool: one costs more than the few trials an accepted
    run draws. The counts-only kernel judges each trial, and `sample_trial`
    redraws only the accepted index, from the same stream, for its sets.
    The pair is verified once, on the ordered graph's vertex ids, and that
    report is the result's `report`. Raises ExtractionError when
    retries run out, the accepted trial cannot produce a nonempty adjacent
    pair, or it breaks the 230x ratio. In guarantee mode it first raises
    ParamsError when the core has a triangle (`require_premise`).
    """
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    require_compatible(og, params)
    require_premise(og, params)
    kernel = _counts_kernel(og, params)
    accepted_index = next((i for i in range(max_retries) if kernel(stream(seed, i)) > 0), -1)
    if accepted_index < 0:
        raise ExtractionError(
            f"no trial with positive potential in {max_retries} attempts",
            {"max_retries": max_retries},
        )
    outcome = sample_trial(og, params, stream(seed, accepted_index))
    diagnostics = {
        "trial_index": accepted_index,
        "sampled": len(outcome.sampled),
        "survivors": len(outcome.survivors),
        "layer": len(outcome.layer),
        "supported": len(outcome.supported),
    }
    pool = set(outcome.supported) - set(outcome.survivors)
    if not pool:
        raise ExtractionError("supported layer is contained in the survivor side", diagnostics)
    sub, kept = og.graph.induced_subgraph(pool)
    side_j = tuple(kept[i] for i in greedy_independent_set(sub))
    side_i = outcome.survivors
    if not side_j:
        raise ExtractionError("greedy selection returned no vertices", diagnostics)
    report = bipartite_pair_report(og.graph, side_i, side_j)
    if not report.valid:
        raise ExtractionError(f"pair failed verification: {report.reason}", diagnostics)
    if report.cross_edges == 0:
        raise ExtractionError("no edges between the two sides", diagnostics)
    if params.guarantee and len(side_i) > SIZE_RATIO_BOUND * len(side_j):
        raise ExtractionError(
            f"survivor side exceeds {SIZE_RATIO_BOUND}x the partner side", diagnostics
        )
    meets_floor = report.average_degree >= params.degree_floor if params.guarantee else None
    return ExtractionResult(report, accepted_index + 1, meets_floor)
