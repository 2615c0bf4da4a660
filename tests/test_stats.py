import concurrent.futures
import math
import operator
import os
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densebip.extractor import Params, ParamsError, exact_q, survival_probability
from densebip.generators import complete_bipartite, random_bipartite
from densebip.graph import from_edge_list
from densebip.reducer import OrderedGraph, reduce_and_order
from densebip.rng import stream
from densebip.generators import c5_blowup
import densebip.stats
from densebip.stats import (
    Estimate,
    MarkovBound,
    check_q_bound,
    derive_params,
    iter_indexed,
    log_spaced_ints,
    mc_conditional,
    mc_conditional_sweep,
    mc_edge_identity,
    mc_markov_bound,
    mc_per_vertex_survival,
    mc_potential,
    mean_interval,
    wilson_interval,
)

from helpers import (
    k40_with_triangles,
    ordered_cores,
    ragged_trial_cores,
    reference_conditional_outcomes,
    reference_forced_outcome,
)


def star_ordered(leaves: int, d: int) -> OrderedGraph:
    """Hand-built ordered star: the center sits rightmost, so the leaves have
    no left-neighbors at all. Candidate sets are ragged on purpose: a leaf's
    holds only the center. Only the center's matters for the conditional
    checks."""
    g = from_edge_list(leaves + 1, [(i, leaves) for i in range(leaves)])
    return OrderedGraph(g, tuple(range(leaves + 1)), d)


class TestExactQ:
    def test_forced_cases(self):
        assert exact_q(1, 1) == 1.0
        assert exact_q(2, 0) == 0.25

    def test_d100_ell3(self):
        assert exact_q(100, 3) == pytest.approx(0.0609992, abs=1e-6)

    def test_matches_exact_rational_small_d(self):
        for d in range(1, 31):
            for ell in range(d + 1):
                exact = (
                    Fraction(math.comb(d, ell))
                    * Fraction(1, d) ** ell
                    * Fraction(d - 1, d) ** (d - ell)
                )
                approx = Fraction(exact_q(d, ell))
                if exact == 0:
                    assert approx == 0
                else:
                    assert abs(approx - exact) / exact < Fraction(1, 10**12)

    @pytest.mark.parametrize("d", [1, 2, 7, 50, 300, 10_000])
    def test_pmf_sums_to_one(self, d):
        assert abs(sum(exact_q(d, k) for k in range(d + 1)) - 1) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exact_q(0, 0)
        with pytest.raises(ValueError):
            exact_q(5, 6)
        with pytest.raises(ValueError):
            exact_q(5, -1)


class TestCheckQBound:
    def test_d100(self):
        res = check_q_bound(100)
        assert res.ell == 3
        assert res.ratio == pytest.approx(6.0999, abs=1e-3)
        assert res.passed

    def test_d16(self):
        assert check_q_bound(16).passed

    def test_below_16_rejected(self):
        with pytest.raises(ValueError):
            check_q_bound(15)


class TestIntervals:
    def test_wilson_contains_mle(self):
        for k, n in [(0, 10), (10, 10), (3, 17), (9999, 10000)]:
            low, high = wilson_interval(k, n)
            assert low <= k / n <= high
            assert 0 <= low <= high <= 1 + 1e-12

    def test_wilson_narrows_with_trials(self):
        w1 = wilson_interval(50, 100)
        w2 = wilson_interval(5000, 10000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_wilson_rejects_bad_input(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_mean_interval(self):
        mu, low, high = mean_interval([1.0, 2.0, 3.0])
        assert mu == 2.0 and low < 2.0 < high
        mu, low, high = mean_interval([4.0])
        assert (mu, low, high) == (4.0, 4.0, 4.0)
        with pytest.raises(ValueError):
            mean_interval([])


class TestLogSpacedInts:
    def test_endpoints_and_monotone(self):
        xs = log_spaced_ints(16, 10**6, 50)
        assert xs[0] == 16 and xs[-1] == 10**6
        assert xs == sorted(set(xs))

    def test_single(self):
        assert log_spaced_ints(7, 7, 5) == [7]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            log_spaced_ints(0, 10, 3)


class TestConditional:
    def test_estimate_shape(self):
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        params = derive_params(16, True)
        est = mc_conditional(og, params, 0, 200, seed=1)
        assert est.trials == 200
        assert 0.0 <= est.mean <= 1.0
        assert est.ci_low <= est.mean <= est.ci_high
        assert est.target == 0.2

    def test_single_trial_is_zero_or_one(self):
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        params = derive_params(16, True)
        est = mc_conditional(og, params, 0, 1, seed=3)
        assert est.mean in (0.0, 1.0)

    def test_k64_beats_one_fifth(self):
        og, _ = reduce_and_order(complete_bipartite(64, 64), 64)
        params = derive_params(64, True)
        est = mc_conditional(og, params, 0, 2000, seed=1)
        assert est.passed and est.ci_low > 0.2

    def test_no_left_neighbors_gives_probability_one(self):
        # forcing the full candidate set with ell=d: every forced vertex has no
        # left-neighbor, so it always survives and the center always qualifies
        og = star_ordered(3, 3)
        params = Params(3, 3, Fraction(1, 3), Fraction(exact_q(3, 3)), 1, False)
        est = mc_conditional(og, params, 3, 60, seed=5)
        assert est.mean == 1.0

    @pytest.mark.parametrize(
        "driver", [mc_conditional, mc_conditional_sweep, mc_markov_bound],
        ids=lambda f: f.__name__,
    )
    def test_low_degree_vertex_rejected(self, driver):
        og = star_ordered(3, 3)
        params = Params(3, 3, Fraction(1, 3), Fraction(exact_q(3, 3)), 1, False)
        with pytest.raises(ValueError, match="degree below d=3"):
            driver(og, params, 0, 10, seed=0)

    def test_zero_trials_rejected(self):
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        with pytest.raises(ValueError):
            mc_conditional(og, derive_params(16, True), 0, 0, seed=0)

    def test_non_bipartite_instance_beats_one_fifth(self):
        # 32-regular triangle-free blow-up of the 5-cycle
        og, _ = reduce_and_order(c5_blowup(16), 32)
        params = derive_params(32, True)
        est = mc_conditional(og, params, 0, 2000, seed=1)
        assert est.passed and est.ci_low > 0.2

    def test_markov_attrition_bounds(self):
        trials = 2000
        # missing counts live in [0, ell], so the se is at most ell/(2 sqrt(t))
        for g, d in ((complete_bipartite(64, 64), 64), (c5_blowup(16), 32)):
            og, _ = reduce_and_order(g, d)
            params = derive_params(d, True)
            mb = mc_markov_bound(og, params, 0, trials, seed=1)
            slack = 3 * params.ell / (2 * math.sqrt(trials))
            assert mb.mean_missing <= 0.65 * params.ell + slack
            assert mb.frac_high_missing < 0.8

    @pytest.mark.parametrize(
        "driver", [mc_conditional, mc_conditional_sweep, mc_markov_bound],
        ids=lambda f: f.__name__,
    )
    def test_guarantee_mode_refuses_a_core_with_a_triangle(self, driver):
        og, _ = reduce_and_order(k40_with_triangles(), 16)
        assert not og.graph.is_triangle_free()
        with pytest.raises(ParamsError, match="the reduced core has a triangle"):
            driver(og, derive_params(16, True), 0, 10, seed=0)
        driver(og, derive_params(16, False), 0, 10, seed=0)

    def test_mismatched_params_rejected(self):
        og, _ = reduce_and_order(complete_bipartite(32, 32), 32)
        params = derive_params(16, True)
        with pytest.raises(ValueError):
            mc_conditional(og, params, 0, 10, seed=0)


@pytest.mark.parametrize(
    "driver",
    [
        lambda og, params, v: mc_conditional(og, params, v, 10, seed=0),
        lambda og, params, v: mc_conditional_sweep(og, params, v, 10, seed=0),
        lambda og, params, v: mc_markov_bound(og, params, v, 10, seed=0),
        lambda og, params, v: mc_per_vertex_survival(og, params, v, 10, seed=0),
    ],
    ids=["conditional", "conditional_sweep", "markov_bound", "per_vertex_survival"],
)
def test_out_of_range_vertex_rejected(driver):
    og, _ = reduce_and_order(c5_blowup(20), 40)
    params = derive_params(40, True)
    for v in (-1, og.graph.n):
        with pytest.raises(ValueError, match="out of range"):
            driver(og, params, v)


class TestConditionalSweep:
    def test_worst_subset_still_beats_one_fifth(self):
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        params = derive_params(16, True)
        est, worst = mc_conditional_sweep(og, params, 0, 100, seed=1)
        assert len(worst) == params.ell
        assert set(worst) <= set(og.candidate_sets[0])
        assert est.passed and est.ci_low > 0.2

    def test_single_subset_instance_is_exact(self):
        # ell = d leaves exactly one forced subset: the full candidate set,
        # whose members have no left-neighbors, so the probability is 1
        og = star_ordered(3, 3)
        params = Params(3, 3, Fraction(1, 3), Fraction(exact_q(3, 3)), 1, False)
        est, worst = mc_conditional_sweep(og, params, 3, 50, seed=2)
        assert worst == (0, 1, 2)
        assert est.mean == 1.0

    def test_cap_enforced(self):
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        params = derive_params(16, True)
        with pytest.raises(ValueError):
            mc_conditional_sweep(og, params, 0, 10, seed=0, cap=10)
        # the refusal counts the subsets before it enumerates them: listing
        # the 280,840 forced subsets of K_{120,120} at d=120 peaked at 19 MiB
        og, _ = reduce_and_order(complete_bipartite(120, 120), 120)
        params = derive_params(120, True)
        og.candidate_sets  # built before tracing
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="280840 forced subsets exceed the sweep cap 4096"):
                mc_conditional_sweep(og, params, 0, 10, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_deterministic(self):
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        params = derive_params(16, True)
        a = mc_conditional_sweep(og, params, 0, 30, seed=4)
        b = mc_conditional_sweep(og, params, 0, 30, seed=4, workers=2)
        assert a == b


# mc_conditional_sweep, mc_markov_bound and mc_conditional at vertex 0 and
# seed 7, taken before each conditioned trial was scored by one function; the
# 730-vertex core of random_bipartite(1000, 1000, 0.008, seed 5) fails the
# mask predicate, so it takes the heap ordering and lazily built masks
FROZEN_CONDITIONED = {
    "K16,16 d=16": (
        lambda: complete_bipartite(16, 16), 16, True, 20,
        (Estimate(0.15, 20, 0.05236779195949584, 0.36042329588695743, 0.2, False), (16, 17)),
        MarkovBound(0.698, 0.238, 2, 500),
        Estimate(0.762, 500, 0.7227631109081946, 0.7972415889816121, 0.2, True),
    ),
    "c5_blowup(16) d=32": (
        lambda: c5_blowup(16), 32, True, 8,
        (Estimate(0.125, 8, 0.02241690886329617, 0.4708948057698615, 0.2, False), (16, 18)),
        MarkovBound(0.714, 0.212, 2, 500),
        Estimate(0.788, 500, 0.7500471496065019, 0.8215610701196979, 0.2, True),
    ),
    "random_bipartite core d=5": (
        lambda: random_bipartite(1000, 1000, 0.008, 5), 5, False, 40,
        (Estimate(0.75, 40, 0.598057409330299, 0.8581303210445048, 0.2, True), (443, 569, 661)),
        MarkovBound(1.268, 0.116, 3, 500),
        Estimate(0.9, 500, 0.8705774917999974, 0.9233228133752799, 0.2, True),
    ),
}


class TestConditionedDrivers:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", FROZEN_CONDITIONED)
    def test_frozen_values(self, case, workers):
        build, d, guarantee, sweep_trials, sweep, markov, conditional = FROZEN_CONDITIONED[case]
        og, _ = reduce_and_order(build(), d)
        params = derive_params(d, guarantee)
        assert mc_conditional_sweep(og, params, 0, sweep_trials, seed=7, workers=workers) == sweep
        assert mc_markov_bound(og, params, 0, 500, seed=7, workers=workers) == markov
        assert mc_conditional(og, params, 0, 500, seed=7, workers=workers) == conditional

    @settings(max_examples=40)
    @given(st.one_of(ordered_cores(), ragged_trial_cores()), st.integers(0, 2**64 - 1),
           st.integers(1, 4), st.data())
    def test_match_reference_trials(self, core, seed, trials, data):
        """All three conditioned drivers against the reference draw-then-score
        trials, which check that each sample meets y's candidate set in exactly
        its ell forced vertices."""
        og, params = core
        eligible = [v for v in range(og.graph.n) if len(og.graph.adjacency[v]) >= params.d]
        assume(eligible)
        y = data.draw(st.sampled_from(eligible))

        def estimate(successes: int) -> Estimate:
            low, high = wilson_interval(successes, trials)
            return Estimate(successes / trials, trials, low, high, 0.2, low > 0.2)

        outcomes = reference_conditional_outcomes(og, params, y, trials, seed)
        assert mc_conditional(og, params, y, trials, seed) == estimate(
            sum(ok for ok, _ in outcomes)
        )
        missing = [m for _, m in outcomes]
        assert mc_markov_bound(og, params, y, trials, seed) == MarkovBound(
            sum(missing) / trials,
            sum(1 for m in missing if m >= 0.9 * params.ell) / trials,
            params.ell,
            trials,
        )
        subsets = list(combinations(og.candidate_sets[y], params.ell))
        counts = [
            sum(
                reference_forced_outcome(og, params, y, forced, stream(seed, k * trials + t))[0]
                for t in range(trials)
            )
            for k, forced in enumerate(subsets)
        ]
        worst = min(range(len(subsets)), key=lambda k: (counts[k], subsets[k]))
        assert mc_conditional_sweep(og, params, y, trials, seed) == (
            estimate(counts[worst]), subsets[worst]
        )


class TestSurvival:
    def test_no_left_neighbors_is_certain(self):
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        params = derive_params(16, True)
        leftmost = og.order[0]
        assert og.left_neighbors[leftmost] == ()
        est = mc_per_vertex_survival(og, params, leftmost, 300, seed=2)
        assert est.mean == 1.0 and est.target == 1.0 and est.passed

    def test_full_exposure_matches_closed_form(self):
        og, _ = reduce_and_order(complete_bipartite(32, 32), 32)
        params = derive_params(32, True)
        x = og.order[-1]
        assert len(og.left_neighbors[x]) == 32
        est = mc_per_vertex_survival(og, params, x, 3000, seed=1)
        assert est.target == pytest.approx((31 / 32) ** 32, rel=1e-12)
        assert est.passed

    def test_closed_form_floor_at_12(self):
        assert survival_probability(12) == pytest.approx(0.35200, abs=1e-4)
        assert survival_probability(12) >= 0.35


class TestEdgeIdentity:
    def test_requires_triangle_free(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        og = OrderedGraph(g, (0, 1, 2), 2)
        params = derive_params(2, False)
        with pytest.raises(ValueError):
            mc_edge_identity(og, params, 10, seed=0)

    def test_edgeless_layer_target_zero(self):
        g = from_edge_list(4, [])
        og = OrderedGraph(g, (0, 1, 2, 3), 2)
        params = derive_params(2, False)
        est = mc_edge_identity(og, params, 50, seed=0)
        assert est.mean == 0.0 and est.target == 0.0 and est.passed

    def test_k32_interval_contains_target(self):
        og, _ = reduce_and_order(complete_bipartite(32, 32), 32)
        params = derive_params(32, True)
        est = mc_edge_identity(og, params, 3000, seed=1)
        assert est.target == pytest.approx(float(params.q * params.q * 1024), rel=1e-12)
        assert est.passed


class TestPotential:
    def test_zero_trials_rejected(self):
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        with pytest.raises(ValueError):
            mc_potential(og, derive_params(16, True), 0, seed=0)

    def test_success_rate_in_unit_interval(self):
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        est, rate = mc_potential(og, derive_params(16, True), 200, seed=4)
        assert 0.0 <= rate <= 1.0
        assert est.trials == 200

    def test_k200_mean_clears_zero(self):
        og, _ = reduce_and_order(complete_bipartite(200, 200), 200)
        est, rate = mc_potential(og, derive_params(200, True), 300, seed=1)
        assert est.passed and est.ci_low > 0
        assert rate > 0

    def test_deterministic_and_worker_independent(self):
        og, _ = reduce_and_order(complete_bipartite(32, 32), 32)
        params = derive_params(32, True)
        a = mc_potential(og, params, 120, seed=6, workers=1)
        b = mc_potential(og, params, 120, seed=6, workers=2)
        assert a == b

    def test_worker_independent_with_built_masks(self):
        # the serial run builds the masks; the pool then gets the ordered
        # graph with its mask caches filled
        og, _ = reduce_and_order(c5_blowup(12), 24)
        params = derive_params(24, True)
        a = mc_potential(og, params, 150, seed=2, workers=1)
        assert og.__dict__["holder_masks"] and og.__dict__["neighbor_masks"]
        assert mc_potential(og, params, 150, seed=2, workers=2) == a
        e = mc_edge_identity(og, params, 150, seed=2, workers=1)
        assert e.mean > 0
        assert mc_edge_identity(og, params, 150, seed=2, workers=2) == e


@pytest.mark.parametrize("driver", [mc_potential, mc_edge_identity], ids=lambda f: f.__name__)
def test_memory_per_trial(driver):
    """Each trial leaves one float behind: the tracemalloc peak grew by about
    78 bytes a trial in mc_potential and 32 in mc_edge_identity while they
    held every numerator or a list of floats."""
    og, _ = reduce_and_order(c5_blowup(60), 120)
    params = derive_params(120, True)
    for v in range(og.graph.n):  # every mask is built before tracing
        og.holder_masks[v], og.neighbor_masks[v], og.left_masks[v]

    def peak(trials: int) -> int:
        tracemalloc.start()
        try:
            driver(og, params, trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(5000) - peak(1000)) / 4000 < 12


def test_every_check_deterministic_given_seed_and_trials():
    og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
    params = derive_params(16, True)
    x = og.order[-1]
    assert mc_conditional(og, params, 0, 150, seed=8) == mc_conditional(og, params, 0, 150, seed=8)
    assert mc_markov_bound(og, params, 0, 150, seed=8) == mc_markov_bound(og, params, 0, 150, seed=8)
    assert mc_per_vertex_survival(og, params, x, 150, seed=8) == mc_per_vertex_survival(
        og, params, x, 150, seed=8
    )
    assert mc_edge_identity(og, params, 150, seed=8) == mc_edge_identity(og, params, 150, seed=8)
    assert mc_potential(og, params, 150, seed=8) == mc_potential(og, params, 150, seed=8)


@pytest.mark.parametrize("count", [0, 1, 2, 11])
def test_pool_yields_the_serial_values(count, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one CPU
    # 11 indices at 2 workers: chunks of 2, the last one short
    serial = list(iter_indexed(operator.pow, 3, count))
    assert serial == [3**i for i in range(count)]
    assert list(iter_indexed(operator.pow, 3, count, workers=2)) == serial


def test_negative_count_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        list(iter_indexed(operator.pow, 3, -1))


@pytest.mark.parametrize("workers, count, cpus, opened", [
    (5000, 11, 2, [2]),  # capped at the CPU count
    (5000, 3, 64, [3]),  # capped at the index count
    (3, 11, 8, [3]),
    (2, 1, 8, []),  # one index runs in this process
    (4, 100, None, []),  # an unknown CPU count counts as one
])
def test_pool_is_bounded_by_cpus_and_indices(monkeypatch, workers, count, cpus, opened):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(densebip.stats, "_WORK", None)
    assert list(iter_indexed(operator.pow, 3, count, workers)) == [3**i for i in range(count)]
    assert sizes == opened
