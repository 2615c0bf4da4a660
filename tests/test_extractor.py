import decimal
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densebip.extractor
from densebip.extractor import (
    ExtractionError,
    Params,
    ParamsError,
    _counts_kernel,
    _edges_within,
    _layer_mask,
    _potential_coefficients,
    _supported_mask,
    derive_params,
    exact_q,
    extract,
    greedy_independent_set,
    left_minimal_members,
    potential_value,
    sample_trial,
    survival_probability,
    target_hit_count,
)
from densebip.generators import c5_blowup, complete_bipartite, random_bipartite
from densebip.graph import from_edge_list
from densebip.reducer import (
    OrderedGraph,
    _holder_masks,
    _masks_fit,
    bitmask,
    build_ordered,
    mask_members,
    reduce_and_order,
)
from densebip.rng import stream
from densebip.stats import Estimate, mc_potential, mean_interval, wilson_interval

from helpers import (
    cycle_graph,
    edges_within,
    frozen_trial_numerator,
    k40_with_triangles,
    ordered_cores,
    ragged_cores,
    ragged_trial_cores,
    random_graph,
    reference_hit_layer,
    reference_left_minimal_members,
    reference_potential_value,
    reference_sample_trial,
    reference_supported_members,
)


_HIGHPREC = decimal.Context(prec=50)


def hit_target_highprec(d: int) -> int:
    ln_d = _HIGHPREC.ln(decimal.Decimal(d))
    return math.floor(_HIGHPREC.divide(ln_d, _HIGHPREC.ln(ln_d)))


class FixedRng:
    """Mersenne Twister stand-in for draws below d: yields scripted randrange(d)
    values, then a constant, as 32-bit words.

    Each value r is the word r << (32 - k), k = d.bit_length(). getrandbits
    joins words little-endian and cuts the last to its top bits, as
    random.Random does, so getrandbits(k) gives r back and getrandbits(32 c)
    holds c words.
    """

    def __init__(self, values, tail=1, *, d):
        self.values = list(values)
        self.tail = tail
        self.shift = 32 - d.bit_length()

    def randrange(self, _n):
        if self.values:
            return self.values.pop(0)
        return self.tail

    def getrandbits(self, k):
        bits = 0
        for i in range(0, k, 32):
            word = self.randrange(None) << self.shift
            bits |= word >> max(0, 32 - (k - i)) << i
        return bits


class TestDeriveParams:
    @pytest.mark.parametrize(
        "d,expected", [(16, 2), (64, 2), (100, 3), (200, 3), (10**6, 5)]
    )
    def test_hit_target_matches_high_precision(self, d, expected):
        assert target_hit_count(d) == expected
        assert hit_target_highprec(d) == expected
        assert derive_params(d, True).ell == expected

    def test_d100_ratio(self):
        params = derive_params(100, True)
        assert float(params.q * 100) == pytest.approx(6.100, abs=1e-3)
        assert params.q >= Fraction(35, 100) * params.p

    def test_q_matches_exact_rational(self):
        for d in (16, 20, 25, 30):
            params = derive_params(d, True)
            exact = (
                Fraction(math.comb(d, params.ell))
                * Fraction(1, d) ** params.ell
                * Fraction(d - 1, d) ** (d - params.ell)
            )
            assert abs(params.q - exact) / exact < Fraction(1, 10**12)

    def test_guarantee_needs_d16(self):
        with pytest.raises(ParamsError):
            derive_params(15, True)
        derive_params(16, True)

    def test_best_effort_floor(self):
        with pytest.raises(ParamsError):
            derive_params(1, False)
        assert derive_params(2, False).ell == 1

    def test_best_effort_clamps_tiny_d(self):
        # the raw formula gives 11 at d=3; the pmf needs ell <= d
        assert derive_params(3, False).ell == 3
        assert derive_params(4, False).ell == 4
        assert derive_params(5, False).ell == 3

    def test_p_exact(self):
        assert derive_params(200, True).p == Fraction(1, 200)

    @pytest.mark.parametrize("ell,thr", [(1, 1), (5, 1), (10, 1), (11, 2), (20, 2), (21, 3)])
    def test_threshold_rounding(self, ell, thr):
        assert max(1, -(-ell // 10)) == thr

    def test_guarantee_constant_checks_pass_at_16(self):
        params = derive_params(16, True)
        assert params.ell**params.ell <= 16
        assert survival_probability(16) >= 0.35


class TestSampleTrial:
    def test_forced_empty_sample(self):
        og = build_ordered(complete_bipartite(3, 3), 3)
        p3 = Params(3, 1, Fraction(1, 3), Fraction(exact_q(3, 1)), 1, False)
        out = sample_trial(og, p3, FixedRng([], tail=1, d=3))
        assert out.sampled == () and out.survivors == ()
        assert out.layer == () and out.supported == ()
        assert out.layer_edges == 0
        assert out.potential == 0

    def test_forced_full_side_misses_layer(self):
        # with ell=2 and one entire side sampled, the other side sees 3 hits
        og = build_ordered(complete_bipartite(3, 3), 3)
        p = Params(3, 2, Fraction(1, 3), Fraction(exact_q(3, 2)), 1, False)
        out = sample_trial(og, p, FixedRng([0, 0, 0], tail=1, d=3))
        assert out.sampled == (0, 1, 2)
        assert out.layer == ()

    def test_negative_potential_when_layer_empty_but_sample_not(self):
        og = build_ordered(complete_bipartite(3, 3), 3)
        p = Params(3, 2, Fraction(1, 3), Fraction(exact_q(3, 2)), 1, False)
        out = sample_trial(og, p, FixedRng([0, 0, 0], tail=1, d=3))
        assert out.potential < 0

    def test_invariants_on_corpus(self):
        og, _ = reduce_and_order(complete_bipartite(24, 24), 24)
        params = derive_params(24, True)
        g = og.graph
        for seed in range(40):
            out = sample_trial(og, params, stream(seed, 0))
            assert set(out.survivors) <= set(out.sampled)
            assert g.is_independent(out.survivors)
            assert set(out.supported) <= set(out.layer)
            sampled = set(out.sampled)
            for y in range(g.n):
                hits = len(sampled & set(og.candidate_sets[y]))
                assert (hits == params.ell) == (y in set(out.layer))
            survivors = set(out.survivors)
            for y in out.supported:
                assert len(survivors & set(g.adjacency[y])) >= params.threshold
            assert out.layer_edges == edges_within(g, out.layer)
            assert potential_value(
                len(out.supported), out.layer_edges, len(out.sampled), params
            ) == out.potential

    def test_mean_sample_size_matches_rate(self):
        og, _ = reduce_and_order(complete_bipartite(64, 64), 64)
        params = derive_params(64, True)
        trials = 400
        total = sum(
            len(sample_trial(og, params, stream(5, i)).sampled) for i in range(trials)
        )
        low, high = wilson_interval(total, trials * og.graph.n)
        assert low <= 1 / 64 <= high

    def test_potential_value_formula(self):
        params = derive_params(100, True)
        assert potential_value(10, 0, 0, params) == Fraction(10)
        assert potential_value(0, 0, 0, params) == 0
        phi = potential_value(7, 3, 2, params)
        expected = (
            Fraction(7)
            - Fraction(3) / (10 * params.q * 100)
            - params.q * 2 * 100 / 10
        )
        assert phi == expected


class TestSampleTrialOracle:
    @settings(max_examples=150)
    @given(st.one_of(ordered_cores(), ragged_trial_cores()), st.integers(0, 2**64 - 1),
           st.integers(0, 2**20))
    def test_matches_reference_trial(self, core, seed, index):
        """`sample_trial` and the counts-only `_trial_numerator` against the
        reference trial: the same record, the exact potential and its float,
        and each stream left in the same state."""
        og, params = core
        ours, counts, theirs = stream(seed, index), stream(seed, index), stream(seed, index)
        expected = reference_sample_trial(og, params, theirs)
        assert sample_trial(og, params, ours) == expected
        num, (den, _, _) = _counts_kernel(og, params)(counts), _potential_coefficients(params)
        assert Fraction(num, den) == expected.potential
        assert num / den == float(expected.potential)
        assert ours.getstate() == counts.getstate() == theirs.getstate()

    @given(
        st.integers(16, 10**6),
        st.integers(0, 10**4),
        st.integers(0, 10**6),
        st.integers(0, 10**4),
    )
    def test_potential_value_matches_fraction_chain(self, d, n_supported, layer_edges, n_sampled):
        params = derive_params(d, False)
        assert potential_value(n_supported, layer_edges, n_sampled, params) == (
            reference_potential_value(n_supported, layer_edges, n_sampled, params)
        )


def vertex_subset(data, n: int) -> list[int]:
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [v for v in range(n) if keep[v]]


class TestTrialKernelOracle:
    @given(ragged_cores(), st.integers(0, 4), st.data())
    def test_hit_layer_matches_list_counts(self, og, ell, data):
        sampled = vertex_subset(data, og.graph.n)
        layer_mask = _layer_mask(og.holder_masks, og.graph.n, sampled, ell)
        assert (mask_members(layer_mask), _edges_within(og.neighbor_masks, layer_mask)) == (
            reference_hit_layer(og, sampled, ell)
        )

    @given(ragged_cores(), st.integers(0, 3), st.data())
    def test_supported_members_matches_list_counts(self, og, threshold, data):
        survivors = vertex_subset(data, og.graph.n)
        layer = vertex_subset(data, og.graph.n)
        supported = _supported_mask(og.neighbor_masks, survivors, bitmask(layer), threshold)
        assert mask_members(supported) == (
            reference_supported_members(og, survivors, layer, threshold)
        )

    @given(ragged_cores(), st.data())
    def test_left_minimal_members_matches_list_scan(self, og, data):
        sampled = data.draw(st.permutations(vertex_subset(data, og.graph.n)))
        assert left_minimal_members(og, sampled) == reference_left_minimal_members(og, sampled)

    def test_masks_survive_pickling(self):
        og, _ = reduce_and_order(c5_blowup(12), 24)
        params = derive_params(24, True)
        for i in range(20):
            sample_trial(og, params, stream(3, i))
        masks = ("holder_masks", "neighbor_masks", "left_masks")
        assert all(og.__dict__[name] for name in masks)
        clone = pickle.loads(pickle.dumps(og))
        for name in masks:
            assert clone.__dict__[name] == og.__dict__[name]
        for i in range(60):
            assert sample_trial(clone, params, stream(3, i)) == sample_trial(og, params, stream(3, i))


class TestCountsKernel:
    """`stats` and `extract` judge trials by the counts-only kernel, which
    `TestSampleTrialOracle` checks trial by trial."""

    @settings(max_examples=40)
    @given(st.one_of(ordered_cores(), ragged_trial_cores()), st.integers(0, 2**64 - 1),
           st.integers(1, 20))
    def test_mc_potential_matches_reference_loop(self, core, seed, trials):
        og, params = core
        potentials = [
            reference_sample_trial(og, params, stream(seed, i)).potential for i in range(trials)
        ]
        mu, low, high = mean_interval([float(v) for v in potentials])
        est, rate = mc_potential(og, params, trials, seed)
        assert est == Estimate(mu, trials, low, high, 0.0, low > 0.0)
        assert rate == sum(1 for v in potentials if v > 0) / trials

    def test_no_record_for_a_rejected_trial(self, monkeypatch):
        calls = {"sample_trial": 0, "SampleOutcome": 0}

        def spy(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(densebip.extractor, name, counted)

        spy("sample_trial", densebip.extractor.sample_trial)
        spy("SampleOutcome", densebip.extractor.SampleOutcome)
        og, _ = reduce_and_order(c5_blowup(16), 32)
        params = derive_params(32, True)
        _, rate = mc_potential(og, params, 200, seed=5)
        assert 0 < rate < 1
        assert calls == {"sample_trial": 0, "SampleOutcome": 0}
        result = extract(og, params, seed=1, max_retries=2000)
        assert result.trials_used > 1  # rejected trials came first
        assert calls == {"sample_trial": 1, "SampleOutcome": 1}


def _tables_filled(og: OrderedGraph, eager: bool) -> OrderedGraph:
    """A fresh copy of `og` whose mask tables fill as `build_ordered` fills them
    on the given side of `_masks_fit`: all three up front, holders from the
    neighbor masks, or each mask on its first lookup."""
    fresh = OrderedGraph(*og)
    if eager:
        nbr = [bitmask(nbrs) for nbrs in og.graph.adjacency]
        fresh.neighbor_masks.update(enumerate(nbr))
        fresh.left_masks.update(enumerate(map(bitmask, og.left_neighbors)))
        fresh.holder_masks.update(enumerate(_holder_masks(og.candidate_sets, nbr)))
    return fresh


def _check_kernel_indices(og: OrderedGraph, params: Params, seed: int, indices) -> set[str]:
    """Check the bound kernel against the frozen one and the record's potential
    at each index; return which kinds of trial the indices drew."""
    kernel = _counts_kernel(og, params)
    den, _, _ = _potential_coefficients(params)
    kinds = set()
    for index in indices:
        ours, frozen, record = stream(seed, index), stream(seed, index), stream(seed, index)
        outcome = sample_trial(og, params, record)
        num = kernel(ours)
        assert num == frozen_trial_numerator(og, params, frozen) == outcome.potential * den
        assert ours.getstate() == frozen.getstate() == record.getstate()
        if len(outcome.sampled) < params.ell:
            kinds.add("short")
        else:
            kinds.add("layer" if outcome.layer else "empty layer")
    return kinds


class TestBoundKernel:
    """The counts-only kernel with its run constants bound, against the kernel
    it replaced (`helpers.frozen_trial_numerator`) and `sample_trial`."""

    @settings(max_examples=80)
    @given(st.one_of(ordered_cores(), ragged_trial_cores()), st.booleans(),
           st.integers(0, 2**64 - 1))
    def test_matches_frozen_kernel(self, core, eager, seed):
        og, params = core
        _check_kernel_indices(_tables_filled(og, eager), params, seed, range(12))

    @pytest.mark.parametrize("eager", [True, False], ids=["eager", "lazy"])
    def test_every_kind_of_trial(self, eager):
        """Fewer than ell sampled, enough sampled but an empty layer, and a
        nonempty layer all occur, on both sides of `_masks_fit`."""
        og, _ = reduce_and_order(c5_blowup(12), 24)
        params = derive_params(24, True)
        assert _masks_fit(og.graph)
        kinds = _check_kernel_indices(_tables_filled(og, eager), params, 5, range(150))
        assert kinds == {"short", "empty layer", "layer"}

    def test_exact_mean_layer_edges(self):
        """E[layer_edges] = q^2 m exactly on the ordered c5_blowup(3) core at
        d = 6, over all 2^15 samples weighted by their exact 1/d probability:
        adjacent vertices of a triangle-free core have disjoint candidate sets,
        so each is in the layer independently, with probability q."""
        og, _ = reduce_and_order(c5_blowup(3), 6)
        n, d = og.graph.n, 6
        ell = derive_params(d, False).ell
        q_exact = math.comb(d, ell) * Fraction(1, d) ** ell * Fraction(d - 1, d) ** (d - ell)
        edges_by_size = [0] * (n + 1)
        for sample in range(1 << n):
            sampled = mask_members(sample)
            layer_mask = _layer_mask(og.holder_masks, n, sampled, ell)
            edges_by_size[len(sampled)] += _edges_within(og.neighbor_masks, layer_mask)
        mean = sum(
            Fraction(1, d) ** k * Fraction(d - 1, d) ** (n - k) * total
            for k, total in enumerate(edges_by_size)
        )
        assert (n, og.graph.m, ell) == (15, 45, 3)
        assert mean == q_exact**2 * og.graph.m


class TestGreedyIndependentSet:
    def test_c5(self):
        assert greedy_independent_set(cycle_graph(5)) == (0, 2)

    def test_edgeless(self):
        assert greedy_independent_set(from_edge_list(4, [])) == (0, 1, 2, 3)

    def test_k33_takes_one_side(self):
        assert greedy_independent_set(complete_bipartite(3, 3)) == (0, 1, 2)

    def test_turan_floor_on_corpus(self):
        for seed in range(50):
            g = random_graph(2 + seed % 12, 0.4, seed)
            picked = greedy_independent_set(g)
            assert g.is_independent(picked)
            assert len(picked) >= Fraction(g.n) / (g.average_degree() + 1)


class TestExtract:
    def test_guarantee_mode_refuses_a_core_with_a_triangle(self):
        og, _ = reduce_and_order(k40_with_triangles(), 20)
        assert not og.graph.is_triangle_free()
        with pytest.raises(ParamsError, match="triangle"):
            extract(og, derive_params(20, True), seed=0)
        assert extract(og, derive_params(20, False), seed=0).report.valid
        # triangle-free but not bipartite: the check lets it through
        og, _ = reduce_and_order(c5_blowup(12), 24)
        assert extract(og, derive_params(24, True), seed=0).report.valid

    def test_k200_guarantee_run(self):
        og, _ = reduce_and_order(complete_bipartite(200, 200), 200)
        params = derive_params(200, True)
        result = extract(og, params, seed=7, max_retries=1000)
        g = og.graph
        report = result.report
        assert report.valid
        assert set(report.I).isdisjoint(report.J)
        assert g.is_independent(report.I) and g.is_independent(report.J)
        survivors = set(report.I)
        for v in report.J:
            assert len(survivors & set(g.adjacency[v])) >= params.threshold
        assert len(report.I) <= 230 * len(report.J)
        assert report.average_degree >= Fraction(params.ell, 2310)

    def test_accepted_trial_inequality_chain(self):
        og, _ = reduce_and_order(complete_bipartite(200, 200), 200)
        params = derive_params(200, True)
        result = extract(og, params, seed=7, max_retries=1000)
        out = sample_trial(og, params, stream(7, result.trials_used - 1))
        assert out.potential > 0
        q, p, d = params.q, params.p, params.d
        n_supported = len(out.supported)
        edges_supported = edges_within(og.graph, out.supported)
        assert edges_supported <= out.layer_edges
        assert Fraction(out.layer_edges) <= 10 * q * d * n_supported
        assert Fraction(n_supported) >= q * len(out.sampled) / (10 * p)
        # each J vertex certifies its threshold, so cross edges add up
        assert result.report.cross_edges >= params.threshold * len(result.report.J)
        # greedy floor inside the partner pool, which J never leaves
        pool = sorted(set(out.supported) - set(out.survivors))
        assert set(result.report.J) <= set(pool)
        assert result.report.I == out.survivors
        sub, _ = og.graph.induced_subgraph(pool)
        assert len(result.report.J) >= Fraction(sub.n) / (sub.average_degree() + 1)

    def test_partner_side_is_the_greedy_set_of_the_pool(self):
        # the pool's greedy set, mapped back to core ids through the kept ids
        for g, d in ((c5_blowup(16), 32), (random_bipartite(60, 60, 0.5, 1), 16)):
            og, _ = reduce_and_order(g, d)
            params = derive_params(d, True)
            result = extract(og, params, seed=5, max_retries=2000)
            out = sample_trial(og, params, stream(5, result.trials_used - 1))
            pool = sorted(set(out.supported) - set(out.survivors))
            sub, kept = og.graph.induced_subgraph(pool)
            assert kept == tuple(pool)
            expected = tuple(sorted(kept[i] for i in greedy_independent_set(sub)))
            assert len(expected) >= 2
            assert result.report.J == expected

    def test_meets_floor_is_the_report_verdict(self, monkeypatch):
        runs = [(complete_bipartite(k, k), k) for k in (16, 24, 32, 48)] + [(c5_blowup(16), 32)]
        for g, d in runs:
            og, _ = reduce_and_order(g, d)
            for guarantee in (True, False):
                params = derive_params(d, guarantee)
                result = extract(og, params, seed=5, max_retries=2000)
                if guarantee:
                    average = result.report.average_degree
                    assert result.meets_floor == (average >= params.degree_floor)
                    assert params.degree_floor == Fraction(params.ell, 2310)
                else:
                    assert result.meets_floor is None
        # a floor above the pair's average degree (32/17 here) flips the verdict
        monkeypatch.setattr("densebip.extractor.DEGREE_FLOOR_DENOM", 1)
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        result = extract(og, derive_params(16, True), seed=0)
        assert result.report.average_degree == Fraction(32, 17)
        assert result.meets_floor is False

    def test_retries_exhausted(self):
        og, _ = reduce_and_order(complete_bipartite(16, 16), 16)
        params = derive_params(16, True)
        # seed 2's first trial has nonpositive potential
        assert sample_trial(og, params, stream(2, 0)).potential <= 0
        with pytest.raises(ExtractionError) as err:
            extract(og, params, seed=2, max_retries=1)
        assert err.value.diagnostics["max_retries"] == 1

    def test_trials_used_points_at_first_success(self):
        og, _ = reduce_and_order(complete_bipartite(32, 32), 32)
        params = derive_params(32, True)
        result = extract(og, params, seed=0, max_retries=2000)
        for i in range(result.trials_used - 1):
            assert sample_trial(og, params, stream(0, i)).potential <= 0
        assert sample_trial(og, params, stream(0, result.trials_used - 1)).potential > 0

    def test_repeat_runs_identical(self):
        og, _ = reduce_and_order(complete_bipartite(32, 32), 32)
        params = derive_params(32, True)
        assert extract(og, params, 11, 500) == extract(og, params, 11, 500)

    def test_mismatched_d_rejected(self):
        og, _ = reduce_and_order(complete_bipartite(32, 32), 32)
        with pytest.raises(ValueError):
            extract(og, derive_params(16, True), seed=0)

    def test_bad_max_retries(self):
        og, _ = reduce_and_order(complete_bipartite(32, 32), 32)
        with pytest.raises(ValueError):
            extract(og, derive_params(32, True), seed=0, max_retries=0)
