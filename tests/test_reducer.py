import functools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densebip import reducer
from densebip.graph import from_edge_list
from densebip.generators import (
    binomial_triangle_scrubbed,
    c5_blowup,
    complete_bipartite,
    random_bipartite,
)
from densebip.extractor import derive_params, extract, sample_trial
from densebip.reducer import (
    EmptyCoreError,
    OrderedGraph,
    OrderingError,
    _bit_sliced_ordering,
    _holder_masks,
    _masks_fit,
    bitmask,
    build_ordered,
    d_core,
    degeneracy_ordering,
    minimal_min_degree_subgraph,
    reduce_and_order,
)
from densebip.rng import stream
from densebip.stats import mc_potential

from helpers import (
    cycle_graph,
    degeneracy_by_permutations,
    exhaustive_degeneracy,
    full_peel_minimal_subgraph,
    graphs,
    is_bipartite,
    path_graph,
    random_graph,
    reference_holder_masks,
    reference_left_neighbors,
    restart_minimal_subgraph,
    tuple_key_degeneracy_ordering,
)


def relabelled(g, order):
    """`g` with vertex order[i] renamed i, so the ascending scan visits the old
    ids in `order`."""
    new = {v: i for i, v in enumerate(order)}
    return from_edge_list(g.n, [(new[u], new[v]) for u, v in g.edges()])


def union_k33_k44():
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    edges += [(6 + i, 10 + j) for i in range(4) for j in range(4)]
    return from_edge_list(14, edges)


def two_disjoint_k33():
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    edges += [(6 + i, 9 + j) for i in range(3) for j in range(3)]
    return from_edge_list(12, edges)


class TestDCore:
    def test_k33(self):
        assert d_core(complete_bipartite(3, 3), 3) == (0, 1, 2, 3, 4, 5)

    def test_star_collapses(self):
        assert d_core(complete_bipartite(1, 5), 2) == ()

    def test_cycle_with_pendant(self):
        g = from_edge_list(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
        assert d_core(g, 2) == (0, 1, 2, 3, 4)

    def test_zero_core_is_everything(self):
        g = random_graph(7, 0.3, 1)
        assert d_core(g, 0) == tuple(range(7))

    @given(graphs(), st.integers(0, 4))
    def test_idempotent(self, g, d):
        core = d_core(g, d)
        sub, _ = g.induced_subgraph(core)
        assert d_core(sub, d) == tuple(range(sub.n))
        if core:
            assert sub.min_degree() >= d


class TestMinimalMinDegreeSubgraph:
    def test_kdd_is_already_minimal(self):
        g = complete_bipartite(5, 5)
        sub, kept = minimal_min_degree_subgraph(g, 5)
        assert sub == g
        assert kept == tuple(range(10))

    def test_isolated_vertex_dropped(self):
        edges = [(i, 3 + j) for i in range(3) for j in range(3)]
        g = from_edge_list(7, edges)  # vertex 6 isolated
        sub, kept = minimal_min_degree_subgraph(g, 3)
        assert sub.n == 6 and sub.m == 9
        assert kept == (0, 1, 2, 3, 4, 5)

    def test_union_trace_frozen(self):
        # deleting vertex 0 kills the small component and keeps the K44, which
        # then gets whittled down to a K33 on {7,8,9,11,12,13}
        sub, kept = minimal_min_degree_subgraph(union_k33_k44(), 3)
        assert kept == (7, 8, 9, 11, 12, 13)
        assert sub.n == 6 and sub.m == 9
        assert all(sub.degree(v) == 3 for v in range(6))
        assert is_bipartite(sub)

    def test_empty_core_raises(self):
        with pytest.raises(EmptyCoreError):
            minimal_min_degree_subgraph(complete_bipartite(1, 5), 2)

    def test_disjoint_regular_components_keep_the_last(self):
        # d-regular but disconnected: deleting vertex 0 still succeeds
        sub, kept = minimal_min_degree_subgraph(two_disjoint_k33(), 3)
        assert kept == tuple(range(6, 12))
        assert sub == complete_bipartite(3, 3)

    @pytest.mark.parametrize(
        "g,d",
        [
            (complete_bipartite(5, 5), 5),
            (c5_blowup(3), 6),
            (union_k33_k44(), 3),
            (two_disjoint_k33(), 3),
        ],
    )
    def test_fixed_cases_match_restart_oracle(self, g, d):
        for h in (g, relabelled(g, range(g.n - 1, -1, -1))):
            assert minimal_min_degree_subgraph(h, d) == restart_minimal_subgraph(h, d)

    @settings(max_examples=200)
    @given(graphs(), st.integers(0, 4), st.data())
    def test_matches_restart_oracle(self, g, d, data):
        scan = data.draw(st.permutations(range(g.n)))
        if not d_core(g, d):
            with pytest.raises(EmptyCoreError):
                minimal_min_degree_subgraph(g, d)
            return
        for h in (g, relabelled(g, scan)):
            assert minimal_min_degree_subgraph(h, d) == restart_minimal_subgraph(h, d)

    @pytest.mark.parametrize(
        "build,d",
        [
            (lambda: random_bipartite(150, 150, 0.3, 13), 24),
            *((lambda s=s: random_bipartite(150, 150, 0.3, s), 24) for s in range(6)),
            (lambda: random_bipartite(400, 400, 0.3, 3), 60),
            (lambda: complete_bipartite(250, 250), 250),
            (lambda: c5_blowup(60), 120),
            (lambda: binomial_triangle_scrubbed(300, 0.05, 0), 8),
        ],
        ids=["shrink", *(f"rb150-s{s}" for s in range(6)), "rb400", "k250", "c5-60", "scrubbed300"],
    )
    def test_matches_full_peel_reference(self, build, d):
        g = build()
        assert minimal_min_degree_subgraph(g, d) == full_peel_minimal_subgraph(g, d)

    @settings(max_examples=200)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([0.4, 0.6, 0.8]),
        st.integers(0, 2**32),
        st.sampled_from([2, 3]),
        st.data(),
    )
    def test_dense_bipartite_matches_restart_oracle(self, a, b, rho, seed, d, data):
        # dense enough that failed deletions often stop at a keeper
        g = random_bipartite(a, b, rho, seed)
        if not d_core(g, d):
            return
        scan = data.draw(st.permutations(range(g.n)))
        for h in (g, relabelled(g, scan)):
            want = restart_minimal_subgraph(h, d)
            assert minimal_min_degree_subgraph(h, d) == want
            assert full_peel_minimal_subgraph(h, d) == want

    def test_peel_stops_at_a_keeper(self, monkeypatch):
        g = random_bipartite(6, 6, 0.6, 0)
        stops = []
        peel = reducer._peel

        def recording_peel(*args):
            out = peel(*args)
            stops.append(out[2])
            return out

        monkeypatch.setattr(reducer, "_peel", recording_peel)
        got = minimal_min_degree_subgraph(g, 2)
        # the first call is d_core's; 3 of the 8 tentative deletions stop early
        assert stops[1:] == [False, False, False, False, True, False, True, True]
        assert got == restart_minimal_subgraph(g, 2)
        assert sorted(got[1]) == [3, 4, 7, 8]

    def test_corpus_properties(self):
        for seed in range(40):
            g = random_graph(3 + seed % 8, 0.35 + 0.05 * (seed % 5), seed)
            for d in (1, 2, 3):
                if not d_core(g, d):
                    continue
                sub, _ = minimal_min_degree_subgraph(g, d)
                assert sub.min_degree() >= d
                _, degeneracy = degeneracy_ordering(sub)
                assert degeneracy <= d
                # inclusion-minimality: one more deletion always empties the core
                for v in range(sub.n):
                    rest, _ = sub.induced_subgraph([u for u in range(sub.n) if u != v])
                    assert d_core(rest, d) == ()


class TestDegeneracyOrdering:
    def test_examples(self):
        assert degeneracy_ordering(path_graph(4))[1] == 1
        assert degeneracy_ordering(cycle_graph(5))[1] == 2
        assert degeneracy_ordering(complete_bipartite(3, 3))[1] == 3

    def test_against_exhaustive_oracle(self):
        for seed in range(60):
            g = random_graph(1 + seed % 8, 0.2 + 0.1 * (seed % 7), seed)
            _, degeneracy = degeneracy_ordering(g)
            assert degeneracy == exhaustive_degeneracy(g), seed

    def test_dp_oracle_matches_permutations(self):
        for seed in range(12):
            g = random_graph(2 + seed % 5, 0.4, seed + 100)
            assert exhaustive_degeneracy(g) == degeneracy_by_permutations(g)

    @given(graphs())
    def test_left_degree_bounded_by_degeneracy(self, g):
        order, degeneracy = degeneracy_ordering(g)
        assert sorted(order) == list(range(g.n))
        pos = {v: i for i, v in enumerate(order)}
        worst = 0
        for v in range(g.n):
            left = sum(1 for w in g.adjacency[v] if pos[w] < pos[v])
            worst = max(worst, left)
        assert worst == degeneracy

    @given(graphs(max_n=30))
    def test_matches_tuple_key_reference(self, g):
        assert degeneracy_ordering(g) == tuple_key_degeneracy_ordering(g)

    def test_matches_tuple_key_reference_on_cores(self):
        shrink = minimal_min_degree_subgraph(random_bipartite(150, 150, 0.3, 13), 24)[0]
        for g in (complete_bipartite(250, 250), c5_blowup(60), shrink):
            assert degeneracy_ordering(g) == tuple_key_degeneracy_ordering(g)


class TestBuildOrdered:
    def test_k33_candidates_are_full_opposite_side(self):
        og = build_ordered(complete_bipartite(3, 3), 3)
        assert og.candidate_sets[0] == (3, 4, 5)
        assert og.candidate_sets[4] == (0, 1, 2)

    def test_c5_candidates_are_both_neighbors(self):
        og = build_ordered(cycle_graph(5), 2)
        for v in range(5):
            assert og.candidate_sets[v] == cycle_graph(5).adjacency[v]

    def test_low_degree_rejected(self):
        with pytest.raises(OrderingError):
            build_ordered(complete_bipartite(3, 3), 4)

    def test_degeneracy_above_d_rejected(self):
        # C5 has min degree 2 and degeneracy 2, so d=2 works but the complete
        # graph K4 (degeneracy 3) must be rejected at d=... min degree of K4 is 3
        k4 = from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        with pytest.raises(OrderingError):
            build_ordered(k4, 2)

    def test_left_right_partition(self):
        og = build_ordered(complete_bipartite(4, 4), 4)
        pos = {v: i for i, v in enumerate(og.order)}
        for v in range(og.graph.n):
            left = set(og.left_neighbors[v])
            right = set(og.graph.adjacency[v]) - left
            assert all(pos[w] < pos[v] for w in left)
            assert all(pos[w] > pos[v] for w in right)
            assert len(og.left_neighbors[v]) <= og.d

    def test_candidate_pairs_are_edges(self):
        for seed in range(20):
            g = random_graph(8, 0.5, seed)
            if not d_core(g, 2):
                continue
            og, _ = reduce_and_order(g, 2)
            for v, cand in enumerate(og.candidate_sets):
                assert len(cand) == 2
                assert set(cand) <= set(og.graph.adjacency[v])

    def test_empty_graph_rejected(self):
        with pytest.raises(OrderingError):
            build_ordered(from_edge_list(0, []), 2)


@st.composite
def unions(draw):
    """Disjoint unions of small arbitrary graphs and complete bipartite blocks,
    plus isolated vertices, under a random labelling: many degree ties."""
    blocks = st.builds(complete_bipartite, st.integers(1, 5), st.integers(1, 5))
    parts = draw(st.lists(st.one_of(graphs(max_n=8), blocks), max_size=4))
    edges, n = [], 0
    for part in parts:
        edges += [(n + u, n + v) for u, v in part.edges()]
        n += part.n
    n += draw(st.integers(0, 3))
    label = draw(st.permutations(range(n)))
    return from_edge_list(n, [(label[u], label[v]) for u, v in edges])


@functools.cache
def rb2500_core():
    """The reduced core of random_bipartite(2500, 2500, 0.008, 5) at d=12: 2811
    vertices, 44 mask words against average degree 14.4, so the heap side."""
    return minimal_min_degree_subgraph(random_bipartite(2500, 2500, 0.008, 5), 12)[0]


def shrink_core():
    return minimal_min_degree_subgraph(random_bipartite(150, 150, 0.3, 13), 24)[0]


class TestBitSlicedOrdering:
    def check(self, g):
        order, degeneracy, nbr, left = _bit_sliced_ordering(g)
        assert (order, degeneracy) == degeneracy_ordering(g)
        assert (order, degeneracy) == tuple_key_degeneracy_ordering(g)
        assert left == [bitmask(ids) for ids in reference_left_neighbors(g, order)]
        assert nbr == [bitmask(nbrs) for nbrs in g.adjacency]

    @settings(max_examples=200)
    @given(graphs(max_n=30))
    def test_matches_heap_ordering(self, g):
        self.check(g)

    @settings(max_examples=200)
    @given(unions())
    def test_matches_heap_ordering_on_unions(self, g):
        self.check(g)

    def test_matches_heap_ordering_on_cores(self):
        for g in (complete_bipartite(250, 250), c5_blowup(60), shrink_core(), cycle_graph(200)):
            self.check(g)


class TestDerivedTables:
    @settings(max_examples=200)
    @given(graphs(max_n=20), st.integers(0, 5), st.data())
    def test_tables_match_references(self, g, d, data):
        # any order and d: vertices of degree below d keep all their neighbors
        order = tuple(data.draw(st.permutations(range(g.n))))
        og = OrderedGraph(g, order, d)
        assert list(og.left_neighbors) == reference_left_neighbors(g, order)
        assert all(og.candidate_sets[v] == g.adjacency[v][:d] for v in range(g.n))
        assert [og.holder_masks[x] for x in range(g.n)] == reference_holder_masks(g, d)

    @pytest.mark.parametrize(
        "build,d", [(lambda: complete_bipartite(16, 16), 16), (lambda: c5_blowup(12), 24)],
        ids=["k16", "c5-12"],
    )
    def test_trials_on_dense_cores_build_no_left_lists(self, build, d):
        params = derive_params(d, True)
        og, _ = reduce_and_order(build(), d)
        extract(og, params, seed=0)
        assert "left_neighbors" not in og.__dict__
        og, _ = reduce_and_order(build(), d)
        mc_potential(og, params, 100, seed=0)
        assert "left_neighbors" not in og.__dict__

    def test_one_trial_on_a_sparse_core_builds_few_masks(self):
        og = build_ordered(rb2500_core(), 12)
        sample_trial(og, derive_params(12, False), stream(0, 0))
        assert len(og.holder_masks) < og.graph.n
        assert len(og.left_masks) < og.graph.n


def circulant(n, k):
    """Vertex v adjacent to v +- 1, ..., v +- k (mod n)."""
    return from_edge_list(n, [(v, (v + j) % n) for v in range(n) for j in range(1, k + 1)])


CACHES = ("neighbor_masks", "left_masks")


def build_on(monkeypatch, dense, g, d):
    monkeypatch.setattr(reducer, "_masks_fit", lambda _: dense)
    return build_ordered(g, d)


class TestBothBranches:
    @pytest.mark.parametrize(
        "build,d",
        [(lambda: complete_bipartite(16, 16), 16), (lambda: c5_blowup(12), 24), (shrink_core, 24)],
        ids=["k16", "c5-12", "shrink"],
    )
    def test_same_ordered_graph_and_pair(self, build, d, monkeypatch):
        g = build()
        assert _masks_fit(g)
        dense = build_on(monkeypatch, True, g, d)
        sparse = build_on(monkeypatch, False, g, d)
        assert dense.order == sparse.order
        assert dense.left_neighbors == sparse.left_neighbors
        assert dense.candidate_sets == sparse.candidate_sets
        assert all(name in dense.__dict__ for name in CACHES)
        assert not any(name in sparse.__dict__ for name in CACHES)
        params = derive_params(d, True)
        assert extract(dense, params, seed=4) == extract(sparse, params, seed=4)
        for name in CACHES:  # the lazy masks equal the prebuilt ones
            lazy, prebuilt = getattr(sparse, name), getattr(dense, name)
            assert [lazy[v] for v in range(g.n)] == [prebuilt[v] for v in range(g.n)]

    @pytest.mark.parametrize("dense", [True, False])
    def test_ordering_errors_unchanged(self, dense, monkeypatch):
        with pytest.raises(OrderingError, match=r"^min degree 3 is below d=4$"):
            build_on(monkeypatch, dense, complete_bipartite(3, 3), 4)
        k4 = from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        with pytest.raises(OrderingError, match=r"^degeneracy 3 exceeds d=2$"):
            build_on(monkeypatch, dense, k4, 2)

    @settings(max_examples=100)
    @given(graphs(min_n=1, max_n=12), st.integers(0, 4))
    def test_same_result_or_error_on_both_branches(self, g, d):
        built = []
        for dense in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                try:
                    og = build_on(mp, dense, g, d)
                    built.append((og.order, og.left_neighbors, og.candidate_sets))
                except OrderingError as exc:
                    built.append(str(exc))
        assert built[0] == built[1]

    def test_sparse_cores_get_no_prebuilt_masks(self):
        for g, d in ((cycle_graph(200), 2), (rb2500_core(), 12)):
            assert not _masks_fit(g)
            og = build_ordered(g, d)
            assert not any(name in og.__dict__ for name in (*CACHES, "holder_masks"))

    @pytest.mark.parametrize(
        "build,d",
        [
            (lambda: complete_bipartite(16, 16), 16),
            (lambda: c5_blowup(12), 24),
            (shrink_core, 24),
            (lambda: complete_bipartite(250, 250), 250),
            (lambda: circulant(640, 5), 10),  # ceil(n/64) * n == 2m: the boundary
        ],
        ids=["k16", "c5-12", "shrink", "k250", "circulant-640"],
    )
    def test_prebuilt_masks_take_at_most_twice_the_adjacency_bytes(self, build, d):
        g = build()
        assert _masks_fit(g)
        og = build_ordered(g, d)
        mask_bytes = sum(
            sys.getsizeof(cache) + sum(map(sys.getsizeof, cache.values()))
            for cache in (og.__dict__[name] for name in CACHES)
        )
        adjacency_bytes = sys.getsizeof(g.adjacency) + sum(map(sys.getsizeof, g.adjacency))
        assert mask_bytes <= 2 * adjacency_bytes


class TestEagerHolderMasks:
    """On a dense core `build_ordered` fills `holder_masks` from the neighbor
    masks in one sweep; `OrderedGraph._holders` builds a mask on first use
    only on a sparse core."""

    @settings(max_examples=200)
    @given(graphs(max_n=20), st.integers(0, 5), st.data())
    def test_sweep_matches_the_lazy_rule(self, g, d, data):
        """Any order and d, isolated vertices and d = 0 included, where a
        candidate set is empty and its vertex holds nothing."""
        og = OrderedGraph(g, tuple(data.draw(st.permutations(range(g.n)))), d)
        nbr = [bitmask(nbrs) for nbrs in g.adjacency]
        assert _holder_masks(og.candidate_sets, nbr) == [
            bitmask(og._holders(x)) for x in range(g.n)
        ]

    def test_empty_candidate_sets_hold_nothing(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (3, 4)])  # vertex 5 is isolated
        og = OrderedGraph(g, tuple(range(6)), 0)
        nbr = [bitmask(nbrs) for nbrs in g.adjacency]
        assert _holder_masks(og.candidate_sets, nbr) == [0] * 6
        og = OrderedGraph(g, tuple(range(6)), 1)
        assert _holder_masks(og.candidate_sets, nbr) == [
            bitmask(og._holders(x)) for x in range(6)
        ] == [0b10, 0b101, 0, 0b10000, 0b1000, 0]

    @pytest.mark.parametrize(
        "build,d",
        [
            (lambda: complete_bipartite(16, 16), 16),
            (lambda: c5_blowup(12), 24),
            (shrink_core, 24),
            (lambda: circulant(640, 5), 10),
        ],
        ids=["k16", "c5-12", "shrink", "circulant-640"],
    )
    def test_every_eager_mask_equals_the_lazy_one(self, build, d):
        g = build()
        assert _masks_fit(g)
        og = build_ordered(g, d)
        eager = og.__dict__["holder_masks"]
        assert sorted(eager) == list(range(g.n))
        assert [eager[x] for x in range(g.n)] == [bitmask(og._holders(x)) for x in range(g.n)]
        # each holder mask is cut from its neighbor mask, so it is no larger
        assert all(
            sys.getsizeof(eager[x]) <= sys.getsizeof(og.neighbor_masks[x]) for x in range(g.n)
        )

    def test_mc_potential_builds_no_holder_mask_lazily(self, monkeypatch):
        calls = []
        real = OrderedGraph._holders

        def spy(self, x):
            calls.append(x)
            return real(self, x)

        monkeypatch.setattr(OrderedGraph, "_holders", spy)
        og, _ = reduce_and_order(c5_blowup(20), 40)
        assert _masks_fit(og.graph)
        _, rate = mc_potential(og, derive_params(40, True), 300, seed=0)
        assert rate > 0
        assert calls == []
        assert len(og.holder_masks) == og.graph.n
