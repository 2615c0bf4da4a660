import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densebip.graph import from_edge_list
from densebip.generators import c5_blowup, complete_bipartite
from densebip.reducer import (
    EmptyCoreError,
    OrderingError,
    build_ordered,
    d_core,
    degeneracy_ordering,
    minimal_min_degree_subgraph,
    reduce_and_order,
)

from helpers import (
    cycle_graph,
    degeneracy_by_permutations,
    exhaustive_degeneracy,
    graphs,
    is_bipartite,
    path_graph,
    random_graph,
    restart_minimal_subgraph,
)


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
        sub, mapping = g.induced_subgraph(core)
        assert d_core(sub, d) == tuple(range(sub.n))
        if core:
            assert sub.min_degree() >= d


class TestMinimalMinDegreeSubgraph:
    def test_kdd_is_already_minimal(self):
        g = complete_bipartite(5, 5)
        sub, mapping = minimal_min_degree_subgraph(g, 5)
        assert sub == g
        assert mapping == {v: v for v in range(10)}

    def test_isolated_vertex_dropped(self):
        edges = [(i, 3 + j) for i in range(3) for j in range(3)]
        g = from_edge_list(7, edges)  # vertex 6 isolated
        sub, mapping = minimal_min_degree_subgraph(g, 3)
        assert sub.n == 6 and sub.m == 9
        assert sorted(mapping) == [0, 1, 2, 3, 4, 5]

    def test_union_trace_frozen(self):
        # deleting vertex 0 kills the small component and keeps the K44, which
        # then gets whittled down to a K33 on {7,8,9,11,12,13}
        sub, mapping = minimal_min_degree_subgraph(union_k33_k44(), 3)
        assert sorted(mapping) == [7, 8, 9, 11, 12, 13]
        assert sub.n == 6 and sub.m == 9
        assert all(sub.degree(v) == 3 for v in range(6))
        assert is_bipartite(sub)

    def test_scan_order_knob_changes_survivor(self):
        g = union_k33_k44()
        sub, mapping = minimal_min_degree_subgraph(g, 3, scan_order=range(13, -1, -1))
        # deleting from the top first kills the K44 component instead
        assert sorted(mapping) == [0, 1, 2, 3, 4, 5]
        assert sub.min_degree() >= 3

    def test_empty_core_raises(self):
        with pytest.raises(EmptyCoreError):
            minimal_min_degree_subgraph(complete_bipartite(1, 5), 2)

    def test_disjoint_regular_components_keep_the_last(self):
        # d-regular but disconnected: deleting vertex 0 still succeeds
        sub, mapping = minimal_min_degree_subgraph(two_disjoint_k33(), 3)
        assert sorted(mapping) == list(range(6, 12))
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
        for scan in (None, range(g.n - 1, -1, -1)):
            assert minimal_min_degree_subgraph(g, d, scan) == restart_minimal_subgraph(g, d, scan)

    @settings(max_examples=200)
    @given(graphs(), st.integers(0, 4), st.data())
    def test_matches_restart_oracle(self, g, d, data):
        scan = data.draw(st.permutations(range(g.n)))
        if not d_core(g, d):
            with pytest.raises(EmptyCoreError):
                minimal_min_degree_subgraph(g, d, scan)
            return
        for order in (None, scan):
            assert minimal_min_degree_subgraph(g, d, order) == restart_minimal_subgraph(g, d, order)

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
        pos = og.position
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

    def test_candidate_index_inverts_candidate_sets(self):
        og = build_ordered(complete_bipartite(3, 3), 3)
        for x, holders in enumerate(og.candidate_index):
            for y in holders:
                assert x in og.candidate_sets[y]

    def test_empty_graph_rejected(self):
        with pytest.raises(OrderingError):
            build_ordered(from_edge_list(0, []), 2)
