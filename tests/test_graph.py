from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from densebip.graph import (
    GraphError,
    bipartite_pair_report,
    canonical_sha256,
    format_edge_list,
    from_edge_list,
    parse_edge_list,
)
from densebip.generators import complete_bipartite

from helpers import (
    cycle_graph,
    graphs,
    naive_triangle_free,
    path_graph,
    petersen_graph,
    random_graph,
)


class TestFromEdgeList:
    def test_duplicates_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 1)])
        assert g.m == 2
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_reversed_duplicate_collapses(self):
        g = from_edge_list(3, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(GraphError):
            from_edge_list(3, [(-1, 2)])

    def test_five_cycle(self):
        g = cycle_graph(5)
        assert g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_m_is_half_adjacency_sum(self):
        g = complete_bipartite(3, 4)
        assert sum(len(a) for a in g.adjacency) == 2 * g.m


class TestMeasurements:
    def test_min_degree(self):
        assert cycle_graph(5).min_degree() == 2
        assert complete_bipartite(1, 5).min_degree() == 1
        assert complete_bipartite(3, 3).min_degree() == 3

    def test_min_degree_empty_graph(self):
        with pytest.raises(GraphError):
            from_edge_list(0, []).min_degree()

    def test_average_degree_exact(self):
        assert cycle_graph(5).average_degree() == Fraction(2)
        assert path_graph(4).average_degree() == Fraction(3, 2)
        assert complete_bipartite(3, 3).average_degree() == Fraction(3)
        assert isinstance(path_graph(4).average_degree(), Fraction)

    def test_average_degree_empty_graph(self):
        with pytest.raises(GraphError):
            from_edge_list(0, []).average_degree()


class TestTriangleFree:
    def test_triangle(self):
        assert not from_edge_list(3, [(0, 1), (1, 2), (0, 2)]).is_triangle_free()

    def test_five_cycle(self):
        assert cycle_graph(5).is_triangle_free()

    def test_petersen(self):
        g = petersen_graph()
        assert naive_triangle_free(g)
        assert g.is_triangle_free()

    def test_agrees_with_naive_scan_on_corpus(self):
        for seed in range(200):
            g = random_graph(2 + seed % 9, 0.15 + 0.1 * (seed % 7), seed)
            assert g.is_triangle_free() == naive_triangle_free(g), seed


class TestInducedSubgraph:
    def test_four_consecutive_of_c5_is_path(self):
        sub, mapping = cycle_graph(5).induced_subgraph([0, 1, 2, 3])
        assert sub.n == 4 and sub.m == 3
        assert mapping == {0: 0, 1: 1, 2: 2, 3: 3}
        assert sorted(sub.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_empty_selection(self):
        sub, mapping = cycle_graph(5).induced_subgraph([])
        assert sub.n == 0 and sub.m == 0 and mapping == {}

    def test_one_side_of_k33_is_edgeless(self):
        sub, _ = complete_bipartite(3, 3).induced_subgraph([0, 1, 2])
        assert sub.n == 3 and sub.m == 0

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            cycle_graph(5).induced_subgraph([0, 5])

    @given(graphs(), st.data())
    def test_edges_within_matches_induced_m(self, g, data):
        if g.n == 0:
            subset = []
        else:
            subset = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
        sub, _ = g.induced_subgraph(subset)
        assert g.edges_within(subset) == sub.m


class TestSubsetPredicates:
    def test_edges_within(self):
        assert cycle_graph(5).edges_within(range(5)) == 5
        assert cycle_graph(5).edges_within([2]) == 0
        assert cycle_graph(5).edges_within([]) == 0
        assert complete_bipartite(3, 3).edges_within([0, 3]) == 1

    def test_is_independent(self):
        c5 = cycle_graph(5)
        assert c5.is_independent([0, 2])
        assert not c5.is_independent([0, 1])
        assert c5.is_independent([])


class TestBipartitePairReport:
    def test_k33_sides(self):
        rep = bipartite_pair_report(complete_bipartite(3, 3), [0, 1, 2], [3, 4, 5])
        assert rep.valid
        assert rep.cross_edges == 9
        assert rep.average_degree == Fraction(3)

    def test_dependent_side_invalid(self):
        rep = bipartite_pair_report(cycle_graph(5), [0], [1, 2])
        assert not rep.valid
        assert rep.reason == "side J is not independent"

    def test_empty_pair_valid_with_zero_average(self):
        rep = bipartite_pair_report(cycle_graph(5), [], [])
        assert rep.valid
        assert rep.average_degree == Fraction(0)

    def test_overlap_invalid(self):
        rep = bipartite_pair_report(cycle_graph(5), [0, 2], [2])
        assert not rep.valid
        assert rep.reason == "sides overlap"

    def test_average_degree_identity(self):
        rep = bipartite_pair_report(cycle_graph(5), [0, 2], [4])
        # 4 is adjacent to 0 only among I
        assert rep.valid
        assert rep.average_degree == Fraction(2 * rep.cross_edges, 3)

    @given(graphs(max_n=8), st.data())
    def test_valid_report_means_bipartition(self, g, data):
        if g.n == 0:
            return
        side_i = data.draw(st.lists(st.integers(0, g.n - 1), max_size=4))
        side_j = data.draw(st.lists(st.integers(0, g.n - 1), max_size=4))
        rep = bipartite_pair_report(g, side_i, side_j)
        if rep.valid:
            union = set(rep.I) | set(rep.J)
            sub, mapping = g.induced_subgraph(union)
            # every edge of the induced subgraph crosses the two parts
            part = {mapping[v]: 0 for v in rep.I}
            part.update({mapping[v]: 1 for v in rep.J})
            assert all(part[u] != part[v] for u, v in sub.edges())
            assert sub.m == rep.cross_edges


class TestSerialization:
    @given(graphs())
    def test_round_trip(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\n3 2\n0 1\n# inline comment line\n1 2\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.m == 2

    def test_bad_header(self):
        with pytest.raises(GraphError):
            parse_edge_list("3\n")
        with pytest.raises(GraphError):
            parse_edge_list("a b\n")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphError):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_edge_line(self):
        with pytest.raises(GraphError):
            parse_edge_list("3 1\n0 1 2\n")
        with pytest.raises(GraphError):
            parse_edge_list("3 1\nx y\n")
        with pytest.raises(GraphError, match=r"duplicate edge \(1,0\)"):
            parse_edge_list("3 3\n0 1\n1 0\n1 2\n")
        with pytest.raises(GraphError, match=r"duplicate edge \(0,1\)"):
            parse_edge_list("3 2\n0 1\n0 1\n")

    def test_hash_is_canonical(self):
        a = from_edge_list(3, [(0, 1), (1, 2)])
        b = parse_edge_list("# c\n3 2\n1 2\n0 1\n")
        assert canonical_sha256(a) == canonical_sha256(b)
