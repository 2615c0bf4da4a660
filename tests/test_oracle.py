from fractions import Fraction

import pytest

from densebip.extractor import greedy_independent_set
from densebip.generators import complete_bipartite
from densebip.graph import bipartite_pair_report, from_edge_list
from densebip.oracle import (
    max_independent_set,
    max_induced_bipartite_average_degree,
)

from helpers import cycle_graph, has_edge, random_graph


class TestBipartiteOracle:
    def test_c5(self):
        res = max_induced_bipartite_average_degree(cycle_graph(5))
        assert res.best_value == Fraction(3, 2)
        # tie-break picks the lexicographically smallest 4-subset {0,1,2,3}
        assert set(res.witness_I) | set(res.witness_J) == {0, 1, 2, 3}

    def test_c6_is_whole_graph(self):
        res = max_induced_bipartite_average_degree(cycle_graph(6))
        assert res.best_value == Fraction(2)
        assert set(res.witness_I) | set(res.witness_J) == set(range(6))

    def test_k33_is_whole_graph(self):
        res = max_induced_bipartite_average_degree(complete_bipartite(3, 3))
        assert res.best_value == Fraction(3)
        assert res.witness_I == (0, 1, 2)
        assert res.witness_J == (3, 4, 5)

    def test_edgeless_graph_scores_zero(self):
        res = max_induced_bipartite_average_degree(from_edge_list(4, []))
        assert res.best_value == Fraction(0)

    def test_witness_is_a_valid_pair(self):
        for seed in range(15):
            g = random_graph(8, 0.4, seed)
            res = max_induced_bipartite_average_degree(g)
            rep = bipartite_pair_report(g, res.witness_I, res.witness_J)
            assert rep.valid
            assert rep.average_degree == res.best_value

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            max_induced_bipartite_average_degree(random_graph(19, 0.2, 0))
        max_induced_bipartite_average_degree(random_graph(10, 0.2, 0), cap=10)


class TestMaxIndependentSet:
    def test_c5(self):
        assert max_independent_set(cycle_graph(5)) == (0, 2)

    def test_k33(self):
        assert max_independent_set(complete_bipartite(3, 3)) == (0, 1, 2)

    def test_edgeless(self):
        assert max_independent_set(from_edge_list(4, [])) == (0, 1, 2, 3)

    def test_lexicographic_among_maximum(self):
        # path 0-1-2-3: maximum sets of size 2 are {0,2},{0,3},{1,3}
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        assert max_independent_set(g) == (0, 2)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            max_independent_set(random_graph(19, 0.2, 0))

    def test_monotone_under_edge_addition(self):
        for seed in range(15):
            g = random_graph(8, 0.3, seed)
            base = len(max_independent_set(g))
            non_edges = [
                (u, v)
                for u in range(8)
                for v in range(u + 1, 8)
                if not has_edge(g, u, v)
            ]
            if not non_edges:
                continue
            extra = non_edges[seed % len(non_edges)]
            bigger = from_edge_list(8, list(g.edges()) + [extra])
            assert len(max_independent_set(bigger)) <= base


class TestGreedyAgainstOracle:
    def test_greedy_never_beats_exact(self):
        for seed in range(30):
            g = random_graph(3 + seed % 10, 0.35, seed)
            greedy = greedy_independent_set(g)
            exact = max_independent_set(g)
            assert len(greedy) <= len(exact)
            assert g.is_independent(greedy)

    def test_greedy_meets_turan_floor(self):
        for seed in range(30):
            g = random_graph(3 + seed % 10, 0.35, seed)
            bound = Fraction(g.n) / (g.average_degree() + 1)
            assert len(greedy_independent_set(g)) >= bound
