import pytest
from hypothesis import given
from hypothesis import strategies as st

from densebip.generators import (
    binomial_triangle_scrubbed,
    c5_blowup,
    complete_bipartite,
    random_bipartite,
)

from helpers import cycle_graph, is_bipartite, restart_triangle_scrub


class TestCompleteBipartite:
    def test_k33(self):
        g = complete_bipartite(3, 3)
        assert g.m == 9 and g.min_degree() == 3

    def test_star(self):
        g = complete_bipartite(1, 5)
        assert g.min_degree() == 1 and g.m == 5

    def test_large_instance(self):
        g = complete_bipartite(200, 200)
        assert g.min_degree() == 200
        assert g.is_triangle_free()

    def test_zero_side_rejected(self):
        with pytest.raises(ValueError):
            complete_bipartite(0, 3)


class TestRandomBipartite:
    def test_rho_one_is_complete(self):
        assert random_bipartite(4, 5, 1.0, 0) == complete_bipartite(4, 5)

    def test_rho_zero_is_empty(self):
        assert random_bipartite(4, 5, 0.0, 0).m == 0

    def test_deterministic_per_seed(self):
        assert random_bipartite(10, 10, 0.4, 3) == random_bipartite(10, 10, 0.4, 3)
        assert random_bipartite(10, 10, 0.4, 3) != random_bipartite(10, 10, 0.4, 4)

    def test_mean_edges_near_expectation(self):
        # E[m] = n1*n2*rho = 120; the 50-seed mean should land within a few
        # standard errors (sd per draw is sqrt(400*.3*.7) ~ 9.2)
        total = sum(random_bipartite(20, 20, 0.3, seed).m for seed in range(50))
        assert abs(total / 50 - 120) < 5

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            random_bipartite(3, 3, 1.5, 0)


class TestC5Blowup:
    def test_t1_is_c5(self):
        assert c5_blowup(1) == cycle_graph(5)

    def test_t2_shape(self):
        g = c5_blowup(2)
        assert g.n == 10
        assert all(g.degree(v) == 4 for v in range(10))
        assert g.is_triangle_free()

    def test_never_bipartite(self):
        for t in (1, 2, 3):
            g = c5_blowup(t)
            assert g.is_triangle_free()
            assert not is_bipartite(g)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            c5_blowup(0)


class TestBinomialScrubbed:
    def test_rho_zero_unchanged(self):
        assert binomial_triangle_scrubbed(6, 0.0, 1).m == 0

    def test_triangle_becomes_path(self):
        g = binomial_triangle_scrubbed(3, 1.0, 0)
        assert g.m == 2
        assert g.is_triangle_free()
        # the lexicographically smallest edge (0,1) is the one deleted
        assert sorted(g.edges()) == [(0, 2), (1, 2)]

    def test_always_triangle_free(self):
        for seed in range(25):
            g = binomial_triangle_scrubbed(5 + seed % 9, 0.5, seed)
            assert g.is_triangle_free()

    def test_deterministic_per_seed(self):
        a = binomial_triangle_scrubbed(12, 0.4, 9)
        b = binomial_triangle_scrubbed(12, 0.4, 9)
        assert a == b

    @given(st.integers(0, 30), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
    def test_matches_restart_reference(self, n, rho, seed):
        assert binomial_triangle_scrubbed(n, rho, seed) == restart_triangle_scrub(n, rho, seed)


def test_all_generator_outputs_are_canonical():
    samples = [
        complete_bipartite(3, 4),
        random_bipartite(6, 6, 0.5, 2),
        c5_blowup(2),
        binomial_triangle_scrubbed(9, 0.5, 2),
    ]
    for g in samples:
        assert g.is_triangle_free()
        for v, nbrs in enumerate(g.adjacency):
            assert list(nbrs) == sorted(set(nbrs))
            assert v not in nbrs
            for w in nbrs:
                assert v in g.adjacency[w]
        assert sum(len(a) for a in g.adjacency) == 2 * g.m
