"""Seeded triangle-free instance families, emitted in canonical Graph form."""

from __future__ import annotations

from .graph import Graph, from_edge_list
from .rng import stream


def _check_probability(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {rho}")


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: min degree min(a, b), triangle-free."""
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return from_edge_list(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def random_bipartite(n1: int, n2: int, rho: float, seed: int) -> Graph:
    """Each of the n1*n2 cross pairs is an edge independently with probability rho."""
    if n1 < 0 or n2 < 0:
        raise ValueError("side sizes must be nonnegative")
    _check_probability(rho)
    rng = stream(seed, 0)
    edges = (
        (i, n1 + j) for i in range(n1) for j in range(n2) if rng.random() < rho
    )
    return from_edge_list(n1 + n2, edges)


def c5_blowup(t: int) -> Graph:
    """5-cycle with each vertex replaced by an independent t-set.

    The result has 5t vertices, is 2t-regular, triangle-free, and needs three
    colors (so it is never bipartite).
    """
    if t < 1:
        raise ValueError("blow-up factor must be at least 1")
    edges = (
        (block * t + i, (block + 1) % 5 * t + j)
        for block in range(5) for i in range(t) for j in range(t)
    )
    return from_edge_list(5 * t, edges)


def binomial_triangle_scrubbed(n: int, rho: float, seed: int) -> Graph:
    """G(n, rho) made triangle-free by deterministic edge deletion.

    While a triangle exists, delete the lexicographically smallest edge of the
    lexicographically smallest triangle; one deletion per triangle keeps the
    graph dense. Deterministic per seed.

    One pass over the edges (u, v), u < v, in lexicographic order does this:
    deleting an edge never creates a triangle, so no earlier pair gains one,
    and deleting (u, v) removes every triangle whose two smallest vertices
    are u and v.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    _check_probability(rho)
    rng = stream(seed, 0)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < rho:
                nbrs[u].add(v)
                nbrs[v].add(u)
    for u in range(n):
        for v in sorted(nbrs[u]):
            if v > u and any(w > v for w in nbrs[u] & nbrs[v]):
                nbrs[u].discard(v)
                nbrs[v].discard(u)
    return from_edge_list(n, ((u, v) for u in range(n) for v in nbrs[u] if u < v))
