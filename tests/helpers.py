"""Shared corpus builders and brute-force oracles for the test suite."""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Iterable

from hypothesis import strategies as st

from densebip.graph import Graph, from_edge_list
from densebip.reducer import EmptyCoreError


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded binomial graph (general, not necessarily triangle-free)."""
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edge_list(n, edges)


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 10):
    """Hypothesis strategy over small arbitrary graphs."""
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return from_edge_list(n, [])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edge_list(n, [e for e, k in zip(pairs, keep) if k])


def naive_triangle_free(g: Graph) -> bool:
    """O(n^3) triple scan."""
    sets = g.neighbor_sets
    for a, b, c in combinations(range(g.n), 3):
        if b in sets[a] and c in sets[a] and c in sets[b]:
            return False
    return True


def adj_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for v, nbrs in enumerate(g.adjacency):
        for w in nbrs:
            masks[v] |= 1 << w
    return masks


def exhaustive_degeneracy(g: Graph) -> int:
    """Exact minimum over all vertex orderings of the maximum left-degree.

    Subset DP: choose the rightmost vertex of each suffix, which explores
    every ordering implicitly. Cross-checked against literal permutation
    enumeration in the tests for tiny n.
    """
    n = g.n
    if n == 0:
        return 0
    masks = adj_masks(g)
    size = 1 << n
    best = [0] * size
    for s in range(1, size):
        cur = n + 1
        t = s
        while t:
            b = t & -t
            t ^= b
            v = b.bit_length() - 1
            left_deg = (masks[v] & s).bit_count()
            rest = best[s ^ b]
            cand = left_deg if left_deg > rest else rest
            if cand < cur:
                cur = cand
        best[s] = cur
    return best[size - 1]


def degeneracy_by_permutations(g: Graph) -> int:
    """Literal enumeration of all orderings; only usable for very small n."""
    n = g.n
    if n == 0:
        return 0
    best = n
    for perm in permutations(range(n)):
        pos = [0] * n
        for i, v in enumerate(perm):
            pos[v] = i
        worst = 0
        for v in range(n):
            left = sum(1 for w in g.adjacency[v] if pos[w] < pos[v])
            if left > worst:
                worst = left
        if worst < best:
            best = worst
    return best


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.adjacency[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def _peeled(g: Graph, alive: list[bool], d: int) -> list[bool]:
    """Live vertices left after repeatedly deleting every one of live degree < d."""
    alive = list(alive)
    while True:
        low = [
            v for v in range(g.n)
            if alive[v] and sum(alive[w] for w in g.adjacency[v]) < d
        ]
        if not low:
            return alive
        for v in low:
            alive[v] = False


def restart_minimal_subgraph(
    g: Graph, d: int, scan_order: Iterable[int] | None = None
) -> tuple[Graph, dict[int, int]]:
    """Reference for `minimal_min_degree_subgraph`: the restart-after-commit scan.

    Every tentative deletion recomputes the core of the remainder from scratch,
    and every kept deletion restarts the scan from its first vertex.
    """
    alive = _peeled(g, [True] * g.n, d)
    if not any(alive):
        raise EmptyCoreError(f"the {d}-core of the input is empty")
    order: list[int] = []
    for v in [*(scan_order or ()), *range(g.n)]:
        if 0 <= v < g.n and v not in order:
            order.append(v)
    progressed = True
    while progressed:
        progressed = False
        for v in order:
            if not alive[v]:
                continue
            trial = list(alive)
            trial[v] = False
            trial = _peeled(g, trial, d)
            if any(trial):
                alive = trial
                progressed = True
                break
    return g.induced_subgraph([v for v in range(g.n) if alive[v]])
