"""Reduce a graph to a workable core and fix the ordering the sampler needs.

The pipeline keeps only the d-core, shrinks it to an inclusion-minimal induced
subgraph of minimum degree >= d (which forces degeneracy <= d), then records a
left-to-right vertex ordering with bounded left-degree plus a size-d candidate
neighbor set per vertex.

Both the d-core and the minimality scan run on one peeling routine
(Batagelj-Zaversnik): delete some vertices, then repeatedly delete every
vertex whose degree has dropped below d, keeping the degrees up to date. The
scan makes a single pass over the core, tentatively deleting one vertex at a
time and undoing the deletion when it would empty the remainder. Everything
is deterministic: ties always break toward the smallest vertex id.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .graph import Graph


class EmptyCoreError(ValueError):
    """The d-core is empty: the input's minimum-degree guarantee is unusable."""


class OrderingError(ValueError):
    """Graph does not meet the min-degree / degeneracy contract for ordering."""


@dataclass(frozen=True)
class OrderedGraph:
    """A graph plus its left-to-right order, left-neighbor lists and candidate sets.

    order[i] is the vertex at position i; left_neighbors[v] are the neighbors
    of v that appear earlier in the order (at most d of them); candidate_sets[v]
    is a fixed subset of exactly d neighbors of v (the d smallest ids).
    """

    graph: Graph
    order: tuple[int, ...]
    left_neighbors: tuple[tuple[int, ...], ...]
    candidate_sets: tuple[tuple[int, ...], ...]
    d: int

    @cached_property
    def position(self) -> tuple[int, ...]:
        pos = [0] * self.graph.n
        for i, v in enumerate(self.order):
            pos[v] = i
        return tuple(pos)

    @cached_property
    def candidate_index(self) -> tuple[tuple[int, ...], ...]:
        """candidate_index[x] lists the vertices whose candidate set contains x."""
        holders: list[list[int]] = [[] for _ in range(self.graph.n)]
        for y, cand in enumerate(self.candidate_sets):
            for x in cand:
                holders[x].append(y)
        return tuple(tuple(h) for h in holders)

    def max_left_degree(self) -> int:
        return max((len(left) for left in self.left_neighbors), default=0)


def _peel(
    adjacency: Sequence[Sequence[int]], deg: list[int], alive: list[bool], stack: list[int], d: int
) -> tuple[list[int], list[int]]:
    """Delete the vertices on `stack`, then every vertex whose degree drops below d.

    `deg` and `alive` are updated in place and `stack` is consumed. Returns
    (killed, decremented): every deleted vertex, and one entry per degree
    decrement, which together are enough to undo the peel.
    """
    killed = list(stack)
    for v in killed:
        alive[v] = False
    decremented: list[int] = []
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if alive[w]:
                deg[w] -= 1
                decremented.append(w)
                if deg[w] < d:
                    alive[w] = False
                    stack.append(w)
                    killed.append(w)
    return killed, decremented


def d_core(g: Graph, d: int) -> tuple[int, ...]:
    """Vertices of the unique maximal induced subgraph with min degree >= d.

    Computed by peeling from every vertex of degree < d; possibly empty.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    deg = [len(nbrs) for nbrs in g.adjacency]
    alive = [True] * g.n
    _peel(g.adjacency, deg, alive, [v for v in range(g.n) if deg[v] < d], d)
    return tuple(v for v in range(g.n) if alive[v])


def minimal_min_degree_subgraph(
    g: Graph, d: int, scan_order: Iterable[int] | None = None
) -> tuple[Graph, dict[int, int]]:
    """Inclusion-minimal induced subgraph of min degree >= d, plus the id map.

    Starting from the d-core, one pass visits the vertices in ascending id
    (unless `scan_order` gives a different priority over original ids) and
    tentatively deletes each live one, peeling what drops below degree d. The
    deletion is kept when something survives and undone when the remainder
    would be empty. One pass suffices because the d-core is monotone under
    inclusion: a vertex whose deletion emptied the remainder once empties
    every smaller remainder too. When no deletion survives the remainder is
    inclusion-minimal, hence d-degenerate.

    The pass stops once the remainder is connected and every live vertex has
    degree exactly d, since deleting any vertex then peels everything. A
    failed deletion detects this: in a remainder whose degrees all equal d it
    peels exactly the deleted vertex's component, so it fails only when that
    component is the whole remainder.
    """
    core = d_core(g, d)
    if not core:
        raise EmptyCoreError(f"the {d}-core of the input is empty")
    sub, old_to_new = g.induced_subgraph(core)
    k = sub.n

    scan: list[int] = []
    if scan_order is not None:
        seen = set()
        for v in scan_order:
            local = old_to_new.get(v)
            if local is not None and local not in seen:
                scan.append(local)
                seen.add(local)
        scan.extend(v for v in range(k) if v not in seen)
    else:
        scan = list(range(k))

    adjacency = sub.adjacency
    deg = [len(nbrs) for nbrs in adjacency]
    alive = [True] * k
    live = k
    for v in scan:
        if not alive[v]:
            continue
        killed, decremented = _peel(adjacency, deg, alive, [v], d)
        if len(killed) < live:
            live -= len(killed)
            continue
        for w in decremented:
            deg[w] += 1
        for u in killed:
            alive[u] = True
        if all(deg[u] == d for u in killed):
            # Every degree is exactly d, so the peel took exactly v's
            # component: the remainder is connected and no deletion can succeed.
            break
    survivors = [v for v in range(k) if alive[v]]

    new_to_old = {i: v for v, i in old_to_new.items()}
    return g.induced_subgraph([new_to_old[v] for v in survivors])


def degeneracy_ordering(g: Graph) -> tuple[tuple[int, ...], int]:
    """Left-to-right order from repeated min-degree removal (smallest id on ties).

    Returns (order, degeneracy). The removal sequence reversed is the order;
    degeneracy is the maximum degree seen at removal time, and it equals the
    maximum left-degree of the returned order.
    """
    n = g.n
    deg = [len(nbrs) for nbrs in g.adjacency]
    removed = [False] * n
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removal: list[int] = []
    degeneracy = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if removed[v] or dv != deg[v]:
            continue
        removed[v] = True
        removal.append(v)
        if dv > degeneracy:
            degeneracy = dv
        for w in g.adjacency[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return tuple(reversed(removal)), degeneracy


def build_ordered(g: Graph, d: int) -> OrderedGraph:
    """Attach the degeneracy ordering and size-d candidate sets.

    Rejects graphs with min degree < d or degeneracy > d; candidate sets take
    the d smallest neighbor ids so runs are reproducible.
    """
    if g.n == 0:
        raise OrderingError("cannot order the empty graph")
    min_deg = g.min_degree()
    if min_deg < d:
        raise OrderingError(f"min degree {min_deg} is below d={d}")
    order, degeneracy = degeneracy_ordering(g)
    if degeneracy > d:
        raise OrderingError(f"degeneracy {degeneracy} exceeds d={d}")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    left = tuple(
        tuple(w for w in g.adjacency[v] if pos[w] < pos[v]) for v in range(g.n)
    )
    candidates = tuple(nbrs[:d] for nbrs in g.adjacency)
    return OrderedGraph(g, order, left, candidates, d)


def reduce_and_order(g: Graph, d: int) -> tuple[OrderedGraph, dict[int, int]]:
    """Full reduction pipeline; returns the ordered core plus original->core id map."""
    sub, mapping = minimal_min_degree_subgraph(g, d)
    return build_ordered(sub, d), mapping
