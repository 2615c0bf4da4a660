"""Reduce a graph to a workable core and fix the ordering the sampler needs.

The pipeline keeps only the d-core, shrinks it to an inclusion-minimal induced
subgraph of minimum degree >= d (which forces degeneracy <= d), then fixes a
left-to-right order of left-degree <= d. The ordered core stores the graph,
the order and d, and derives its positions, left lists, candidate sets and
masks.

Both the d-core and the minimality scan run on one peeling routine
(Batagelj-Zaversnik): delete some vertices, then repeatedly delete every
vertex whose degree has dropped below d, keeping the degrees up to date. The
scan makes a single pass over the core, tentatively deleting one vertex at a
time and undoing the deletion when it would empty the remainder. A vertex
whose deletion failed is a keeper, and a tentative deletion stops as soon as
its peel kills a keeper: if the peel from u on the remainder R kills a keeper
v that failed on R_old >= R, then core(R-u) <= core(R-v) <= core(R_old-v) =
empty, so u fails too. The scan also ends when a failed deletion shows the
remainder to be connected and d-regular; only the first failure, which
meets no keeper and so peels everything, can show it. Everything is
deterministic: ties always break toward the smallest vertex id.

The ordering is smallest-last (Matula-Beck): repeatedly remove a vertex of
least degree. `build_ordered` runs it on int bitmasks with a bit-sliced
degree counter when the core's neighbour masks take no more memory than its
adjacency tuples (`graph._masks_fit`), and on a binary heap otherwise; both
give the same order. On such a dense core it also fills both mask tables
of the trial kernel up front: the neighbour masks from the ordering's own
pass, the holder masks from the neighbour masks in one sweep. On any other
core each mask is built on its first lookup.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property
from itertools import compress, count

from .graph import Graph, _masks_fit


class EmptyCoreError(ValueError):
    """The d-core is empty: the input's minimum-degree guarantee is unusable."""


class OrderingError(ValueError):
    """Graph does not meet the min-degree / degeneracy contract for ordering."""


def bitmask(ids: Iterable[int]) -> int:
    """The int with bit v set for each v in `ids`; `mask_members` inverts it."""
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def mask_members(mask: int) -> list[int]:
    """The set bits of `mask`, ascending."""
    # bin() reversed puts bit i at index i; as 0/1 bytes it selects from count()
    return list(compress(count(), bin(mask)[:1:-1].encode("ascii").translate(_BIT_BYTES)))


class VertexMasks(dict):
    """Per-vertex bitmasks over vertex ids: self[v] is bitmask(ids(v)).

    A mask is built on its first lookup and takes at most n/8 bytes, so the
    cache costs that much per vertex looked up, never n^2/8 up front. `ids`
    is a bound method, which looks its table up only on a miss and pickles
    with its ordered graph.
    """

    def __init__(self, ids: Callable[[int], Iterable[int]]):
        self.ids = ids

    def __missing__(self, v: int) -> int:
        mask = self[v] = bitmask(self.ids(v))
        return mask


class OrderedGraph(namedtuple("OrderedGraph", "graph order d")):
    """A graph, a left-to-right order (order[i] is the vertex at position i) and d.

    All else is derived from these three fields on first use and cached.
    positions inverts the order; a vertex's left neighbours are its
    neighbours at smaller positions. candidate_sets[v] are the d smallest
    neighbor ids of v, so y holds x (x is in y's candidate set) exactly when
    y is a neighbor of x and x is at most the last id of y's candidate set.
    neighbor_masks and holder_masks hold the adjacency lists and the holders
    as per-vertex int bitmasks for the trial kernel.
    """

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """positions[v] is the index of v in the order."""
        pos = [0] * self.graph.n
        for i, v in enumerate(self.order):
            pos[v] = i
        return tuple(pos)

    @cached_property
    def left_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """left_neighbors[v] lists the neighbors of v that precede it in the order."""
        pos = self.positions
        return tuple(
            tuple(w for w in nbrs if pos[w] < pos[v]) for v, nbrs in enumerate(self.graph.adjacency)
        )

    @cached_property
    def candidate_sets(self) -> tuple[tuple[int, ...], ...]:
        """candidate_sets[v] are the d smallest neighbor ids of v, or all of them."""
        return tuple(nbrs[: self.d] for nbrs in self.graph.adjacency)

    @cached_property
    def neighbor_masks(self) -> VertexMasks:
        """neighbor_masks[v] has bit w set for each neighbor w of v."""
        return VertexMasks(self.graph.adjacency.__getitem__)

    @cached_property
    def holder_masks(self) -> VertexMasks:
        """holder_masks[x] has bit y set for each y whose candidate set contains x."""
        return VertexMasks(self._holders)

    def _holders(self, x: int) -> list[int]:
        cand = self.candidate_sets
        return [y for y in self.graph.adjacency[x] if cand[y] and x <= cand[y][-1]]


def _peel(
    adjacency: Sequence[Sequence[int]],
    deg: list[int],
    alive: list[bool],
    stack: list[int],
    d: int,
    keepers: bytearray,
) -> tuple[list[int], list[int], bool]:
    """Delete the vertices on `stack`, then every vertex whose degree drops below d.

    `deg` and `alive` are updated in place and `stack` is consumed. Returns
    (killed, decremented, stopped): every deleted vertex, one entry per degree
    decrement, which together are enough to undo the peel, and whether the
    peel stopped early because it killed a vertex marked in `keepers`.
    `keepers` is always given; `d_core` marks no vertex in it.
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
                    killed.append(w)
                    if keepers[w]:
                        return killed, decremented, True
                    stack.append(w)
    return killed, decremented, False


def d_core(g: Graph, d: int) -> tuple[int, ...]:
    """Vertices of the unique maximal induced subgraph with min degree >= d.

    Computed by peeling from every vertex of degree < d; possibly empty.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    deg = [len(nbrs) for nbrs in g.adjacency]
    alive = [True] * g.n
    _peel(g.adjacency, deg, alive, [v for v in range(g.n) if deg[v] < d], d, bytearray(g.n))
    return tuple(v for v in range(g.n) if alive[v])


def minimal_min_degree_subgraph(g: Graph, d: int) -> tuple[Graph, tuple[int, ...]]:
    """Inclusion-minimal induced subgraph of min degree >= d, plus its kept ids
    as `Graph.induced_subgraph` returns them.

    Starting from the d-core, one pass visits the vertices in ascending id
    and tentatively deletes each live one, peeling what drops below degree
    d. The deletion is kept when something survives and undone when the
    remainder would be empty. One pass suffices because the d-core is
    monotone under inclusion: a vertex whose deletion emptied the remainder
    once empties every smaller remainder too. When no deletion survives the
    remainder is inclusion-minimal, hence d-degenerate.

    A vertex whose deletion failed becomes a keeper. A tentative deletion
    whose peel kills a keeper fails too, by the same monotonicity: if the
    peel from u on the remainder R kills the keeper v, which failed on
    R_old >= R, then core(R-u) <= core(R-v) <= core(R_old-v) = empty. So the
    peel stops there and is undone, and u becomes a keeper. The same argument
    shows that a kept deletion never kills a keeper, so the early stop keeps
    exactly the deletions a full peel would keep.

    The pass stops once the remainder is connected and every live vertex has
    degree exactly d, since deleting any vertex then peels everything. A
    failed deletion detects this: in a remainder whose degrees all equal d it
    peels exactly the deleted vertex's component, so it fails only when that
    component is the whole remainder. Only a failed deletion that peels the
    whole remainder can see it, and once a keeper exists every failed
    deletion stops at a keeper first, so the check runs on the first failure
    alone.
    """
    core = d_core(g, d)
    if not core:
        raise EmptyCoreError(f"the {d}-core of the input is empty")
    n = g.n
    adjacency = g.adjacency
    alive = [False] * n
    for v in core:
        alive[v] = True
    deg = [len(nbrs) for nbrs in adjacency]
    for v, live in enumerate(alive):
        if not live:  # peeled by d_core: its edges leave its neighbours' degrees
            for w in adjacency[v]:
                deg[w] -= 1

    keepers = bytearray(n)
    live = len(core)
    for v in core:
        if not alive[v]:
            continue
        killed, decremented, stopped = _peel(adjacency, deg, alive, [v], d, keepers)
        if not stopped and len(killed) < live:
            live -= len(killed)
            continue
        for w in decremented:
            deg[w] += 1
        for u in killed:
            alive[u] = True
        keepers[v] = 1
        if not stopped and all(deg[u] == d for u in killed):
            # Every degree is exactly d, so the peel took exactly v's
            # component: the remainder is connected and no deletion can succeed.
            break
    return g.induced_subgraph([v for v in core if alive[v]])


def degeneracy_ordering(g: Graph) -> tuple[tuple[int, ...], int]:
    """Left-to-right order from repeated min-degree removal (smallest id on ties).

    Returns (order, degeneracy). The removal sequence reversed is the order;
    degeneracy is the maximum degree seen at removal time, and it equals the
    maximum left-degree of the returned order.
    """
    n = g.n
    deg = [len(nbrs) for nbrs in g.adjacency]
    removed = [False] * n
    # key deg*n + v orders like the pair (deg, v) but compares as one int
    heap = [dv * n + v for v, dv in enumerate(deg)]
    heapq.heapify(heap)
    removal: list[int] = []
    degeneracy = 0
    while heap:
        dv, v = divmod(heapq.heappop(heap), n)
        if removed[v] or dv != deg[v]:
            continue
        removed[v] = True
        removal.append(v)
        if dv > degeneracy:
            degeneracy = dv
        for w in g.adjacency[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, deg[w] * n + w)
    return tuple(reversed(removal)), degeneracy


def _bit_sliced_ordering(g: Graph) -> tuple[tuple[int, ...], int, list[int]]:
    """`degeneracy_ordering` on bitmasks, plus the neighbour masks it runs on.

    Returns (order, degeneracy, nbr), where nbr[v] is bitmask(adjacency[v]).
    The live degrees sit in a bit-sliced counter, levels[i] holding bit i of
    every degree. The live vertices of least degree are found by narrowing
    `alive` from the top level down, to the vertices whose bit there is 0
    whenever one is; the removed vertex is the lowest of them. Its live
    neighbours are subtracted from the counter with a ripple borrow. Each
    step costs O(log(max degree) * n/64) word operations.
    """
    n = g.n
    pow2 = [1 << v for v in range(n)]
    nbr = [sum(map(pow2.__getitem__, nbrs)) for nbrs in g.adjacency]
    deg = [len(nbrs) for nbrs in g.adjacency]
    levels = [
        sum(compress(pow2, [dv >> i & 1 for dv in deg]))
        for i in range(max(deg, default=0).bit_length())
    ]
    removal: list[int] = []
    degeneracy = 0
    alive = (1 << n) - 1
    while alive:
        while levels and not levels[-1] & alive:
            levels.pop()  # no live degree reaches this bit any more
        least = alive
        dv = 0
        for i in range(len(levels) - 1, -1, -1):
            zero = least & ~levels[i]
            if zero:
                least = zero
            else:
                dv |= 1 << i
        v = (least & -least).bit_length() - 1
        alive ^= pow2[v]
        removal.append(v)
        if dv > degeneracy:
            degeneracy = dv
        borrow = nbr[v] & alive
        for i, level in enumerate(levels):
            if not borrow:
                break
            levels[i] = level ^ borrow
            borrow &= ~level
    return tuple(reversed(removal)), degeneracy, nbr


def _holder_masks(candidate_sets: Sequence[Sequence[int]], nbr: list[int]) -> list[int]:
    """holder_masks from the neighbour masks `nbr`, in one descending sweep.

    y holds x when y is a neighbour of x and x is at most the last id of y's
    candidate set, so holders[x] is nbr[x] cut by the mask of every y whose
    candidate set ends at x or above. Sweeping x down from n - 1 adds each y
    to that mask at its last candidate; a y with an empty candidate set
    (d = 0, or an isolated vertex) holds nothing.
    """
    ends = [0] * len(nbr)
    for y, cand in enumerate(candidate_sets):
        if cand:
            ends[cand[-1]] |= 1 << y
    holders = [0] * len(nbr)
    reach = 0
    for x in range(len(nbr) - 1, -1, -1):
        reach |= ends[x]
        holders[x] = nbr[x] & reach
    return holders


def build_ordered(g: Graph, d: int) -> OrderedGraph:
    """Order a core of min degree >= d and degeneracy <= d; reject any other graph.

    The ordered graph stores g, the order and d and derives the rest. The
    core's representation is picked once, by `_masks_fit`. When its n
    neighbour masks take no more memory than its adjacency tuples
    (ceil(n/64) * n <= 2m), the ordering runs on bitmasks
    (`_bit_sliced_ordering`), and the neighbour masks it builds fill the
    ordered graph's `neighbor_masks` cache; one sweep over them fills
    `holder_masks` (`_holder_masks`).
    Otherwise, as on a large sparse core, where n masks would take about
    n^2/8 bytes, the ordering is the heap `degeneracy_ordering` and every
    mask is built on first use.
    """
    if g.n == 0:
        raise OrderingError("cannot order the empty graph")
    min_deg = g.min_degree()
    if min_deg < d:
        raise OrderingError(f"min degree {min_deg} is below d={d}")
    dense = _masks_fit(g)
    if dense:
        order, degeneracy, nbr = _bit_sliced_ordering(g)
    else:
        order, degeneracy = degeneracy_ordering(g)
    if degeneracy > d:
        raise OrderingError(f"degeneracy {degeneracy} exceeds d={d}")
    og = OrderedGraph(g, order, d)
    if dense:
        og.neighbor_masks.update(enumerate(nbr))
        og.holder_masks.update(enumerate(_holder_masks(og.candidate_sets, nbr)))
    return og


def reduce_and_order(g: Graph, d: int) -> tuple[OrderedGraph, tuple[int, ...]]:
    """Full reduction pipeline: (ordered core, kept), where kept[v] is the id in
    `g` of core vertex v."""
    sub, kept = minimal_min_degree_subgraph(g, d)
    return build_ordered(sub, d), kept
