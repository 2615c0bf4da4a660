"""Exhaustive exact baselines on small graphs.

Bitmask enumeration over all vertex subsets: the best induced bipartite
average degree (the quantity the extractor chases) and the maximum
independent set (the quantity the greedy approximates). Both respect a hard
size cap since the cost is 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph
from .reducer import bitmask, mask_members

DEFAULT_CAP = 18


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum with a witness pair realizing it."""

    best_value: Fraction
    witness_I: tuple[int, ...]
    witness_J: tuple[int, ...]


def _two_color(masks: list[int], subset: int) -> tuple[int, int] | None:
    """2-coloring of the induced subgraph on `subset`, or None if not bipartite.

    BFS per component starting from the lowest uncolored bit, which always
    receives color 0, so the witness parts are deterministic.
    """
    color0 = color1 = 0
    remaining = subset
    while remaining:
        start = remaining & -remaining
        comp0, comp1 = start, 0
        frontier, side = start, 0
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= masks[b.bit_length() - 1]
            nxt &= subset
            if side == 0:
                if nxt & comp0:
                    return None
                frontier = nxt & ~comp1
                comp1 |= nxt
                side = 1
            else:
                if nxt & comp1:
                    return None
                frontier = nxt & ~comp0
                comp0 |= nxt
                side = 0
        color0 |= comp0
        color1 |= comp1
        remaining &= ~(comp0 | comp1)
    return color0, color1


def max_induced_bipartite_average_degree(g: Graph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact maximum of 2*edges/|S| over subsets S inducing a bipartite graph.

    Ties break toward the smaller subset, then the smaller bitmask, so the
    witness is reproducible. The empty subset scores 0, which covers edgeless
    graphs.
    """
    if g.n > cap:
        raise ValueError(f"oracle is capped at n <= {cap}, got n={g.n}")
    masks = list(map(bitmask, g.adjacency))
    best_num, best_den = 0, 1  # value 2e/|S| as a fraction; empty set scores 0
    best_size, best_mask = 0, 0
    best_parts = (0, 0)
    for subset in range(1, 1 << g.n):
        size = subset.bit_count()
        twice_edges = 0
        s = subset
        while s:
            b = s & -s
            s ^= b
            twice_edges += (masks[b.bit_length() - 1] & subset).bit_count()
        # Cross-multiplied comparison against the incumbent before paying for
        # the coloring; equal values only matter with a better tie-break key.
        lhs = twice_edges * best_den
        rhs = best_num * size
        if lhs < rhs:
            continue
        if lhs == rhs and (size, subset) >= (best_size, best_mask):
            continue
        parts = _two_color(masks, subset)
        if parts is None:
            continue
        best_num, best_den = twice_edges, size
        best_size, best_mask = size, subset
        best_parts = parts
    return OracleResult(
        Fraction(best_num, best_den),
        tuple(mask_members(best_parts[0])),
        tuple(mask_members(best_parts[1])),
    )


def max_independent_set(g: Graph, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """A maximum independent set; lexicographically smallest among maximums."""
    if g.n > cap:
        raise ValueError(f"oracle is capped at n <= {cap}, got n={g.n}")
    masks = list(map(bitmask, g.adjacency))
    independent = bytearray(1 << g.n)
    independent[0] = 1
    best_size = 0
    best: tuple[int, ...] = ()
    for subset in range(1, 1 << g.n):
        low = subset & -subset
        rest = subset ^ low
        if independent[rest] and not (masks[low.bit_length() - 1] & rest):
            independent[subset] = 1
            size = subset.bit_count()
            if size > best_size:
                best_size = size
                best = tuple(mask_members(subset))
            elif size == best_size:
                candidate = tuple(mask_members(subset))
                if candidate < best:
                    best = candidate
    return best
