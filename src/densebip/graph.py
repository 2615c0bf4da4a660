"""Immutable simple graphs plus the predicates and measurements everything else uses.

Vertices are dense 0-based integers and adjacency lists are kept sorted, so
construction is canonical: the same edge set always yields the same object.
All operations are pure; instances are safe to share across threads and
processes without synchronization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Malformed graph input: self-loop, bad vertex id, or bad file contents."""


def _vertex_subset(n: int, vertices: Iterable[int]) -> tuple[int, ...]:
    vs = tuple(sorted(set(vertices)))
    if vs and (vs[0] < 0 or vs[-1] >= n):
        raise GraphError(f"vertex id out of range 0..{n - 1}")
    return vs


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    adjacency[v] is the sorted tuple of neighbors of v; m is the edge count,
    always half the sum of adjacency lengths.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nbrs) for nbrs in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def min_degree(self) -> int:
        if self.n == 0:
            raise GraphError("min_degree is undefined for the empty graph")
        return min(len(nbrs) for nbrs in self.adjacency)

    def average_degree(self) -> Fraction:
        """2m/n as an exact rational (never a float)."""
        if self.n == 0:
            raise GraphError("average_degree is undefined for the empty graph")
        return Fraction(2 * self.m, self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets[u]

    def is_triangle_free(self) -> bool:
        """True iff no edge's endpoints share a neighbor.

        Runs a sorted-list merge intersection over each edge's two adjacency
        lists, so the cost is sum over edges of (deg u + deg v) in the worst
        case, with early exit on the first common neighbor.
        """
        adj = self.adjacency
        for u, v in self.edges():
            a, b = adj[u], adj[v]
            i = j = 0
            la, lb = len(a), len(b)
            while i < la and j < lb:
                if a[i] == b[j]:
                    return False
                if a[i] < b[j]:
                    i += 1
                else:
                    j += 1
        return True

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Subgraph on `vertices`, densely relabeled; also returns the old->new id map.

        New ids follow ascending old id, so relabeling is deterministic.
        """
        vs = _vertex_subset(self.n, vertices)
        old_to_new = {v: i for i, v in enumerate(vs)}
        keep = set(vs)
        adjacency = tuple(
            tuple(old_to_new[w] for w in self.adjacency[v] if w in keep) for v in vs
        )
        m = sum(len(nbrs) for nbrs in adjacency) // 2
        return Graph(len(vs), adjacency, m), old_to_new

    def edges_within(self, vertices: Iterable[int]) -> int:
        """Number of edges with both endpoints in `vertices`."""
        vs = _vertex_subset(self.n, vertices)
        keep = set(vs)
        sets = self.neighbor_sets
        return sum(len(sets[v] & keep) for v in vs) // 2

    def is_independent(self, vertices: Iterable[int]) -> bool:
        return self.edges_within(vertices) == 0


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build the canonical graph; duplicate pairs collapse to one edge.

    Rejects self-loops and out-of-range vertex ids.
    """
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in seen:
        lists[u].append(v)
        lists[v].append(u)
    adjacency = tuple(tuple(sorted(nbrs)) for nbrs in lists)
    return Graph(n, adjacency, len(seen))


def parse_edge_list(text: str) -> Graph:
    """Parse the on-disk format: a header line "n m", then m lines "u v".

    Blank lines and lines starting with '#' are ignored. Vertex ids are
    0-based and whitespace-separated. Each edge is listed once, in either
    orientation; a repeated edge is an error, not collapsed.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise GraphError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header line {rows[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError(f"bad header line {rows[0]!r}: {exc}") from None
    if m < 0:
        raise GraphError("edge count must be nonnegative")
    if len(rows) - 1 != m:
        raise GraphError(f"header declares {m} edges, found {len(rows) - 1} edge lines")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {line!r}, expected 'u v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphError(f"bad edge line {line!r}: {exc}") from None
    g = from_edge_list(n, edges)
    if g.m != m:
        # from_edge_list collapsed a repeat; find the first one to name it
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(key)
    return g


def format_edge_list(g: Graph) -> str:
    """Serialize to the canonical on-disk form (edges sorted, u < v)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_graph(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_edge_list(g))


def canonical_sha256(g: Graph) -> str:
    """Hash of the canonical serialization; stable across formatting variants."""
    return hashlib.sha256(format_edge_list(g).encode("ascii")).hexdigest()


@dataclass(frozen=True)
class BipartitePairReport:
    """Validation record for a candidate pair of independent sets (I, J).

    When valid, average_degree equals 2*cross_edges/(|I|+|J|), which is the
    average degree of the induced subgraph on I + J; the empty pair is valid
    with average degree 0.
    """

    I: tuple[int, ...]
    J: tuple[int, ...]
    cross_edges: int
    average_degree: Fraction
    valid: bool
    reason: str | None = None


def bipartite_pair_report(g: Graph, I: Iterable[int], J: Iterable[int]) -> BipartitePairReport:
    """Check disjointness and independence of both sides, and measure the pair.

    Invalidity is reported through the `valid`/`reason` fields, never raised.
    """
    side_i = _vertex_subset(g.n, I)
    side_j = _vertex_subset(g.n, J)
    reason = None
    if set(side_i) & set(side_j):
        reason = "sides overlap"
    elif not g.is_independent(side_i):
        reason = "side I is not independent"
    elif not g.is_independent(side_j):
        reason = "side J is not independent"
    j_set = set(side_j)
    cross = sum(len(g.neighbor_sets[u] & j_set) for u in side_i)
    total = len(side_i) + len(side_j)
    average = Fraction(2 * cross, total) if total else Fraction(0)
    return BipartitePairReport(side_i, side_j, cross, average, reason is None, reason)
