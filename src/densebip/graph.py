"""Immutable simple graphs plus the predicates and measurements everything else uses.

Vertices are dense 0-based integers and adjacency lists are kept sorted, so
construction is canonical: the same edge set always yields the same object.
All operations are pure; instances are safe to share across threads and
processes without synchronization.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add, lt, mul
from pathlib import Path

# Every vertex gets an adjacency list, isolated or not, so a header alone could
# ask for gigabytes; above this count the input is refused before any is made.
MAX_VERTICES = 10_000_000


class GraphError(ValueError):
    """Malformed graph input: self-loop, bad vertex id, or bad file contents."""


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def _vertex_subset(n: int, vertices: Iterable[int]) -> tuple[int, ...]:
    vs = tuple(sorted(set(vertices)))
    if vs and (vs[0] < 0 or vs[-1] >= n):
        raise GraphError(f"vertex id out of range 0..{n - 1}")
    return vs


class Graph(namedtuple("Graph", "adjacency")):
    """Simple undirected graph on vertices 0..n-1, n = len(adjacency).

    adjacency[v] is the sorted tuple of neighbors of v; m, the edge count, is
    half the sum of adjacency lengths. Every graph this module builds fills
    the tuples from one int object per vertex, so an edge end costs an 8-byte
    slot and no int of its own (CPython caches only the ints up to 256).
    """

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @cached_property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2

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

    def is_triangle_free(self) -> bool:
        """True iff no edge's endpoints share a neighbor.

        A proper 2-colouring proves the graph bipartite, hence triangle-free,
        in O(n + m). Only a graph that is not bipartite is searched: with
        above[u] the neighbours of u larger than u, a triangle u < v < w has
        v in above[u] and w in above[u] & above[v], so each edge costs one
        set intersection, with early exit on the first triangle.
        """
        if self._is_bipartite():
            return True
        above = [set(nbrs[bisect_right(nbrs, u):]) for u, nbrs in enumerate(self.adjacency)]
        for mine in above:
            for v in mine:
                if not mine.isdisjoint(above[v]):
                    return False
        return True

    def _is_bipartite(self) -> bool:
        """Whether no edge joins two vertices of one breadth-first layer.

        Such an edge closes an odd cycle, and without one the layers' parity
        is a proper 2-colouring. Each layer's neighbourhood is one set union.
        """
        adjacency = self.adjacency
        unseen = set(range(self.n))
        while unseen:
            layer = {unseen.pop()}
            while layer:
                reached = set().union(*map(adjacency.__getitem__, layer))
                if not reached.isdisjoint(layer):
                    return False
                layer = reached & unseen
                unseen -= layer
        return True

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """(sub, kept): the subgraph on `vertices`, densely relabeled, and the
        ascending kept ids, kept[i] being the old id of new vertex i.

        A selection of every vertex returns this graph itself.
        """
        kept = _vertex_subset(self.n, vertices)
        if len(kept) == self.n:  # kept is range(n): the relabeling is the identity
            return self, kept
        old_to_new = {v: i for i, v in enumerate(kept)}
        adjacency = tuple(
            tuple(old_to_new[w] for w in self.adjacency[v] if w in old_to_new) for v in kept
        )
        return Graph(adjacency), kept

    def is_independent(self, vertices: Iterable[int]) -> bool:
        vs = _vertex_subset(self.n, vertices)
        keep = set(vs)
        adjacency = self.adjacency
        return all(keep.isdisjoint(adjacency[v]) for v in vs)


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build the canonical graph; duplicate pairs collapse to one edge.

    Rejects self-loops, out-of-range vertex ids and n above MAX_VERTICES.
    """
    _check_vertex_count(n)
    ids = list(range(n))
    lists: list = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        lists[u].append(ids[v])
        lists[v].append(ids[u])
    for v, nbrs in enumerate(lists):
        lists[v] = tuple(sorted(set(nbrs)))
    return Graph(tuple(lists))


# int() alone would also take "1_0", "+1" and non-ASCII digits such as "٣"
_ID = re.compile(r"-?[0-9]+")
# str.split() would also split on "\x0b", "\x1c" or "\u2003"
_SEP = re.compile(r"[ \t]+")


def _pair(line: str, kind: str, shape: str) -> tuple[int, int]:
    parts = _SEP.split(line)
    if len(parts) != 2:
        raise GraphError(f"bad {kind} line {line!r}, expected {shape!r}")
    try:
        pair = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphError(f"bad {kind} line {line!r}: {exc}") from None
    for token in parts:
        if not _ID.fullmatch(token):
            raise GraphError(f"bad {kind} line {line!r}: {token!r} is not ASCII decimal")
    return pair


def _edge(line: str) -> tuple[int, int]:
    return _pair(line, "edge", "u v")


def parse_edge_list(text: str) -> Graph:
    """Parse the on-disk format: a header line "n m", then m lines "u v".

    Lines end at '\n', optionally preceded by one '\r'; tokens are separated
    by ASCII spaces and tabs, and any other character between or around them
    makes the line malformed. Blank lines and lines starting with '#' are
    ignored. Numbers are ASCII decimal, optionally with a leading '-';
    vertex ids are 0-based. Each edge is listed once, in either
    orientation; a repeated edge is an error, not collapsed. The first
    malformed, out-of-range or self-loop edge line is the one reported; a
    repeat is reported only when every line passes those checks.
    """
    rows = []
    for raw in text.split("\n"):
        # str.splitlines and str.strip would also take "\x1c", "\x85" or "\u2028"
        line = raw.removesuffix("\r").strip(" \t")
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise GraphError("empty edge-list input")
    n, m = _pair(rows[0], "header", "n m")
    if m < 0:
        raise GraphError("edge count must be nonnegative")
    if len(rows) - 1 != m:
        raise GraphError(f"header declares {m} edges, found {len(rows) - 1} edge lines")
    g = from_edge_list(n, map(_edge, rows[1:]))
    if g.m != m:
        # from_edge_list collapsed a repeat; parse again to name the first one
        seen: set[tuple[int, int]] = set()
        for u, v in map(_edge, rows[1:]):
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(key)
    return g


def _canonical_pieces(g: Graph) -> Iterator[str]:
    """The canonical text of `g`, one vertex at a time: the header line,
    then for each vertex u with a larger neighbour its lines "u v", v > u
    ascending, so only one vertex's lines are held as text at a time."""
    yield f"{g.n} {g.m}\n"
    for u, nbrs in enumerate(g.adjacency):
        above = nbrs[bisect_right(nbrs, u):]
        if above:
            yield f"{u} " + f"\n{u} ".join(map(str, above)) + "\n"


def format_edge_list(g: Graph) -> str:
    """Serialize to the canonical on-disk form (edges sorted, u < v)."""
    return "".join(_canonical_pieces(g))


# Once '-' is ruled out, JSON's integer grammar 0|[1-9][0-9]* is exactly the
# canonical token grammar: leading zeros and empty tokens are JSON errors
_COMMAS = bytes.maketrans(b" \n", b",,")
# bytes of edge lines read and parsed at a time: a chunk ends at the first
# newline this far past its start, so only one chunk's bytes and int objects
# are alive at a time
_CHUNK = 1 << 14


def _tokens(lines: bytes) -> list[int]:
    """The numbers of `lines`, "u v" lines joined by newlines, parsed in C.

    Raises ValueError for an empty token, a leading zero or a token past the
    interpreter's digit limit.
    """
    return json.loads(b"[" + lines.translate(_COMMAS) + b"]")


def _canonical_edges(f: io.BufferedIOBase, digest) -> tuple[int, int, array, array] | None:
    """(n, m, us, vs) when the binary file `f` holds exactly the
    `format_edge_list` text of a graph with at least one edge, whose edges
    are (us[i], vs[i]); None for any other input. Every byte read from `f`
    goes into `digest`, a hashlib object, so it is the file's sha256 when
    (n, m, us, vs) is returned.

    The file is read once, in chunks: the header line, then edge lines up to
    the first newline `_CHUNK` or more bytes past the chunk's start. Each
    chunk has its layout checked in C, and its numbers are parsed and checked
    and enter the int32 arrays only after its ids are checked to be below
    n <= MAX_VERTICES < 2**31. Only one chunk's bytes and numbers are alive
    at a time, so the arrays (8 bytes per edge) are all that grows. A file
    whose header has more than MAX_VERTICES vertices is a GraphError when the
    rest has the canonical layout and m lines, found without parsing any
    edge line; otherwise it is None too.
    """
    head = f.readline(_CHUNK)
    digest.update(head)
    # every line is digits, one space, digits, newline; an empty token or a
    # leading zero is left to the JSON grammar
    if head.translate(None, b"0123456789") != b" \n":
        return None
    try:
        n, m = _tokens(head[:-1])
    except ValueError:  # a header token off the grammar
        return None
    lines = 0
    us, vs = array("i"), array("i")
    last = -1  # key of the previous chunk's last edge
    while chunk := f.read(_CHUNK):
        chunk += f.readline(_CHUNK)
        digest.update(chunk)
        k = chunk.count(b"\n")
        # without the endswith test, digits after the last newline would pass
        if not chunk.endswith(b"\n") or chunk.translate(None, b"0123456789") != b" \n" * k:
            return None
        lines += k
        if lines > m:
            return None
        if n > MAX_VERTICES:
            continue  # refused below if the rest has the canonical layout
        try:
            nums = _tokens(chunk[:-1])
        except ValueError:  # a token off the grammar
            return None
        cu, cv = nums[::2], nums[1::2]
        if max(cv) >= n or not all(map(lt, cu, cv)):
            return None
        # edges in strictly increasing (u, v) order: sorted and free of repeats
        keys = [last, *map(add, map(mul, cu, repeat(n)), cv)]
        if not all(map(lt, keys, keys[1:])):
            return None
        last = keys[-1]
        us.fromlist(cu)
        vs.fromlist(cv)
    if lines != m or m == 0:
        return None
    _check_vertex_count(n)
    return n, m, us, vs


def _sorted_edges_graph(n: int, us: Iterable[int], vs: Iterable[int]) -> Graph:
    """The graph on 0..n-1 with the edges (u, v), given with u < v in
    strictly increasing (u, v) order."""
    ids = list(range(n))
    lists: list = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        lists[u].append(ids[v])
        lists[v].append(ids[u])
    # each list gets its smaller neighbours first, both runs ascending
    for v, nbrs in enumerate(lists):
        lists[v] = tuple(nbrs)
    return Graph(tuple(lists))


def _drop_low(us: Sequence[int], vs: Sequence[int], d: int, deg: list[int],
              high: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """One filter round of `load_core` on the edges (us[i], vs[i]).

    The edges come with u < v in strictly increasing (u, v) order, and each
    end lies in `high`, an ascending sequence of vertices. Returns the edges
    whose two ends have degree at least d among them, as lists us, vs in the
    same order, and the ascending vertices of `high` with that degree, which
    hold their ends. `deg`, indexed by vertex, is all zeros on entry and on
    return; only its `high` entries are written.
    """
    for v in us:
        deg[v] += 1
    for v in vs:
        deg[v] += 1
    kept = [h for h in high if deg[h] >= d]
    keep_u: list[int] = []
    keep_v: list[int] = []
    lo = 0
    for h in kept:
        # us ascends, so the edges (h, v) are one run of it
        lo = bisect_left(us, h, lo)
        hi = bisect_right(us, h, lo)
        run = [v for v in vs[lo:hi] if deg[v] >= d]
        keep_u += repeat(h, len(run))
        keep_v += run
        lo = hi
    for h in high:
        deg[h] = 0
    return keep_u, keep_v, kept


def load_core(path: str | Path, d: int) -> tuple[Graph, Sequence[int], str]:
    """Read an edge-list file for a run that keeps only its d-core.

    Returns (graph, ids, sha256): `graph` is induced on a set of input
    vertices that contains the d-core, `ids[i]` is the input id of its vertex
    i, in ascending order, and `sha256` is the input's canonical hash.

    A canonical file with 2m < d*n has average degree below d, so some vertex
    lies outside the d-core. It is filtered on its edge arrays: each round
    counts the degrees and drops every edge with an endpoint of degree below
    d, and the first round that keeps more than half of its edges is the last.
    Each round before it halves the edges, so all rounds together read at most
    2m of them. Only the vertices of the surviving edges get adjacency lists.
    A dropped edge has an endpoint outside the d-core that loses every edge
    in the same round, so the survivors induce exactly the kept edges. Any
    other canonical file is built whole from its edge arrays, with ids =
    range(n), and its own sha256 is the canonical hash. A file that is not
    canonical goes through `parse_edge_list`, decoded as UTF-8, and is kept
    whole.

    The rounds count degrees in one list of n ints, allocated once. The first
    round reads the 2m edge ends and all n entries of that list, so it costs
    O(n + m) time and 8n bytes: one edge under the header "10000000 1" costs
    about a second and 76 MiB, still far below what the whole graph of that
    file allocates. A later round reads only its own edges and the vertices
    the round before kept, and finds each kept vertex's surviving edges by
    bisecting the sorted `us` array.

    A canonical file is read, hashed and parsed 16 KiB at a time and never
    held whole: the filter's peak is the int32 edge arrays (8 bytes per
    edge), the degree list and one chunk, about 13 bytes per edge under
    tracemalloc on a planted shell of 100k edges. The graph built whole from
    the file retains about 16 bytes per edge, its two tuple slots, and the
    load peaks at about 26 bytes per edge on K_{300,300} and K_{1000,1000}:
    the edge arrays and the lists still being built. A file that is not
    canonical is read again, whole, for the line parser, and its bytes are
    dropped once decoded. A pipe cannot be read twice, so it is read whole
    before either path.
    """
    sha256 = hashlib.sha256()
    with Path(path).open("rb") as file:
        # a pipe is read whole first, as the line parser may read it again
        f = file if file.seekable() else io.BytesIO(file.read())
        edges = _canonical_edges(f, sha256)
        if edges is None:  # the line parser reads the file again, whole
            f.seek(0)
            data = f.read()
    if edges is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphError(f"edge-list input is not UTF-8: {exc}") from None
        del data
        g = parse_edge_list(text)
        return g, range(g.n), canonical_sha256(g)
    digest = sha256.hexdigest()
    n, m, us, vs = edges
    if 2 * m >= d * n:
        return _sorted_edges_graph(n, us, vs), range(n), digest
    deg = [0] * n
    high: Sequence[int] = range(n)
    while us:
        before = len(us)
        us, vs, high = _drop_low(us, vs, d, deg, high)
        if 2 * len(us) > before:
            break
    ids = sorted({*us, *vs})
    local = {v: i for i, v in enumerate(ids)}
    # the relabelling is monotone, so the edges stay in increasing order
    g = _sorted_edges_graph(len(ids), map(local.__getitem__, us), map(local.__getitem__, vs))
    return g, ids, digest


def load_graph(path: str | Path) -> Graph:
    """Read an edge-list file: `load_core` at d = 0, since the 0-core is the
    whole graph."""
    return load_core(path, 0)[0]


def save_graph(g: Graph, path: str | Path) -> None:
    with Path(path).open("w") as f:
        f.writelines(_canonical_pieces(g))


def canonical_sha256(g: Graph) -> str:
    """Hash of the canonical serialization; stable across formatting variants."""
    digest = hashlib.sha256()
    for piece in _canonical_pieces(g):
        digest.update(piece.encode("ascii"))
    return digest.hexdigest()


class BipartitePairReport(
    namedtuple("BipartitePairReport", "I J cross_edges average_degree valid reason",
               defaults=(None,))
):
    """Validation record for a candidate pair of independent sets (I, J).

    When valid, average_degree equals 2*cross_edges/(|I|+|J|), which is the
    average degree of the induced subgraph on I + J; the empty pair is valid
    with average degree 0.
    """

    __slots__ = ()


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
    cross = sum(len(j_set.intersection(g.adjacency[u])) for u in side_i)
    total = len(side_i) + len(side_j)
    average = Fraction(2 * cross, total) if total else Fraction(0)
    return BipartitePairReport(side_i, side_j, cross, average, reason is None, reason)
