"""Immutable simple graphs plus the predicates and measurements everything else uses.

Vertices are dense 0-based integers and adjacency lists are kept sorted, so
construction is canonical: the same edge set always yields the same object.
All operations are pure; instances are safe to share across threads and
processes without synchronization.

`Graph.is_triangle_free` first tries a 2-colouring, which clears any
bipartite graph in O(n + m). A graph that is not bipartite is searched edge
by edge for a common higher neighbour: on per-vertex bitmasks of the higher
neighbours when n masks take no more memory than the adjacency tuples
(`_masks_fit`, the rule `reducer.build_ordered` also picks its ordering by),
and on per-vertex sets otherwise, where n masks would take about n^2/8 bytes.
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
from functools import cached_property, reduce
from itertools import islice, repeat
from operator import add, floordiv, lt, mod, mul, or_
from pathlib import Path

from . import lanes

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


def _masks_fit(g: Graph) -> bool:
    """Whether n per-vertex bitmasks take no more memory than the adjacency tuples.

    A mask over n ids spans ceil(n/64) 64-bit words and the tuples hold one
    8-byte slot per neighbour, 2m in all. So the masks fit when
    ceil(n/64) * n <= 2m: a mask's word count is at most the average degree.
    """
    return -(-g.n // 64) * g.n <= 2 * g.m


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
        v in above[u] and w in above[u] & above[v]. When n bitmasks take no
        more memory than the adjacency tuples (`_masks_fit`), above[u] is a
        bitmask and each vertex ANDs its mask with the OR of its upper
        neighbours' masks, in C. Otherwise, as on a large sparse graph,
        above[u] is a set and each edge costs one set intersection. Both stop
        at the first triangle they find.
        """
        if self._is_bipartite():
            return True
        ups = [nbrs[bisect_right(nbrs, u):] for u, nbrs in enumerate(self.adjacency)]
        if _masks_fit(self):
            pow2 = [1 << v for v in range(self.n)]
            masks = [sum(map(pow2.__getitem__, up)) for up in ups]
            return not any(
                mine & reduce(or_, map(masks.__getitem__, up), 0) for mine, up in zip(masks, ups)
            )
        above = list(map(set, ups))
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


def parse_edge_list(text: str) -> Graph:
    """Parse the on-disk format: a header line "n m", then m lines "u v".

    Lines end at '\n', optionally preceded by one '\r'; tokens are separated
    by ASCII spaces and tabs, and any other character between or around them
    makes the line malformed. Blank lines and lines starting with '#' are
    ignored. Numbers are ASCII decimal, optionally with a leading '-';
    vertex ids are 0-based. Each edge is listed once, in either
    orientation; a repeated edge is an error, not collapsed. The first
    malformed, out-of-range or self-loop edge line is the one reported; a
    repeat is reported only when every line passes those checks. `text` goes
    through the reader of `load_graph` as UTF-8, and its hash is dropped.
    """
    n, us, vs, _ = _read_edges(io.BytesIO(text.encode("utf-8", "surrogatepass")))
    return _read_graph(n, us, vs)


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
# bytes of edge lines read and parsed at a time: a piece ends at the first
# newline this far past its start, so only one piece's bytes and int objects
# are alive at a time
_CHUNK = 1 << 14
# bytes of the longest canonical edge line, "9999998 9999999\n" under MAX_VERTICES
_LINE = 2 * len(str(MAX_VERTICES - 1)) + 2


def _tokens(lines: bytes) -> list[int]:
    """The numbers of `lines`, "u v" lines joined by newlines, parsed in C.

    Raises ValueError for an empty token, a leading zero or a token past the
    interpreter's digit limit.
    """
    return json.loads(b"[" + lines.translate(_COMMAS) + b"]")


def _layout_edges(lines: bytes, n: int) -> tuple[array, array, lanes.Pairs] | None:
    """The edges of `lines`, canonical-layout "u v" lines, as int32 arrays us,
    vs and their `lanes.Pairs`; None for a token off the grammar or of 2**31
    or more, an id >= n or a self-loop. Only the JSON parse and the int32
    conversion make an int per token: the tests run on 32-bit lanes."""
    try:
        nums = array("i", _tokens(lines[:-1]))
    except (ValueError, OverflowError):  # a token off the grammar or >= 2**31
        return None
    us, vs = nums[::2], nums[1::2]
    pairs = lanes.Pairs(us, vs)
    return (us, vs, pairs) if pairs.below(n) and (pairs.forward or pairs.differ()) else None


def _text(piece: bytes, start: int) -> str:
    """`piece`, the bytes at offset `start` of a file, decoded as UTF-8."""
    try:
        return piece.decode()
    except UnicodeDecodeError as exc:
        # named by their offset in the file, as a decode of the whole file names them
        at, to = start + exc.start, start + exc.end - 1
        where = (f"byte 0x{piece[exc.start]:02x} in position {at}" if at == to
                 else f"bytes in position {at}-{to}")
        raise GraphError("edge-list input is not UTF-8: 'utf-8' codec can't decode "
                         f"{where}: {exc.reason}") from None


def _pieces(f: io.BufferedIOBase) -> Iterator[bytes]:
    """The pieces of `_read_edges`, none of them kept here once yielded."""
    yield f.readline()
    yield from iter(lambda: f.read(_CHUNK) + f.readline(), b"")


def _read_edges(f: io.BufferedIOBase) -> tuple[int, array, array, str | None]:
    """(n, us, vs, sha256): the binary file `f`, read once with the grammar and
    messages of `parse_edge_list`, as int32 arrays of its edges (us[i], vs[i]),
    u < v in increasing order, and the sha256 hex digest of its canonical text
    when the file gave the edges so, else None (see `_edges_sha256`).

    Pieces end at a newline: the first line, then `_CHUNK` bytes and the rest
    of their last line. Layout alone picks the parser: "u v" lines, once
    "\r\n" is "\n", are parsed in C in any order; other pieces, and those
    `_layout_edges` turns away, are decoded and read line by line. Either way
    the piece's `lanes.Pairs` and one tuple comparison with the edge before
    it tell whether the edges are still in order. While they are, each piece
    is hashed as read, else `_sort_edges` runs at the end. The first fault
    waits for the line count, reported before it, and only bytes that are
    not UTF-8 precede a header fault."""
    n = m = fault = None
    lines = end = 0
    us, vs = array("i"), array("i")
    # the last edge so far, None once the edges are out of order
    last, digest = (-1, -1), hashlib.sha256()
    for piece in _pieces(f):
        start, end = end, end + len(piece)
        body = piece.replace(b"\r\n", b"\n") if b"\r" in piece else piece
        k = body.count(b"\n")
        pu, pv, pairs = array("i"), array("i"), None
        # digits, one space, digits, newline on every line, no longer on average
        # than a canonical line (so a long line is not copied); JSON judges the tokens
        if (m is not None and len(body) <= _LINE * k and body.endswith(b"\n")
                and body.translate(None, b"0123456789") == b" \n" * k
                and (fault or (edges := _layout_edges(body, n)))):
            lines += k  # after a fault, only the line count can matter
            if not fault:
                pu, pv, pairs = edges
        else:
            body = b""  # a long line is then held as its bytes and text
            text = _text(piece, start)
            del piece  # then as its text and one line
            for raw in text.split("\n"):
                # str.splitlines and str.strip would also take "\x1c", "\x85" or "\u2028"
                if raw.lstrip(" \t").startswith("#"):
                    continue
                line = raw.removesuffix("\r").strip(" \t")
                if not line:
                    continue
                if m is not None:
                    lines += 1
                    if fault:
                        continue
                    try:
                        u, v = _pair(line, "edge", "u v")
                        if not (0 <= u < n and 0 <= v < n):
                            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
                        if u == v:
                            raise GraphError(f"self-loop at vertex {u}")
                    except GraphError as exc:
                        fault = exc
                        continue
                    pu.append(u)
                    pv.append(v)
                elif not fault:  # the header line
                    try:
                        head = _pair(line, "header", "n m")
                        if head[1] < 0:
                            raise GraphError("edge count must be nonnegative")
                        n, m = head
                        digest.update(b"%d %d\n" % head)
                        _check_vertex_count(n)
                    except GraphError as exc:
                        fault = exc
        us += pu
        vs += pv
        if pu and last is not None:
            pairs = pairs or lanes.Pairs(pu, pv)
            in_order = pairs.forward and (pu[0], pv[0]) > last and pairs.rising()
            last = (pu[-1], pv[-1]) if in_order else None
        if last is not None:
            digest.update(body or b"".join(map(b"%d %d\n".__mod__, zip(pu, pv))))
    if m is None:
        raise fault or GraphError("empty edge-list input")
    if lines != m:
        raise GraphError(f"header declares {m} edges, found {lines} edge lines")
    if fault:
        raise fault
    if last is None:
        return (n, *_sort_edges(n, us, vs), None)
    return n, us, vs, digest.hexdigest()


def _sort_edges(n: int, us: array, vs: array) -> tuple[array, array]:
    """The edges (us[i], vs[i]), read out of order, as `_read_edges` returns
    them, u < v in increasing order; here a repeat shows."""
    keys = sorted(map(add, map(mul, map(min, us, vs), repeat(n)), map(max, us, vs)))
    if not all(map(lt, keys, islice(keys, 1, None))):
        seen: set[tuple[int, int]] = set()
        for u, v in zip(us, vs):  # name the first repeat in file order
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(key)
    return array("i", map(floordiv, keys, repeat(n))), array("i", map(mod, keys, repeat(n)))


def _edges_sha256(n: int, us: array, vs: array) -> str:
    """The sha256 hex digest of the canonical text of the sorted edges
    (us[i], vs[i]) on n vertices, formatted about a piece's lines at a time."""
    digest, edges = hashlib.sha256(b"%d %d\n" % (n, len(us))), zip(us, vs)
    while text := b"".join(map(b"%d %d\n".__mod__, islice(edges, _CHUNK // _LINE))):
        digest.update(text)
    return digest.hexdigest()


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


def _read_graph(n: int, us: array, vs: array) -> Graph:
    """`_sorted_edges_graph` on the edge arrays of `_read_edges`.

    Under a header far above its edge count, n > 2m, only the edge ends get
    a list and an int object and every other vertex shares the empty tuple,
    so each vertex costs one 8-byte slot, two while the tuple is copied.
    """
    if n <= 2 * len(us):
        return _sorted_edges_graph(n, us, vs)
    ids = {v: v for v in {*us, *vs}}
    lists: dict[int, list[int]] = {v: [] for v in ids}
    for u, v in zip(us, vs):
        lists[u].append(ids[v])
        lists[v].append(ids[u])
    adjacency: list[tuple[int, ...]] = [()] * n
    for v, nbrs in lists.items():
        adjacency[v] = tuple(nbrs)
    return Graph(tuple(adjacency))


def _drop_low(us: Sequence[int], vs: Sequence[int], d: int, deg: dict[int, int] | list[int],
              high: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """One filter round of `load_core` on the edges (us[i], vs[i]).

    The edges come with u < v in strictly increasing (u, v) order, and each
    end lies in `high`, an ascending sequence of vertices. Returns the edges
    whose two ends have degree at least d among them, as lists us, vs in the
    same order, and the ascending vertices of `high` with that degree, which
    hold their ends. `deg`, indexed by vertex, is zero at every vertex of
    `high` on entry and on return; only those entries are written.
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
    i, in ascending order, and `sha256` is the hash of the input's canonical
    text. `_read_edges` reads the file once, into sorted edge arrays, and
    hashes it as read when its edges are in order; after a sort the hash is
    formatted from the arrays here. Then this function filters and builds. When
    2m < d*n some vertex lies outside the d-core, and the arrays are
    filtered: each round drops every edge with an endpoint of degree below
    d, and the first round that keeps more than half of its edges is the
    last, so all rounds read at most 2m edges. A dropped edge has an end
    outside the d-core that loses every edge in the same round, so the
    survivors induce exactly the kept edges; only their ends get adjacency
    lists. Other inputs are built whole, with ids = range(n), by
    `_read_graph`. When n <= 2m, degrees are counted in one list of n ints
    and the first round reads all n vertices; under a header far above its
    edge count, n > 2m, they are counted in a dict over the edge ends, which
    are then the only candidates. A later round reads the vertices the round
    before kept.

    The filter peaks at the int32 arrays, the degree list and one piece:
    13.1 bytes per edge under tracemalloc on a planted shell of 100k edges,
    13.0 in its CRLF form, and 58.7 when its edges need the sort.
    """
    with Path(path).open("rb") as f:
        n, us, vs, digest = _read_edges(f)
    digest = digest or _edges_sha256(n, us, vs)
    m = len(us)
    if 2 * m >= d * n:
        return _read_graph(n, us, vs), range(n), digest
    if n <= 2 * m:
        high: Sequence[int] = range(n)
        deg: dict[int, int] | list[int] = [0] * n
    else:  # under a header far above its edge count, the edge ends are the candidates
        high = sorted({*us, *vs})
        deg = dict.fromkeys(high, 0)
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
