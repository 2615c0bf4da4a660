"""Shared corpus builders and brute-force oracles for the test suite."""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, compress, permutations
from operator import and_
from pathlib import Path
from typing import Iterable

from hypothesis import strategies as st

from densebip.cli import _params_payload, _rational
from densebip.extractor import (
    SIZE_RATIO_BOUND,
    ExtractionError,
    Params,
    SampleOutcome,
    derive_params,
    extract,
)
from densebip.generators import _check_probability
from densebip.graph import (
    Graph,
    GraphError,
    bipartite_pair_report,
    canonical_sha256,
    format_edge_list,
    from_edge_list,
    load_graph,
    parse_edge_list,
)
from densebip.reducer import EmptyCoreError, OrderedGraph, d_core, reduce_and_order
from densebip.rng import stream
from densebip.stats import mc_potential


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


def pairset_from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Reference for `from_edge_list`: a set of normalised pairs first, then
    the adjacency lists filled from it."""
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
    return Graph(adjacency)


def reference_induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Reference for `Graph.induced_subgraph`: always relabel and rebuild."""
    vs = sorted(set(vertices))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        raise GraphError(f"vertex id out of range 0..{g.n - 1}")
    old_to_new = {v: i for i, v in enumerate(vs)}
    adjacency = tuple(
        tuple(old_to_new[w] for w in g.adjacency[v] if w in old_to_new) for v in vs
    )
    return Graph(adjacency), old_to_new


def reference_load_graph(path: str | Path) -> Graph:
    """Reference for `load_graph`: every file through the line parser."""
    return parse_edge_list(Path(path).read_text())


def reference_filter_round(us, vs, d: int) -> tuple[list[int], list[int]]:
    """One d-core filter round on the edges (us[i], vs[i]): the edges whose
    two ends both have degree at least d among them, in the given order.
    Counted with a `Counter` and kept by a per-edge mask, sharing no code
    with `graph._drop_low`."""
    degree = Counter(us)
    degree.update(vs)
    high = {v for v, k in degree.items() if k >= d}.__contains__
    keep = bytes(map(and_, map(high, us), map(high, vs)))
    return list(compress(us, keep)), list(compress(vs, keep))


def planted_shell(n: int, block: int, shell_edges: int, seed: int) -> Graph:
    """A K_{block,block} on seeded random ids inside a bipartite shell of
    `shell_edges` edges whose degrees stay below `block`: the block-core is
    exactly the block, and the average degree is far below `block`."""
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    left, right, shell = ids[:block], ids[block:2 * block], ids[2 * block:]
    side_a, side_b = shell[:len(shell) // 2], shell[len(shell) // 2:]
    edges = {(min(u, v), max(u, v)) for u in left for v in right}
    degree = [0] * n
    while len(edges) < block * block + shell_edges:
        u, v = rng.choice(side_a), rng.choice(side_b)
        key = (min(u, v), max(u, v))
        if degree[u] < block - 1 and degree[v] < block - 1 and key not in edges:
            edges.add(key)
            degree[u] += 1
            degree[v] += 1
    return from_edge_list(n, sorted(edges))


def _reference_reduced_input(path, d: int, guarantee: bool):
    g = load_graph(path)
    params = derive_params(d, guarantee)
    og, mapping = reduce_and_order(g, d)
    return g, params, og, {new: old for old, new in mapping.items()}


def _stdout(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reference_extract_stdout(path, d: int, seed: int, guarantee: bool = True) -> tuple[int, str]:
    """Reference for `extract --json`: (exit code, stdout) with the whole input
    built by `load_graph`, reduced, and the pair reported on input ids."""
    g, params, og, inverse = _reference_reduced_input(path, d, guarantee)
    try:
        result = extract(og, params, seed)
    except ExtractionError as exc:
        return 1, _stdout({
            "error": str(exc),
            "diagnostics": exc.diagnostics,
            "input_sha256": canonical_sha256(g),
            "seed": seed,
            "params": _params_payload(params),
        })
    side_i = sorted(inverse[v] for v in result.I)
    side_j = sorted(inverse[v] for v in result.J)
    report = bipartite_pair_report(g, side_i, side_j)
    payload = {
        "input_sha256": canonical_sha256(g),
        "seed": seed,
        "params": _params_payload(params),
        "reduced_n": og.graph.n,
        "reduced_m": og.graph.m,
        "trials_used": result.trials_used,
        "I": side_i,
        "J": side_j,
        "I_size": len(side_i),
        "J_size": len(side_j),
        "cross_edges": report.cross_edges,
        "average_degree": _rational(report.average_degree),
        "average_degree_float": float(report.average_degree),
        "valid": report.valid,
    }
    if params.guarantee:
        payload["guarantee_checks"] = {
            "average_degree_floor": _rational(params.degree_floor),
            "meets_floor": result.meets_floor,
            "size_ratio_bound": SIZE_RATIO_BOUND,
            "size_ratio_ok": True,
        }
    failed = not report.valid or result.meets_floor is False
    return (1 if failed else 0), _stdout(payload)


def reference_potential_stdout(
    path, d: int, seed: int, trials: int, guarantee: bool = True
) -> tuple[int, str]:
    """Reference for `stats potential`: (exit code, stdout) with the whole
    input built by `load_graph` and reduced."""
    g, params, og, _ = _reference_reduced_input(path, d, guarantee)
    est, rate = mc_potential(og, params, trials, seed)
    payload = {
        "check": "potential",
        "input_sha256": canonical_sha256(g),
        "seed": seed,
        "trials": trials,
        "params": _params_payload(params),
        "estimate": est._asdict(),
        "success_rate": rate,
        "passed": est.passed,
    }
    return (0 if est.passed else 1), _stdout(payload)


def reference_canonical_sha256(g: Graph) -> str:
    """Reference for `canonical_sha256`: the canonical text rebuilt from the
    sorted set of edge pairs, without `format_edge_list`, `n` or `m`."""
    pairs = sorted({(min(u, v), max(u, v)) for u, nbrs in enumerate(g.adjacency) for v in nbrs})
    text = f"{len(g.adjacency)} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _first_triangle(nbrs: list[set[int]], n: int) -> tuple[int, int, int] | None:
    for u in range(n):
        for v in sorted(nbrs[u]):
            if v <= u:
                continue
            above = [w for w in nbrs[u] & nbrs[v] if w > v]
            if above:
                return u, v, min(above)
    return None


def restart_triangle_scrub(n: int, rho: float, seed: int) -> Graph:
    """Reference for `binomial_triangle_scrubbed`: after every deletion the
    triangle search starts again from vertex 0."""
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
    while True:
        tri = _first_triangle(nbrs, n)
        if tri is None:
            break
        u, v, _ = tri
        nbrs[u].discard(v)
        nbrs[v].discard(u)
    edges = [(u, v) for u in range(n) for v in nbrs[u] if u < v]
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


def k40_with_triangles() -> Graph:
    """K_{40,40} plus the edges (2i, 2i+1), i < 20, inside the side 0..39: its
    minimal 20-core keeps 39 vertices and some of those triangles."""
    edges = [(a, 40 + b) for a in range(40) for b in range(40)]
    return from_edge_list(80, edges + [(2 * i, 2 * i + 1) for i in range(20)])


def naive_triangle_free(g: Graph) -> bool:
    """O(n^3) triple scan."""
    sets = [set(nbrs) for nbrs in g.adjacency]
    for a, b, c in combinations(range(g.n), 3):
        if b in sets[a] and c in sets[a] and c in sets[b]:
            return False
    return True


def has_edge(g: Graph, u: int, v: int) -> bool:
    """Whether u and v are adjacent in `g`."""
    return v in g.adjacency[u]


def edges_within(g: Graph, vertices: Iterable[int]) -> int:
    """Number of edges of `g` with both endpoints in `vertices`, repeats ignored."""
    keep = set(vertices)
    return sum(len(keep.intersection(g.adjacency[v])) for v in keep) // 2


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


def tuple_key_degeneracy_ordering(g: Graph) -> tuple[tuple[int, ...], int]:
    """Reference for `degeneracy_ordering`: the same heap keyed by (deg, v) tuples."""
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


def restart_minimal_subgraph(g: Graph, d: int) -> tuple[Graph, dict[int, int]]:
    """Reference for `minimal_min_degree_subgraph`: the restart-after-commit scan.

    Every tentative deletion recomputes the core of the remainder from scratch,
    and every kept deletion restarts the scan from its first vertex.
    """
    alive = _peeled(g, [True] * g.n, d)
    if not any(alive):
        raise EmptyCoreError(f"the {d}-core of the input is empty")
    progressed = True
    while progressed:
        progressed = False
        for v in range(g.n):
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


def full_peel_minimal_subgraph(g: Graph, d: int) -> tuple[Graph, dict[int, int]]:
    """Reference for `minimal_min_degree_subgraph`: the single-pass scan in which
    every tentative deletion peels to the end before it is kept or undone."""
    core = d_core(g, d)
    if not core:
        raise EmptyCoreError(f"the {d}-core of the input is empty")
    n = g.n
    alive = [False] * n
    for v in core:
        alive[v] = True
    deg = [sum(1 for w in g.adjacency[v] if alive[w]) for v in range(n)]
    live = len(core)
    for v in core:
        if not alive[v]:
            continue
        alive[v] = False
        killed, decremented, stack = [v], [], [v]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if alive[w]:
                    deg[w] -= 1
                    decremented.append(w)
                    if deg[w] < d:
                        alive[w] = False
                        stack.append(w)
                        killed.append(w)
        if len(killed) < live:
            live -= len(killed)
            continue
        for w in decremented:
            deg[w] += 1
        for u in killed:
            alive[u] = True
        if all(deg[u] == d for u in killed):
            break
    return g.induced_subgraph([v for v in core if alive[v]])


def reference_potential_value(
    n_supported: int, layer_edges: int, n_sampled: int, params: Params
) -> Fraction:
    """Reference for `potential_value`: the three-term Fraction chain."""
    q, d = params.q, params.d
    return (
        Fraction(n_supported)
        - Fraction(layer_edges) / (10 * q * d)
        - q * n_sampled * d / 10
    )


def reference_left_neighbors(g: Graph, order) -> list[tuple[int, ...]]:
    """Reference for `OrderedGraph.left_neighbors`: each vertex's neighbors at
    an earlier position of `order`, looked up in a position dict."""
    pos = {v: i for i, v in enumerate(order)}
    return [tuple(w for w in g.adjacency[v] if pos[w] < pos[v]) for v in range(g.n)]


def reference_holder_masks(g: Graph, d: int) -> list[int]:
    """Reference for `OrderedGraph.holder_masks`: entry x has bit y set for
    every y with x among the d smallest of y's neighbors, found by brute force."""
    return [
        sum(1 << y for y in range(g.n) if x in sorted(g.adjacency[y])[:d]) for x in range(g.n)
    ]


def reference_hit_layer(og: OrderedGraph, sampled, ell: int) -> tuple[list[int], int]:
    """Reference for `hit_layer`: count each vertex's sampled candidates in a
    list, read the layer off a scan of every vertex, and count its edges over
    the edge list."""
    n = og.graph.n
    membership = bytearray(n)
    for x in sampled:
        membership[x] = 1
    hits = [sum(membership[x] for x in cand) for cand in og.candidate_sets]
    layer = [y for y in range(n) if hits[y] == ell]
    in_layer = bytearray(n)
    for y in layer:
        in_layer[y] = 1
    layer_edges = sum(1 for u, v in og.graph.edges() if in_layer[u] and in_layer[v])
    return layer, layer_edges


def reference_supported_members(og: OrderedGraph, survivors, layer, threshold: int) -> list[int]:
    """Reference for `supported_members`: a list of support counts filled from
    the survivors' adjacency lists."""
    support = [0] * og.graph.n
    for s in survivors:
        for w in og.graph.adjacency[s]:
            support[w] += 1
    return [y for y in layer if support[y] >= threshold]


def reference_left_minimal_members(og: OrderedGraph, sampled) -> list[int]:
    """Reference for `left_minimal_members`: mark the sample in a bytearray and
    scan each member's left-neighbor list."""
    membership = bytearray(og.graph.n)
    for v in sampled:
        membership[v] = 1
    left = og.left_neighbors
    survivors = []
    for x in sampled:
        for w in left[x]:
            if membership[w]:
                break
        else:
            survivors.append(x)
    return survivors


def reference_sample_trial(og: OrderedGraph, params: Params, rng) -> SampleOutcome:
    """Reference for `sample_trial`: one randrange(d) per vertex, then full
    hit, layer-edge and support passes over every vertex."""
    if og.d != params.d:
        raise ValueError(f"ordered graph built for d={og.d}, params for d={params.d}")
    sampled = [v for v in range(og.graph.n) if rng.randrange(params.d) == 0]
    survivors = reference_left_minimal_members(og, sampled)
    layer, layer_edges = reference_hit_layer(og, sampled, params.ell)
    supported = reference_supported_members(og, survivors, layer, params.threshold)
    phi = reference_potential_value(len(supported), layer_edges, len(sampled), params)
    return SampleOutcome(
        tuple(sampled), tuple(survivors), tuple(layer), tuple(supported), layer_edges, phi
    )
