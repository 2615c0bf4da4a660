"""The four benchmark workloads: how each input is built and how the CLI is called.

Every input is a pure function of the benchmark seed, built with the
package's own generators (or, for the sparse shell, from a seeded edge list
handed to ``from_edge_list``). Only ``extract-sparse`` takes its graph from
the seed; the other three graphs are fixed and the seed reaches the program
as the CLI ``--seed``, which picks the trial streams. See ``SHRINK_GRAPH_SEED``
for why the shrink graph is pinned.

Instances are sized so that one CLI call takes about a second, giving some
twenty calls per 25 s run. On a 2-vCPU Xeon VM (Python 3.11.7) the time
of identical calls varies by about 30% from one call to the next; calls of
3-5 s, as in the first draft (K_{400,400}, a 200k-vertex shell, 10k trials),
left run-to-run spreads of wall time of 0.12-0.33 with five or so calls per
run.

Every measured run uses ``--workers 1``. ``mc-potential`` was tried at
``--workers 2``: over five runs its median wall time had an IQR of 0.35 of
the median, against 0.12 at ``--workers 1``, because the pool competes with
everything else for both cores. The ``--workers 2`` figures are kept in the
traced run (``parallel.pool_w2_s``, ``parallel.speedup``).

Builders receive the ``densebip`` module, so importing this file does not
import the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

# Cost of the minimality scan on random_bipartite(150, 150, 0.3, s) with
# d = 24 depends strongly on s: over generator seeds 0..19 the number of
# cascade steps ranged from 3.1k to 12.8k (IQR/median about 0.5), far wider
# than any usable bound. The graph is therefore fixed; generator seed 13 sits
# at the median of that range (5.7k steps, 300 -> 171 vertices).
SHRINK_GRAPH_SEED = 13

SPARSE_N = 80_000
SPARSE_EDGES = 160_000
SPARSE_BLOCK = 40      # K_{40,40} planted, and the d of the sparse workload
SPARSE_MAX_DEGREE = SPARSE_BLOCK - 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                           # "extract" or "potential"
    d: int
    build: Callable[[Any, int], Any]    # (densebip module, seed) -> Graph
    trials: int | None = None           # stats potential only

    def argv(self, path: str, seed: int, workers: int = 1) -> list[str]:
        if self.kind == "extract":
            head = ["extract", "--in", path]
            tail = ["--json"]
        else:
            head = ["stats", "potential", "--in", path]
            tail = ["--trials", str(self.trials)]
        return head + ["--d", str(self.d), "--guarantee", "--seed", str(seed),
                       "--workers", str(workers)] + tail


def sparse_shell(densebip, seed: int):
    """Bipartite shell on SPARSE_N vertices, average degree 4, max degree below d,
    plus a K_{40,40} on seeded random ids; the d-core is exactly the block."""
    rng = densebip.stream(seed, 1)
    ids = list(range(SPARSE_N))
    rng.shuffle(ids)
    block_left = ids[:SPARSE_BLOCK]
    block_right = ids[SPARSE_BLOCK:2 * SPARSE_BLOCK]
    shell = ids[2 * SPARSE_BLOCK:]
    half = len(shell) // 2
    side_a, side_b = shell[:half], shell[half:]
    edges = {(u, v) if u < v else (v, u) for u in block_left for v in block_right}
    degree = [0] * SPARSE_N
    randrange = rng.randrange
    na, nb = len(side_a), len(side_b)
    while len(edges) < SPARSE_EDGES:
        u = side_a[randrange(na)]
        v = side_b[randrange(nb)]
        if degree[u] >= SPARSE_MAX_DEGREE or degree[v] >= SPARSE_MAX_DEGREE:
            continue
        key = (u, v) if u < v else (v, u)
        if key in edges:
            continue
        edges.add(key)
        degree[u] += 1
        degree[v] += 1
    return densebip.from_edge_list(SPARSE_N, sorted(edges))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("extract-dense", "extract", 250,
                 lambda db, seed: db.complete_bipartite(250, 250)),
        Workload("extract-shrink", "extract", 24,
                 lambda db, seed: db.random_bipartite(150, 150, 0.3, SHRINK_GRAPH_SEED)),
        Workload("extract-sparse", "extract", SPARSE_BLOCK, sparse_shell),
        Workload("mc-potential", "potential", 120,
                 lambda db, seed: db.c5_blowup(60), trials=5_000),
    )
}
