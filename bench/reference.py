"""A fixed job of the program's kind, run as a child to gauge machine speed.

    python3 -I bench/reference.py

Set and dict work on a small seeded graph, repeated; it reads no input and
imports nothing of this tree. run.py spawns it before every measured call and
divides the calls' times by its times (see run.py). It runs in a fresh process
each time, as the calls do, so that the memory layout of one process does not
bias the gauge for a whole run.
"""

import random

ROUNDS = 10


def main() -> None:
    for _ in range(ROUNDS):
        rng = random.Random(2006)
        n = 500
        adj = [set() for _ in range(n)]
        for _ in range(12_000):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        degree = {v: len(nbrs) for v, nbrs in enumerate(adj)}
        alive = set(range(n))
        for v in sorted(alive, key=degree.__getitem__)[: n // 2]:
            alive.discard(v)
            for w in adj[v]:
                if w in alive:
                    degree[w] -= 1
        if sum(len(nbrs & alive) for nbrs in adj) != 12564:
            raise SystemExit("reference job gave a wrong result")


if __name__ == "__main__":
    main()
