"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance and runtime budget is pinned here; nothing is
deferred to later calibration.
"""

import json
import time
from fractions import Fraction

from densebip.cli import main
from densebip.extractor import (
    derive_params,
    extract,
    greedy_independent_set,
    survival_probability,
)
from densebip.generators import binomial_triangle_scrubbed, complete_bipartite
from densebip.graph import bipartite_pair_report
from densebip.oracle import max_induced_bipartite_average_degree
from densebip.reducer import (
    d_core,
    degeneracy_ordering,
    minimal_min_degree_subgraph,
    reduce_and_order,
)
from densebip.stats import (
    check_q_bound,
    log_spaced_ints,
    mc_conditional,
    mc_edge_identity,
    mc_per_vertex_survival,
    mc_potential,
)
from densebip.extractor import ExtractionError

from helpers import exhaustive_degeneracy, random_graph


def report(num: int, description: str, ok: bool, elapsed: float) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} ({elapsed:5.2f}s) {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_q_bound_sweep():
    start = time.perf_counter()
    ds = log_spaced_ints(16, 10**6, 50)
    results = [check_q_bound(d) for d in ds]
    elapsed = time.perf_counter() - start
    ok = len(ds) >= 50 and all(r.ratio >= 0.35 for r in results) and elapsed < 5.0
    report(1, f"q/p >= 0.35 on {len(ds)} log-spaced d in [16, 1e6]", ok, elapsed)


def test_criterion_02_end_to_end_guarantee_run():
    start = time.perf_counter()
    g = complete_bipartite(200, 200)
    params = derive_params(200, True)
    og, _ = reduce_and_order(g, 200)
    result = extract(og, params, seed=7, max_retries=1000)
    rep = result.report
    survivors = set(rep.I)
    ok = (
        params.ell == 3
        and params.threshold == 1
        and rep.valid
        and survivors.isdisjoint(rep.J)
        and og.graph.is_independent(rep.I)
        and og.graph.is_independent(rep.J)
        and all(survivors & set(og.graph.adjacency[v]) for v in rep.J)
        and len(rep.I) <= 230 * len(rep.J)
        and rep.average_degree >= Fraction(3, 2310)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(2, "K_{200,200} guarantee extraction (seed 7): valid pair above 3/2310", ok, elapsed)


def test_criterion_03_oracle_dominance():
    start = time.perf_counter()
    params = derive_params(2, False)
    collected = 0
    successes = 0
    dominated = 0
    seed = 0
    while collected < 50:
        g = binomial_triangle_scrubbed(8 + seed % 7, 0.45, seed)
        seed += 1
        if not d_core(g, 2):
            continue
        collected += 1
        try:
            og, kept = reduce_and_order(g, 2)
            result = extract(og, params, seed=11, max_retries=300)
        except ExtractionError:
            continue
        successes += 1
        rep = bipartite_pair_report(
            g,
            [kept[v] for v in result.report.I],
            [kept[v] for v in result.report.J],
        )
        assert rep.valid
        if rep.average_degree <= max_induced_bipartite_average_degree(g).best_value:
            dominated += 1
    elapsed = time.perf_counter() - start
    ok = successes > 0 and dominated == successes and elapsed < 60.0
    report(
        3,
        f"oracle dominates extraction on {dominated}/{successes} successful runs "
        f"({collected} graphs)",
        ok,
        elapsed,
    )


def test_criterion_04_conditional_probability():
    start = time.perf_counter()
    og, _ = reduce_and_order(complete_bipartite(64, 64), 64)
    est = mc_conditional(og, derive_params(64, True), 0, 10_000, seed=1)
    elapsed = time.perf_counter() - start
    ok = est.mean > 0.2 and est.ci_low > 0.2 and elapsed < 30.0
    report(4, f"P(supported | layer) = {est.mean:.4f} with CI low {est.ci_low:.4f} > 0.2", ok, elapsed)


def test_criterion_05_edge_identity():
    start = time.perf_counter()
    og, _ = reduce_and_order(complete_bipartite(32, 32), 32)
    est = mc_edge_identity(og, derive_params(32, True), 10_000, seed=1)
    elapsed = time.perf_counter() - start
    ok = est.ci_low <= est.target <= est.ci_high and elapsed < 30.0
    report(
        5,
        f"mean layer edges {est.mean:.2f}, CI contains q^2*m = {est.target:.2f}",
        ok,
        elapsed,
    )


def test_criterion_06_potential_positivity():
    start = time.perf_counter()
    og, _ = reduce_and_order(complete_bipartite(200, 200), 200)
    est, rate = mc_potential(og, derive_params(200, True), 1_000, seed=1)
    elapsed = time.perf_counter() - start
    ok = est.mean > 0 and est.ci_low > 0 and rate > 0
    report(
        6,
        f"mean potential {est.mean:.2f} (CI low {est.ci_low:.2f} > 0), success rate {rate:.3f}",
        ok,
        elapsed,
    )


def test_criterion_07_degeneracy_correctness():
    start = time.perf_counter()
    matches = 0
    corpus = []
    for seed in range(200):
        corpus.append(random_graph(1 + seed % 8, 0.15 + 0.1 * (seed % 7), seed))
    for g in corpus:
        _, degen = degeneracy_ordering(g)
        if degen == exhaustive_degeneracy(g):
            matches += 1
    minimal_ok = True
    for idx, g in enumerate(corpus):
        d = 1 + idx % 3
        if not d_core(g, d):
            continue
        sub, _ = minimal_min_degree_subgraph(g, d)
        _, degen = degeneracy_ordering(sub)
        if sub.min_degree() < d or degen > d:
            minimal_ok = False
    elapsed = time.perf_counter() - start
    ok = matches == len(corpus) and minimal_ok
    report(
        7,
        f"degeneracy matches the exhaustive oracle on {matches}/200 graphs; "
        "minimal subgraphs meet min degree and degeneracy bounds",
        ok,
        elapsed,
    )


def test_criterion_08_turan_greedy_bound():
    start = time.perf_counter()
    holds = 0
    total = 0
    for seed in range(500):
        n = 1 + (seed * 7919) % 50
        g = random_graph(n, 0.1 + 0.08 * (seed % 10), seed)
        total += 1
        picked = greedy_independent_set(g)
        if g.is_independent(picked) and len(picked) >= Fraction(g.n) / (g.average_degree() + 1):
            holds += 1
    elapsed = time.perf_counter() - start
    ok = holds == total == 500
    report(8, f"greedy meets the n/(avg+1) floor on {holds}/500 graphs (exact rationals)", ok, elapsed)


def test_criterion_09_worker_determinism(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "k200.el"
    assert main(["gen", "complete-bipartite", "200", "200", "--out", str(path)]) == 0
    outputs = []
    for workers in ("1", "4", "8"):
        code = main(
            [
                "extract", "--in", str(path), "--d", "200", "--guarantee",
                "--seed", "7", "--workers", workers, "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out.encode())
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1] == outputs[2] and json.loads(outputs[0])["valid"] is True
    with capsys.disabled():
        report(9, "byte-identical extract JSON for worker counts 1, 4, 8", ok, elapsed)


def test_criterion_10_survival_bound():
    start = time.perf_counter()
    ds = log_spaced_ints(12, 10**6, 60)
    closed_ok = all(survival_probability(d) >= 0.35 for d in ds)
    og, _ = reduce_and_order(complete_bipartite(32, 32), 32)
    x = og.order[-1]
    assert len(og.left_neighbors[x]) == 32
    est = mc_per_vertex_survival(og, derive_params(32, True), x, 10_000, seed=1)
    elapsed = time.perf_counter() - start
    ok = closed_ok and est.ci_low <= est.target <= est.ci_high
    report(
        10,
        f"(1-1/d)^d >= 0.35 on {len(ds)} sampled d; CI contains closed form "
        f"{est.target:.4f} at d=32",
        ok,
        elapsed,
    )
