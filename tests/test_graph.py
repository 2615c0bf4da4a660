import functools
import hashlib
import io
import os
import re
import threading
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations, compress, pairwise
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import densebip.graph
from densebip.graph import (
    MAX_VERTICES,
    GraphError,
    bipartite_pair_report,
    canonical_sha256,
    format_edge_list,
    from_edge_list,
    load_core,
    load_graph,
    parse_edge_list,
    save_graph,
)
from densebip.generators import c5_blowup, complete_bipartite
from densebip.graph import _masks_fit
from densebip.reducer import d_core

from helpers import (
    crlf_form,
    cycle_graph,
    edges_within,
    graphs,
    has_edge,
    is_bipartite,
    naive_triangle_free,
    one_triangle_regular,
    pairset_from_edge_list,
    path_graph,
    petersen_graph,
    planted_shell,
    random_graph,
    reference_canonical_sha256,
    reference_filter_round,
    reference_induced_subgraph,
    reference_load_graph,
    reference_parse_edge_list,
    shuffled_form,
    shuffled_layout_form,
    triangle_count,
)


def _built(build, n, edges):
    try:
        return build(n, iter(edges))
    except GraphError as exc:
        return str(exc)


class TestFromEdgeList:
    def test_duplicates_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 1)])
        assert g.m == 2
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_reversed_duplicate_collapses(self):
        g = from_edge_list(3, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(GraphError):
            from_edge_list(3, [(-1, 2)])

    def test_five_cycle(self):
        g = cycle_graph(5)
        assert g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_m_is_half_adjacency_sum(self):
        g = complete_bipartite(3, 4)
        assert sum(len(a) for a in g.adjacency) == 2 * g.m

    @given(st.data())
    def test_matches_pair_set_reference(self, data):
        n = data.draw(st.integers(2, 9))
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])))
        repeats = data.draw(st.lists(st.sampled_from(pairs))) if pairs else []
        edges = data.draw(st.permutations(pairs + [(v, u) for u, v in repeats] + repeats))
        if data.draw(st.booleans()):
            # one faulty edge somewhere: both builders must name the same one
            bad = data.draw(st.sampled_from([(0, n), (-1, 0), (1, 1)]))
            edges.insert(data.draw(st.integers(0, len(edges))), bad)
        assert _built(from_edge_list, n, edges) == _built(pairset_from_edge_list, n, edges)


class TestMeasurements:
    def test_min_degree(self):
        assert cycle_graph(5).min_degree() == 2
        assert complete_bipartite(1, 5).min_degree() == 1
        assert complete_bipartite(3, 3).min_degree() == 3

    def test_min_degree_empty_graph(self):
        with pytest.raises(GraphError):
            from_edge_list(0, []).min_degree()

    def test_average_degree_exact(self):
        assert cycle_graph(5).average_degree() == Fraction(2)
        assert path_graph(4).average_degree() == Fraction(3, 2)
        assert complete_bipartite(3, 3).average_degree() == Fraction(3)
        assert isinstance(path_graph(4).average_degree(), Fraction)

    def test_average_degree_empty_graph(self):
        with pytest.raises(GraphError):
            from_edge_list(0, []).average_degree()


class TestTriangleFree:
    def test_triangle(self):
        assert not from_edge_list(3, [(0, 1), (1, 2), (0, 2)]).is_triangle_free()

    def test_five_cycle(self):
        assert cycle_graph(5).is_triangle_free()

    def test_petersen(self):
        g = petersen_graph()
        assert naive_triangle_free(g)
        assert g.is_triangle_free()

    def test_agrees_with_naive_scan_on_corpus(self):
        for seed in range(200):
            g = random_graph(2 + seed % 9, 0.15 + 0.1 * (seed % 7), seed)
            assert g.is_triangle_free() == naive_triangle_free(g), seed

    @pytest.mark.parametrize(
        "build,dense",
        [
            *(pytest.param(lambda t=t: c5_blowup(t), True, id=f"c5_blowup({t})")
              for t in range(1, 7)),
            pytest.param(petersen_graph, True, id="petersen"),
            pytest.param(one_triangle_regular, True, id="dense-one-triangle"),
            pytest.param(lambda: from_edge_list(10, [(0, 1), (1, 2), (0, 2)]), False,
                         id="K3+7-isolated"),
            pytest.param(lambda: from_edge_list(14, cycle_graph(7).edges()), True,
                         id="C7+7-isolated"),
            pytest.param(lambda: from_edge_list(15, cycle_graph(7).edges()), False,
                         id="C7+8-isolated"),
        ],
    )
    def test_both_sides_of_the_mask_rule(self, build, dense):
        """Non-bipartite graphs, so the search runs: on bitmasks when n masks
        fit the adjacency's memory, on sets otherwise."""
        g = build()
        assert _masks_fit(g) == dense
        assert not g._is_bipartite()
        # only the bitmask search folds the masks with `reduce`
        with mock.patch.object(densebip.graph, "reduce", side_effect=functools.reduce) as folds:
            assert g.is_triangle_free() == naive_triangle_free(g) == (triangle_count(g) == 0)
        assert folds.called == dense

    def test_one_triangle_regular(self):
        g = one_triangle_regular()
        assert triangle_count(g) == 1
        assert {len(nbrs) for nbrs in g.adjacency} == {16}

    @given(st.data())
    def test_agrees_with_naive_scan(self, data):
        # half the draws are bipartite (edges only across a drawn split), so
        # both the 2-colouring and the per-edge fallback decide some of them
        n = data.draw(st.integers(0, 10))
        side = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        across = data.draw(st.booleans())
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if not across or side[u] != side[v]
        ]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = from_edge_list(n, [e for e, k in zip(pairs, keep) if k])
        assert g.is_triangle_free() == naive_triangle_free(g)
        assert g._is_bipartite() == is_bipartite(g)


class TestInducedSubgraph:
    def test_four_consecutive_of_c5_is_path(self):
        sub, kept = cycle_graph(5).induced_subgraph([0, 1, 2, 3])
        assert sub.n == 4 and sub.m == 3
        assert kept == (0, 1, 2, 3)
        assert sorted(sub.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_empty_selection(self):
        sub, kept = cycle_graph(5).induced_subgraph([])
        assert sub.n == 0 and sub.m == 0 and kept == ()

    def test_one_side_of_k33_is_edgeless(self):
        sub, _ = complete_bipartite(3, 3).induced_subgraph([0, 1, 2])
        assert sub.n == 3 and sub.m == 0

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            cycle_graph(5).induced_subgraph([0, 5])

    @given(graphs())
    def test_every_vertex_gives_the_graph_itself(self, g):
        want = reference_induced_subgraph(g, range(g.n))
        for selection in (range(g.n), [*reversed(range(g.n))] * 2):
            sub, kept = g.induced_subgraph(selection)
            assert (sub, kept) == want
            assert sub is g and kept == tuple(range(g.n))

    @given(graphs(min_n=1), st.data())
    def test_strict_subset_matches_relabeling_reference(self, g, data):
        dropped = data.draw(st.integers(0, g.n - 1))
        picks = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
        subset = [v for v in picks if v != dropped]
        assert g.induced_subgraph(subset) == reference_induced_subgraph(g, subset)
        # n distinct ids, one of them out of range
        for bad in ([-1, *range(1, g.n)], [*range(g.n - 1), g.n], [*subset, g.n]):
            with pytest.raises(GraphError):
                g.induced_subgraph(bad)

    @given(graphs(), st.data())
    def test_edges_within_matches_induced_m(self, g, data):
        if g.n == 0:
            subset = []
        else:
            subset = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
        sub, _ = g.induced_subgraph(subset)
        assert edges_within(g, subset) == sub.m


class TestSubsetPredicates:
    def test_edges_within(self):
        assert edges_within(cycle_graph(5), range(5)) == 5
        assert edges_within(cycle_graph(5), [2]) == 0
        assert edges_within(cycle_graph(5), []) == 0
        assert edges_within(complete_bipartite(3, 3), [0, 3]) == 1

    def test_is_independent(self):
        c5 = cycle_graph(5)
        assert c5.is_independent([0, 2])
        assert not c5.is_independent([0, 1])
        assert c5.is_independent([])

    @given(graphs(), st.data())
    def test_is_independent_matches_edges_within(self, g, data):
        subset = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=g.n))
        assert g.is_independent(subset) == (edges_within(g, subset) == 0)


class TestBipartitePairReport:
    def test_k33_sides(self):
        rep = bipartite_pair_report(complete_bipartite(3, 3), [0, 1, 2], [3, 4, 5])
        assert rep.valid
        assert rep.cross_edges == 9
        assert rep.average_degree == Fraction(3)

    def test_dependent_side_invalid(self):
        rep = bipartite_pair_report(cycle_graph(5), [0], [1, 2])
        assert not rep.valid
        assert rep.reason == "side J is not independent"

    def test_empty_pair_valid_with_zero_average(self):
        rep = bipartite_pair_report(cycle_graph(5), [], [])
        assert rep.valid
        assert rep.average_degree == Fraction(0)

    def test_overlap_invalid(self):
        rep = bipartite_pair_report(cycle_graph(5), [0, 2], [2])
        assert not rep.valid
        assert rep.reason == "sides overlap"

    def test_average_degree_identity(self):
        rep = bipartite_pair_report(cycle_graph(5), [0, 2], [4])
        # 4 is adjacent to 0 only among I
        assert rep.valid
        assert rep.average_degree == Fraction(2 * rep.cross_edges, 3)

    @given(graphs(max_n=8), st.data())
    def test_cross_edges_match_pair_count(self, g, data):
        if g.n == 0:
            return
        side_i = data.draw(st.lists(st.integers(0, g.n - 1), max_size=5))
        side_j = data.draw(st.lists(st.integers(0, g.n - 1), max_size=5))
        rep = bipartite_pair_report(g, side_i, side_j)
        expected = sum(1 for u in set(side_i) for v in set(side_j) if has_edge(g, u, v))
        assert rep.cross_edges == expected

    @given(graphs(max_n=8), st.data())
    def test_valid_report_means_bipartition(self, g, data):
        if g.n == 0:
            return
        side_i = data.draw(st.lists(st.integers(0, g.n - 1), max_size=4))
        side_j = data.draw(st.lists(st.integers(0, g.n - 1), max_size=4))
        rep = bipartite_pair_report(g, side_i, side_j)
        if rep.valid:
            union = set(rep.I) | set(rep.J)
            sub, kept = g.induced_subgraph(union)
            # every edge of the induced subgraph crosses the two parts
            side_i = set(rep.I)
            assert all((kept[u] in side_i) != (kept[v] in side_i) for u, v in sub.edges())
            assert sub.m == rep.cross_edges


class TestSerialization:
    @given(graphs())
    def test_round_trip(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\n3 2\n0 1\n# inline comment line\n1 2\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.m == 2

    def test_bad_header(self):
        with pytest.raises(GraphError):
            parse_edge_list("3\n")
        with pytest.raises(GraphError):
            parse_edge_list("a b\n")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphError):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_edge_line(self):
        with pytest.raises(GraphError):
            parse_edge_list("3 1\n0 1 2\n")
        with pytest.raises(GraphError):
            parse_edge_list("3 1\nx y\n")
        with pytest.raises(GraphError, match=r"duplicate edge \(1,0\)"):
            parse_edge_list("3 3\n0 1\n1 0\n1 2\n")
        with pytest.raises(GraphError, match=r"duplicate edge \(0,1\)"):
            parse_edge_list("3 2\n0 1\n0 1\n")

    def test_first_faulty_edge_line_is_reported(self):
        with pytest.raises(GraphError, match="out of range"):
            parse_edge_list("3 2\n0 5\nx y\n")
        with pytest.raises(GraphError, match="bad edge line 'x y'"):
            parse_edge_list("3 2\nx y\n0 5\n")
        with pytest.raises(GraphError, match="self-loop"):
            parse_edge_list("3 2\n2 2\n0 1 2\n")
        with pytest.raises(GraphError, match="bad edge line '0 1 2'"):
            parse_edge_list("3 2\n0 1 2\n2 2\n")

    def test_first_repeat_is_named(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(3,2\)"):
            parse_edge_list("4 5\n0 1\n2 3\n3 2\n1 0\n0 1\n")
        # a repeat is named only once every line parses and is in range
        with pytest.raises(GraphError, match="out of range"):
            parse_edge_list("3 3\n0 1\n0 1\n0 7\n")

    def test_hash_is_canonical(self):
        a = from_edge_list(3, [(0, 1), (1, 2)])
        b = parse_edge_list("# c\n3 2\n1 2\n0 1\n")
        assert canonical_sha256(a) == canonical_sha256(b)

    def test_hash_memory_per_edge(self):
        g = complete_bipartite(300, 300)
        tracemalloc.start()
        try:
            digest = canonical_sha256(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == reference_canonical_sha256(g)
        # one vertex's 300 lines at a time, about 0.3 bytes per edge; the
        # whole canonical text and its encoded copy took about 80
        assert peak < 4 * g.m

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0663", "0x1"])
    def test_non_ascii_decimal_rejected(self, token):
        with pytest.raises(GraphError, match="bad header line"):
            parse_edge_list(f"{token} 0\n")
        with pytest.raises(GraphError, match="bad header line"):
            parse_edge_list(f"12 {token}\n")
        with pytest.raises(GraphError, match="bad edge line"):
            parse_edge_list(f"12 1\n{token} 11\n")
        with pytest.raises(GraphError, match="bad edge line"):
            parse_edge_list(f"12 1\n0 {token}\n")

    def test_malformed_numbers_not_normalised(self):
        with pytest.raises(GraphError, match=r"bad edge line '0 1_0': '1_0' is not ASCII decimal"):
            parse_edge_list("11 2\n0 1_0\n+1 \u0663\n")

    def test_negative_id_is_out_of_range(self):
        with pytest.raises(GraphError, match=r"edge \(-1,2\) out of range for n=3"):
            parse_edge_list("3 1\n-1 2\n")

    @pytest.mark.parametrize("char", ["\u2003", "\u2028", "\x85", "\x1c", "\x0b", "\x0c"])
    def test_non_ascii_separators_rejected(self, char):
        # str.split / str.splitlines / str.strip treat each of these as whitespace
        for text in (f"3{char}1\n0 1\n", f"{char}3 1\n0 1\n", f"3 1{char}0 1\n"):
            with pytest.raises(GraphError, match="bad header line"):
                parse_edge_list(text)
        for text in (f"3 1\n0{char}1\n", f"3 1\n0 1{char}\n", f"3 1\n0 1\n{char}\n"):
            with pytest.raises(GraphError, match="bad edge line|found 2 edge lines"):
                parse_edge_list(text)

    def test_ascii_separators_and_crlf_accepted(self):
        g = parse_edge_list("# c\r\n\t3 2 \r\n0\t 1\r\n\r\n  1  2\n")
        assert g == from_edge_list(3, [(0, 1), (1, 2)])
        # a carriage return ends no line on its own, and only one precedes '\n'
        with pytest.raises(GraphError, match="bad header line"):
            parse_edge_list("3 1\r0 1\r")
        with pytest.raises(GraphError, match="bad edge line"):
            parse_edge_list("3 1\n0 1\r\r\n")


@pytest.fixture(scope="module")
def planted_100k():
    return planted_shell(60_000, 8, 100_000, seed=7)


@pytest.fixture(scope="module")
def el_path(tmp_path_factory):
    # one file per module, rewritten by every hypothesis example
    return tmp_path_factory.mktemp("load") / "g.el"


def _loaded(load, path):
    """(graph, hash, sorts) or the GraphError message: the hash the reader
    took (the reference's for a loader that does not call the reader), and
    the number of `_sort_and_hash` calls."""
    hashes, sorts = [], []
    read_edges, sort_and_hash = densebip.graph._read_edges, densebip.graph._sort_and_hash

    def read_spy(f):
        got = read_edges(f)
        hashes.append(got[3])
        return got

    def sort_spy(n, us, vs):
        sorts.append(n)
        return sort_and_hash(n, us, vs)

    with mock.patch.object(densebip.graph, "_read_edges", read_spy), \
            mock.patch.object(densebip.graph, "_sort_and_hash", sort_spy):
        try:
            g = load(path)
        except GraphError as exc:
            return str(exc)
    return g, hashes[0] if hashes else reference_canonical_sha256(g), len(sorts)


def _in_order(raw):
    """Whether the edge lines of `raw`, a file the loader accepts, give each
    edge as u < v, in strictly increasing order."""
    lines = [line.strip(" \t\r") for line in raw.decode().split("\n")]
    edges = [tuple(map(int, line.split())) for line in lines if line and line[0] != "#"][1:]
    return all(u < v for u, v in edges) and edges == sorted(set(edges))


def _graph_or_error(path, raw):
    """Loading `raw` gives a Graph with its canonical hash, or a GraphError."""
    path.write_bytes(raw)
    got = _loaded(load_graph, path)
    if not isinstance(got, str):
        assert got[1] == canonical_sha256(got[0])


def _near_canonical(data, g):
    """One drawn edit of the canonical text of `g` (m >= 1): (name, bytes)."""
    text = format_edge_list(g)
    lines = text.splitlines()
    head, body = text.split("\n", 1)
    big = str(2**63)
    long = "9" * 5000

    def edit_line(i, f):
        out = list(lines)
        out[i] = f(out[i])
        return "\n".join(out) + "\n"

    i = data.draw(st.integers(1, len(lines) - 1))
    j = data.draw(st.integers(1, len(lines) - 1))
    u, v = lines[i].split()
    swapped = list(lines)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    variants = {
        "leading zero": edit_line(i, lambda line: "0" + line),
        "leading zero in v": edit_line(i, lambda line: f"{u} 0{v}"),
        "leading zero in header": "0" + text,
        "doubled space": edit_line(i, lambda line: line.replace(" ", "  ")),
        "leading space": edit_line(i, lambda line: " " + line),
        "trailing space": edit_line(i, lambda line: line + " "),
        "no u": edit_line(i, lambda line: f" {v}"),
        "no v": edit_line(i, lambda line: f"{u} "),
        "tab": edit_line(i, lambda line: line.replace(" ", "\t")),
        "comment": edit_line(i, lambda line: "# note\n" + line),
        "blank line": edit_line(i, lambda line: "\n" + line),
        "crlf": text.replace("\n", "\r\n"),
        "reversed": edit_line(i, lambda line: f"{v} {u}"),
        "swapped": "\n".join(swapped) + "\n",
        "duplicate": edit_line(i, lambda line: line + "\n" + line),
        "duplicate, m counts it": "\n".join(
            [f"{g.n} {g.m + 1}", *lines[1:i + 1], lines[i], *lines[i + 1:]]) + "\n",
        "self-loop": edit_line(i, lambda line: f"{u} {u}"),
        "out of range": edit_line(i, lambda line: f"{u} {g.n}"),
        "negative": edit_line(i, lambda line: f"-{u} {v}"),
        "wrong m": f"{g.n} {g.m + data.draw(st.sampled_from([-1, 1]))}\n{body}",
        "huge m": f"{g.n} {big}\n{body}",
        "no final newline": text[:-1],
        "token >= 2**63": edit_line(i, lambda line: f"{u} {big}"),
        # past the int digit limit of CPython 3.10.7+
        "5000-digit token in u": edit_line(i, lambda line: f"{long} {v}"),
        "5000-digit token in v": edit_line(i, lambda line: f"{u} {long}"),
        "5000-digit token in header": f"{long} {g.m}\n{body}",
        # passes the layout check, which needs no newline after the last line
        "trailing digits": text + "57",
        "empty": "",
        "header only": head + "\n",
        "canonical": text,
    }
    name = data.draw(st.sampled_from(sorted(variants)))
    return name, variants[name].encode("ascii")


class TestLoadGraph:
    @given(graphs(max_n=30))
    def test_saved_graph_takes_fast_path(self, el_path, g):
        save_graph(g, el_path)
        loaded, digest, sorts = _loaded(load_graph, el_path)
        # the edges are in order, so they are hashed as read
        assert sorts == 0
        assert loaded == g == reference_load_graph(el_path)
        assert digest == canonical_sha256(loaded) == reference_canonical_sha256(g)

    @settings(max_examples=200)
    @given(st.data())
    def test_near_canonical_matches_reference(self, el_path, data):
        n = data.draw(st.integers(2, 40))
        vertex = st.integers(0, n - 1)
        pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
        g = from_edge_list(n, data.draw(st.lists(pairs, min_size=1, max_size=60)))
        name, raw = _near_canonical(data, g)
        el_path.write_bytes(raw)
        got = _loaded(load_graph, el_path)
        want = _loaded(reference_load_graph, el_path)
        if isinstance(want, str):
            assert got == want, name
            return
        loaded, digest, sorts = got
        assert (loaded, digest) == want[:2], name
        assert canonical_sha256(loaded) == digest, name
        # the edges are sorted and their text formatted iff they are out of order
        assert sorts == (not _in_order(raw)), name

    @given(st.binary(max_size=80))
    def test_arbitrary_bytes(self, el_path, raw):
        _graph_or_error(el_path, raw)

    @given(st.lists(st.tuples(
        st.one_of(st.integers(0, 12).map(str), st.sampled_from(
            ["", "-1", "007", "1_0", "+1", "\u0663", "0x1", "#", "\udcff"])),
        st.sampled_from([" ", "  ", "\n", "\r\n", "\t", "\r"])), max_size=24))
    def test_token_soup(self, el_path, pieces):
        text = "".join(t + sep for t, sep in pieces)
        _graph_or_error(el_path, text.encode("utf-8", "surrogateescape"))

    def test_leading_zeros_accepted_and_hashed_canonically(self, el_path):
        el_path.write_bytes(b"03 2\n00 1\n1 002\n")
        g = load_graph(el_path)
        assert g == from_edge_list(3, [(0, 1), (1, 2)])
        assert canonical_sha256(g) == hashlib.sha256(b"3 2\n0 1\n1 2\n").hexdigest()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX only")
    @pytest.mark.parametrize("crlf", [False, True])
    def test_named_pipe(self, tmp_path, crlf):
        # a pipe is read once, like any file, canonical or not
        g = complete_bipartite(3, 3)
        raw = format_edge_list(g).encode()
        if crlf:
            raw = b"# c\r\n" + raw.replace(b"\n", b"\r\n")
        fifo = tmp_path / "g.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
        writer.start()
        try:
            got, ids, digest = load_core(fifo, 0)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert (got, ids, digest) == (g, range(6), reference_canonical_sha256(g))

    def test_invalid_utf8_is_a_graph_error(self, el_path):
        el_path.write_bytes(b"3 1\n0 1 # \xff\n")
        with pytest.raises(GraphError, match="not UTF-8"):
            load_graph(el_path)


HUGE_HEADER = b"100000000000 1\n0 1\n"
# canonical in layout but for its edge count, so the line parser's error stands
HUGE_HEADER_WRONG_M = b"100000000000 2\n0 1\n"


class TestVertexLimit:
    # 10^11 adjacency lists cannot be allocated, so passing means none were
    def test_from_edge_list(self):
        with pytest.raises(GraphError, match=f"exceeds the limit of {MAX_VERTICES}"):
            from_edge_list(MAX_VERTICES + 1, [])

    def test_parse_edge_list(self):
        with pytest.raises(GraphError, match="vertex count 100000000000 exceeds the limit"):
            parse_edge_list(HUGE_HEADER.decode())

    @pytest.mark.parametrize("load", [load_graph, lambda path: load_core(path, 2)])
    @pytest.mark.parametrize("raw", [HUGE_HEADER, HUGE_HEADER.replace(b"\n", b"\r\n"),
                                     HUGE_HEADER_WRONG_M])
    def test_loaders(self, el_path, load, raw):
        # the canonical file, its CRLF form, which the line parser reads, and
        # a file whose only fault besides the header's n is its edge count
        el_path.write_bytes(raw)
        want = _loaded(reference_load_graph, el_path)
        if raw == HUGE_HEADER_WRONG_M:
            assert want == "header declares 2 edges, found 1 edge lines"
        else:
            assert want == f"vertex count 100000000000 exceeds the limit of {MAX_VERTICES}"
        with pytest.raises(GraphError, match=re.escape(want)):
            load(el_path)

    @pytest.mark.parametrize("load", [load_graph, lambda path: load_core(path, 2)])
    def test_canonical_header_is_refused_before_the_edge_lines(self, el_path, load,
                                                               monkeypatch):
        calls = []
        tokens = densebip.graph._tokens

        def spy(lines):
            calls.append(lines)
            return tokens(lines)

        monkeypatch.setattr(densebip.graph, "_tokens", spy)
        m = 20_000  # about 150 KB of edge lines: three chunks
        head = b"100000000000 %d" % m
        el_path.write_bytes(head + b"\n" + b"".join(b"0 %d\n" % v for v in range(1, m + 1)))
        with pytest.raises(GraphError, match=f"exceeds the limit of {MAX_VERTICES}"):
            load(el_path)
        # the header goes through the line parser, and the edge lines are only counted
        assert calls == []


def _core_ids(path, d):
    """The d-core found through `load_core`, as input ids, checked against `load_graph`."""
    g, ids, digest = load_core(path, d)
    whole = load_graph(path)
    assert list(ids) == sorted(ids) and len(ids) == g.n
    assert g == whole.induced_subgraph(ids)[0]
    assert digest == canonical_sha256(whole)
    core = [ids[v] for v in d_core(g, d)]
    assert core == list(d_core(whole, d))
    return core


@pytest.fixture()
def counted_rounds(monkeypatch):
    """The number of edge ends each filter round of `load_core` counts."""
    sizes = []
    drop_low = densebip.graph._drop_low

    def counting(us, vs, d, deg, high):
        sizes.append(2 * len(us))
        return drop_low(us, vs, d, deg, high)

    monkeypatch.setattr(densebip.graph, "_drop_low", counting)
    return sizes


class TestLoadCore:
    @given(graphs(max_n=12), st.integers(0, 8))
    def test_matches_whole_graph(self, el_path, g, d):
        save_graph(g, el_path)
        _core_ids(el_path, d)

    @settings(max_examples=200)
    @given(st.data())
    def test_near_canonical_matches_whole_graph(self, el_path, data):
        n = data.draw(st.integers(2, 40))
        vertex = st.integers(0, n - 1)
        pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
        g = from_edge_list(n, data.draw(st.lists(pairs, min_size=1, max_size=60)))
        _, raw = _near_canonical(data, g)
        el_path.write_bytes(raw)
        d = data.draw(st.integers(1, 6))
        try:
            load_graph(el_path)
        except GraphError as exc:
            with pytest.raises(GraphError, match=re.escape(str(exc))):
                load_core(el_path, d)
            return
        _core_ids(el_path, d)

    def test_dense_input_is_built_whole(self, el_path, counted_rounds):
        g = complete_bipartite(4, 4)
        save_graph(g, el_path)
        got, ids, _ = load_core(el_path, 4)  # 2m = d*n
        assert got == g and ids == range(8) and counted_rounds == []

    def test_planted_block(self, el_path, counted_rounds):
        g = planted_shell(600, 8, 900, seed=3)
        save_graph(g, el_path)
        core = _core_ids(el_path, 8)
        assert len(core) == 16
        got, ids, _ = load_core(el_path, 8)
        # the shell goes in the first round, the block survives the second
        assert list(ids) == core and got.m == 64
        assert counted_rounds[-2:] == [2 * g.m, 128]

    def test_long_peel_chain_stays_within_halving_bound(self, el_path, counted_rounds):
        # a complete ternary tree hanging from K_{3,3}: at d = 3 every round
        # drops the lowest level of the tree, two thirds of its edges
        depth, edges = 7, [(u, v) for u in range(3) for v in range(3, 6)]
        level, size = [0], 6
        for _ in range(depth):
            below = []
            for parent in level:
                for _child in range(3):
                    edges.append((parent, size))
                    below.append(size)
                    size += 1
            level = below
        g = from_edge_list(size, edges)
        save_graph(g, el_path)
        assert _core_ids(el_path, 3) == list(range(6))
        sizes = counted_rounds
        assert len(sizes) == 6 and sizes[0] == 2 * g.m
        assert all(2 * later <= earlier for earlier, later in pairwise(sizes))
        assert sum(sizes) <= 4 * g.m

    def test_path_is_left_to_the_peel(self, el_path, counted_rounds):
        # a 6-cycle with a path hanging from it and one isolated vertex; each
        # round would take one edge off the path's end, so the first round
        # keeps more than half of the edges and is the last
        edges = [(i, (i + 1) % 6) for i in range(6)] + [(i, i + 1) for i in range(5, 60)]
        g = from_edge_list(62, edges)
        save_graph(g, el_path)
        assert _core_ids(el_path, 2) == list(range(6))
        assert counted_rounds == [2 * g.m]
        assert load_core(el_path, 2)[1] == list(range(60))

    def test_empty_core(self, el_path):
        g = from_edge_list(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        save_graph(g, el_path)
        got, ids, digest = load_core(el_path, 2)
        assert got.n == 0 and list(ids) == [] and digest == canonical_sha256(g)

    def test_header_far_above_the_edge_count(self, el_path, monkeypatch):
        # K_{3,3} and a pendant edge under a header of a million vertices:
        # the first round takes its candidates from the 7 vertices the edges
        # name, where reading range(n) took about 0.1 s (1.1 s at n = 10^7)
        highs = []
        drop_low = densebip.graph._drop_low

        def spy(us, vs, d, deg, high):
            highs.append(len(high))
            return drop_low(us, vs, d, deg, high)

        edges = [(u, v) for u in range(3) for v in range(3, 6)] + [(5, 999_999)]
        el_path.write_text(f"1000000 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        monkeypatch.setattr(densebip.graph, "_drop_low", spy)
        assert _core_ids(el_path, 3) == list(range(6))
        assert highs[0] <= 2 * len(edges)

    def test_peak_memory_per_edge(self, el_path, planted_100k):
        g = planted_100k
        save_graph(g, el_path)
        tracemalloc.start()
        try:
            got, _, _ = load_core(el_path, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.m == 64 and g.m >= 100_000
        # about 13 bytes per edge: the int32 edge arrays, the degree list and
        # one 16 KiB chunk; the whole file and two whole-file layout
        # temporaries alive beside them took about 23
        assert peak < 18 * g.m

    @pytest.mark.parametrize("form, bound", [
        ("crlf", 18), ("shuffled", 80), ("shuffled layout", 80)])
    def test_peak_memory_per_edge_of_other_forms(self, el_path, planted_100k, form, bound):
        g = planted_100k
        text = format_edge_list(g)
        if form == "crlf":
            text = crlf_form(text)
        else:
            text = (shuffled_form if form == "shuffled" else shuffled_layout_form)(text, seed=1)
        el_path.write_bytes(text.encode())
        tracemalloc.start()
        try:
            got, ids, digest = load_core(el_path, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.m == 64 and len(ids) == 16 and g.m >= 100_000
        assert digest == reference_canonical_sha256(g)
        # CRLF pieces take the canonical path once "\r\n" is "\n": about 13
        # bytes per edge, as canonical. Shuffled edges, parsed in C or line by
        # line, are sorted once as int keys: about 59. The whole-file line
        # parser took about 174 on the first two
        assert peak < bound * g.m

    def test_whole_graph_memory_per_edge(self, el_path):
        g = complete_bipartite(300, 300)
        save_graph(g, el_path)
        tracemalloc.start()
        try:
            got, ids, _ = load_core(el_path, 300)  # 2m = d*n: built whole
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == g and ids == range(600)
        # about 26 and 16 bytes per edge; an int object per edge end, with
        # int64 arrays and the input bytes alive during the build, gives 94 and 53
        assert peak < 48 * g.m
        assert retained < 24 * g.m

    @pytest.mark.parametrize("form, bound", [
        ("{long}\n3 1\n0 1\n", 45), ("3 1\n{long}\n0 1\n", 45),
        ("{long}\r\n3 1\r\n0 1\r\n", 45), ("3 1\r\n{long}\r\n0 1\r\n", 45),
    ], ids=["LF-first", "LF-second", "CRLF-first", "CRLF-second"])
    def test_long_line_memory(self, el_path, form, bound):
        # a 20 MB comment line peaks at about 38.7 MiB with LF or CRLF ends, as
        # its bytes beside its text, then its text beside its split line. With
        # "\r" stripped before the comment test, or the CRLF-normalised bytes
        # kept while the piece is decoded, CRLF peaked at 57.2 MiB
        el_path.write_bytes(form.format(long="# " + "x" * 20_000_000).encode())
        tracemalloc.start()
        try:
            got, _, _ = load_core(el_path, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.m == 1
        assert peak < bound * 2**20


@st.composite
def big_id_graphs(draw):
    """A cycle through k >= 260 vertices plus a few drawn chords, on n > m
    vertices: ids pass the 256 that CPython caches, and 2m < 2n."""
    k = draw(st.integers(260, 300))
    chords = draw(st.integers(0, 20))
    n = k + chords + draw(st.integers(1, 20))
    vertex = st.integers(0, n - 1)
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                           max_size=chords))
    return from_edge_list(n, edges)


def _one_int_per_vertex(g):
    """Whether all adjacency entries naming a vertex are one int object."""
    ends = [w for nbrs in g.adjacency for w in nbrs]
    return len(set(map(id, ends))) == len(set(ends))


@settings(max_examples=30)
@given(big_id_graphs(), st.data())
def test_every_way_to_make_a_graph_shares_one_int_per_vertex(el_path, g, data):
    made = [g, parse_edge_list(format_edge_list(g))]
    save_graph(g, el_path)
    whole, ids, _ = load_core(el_path, 0)
    assert ids == range(g.n)
    core, ids, _ = load_core(el_path, 2)  # 2m < d*n: the filter runs
    assert len(ids) >= 260
    drop = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=5))
    sub, _ = g.induced_subgraph(set(range(g.n)) - drop)
    made += [whole, core, sub]
    for made_graph in made:
        assert _one_int_per_vertex(made_graph)


def _holds_its_facts(g):
    """n, m and the hash of `g` follow from its adjacency alone."""
    assert g.n == len(g.adjacency)
    assert g.m == len(list(g.edges()))
    assert canonical_sha256(g) == reference_canonical_sha256(g)


@settings(max_examples=100)
@given(st.data())
def test_every_way_to_make_a_graph_keeps_its_facts(el_path, data):
    n = data.draw(st.integers(0, 14))
    pairs = []
    if n >= 2:
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                                   max_size=40))
    g = from_edge_list(n, pairs)
    digest = reference_canonical_sha256(g)
    canonical = format_edge_list(g)
    crlf = "# c\r\n" + canonical.replace("\n", "\r\n")
    made = [g, parse_edge_list(canonical), parse_edge_list(crlf)]
    d = data.draw(st.integers(1, 6))
    for text in (canonical, crlf):
        el_path.write_bytes(text.encode("ascii"))
        for k in (0, d):
            core, _, loaded_digest = load_core(el_path, k)
            assert loaded_digest == digest
            made.append(core)
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    made.append(g.induced_subgraph(compress(range(n), keep))[0])
    for made_graph in made:
        _holds_its_facts(made_graph)


@st.composite
def filter_inputs(draw):
    """(n, us, vs): canonical edges, each pair of a few ids kept by a coin
    flip, plus a star whose leaves have degree 1, so its centre can be high
    with only low neighbours, under a header n from the largest id + 1 up
    to far above it."""
    k = draw(st.integers(2, 14))
    pairs = list(combinations(range(k), 2))
    edges = set(compress(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                max_size=len(pairs)))))
    centre, leaves = draw(st.integers(0, k - 1)), draw(st.integers(0, 10))
    edges.update((centre, k + i) for i in range(leaves))
    n = k + leaves + draw(st.one_of(st.integers(0, 3), st.integers(0, 100_000)))
    edges = sorted(edges)
    return n, [u for u, _ in edges], [v for _, v in edges]


class TestFilterRound:
    @given(filter_inputs(), st.integers(1, 8))
    @example((1000, [0] * 8, list(range(1, 9))), 3)  # a high centre with low leaves
    @example((1000, list(range(1, 9)), [9] * 8), 3)  # the same, centre last in each edge
    def test_rounds_match_reference(self, edges, d):
        n, us, vs = edges
        deg, high = [0] * n, range(n)
        # the first round gets the loader's int32 arrays, later ones lists
        got_us, got_vs = array("i", us), array("i", vs)
        while us:
            want = reference_filter_round(us, vs, d)
            degree = Counter(us + vs)
            got_us, got_vs, high = densebip.graph._drop_low(got_us, got_vs, d, deg, high)
            assert (got_us, got_vs) == want
            assert high == sorted(v for v, k in degree.items() if k >= d)
            assert not any(deg)
            if len(want[0]) == len(us):
                break
            us, vs = want


def _chunk_firsts(raw):
    """Indices of the lines (the header is line 0, a piece of its own) that
    begin a piece of the reader: a piece ends at the first newline `_CHUNK`
    or more bytes past its start."""
    firsts = []
    start = raw.index(b"\n") + 1
    while start < len(raw):
        firsts.append(raw.count(b"\n", 0, start))
        stop = raw.find(b"\n", start + densebip.graph._CHUNK)
        if stop < 0:
            break
        start = stop + 1
    return firsts


def _swapped(lines, b):
    out = list(lines)
    out[b - 1], out[b] = out[b], out[b - 1]
    return out


def _duplicated(lines, b):
    # line b - 1 again as line b, and counted in the header
    n, m = lines[0].split()
    return [f"{n} {int(m) + 1}", *lines[1:b], lines[b - 1], *lines[b:]]


def _leading_zero(lines, b):
    out = list(lines)
    out[b] = "0" + out[b]
    return out


def _reversed(lines, b):
    out = list(lines)
    u, v = out[b - 1].split()
    out[b - 1] = f"{v} {u}"
    return out


# each edit touches line b - 1, line b or both, meant to end and begin two chunks
CHUNK_EDITS = {
    "none": lambda lines, b: lines,
    "swap across": _swapped,
    "duplicate across": _duplicated,
    "leading zero on a first line": _leading_zero,
    "reversed last line": _reversed,
}


@pytest.fixture(scope="module")
def shell_text():
    # about 40 KB of edge lines: three chunks
    return format_edge_list(planted_shell(4_000, 8, 4_250, seed=5))


def _line_edit(lines, i, edit):
    """Line i of `lines` after one edit: a fault or an accepted variant."""
    n = lines[0].split()[0]
    u, v = lines[i].split()
    return {
        "malformed": "x y",
        "out of range": f"{u} {n}",
        "out of range in u": f"{n} {v}",
        "self-loop": f"{u} {u}",
        "repeat": lines[i - 1],
        "not UTF-8": "# \udcff\n" + lines[i],
        "truncated UTF-8": "# \udce2\udc82\n" + lines[i],
        "reversed": f"{v} {u}",
        "tab and CR": f"{u}\t{v}\r",
        "leading zero": f"0{u} {v}",
        "none": lines[i],
    }[edit]


def _header_edit(lines, edit):
    n, m = lines[0].split()
    return {
        "none": lines[0],
        "wrong m": f"{n} {int(m) + 1}",
        "malformed": f"{n} {m} 0",
        # the first piece is the first line: the header is in the next one
        "comment first": f"# first\n{lines[0]}",
    }[edit]


def _edited(lines, header, *edits):
    """The bytes of `lines` with the header edit and each (i, edit) applied;
    a lone surrogate stands for the byte it escapes."""
    out = list(lines)
    out[0] = _header_edit(lines, header)
    for i, edit in edits:
        out[i] = _line_edit(lines, i, edit)
    return ("\n".join(out) + "\n").encode("utf-8", "surrogateescape")


def _parsed(parse, text):
    try:
        return parse(text)
    except GraphError as exc:
        return str(exc)


def _matches_reference(path, raw):
    """Load `raw` as a file and parse it as text, and check the graph, hash
    or GraphError message against the frozen line parser's; returns the
    reference's."""
    path.write_bytes(raw)
    got = _loaded(load_graph, path)
    want = _loaded(reference_load_graph, path)
    if isinstance(want, str):
        assert got == want
        with pytest.raises(GraphError, match=re.escape(want)):
            load_core(path, 8)
    else:
        assert got[:2] == want[:2]
    try:
        text = raw.decode()
    except UnicodeDecodeError:
        return want
    assert _parsed(parse_edge_list, text) == _parsed(reference_parse_edge_list, text)
    return want


# (header edit, edit in the first edge piece, edit in the last, the fault
# reported); the text has at least three edge pieces, so the two edits lie
# in different pieces
TWO_FAULTS = {
    "malformed line early, wrong m": ("wrong m", "malformed", "none", "header declares"),
    "out of range before a repeat": ("none", "out of range", "repeat", "out of range"),
    "repeat early, malformed line late": ("none", "repeat", "malformed", "bad edge line"),
    "comment-only first line, two faulty lines": (
        "comment first", "self-loop", "out of range", "self-loop"),
    "not UTF-8 after a malformed header": ("malformed", "none", "not UTF-8", "not UTF-8"),
    "not UTF-8 late, after a malformed line": (
        "none", "malformed", "truncated UTF-8", "not UTF-8"),
    "not UTF-8 late, after a repeat": ("none", "repeat", "not UTF-8", "not UTF-8"),
}


class TestChunkBoundaries:
    def test_chunks_begin_where_the_edits_expect(self, shell_text, monkeypatch):
        raw = shell_text.encode()
        firsts = []  # the first line of each chunk, as the loader parses it
        tokens = densebip.graph._tokens

        def spy(lines):
            firsts.append(lines.split(b"\n", 1)[0])
            return tokens(lines)

        monkeypatch.setattr(densebip.graph, "_tokens", spy)
        assert densebip.graph._read_edges(io.BytesIO(raw))[3] == hashlib.sha256(raw).hexdigest()
        lines = raw.split(b"\n")
        assert len(_chunk_firsts(raw)) >= 3
        # the header line is parsed apart, by the line parser
        assert firsts == [lines[i] for i in _chunk_firsts(raw)]

    @pytest.mark.parametrize("edit", sorted(CHUNK_EDITS))
    def test_edit_at_each_boundary_matches_reference(self, el_path, shell_text, edit):
        lines = shell_text.splitlines()
        for first in _chunk_firsts(shell_text.encode())[1:]:
            # an edit that changes a line's length can move the boundary
            for b in range(first - 2, first + 3):
                raw = ("\n".join(CHUNK_EDITS[edit](lines, b)) + "\n").encode()
                if b in _chunk_firsts(raw):
                    break
            else:
                pytest.fail(f"no {edit!r} edit lands on the chunk that begins at line {first}")
            el_path.write_bytes(raw)
            got = _loaded(load_graph, el_path)
            want = _loaded(reference_load_graph, el_path)
            if isinstance(want, str):
                assert got == want
                with pytest.raises(GraphError, match=re.escape(want)):
                    load_core(el_path, 8)
                continue
            loaded, digest, sorts = got
            assert (loaded, digest) == want[:2]
            # the edges are sorted and their text formatted iff they are out of order
            out_of_order = edit in ("reversed last line", "swap across")
            assert sorts == (not _in_order(raw)) == out_of_order
            assert len(_core_ids(el_path, 8)) == 16

    def test_parse_peak_memory_per_edge(self, planted_100k):
        g = planted_100k
        raw = format_edge_list(g).encode()
        tracemalloc.start()
        try:
            edges = densebip.graph._read_edges(io.BytesIO(raw))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(edges[1]) == g.m >= 100_000
        assert edges[3] == hashlib.sha256(raw).hexdigest()
        # a whole-file token list takes about 100 bytes per edge
        assert peak < 40 * g.m

    @pytest.mark.parametrize("case", sorted(TWO_FAULTS))
    def test_two_faults_in_different_pieces_match_reference(self, el_path, shell_text,
                                                            case):
        # the first fault is kept while the lines are counted, and bytes that
        # are not UTF-8 are named by their offset in the file
        header, early, late, fault = TWO_FAULTS[case]
        lines = shell_text.splitlines()
        j = _chunk_firsts(shell_text.encode())[-1] + 2
        want = _matches_reference(el_path, _edited(lines, header, (3, early), (j, late)))
        assert fault in want

    @given(st.data())
    def test_two_edits_in_different_pieces_match_reference(self, el_path, shell_text, data):
        lines = shell_text.splitlines()
        firsts = _chunk_firsts(shell_text.encode())
        edit = st.sampled_from(["malformed", "out of range", "self-loop", "repeat",
                                "not UTF-8", "truncated UTF-8", "reversed", "tab and CR",
                                "leading zero", "none"])
        early = data.draw(st.integers(2, firsts[1] - 1)), data.draw(edit)
        late = data.draw(st.integers(firsts[1] + 1, len(lines) - 1)), data.draw(edit)
        header = data.draw(st.sampled_from(["none", "wrong m", "malformed", "comment first"]))
        _matches_reference(el_path, _edited(lines, header, early, late))


@pytest.fixture()
def read_calls(monkeypatch):
    """The file offset of each piece `_text` decodes, and the n of each
    `_sort_and_hash` call, as two lists filled while the test runs."""
    texts, sorts = [], []
    text, sort_and_hash = densebip.graph._text, densebip.graph._sort_and_hash

    def text_spy(piece, start):
        texts.append(start)
        return text(piece, start)

    def sort_spy(n, us, vs):
        sorts.append(n)
        return sort_and_hash(n, us, vs)

    monkeypatch.setattr(densebip.graph, "_text", text_spy)
    monkeypatch.setattr(densebip.graph, "_sort_and_hash", sort_spy)
    return texts, sorts


class TestReadPass:
    @pytest.mark.parametrize("form", ["canonical", "crlf", "comment first"])
    def test_edges_in_order_are_hashed_as_read(self, el_path, shell_text, read_calls, form):
        raw = {"canonical": shell_text, "crlf": crlf_form(shell_text),
               "comment first": "# c\n" + shell_text}[form]
        el_path.write_bytes(raw.encode())
        g, _, digest = load_core(el_path, 0)
        texts, sorts = read_calls
        assert sorts == []
        assert digest == hashlib.sha256(shell_text.encode()).hexdigest()
        assert g == reference_load_graph(el_path)
        # the first line, and after a comment the piece that holds the header,
        # are read line by line; every later piece is parsed in C
        assert len(texts) == (1 if form == "canonical" else 2)

    def test_shuffled_layout_is_parsed_in_c(self, el_path, shell_text, read_calls):
        el_path.write_bytes(shuffled_layout_form(shell_text, seed=1).encode())
        g, _, digest = load_core(el_path, 0)
        texts, sorts = read_calls
        # only the header line is read line by line, and the sort runs once
        assert texts == [0] and sorts == [g.n]
        assert len(_chunk_firsts(shell_text.encode())) >= 3
        assert digest == hashlib.sha256(shell_text.encode()).hexdigest()
        assert g == reference_load_graph(el_path)

    @settings(max_examples=40)
    @given(st.data())
    def test_edits_of_the_shuffled_layout_match_reference(self, el_path, shell_text, data):
        # reversed and shuffled pieces are parsed in C, so a fault or a repeat
        # in them must still be named as the line parser names it
        lines = shuffled_layout_form(shell_text, seed=data.draw(st.integers(0, 3))).splitlines()
        line = st.integers(1, len(lines) - 1)
        edits = data.draw(st.lists(st.tuples(line, st.sampled_from(
            ["malformed", "out of range", "out of range in u", "self-loop", "repeat", "reversed",
             "leading zero", "tab and CR"])), max_size=2, unique_by=lambda e: e[0]))
        raw = _edited(lines, "none", *edits)
        if data.draw(st.booleans()):  # a line repeated, reversed, in another piece
            i, j = data.draw(line), data.draw(line)
            out = raw.decode().split("\n")
            out[i] = " ".join(out[j].split()[::-1])
            raw = "\n".join(out).encode()
        _matches_reference(el_path, raw)
