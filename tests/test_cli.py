import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from densebip.cli import main
from densebip.generators import c5_blowup, complete_bipartite, random_bipartite
from densebip.graph import MAX_VERTICES, from_edge_list, load_graph, parse_edge_list, save_graph

from helpers import (
    k40_with_triangles,
    planted_shell,
    reference_extract_stdout,
    reference_potential_stdout,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def k16_file(tmp_path):
    path = tmp_path / "k16.el"
    assert main(["gen", "complete-bipartite", "16", "16", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.el"
    assert main(["gen", "c5-blowup", "1", "--out", str(path)]) == 0
    return str(path)


class TestGen:
    def test_writes_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "g.el"
        code, _, _ = run(capsys, "gen", "complete-bipartite", "3", "3", "--out", str(out))
        assert code == 0
        g = load_graph(out)
        assert g.n == 6 and g.m == 9

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, "gen", "c5-blowup", "1")
        assert code == 0
        assert parse_edge_list(out).m == 5

    def test_seeded_family_deterministic(self, capsys):
        code, out1, _ = run(capsys, "gen", "binomial-scrubbed", "12", "0.4", "--seed", "5")
        code2, out2, _ = run(capsys, "gen", "binomial-scrubbed", "12", "0.4", "--seed", "5")
        assert code == code2 == 0
        assert out1 == out2

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "complete-bipartite", "3")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv, text", [
        (["complete-bipartite", "2", "3"], "5 6\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n"),
        (["random-bipartite", "3", "3", "0.5", "--seed", "1"], "6 5\n0 4\n1 4\n1 5\n2 3\n2 4\n"),
        (["c5-blowup", "1"], "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"),
        (["binomial-scrubbed", "6", "0.5", "--seed", "2"], "6 5\n0 3\n1 3\n2 3\n2 5\n4 5\n"),
    ])
    def test_family_output_is_pinned(self, argv, text, tmp_path, capsys):
        assert run(capsys, "gen", *argv) == (0, text, "")
        out = tmp_path / "g.el"
        assert run(capsys, "gen", *argv, "--out", str(out)) == (0, "", "")
        assert out.read_text() == text

    @pytest.mark.parametrize("argv, message", [
        (["complete-bipartite", "3"], "complete-bipartite needs two integers: A B"),
        (["random-bipartite", "3", "3"], "random-bipartite needs: N1 N2 RHO"),
        (["c5-blowup", "1", "2"], "c5-blowup needs one integer: T"),
        (["binomial-scrubbed", "6"], "binomial-scrubbed needs: N RHO"),
        (["random-bipartite", "3", "3", "x"], "could not convert string to float: 'x'"),
    ])
    def test_wrong_parameters_are_pinned(self, argv, message, capsys):
        assert run(capsys, "gen", *argv) == (2, "", f"error: {message}\n")

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "moebius", "3"])
        assert exc.value.code == 2


class TestExtract:
    def test_core_with_a_triangle_exits_2_in_guarantee_mode(self, tmp_path, capsys):
        path = str(tmp_path / "tri.el")
        save_graph(k40_with_triangles(), path)
        code, out, err = run(capsys, "extract", "--in", path, "--d", "20", "--guarantee", "--json")
        assert code == 2 and out == ""
        assert "triangle" in err
        code, out, _ = run(capsys, "extract", "--in", path, "--d", "20", "--json")
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_end_to_end_json(self, k16_file, capsys):
        code, out, _ = run(
            capsys, "extract", "--in", k16_file, "--d", "16",
            "--guarantee", "--seed", "0", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["seed"] == 0
        assert payload["params"]["d"] == 16 and payload["params"]["ell"] == 2
        assert payload["params"]["p"] == "1/16"
        assert "/" in payload["params"]["q"]
        assert isinstance(payload["params"]["p_float"], float)
        assert isinstance(payload["params"]["q_float"], float)
        assert payload["I_size"] == len(payload["I"])
        assert payload["J_size"] == len(payload["J"])
        assert payload["cross_edges"] >= payload["J_size"]
        assert "/" in payload["average_degree"]
        assert payload["guarantee_checks"]["meets_floor"] is True
        assert payload["trials_used"] >= 1
        assert len(payload["input_sha256"]) == 64

    def test_pair_verifies_against_input(self, k16_file, capsys):
        code, out, _ = run(
            capsys, "extract", "--in", k16_file, "--d", "16",
            "--guarantee", "--seed", "0", "--json",
        )
        payload = json.loads(out)
        ids_i = ",".join(str(v) for v in payload["I"])
        ids_j = ",".join(str(v) for v in payload["J"])
        code, out, _ = run(capsys, "verify", "--in", k16_file, "--I", ids_i, "--J", ids_j)
        assert code == 0
        check = json.loads(out)
        assert check["valid"] is True
        assert check["average_degree"] == payload["average_degree"]
        assert check["cross_edges"] == payload["cross_edges"]

    def test_byte_identical_across_workers(self, k16_file, capsys, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("extract opened a process pool")

        # --workers is checked and ignored: no worker count opens a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        outputs = []
        for workers in ("1", "4"):
            code, out, _ = run(
                capsys, "extract", "--in", k16_file, "--d", "16", "--guarantee",
                "--seed", "0", "--workers", workers, "--json",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_floor_failure_exits_1_with_full_payload(self, k16_file, capsys, monkeypatch):
        monkeypatch.setattr("densebip.extractor.DEGREE_FLOOR_DENOM", 1)
        code, out, _ = run(
            capsys, "extract", "--in", k16_file, "--d", "16",
            "--guarantee", "--seed", "0", "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert set(payload) == {
            "I", "I_size", "J", "J_size", "average_degree", "average_degree_float",
            "cross_edges", "guarantee_checks", "input_sha256", "params", "reduced_m",
            "reduced_n", "seed", "trials_used", "valid",
        }
        assert payload["valid"] is True
        assert payload["average_degree"] == "32/17"
        assert payload["guarantee_checks"] == {
            "average_degree_floor": "2/1",
            "meets_floor": False,
            "size_ratio_bound": 230,
            "size_ratio_ok": True,
        }

    def test_ratio_failure_exits_1_with_error_payload(self, k16_file, capsys, monkeypatch):
        monkeypatch.setattr("densebip.extractor.SIZE_RATIO_BOUND", 0)
        code, out, _ = run(
            capsys, "extract", "--in", k16_file, "--d", "16",
            "--guarantee", "--seed", "0", "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert set(payload) == {"diagnostics", "error", "input_sha256", "params", "seed"}
        assert payload["error"] == "survivor side exceeds 0x the partner side"
        diagnostics = payload["diagnostics"]
        assert set(diagnostics) == {"layer", "sampled", "supported", "survivors", "trial_index"}
        # the pair of the unpatched run: trial 0, |I| = 1 against |J| = 16
        assert diagnostics["trial_index"] == 0 and payload["seed"] == 0
        assert diagnostics["survivors"] == 1 and diagnostics["supported"] >= 16

    def test_reported_ids_follow_the_original_graph(self, tmp_path, capsys):
        # vertex 0 is a pendant, so the reduction shifts every surviving id
        edges = [(0, 1)] + [(1 + i, 17 + j) for i in range(16) for j in range(16)]
        path = tmp_path / "pendant.el"
        lines = [f"33 {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys, "extract", "--in", str(path), "--d", "16",
            "--guarantee", "--seed", "0", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reduced_n"] == 32
        members = payload["I"] + payload["J"]
        assert members and all(1 <= v <= 32 for v in members)
        ids_i = ",".join(str(v) for v in payload["I"])
        ids_j = ",".join(str(v) for v in payload["J"])
        code, out, _ = run(capsys, "verify", "--in", str(path), "--I", ids_i, "--J", ids_j)
        assert code == 0 and json.loads(out)["valid"] is True

    def test_empty_core_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.el"
        path.write_text("0 0\n")
        code, _, err = run(capsys, "extract", "--in", str(path), "--d", "16")
        assert code == 2 and "core" in err

    def test_empty_core_of_a_sparse_input_exits_2(self, tmp_path, capsys):
        # 2m < d*n: the core is sought on the edge arrays, and none survives
        path = tmp_path / "matching.el"
        save_graph(from_edge_list(8, [(0, 1), (2, 3), (4, 5), (6, 7)]), path)
        code, out, err = run(capsys, "extract", "--in", str(path), "--d", "2", "--json")
        assert code == 2 and out == ""
        assert err == "error: the 2-core of the input is empty\n"

    @pytest.mark.parametrize("raw", [b"100000000000 1\n0 1\n", b"100000000000 1\r\n0 1\r\n"])
    def test_huge_vertex_count_exits_2(self, tmp_path, capsys, raw):
        path = tmp_path / "huge.el"
        path.write_bytes(raw)
        code, out, err = run(capsys, "extract", "--in", str(path), "--d", "16", "--json")
        assert code == 2 and out == ""
        assert err == (
            f"error: vertex count 100000000000 exceeds the limit of {MAX_VERTICES}\n"
        )

    @pytest.mark.parametrize("raw", [b"3 1\n" + b"9" * 5000 + b" 1\n",
                                     b"3 1\r\n" + b"9" * 5000 + b" 1\r\n"])
    def test_over_long_token_exits_2(self, tmp_path, capsys, raw):
        # past the int digit limit (CPython 3.10.7+): a bad edge line, never
        # the bare int() error; without the limit the token is out of range
        path = tmp_path / "long.el"
        path.write_bytes(raw)
        code, out, err = run(capsys, "extract", "--in", str(path), "--d", "2", "--json")
        assert code == 2 and out == ""
        limited = hasattr(sys, "get_int_max_str_digits")
        assert err.startswith("error: bad edge line" if limited else "error: edge (")

    @pytest.mark.parametrize("command", [["extract"], ["stats", "potential"]])
    def test_bad_d_is_refused_before_the_file_is_read(self, tmp_path, capsys, command):
        path = tmp_path / "malformed.el"
        path.write_text("2 1\n0 x\n")
        code, out, err = run(capsys, *command, "--in", str(path), "--d", "1", "--guarantee")
        assert code == 2 and out == ""
        assert err == "error: guarantee mode needs d >= 16, got 1\n"

    def test_retries_exhausted_exits_1(self, k16_file, capsys):
        # --json is accepted and ignored: the error payload goes to stdout either way
        argv = ["extract", "--in", k16_file, "--d", "16", "--guarantee",
                "--seed", "2", "--max-retries", "1"]
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert "error" in payload
        assert run(capsys, *argv) == (code, out, err)

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "extract", "--in", "/nonexistent.el", "--d", "16")
        assert code == 2


class TestOracle:
    def test_c5(self, c5_file, capsys):
        code, out, _ = run(capsys, "oracle", "--in", c5_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["best_value"] == "3/2"

    def test_cap_exceeded_exits_2(self, k16_file, capsys):
        code, _, _ = run(capsys, "oracle", "--in", k16_file, "--cap", "10")
        assert code == 2


class TestStats:
    def test_check_q(self, capsys):
        code, out, _ = run(capsys, "stats", "check-q", "--d", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and payload["ell"] == 3

    def test_check_q_below_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "stats", "check-q", "--d", "8")
        assert code == 2

    def test_conditional(self, k16_file, capsys):
        code, out, _ = run(
            capsys, "stats", "conditional", "--in", k16_file, "--d", "16",
            "--guarantee", "--trials", "400", "--seed", "1",
        )
        payload = json.loads(out)
        assert payload["estimate"]["trials"] == 400
        assert code == (0 if payload["passed"] else 1)

    def test_survival(self, k16_file, capsys):
        code, out, _ = run(
            capsys, "stats", "survival", "--in", k16_file, "--d", "16",
            "--guarantee", "--trials", "800", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["left_degree"] == 16
        assert payload["passed"] is True

    def test_edge_identity(self, k16_file, capsys):
        code, out, _ = run(
            capsys, "stats", "edge-identity", "--in", k16_file, "--d", "16",
            "--guarantee", "--trials", "2000", "--seed", "1",
        )
        payload = json.loads(out)
        assert payload["estimate"]["target"] > 0
        assert code == (0 if payload["passed"] else 1)

    def test_potential(self, k16_file, capsys):
        code, out, _ = run(
            capsys, "stats", "potential", "--in", k16_file, "--d", "16",
            "--guarantee", "--trials", "300", "--seed", "1",
        )
        payload = json.loads(out)
        assert "success_rate" in payload
        assert code == (0 if payload["passed"] else 1)

    def test_potential_calls_the_cli_attribute(self, k16_file, capsys, monkeypatch):
        import densebip.cli

        real, calls = densebip.cli.mc_potential, []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(densebip.cli, "mc_potential", spy)
        # the arguments of a frozen run that passes
        code, _, _ = run(capsys, "stats", "potential", "--in", k16_file, "--d", "16",
                         "--guarantee", "--seed", "7", "--trials", "200")
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("check", ["potential", "conditional", "survival"])
    def test_guarantee_premise_on_a_core_with_a_triangle(self, tmp_path, capsys, check):
        path = str(tmp_path / "tri.el")
        save_graph(k40_with_triangles(), path)
        argv = ["stats", check, "--in", path, "--d", "16", "--seed", "1", "--trials", "200"]
        code, out, err = run(capsys, *argv, "--guarantee")
        if check == "survival":
            # (1-1/d)^k holds on any ordered core
            assert code == 0 and json.loads(out)["passed"] is True
        else:
            assert (code, out) == (2, "")
            assert err == ("error: guarantee mode needs a triangle-free input, "
                           "but the reduced core has a triangle\n")
        # best-effort mode makes no claim that needs the premise
        assert run(capsys, *argv)[0] in (0, 1)

    def test_missing_input_exits_2(self, capsys):
        code, _, _ = run(capsys, "stats", "potential", "--d", "16")
        assert code == 2

    @pytest.mark.parametrize("check, flag", [("survival", "--x"), ("conditional", "--y")])
    def test_vertex_outside_the_core(self, tmp_path, capsys, check, flag):
        g = planted_shell(400, 16, 400, seed=5)
        path = tmp_path / "planted.el"
        save_graph(g, path)
        block = [v for v in range(g.n) if g.degree(v) >= 16]
        shell = next(v for v in range(g.n) if 0 < g.degree(v) < 16)
        argv = ["stats", check, "--in", str(path), "--d", "16", "--guarantee",
                "--trials", "50", "--seed", "1"]
        # a shell vertex loses its edges to the filter, before the reduction
        code, out, err = run(capsys, *argv, flag, str(shell))
        assert code == 2 and out == ""
        assert err == f"error: vertex {shell} was dropped by the reduction\n"
        code, out, _ = run(capsys, *argv, flag, str(block[-1]))
        assert json.loads(out)["vertex"] == block[-1]

    def test_deterministic_json(self, k16_file, capsys):
        args = (
            "stats", "potential", "--in", k16_file, "--d", "16",
            "--guarantee", "--trials", "100", "--seed", "9",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args, "--workers", "2")
        assert out1 == out2


# sha256 of stdout on the K_{16,16} fixture at d=16, --guarantee --seed 7; a
# change here means some trial stream or its evaluation changed
FROZEN_STDOUT = {
    ("extract",):
        "236a759af76717cace6a7ab6212965cb4ecdc7903d4cf1e33a878b071410a2b4",
    ("extract", "--json"):
        "236a759af76717cace6a7ab6212965cb4ecdc7903d4cf1e33a878b071410a2b4",
    ("stats", "potential", "--trials", "200"):
        "56cade60523324e8de00e55bed93f9c8f5979899fd97a1b2b91eb2789c07b5e0",
    ("stats", "conditional", "--trials", "200"):
        "8d45aaa0f1362c67fe97309520e2b447ef5d2fa400ff7b4b6a291e2590bd3e2e",
    ("stats", "survival", "--trials", "200"):
        "a2c41e4f65c7606ce628b65c07285cfb05a3161d4a755ebf3678e94724b32ff4",
    ("stats", "edge-identity", "--trials", "200"):
        "d8b7ab0fdacf42348820ed930220c5b61bdc532f26eb3a13afa81444d099e6c5",
}


@pytest.mark.parametrize("command", sorted(FROZEN_STDOUT), ids=" ".join)
def test_frozen_stdout(command, k16_file, capsys):
    code, out, _ = run(
        capsys, *command, "--in", k16_file, "--d", "16", "--guarantee", "--seed", "7"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_STDOUT[command]


# sha256 of stdout on c5_blowup(12) at d=24, --guarantee --seed 7: a core that
# is triangle-free but not bipartite, so its layers have edges; it fits the
# mask predicate, so `conditional` runs on masks filled up front
FROZEN_C5_STDOUT = {
    ("stats", "conditional", "--trials", "300"):
        "314aefc32a518a38e9010429907b87aa7bb64632c5c007719787d4a1496bfc12",
    ("stats", "potential", "--trials", "300"):
        "8bb69b1d06d203d6ac1d81ac5a9cb037afe000550a0a50f8f2e8bbb8cc277dc6",
    ("stats", "edge-identity", "--trials", "300"):
        "c58a5ff18e18783a48d9b4d9b306a9ed2cf5a5a14dcac8ac1282d6424dc9833c",
}


@pytest.mark.parametrize("command", sorted(FROZEN_C5_STDOUT), ids=" ".join)
def test_frozen_stdout_c5_blowup(command, tmp_path, capsys):
    path = str(tmp_path / "c5_12.el")
    assert main(["gen", "c5-blowup", "12", "--out", path]) == 0
    code, out, _ = run(capsys, *command, "--in", path, "--d", "24", "--guarantee", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_C5_STDOUT[command]


# sha256 of stdout on random_bipartite(1000, 1000, 0.008, seed 5) at d=5,
# --seed 7, taken before the bit-sliced ordering: its 730-vertex core fails the
# mask predicate (12 words against average degree 5.8), so it takes the heap
# ordering and lazily built masks. The conditional and edge-identity entries
# were taken later, before the trial evaluation was folded into one function.
FROZEN_SPARSE_CORE_STDOUT = {
    ("extract",):
        "4a5b569ee0108434976eba76240d29b4478f1115ac8e8c530a71c8bbe60e4f97",
    ("extract", "--json"):
        "4a5b569ee0108434976eba76240d29b4478f1115ac8e8c530a71c8bbe60e4f97",
    ("stats", "conditional", "--trials", "200"):
        "ec7ad2bb104ff1fcb2033ef9cb8da7fdeafe81181b1287ce29ccc93a1711908b",
    ("stats", "edge-identity", "--trials", "200"):
        "9f01aed10796c194e7c95c47845d7bede996d819a4253ad908d183c792fca8ce",
    ("stats", "potential", "--trials", "200"):
        "4aac65a72b42aac308da25797c9bc1275bb41efda867343a9ca4f7a06ec78539",
    ("stats", "survival", "--trials", "200"):
        "12b24be3de30a8681176561673863568b3c8258f4036ae9c545cc2abca93e256",
}


@pytest.mark.parametrize("command", sorted(FROZEN_SPARSE_CORE_STDOUT), ids=" ".join)
def test_frozen_stdout_sparse_core(command, tmp_path, capsys):
    path = str(tmp_path / "rb1000.el")
    gen = ["gen", "random-bipartite", "1000", "1000", "0.008", "--seed", "5", "--out", path]
    assert main(gen) == 0
    code, out, _ = run(capsys, *command, "--in", path, "--d", "5", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_SPARSE_CORE_STDOUT[command]


# sha256 of `stats potential --trials 5000 --seed 3` at the shape of the
# mc-potential benchmark, c5_blowup(60) at d=120, taken before trials were
# evaluated by the counts-only kernel: about a quarter of its layers are
# nonempty, and the floats come from integer numerators
FROZEN_MC_POTENTIAL_STDOUT = "e7e47f64adc1ec3e613ac7851f97fcba0bc8fc58a04018d15849ea2f43100284"


def test_frozen_stdout_at_the_mc_potential_shape(tmp_path, capsys):
    path = str(tmp_path / "c5_60.el")
    assert main(["gen", "c5-blowup", "60", "--out", path]) == 0
    code, out, _ = run(capsys, "stats", "potential", "--in", path, "--d", "120", "--guarantee",
                       "--trials", "5000", "--seed", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_MC_POTENTIAL_STDOUT


class TestVerify:
    def test_valid_pair(self, c5_file, capsys):
        code, out, _ = run(capsys, "verify", "--in", c5_file, "--I", "0,2", "--J", "1,3")
        assert code == 0
        assert json.loads(out)["average_degree"] == "3/2"

    def test_invalid_pair_exits_1(self, c5_file, capsys):
        code, out, _ = run(capsys, "verify", "--in", c5_file, "--I", "0", "--J", "1,2")
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_empty_sides_valid(self, c5_file, capsys):
        code, out, _ = run(capsys, "verify", "--in", c5_file, "--I", "", "--J", "")
        assert code == 0
        assert json.loads(out)["average_degree"] == "0/1"

    def test_bad_list_exits_2(self, c5_file, capsys):
        code, _, _ = run(capsys, "verify", "--in", c5_file, "--I", "a,b", "--J", "1")
        assert code == 2


def test_seed_env_var_is_ignored(k16_file, capsys, monkeypatch):
    # --seed alone sets the seed, and it defaults to 0
    monkeypatch.setenv("DENSEBIP_SEED", "12345")
    _, out_env, _ = run(capsys, "extract", "--in", k16_file, "--d", "16", "--guarantee", "--json")
    monkeypatch.delenv("DENSEBIP_SEED")
    _, out_flag, _ = run(
        capsys, "extract", "--in", k16_file, "--d", "16", "--guarantee", "--seed", "0", "--json"
    )
    assert out_env == out_flag


def test_runtime_needs_only_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, densebip.cli; print(densebip.cli.__file__, 'numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == [str(src / "densebip" / "cli.py"), "False"]


# Run in a fresh interpreter; a module counts as loaded only if it was not
# already in sys.modules when the probe started, as site may import some.
IMPORT_PROBE = """
import sys
bare = set(sys.modules)
import contextlib, io, json

def loaded():
    return sorted(set(sys.modules) - bare)

steps = {}
import densebip
steps["import"] = loaded()
import densebip.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [densebip.cli.main(
        ["extract", "--in", PATH, "--d", "16", "--workers", "2", "--json"])]
    steps["extract"] = loaded()
    codes.append(densebip.cli.main(
        ["stats", "potential", "--in", PATH, "--d", "16", "--guarantee", "--seed", "7",
         "--trials", "200", "--workers", "1"]))
    steps["stats"] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""


def test_commands_import_only_what_they_run(k16_file):
    src = Path(__file__).resolve().parents[1] / "src"
    # -S keeps site from importing typing first, as some .pth files do
    for flags in [(), ("-S",)]:
        done = subprocess.run(
            [sys.executable, *flags, "-c", f"PATH = {k16_file!r}\n" + IMPORT_PROBE],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60, check=True,
        )
        result = json.loads(done.stdout)
        assert result["codes"] == [0, 0]
        steps = {step: set(names) for step, names in result["steps"].items()}
        assert {m for m in steps["import"] if m.startswith("densebip.")} == set()
        assert {"densebip.cli", "densebip.extractor", "densebip.reducer"} <= steps["extract"]
        stdlib_unused = {"concurrent.futures", "dataclasses", "inspect", "typing"}
        unused = {"densebip.stats", "densebip.oracle", "densebip.generators", *stdlib_unused}
        assert unused & steps["extract"] == set()
        assert "densebip.stats" in steps["stats"]
        assert stdlib_unused & steps["stats"] == set()


# small versions of the four benchmark inputs, and the planted block with CRLF
# line ends and a comment, which the line parser reads
BENCHMARK_SHAPES = {
    "dense": (lambda: complete_bipartite(16, 16), 16),
    "shrink": (lambda: random_bipartite(40, 40, 0.6, 13), 16),
    "sparse": (lambda: planted_shell(1500, 16, 3000, seed=2), 16),
    "potential": (lambda: c5_blowup(8), 16),
}


@pytest.fixture(scope="module", params=[*BENCHMARK_SHAPES, "sparse crlf"])
def shape_file(request, tmp_path_factory):
    build, d = BENCHMARK_SHAPES[request.param.split()[0]]
    path = tmp_path_factory.mktemp("shapes") / "g.el"
    save_graph(build(), path)
    if request.param.endswith("crlf"):
        path.write_bytes(b"# planted\r\n" + path.read_bytes().replace(b"\n", b"\r\n"))
    return str(path), d


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extract_matches_the_whole_graph_run(shape_file, seed, capsys):
    path, d = shape_file
    code, out, _ = run(capsys, "extract", "--in", path, "--d", str(d), "--guarantee",
                       "--seed", str(seed), "--json")
    assert (code, out) == reference_extract_stdout(path, d, seed)


@pytest.mark.parametrize("seed", [0, 3])
def test_potential_matches_the_whole_graph_run(shape_file, seed, capsys):
    path, d = shape_file
    code, out, _ = run(capsys, "stats", "potential", "--in", path, "--d", str(d),
                       "--guarantee", "--seed", str(seed), "--trials", "40")
    assert (code, out) == reference_potential_stdout(path, d, seed, 40)
