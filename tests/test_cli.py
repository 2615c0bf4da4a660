import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from densebip.cli import main
from densebip.graph import load_graph, parse_edge_list


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

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "moebius", "3"])
        assert exc.value.code == 2


class TestExtract:
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

    def test_byte_identical_across_workers(self, k16_file, capsys):
        outputs = []
        for workers in ("1", "4"):
            code, out, _ = run(
                capsys, "extract", "--in", k16_file, "--d", "16", "--guarantee",
                "--seed", "0", "--workers", workers, "--json",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

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

    def test_retries_exhausted_exits_1(self, k16_file, capsys):
        code, out, _ = run(
            capsys, "extract", "--in", k16_file, "--d", "16", "--guarantee",
            "--seed", "2", "--max-retries", "1", "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert "error" in payload

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "extract", "--in", "/nonexistent.el", "--d", "16")
        assert code == 2

    def test_human_readable_output(self, k16_file, capsys):
        code, out, _ = run(
            capsys, "extract", "--in", k16_file, "--d", "16", "--guarantee", "--seed", "0",
        )
        assert code == 0
        assert "average degree" in out


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

    def test_missing_input_exits_2(self, capsys):
        code, _, _ = run(capsys, "stats", "potential", "--d", "16")
        assert code == 2

    def test_deterministic_json(self, k16_file, capsys):
        args = (
            "stats", "potential", "--in", k16_file, "--d", "16",
            "--guarantee", "--trials", "100", "--seed", "9",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args, "--workers", "2")
        assert out1 == out2


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


def test_seed_env_var_fallback(k16_file, capsys, monkeypatch):
    monkeypatch.setenv("DENSEBIP_SEED", "0")
    _, out_env, _ = run(capsys, "extract", "--in", k16_file, "--d", "16", "--guarantee", "--json")
    _, out_flag, _ = run(
        capsys, "extract", "--in", k16_file, "--d", "16", "--guarantee", "--seed", "0", "--json"
    )
    assert out_env == out_flag
    # the flag wins over the environment
    monkeypatch.setenv("DENSEBIP_SEED", "12345")
    _, out_override, _ = run(
        capsys, "extract", "--in", k16_file, "--d", "16", "--guarantee", "--seed", "0", "--json"
    )
    assert out_override == out_flag


def test_runtime_needs_only_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, densebip.cli; print(densebip.cli.__file__, 'numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == [str(src / "densebip" / "cli.py"), "False"]
