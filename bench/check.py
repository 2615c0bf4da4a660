"""Checks applied to the CLI's output.

``check_repetition`` needs no graph: exit code and byte-identity with the
first good repetition. The measuring process applies it to every repetition.
``check_payload`` re-verifies the content of one output against the input
graph; since every repetition must be byte-identical, one call covers them
all. Both return the reasons for failure, empty when the output passed.
``tamper_selftest`` feeds the checks broken copies of a good output and
confirms that each one is rejected.
"""

from __future__ import annotations

import json


def check_repetition(returncode: int | None, stdout: bytes, reference: bytes | None) -> list[str]:
    """`returncode` None means a timeout; `reference` is the first good stdout."""
    if returncode is None:
        return ["timed out"]
    bad = [] if returncode == 0 else [f"exit code {returncode}"]
    if reference is not None and stdout != reference:
        bad.append("stdout differs from the first good repetition")
    return bad


def _check_extract(payload: dict, graph, input_sha256: str) -> list[str]:
    from densebip import GraphError, bipartite_pair_report

    bad = []
    if payload.get("valid") is not True:
        bad.append("valid is not true")
    checks = payload.get("guarantee_checks") or {}
    for key in ("meets_floor", "size_ratio_ok"):
        if checks.get(key) is not True:
            bad.append(f"guarantee_checks.{key} is not true")
    if payload.get("input_sha256") != input_sha256:
        bad.append("input_sha256 does not match the input file")
    try:
        report = bipartite_pair_report(graph, payload["I"], payload["J"])
    except (KeyError, TypeError, GraphError) as exc:
        return bad + [f"cannot re-verify the pair: {exc!r}"]
    if not report.valid:
        bad.append(f"re-verification: {report.reason}")
    if report.cross_edges != payload.get("cross_edges"):
        bad.append(f"cross_edges {payload.get('cross_edges')} != {report.cross_edges}")
    average = f"{report.average_degree.numerator}/{report.average_degree.denominator}"
    if average != payload.get("average_degree"):
        bad.append(f"average_degree {payload.get('average_degree')} != {average}")
    return bad


def _check_potential(payload: dict, trials: int, input_sha256: str) -> list[str]:
    bad = []
    if payload.get("passed") is not True:
        bad.append("passed is not true")
    if payload.get("trials") != trials:
        bad.append(f"trials {payload.get('trials')} != requested {trials}")
    rate = payload.get("success_rate")
    if not isinstance(rate, (int, float)) or not rate > 0:
        bad.append(f"success_rate {rate!r} is not positive")
    if payload.get("input_sha256") != input_sha256:
        bad.append("input_sha256 does not match the input file")
    return bad


def check_payload(workload, stdout: bytes, graph, input_sha256: str) -> list[str]:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    if not isinstance(payload, dict):
        return ["stdout is not a JSON object"]
    if workload.kind == "extract":
        return _check_extract(payload, graph, input_sha256)
    return _check_potential(payload, workload.trials, input_sha256)


def _dump(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def tamper_selftest(workload, stdout: bytes, graph, input_sha256: str) -> list[str]:
    """Problems found: a tampered output the checks accepted, or a good one they refused."""
    def rejected(code: int, text: bytes) -> bool:
        return bool(check_repetition(code, text, None) or
                    check_payload(workload, text, graph, input_sha256))

    problems = []
    if rejected(0, stdout):
        problems.append("the untampered output is rejected")
    good = json.loads(stdout)
    cases = {
        "non-zero exit": (1, stdout),
        "wrong hash": (0, _dump(dict(good, input_sha256="0" * 64))),
    }
    if workload.kind == "extract":
        overlap = sorted(set(good["J"]) | {good["I"][0]})
        cases["overlapping sides"] = (0, _dump(dict(good, J=overlap)))
    for label, (code, text) in cases.items():
        if not rejected(code, text):
            problems.append(f"tampered output ({label}) was accepted")
    return problems
