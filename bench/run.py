"""Benchmark of the densebip command line, end to end and layer by layer.

    python3 bench/run.py --workload extract-dense --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

Each workload is a closed loop with one client. A child builds the input from
the seed (tasks.py prepare). Then the loop spawns
``python -m densebip.cli ...`` with only this tree's ``src`` on PYTHONPATH,
waits for it, checks its exit code and that its stdout equals the first good
one, and repeats until the time is up. Before every second repetition a child
that only imports ``densebip.cli`` measures set-up time. Wall time, CPU time and
peak RSS of each child come from ``os.wait4`` on that child alone; CPU and RSS
include the pool workers it reaped. Afterwards a child (tasks.py verify)
re-checks the output against the input file and, with ``--trace 1``, runs the
traced in-process passes that give the per-layer metrics.

Times are stated at a fixed machine speed. On a shared 2-vCPU Xeon VM
(Python 3.11.7) the host's other tenants change both how fast a core runs and
how long a runnable process waits for one: the CPU time of one identical call
moved between 0.65 and 1.2 s in regimes lasting tens of seconds to minutes,
and its wall time could exceed its CPU time by up to a second in bursts. Raw
means of ten 25 s runs spread (IQR/median) by up to 0.23. So before every
call the loop spawns ``reference.py``, a fixed pure-Python job that imports
nothing of this tree, and scales by its times:

    wall_norm_s = mean(call wall)       * REF_S / mean(reference wall)
    cpu_norm_s  = mean(call CPU)        * REF_S / mean(reference CPU)
    setup_s     = median(set-up wall)   * REF_S / mean(reference wall)

Over ten runs per workload (seeds 100-109) the raw mean wall time spread by
0.11-0.15, wall_norm_s by 0.05-0.07 and cpu_norm_s by 0.04-0.09. A change to
the program moves these figures as it moves the raw times, since the reference
is the benchmark's own code; the raw means and medians are printed and kept
in the record. Means are used for calls because the regimes make call times
bimodal; set-up uses a median because its few samples catch the wait bursts.
peak_rss_mb is the raw median: memory does not drift.

Only one child runs at a time. This process never imports densebip and holds
no graph: a child's ``ru_maxrss`` starts from the RSS of the process that
spawned it.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. ``--workload all`` runs
every workload with tracing and prints both. The exit code is 0 only when
every check passed. A full record (environment, input, samples, spans) is
written under ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import check_repetition
from spans import PER_LAYER
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
TREE = BENCH_DIR.parent
SRC = TREE / "src"
WORK = BENCH_DIR / ".work"

# A repetition normally takes under 10 s; a whole run must end within 180 s.
CHILD_TIMEOUT_S = 60
TASK_TIMEOUT_S = 120
MIN_REPS = 3
MIN_SETUP_REPS = 5
SETUP_EVERY = 2  # a set-up child before every second repetition
# Share of --seconds given to untraced repetitions in a traced run; the two
# traced passes take roughly the rest.
TRACED_RUN_UNTRACED_SHARE = 0.5

# Wall and CPU time of reference.py at the machine speed the normalised
# metrics are stated at; on the VM described above it took 0.22-0.28 s.
REF_S = 0.25
REFERENCE = ["-I", str(BENCH_DIR / "reference.py")]

END_TO_END = {
    "wall_norm_s": "s",
    "cpu_norm_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


@dataclass(frozen=True)
class Child:
    """Outcome of one child process; `code` is None when it timed out."""

    code: int | None
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(args: list[str], env: dict[str, str], tag: str,
              timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Spawn `python args...`, wait for it alone, and take its rusage from wait4.

    The rusage covers the child and every descendant it reaped, such as pool
    workers. On timeout the child's process group is killed.
    """
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                             file_actions=actions, setpgroup=0)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                os.killpg(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
    code = os.waitstatus_to_exitcode(status) if ready else None
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    return Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 stdout, stderr)


def run_task(args: list[str], env: dict[str, str], tag: str) -> dict | None:
    """Run tasks.py with `args`; its JSON result, or None if it failed."""
    child = run_child([str(BENCH_DIR / "tasks.py"), *args], env, tag, TASK_TIMEOUT_S)
    if child.code != 0:
        print(f"tasks.py {args[0]} exited with {child.code}: {child.stderr.decode()[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(child.stdout.decode().splitlines()[-1])


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(TREE.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=TREE, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def prepare_input(env, workload, seed: int, tag: str) -> tuple[Path, dict]:
    """Build the input in a child; refuse a densebip imported from outside the tree."""
    path = WORK / f"{workload.name}-seed{seed}-{os.getpid()}.el"
    inp = run_task(["prepare", workload.name, str(seed), str(path)], env, tag)
    if inp is None:
        fail("could not build the input")
    if not Path(inp["densebip_file"]).resolve().is_relative_to(SRC):
        fail(f"the child imports densebip from {inp['densebip_file']}, outside {SRC}")
    if inp["problems"]:
        fail("; ".join(inp["problems"]))
    return path, inp


def run_workload(env, workload, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload.name}-{os.getpid()}"
    path, inp = prepare_input(env, workload, seed, tag)
    problems: list[str] = []
    setup, reps = [], []
    reference = None
    cli = ["-m", "densebip.cli", *workload.argv(str(path), seed)]
    budget = seconds * (TRACED_RUN_UNTRACED_SHARE if trace else 1.0)
    try:
        start = time.perf_counter()
        last = 0.0
        while len(reps) < MIN_REPS or time.perf_counter() - start + last <= budget:
            t0 = time.perf_counter()
            if len(reps) % SETUP_EVERY == 0:
                bare = run_child(["-c", "import densebip.cli"], env, tag)
                if bare.code != 0:
                    problems.append(f"set-up child exited with {bare.code}: "
                                    f"{bare.stderr.decode()[-300:]}")
                setup.append(bare.wall_s)
            ref = run_child(REFERENCE, env, tag)
            if ref.code != 0:
                problems.append(f"reference child exited with {ref.code}: "
                                f"{ref.stderr.decode()[-300:]}")
            child = run_child(cli, env, tag)
            reasons = check_repetition(child.code, child.stdout, reference)
            if reference is None and not reasons:
                reference = child.stdout
            reps.append({"wall_s": child.wall_s, "cpu_s": child.cpu_s,
                         "ref_wall_s": ref.wall_s, "ref_cpu_s": ref.cpu_s,
                         "peak_rss_mb": child.rss_mb, "code": child.code, "failed": reasons})
            if reasons:
                print(f"repetition {len(reps)} failed: {'; '.join(reasons)}; "
                      f"stderr: {child.stderr.decode()[-300:]}", file=sys.stderr)
            last = time.perf_counter() - t0
            if child.code is None:
                problems.append("a repetition timed out; the run stops there")
                break
        while len(setup) < MIN_SETUP_REPS:
            setup.append(run_child(["-c", "import densebip.cli"], env, tag).wall_s)

        raw = {key: statistics.fmean(r[key] for r in reps)
               for key in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")}
        raw["setup_s"] = statistics.median(setup)
        end_to_end = {
            "wall_norm_s": raw["wall_s"] * REF_S / raw["ref_wall_s"],
            "cpu_norm_s": raw["cpu_s"] * REF_S / raw["ref_cpu_s"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "setup_s": raw["setup_s"] * REF_S / raw["ref_wall_s"],
        }
        result = {
            "workload": workload.name, "seed": seed, "argv": cli[2:], "input": inp,
            "repetitions": reps, "setup_samples": setup, "raw": raw,
            "end_to_end": end_to_end,
        }
        if reference is None:
            problems.append("no repetition succeeded, so nothing was verified or traced")
        else:
            result.update(verify(env, workload, seed, path, inp, reference,
                                 raw["setup_s"], raw["wall_s"], trace, tag))
            problems += result.pop("problems")
            # Every repetition that passed check_repetition printed the reference.
            for rep in reps:
                if not rep["failed"]:
                    rep["failed"] = list(result["payload_problems"])
        result.update(attempted=len(reps), failed=sum(1 for r in reps if r["failed"]),
                      problems=problems)
        return result
    finally:
        path.unlink(missing_ok=True)


def verify(env, workload, seed, path, inp, reference: bytes, setup_s: float,
           wall_s: float, trace: bool, tag: str) -> dict:
    """Re-check the output in a child and, when tracing, run the traced passes there."""
    ref_path = WORK / f"{tag}.reference"
    ref_path.write_bytes(reference)
    args = ["verify", workload.name, str(seed), str(path), inp["sha256"], str(ref_path)]
    if trace:
        spans_path = WORK / f"{workload.name}-seed{seed}-spans.json"
        args += ["--trace", str(spans_path), "--setup-s", repr(setup_s),
                 "--wall-s", repr(wall_s)]
    try:
        done = run_task(args, env, tag)
    finally:
        ref_path.unlink()
    if done is None:
        return {"payload_problems": ["the verifying child failed"], "problems": []}
    if trace:
        done["spans_file"] = str(spans_path)
    return done


def check_benchmark_file() -> list[str]:
    """Metric names and units here must match BENCHMARK.json, when it is present."""
    spec_path = TREE / "BENCHMARK.json"
    if not spec_path.is_file():
        return []
    spec = json.loads(spec_path.read_text())
    problems = []
    for key, ours in (("end_to_end", END_TO_END),
                      ("per_layer", {k: u for k, (u, _) in PER_LAYER.items()})):
        theirs = {m["name"]: m["unit"] for m in spec.get(key, [])}
        if theirs != ours:
            problems.append(f"BENCHMARK.json {key} does not match bench/")
    return problems


def print_result(result: dict, environment: dict) -> None:
    inp = result["input"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"argv: densebip {' '.join(result['argv'])}")
    print(f"  input n={inp['n']} m={inp['m']} bytes={inp['bytes']} sha256={inp['sha256']} "
          f"generation {inp['gen_s']:.3f} s (not a metric)")
    print(f"  densebip {inp['densebip_file']}  python {inp['python']}  "
          f"nproc {environment['nproc']}  commit {environment['git_commit']}")
    reps = result["repetitions"]
    for name, unit in END_TO_END.items():
        value = result["end_to_end"][name]
        if name == "peak_rss_mb":
            samples = [r[name] for r in reps]
            how = f"median of {len(samples)}, min {min(samples):.6f}, max {max(samples):.6f}"
        else:
            key = {"wall_norm_s": "wall_s", "cpu_norm_s": "cpu_s"}.get(name, name)
            ref = "ref_cpu_s" if key == "cpu_s" else "ref_wall_s"
            how = (f"mean of {len(reps)}" if name != "setup_s"
                   else f"median of {len(result['setup_samples'])}")
            how += (f": {result['raw'][key]:.6f} s raw, reference mean "
                    f"{result['raw'][ref]:.6f} s against {REF_S} s")
        print(f"  {name:<30} {value:>14.6f} {unit:<6} {how}")
    attempted = result["attempted"] + result.get("traced_attempted", 0)
    failed = result["failed"] + result.get("traced_failed", 0)
    print(f"  {'fail_ratio':<30} {failed / attempted:>14.6f} {'1':<6} "
          f"{failed} failed of {attempted} attempted")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<30} {value:>14.6f} {PER_LAYER[name][0]:<6} traced, --workers "
              + ("1 and 2" if name.startswith("parallel.") else "1"))
    for name in result.get("absent", []):
        print(f"  {name:<30} {'absent':>14}")
    if "layer_split" in result:
        shares = "  ".join(f"{k} {v:.1%}" for k, v in sorted(result["layer_split"].items()))
        print(f"  self-time split of cli.main: {shares}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "densebip" / "__init__.py").is_file():
        fail(f"no package source at {SRC}")
    WORK.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "DENSEBIP_SEED")}
    env["PYTHONPATH"] = str(SRC)
    environment = {"nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit()}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) or args.workload == "all"
    spec_problems = check_benchmark_file()

    results = []
    for name in names:
        result = run_workload(env, WORKLOADS[name], args.seed, args.seconds, trace)
        result["problems"] += spec_problems
        result["environment"] = environment
        out = WORK / f"{name}-seed{args.seed}-trace{int(trace)}.json"
        out.write_text(json.dumps(result, indent=1))
        print_result(result, environment)
        results.append(result)

    attempted = sum(r["attempted"] + r.get("traced_attempted", 0) for r in results)
    failed = sum(r["failed"] + r.get("traced_failed", 0) for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    if len(results) > 1:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": END_TO_END[k]}
                   for r in results for k, v in r["end_to_end"].items()}
    elif args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in results[0].get("per_layer", {}).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in results[0]["end_to_end"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
