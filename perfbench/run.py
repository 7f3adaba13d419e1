"""Benchmark for the sgdstop CLI: fixed workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

NAME is one of sweep_d500, compare_d100, verify_readme, real_idx784 (see
``workloads.py`` for the configs and why each is in the set).  The loop is
closed: one command at a time, each in a fresh interpreter started from
``src/`` with BLAS/OpenMP pinned to one thread, so at most two processes
(this one and the child) exist at once.  Commands repeat until ``--seconds``
is spent (at least three, or one traced round), each after a child that only
imports the CLI (a set-up sample), and every output goes through the
workload's correctness gate and must be byte-identical to the first.

With ``--trace 0`` the end-to-end metrics are medians over the commands:

    wall_ref       seconds inside ``sgdstop.cli.main`` for one command, divided
                   by the mean time of the reference computation interleaved
                   with it in the same child (``child.py``): the command's
                   time in units of the reference
    iters_per_ref  SGD updates (counted from the command's output) per
                   reference time: ``updates / wall_ref``
    setup_s        child start until the CLI is imported: interpreter plus
                   ``import sgdstop.cli``; two samples per command
    peak_rss_mb    peak resident memory of the child

Times are divided by the reference because the host's speed drifts by up to
a factor of two within seconds and between minutes, which no run length
averages away; the quotient follows the program and hardly the host.  The
seconds themselves, ``wall_s`` (median and tail) and ``iters_per_s``, are
printed on the lines before the result.

Runs that fail the gate are the ``failed`` count of the result line; their
share of ``attempted`` is the failed ratio.  With ``--trace 1`` each round
runs the command untraced and then traced (``spans.py``), and reports the
per-layer self times and work counts of the traced runs, plus the traced
wall and its excess over the untraced wall.  Counts must repeat exactly
between rounds.

The last line of standard output is the JSON result; the lines before it
give every sample, the output digests, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_COMMANDS = 3
CHILD_TIMEOUT_S = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_ref": "ref", "iters_per_ref": "1/ref", "setup_s": "s", "peak_rss_mb": "MB"}

# Self times of code that some workloads never enter (verify and theory run
# only on some, parsing only on real_idx784, ...).  There they read exactly
# 0.0 on every run, which a result line must not carry as a time, so they
# are printed with the other per-layer values but kept out of the result.
PRINTED_ONLY = ("theory.self_s", "verify.self_s", "data.centering_s", "data.parse_s", "data.score_s")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "sgd.us_per_iter":
        return "us"
    if name == "data.draw_yield":
        return "ratio"
    return "count"


class HarnessError(Exception):
    """A child failed to run or report (crash, timeout, or another sgdstop imported)."""


@dataclass
class Command:
    """One CLI command run in a child process and checked."""

    wall_s: float
    ref_s: float  # mean reference-chunk time during the command (0 if traced)
    setup_s: float
    rss_mb: float
    iterations: int
    sha256: str
    problems: list[str]
    details: dict
    trace: dict | None = None


@dataclass
class Run:
    commands: list[Command] = field(default_factory=list)
    traced: list[Command] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(mode: str, cli_args: list[str], result_path: Path) -> tuple[dict, float]:
    """Run child.py; return its result record and the set-up seconds."""
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, *cli_args]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child {mode} {cli_args[:1]} ran over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise HarnessError(f"child exited {proc.returncode}: {' | '.join(tail)}")
    record = json.loads(result_path.read_text())
    result_path.unlink()
    if not Path(record["sgdstop_file"]).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"child imported sgdstop from {record['sgdstop_file']}, not {SRC}")
    return record, record["t_ready"] - t_spawn


def run_command(
    wl: Workload, config: dict, config_path: Path, workdir: Path, index: int,
    mode: str, reference: str | None,
) -> Command:
    out = workdir / f"out-{index}.{wl.out_ext}"
    cli_args = [wl.command, "--config", str(config_path), "--out", str(out)]
    record, setup_s = run_child(mode, cli_args, workdir / "child.json")
    problems: list[str] = []
    if record["rc"] != 0:  # every workload's command is expected to succeed
        problems.append(f"exit code {record['rc']}, expected 0")
    output = out.read_bytes() if out.exists() else b""
    sha = hashlib.sha256(output).hexdigest()
    iterations, details = 0, {}
    try:
        outcome = wl.check(output, config)
    except (ValueError, KeyError, TypeError) as e:  # unparseable output
        problems.append(f"output does not parse: {e!r}")
    else:
        problems += outcome.problems
        iterations, details = outcome.iterations, outcome.details
    if reference is not None and sha != reference:
        problems.append(f"output sha256 {sha[:16]} differs from the first run's {reference[:16]}")
    if out.exists():
        out.unlink()
    return Command(
        wall_s=record["wall_s"], ref_s=statistics.fmean(record.get("ref_s", [0.0])),
        setup_s=setup_s, rss_mb=record["peak_rss_kb"] / 1024.0,
        iterations=iterations, sha256=sha, problems=problems, details=details,
        trace=record.get("trace"),
    )


def measure(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    """Repeat the workload's command for ``seconds`` (at least MIN_COMMANDS times)."""
    config = wl.make_config(workdir, seed)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    probe = workdir / "probe.json"
    run_child("probe", [], probe)  # warm the page and bytecode caches, untimed
    result = Run()
    reference = None
    rounds = 0
    start = time.perf_counter()
    last = 0.0
    min_rounds = 1 if trace else MIN_COMMANDS
    while rounds < min_rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        if not trace:
            result.setups.append(run_child("probe", [], probe)[1])
        cmd = run_command(wl, config, config_path, workdir, len(result.commands), "0", reference)
        reference = reference or cmd.sha256
        result.commands.append(cmd)
        result.setups.append(cmd.setup_s)
        if trace:
            traced = run_command(wl, config, config_path, workdir, len(result.commands), "1", reference)
            result.traced.append(traced)
        last = time.perf_counter() - t0
        rounds += 1
    return result


def tail_note(values: list[float]) -> str:
    """Median plus the highest percentile that has at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    note = f"median {statistics.median(values):.6g} over {n} samples"
    if n > 20:
        pct = 100 * (n - 10) // n
        note += f", p{pct} {ordered[n - 11]:.6g} (10 samples beyond it)"
    else:
        note += "; no percentile above the median has 10 samples beyond it"
    return note


def end_to_end(run: Run) -> dict[str, float]:
    good = [c for c in run.commands if not c.problems] or run.commands
    return {
        "wall_ref": statistics.median(c.wall_s / c.ref_s for c in good),
        "iters_per_ref": statistics.median(c.iterations * c.ref_s / c.wall_s for c in good),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": statistics.median(c.rss_mb for c in good),
    }


def per_layer(run: Run) -> tuple[dict[str, float], list[str]]:
    """Medians of the traced runs' metrics; counts must agree across runs."""
    problems = []
    traces = [c.trace for c in run.traced]
    first = traces[0]
    for name in first:
        if per_layer_unit(name) == "count" and any(t[name] != first[name] for t in traces):
            problems.append(f"count {name} differs between traced runs: {[t[name] for t in traces]}")
    metrics = {
        name: first[name] if per_layer_unit(name) == "count" else statistics.median(t[name] for t in traces)
        for name in first
    }
    walls = [c.wall_s for c in run.traced]
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = statistics.median(
        t.wall_s - u.wall_s for t, u in zip(run.traced, run.commands)
    )
    for cmd in run.traced:
        if cmd.trace["sgd.iterations"] != cmd.iterations:
            problems.append(
                f"traced sgd.iterations {cmd.trace['sgd.iterations']} != "
                f"{cmd.iterations} updates in the output"
            )
    return metrics, problems


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": 1,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and print its samples; return the result object."""
    wl = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        run = measure(wl, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    for i, c in enumerate(run.commands + run.traced):
        kind = "traced" if i >= len(run.commands) else "command"
        status = "ok" if not c.problems else "FAIL " + "; ".join(c.problems)
        print(
            f"# {kind} {i}: wall {c.wall_s:.4f} s, ref {c.ref_s:.5f} s, setup {c.setup_s:.4f} s, "
            f"rss {c.rss_mb:.1f} MB, {c.iterations} updates, sha256 {c.sha256[:16]}, {status}"
        )
    if run.commands and run.commands[0].details:
        print(f"# details {json.dumps(run.commands[0].details, sort_keys=True)}")
    attempted = len(run.commands) + len(run.traced)
    failed = sum(1 for c in run.commands + run.traced if c.problems)
    if trace:
        metrics, problems = per_layer(run)
        for name, value in metrics.items():
            print(f"# {name} {value:.6g} {per_layer_unit(name)}")
        for p in problems:
            print(f"# FAIL {p}")
        correct = failed == 0 and not problems
        metrics = {k: v for k, v in metrics.items() if k not in PRINTED_ONLY}
    else:
        metrics = end_to_end(run)
        print(f"# wall_ref {tail_note([c.wall_s / c.ref_s for c in run.commands])}")
        print(f"# wall_s {tail_note([c.wall_s for c in run.commands])}")
        print(f"# iters_per_s median {statistics.median(c.iterations / c.wall_s for c in run.commands):.6g}")
        print(f"# ref_s {tail_note([c.ref_s for c in run.commands])}")
        print(f"# setup_s {tail_note(run.setups)}")
        correct = failed == 0
    print(f"# failed_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    unit = per_layer_unit if trace else END_TO_END_UNITS.__getitem__
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if not (SRC / "sgdstop" / "cli.py").is_file():
        print(f"error: no sgdstop source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for n, r in results.items():
            print(f"# {n}: " + ", ".join(
                f"{k} {m['value']:.6g} {m['unit']}" for k, m in r["metrics"].items()
            ))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()
            },
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
