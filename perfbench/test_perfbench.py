"""Tests of the benchmark harness itself.  Run: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

SMALL = {
    "verify-bounds": {
        "seed": 5,
        "expected_T": {"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.1, "trials": 40},
        "hitting_time": {"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.1, "trials": 30},
        "drift": {"loss": "hinge", "d": 6, "sigma": 1.2, "alpha": 0.1, "n_mc": 2000},
        "angle": {"loss": "logistic", "d": 8, "sigma": 0.3, "alpha": 0.05, "trials": 40},
        "target_delta": {"d": 6, "sigma": 0.8, "alpha": 0.1, "n_theta": 100},
    },
    "compare-stoppers": {
        "d": 8, "sigma": 0.5, "loss": "logistic", "alpha_tilde": 0.1, "trials": 3,
        "eval_samples": 400, "seed": 7,
        "stoppers": ["zero_overhead", "extra_sample", "svs_4", "zero_overhead_continue"],
    },
}


def _workload(command: str) -> workloads.Workload:
    return next(w for w in workloads.WORKLOADS.values() if w.command == command)


def _run(tmp_path: Path, command: str, mode: str, index: int = 0, reference=None):
    config = SMALL[command]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return run.run_command(
        _workload(command), config, config_path, tmp_path, index, mode, reference
    )


@pytest.mark.parametrize("command", sorted(SMALL))
def test_traced_counts_repeat_and_self_times_sum_to_wall(tmp_path, command):
    plain = _run(tmp_path, command, "0")
    first = _run(tmp_path, command, "1", reference=plain.sha256)
    second = _run(tmp_path, command, "1", reference=plain.sha256)
    assert not plain.problems and not first.problems and not second.problems
    assert plain.ref_s > 0  # the reference ran alongside the untraced command
    counts = [n for n in first.trace if run.per_layer_unit(n) == "count"]
    assert {n: first.trace[n] for n in counts} == {n: second.trace[n] for n in counts}
    assert first.trace["sgd.iterations"] == plain.iterations > 0
    overhead = max(first.wall_s - plain.wall_s, 1e-3)
    total = sum(first.trace[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert abs(total - first.wall_s) <= overhead


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(run.SRC))
    try:
        import sgdstop.cli  # noqa: F401  (loads every layer module)

        modules = [sys.modules[f"sgdstop.{layer}"] for layer in spans.LAYERS]
        before = [dict(vars(m)) for m in modules]
        generator = sys.modules["sgdstop.numerics"].RngState.generator
        tracer = spans.Tracer().install()
        assert sys.modules["sgdstop.cli"].run is not before[-1]["run"]
        tracer.uninstall()
        assert [dict(vars(m)) for m in modules] == before
        assert sys.modules["sgdstop.numerics"].RngState.generator is generator
    finally:
        sys.path.remove(str(run.SRC))


def _tamper(output: bytes, stopper: str, column: str, delta: int) -> bytes:
    lines = output.decode().splitlines(keepends=True)
    header = lines[1].strip().split(",")
    col = header.index(column)
    for i, line in enumerate(lines[2:], start=2):
        fields = line.rstrip("\n").split(",")
        if fields[0] == stopper:
            fields[col] = str(int(fields[col]) + delta)
            lines[i] = ",".join(fields) + "\n"
            break
    return "".join(lines).encode()


@pytest.mark.parametrize("stopper", ["zero_overhead", "extra_sample", "svs_4", "zero_overhead_continue"])
@pytest.mark.parametrize("column", ["samples_consumed", "overhead"])
def test_gate_rejects_tampered_csv(tmp_path, stopper, column):
    config = SMALL["compare-stoppers"]
    out = tmp_path / "out.csv"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    record, _ = run.run_child(
        "0", ["compare-stoppers", "--config", str(config_path), "--out", str(out)],
        tmp_path / "child.json",
    )
    assert record["rc"] == 0
    output = out.read_bytes()
    assert workloads.check_compare(output, config).problems == []
    tampered = _tamper(output, stopper, column, 1)
    assert tampered != output
    assert workloads.check_compare(tampered, config).problems


def test_gate_rejects_svs_run_over_its_cap():
    config = {"trials": 1, "stoppers": ["svs_2"], "seed": 1}
    p, period = 2, 4
    k = (p + 1) * period + period
    row = f"svs_2,0,{k},{k + p},{p * (k // period + 1)},0.9,plateau\n"
    output = (
        "# config=0123456789ab seed=1\n"
        "stopper,trial,iterations,samples_consumed,overhead,accuracy,stop_reason\n" + row
    ).encode()
    problems = workloads.check_compare(output, config).problems
    assert any("cap" in p for p in problems)


def test_exits_nonzero_without_result_when_source_tree_is_absent(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "verify_readme",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
