"""End-to-end acceptance checks.

Each test exercises one named criterion at its stated tolerance and prints a
single PASS/FAIL line (visible even without -s), so a full run reads as a
checklist.  Tolerances and budgets are fixed here on purpose: loosening them
is a behavior change, not a test fix.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import write_config, write_mnist_style_fixture
from sgdstop.cli import EXIT_DATA_MISSING, EXIT_OK, main
from sgdstop.data import (
    Cifar10Error,
    CsvError,
    IdxError,
    ParseError,
    load_cifar10_batch,
    load_csv_points,
    load_idx,
    student_t2_mixture_sampler,
)
from oracles import fold, gauss_hermite_rule, ray_derivative, ray_objective, standard_normals
from sgdstop.losses import LossKind
from sgdstop.numerics import RngState
from sgdstop.sgd import SgdConfig, StopReason, StopRule, run
from sgdstop.theory import (
    GaussianFoldedModel,
    angle_bound,
    low_regime_expected_T_bound,
    minimizer_rho_star,
    regime_set,
    termination_probability,
)
from sgdstop.verify import (
    check_drift_inequality,
    estimate_angle_deviation,
    estimate_expected_T,
    estimate_hitting_time,
    make_drift_probes,
)
from conftest import idx_bytes

BOTH = [LossKind.LOGISTIC, LossKind.HINGE]


def _report(capsys, num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_01_accuracy_ratio_sweep(tmp_path, capsys):
    """d = 500 noise sweep: mean accuracy/optimal ratio >= 0.93 per sigma."""
    t0 = time.perf_counter()
    cfg = write_config(
        tmp_path / "sweep.json",
        {
            "d": 500,
            "sigma_grid": [0.05, 0.5, 1.0, 1.5, 2.0],
            "losses": ["logistic", "hinge"],
            "alpha_tilde": 0.1,
            "trials": 10,
            "seed": 1001,
            "out": str(tmp_path / "sweep.csv"),
        },
    )
    rc = main(["sweep-sigma", "--config", cfg])
    elapsed = time.perf_counter() - t0
    ratios: dict[float, list[float]] = {}
    with open(tmp_path / "sweep.csv") as f:
        f.readline()  # provenance comment
        for row in csv.DictReader(f):
            ratios.setdefault(float(row["sigma"]), []).append(float(row["ratio"]))
    per_sigma = {s: float(np.mean(v)) for s, v in sorted(ratios.items())}
    worst_sigma, worst = min(per_sigma.items(), key=lambda kv: kv[1])
    ok = (
        rc == EXIT_OK
        and len(per_sigma) == 5
        and all(len(v) == 20 for v in ratios.values())
        and worst >= 0.93
        and elapsed < 120.0
    )
    _report(capsys, 1, "accuracy ratio >= 0.93 per sigma", ok,
            f"min mean ratio {worst:.4f} at sigma={worst_sigma}, {elapsed:.1f}s")
    assert rc == EXIT_OK
    assert worst >= 0.93, per_sigma
    assert elapsed < 120.0


def test_criterion_02_expected_T_finite_and_bounded(capsys):
    """Extra-sample rule, 500 trials per loss: no censoring, mean T <= bound."""
    t0 = time.perf_counter()
    mu = np.zeros(10)
    mu[0] = 1.0
    model = GaussianFoldedModel(mu, 0.1)
    details = []
    ok = True
    for i, kind in enumerate(BOTH):
        cfg = SgdConfig(kind, 0.1, max_iter=10**6, rule=StopRule.extra_sample())
        stats = estimate_expected_T(model, cfg, 500, RngState(2002 + i))
        bound = low_regime_expected_T_bound(kind, model, 0.1)
        ok = ok and stats.n_censored == 0 and stats.mean <= bound
        details.append(f"{kind.value} mean T {stats.mean:.1f} <= {bound:.3g}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(capsys, 2, "stopping time finite within bound", ok,
            "; ".join(details) + f", {elapsed:.1f}s")
    assert ok, details
    assert elapsed < 60.0


def test_criterion_03_angle_deviation_bound(capsys):
    """Orthogonal deviation of the stopped iterate within the martingale bound."""
    t0 = time.perf_counter()
    d, sigma, alpha = 20, 0.3, 0.05
    mu = np.zeros(d)
    mu[0] = 1.0
    v = np.zeros(d)
    v[1] = 1.0
    model = GaussianFoldedModel(mu, sigma)
    cfg = SgdConfig(LossKind.LOGISTIC, alpha, max_iter=10**6)
    dev, times = estimate_angle_deviation(model, cfg, v, 500, RngState(3003))
    factor = sigma * alpha * math.sqrt(2.0 / math.pi)
    bound = angle_bound(sigma, alpha, times.mean)
    slack = 3.0 * math.hypot(dev.stderr, factor * times.stderr)
    elapsed = time.perf_counter() - t0
    ok = (
        dev.n_censored == 0
        and dev.mean <= bound + slack
        and elapsed < 60.0
    )
    _report(capsys, 3, "angle deviation bound", ok,
            f"mean |v.theta_T| {dev.mean:.4f} <= {bound:.4f} + {slack:.4f}, {elapsed:.1f}s")
    assert ok, (dev, times, bound, slack)


def test_criterion_04_minimizer_correctness(capsys):
    """rho* zeroes the ray derivative, wins the grid argmin, solves its equation."""
    from scipy.special import log_ndtr

    t0 = time.perf_counter()
    # the objective is so flat at the smallest ratio (~1e-12 per grid cell)
    # that the grid needs a finer quadrature rule than the default
    rule = gauss_hermite_rule(256)
    mu_norm = 1.0
    ok = True
    worst_grid = 0.0
    worst_resid = 0.0
    for kind in BOTH:
        for ratio in (0.25, 0.5, 1.0, 2.0):
            sigma = ratio * mu_norm
            rho = minimizer_rho_star(kind, mu_norm, sigma)
            ok = ok and abs(ray_derivative(kind, rho, mu_norm, sigma)) <= 1e-8 * mu_norm**2
            step = 1e-4 * rho
            grid = rho + step * np.arange(-50, 51)
            vals = [ray_objective(kind, float(r), mu_norm, sigma, rule=rule) for r in grid]
            off = abs(float(grid[int(np.argmin(vals))]) - rho)
            worst_grid = max(worst_grid, off / step)
            ok = ok and off <= step + 1e-15
            if kind is LossKind.HINGE:
                # the solved tilt w must satisfy its defining equation
                r = rho * sigma * sigma
                w = sigma / (mu_norm * r) - mu_norm / sigma
                resid = abs(
                    float(log_ndtr(w)) + 0.5 * w * w
                    - math.log(sigma / (mu_norm * math.sqrt(2.0 * math.pi)))
                )
                worst_resid = max(worst_resid, resid)
                ok = ok and resid <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(capsys, 4, "ray minimizer correctness", ok,
            f"worst grid offset {worst_grid:.2f} cells, "
            f"worst hinge residual {worst_resid:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_drift_inequality(capsys):
    """One-step drift <= -alpha |mu|^2 at every probe; alpha = 0 must fail."""
    t0 = time.perf_counter()
    d, alpha = 10, 0.1
    mu = np.zeros(d)
    mu[0] = 1.0
    cases = [(LossKind.LOGISTIC, 0.1), (LossKind.HINGE, 0.1), (LossKind.HINGE, 1.2)]
    ok = True
    worst = -math.inf
    for i, (kind, sigma) in enumerate(cases):
        model = GaussianFoldedModel(mu, sigma)
        rset = regime_set(kind, model, alpha)
        rng = RngState(5005 + i)
        probes = make_drift_probes(rset, [-5.0, 0.0, 0.9], rng.substream(0))
        checks = check_drift_inequality(rset, probes, 20_000, rng.substream(1))
        for c in checks:
            ok = ok and c.passed
            worst = max(worst, c.estimate + c.decrement)
    # negative control: a zero step produces zero drift and must not pass
    model0 = GaussianFoldedModel(mu, 0.1)
    rset0 = regime_set(LossKind.LOGISTIC, model0, 0.0)
    rng0 = RngState(5999)
    probes0 = make_drift_probes(rset0, [-5.0, 0.0, 0.9], rng0.substream(0))
    control = check_drift_inequality(rset0, probes0, 20_000, rng0.substream(1))
    control_fails = all(not c.passed for c in control)
    elapsed = time.perf_counter() - t0
    ok = ok and control_fails and elapsed < 30.0
    _report(capsys, 5, "drift decrement at probes", ok,
            f"worst estimate-(-b) gap {worst:.2f} < 0, zero-step control "
            f"{'fails' if control_fails else 'PASSED (bad)'}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_hitting_time_bound(capsys):
    """Mean first entry into the low target set <= M^2 / (alpha |mu|^2)."""
    t0 = time.perf_counter()
    mu = np.zeros(10)
    mu[0] = 1.0
    model = GaussianFoldedModel(mu, 0.1)
    alpha = 0.1
    rset = regime_set(LossKind.LOGISTIC, model, alpha)
    stats = estimate_hitting_time(np.zeros(10), rset, 10**6, 300, RngState(6006))
    bound = rset.M**2 / (alpha * model.mu_norm**2)
    elapsed = time.perf_counter() - t0
    ok = stats.n_censored == 0 and stats.mean <= bound and elapsed < 30.0
    _report(capsys, 6, "hitting time bound", ok,
            f"mean {stats.mean:.1f} <= {bound:.3g}, {elapsed:.1f}s")
    assert ok, stats


def test_criterion_07_firing_probability_on_target(capsys):
    """Exact check: mean margin >= 1 implies firing probability >= 1/2."""
    mu = np.zeros(6)
    mu[0] = 1.0
    model = GaussianFoldedModel(mu, 0.8)
    gen = RngState(7007).generator()
    mu2 = model.mu_norm**2
    worst = 1.0
    for _ in range(1000):
        g = standard_normals(gen, 6)
        lift = abs(standard_normals(gen, 1)[0])
        theta = g + ((1.0 + lift) - float(model.mu @ g)) / mu2 * model.mu
        assert float(model.mu @ theta) >= 1.0 - 1e-12
        worst = min(worst, termination_probability(theta, model))
    ok = worst >= 0.5
    _report(capsys, 7, "firing probability >= 1/2 on target set", ok,
            f"min over 1000 classifiers {worst:.6f}")
    assert ok


def test_criterion_08_svs_iteration_cap(capsys):
    """Validation-set rule halts within (p+1) * 2p iterations on any stream."""
    t0 = time.perf_counter()
    sigmas = [0.0, 0.1, 0.5, 2.0, 5.0]
    alphas = [0.01, 0.1, 1.0]
    ok = True
    worst_fill = 0.0
    for seed in range(200):
        d = (seed % 4) + 2
        mu = np.zeros(d)
        mu[0] = 1.0
        rng = RngState(8000 + seed)
        if seed % 5 == 4:
            # heavy-tailed stress stream
            stream = (
                xi
                for block in student_t2_mixture_sampler(0.3, d, rng)
                for xi in fold(block, np.zeros(d))
            )
        else:
            from sgdstop.data import folded_gaussian_stream

            stream = folded_gaussian_stream(mu, sigmas[seed % len(sigmas)], rng)
        for p in (1, 4, 16):
            rule = StopRule.small_validation(p)
            cfg = SgdConfig(
                LossKind.LOGISTIC if seed % 2 else LossKind.HINGE,
                alphas[seed % len(alphas)],
                max_iter=10**6,
                rule=rule,
            )
            res = run(stream, cfg)
            cap = (p + 1) * 2 * p
            ok = ok and res.stop_reason is StopReason.PLATEAU and res.iterations <= cap
            worst_fill = max(worst_fill, res.iterations / cap)
    elapsed = time.perf_counter() - t0
    _report(capsys, 8, "validation rule iteration cap", ok,
            f"200 seeds x p in {{1,4,16}}, worst fill {worst_fill:.2f}, {elapsed:.1f}s")
    assert ok


def test_criterion_09_byte_identical_reruns(tmp_path, capsys):
    """Every command writes byte-identical output for a fixed (config, seed)."""
    t0 = time.perf_counter()
    paths = write_mnist_style_fixture(tmp_path / "mnist", n_train=200, n_test=60)
    configs = {
        "sweep-sigma": {
            "d": 8, "sigma_grid": [0.1, 1.0], "losses": ["logistic", "hinge"],
            "alpha_tilde": 0.1, "trials": 3, "seed": 90,
        },
        "compare-stoppers": {
            "d": 8, "sigma": 0.5, "loss": "hinge", "alpha_tilde": 0.1,
            "trials": 3, "eval_samples": 400,
            "stoppers": ["zero_overhead", "zero_overhead_continue", "svs_2", "extra_sample"],
            "seed": 91,
        },
        "verify-bounds": {
            "seed": 92,
            "expected_T": {"loss": "hinge", "d": 6, "sigma": 0.1, "alpha": 0.1, "trials": 30},
            "drift": {"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.1, "n_mc": 2000},
            "target_delta": {"d": 6, "sigma": 0.8, "alpha": 0.1, "n_theta": 100},
        },
        "run-real": {
            "dataset": "mnist", **paths, "class_a": 1, "class_b": 8,
            "alpha_tilde": 0.005, "trials": 2,
            "stoppers": ["zero_overhead", "svs_4"], "seed": 93,
        },
    }
    ok = True
    details = []
    for command, values in configs.items():
        ext = "json" if command == "verify-bounds" else "csv"
        outs = [tmp_path / f"{command}-{i}.{ext}" for i in (1, 2)]
        cfg = write_config(tmp_path / f"{command}.json", values)
        for out in outs:
            rc = main([command, "--config", cfg, "--out", str(out)])
            ok = ok and rc == EXIT_OK
        same = outs[0].read_bytes() == outs[1].read_bytes()
        ok = ok and same
        details.append(f"{command}:{'=' if same else '!='}")
    # cross-process check for one command
    cfg = tmp_path / "sweep-sigma.json"
    for i in (3, 4):
        proc = subprocess.run(
            [sys.executable, "-m", "sgdstop.cli", "sweep-sigma",
             "--config", str(cfg), "--out", str(tmp_path / f"proc-{i}.csv")],
            capture_output=True,
        )
        ok = ok and proc.returncode == EXIT_OK
    same_proc = (tmp_path / "proc-3.csv").read_bytes() == (tmp_path / "proc-4.csv").read_bytes()
    ok = ok and same_proc
    elapsed = time.perf_counter() - t0
    _report(capsys, 9, "byte-identical reruns", ok,
            " ".join(details) + f" cross-process:{'=' if same_proc else '!='}, {elapsed:.1f}s")
    assert ok, details


def test_criterion_10_parser_fidelity(capsys):
    """Golden fixtures round-trip byte-exactly; 10^4 fuzz inputs raise typed errors."""
    t0 = time.perf_counter()
    ok = True

    # IDX round-trips
    vec_raw = idx_bytes(0x00000801, (11,), bytes(range(11)))
    vec = load_idx(vec_raw)
    ok = ok and idx_bytes(0x00000801, vec.shape, vec.tobytes()) == vec_raw
    img_payload = bytes((i * 31 + 7) % 256 for i in range(2 * 4 * 5))
    img_raw = idx_bytes(0x00000803, (2, 4, 5), img_payload)
    img = load_idx(img_raw)
    ok = ok and idx_bytes(0x00000803, img.shape, img.tobytes()) == img_raw

    # CIFAR round-trip: the label and pixel arrays rebuild the records
    rec = bytes([7]) + bytes((i * 13) % 256 for i in range(3072))
    labels, pixels = load_cifar10_batch(rec + rec)
    rebuilt = np.column_stack([labels, pixels]).tobytes()
    ok = ok and rebuilt == rec + rec

    # fuzz: every random blob either parses or raises the parser's own error
    gen = RngState(1010).generator()
    n_fuzz = 10_000
    for i in range(n_fuzz):
        n = int(gen.integers(0, 80))
        blob = gen.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        try:
            load_idx(blob)
        except IdxError:
            pass
        except Exception:
            ok = False
        try:
            load_cifar10_batch(blob)
        except Cifar10Error:
            pass
        except Exception:
            ok = False
        try:
            load_csv_points(blob.decode("latin-1"))
        except CsvError:
            pass
        except Exception:
            ok = False
    elapsed = time.perf_counter() - t0
    _report(capsys, 10, "parser fidelity", ok,
            f"round-trips exact, {n_fuzz} fuzz inputs typed-error only, {elapsed:.1f}s")
    assert ok


def _mnist_search_dir() -> Path:
    env = os.environ.get("MNIST_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "mnist"


def test_criterion_11_real_data_smoke(tmp_path, capsys):
    """MNIST present: 1-vs-8 run beats the class prior; absent: documented skip."""
    root = _mnist_search_dir()
    names = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }
    paths = {k: str(root / v) for k, v in names.items()}
    present = all(Path(p).exists() for p in paths.values())
    cfg = write_config(
        tmp_path / "real.json",
        {
            "dataset": "mnist",
            **paths,
            "class_a": 1,
            "class_b": 8,
            "alpha_tilde": 1.0 / 200.0,
            "seed": 1111,
            "out": str(tmp_path / "real.csv"),
        },
    )
    rc = main(["run-real", "--config", cfg])
    lines = (tmp_path / "real.csv").read_text().splitlines()
    if present:
        rows = list(csv.DictReader(lines[1:]))
        ok = rc == EXIT_OK and len(rows) >= 1 and all(
            float(r["accuracy"]) > float(r["baseline"]) for r in rows
        )
        acc = ", ".join(f"{float(r['accuracy']):.4f}>{float(r['baseline']):.4f}" for r in rows)
        _report(capsys, 11, "real-data smoke (files present)", ok, acc)
    else:
        ok = (
            rc == EXIT_DATA_MISSING
            and len(lines) == 2  # comment + header only
            and re.match(r"^# config=[0-9a-f]{12} seed=\d+$", lines[0]) is not None
        )
        _report(capsys, 11, "real-data smoke (files absent: skip path)", ok,
                f"exit code {rc}, header-only output")
    assert ok
