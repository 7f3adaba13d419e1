"""The four benchmark workloads: CLI configs, input fixtures and output checks.

Each workload is one ``sgdstop`` command with a fixed config whose ``seed``
comes from the benchmark's ``--seed``.  ``check`` is the correctness gate
for one command's output: it returns the problems found (empty when the
output is correct), the number of SGD updates the output reports (the
numerator of ``iters_per_ref``), and details worth printing.

Why each workload is in the set:

sweep_d500
    The sampling-bound workload: Box-Muller in ``numerics.standard_normals``
    is over half the time, sampler blocks are mostly used, ``theory`` is
    nearly idle.
compare_d100
    The only workload that runs small-validation-set scoring at three sizes
    of p, ``continue_run``, and the CLI's own eval-set folding.
verify_readme
    Many short trials: per-trial set-up, per-step Python overhead and block
    overdraw dominate.  The only workload that runs ``verify`` and calls
    ``theory`` on every step.
real_idx784
    ``numerics`` does no work, so it is the control for any sampling change.
    Per-sample folding at d=784 and dataset streaming dominate; the only
    workload that runs the IDX parser and the ``Dataset`` path.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

_PROVENANCE = re.compile(r"^# config=[0-9a-f]{12} seed=(\d+)$")


@dataclass(frozen=True)
class Outcome:
    problems: list[str]
    iterations: int
    details: dict


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    out_ext: str
    make_config: Callable[[Path, int], dict]
    check: Callable[[bytes, dict], Outcome]


# ---------------------------------------------------------------------------
# configs


def sweep_config(workdir: Path, seed: int) -> dict:
    """The d=500 accuracy sweep of the acceptance tests."""
    return {
        "d": 500,
        "sigma_grid": [0.05, 0.5, 1.0, 1.5, 2.0],
        "losses": ["logistic", "hinge"],
        "alpha_tilde": 0.1,
        "trials": 10,
        "seed": seed,
    }


def compare_config(workdir: Path, seed: int) -> dict:
    """The compare-stoppers config of the README."""
    return {
        "d": 100,
        "sigma": 0.5,
        "loss": "logistic",
        "alpha_tilde": 0.1,
        "trials": 20,
        "stoppers": ["zero_overhead", "svs_32", "svs_128", "svs_512", "zero_overhead_continue"],
        "seed": seed,
    }


def verify_config(workdir: Path, seed: int) -> dict:
    """The verify-bounds config of the README, all five sections."""
    return {
        "seed": seed,
        "expected_T": {"loss": "logistic", "d": 10, "sigma": 0.1, "alpha": 0.1, "trials": 500},
        "hitting_time": {"loss": "logistic", "d": 10, "sigma": 0.1, "alpha": 0.1, "trials": 300},
        "drift": {"loss": "hinge", "d": 10, "sigma": 1.2, "alpha": 0.1, "n_mc": 20000},
        "angle": {"loss": "logistic", "d": 20, "sigma": 0.3, "alpha": 0.05, "trials": 500},
        "target_delta": {"d": 6, "sigma": 0.8, "alpha": 0.1, "n_theta": 1000},
    }


def real_config(workdir: Path, seed: int) -> dict:
    """run-real on the MNIST-shaped fixture, cycling the data until a stop."""
    return {
        "dataset": "mnist",
        **write_idx_fixture(workdir / "idx", seed),
        "class_a": 1,
        "class_b": 8,
        "alpha_tilde": 0.01,
        "trials": 4,
        "epochs": None,
        "stoppers": ["zero_overhead", "extra_sample", "svs_64", "zero_overhead_continue"],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the MNIST-shaped fixture

# Classes 1 and 8 differ by +9 grey levels on 100 pixels each, under
# per-pixel noise of standard deviation 40.  Half the distance between the
# class means is then 1.6 noise standard deviations, so the classes overlap
# (optimal accuracy about 0.94) and a zero-overhead run at alpha_tilde 0.01
# lasts about 20k updates.  A separable fixture would fire within a few
# dozen updates and measure only parsing.
_FIXTURE_TRAIN = 12_000
_FIXTURE_TEST = 2_000
_FIXTURE_CLASSES = (1, 8, 3)
_FIXTURE_PRIORS = (0.45, 0.45, 0.10)  # class 3 is filtered out by the task
_FIXTURE_PIXELS = 100
_FIXTURE_SHIFT = 9.0
_FIXTURE_NOISE = 40.0


def _idx_bytes(magic: int, dims: tuple[int, ...], payload: bytes) -> bytes:
    head = struct.pack(">I", magic) + b"".join(struct.pack(">I", d) for d in dims)
    return head + payload


def write_idx_fixture(dirpath: Path, seed: int) -> dict[str, str]:
    """Write train/test IDX image and label files; return the config paths."""
    dirpath.mkdir(parents=True, exist_ok=True)
    gen = np.random.default_rng([seed, 784])
    d = 28 * 28
    base = gen.uniform(70.0, 180.0, size=d)
    order = gen.permutation(d)
    means = np.tile(base, (len(_FIXTURE_CLASSES), 1))
    for c in range(len(_FIXTURE_CLASSES)):
        means[c, order[c * _FIXTURE_PIXELS:(c + 1) * _FIXTURE_PIXELS]] += _FIXTURE_SHIFT
    paths = {}
    for split, n in (("train", _FIXTURE_TRAIN), ("test", _FIXTURE_TEST)):
        which = gen.choice(len(_FIXTURE_CLASSES), size=n, p=_FIXTURE_PRIORS)
        labels = np.asarray(_FIXTURE_CLASSES, dtype=np.uint8)[which]
        pixels = means[which] + _FIXTURE_NOISE * gen.standard_normal((n, d))
        images = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
        images_path = dirpath / f"{split}-images-idx3-ubyte"
        labels_path = dirpath / f"{split}-labels-idx1-ubyte"
        images_path.write_bytes(_idx_bytes(0x00000803, (n, 28, 28), images.tobytes()))
        labels_path.write_bytes(_idx_bytes(0x00000801, (n,), labels.tobytes()))
        paths[f"{split}_images"] = str(images_path)
        paths[f"{split}_labels"] = str(labels_path)
    return paths


# ---------------------------------------------------------------------------
# correctness gates


def _csv_rows(output: bytes, config: dict) -> tuple[list[dict], list[str]]:
    text = output.decode("utf-8")
    first, _, body = text.partition("\n")
    m = _PROVENANCE.match(first)
    problems = []
    if m is None:
        problems.append(f"bad provenance line {first!r}")
    elif int(m.group(1)) != config["seed"]:
        problems.append(f"provenance seed {m.group(1)} != {config['seed']}")
    return list(csv.DictReader(io.StringIO(body))), problems


def check_sweep(output: bytes, config: dict) -> Outcome:
    rows, problems = _csv_rows(output, config)
    per_sigma = len(config["losses"]) * config["trials"]
    ratios: dict[float, list[float]] = {float(s): [] for s in config["sigma_grid"]}
    iterations = 0
    for row in rows:
        sigma = float(row["sigma"])
        if sigma not in ratios:
            problems.append(f"unexpected sigma {sigma}")
            continue
        ratios[sigma].append(float(row["ratio"]))
        iterations += int(row["iterations"])
        if row["censored"] != "false":
            problems.append(f"censored run at sigma {sigma}, trial {row['trial']}")
    mean_ratio = {}
    for sigma, values in ratios.items():
        if len(values) != per_sigma:
            problems.append(f"sigma {sigma} has {len(values)} rows, expected {per_sigma}")
            continue
        mean_ratio[sigma] = sum(values) / len(values)
        if mean_ratio[sigma] < 0.93:
            problems.append(f"sigma {sigma}: mean ratio {mean_ratio[sigma]:.4f} < 0.93")
    details = {"min_mean_ratio": min(mean_ratio.values(), default=math.nan)}
    return Outcome(problems, iterations, details)


def _check_stopper_row(row: dict) -> list[str]:
    """The engine's accounting identities for one compare/run-real row."""
    name = row["stopper"]
    k = int(row["iterations"])
    samples = int(row["samples_consumed"])
    overhead = int(row["overhead"])
    reason = row["stop_reason"]
    where = f"{name} trial {row['trial']}"
    if name in ("zero_overhead", "zero_overhead_continue"):
        want_samples, want_overhead, want_reason = k, 0, "fired"
    elif name == "extra_sample":
        want_samples, want_overhead, want_reason = 2 * k + 1, k + 1, "fired"
    elif name.startswith("svs_"):
        p = int(name[4:])
        period = 2 * p
        want_samples, want_overhead, want_reason = k + p, p * (k // period + 1), "plateau"
        if k > (p + 1) * period:
            return [f"{where}: {k} iterations exceed the SVS cap {(p + 1) * period}"]
    else:
        return [f"{where}: unknown stopper"]
    problems = []
    if samples != want_samples:
        problems.append(f"{where}: samples_consumed {samples} != {want_samples}")
    if overhead != want_overhead:
        problems.append(f"{where}: overhead {overhead} != {want_overhead}")
    if reason != want_reason:
        problems.append(f"{where}: stop_reason {reason} != {want_reason}")
    return problems


def _check_stopper_table(output: bytes, config: dict) -> tuple[list[dict], list[str]]:
    rows, problems = _csv_rows(output, config)
    expected = [(s, str(t)) for t in range(config["trials"]) for s in config["stoppers"]]
    got = [(r["stopper"], r["trial"]) for r in rows]
    if got != expected:
        problems.append(f"rows {got[:3]}... do not match stoppers x trials")
    for row in rows:
        problems += _check_stopper_row(row)
    return rows, problems


def check_compare(output: bytes, config: dict) -> Outcome:
    rows, problems = _check_stopper_table(output, config)
    iterations = sum(int(r["iterations"]) for r in rows)
    return Outcome(problems, iterations, {})


def check_real(output: bytes, config: dict) -> Outcome:
    rows, problems = _check_stopper_table(output, config)
    for row in rows:
        if not float(row["accuracy"]) > float(row["baseline"]):
            problems.append(
                f"{row['stopper']} trial {row['trial']}: accuracy {row['accuracy']} "
                f"does not beat baseline {row['baseline']}"
            )
    iterations = sum(int(r["iterations"]) for r in rows)
    details = {"min_accuracy": min((float(r["accuracy"]) for r in rows), default=math.nan)}
    return Outcome(problems, iterations, details)


_VERIFY_CHECKS = (
    "expected_T", "hitting_time", "drift[mu.theta=-5.0]", "drift[mu.theta=0.0]",
    "drift[mu.theta=0.9]", "angle_deviation", "target_delta_min",
)


def check_verify(output: bytes, config: dict) -> Outcome:
    report = json.loads(output)
    checks = {c["check"]: c for c in report["checks"]}
    problems = []
    if tuple(checks) != _VERIFY_CHECKS:
        problems.append(f"checks {list(checks)} != {list(_VERIFY_CHECKS)}")
    if report["seed"] != config["seed"]:
        problems.append(f"report seed {report['seed']} != {config['seed']}")
    ratios = {}
    for name, c in checks.items():
        if not c["pass"]:
            problems.append(f"check {name} failed: value {c['value']} bound {c['bound']}")
        if c["value"] is not None and c["bound"]:
            ratios[name] = c["value"] / c["bound"]
    # Updates made: mean stopping time x trials of the three stopping-time
    # checks.  The angle row reports the deviation, with the bound equal to
    # sigma * alpha * sqrt(2/pi) * mean(T), so mean(T) is recovered from it.
    iterations = 0
    for name in ("expected_T", "hitting_time"):
        if name in checks:
            iterations += round(checks[name]["value"] * config[name]["trials"])
    if "angle_deviation" in checks:
        sec = config["angle"]
        scale = sec["sigma"] * sec["alpha"] * math.sqrt(2.0 / math.pi)
        iterations += round(checks["angle_deviation"]["bound"] / scale * sec["trials"])
    return Outcome(problems, iterations, {"value_over_bound": ratios})


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sweep_d500", "sweep-sigma", "csv", sweep_config, check_sweep),
        Workload("compare_d100", "compare-stoppers", "csv", compare_config, check_compare),
        Workload("verify_readme", "verify-bounds", "json", verify_config, check_verify),
        Workload("real_idx784", "run-real", "csv", real_config, check_real),
    )
}
