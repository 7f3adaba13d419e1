"""Command-line experiment harness.

Four subcommands, all driven by a JSON config file plus override flags
(--config, --seed, --out, --trials):

    sweep-sigma       zero-overhead runs across a noise grid; CSV of
                      (sigma, loss, trial, T, accuracy, optimal, ratio)
    compare-stoppers  zero-overhead vs small-validation-set stoppers, plus
                      a continued run; CSV with sample/overhead accounting
    verify-bounds     Monte-Carlo checks of the theory bounds; JSON report,
                      exit 4 when any check fails
    run-real          the experiment protocol on MNIST / CIFAR-10 / CSV
                      datasets; exit 3 when dataset files are absent

Exit codes: 0 success, 2 config error, 3 required data missing, 4 bound
check failed.

Artifacts are deterministic: a (config, seed) pair produces byte-identical
output, and every CSV opens with a comment line ``# config=<hash>
seed=<seed>`` where the hash covers the effective config (output path
excluded).  Floats are written with repr, i.e. shortest round-trip form.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from .data import (
    BLOCK_ROWS,
    Block,
    Dataset,
    ParseError,
    accuracy_on_set,
    center_and_fold,
    effective_step,
    first_rows,
    fold,
    gaussian_mixture_sampler,
    load_cifar10_batch,
    load_csv_points,
    load_idx,
    make_binary_task,
    student_t2_mixture_sampler,
)
from .losses import LossKind
from .numerics import RngState, standard_normals
from .sgd import RunResult, SgdConfig, StopKind, StopRule, continue_run, run
from .theory import (
    GaussianFoldedModel,
    classifier_accuracy,
    drift_value,
    low_regime_expected_T_bound,
    optimal_accuracy,
    regime_set,
    termination_probability,
)
from .verify import (
    check_drift_inequality,
    estimate_angle_deviation,
    estimate_expected_T,
    estimate_hitting_time,
    make_drift_probes,
)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "DataMissing",
    "cmd_sweep_sigma",
    "cmd_compare_stoppers",
    "cmd_verify_bounds",
    "cmd_run_real",
    "main",
    "entry",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA_MISSING = 3
EXIT_CHECK_FAILED = 4


class ConfigError(Exception):
    pass


class DataMissing(Exception):
    def __init__(self, paths: list[str]):
        super().__init__(f"missing dataset files: {', '.join(paths)}")
        self.paths = paths


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated-on-access view of the effective (post-override) config."""

    values: dict[str, Any]

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        return cls(raw)

    def require(self, key: str, kind: type | tuple[type, ...]):
        if key not in self.values:
            raise ConfigError(f"config key '{key}' is required")
        return self._typed(key, self.values[key], kind)

    def get(self, key: str, default, kind: type | tuple[type, ...] | None = None):
        if key not in self.values:
            return default
        v = self.values[key]
        return self._typed(key, v, kind) if kind is not None else v

    @staticmethod
    def _typed(key: str, v, kind):
        # bool is an int subclass; keep them apart
        if kind in (int, float) and isinstance(v, bool):
            raise ConfigError(f"config key '{key}' must be {kind.__name__}")
        if kind is float and isinstance(v, int):
            v = float(v)
        if not isinstance(v, kind):
            name = kind.__name__ if isinstance(kind, type) else str(kind)
            raise ConfigError(f"config key '{key}' must be {name}, got {type(v).__name__}")
        return v

    def sub(self, key: str) -> "ExperimentConfig | None":
        if key not in self.values:
            return None
        v = self.values[key]
        if not isinstance(v, dict):
            raise ConfigError(f"config key '{key}' must be an object")
        return ExperimentConfig(v)

    def hash(self) -> str:
        scrubbed = {k: v for k, v in self.values.items() if k != "out"}
        canon = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: str, cfg: ExperimentConfig, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"# config={cfg.hash()} seed={cfg.values.get('seed', 0)}\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def _parse_loss(name: str) -> LossKind:
    try:
        return LossKind(name)
    except ValueError:
        raise ConfigError(
            f"unknown loss '{name}'; expected one of {[k.value for k in LossKind]}"
        ) from None


def _at_least(sec: ExperimentConfig, key: str, minimum: int, default: int | None = None) -> int:
    """An int value of at least ``minimum``; required when no default."""
    v = sec.require(key, int) if default is None else sec.get(key, default, int)
    if v < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {v}")
    return v


def _finite(
    sec: ExperimentConfig, key: str, minimum: float, default: float | None = None,
    above: bool = False,
) -> float:
    """A finite float value of at least ``minimum`` (above it when ``above``);
    required when no default."""
    v = sec.require(key, float) if default is None else sec.get(key, default, float)
    if not (math.isfinite(v) and (v > minimum if above else v >= minimum)):
        relation = ">" if above else ">="
        raise ConfigError(f"{key} must be finite and {relation} {minimum:g}, got {v}")
    return v


def _is_finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _run_settings(cfg: ExperimentConfig) -> tuple[float, int, int]:
    """(alpha_tilde, max_iter, centering_samples) of a command that trains."""
    return (
        _finite(cfg, "alpha_tilde", 0.0, above=True),
        _at_least(cfg, "max_iter", 0, 1_000_000),
        _at_least(cfg, "centering_samples", 2, 100),
    )


def _e1_scaled(d: int, scale: float) -> np.ndarray:
    mu = np.zeros(d)
    mu[0] = scale
    return mu


def _gaussian_model(d: int, mu_scale: float, sigma: float) -> GaussianFoldedModel:
    try:
        return GaussianFoldedModel(_e1_scaled(d, mu_scale), sigma)
    except ValueError as e:  # a zero or non-finite mu_scale, a negative sigma
        raise ConfigError(f"mu_scale {mu_scale}, sigma {sigma}: {e}") from None


def _labeled_source(cfg: ExperimentConfig, sigma: float, rng: RngState) -> Iterator[Block]:
    """Synthetic labeled block stream per the config's 'source' key."""
    source = cfg.get("source", "gaussian", str)
    d = _at_least(cfg, "d", 1)
    if source == "gaussian":
        mu_scale = cfg.get("mu_scale", 1.0, float)
        if not math.isfinite(mu_scale):
            raise ConfigError(f"mu_scale must be finite, got {mu_scale}")
        mu = _e1_scaled(d, mu_scale)
        # symmetric class means -mu/+mu, so the folded mean is exactly mu
        return gaussian_mixture_sampler(-mu, mu, sigma, rng)
    if source == "t2":
        return student_t2_mixture_sampler(_finite(cfg, "beta", 0.0), d, rng)
    raise ConfigError(f"unknown source '{source}'; expected 'gaussian' or 't2'")


def _labeled_dataset_stream(
    dataset: Dataset, rng: RngState, epochs: int | None
) -> Iterator[Block]:
    """Shuffled pass(es) over a dataset in blocks; each block is a gathered
    copy, so folding it in place leaves the dataset untouched."""
    gen = rng.generator()
    n = len(dataset)
    done = 0
    while epochs is None or done < epochs:
        order = gen.permutation(n)
        for start in range(0, n, BLOCK_ROWS):
            rows = order[start:start + BLOCK_ROWS]
            yield Block(dataset.y[rows], dataset.zeta[rows])
        done += 1


# ---------------------------------------------------------------------------
# stopper parsing shared by compare-stoppers and run-real


@dataclass(frozen=True)
class _Stopper:
    name: str
    rule: StopRule
    continue_factor: float | None = None  # extend by factor * base iterations


def _parse_stopper(name: str, continue_factor: float) -> _Stopper:
    if not isinstance(name, str):
        raise ConfigError(f"stoppers must be names, got {name!r}")
    if name == "zero_overhead":
        return _Stopper(name, StopRule.zero_overhead())
    if name == "extra_sample":
        return _Stopper(name, StopRule.extra_sample())
    if name == "zero_overhead_continue":
        return _Stopper(name, StopRule.zero_overhead(), continue_factor)
    if name.startswith("svs_"):
        try:
            p = int(name[4:])
        except ValueError:
            raise ConfigError(f"bad stopper '{name}'") from None
        if p < 1:
            raise ConfigError(f"bad stopper '{name}': p must be >= 1")
        return _Stopper(name, StopRule.small_validation(p))
    raise ConfigError(
        f"unknown stopper '{name}'; expected zero_overhead, extra_sample, "
        "svs_<p>, or zero_overhead_continue"
    )


def _stream_index(stoppers: list[_Stopper], j: int) -> int:
    """Sub-stream index for stopper j within a trial.

    A continued run replays the plain zero-overhead run of the same trial
    (same sub-stream, hence bit-identical base trajectory) before extending
    it, so the two CSV rows relate exactly.
    """
    if stoppers[j].continue_factor is not None:
        for i, other in enumerate(stoppers):
            if other.name == "zero_overhead" and other.continue_factor is None:
                return i
    return j


def _overhead(stopper: _Stopper, result: RunResult) -> int:
    """Margin evaluations spent on stopping checks beyond plain SGD."""
    rule = stopper.rule
    if rule.kind is StopKind.SMALL_VALIDATION:
        assert rule.p is not None and rule.period is not None
        checks = result.iterations // rule.period + 1  # + the baseline check
        return rule.p * checks
    if rule.kind is StopKind.EXTRA_SAMPLE:
        return result.iterations + 1
    return 0


def _run_stopper(
    stopper: _Stopper,
    labeled: Iterator[Block],
    loss: LossKind,
    alpha_tilde: float,
    centering_n: int,
    max_iter: int,
):
    """Centering protocol + run for one stopper on one labeled stream.

    Returns (result, centering stats, effective alpha).
    """
    stats, train = center_and_fold(labeled, centering_n)
    alpha = effective_step(alpha_tilde, stats.sigma2_tilde)
    config = SgdConfig(loss, alpha, max_iter=max_iter, rule=stopper.rule)
    result = run(train, config)
    if stopper.continue_factor is not None and not result.censored:
        extra = int(round(stopper.continue_factor * result.iterations))
        plain = SgdConfig(loss, alpha, max_iter=max_iter, rule=StopRule.none())
        result = continue_run(result, train, plain, extra)
    return result, stats, alpha


# ---------------------------------------------------------------------------
# sweep-sigma


def cmd_sweep_sigma(cfg: ExperimentConfig) -> int:
    d = _at_least(cfg, "d", 1)
    mu_scale = cfg.get("mu_scale", 1.0, float)
    grid = cfg.require("sigma_grid", list)
    if not grid or not all(_is_finite_number(s) and s > 0 for s in grid):
        raise ConfigError("sigma_grid must be a nonempty list of finite positive numbers")
    losses = [_parse_loss(s) for s in cfg.get("losses", ["logistic", "hinge"], list)]
    if not losses:
        raise ConfigError("losses must be nonempty")
    alpha_tilde, max_iter, centering_n = _run_settings(cfg)
    trials = _at_least(cfg, "trials", 1)
    seed = cfg.get("seed", 0, int)
    root = RngState(seed)

    header = [
        "sigma", "loss", "trial", "iterations", "censored",
        "accuracy", "optimal_accuracy", "ratio", "alpha",
    ]
    rows: list[list] = []
    for i_s, sigma in enumerate(grid):
        sigma = float(sigma)
        model = _gaussian_model(d, mu_scale, sigma)
        opt = optimal_accuracy(model)
        for i_l, loss in enumerate(losses):
            for t in range(trials):
                cell = root.substream(i_s).substream(i_l).substream(t)
                labeled = _labeled_source(cfg, sigma, cell.substream(0))
                stopper = _Stopper("zero_overhead", StopRule.zero_overhead())
                result, _, alpha = _run_stopper(
                    stopper, labeled, loss, alpha_tilde, centering_n, max_iter
                )
                if float(np.linalg.norm(result.theta)) == 0.0:
                    acc = 0.5  # never-updated iterate classifies at chance
                else:
                    acc = classifier_accuracy(result.theta, model)
                rows.append([
                    sigma, loss.value, t, result.iterations, result.censored,
                    acc, opt, acc / opt, alpha,
                ])
    _write_csv(cfg.values["out"], cfg, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare-stoppers


def cmd_compare_stoppers(cfg: ExperimentConfig) -> int:
    sigma = _finite(cfg, "sigma", 0.0)
    loss = _parse_loss(cfg.get("loss", "logistic", str))
    alpha_tilde, max_iter, centering_n = _run_settings(cfg)
    trials = _at_least(cfg, "trials", 1)
    eval_samples = _at_least(cfg, "eval_samples", 1, 4000)
    continue_factor = _finite(cfg, "continue_factor", 0.0, 1.5)
    names = cfg.get(
        "stoppers",
        ["zero_overhead", "svs_32", "svs_128", "svs_512", "zero_overhead_continue"],
        list,
    )
    stoppers = [_parse_stopper(n, continue_factor) for n in names]
    seed = cfg.get("seed", 0, int)
    root = RngState(seed)

    header = [
        "stopper", "trial", "iterations", "samples_consumed",
        "overhead", "accuracy", "stop_reason",
    ]
    rows: list[list] = []
    for t in range(trials):
        cell = root.substream(t)
        eval_set = first_rows(
            _labeled_source(cfg, sigma, cell.substream(len(stoppers))), eval_samples
        )
        for j, stopper in enumerate(stoppers):
            labeled = _labeled_source(cfg, sigma, cell.substream(_stream_index(stoppers, j)))
            result, stats, _ = _run_stopper(
                stopper, labeled, loss, alpha_tilde, centering_n, max_iter
            )
            acc = accuracy_on_set(result.theta, fold(eval_set, stats.offset))
            rows.append([
                stopper.name, t, result.iterations, result.samples_consumed,
                _overhead(stopper, result), acc, result.stop_reason.value,
            ])
    _write_csv(cfg.values["out"], cfg, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-bounds


def _check_row(check: str, value: float, bound: float, stderr: float, passed: bool) -> dict:
    return {
        "check": check,
        "value": _finite_or_none(value),
        "bound": _finite_or_none(bound),
        "stderr": _finite_or_none(stderr),
        "pass": bool(passed),
    }


def _section_model(
    sec: ExperimentConfig, min_d: int = 1
) -> tuple[LossKind, GaussianFoldedModel, float]:
    loss = _parse_loss(sec.get("loss", "logistic", str))
    d = _at_least(sec, "d", min_d)
    model = _gaussian_model(d, sec.get("mu_scale", 1.0, float), sec.require("sigma", float))
    return loss, model, _finite(sec, "alpha", 0.0)


def cmd_verify_bounds(cfg: ExperimentConfig) -> int:
    seed = cfg.get("seed", 0, int)
    root = RngState(seed)
    checks: list[dict] = []

    sec = cfg.sub("expected_T")
    if sec is not None:
        loss, model, alpha = _section_model(sec)
        config = SgdConfig(
            loss, alpha,
            max_iter=_at_least(sec, "max_iter", 0, 1_000_000),
            rule=StopRule.extra_sample(),
        )
        stats = estimate_expected_T(
            model, config, _at_least(sec, "trials", 1), root.substream(1)
        )
        bound = low_regime_expected_T_bound(loss, model, alpha)
        ok = stats.n_censored == 0 and stats.mean <= bound
        checks.append(_check_row("expected_T", stats.mean, bound, stats.stderr, ok))

    sec = cfg.sub("hitting_time")
    if sec is not None:
        loss, model, alpha = _section_model(sec)
        rset = regime_set(loss, model, alpha)
        config = SgdConfig(loss, alpha, max_iter=_at_least(sec, "max_iter", 0, 1_000_000))
        theta0 = np.zeros(model.d)
        stats = estimate_hitting_time(
            theta0, rset, config, _at_least(sec, "trials", 1), root.substream(2)
        )
        bound = drift_value(rset, theta0, alpha) / rset.params.b
        ok = stats.n_censored == 0 and stats.mean <= bound + 4.0 * stats.stderr
        checks.append(_check_row("hitting_time", stats.mean, bound, stats.stderr, ok))

    sec = cfg.sub("drift")
    if sec is not None:
        loss, model, alpha = _section_model(sec)
        rset = regime_set(loss, model, alpha)
        mu_dots = sec.get("mu_dots", [-5.0, 0.0, 0.9], list)
        if not all(_is_finite_number(v) for v in mu_dots):
            raise ConfigError(f"mu_dots must be a list of finite numbers, got {mu_dots}")
        try:
            probes = make_drift_probes(rset, [float(v) for v in mu_dots], root.substream(3))
        except ValueError as e:  # a probe inside the target set
            raise ConfigError(f"mu_dots: {e}") from None
        config = SgdConfig(loss, alpha)
        results = check_drift_inequality(
            rset, config, probes, _at_least(sec, "n_mc", 2, 20000), root.substream(4)
        )
        for dot, res in zip(mu_dots, results):
            checks.append(
                _check_row(
                    f"drift[mu.theta={dot}]",
                    res.estimate,
                    -res.decrement,
                    res.stderr,
                    res.passed,
                )
            )

    sec = cfg.sub("angle")
    if sec is not None:
        loss, model, alpha = _section_model(sec, min_d=2)  # v is the second axis
        config = SgdConfig(
            loss, alpha,
            max_iter=_at_least(sec, "max_iter", 0, 1_000_000),
            rule=StopRule.extra_sample(),
        )
        v = np.zeros(model.d)
        v[1] = 1.0
        dev, times = estimate_angle_deviation(
            model, config, v, _at_least(sec, "trials", 1), root.substream(5)
        )
        scale = model.sigma * alpha * math.sqrt(2.0 / math.pi)
        bound = scale * times.mean
        slack = 3.0 * math.hypot(dev.stderr, scale * times.stderr)
        ok = dev.n_censored == 0 and dev.mean <= bound + slack
        checks.append(_check_row("angle_deviation", dev.mean, bound, slack / 3.0, ok))

    sec = cfg.sub("target_delta")
    if sec is not None:
        loss, model, alpha = _section_model(sec)
        n_theta = _at_least(sec, "n_theta", 1, 1000)
        gen = root.substream(6).generator()
        mu2 = model.mu_norm**2
        worst = 1.0
        for _ in range(n_theta):
            g = standard_normals(gen, model.d)
            lift = abs(standard_normals(gen, 1)[0])
            # shift along mu so the mean margin is exactly 1 + lift >= 1
            theta = g + ((1.0 + lift) - float(model.mu @ g)) / mu2 * model.mu
            worst = min(worst, termination_probability(theta, model))
        checks.append(_check_row("target_delta_min", worst, 0.5, 0.0, worst >= 0.5))

    if not checks:
        raise ConfigError(
            "no checks configured: need at least one of expected_T, "
            "hitting_time, drift, angle, target_delta"
        )
    report = {
        "config": {k: v for k, v in cfg.values.items() if k != "out"},
        "seed": seed,
        "checks": checks,
    }
    with open(cfg.values["out"], "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# run-real


def _mnist_task(
    images_path: str, labels_path: str, scale: bool, class_a: int, class_b: int
) -> Dataset:
    with open(images_path, "rb") as f:
        images = load_idx(f.read())
    with open(labels_path, "rb") as f:
        labels = load_idx(f.read())
    if images.ndim != 3:
        raise ConfigError(f"{images_path} holds a {images.ndim}-D tensor, expected images")
    if labels.ndim != 1:
        raise ConfigError(f"{labels_path} holds a {labels.ndim}-D tensor, expected labels")
    if images.shape[0] != labels.shape[0]:
        raise ConfigError(
            f"image/label count mismatch: {images.shape[0]} vs {labels.shape[0]}"
        )
    # only the rows of the two classes are converted from uint8 to float
    task = _binary_task(labels, images.reshape(images.shape[0], -1), class_a, class_b)
    if scale:
        np.divide(task.zeta, 255.0, out=task.zeta)
    return task


def _points_task(points: list[tuple[int, np.ndarray]], class_a: int, class_b: int) -> Dataset:
    labels = np.array([label for label, _ in points])
    return _binary_task(labels, np.stack([vec for _, vec in points]), class_a, class_b)


def _binary_task(labels: np.ndarray, features: np.ndarray, class_a: int, class_b: int) -> Dataset:
    try:  # equal classes, or a class without rows, are config or data errors
        return make_binary_task(labels, features, class_a, class_b)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _load_real(cfg: ExperimentConfig, root: RngState) -> tuple[Dataset, Dataset]:
    """(train, test) binary datasets for the configured source."""
    kind = cfg.require("dataset", str)
    class_a = cfg.require("class_a", int)
    class_b = cfg.require("class_b", int)
    scale = cfg.get("scale_pixels", True, bool)
    if kind == "mnist":
        paths = [
            cfg.require("train_images", str), cfg.require("train_labels", str),
            cfg.require("test_images", str), cfg.require("test_labels", str),
        ]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            raise DataMissing(missing)
        return (
            _mnist_task(paths[0], paths[1], scale, class_a, class_b),
            _mnist_task(paths[2], paths[3], scale, class_a, class_b),
        )
    if kind == "cifar10":
        batches = cfg.require("train_batches", list)
        if not batches or not all(isinstance(p, str) for p in batches):
            raise ConfigError("train_batches must be a nonempty list of paths")
        test_path = cfg.require("test_batch", str)
        missing = [p for p in [*batches, test_path] if not os.path.exists(p)]
        if missing:
            raise DataMissing(missing)
        train = []
        for p in batches:
            with open(p, "rb") as f:
                train.extend(load_cifar10_batch(f.read(), scale=scale))
        with open(test_path, "rb") as f:
            test = load_cifar10_batch(f.read(), scale=scale)
        return _points_task(train, class_a, class_b), _points_task(test, class_a, class_b)
    if kind == "csv":
        path = cfg.require("path", str)
        if not os.path.exists(path):
            raise DataMissing([path])
        with open(path, "r", encoding="utf-8") as f:
            points = load_csv_points(f.read())
        frac = cfg.get("test_fraction", 0.2, float)
        if not (0.0 < frac < 1.0):
            raise ConfigError(f"test_fraction must be in (0, 1), got {frac}")
        task = _points_task(points, class_a, class_b)
        n = len(task)
        n_test = max(1, int(frac * n))
        if n_test >= n:
            raise ConfigError("test split leaves no training data")
        order = root.substream(999).generator().permutation(n)
        train_rows, test_rows = order[n_test:], order[:n_test]
        return (
            Dataset(task.y[train_rows], task.zeta[train_rows]),
            Dataset(task.y[test_rows], task.zeta[test_rows]),
        )
    raise ConfigError(f"unknown dataset '{kind}'; expected mnist, cifar10, or csv")


def cmd_run_real(cfg: ExperimentConfig) -> int:
    loss = _parse_loss(cfg.get("loss", "logistic", str))
    alpha_tilde, max_iter, centering_n = _run_settings(cfg)
    trials = _at_least(cfg, "trials", 1, 1)
    epochs = cfg.get("epochs", 1, (int, type(None)))
    if epochs is not None and epochs < 1:
        raise ConfigError(f"epochs must be >= 1 or null, got {epochs}")
    continue_factor = _finite(cfg, "continue_factor", 0.0, 1.5)
    names = cfg.get("stoppers", ["zero_overhead"], list)
    stoppers = [_parse_stopper(n, continue_factor) for n in names]
    seed = cfg.get("seed", 0, int)
    root = RngState(seed)

    header = [
        "stopper", "trial", "iterations", "samples_consumed",
        "overhead", "accuracy", "baseline", "stop_reason",
    ]
    try:
        train, test = _load_real(cfg, root)
    except DataMissing as e:
        _write_csv(cfg.values["out"], cfg, header, [])
        print(str(e), file=sys.stderr)
        return EXIT_DATA_MISSING

    baseline = float(max(np.mean(test.y == 0), np.mean(test.y == 1)))

    rows: list[list] = []
    for t in range(trials):
        cell = root.substream(t)
        for j, stopper in enumerate(stoppers):
            labeled = _labeled_dataset_stream(
                train, cell.substream(_stream_index(stoppers, j)), epochs
            )
            result, stats, _ = _run_stopper(
                stopper, labeled, loss, alpha_tilde, centering_n, max_iter
            )
            acc = accuracy_on_set(result.theta, fold(test, stats.offset))
            rows.append([
                stopper.name, t, result.iterations, result.samples_consumed,
                _overhead(stopper, result), acc, baseline,
                result.stop_reason.value,
            ])
    _write_csv(cfg.values["out"], cfg, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points


_COMMANDS = {
    "sweep-sigma": cmd_sweep_sigma,
    "compare-stoppers": cmd_compare_stoppers,
    "verify-bounds": cmd_verify_bounds,
    "run-real": cmd_run_real,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdstop",
        description="SGD stopping-rule experiments and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output path")
        p.add_argument("--trials", type=int, default=None, help="override trial counts")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        values = dict(cfg.values)
        if args.seed is not None:
            if not (0 <= args.seed < 2**64):
                raise ConfigError(f"--seed must be a u64, got {args.seed}")
            values["seed"] = args.seed
        if args.out is not None:
            values["out"] = args.out
        if args.trials is not None:
            if args.trials < 1:
                raise ConfigError(f"--trials must be >= 1, got {args.trials}")
            values["trials"] = args.trials
            # nested sections with their own trial counts get the override too
            values = {
                k: ({**v, "trials": args.trials}
                    if isinstance(v, dict) and "trials" in v else v)
                for k, v in values.items()
            }
        if "out" not in values:
            raise ConfigError("an output path is required ('out' key or --out)")
        eff = ExperimentConfig(values)
        return _COMMANDS[args.command](eff)
    except (ConfigError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
