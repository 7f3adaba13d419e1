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

Each command (and each verify-bounds section) declares a table of the keys
it reads.  ``main`` loads the config, applies the override flags and checks
the result against the command's table once, before any work starts; the
command receives the config both as given (for the provenance hash and the
verify-bounds echo) and as parsed, with defaults filled in.

compare-stoppers and run-real name their stoppers in the config, and the
name is the only form a stopper takes: ``_rule`` gives its stop rule, and
``zero_overhead_continue`` is the one name whose run is continued.

run-real keeps its training split as parsed (uint8 pixels, float CSV
features) and allocates one float buffer of the split's shape per command;
each stopper run folds the rows it reaches into it, each at most once
(data.center_and_fold_split), and trains on read-only views of its rows.

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
import difflib
import hashlib
import io
import json
import math
import os
import re
import sys
from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .data import (
    Block,
    CenteringStats,
    CsvError,
    ParseError,
    accuracy_on_set,
    center_and_fold,
    center_and_fold_split,
    effective_step,
    gaussian_mixture_sampler,
    load_cifar10_batch,
    load_csv_points,
    load_idx,
    make_binary_task,
    student_t2_mixture_sampler,
)
from .losses import LossKind
from .numerics import RngState, normal_rounds
from .sgd import RunResult, SgdConfig, StopReason, StopRule, run
from .theory import (
    LOW_NOISE_RATIO,
    GaussianFoldedModel,
    Regime,
    angle_bound,
    classifier_accuracy,
    drift_value,
    low_regime_expected_T_bound,
    optimal_accuracy,
    regime_of,
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


def _load(path: str) -> dict[str, Any]:
    """The JSON object of a config file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    except ValueError as e:  # bytes that are not UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"cannot read config {path}: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def _echo(values: dict[str, Any]) -> dict[str, Any]:
    """The effective (post-override) config as given, less its output path:
    what the provenance hash covers and the verify-bounds report echoes."""
    return {k: v for k, v in values.items() if k != "out"}


# ---------------------------------------------------------------------------
# config tables

REQUIRED = object()  # the default of a key the config must give


class _Key(NamedTuple):
    """A config key: its type (a tuple of types, or a section's table), its
    default or REQUIRED, the limit that errors and the README state, a test."""

    kind: Any
    default: Any
    limit: str
    test: Callable[[Any], bool] | None = None


def _parse(table: dict[str, _Key], values: dict[str, Any], where: str = "") -> dict[str, Any]:
    """``values`` checked against ``table``, with defaults filled in.  Unknown
    keys are checked first, so a misspelt key is not reported as missing.  A
    float key takes an int as ``float(v)``; bool is never an int or a float."""
    for key in values:
        if key not in table:
            close = difflib.get_close_matches(key, table, n=1)
            hint = f"; did you mean '{close[0]}'?" if close else ""
            raise ConfigError(f"unknown config key '{where}{key}'{hint}")
    parsed = {}
    for key, (kind, default, limit, test) in table.items():
        v = values.get(key, default)
        if v is REQUIRED:
            raise ConfigError(f"config key '{where}{key}' is required: {limit}")
        if key not in values:
            ok = True
        elif isinstance(kind, dict):  # a section with its own table
            ok = isinstance(v, dict)
            v = _parse(kind, v, f"{where}{key}.") if ok else v
        else:
            kinds = kind if isinstance(kind, tuple) else (kind,)
            try:  # an int too large for a float fails its type or its test
                v = float(v) if float in kinds and type(v) is int else v
                ok = (isinstance(v, kinds) and (bool in kinds or not isinstance(v, bool))
                      and (test is None or test(v)))
            except OverflowError:
                ok = False
        if not ok:
            raise ConfigError(f"config key '{where}{key}' must be {limit}, got {values[key]!r}")
        parsed[key] = v
    return parsed


def _needed(c: dict[str, Any], when: str, *keys: str) -> list:
    """The values of keys that are required only ``when`` (a condition)."""
    for key in keys:
        if c[key] is None:
            raise ConfigError(f"config key '{key}' is required when {when}")
    return [c[key] for key in keys]


def _int(minimum: int, default: Any = REQUIRED) -> _Key:
    return _Key(int, default, f"an integer >= {minimum}", lambda v: v >= minimum)


def _one_of(names: tuple[str, ...], default: Any = REQUIRED) -> _Key:
    return _Key(str, default, " or ".join(f"'{n}'" for n in names), lambda v: v in names)


def _finite_numbers(v: list, test: Callable[[float], bool] = lambda x: True) -> bool:
    """A nonempty list of finite numbers that each pass ``test``."""
    return bool(v) and all(type(x) in (int, float) and math.isfinite(x) and test(x) for x in v)


_LOSSES = tuple(k.value for k in LossKind)
# svs_<p>: small validation on p samples, p in 1 to 18 ASCII digits (inside
# Python's int digit limit) with no leading 0, so each stopper has one spelling
_STOPPER_NAME = re.compile(r"zero_overhead|zero_overhead_continue|extra_sample|svs_[1-9][0-9]{,17}")
# svs_<p> stacks its p validation rows of d doubles before its first update
_SVS_DOUBLES = 1 << 27  # 1 GiB
_STOPPERS = _Key(
    list, ["zero_overhead"], "a nonempty list of stopper names: zero_overhead, extra_sample, "
    "svs_p (p >= 1 in at most 18 digits, no leading 0, p * d <= 2**27), zero_overhead_continue",
    lambda v: bool(v) and all(isinstance(n, str) and _STOPPER_NAME.fullmatch(n) for n in v),
)
_NONNEGATIVE = _Key(float, REQUIRED, "a finite number >= 0", lambda v: math.isfinite(v) and v >= 0)
# zero_overhead_continue adds round(continue_factor * k) updates to a base run of k
_CONTINUE = _Key(float, 1.5, "a number in [0, 1000]", lambda v: 0 <= v <= 1000)
# the Gaussian model needs a nonzero mean
_MU_SCALE = _Key(float, 1.0, "a finite nonzero number", lambda v: math.isfinite(v) and v != 0.0)
_COMMON = {  # keys of every command
    "seed": _Key(int, 0, "an integer in [0, 2**64)", lambda v: 0 <= v < 2**64),
    "out": _Key(str, REQUIRED, "a file path in an existing directory (or --out)",
                lambda v: v != "" and not os.path.isdir(v)
                and os.path.isdir(os.path.dirname(v) or ".")),
}
_TRAINING = {  # keys of every command that trains after the centering protocol
    **_COMMON,
    "alpha_tilde": _Key(float, REQUIRED, "a finite number > 0",
                        lambda v: math.isfinite(v) and v > 0),
    "max_iter": _int(0, 1_000_000),
    "centering_samples": _int(2, 100),
    "trials": _int(1),
}
_SYNTHETIC = {  # keys of the synthetic labeled source
    "d": _int(1),
    "source": _one_of(("gaussian", "t2"), "gaussian"),
    "beta": _NONNEGATIVE._replace(
        default=None, limit="a finite number >= 0 (needed when source is 't2')"
    ),
}
_SWEEP = {
    **_TRAINING,
    **_SYNTHETIC,
    "mu_scale": _MU_SCALE,
    "sigma_grid": _Key(list, REQUIRED, "a nonempty list of finite numbers > 0",
                       lambda v: _finite_numbers(v, lambda x: x > 0)),
    "losses": _Key(list, list(_LOSSES), "a nonempty list of 'logistic' or 'hinge'",
                   lambda v: bool(v) and all(n in _LOSSES for n in v)),
}
_COMPARE = {
    **_TRAINING,
    **_SYNTHETIC,
    "mu_scale": _MU_SCALE._replace(limit="a finite number", test=math.isfinite),
    "sigma": _NONNEGATIVE,
    "loss": _one_of(_LOSSES, "logistic"),
    "eval_samples": _int(1, 4000),
    "continue_factor": _CONTINUE,
    "stoppers": _STOPPERS._replace(
        default=["zero_overhead", "svs_32", "svs_128", "svs_512", "zero_overhead_continue"]
    ),
}


def _section(min_d: int, **own: _Key) -> _Key:
    """A verify-bounds section: the Gaussian model's keys plus its own."""
    model = {"loss": _one_of(_LOSSES, "logistic"), "d": _int(min_d), "mu_scale": _MU_SCALE,
             "sigma": _NONNEGATIVE, "alpha": _NONNEGATIVE}
    return _Key({**model, **own}, None, "an object of the section's keys")


# target_delta reads neither loss nor alpha, which it still accepts
_UNREAD = {"loss": _one_of(_LOSSES, "logistic")._replace(limit="'logistic' or 'hinge' (unread)"),
           "alpha": _NONNEGATIVE._replace(default=None, limit="a finite number >= 0 (unread)")}
_TRIAL_RUNS = {key: _TRAINING[key] for key in ("max_iter", "trials")}
# one trial has no standard error, so a check with a stderr slack needs two
_SLACK_RUNS = {**_TRIAL_RUNS, "trials": _int(2)}
_VERIFY = {
    **_COMMON,
    "expected_T": _section(1, **_TRIAL_RUNS),
    "hitting_time": _section(1, **_SLACK_RUNS),
    # a drift probe needs a direction orthogonal to mu, as angle's v does
    "drift": _section(2, mu_dots=_Key(list, [-5.0, 0.0, 0.9], "a nonempty list of finite "
                                      "numbers", _finite_numbers), n_mc=_int(2, 20000)),
    "angle": _section(2, **_SLACK_RUNS),  # v is the second axis
    "target_delta": _section(1, n_theta=_int(1, 1000), **_UNREAD),
}
_PATH = _Key(str, None, "a path (needed when dataset is 'mnist')")
_REAL = {
    **_TRAINING,
    "trials": _int(1, 1),
    "loss": _one_of(_LOSSES, "logistic"),
    "epochs": _Key((int, type(None)), 1, "an integer >= 1, or null to cycle forever",
                   lambda v: v is None or v >= 1),
    "continue_factor": _CONTINUE,
    "stoppers": _STOPPERS,
    "dataset": _one_of(("mnist", "cifar10", "csv")),
    "class_a": _Key(int, REQUIRED, "an integer label"),
    "class_b": _Key(int, REQUIRED, "an integer label"),
    "scale_pixels": _Key(bool, True, "true or false"),
    **dict.fromkeys(("train_images", "train_labels", "test_images", "test_labels"), _PATH),
    "train_batches": _Key(list, None, "a nonempty list of paths (needed when dataset is "
                          "'cifar10')", lambda v: bool(v) and all(isinstance(p, str) for p in v)),
    "test_batch": _PATH._replace(limit="a path (needed when dataset is 'cifar10')"),
    "path": _PATH._replace(limit="a path (needed when dataset is 'csv')"),
    "test_fraction": _Key(float, 0.2, "a number in (0, 1)", lambda v: 0.0 < v < 1.0),
}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a config error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write output {path}: {e.strerror}") from None


def _write_csv(
    values: dict[str, Any], c: dict[str, Any], header: list[str], rows: list[list]
) -> None:
    """Write the table to ``c["out"]`` under its provenance line, which hashes
    the config as given (``values``) and names the parsed seed."""
    canon = json.dumps(_echo(values), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_fmt(v) for v in row] for row in rows)
    _write(c["out"], f"# config={digest} seed={c['seed']}\n" + buf.getvalue())


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def _e1_scaled(d: int, scale: float) -> np.ndarray:
    mu = np.zeros(d)
    mu[0] = scale
    return mu


def _labeled_source(c: dict[str, Any], sigma: float, rng: RngState) -> Iterator[Block]:
    """Synthetic labeled block stream per the config's 'source' key."""
    if c["source"] == "t2":
        (beta,) = _needed(c, "source is 't2'", "beta")
        return student_t2_mixture_sampler(beta, c["d"], rng)
    mu = _e1_scaled(c["d"], c["mu_scale"])
    # symmetric class means -mu/+mu, so the folded mean is exactly mu
    return gaussian_mixture_sampler(-mu, mu, sigma, rng)


# What the centering protocol returns for one run: the statistics of its
# first n training rows (2n if a class is missing) and the folded rest
_Centered = tuple[CenteringStats, Iterator[np.ndarray]]


# ---------------------------------------------------------------------------
# stoppers shared by compare-stoppers and run-real


def _rule(name: str) -> StopRule:
    """The stop rule of a stopper name (a continued run stops as its base)."""
    if name == "extra_sample":
        return StopRule.extra_sample()
    if name.startswith("svs_"):
        return StopRule.small_validation(int(name[4:]))
    return StopRule.zero_overhead()


def _check_svs_memory(names: list[str], d: int) -> None:
    """Reject, before any trial, a svs_<p> whose p validation rows of d
    doubles would take more than _SVS_DOUBLES."""
    for name in names:
        p = int(name[4:]) if name.startswith("svs_") else 0
        if p * d > _SVS_DOUBLES:
            raise ConfigError(f"config key 'stoppers': {name} at d = {d} stacks {p * d} "
                              "doubles of validation rows; p * d must be <= 2**27 (1 GiB)")


def _stream_index(names: list[str], j: int) -> int:
    """Sub-stream index for stopper j within a trial: its list position j, so
    reordering or inserting stoppers changes what each trains on (and the
    eval set compare-stoppers draws from sub-stream len(names)).

    A continued run replays the trial's first plain zero-overhead run (same
    sub-stream, hence bit-identical base trajectory) before extending it, so
    the two CSV rows relate exactly.
    """
    if names[j] == "zero_overhead_continue" and "zero_overhead" in names:
        return names.index("zero_overhead")
    return j


def _run_stopper(name: str, centered: Callable[[int], _Centered], loss: LossKind, c: dict):
    """Centering protocol + run for stopper ``name`` on one run's training
    data, with the run settings of the parsed config ``c``; a
    ``zero_overhead_continue`` run goes on by ``c["continue_factor"]``.

    Returns (result, centering stats, effective alpha).
    """
    try:
        stats, train = centered(c["centering_samples"])
    except ValueError as e:  # the centering window saw one class only
        raise ConfigError(f"stopper {name}: {e}; raise centering_samples") from None
    try:
        alpha = effective_step(c["alpha_tilde"], stats.sigma2_tilde)
    except ValueError:  # sigma2_tilde is not finite
        raise ConfigError(f"stopper {name}: the data's scale overflows the centering "
                          f"estimate (sigma2_tilde = {stats.sigma2_tilde})") from None
    except OverflowError as e:  # a large alpha_tilde over a small sigma2_tilde
        raise ConfigError(f"config key 'alpha_tilde' is too large: {e}") from None
    config = SgdConfig(loss, alpha, max_iter=c["max_iter"], rule=_rule(name))
    try:
        result = run(train, config)
    except ValueError as e:  # a finite training set ran out before the first step
        raise ConfigError(
            f"stopper {name}: {e} after {stats.n_used} centering samples; "
            "lower centering_samples or raise epochs"
        ) from None
    if name == "zero_overhead_continue" and not result.censored:
        # plain SGD on from the stopped iterate; the row counts both runs
        extra = int(round(c["continue_factor"] * result.iterations))
        plain = SgdConfig(loss, alpha, max_iter=extra, rule=StopRule.none())
        more = run(train, plain, theta0=result.theta)
        reason = result.stop_reason if more.stop_reason is StopReason.CENSORED else more.stop_reason
        result = RunResult(more.theta, result.iterations + more.iterations,
                           result.samples_consumed + more.samples_consumed, reason,
                           result.overhead + more.overhead)
    return result, stats, alpha


def _stopper_header(*extra: str) -> list[str]:
    """The columns of a stopper table, the ``extra`` ones before the stop reason."""
    return ["stopper", "trial", "iterations", "samples_consumed", "overhead", "accuracy",
            *extra, "stop_reason"]


def _stopper_table(
    values: dict[str, Any], c: dict[str, Any], source: Callable[[RngState, int], _Centered],
    held_out: Callable[[RngState], Iterable[Block]], divisor: float = 1.0, **extra: float,
) -> int:
    """Write the table of compare-stoppers or run-real: in trial t (sub-stream
    t of the seed) each stopper trains on ``source(rng, n)``, the centering
    protocol with window n on the data of its sub-stream rng, then all are
    scored on the trial's ``held_out`` pieces, features divided by
    ``divisor``; the ``extra`` columns, constant across rows, precede the
    stop reason."""
    loss, names = LossKind(c["loss"]), c["stoppers"]
    root = RngState(c["seed"])
    rows: list[list] = []
    for t in range(c["trials"]):
        cell = root.substream(t)
        runs = []
        for j, name in enumerate(names):
            centered = partial(source, cell.substream(_stream_index(names, j)))
            result, stats, _ = _run_stopper(name, centered, loss, c)
            runs.append((result, stats.offset))
        accs = accuracy_on_set(held_out(cell), [(r.theta, offset) for r, offset in runs], divisor)
        for name, (result, _), acc in zip(names, runs, accs):
            rows.append([
                name, t, result.iterations, result.samples_consumed,
                result.overhead, acc, *extra.values(), result.stop_reason.value,
            ])
    _write_csv(values, c, _stopper_header(*extra), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep-sigma


def cmd_sweep_sigma(values: dict[str, Any], c: dict[str, Any]) -> int:
    losses = [LossKind(name) for name in c["losses"]]
    root = RngState(c["seed"])

    header = [
        "sigma", "loss", "trial", "iterations", "censored",
        "accuracy", "optimal_accuracy", "ratio", "alpha",
    ]
    rows: list[list] = []
    for i_s, sigma in enumerate(c["sigma_grid"]):
        sigma = float(sigma)
        model = _gaussian_model("mu_scale", c["d"], c["mu_scale"], sigma)
        opt = optimal_accuracy(model)
        for i_l, loss in enumerate(losses):
            for t in range(c["trials"]):
                cell = root.substream(i_s).substream(i_l).substream(t)
                labeled = _labeled_source(c, sigma, cell.substream(0))
                centered = partial(center_and_fold, labeled)
                result, _, alpha = _run_stopper("zero_overhead", centered, loss, c)
                if not result.theta.any():
                    acc = 0.5  # never-updated iterate classifies at chance
                else:
                    acc = classifier_accuracy(result.theta, model)
                rows.append([
                    sigma, loss.value, t, result.iterations, result.censored,
                    acc, opt, acc / opt, alpha,
                ])
    _write_csv(values, c, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare-stoppers


def _first_rows(blocks: Iterator[Block], n: int) -> Iterator[Block]:
    """The first n rows of a block stream, drawing no block past them."""
    while n > 0 and (block := next(blocks, None)) is not None:
        yield Block(block.y[:n], block.zeta[:n])
        n -= block.y.shape[0]


def cmd_compare_stoppers(values: dict[str, Any], c: dict[str, Any]) -> int:
    sigma, eval_stream = c["sigma"], len(c["stoppers"])
    _check_svs_memory(c["stoppers"], c["d"])
    return _stopper_table(
        values, c, lambda rng, n: center_and_fold(_labeled_source(c, sigma, rng), n),
        lambda cell: _first_rows(
            _labeled_source(c, sigma, cell.substream(eval_stream)), c["eval_samples"]
        ),
    )


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


def _gaussian_model(key: str, d: int, mu_scale: float, sigma: float) -> GaussianFoldedModel:
    """N(mu_scale e1, sigma^2 I_d), whose |mu|^2 must be a positive finite double."""
    try:
        return GaussianFoldedModel(_e1_scaled(d, mu_scale), sigma)
    except ValueError as e:  # mu_scale**2 underflows to 0 or overflows
        raise ConfigError(f"config key '{key}' is out of range: {e}") from None


def _section_model(
    sec: dict[str, Any], name: str, positive: tuple[str, ...] = (), low_noise: bool = False
) -> tuple[LossKind, GaussianFoldedModel, float]:
    """Loss, model and step of section ``name`` (parsed as ``sec``), once the
    theory its check rests on is known to cover them: the ``positive`` keys
    must be > 0, and with ``low_noise`` the model must be in the loss's
    low-noise regime."""
    for key in positive:
        if not sec[key] > 0:
            raise ConfigError(f"config key '{name}.{key}' must be > 0 for the {name} check")
    loss = LossKind(sec["loss"])
    model = _gaussian_model(f"{name}.mu_scale", sec["d"], sec["mu_scale"], sec["sigma"])
    regime = regime_of(loss, model)
    if low_noise and regime is not Regime.LOW:
        raise ConfigError(
            f"config key '{name}.sigma' must be <= {LOW_NOISE_RATIO[loss]} |mu_scale| for "
            f"the {name} check, which holds in the {loss.value} low-noise regime only"
        )
    # only a high-noise set reads rho_star (see theory.regime_set)
    if (regime is Regime.HIGH and "sigma" in positive and loss is LossKind.LOGISTIC
            and sec["sigma"] * sec["sigma"] == 0):
        raise ConfigError(f"config key '{name}.sigma' is too small: sigma**2 underflows to 0 "
                          "in the logistic rho_star = 2 / sigma**2")
    return loss, model, sec["alpha"]


def _before_trials(name: str, quantity: Callable, *args):
    """A theory quantity of section ``name``, computed before any trial runs."""
    try:
        return quantity(*args)
    except OverflowError:  # alpha |mu|^2 past the range of a double
        raise ConfigError(f"config key '{name}.alpha' is too large: alpha * mu_scale**2 "
                          f"overflows the {name} bound") from None
    except FloatingPointError:  # alpha |mu|^2 below the smallest double
        raise ConfigError(f"config key '{name}.alpha' is too small: alpha * mu_scale**2 "
                          f"underflows to 0 in the {name} bound") from None
    except ArithmeticError as e:  # the hinge minimizer's bracket check, high noise only
        raise ConfigError(f"config section '{name}': {e}; sigma/|mu_scale| is too large") from None


def _expected_T(sec: dict[str, Any], name: str, root: RngState) -> Iterator[dict]:
    loss, model, alpha = _section_model(sec, name, ("sigma", "alpha"), low_noise=True)
    bound = _before_trials(name, low_regime_expected_T_bound, loss, model, alpha)
    config = SgdConfig(loss, alpha, max_iter=sec["max_iter"], rule=StopRule.extra_sample())
    yield
    stats = estimate_expected_T(model, config, sec["trials"], root.substream(1))
    ok = stats.n_censored == 0 and stats.mean <= bound
    yield _check_row(name, stats.mean, bound, stats.stderr, ok)


def _hitting_time(sec: dict[str, Any], name: str, root: RngState) -> Iterator[dict]:
    section = _section_model(sec, name, ("sigma", "alpha"))
    rset = _before_trials(name, regime_set, *section)
    theta0 = np.zeros(rset.model.d)
    bound = drift_value(rset, theta0) / rset.b
    yield
    stats = estimate_hitting_time(theta0, rset, sec["max_iter"], sec["trials"], root.substream(2))
    ok = stats.n_censored == 0 and stats.mean <= bound + 4.0 * stats.stderr
    yield _check_row(name, stats.mean, bound, stats.stderr, ok)


def _drift(sec: dict[str, Any], name: str, root: RngState) -> Iterator[dict]:
    section = _section_model(sec, name, ("sigma",), low_noise=True)
    rset = _before_trials(name, regime_set, *section)
    mu_dots = sec["mu_dots"]
    try:
        probes = make_drift_probes(rset, [float(v) for v in mu_dots], root.substream(3))
    except ValueError as e:  # a probe inside the target set, or past a double
        raise ConfigError(f"{name}.mu_dots: {e}") from None
    yield
    results = check_drift_inequality(rset, probes, sec["n_mc"], root.substream(4))
    for dot, res in zip(mu_dots, results):
        yield _check_row(
            f"drift[mu.theta={dot}]", res.estimate, -res.decrement, res.stderr, res.passed
        )


def _angle(sec: dict[str, Any], name: str, root: RngState) -> Iterator[dict]:
    loss, model, alpha = _section_model(sec, name)
    config = SgdConfig(loss, alpha, max_iter=sec["max_iter"], rule=StopRule.extra_sample())
    v = np.zeros(model.d)
    v[1] = 1.0
    yield
    dev, times = estimate_angle_deviation(model, config, v, sec["trials"], root.substream(5))
    bound = angle_bound(model.sigma, alpha, times.mean)
    slack = 3.0 * math.hypot(dev.stderr, angle_bound(model.sigma, alpha, times.stderr))
    ok = dev.n_censored == 0 and dev.mean <= bound + slack
    yield _check_row("angle_deviation", dev.mean, bound, slack / 3.0, ok)


def _target_delta(sec: dict[str, Any], name: str, root: RngState) -> Iterator[dict]:
    _, model, _ = _section_model(sec, name)
    yield
    gen = root.substream(6).generator()
    mu2 = model.mu_norm**2
    worst = 1.0
    for g, lift in normal_rounds(gen, (model.d, 1), sec["n_theta"]):
        lift = abs(lift[0])
        # shift along mu so the mean margin is exactly 1 + lift >= 1; a tiny
        # |mu|^2 overflows the shift to inf and 0 * inf to NaN, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            theta = g + ((1.0 + lift) - float(model.mu @ g)) / mu2 * model.mu
        # a NaN probability (the shift overflowed) sticks and fails the check;
        # min() would skip it
        worst = float(np.minimum(worst, termination_probability(theta, model)))
    yield _check_row("target_delta_min", worst, 0.5, 0.0, worst >= 0.5)


# Each check is a generator over one parsed section and its name: it computes
# the section's model and theory, pauses at a bare yield, then runs its
# trials and yields its rows.
_CHECKS = {"expected_T": _expected_T, "hitting_time": _hitting_time, "drift": _drift,
           "angle": _angle, "target_delta": _target_delta}


def cmd_verify_bounds(values: dict[str, Any], c: dict[str, Any]) -> int:
    root = RngState(c["seed"])
    sections = [check(c[name], name, root) for name, check in _CHECKS.items()
                if c[name] is not None]
    if not sections:
        raise ConfigError(f"no checks configured: need at least one of {', '.join(_CHECKS)}")
    for section in sections:
        next(section)  # every section's theory, before any section's trials
    checks = [row for section in sections for row in section]
    report = {"config": _echo(values), "seed": c["seed"], "checks": checks}
    _write(c["out"], json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all(row["pass"] for row in checks) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# run-real


def _read(path: str, text: bool = False) -> Any:
    """A data file's bytes, or with ``text`` its UTF-8 text (universal
    newlines); a file that cannot be read or decoded is a config or CSV error."""
    try:
        with open(path, "r", encoding="utf-8") if text else open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise ConfigError(f"cannot read data file {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise CsvError(f"data file {path} is not UTF-8 text: {e.reason}") from None


def _task(c: dict[str, Any], labels: np.ndarray, features: np.ndarray) -> Block:
    """The binary task of class_a against class_b, in the parsed dtype."""
    try:  # equal classes, a class without rows or mismatched arrays
        return make_binary_task(labels, features, c["class_a"], c["class_b"])
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _idx_images(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    images = load_idx(_read(images_path))
    if images.ndim != 3:
        raise ConfigError(f"{images_path} holds a {images.ndim}-D tensor, expected images")
    return load_idx(_read(labels_path)), images.reshape(images.shape[0], -1)


def _load_real(c: dict[str, Any]) -> tuple[Block, Block, float]:
    """(train, test, divisor) for the configured source: binary tasks in the
    parsed dtype (uint8 pixels, float CSV features) and what their features
    are divided by, 255.0 for pixels under scale_pixels and 1.0 otherwise."""
    kind = c["dataset"]
    if kind == "mnist":
        paths = _needed(
            c, "dataset is 'mnist'", "train_images", "train_labels", "test_images", "test_labels"
        )
    elif kind == "cifar10":
        batches, test_batch = _needed(c, "dataset is 'cifar10'", "train_batches", "test_batch")
        paths = [*batches, test_batch]
    else:
        paths = _needed(c, "dataset is 'csv'", "path")
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise DataMissing(missing)
    if kind == "csv":
        task = _task(c, *load_csv_points(_read(paths[0], text=True)))
        n = task.y.shape[0]
        n_test = max(1, int(c["test_fraction"] * n))
        if n_test >= n:
            raise ConfigError("test split leaves no training data")
        order = RngState(c["seed"]).substream(999).generator().permutation(n)
        y, zeta = task.y[order], task.zeta[order]
        return Block(y[n_test:], zeta[n_test:]), Block(y[:n_test], zeta[:n_test]), 1.0
    if kind == "mnist":
        splits = [_idx_images(*paths[:2]), _idx_images(*paths[2:])]
    else:
        train = [load_cifar10_batch(_read(p)) for p in batches]
        labels, pixels = (np.concatenate(arrays) for arrays in zip(*train))
        splits = [(labels, pixels), load_cifar10_batch(_read(test_batch))]
    divisor = 255.0 if c["scale_pixels"] else 1.0
    return _task(c, *splits[0]), _task(c, *splits[1]), divisor


def cmd_run_real(values: dict[str, Any], c: dict[str, Any]) -> int:
    try:
        train, test, divisor = _load_real(c)
    except DataMissing as e:
        _write_csv(values, c, _stopper_header("baseline"), [])
        print(str(e), file=sys.stderr)
        return EXIT_DATA_MISSING
    _check_svs_memory(c["stoppers"], train.zeta.shape[1])
    baseline = float(max(np.mean(test.y == 0), np.mean(test.y == 1)))
    folded = np.empty(train.zeta.shape)  # every run folds into this one buffer
    return _stopper_table(
        values, c,
        lambda rng, n: center_and_fold_split(
            train, rng.generator(), n, c["epochs"], folded, divisor
        ),
        lambda cell: [test], divisor, baseline=baseline,
    )


# ---------------------------------------------------------------------------
# entry points


_COMMANDS = {
    "sweep-sigma": (cmd_sweep_sigma, _SWEEP),
    "compare-stoppers": (cmd_compare_stoppers, _COMPARE),
    "verify-bounds": (cmd_verify_bounds, _VERIFY),
    "run-real": (cmd_run_real, _REAL),
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
    command, table = _COMMANDS[args.command]
    try:
        values = _load(args.config)
        if args.seed is not None:
            values["seed"] = args.seed
        if args.out is not None:
            values["out"] = args.out
        if args.trials is not None:
            # the command's own trial count, and that of every nested section
            # that has one; the tables check the value
            values = {
                k: ({**v, "trials": args.trials}
                    if isinstance(v, dict) and "trials" in v else v)
                for k, v in values.items()
            }
            if "trials" in table:
                values["trials"] = args.trials
        return command(values, _parse(table, values))
    except (ConfigError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
