"""Tests for the experiment CLI: configs, outputs, determinism, exit codes."""

import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import write_config, write_mnist_style_fixture
from oracles import first_rows
from sgdstop import cli, numerics
from sgdstop.data import center_and_fold, gaussian_mixture_sampler
from sgdstop.losses import LossKind
from sgdstop.numerics import RngState
from sgdstop.sgd import StopReason
from sgdstop.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DATA_MISSING,
    EXIT_OK,
    main,
)

COMMENT_RE = re.compile(r"^# config=[0-9a-f]{12} seed=\d+$")


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert COMMENT_RE.match(lines[0]), lines[0]
    return lines[0], list(csv.DictReader(lines[1:]))


def _sweep_cfg(tmp, **over):
    values = {
        "d": 6,
        "sigma_grid": [0.1, 0.5],
        "losses": ["logistic"],
        "alpha_tilde": 0.1,
        "trials": 2,
        "seed": 7,
        "out": str(tmp / "sweep.csv"),
    }
    values.update(over)
    return write_config(tmp / "sweep.json", values)


# ---------------------------------------------------------------------------
# config handling


def test_missing_config_file(tmp_path):
    assert main(["sweep-sigma", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["sweep-sigma", "--config", str(p)]) == EXIT_CONFIG


def test_non_object_config(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    assert main(["sweep-sigma", "--config", str(p)]) == EXIT_CONFIG


def test_missing_out_key(tmp_path):
    p = write_config(tmp_path / "c.json", {"d": 4, "sigma_grid": [0.1], "alpha_tilde": 0.1, "trials": 1})
    assert main(["sweep-sigma", "--config", p]) == EXIT_CONFIG


def test_invalid_sigma_grid(tmp_path):
    for grid in ([], [-1.0], [0.1, "x"]):
        p = _sweep_cfg(tmp_path, sigma_grid=grid)
        assert main(["sweep-sigma", "--config", p]) == EXIT_CONFIG


def test_unknown_loss_rejected(tmp_path):
    p = _sweep_cfg(tmp_path, losses=["perceptron"])
    assert main(["sweep-sigma", "--config", p]) == EXIT_CONFIG


def test_bad_override_values(tmp_path):
    p = _sweep_cfg(tmp_path)
    assert main(["sweep-sigma", "--config", p, "--seed", "-3"]) == EXIT_CONFIG
    assert main(["sweep-sigma", "--config", p, "--trials", "0"]) == EXIT_CONFIG


def test_wrong_value_type_rejected(tmp_path):
    p = _sweep_cfg(tmp_path, trials=True)  # bool is not an int here
    assert main(["sweep-sigma", "--config", p]) == EXIT_CONFIG
    p2 = _sweep_cfg(tmp_path, alpha_tilde="0.1")
    assert main(["sweep-sigma", "--config", p2]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# sweep-sigma


def test_sweep_sigma_output_shape(tmp_path):
    p = _sweep_cfg(tmp_path, losses=["logistic", "hinge"])
    assert main(["sweep-sigma", "--config", p]) == EXIT_OK
    comment, rows = _read_csv(tmp_path / "sweep.csv")
    assert "seed=7" in comment
    assert len(rows) == 2 * 2 * 2  # losses x grid x trials
    for row in rows:
        assert row["loss"] in ("logistic", "hinge")
        assert float(row["sigma"]) in (0.1, 0.5)
        assert int(row["iterations"]) >= 0
        acc, opt, ratio = map(float, (row["accuracy"], row["optimal_accuracy"], row["ratio"]))
        assert 0.0 <= acc <= 1.0
        assert 0.5 <= opt <= 1.0
        assert ratio == pytest.approx(acc / opt, rel=1e-12)


def test_sweep_sigma_accuracy_of_a_huge_iterate(tmp_path):
    # alpha_tilde 1e300 leaves |theta| past 1e300 after one update; its norm
    # overflows, which once read as accuracy 0.5 on every row
    p = _sweep_cfg(tmp_path, d=3, sigma_grid=[0.5], losses=["logistic", "hinge"], alpha_tilde=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep-sigma", "--config", p]) == EXIT_OK
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 4
    for row in rows:
        assert float(row["alpha"]) > 1e299
        acc, opt = float(row["accuracy"]), float(row["optimal_accuracy"])
        assert 0.5 < acc <= opt


@pytest.mark.parametrize("source", [{"source": "gaussian"}, {"source": "t2", "beta": 1e154}])
def test_sweep_sigma_accuracy_of_a_subnormal_iterate(tmp_path, source):
    # sigma 5e-324 and a subnormal step: |theta| underflows to 0 although
    # theta is not 0 (once written as accuracy 0.5), and sigma |theta|
    # underflows (once a ZeroDivisionError traceback)
    p = _sweep_cfg(tmp_path, d=1, trials=1, max_iter=1, seed=1, centering_samples=2,
                   sigma_grid=[5e-324], alpha_tilde=5e-324, **source)
    assert main(["sweep-sigma", "--config", p]) == EXIT_OK
    _, (row,) = _read_csv(tmp_path / "sweep.csv")
    assert float(row["alpha"]) > 0.0 and row["censored"] == "true"
    assert float(row["accuracy"]) == float(row["optimal_accuracy"]) == 1.0


def test_sweep_sigma_centering_overflow_is_one_error_line_and_no_warning(tmp_path, capsys):
    # t2 noise at beta 1e154 squares past a double in the centering estimate
    p = write_config(tmp_path / "sweep.json", {
        "d": 1, "source": "t2", "beta": 1e154, "sigma_grid": [5e-324], "alpha_tilde": 5e-324,
        "max_iter": 1, "trials": 1, "out": str(tmp_path / "sweep.csv"),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning, printed to stderr outside pytest
        err = _assert_rejected(capsys, "sweep-sigma", p)
    assert "overflows the centering estimate" in err, err


def test_sweep_sigma_deterministic_reruns(tmp_path):
    p1 = _sweep_cfg(tmp_path, out=str(tmp_path / "a.csv"))
    assert main(["sweep-sigma", "--config", p1]) == EXIT_OK
    assert main(["sweep-sigma", "--config", p1, "--out", str(tmp_path / "b.csv")]) == EXIT_OK
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b  # the out path is not part of the config hash


def test_sweep_sigma_seed_changes_results(tmp_path):
    p = _sweep_cfg(tmp_path, out=str(tmp_path / "a.csv"))
    assert main(["sweep-sigma", "--config", p]) == EXIT_OK
    assert main(["sweep-sigma", "--config", p, "--seed", "8", "--out", str(tmp_path / "b.csv")]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_trials_override(tmp_path):
    p = _sweep_cfg(tmp_path)
    assert main(["sweep-sigma", "--config", p, "--trials", "1"]) == EXIT_OK
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 2  # one trial per grid cell


# A table search draws each key from values at and inside its limit and
# extremes, except at most one key, drawn from values just outside its limit
# or of a wrong type.  _OMIT leaves a key out; None is JSON null.
_OMIT = "<omit>"
_POSITIVE = [5e-324, 1e-300, 0.1, 10.0, 1e154, 1e300]
_NOT_POSITIVE = [0, -0.1, math.inf, math.nan, "1", True, None, _OMIT]


def _search_dict(draw, keys):
    """A config drawn key by key, in a fixed order, so the examples are too.
    ``keys`` maps each key to (values in its limit, values outside it), each
    a list or a strategy."""
    wrong = draw(st.sampled_from([None] * len(keys) + list(keys)))  # None: every key in limit
    values = {}
    for key, (good, bad) in keys.items():
        pick = bad if key == wrong else good
        v = draw(pick if isinstance(pick, st.SearchStrategy) else st.sampled_from(pick))
        if v is not _OMIT:
            values[key] = v
    return values


@st.composite
def _sweep_values(draw):
    """A sweep-sigma config with extreme values and milliseconds of work."""
    return _search_dict(draw, {
        "d": ([1, 2, 3], [0, -1, 2.0, True, "2", None]),
        "trials": ([1, 2], [0, 1.0]),
        "max_iter": ([0, 1, 20, 50], [-1, 0.5]),  # always small: the default is 1e6
        "centering_samples": ([2, 3, _OMIT], [1, 0]),
        "seed": ([0, 1, 2**64 - 1, _OMIT], [2**64, -1, 1.5]),
        "alpha_tilde": (_POSITIVE, _NOT_POSITIVE),
        "mu_scale": ([1.0, -1.0, 5e-324, 1e-160, 1e-170, 1e300, -1e10, _OMIT],
                     [0.0, math.inf, math.nan, "1"]),
        "sigma_grid": (
            st.lists(st.sampled_from(_POSITIVE + [1e-170, 1e10]), min_size=1, max_size=2),
            [[], [0.0], [-1.0], [math.nan], ["0.1"], 0.5, None, _OMIT],
        ),
        "losses": (
            st.one_of(st.lists(st.sampled_from(["logistic", "hinge"]), min_size=1, max_size=2),
                      st.just(_OMIT)),
            [[], ["squared"], "logistic"],
        ),
        "source": (["gaussian", "t2", _OMIT], ["cauchy", None]),
        "beta": ([0.5, 0.0, 5e-324, 1e154, 1e300], [-0.1, math.inf, "1", _OMIT]),
    })


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=_sweep_values())
def test_sweep_sigma_search_ends_in_a_table_or_one_error_line(tmp_path, capsys, values):
    p = write_config(tmp_path / "s.json", {**values, "out": str(tmp_path / "s.csv")})
    code = main(["sweep-sigma", "--config", p])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG), (code, err)
    if code == EXIT_CONFIG:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# compare-stoppers


def _compare_cfg(tmp, **over):
    values = {
        "d": 6,
        "sigma": 0.5,
        "loss": "logistic",
        "alpha_tilde": 0.1,
        "trials": 3,
        "eval_samples": 500,
        "stoppers": ["zero_overhead", "zero_overhead_continue", "svs_4", "extra_sample"],
        "seed": 11,
        "out": str(tmp / "cmp.csv"),
    }
    values.update(over)
    return write_config(tmp / "cmp.json", values)


def test_compare_stoppers_rows_and_overhead(tmp_path):
    # the overhead column is the engine's count; on stopped runs it matches
    # the per-rule formulas
    p = _compare_cfg(tmp_path)
    assert main(["compare-stoppers", "--config", p]) == EXIT_OK
    _, rows = _read_csv(tmp_path / "cmp.csv")
    assert len(rows) == 3 * 4
    by_trial = {}
    for row in rows:
        by_trial.setdefault(int(row["trial"]), {})[row["stopper"]] = row
    for trial, entries in by_trial.items():
        zo = entries["zero_overhead"]
        assert int(zo["overhead"]) == 0
        k = int(zo["iterations"])
        cont = entries["zero_overhead_continue"]
        # the continue run extends the same base run by round(1.5 k) steps
        assert int(cont["iterations"]) == k + int(round(1.5 * k))
        svs = entries["svs_4"]
        iters = int(svs["iterations"])
        assert iters % 8 == 0  # stops only on checks, period 2p = 8
        assert int(svs["overhead"]) == 4 * (iters // 8 + 1)
        ex = entries["extra_sample"]
        assert int(ex["overhead"]) == int(ex["iterations"]) + 1
    for row in rows:
        assert 0.0 <= float(row["accuracy"]) <= 1.0


def _finite_blocks(n, nan_at=None):
    """The first n rows of a seeded mixture with means -e1, e1 as one block,
    with a NaN feature at row ``nan_at`` when it is given."""
    mu = np.array([1.0, 0.0, 0.0, 0.0])
    block = first_rows(gaussian_mixture_sampler(-mu, mu, 0.5, RngState(5)), n)
    if nan_at is not None:
        block.zeta[nan_at, 0] = np.nan
    return iter([block])


def test_continued_stopper_adds_the_extension_to_the_stopped_run():
    c = {"centering_samples": 10, "alpha_tilde": 0.1, "max_iter": 10_000, "continue_factor": 1.5}

    def row(blocks):
        result, _, _ = cli._run_stopper("zero_overhead_continue",
                                        partial(center_and_fold, blocks), LossKind.LOGISTIC, c)
        return result.iterations, result.samples_consumed, result.stop_reason, result.censored

    base, _, _ = cli._run_stopper("zero_overhead", partial(center_and_fold, _finite_blocks(2000)),
                                  LossKind.LOGISTIC, c)
    k = base.iterations
    assert (base.samples_consumed, base.stop_reason) == (k, StopReason.FIRED) and k > 3
    # the extension starts after the base run's 10 centering rows, k updates
    # and its uncharged firing draw
    start = 10 + k + 1
    # every extra update applied: the counts add and the base reason stands
    extra = round(1.5 * k)
    assert row(_finite_blocks(2000)) == (k + extra, k + extra, StopReason.FIRED, False)
    # the stream ends three rows into the extension: exhausted, charged its draws
    assert row(_finite_blocks(start + 3)) == (k + 3, k + 3, StopReason.EXHAUSTED, True)
    # a NaN in the extension's third draw: two updates, then diverged on that draw
    assert row(_finite_blocks(2000, nan_at=start + 2)) == (
        k + 2, k + 3, StopReason.DIVERGED, True
    )


def test_compare_stoppers_deterministic(tmp_path):
    p = _compare_cfg(tmp_path, out=str(tmp_path / "a.csv"))
    assert main(["compare-stoppers", "--config", p]) == EXIT_OK
    assert main(["compare-stoppers", "--config", p, "--out", str(tmp_path / "b.csv")]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_compare_stoppers_unknown_stopper(tmp_path, capsys):
    # svs_<p> has one spelling: p in ASCII digits with no sign, space,
    # separator or leading zero
    for name in ["svs_0", "frobnicate", "svs_+3", "svs_ 3", "svs_03", "svs_0_3", "svs_\u0663",
                 "svs_1\u0663", "svs_3\n"]:
        p = _compare_cfg(tmp_path, stoppers=["zero_overhead", name])
        err = _assert_rejected(capsys, "compare-stoppers", p)
        assert err.startswith("error: config key 'stoppers' must be"), err


def test_configs_past_pythons_int_digit_limit_are_one_error_line(tmp_path, capsys):
    # Python converts at most sys.get_int_max_str_digits() (4,300 by
    # default) decimal digits to an int: svs_<p> names p in at most 18
    # digits, and a config file holding a longer integer (or bytes that are
    # not UTF-8) is named in the error
    for name in ["svs_" + "1" * 19, "svs_" + "1" * 4400]:
        p = _compare_cfg(tmp_path, stoppers=["zero_overhead", name])
        err = _assert_rejected(capsys, "compare-stoppers", p)
        assert err.startswith("error: config key 'stoppers' must be"), err[:200]
    cases = [('{"d": 6, "loss": "\xff"}'.encode("latin-1"), "utf-8")]
    if sys.get_int_max_str_digits():  # 0: no limit
        digits = "1" * (sys.get_int_max_str_digits() + 700)
        config = Path(_compare_cfg(tmp_path)).read_text()
        long = config.replace('"eval_samples": 500', f'"eval_samples": {digits}')
        cases.append((long.encode(), "integer string conversion"))
    for text, problem in cases:
        path = tmp_path / "read.json"
        path.write_bytes(text)
        assert main(["compare-stoppers", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1, err
        assert problem in err
    assert not (tmp_path / "cmp.csv").exists()


@pytest.mark.parametrize(
    "stoppers",
    [
        ["zero_overhead_continue", "svs_4", "zero_overhead"],
        ["svs_4", "zero_overhead", "zero_overhead_continue"],
        ["zero_overhead", "zero_overhead_continue", "zero_overhead"],
        ["zero_overhead_continue", "zero_overhead", "extra_sample", "zero_overhead"],
    ],
)
def test_continued_stopper_extends_the_trials_first_zero_overhead_row(tmp_path, stoppers):
    # wherever the continued stopper stands, it replays the first
    # zero_overhead of its trial and adds round(continue_factor * k) updates
    p = _compare_cfg(tmp_path, d=5, trials=2, eval_samples=50, continue_factor=0.75,
                     stoppers=stoppers)
    assert main(["compare-stoppers", "--config", p]) == EXIT_OK
    _, rows = _read_csv(tmp_path / "cmp.csv")
    assert [row["stopper"] for row in rows] == stoppers * 2
    for t in range(2):
        trial = [row for row in rows if row["trial"] == str(t)]
        base = next(row for row in trial if row["stopper"] == "zero_overhead")
        (cont,) = [row for row in trial if row["stopper"] == "zero_overhead_continue"]
        k = int(base["iterations"])
        assert base["stop_reason"] == "fired" and int(base["samples_consumed"]) == k > 0
        total = k + int(round(0.75 * k))
        assert (int(cont["iterations"]), int(cont["samples_consumed"])) == (total, total)
        assert cont["stop_reason"] == "fired"


def test_compare_stoppers_rejects_nonpositive_eval_samples(tmp_path):
    p = _compare_cfg(tmp_path, eval_samples=0)
    _assert_config_error(_run_process("compare-stoppers", "--config", p))
    p = _compare_cfg(tmp_path, eval_samples=-5)
    assert main(["compare-stoppers", "--config", p]) == EXIT_CONFIG


@pytest.mark.parametrize("factor", [1e308, 1e154, 1000.5])
def test_continue_factor_above_its_limit_is_config_error(tmp_path, capsys, factor):
    # the extension runs round(factor * k) updates: 1e308 * k is not even a
    # finite count, and 1e154 * k would run practically forever
    p = _compare_cfg(tmp_path, d=5, trials=1, continue_factor=factor,
                     stoppers=["zero_overhead", "zero_overhead_continue"])
    err = _assert_rejected(capsys, "compare-stoppers", p)
    assert "config key 'continue_factor' must be a number in [0, 1000]" in err, err


def test_continue_factor_may_extend_a_late_base_past_max_iter(tmp_path):
    # max_iter 9 and both bases fire after 2/3 of it, so the default factor
    # 1.5 runs the continued rows past max_iter, as it always has
    p = _compare_cfg(tmp_path, d=2, trials=2, eval_samples=5, max_iter=9, seed=3,
                     stoppers=["zero_overhead", "zero_overhead_continue"])
    assert main(["compare-stoppers", "--config", p]) == EXIT_OK
    _, rows = _read_csv(tmp_path / "cmp.csv")
    got = [(r["stopper"], r["iterations"], r["samples_consumed"], r["overhead"],
            r["stop_reason"]) for r in rows]
    assert got == [
        ("zero_overhead", "8", "8", "0", "fired"),
        ("zero_overhead_continue", "20", "20", "0", "fired"),  # 8 + round(1.5 * 8)
        ("zero_overhead", "7", "7", "0", "fired"),
        ("zero_overhead_continue", "17", "17", "0", "fired"),  # 7 + round(1.5 * 7)
    ]


@pytest.mark.parametrize("command", ["sweep-sigma", "compare-stoppers"])
def test_step_that_overflows_is_config_error(tmp_path, capsys, command):
    # noise-free data (sigma 0, or a sigma whose square underflows) floor
    # sigma2_tilde at 1e-12, so alpha_tilde 1e300 gives an infinite step
    if command == "sweep-sigma":
        p = _sweep_cfg(tmp_path, trials=1, sigma_grid=[1e-200], alpha_tilde=1e300)
    else:
        p = _compare_cfg(tmp_path, trials=1, sigma=0.0, alpha_tilde=1e300)
    err = _assert_rejected(capsys, command, p)
    assert "config key 'alpha_tilde'" in err, err


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.fixed_dictionaries({
    # duplicates, and a continued stopper before, after or without its base
    "stoppers": st.lists(st.sampled_from(
        ["zero_overhead", "zero_overhead_continue", "extra_sample", "svs_1", "svs_2"]
    ), min_size=1, max_size=4),
    "continue_factor": st.sampled_from([0, 5e-324, 1, 1e154, 1e308]),
    "centering_samples": st.sampled_from([2, 3, 1]),  # the limit is 2
    "sigma": st.sampled_from([0.0, 0.5, 1e300]),
    "alpha_tilde": st.sampled_from([0.1, 10.0, 1e300]),
    "d": st.integers(1, 2),
    "trials": st.integers(1, 2),
    "max_iter": st.integers(0, 20),
    "eval_samples": st.integers(1, 3),
}))
def test_compare_stoppers_search_ends_in_a_table_or_one_error_line(tmp_path, capsys, values):
    p = write_config(tmp_path / "c.json", {**values, "seed": 1, "out": str(tmp_path / "c.csv")})
    code = main(["compare-stoppers", "--config", p])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG), (code, err)
    if code == EXIT_CONFIG:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# verify-bounds


def _verify_cfg(tmp, **over):
    values = {
        "seed": 3,
        "expected_T": {"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.1, "trials": 40},
        "drift": {"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.1, "n_mc": 4000},
        "target_delta": {"d": 6, "sigma": 0.8, "alpha": 0.1, "n_theta": 200},
        "out": str(tmp / "report.json"),
    }
    values.update(over)
    values = {k: v for k, v in values.items() if v is not None}
    return write_config(tmp / "verify.json", values)


def test_verify_bounds_passes_and_report_shape(tmp_path):
    p = _verify_cfg(tmp_path)
    assert main(["verify-bounds", "--config", p]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"config", "seed", "checks"}
    assert report["seed"] == 3
    assert "out" not in report["config"]
    assert report["config"]["expected_T"]["trials"] == 40
    names = [c["check"] for c in report["checks"]]
    assert "expected_T_mean" in names[0] or names[0].startswith("expected_T")
    for c in report["checks"]:
        assert set(c) == {"check", "value", "bound", "stderr", "pass"}
        assert c["pass"] is True


def test_verify_bounds_zero_step_control_fails(tmp_path):
    p = _verify_cfg(
        tmp_path,
        expected_T=None,
        target_delta=None,
        drift={"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.0, "n_mc": 500},
    )
    # only the drift section remains, and it must fail with alpha = 0
    assert main(["verify-bounds", "--config", p]) == EXIT_CHECK_FAILED
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(c["pass"] is False for c in report["checks"])


def test_verify_bounds_requires_some_section(tmp_path):
    p = write_config(tmp_path / "v.json", {"seed": 1, "out": str(tmp_path / "r.json")})
    assert main(["verify-bounds", "--config", p]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("expected_T", "trials", 0),
        ("hitting_time", "trials", 0),
        ("angle", "trials", -1),
        # one trial has no standard error, so the stderr slack would be NaN
        ("hitting_time", "trials", 1),
        ("angle", "trials", 1),
        ("drift", "n_mc", 1),
        ("target_delta", "n_theta", 0),
        ("expected_T", "max_iter", -1),
        ("hitting_time", "d", 0),
        ("angle", "d", 1),
        # d = 1 has no direction orthogonal to mu for a drift probe
        ("drift", "d", 1),
        ("drift", "sigma", -0.5),
        ("target_delta", "mu_scale", 0.0),
        ("angle", "alpha", math.inf),
    ],
)
def test_verify_bounds_rejects_out_of_range_section_values(tmp_path, section, key, value):
    own = {"drift": {"n_mc": 100}, "target_delta": {"n_theta": 5}}.get(section, {"trials": 2})
    valid = {"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.1, **own}
    p = write_config(
        tmp_path / "v.json",
        {"seed": 1, section: {**valid, key: value}, "out": str(tmp_path / "r.json")},
    )
    proc = _run_process("verify-bounds", "--config", p)
    _assert_config_error(proc)
    assert key in proc.stderr
    assert not (tmp_path / "r.json").exists()


# a probe inside the target set ([50.0] on this model) cannot be checked, nor
# one whose drift witness (M - mu.theta)^2 overflows ([-1e200])
@pytest.mark.parametrize("mu_dots", [["a"], [50.0], [True], [0.0, None], [-1e200]])
def test_verify_bounds_rejects_bad_drift_probes(tmp_path, capsys, mu_dots):
    p = write_config(
        tmp_path / "v.json",
        {"seed": 1, "out": str(tmp_path / "r.json"),
         "drift": {"loss": "hinge", "d": 6, "sigma": 1.2, "alpha": 0.1, "n_mc": 100,
                   "mu_dots": mu_dots}},
    )
    assert main(["verify-bounds", "--config", p]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mu_dots" in err, err
    assert not (tmp_path / "r.json").exists()


def _no_trials(*args, **kwargs):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize(
    "section, values, key",
    [
        ("expected_T", {"sigma": 0.0}, "expected_T.sigma"),
        # sigma 2 |mu| is high noise for the logistic loss
        ("expected_T", {"d": 6, "sigma": 2.0}, "expected_T.sigma"),
        ("hitting_time", {"alpha": 0.0}, "hitting_time.alpha"),
        # alpha |mu|^2 = 1e300 overflows the square of the drift witness scale M
        ("hitting_time", {"d": 3, "alpha": 1e300}, "hitting_time.alpha"),
        ("drift", {"d": 3, "alpha": 1e300}, "drift.alpha"),
        ("expected_T", {"d": 3, "alpha": 1e300}, "expected_T.alpha"),
        # mu_scale**2 underflows to 0 or overflows: no |mu|^2 for the theory
        *[(name, {"mu_scale": 1e-170}, f"{name}.mu_scale")
          for name in ("expected_T", "hitting_time", "drift", "angle", "target_delta")],
        ("target_delta", {"mu_scale": 1e300}, "target_delta.mu_scale"),
        ("hitting_time", {"mu_scale": 1e300, "sigma": 1e-10}, "hitting_time.mu_scale"),
        # alpha |mu|^2 underflows to 0, so the decrement b would be 0
        *[(name, {"alpha": 1e-300, "mu_scale": 1e-160, "sigma": 1e-161}, f"{name}.alpha")
          for name in ("expected_T", "hitting_time", "drift")],
        # high noise (sigma 0.5 |mu|), where the logistic rho_star = 2 / sigma**2
        # is computed, and sigma**2 underflows to 0
        ("hitting_time", {"mu_scale": 3e-162, "sigma": 1.5e-162}, "hitting_time.sigma"),
    ],
)
def test_verify_bounds_inputs_outside_the_theory_exit_2_before_any_trial(
    tmp_path, capsys, monkeypatch, section, values, key
):
    for name in ("estimate_expected_T", "estimate_hitting_time", "check_drift_inequality",
                 "estimate_angle_deviation"):
        monkeypatch.setattr(cli, name, _no_trials)
    own = {"drift": {"n_mc": 100}, "target_delta": {}}.get(section, {"trials": 3})
    sec = {"loss": "logistic", "d": 4, "sigma": 0.1, "alpha": 0.1, **own, **values}
    p = write_config(
        tmp_path / "v.json", {"seed": 1, section: sec, "out": str(tmp_path / "r.json")}
    )
    err = _assert_rejected(capsys, "verify-bounds", p)
    assert f"config key '{key}'" in err, err
    assert "sigma/|mu_scale|" not in err, err


def test_verify_bounds_low_noise_hinge_sections_run_without_the_ray_minimizer(tmp_path):
    # the low regime's target set, witness and bound read only M and b, so
    # |mu_scale|/sigma far past the hinge bisection's bracket still runs
    report = tmp_path / "r.json"
    p = write_config(tmp_path / "v.json", {
        "seed": 1,
        "expected_T": {"loss": "hinge", "d": 3, "sigma": 1e-5, "alpha": 0.1, "trials": 3},
        "hitting_time": {"loss": "hinge", "d": 4, "sigma": 1e-160, "alpha": 0.1, "trials": 3},
        "drift": {"loss": "hinge", "d": 4, "sigma": 5e-324, "alpha": 0.1, "n_mc": 100},
        "out": str(report),
    })
    assert main(["verify-bounds", "--config", p]) == EXIT_OK
    rows = json.loads(report.read_text())["checks"]
    assert len(rows) == 5 and all(row["pass"] for row in rows), rows


def test_verify_bounds_low_noise_logistic_sections_run_where_sigma_squared_underflows(tmp_path, recwarn):
    # no low-noise section reads rho_star = 2 / sigma**2, so a sigma whose
    # square underflows to 0 runs, with no numpy warning
    report = tmp_path / "r.json"
    p = write_config(tmp_path / "v.json", {
        "seed": 1,
        "expected_T": {"loss": "logistic", "d": 3, "sigma": 5e-324, "alpha": 0.1, "trials": 3},
        "hitting_time": {"loss": "logistic", "d": 4, "sigma": 5e-324, "alpha": 0.1, "trials": 3},
        "drift": {"loss": "logistic", "d": 4, "sigma": 5e-324, "alpha": 0.1, "n_mc": 100},
        "out": str(report),
    })
    assert main(["verify-bounds", "--config", p]) == EXIT_OK
    rows = json.loads(report.read_text())["checks"]
    assert len(rows) == 5 and all(row["pass"] for row in rows), rows
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


def test_verify_bounds_high_noise_hinge_sigma_that_overflows_the_bracket_exits_2(
    tmp_path, capsys, monkeypatch
):
    # sigma / (|mu| sqrt(2 pi)) overflows, whose log the bracket cannot hold
    monkeypatch.setattr(cli, "estimate_hitting_time", _no_trials)
    sec = {"loss": "hinge", "d": 4, "mu_scale": 1e-150, "sigma": 1e300, "alpha": 0.1, "trials": 3}
    p = write_config(
        tmp_path / "v.json", {"seed": 1, "hitting_time": sec, "out": str(tmp_path / "r.json")}
    )
    err = _assert_rejected(capsys, "verify-bounds", p)
    assert "config section 'hitting_time'" in err and "sigma/|mu_scale| is too large" in err, err


def test_verify_bounds_checks_every_section_before_any_trial(tmp_path, capsys, monkeypatch):
    # a valid expected_T section, then a hinge drift section outside the low regime
    for name in ("estimate_expected_T", "check_drift_inequality"):
        monkeypatch.setattr(cli, name, _no_trials)
    p = write_config(tmp_path / "v.json", {
        "seed": 1,
        "expected_T": {"loss": "logistic", "d": 4, "sigma": 0.1, "alpha": 0.1, "trials": 3},
        "drift": {"loss": "hinge", "d": 4, "sigma": 5.0, "alpha": 0.1, "n_mc": 100},
        "out": str(tmp_path / "r.json"),
    })
    err = _assert_rejected(capsys, "verify-bounds", p)
    assert "config key 'drift.sigma'" in err, err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_target_delta_fails_when_every_probability_is_nan(tmp_path):
    # |mu|^2 = 1e-320: the shift along mu overflows, so every theta and every
    # firing probability is NaN, which min() once skipped to report 1.0, a pass
    p = write_config(tmp_path / "v.json", {
        "target_delta": {"d": 3, "mu_scale": 1e-160, "sigma": 0.8, "alpha": 0.1, "n_theta": 5},
        "out": str(tmp_path / "r.json"),
    })
    assert main(["verify-bounds", "--config", p]) == EXIT_CHECK_FAILED
    (row,) = json.loads((tmp_path / "r.json").read_text())["checks"]
    assert (row["check"], row["value"], row["pass"]) == ("target_delta_min", None, False)


def test_target_delta_overflowing_shift_warns_nothing(tmp_path, capsys):
    # the same overflow, computed quietly: numpy warnings are errors here
    p = write_config(tmp_path / "v.json", {
        "target_delta": {"d": 3, "mu_scale": 1e-160, "sigma": 0.8, "alpha": 0.1, "n_theta": 5},
        "out": str(tmp_path / "r.json"),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify-bounds", "--config", p]) == EXIT_CHECK_FAILED
    (row,) = json.loads((tmp_path / "r.json").read_text())["checks"]
    assert (row["value"], row["pass"]) == (None, False)
    assert capsys.readouterr().err == ""


def test_target_delta_reads_neither_loss_nor_alpha(tmp_path):
    # no alpha, a hinge section with alpha 123 and a logistic one with alpha 0
    # give the same rows
    model = {"d": 3, "sigma": 0.8, "n_theta": 40}
    rows = []
    for i, own in enumerate([{}, {"loss": "hinge", "alpha": 123}, {"loss": "logistic", "alpha": 0}]):
        out = tmp_path / f"r{i}.json"
        p = write_config(tmp_path / f"v{i}.json", {"target_delta": {**model, **own}, "out": str(out)})
        assert main(["verify-bounds", "--config", p]) == EXIT_OK
        rows.append(json.loads(out.read_text())["checks"])
    assert rows[0] == rows[1] == rows[2] and len(rows[0]) == 1


def test_verify_bounds_deterministic(tmp_path):
    p = _verify_cfg(tmp_path, out=str(tmp_path / "a.json"))
    assert main(["verify-bounds", "--config", p]) == EXIT_OK
    assert main(["verify-bounds", "--config", p, "--out", str(tmp_path / "b.json")]) == EXIT_OK
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# magnitudes at and past the ends of a double: 0, the least subnormal, values
# whose square underflows or overflows, and a few ordinary ones
_EXTREMES = [0.0, 5e-324, 1e-300, 1e-170, 1e-160, 1e-10, 0.1, 1.0, 2.0, 1e10, 1e154, 1e300]


@st.composite
def _verify_section(draw):
    """One verify-bounds section with extreme model values and small work."""
    name = draw(st.sampled_from([key for key in cli._VERIFY if key not in cli._COMMON]))
    values = st.sampled_from(_EXTREMES)
    sec = {
        "loss": draw(st.sampled_from(["logistic", "hinge"])),
        "d": draw(st.sampled_from([2, 3])),
        "mu_scale": draw(values) * draw(st.sampled_from([1.0, -1.0])),
        "sigma": draw(values),
        "alpha": draw(values),
    }
    own = {
        "trials": st.integers(1, 2),
        "max_iter": st.integers(0, 50),
        "n_mc": st.integers(1, 5),
        "n_theta": st.integers(1, 3),
        "mu_dots": st.lists(st.sampled_from([-1e300, -5.0, 0.0, 0.9, 1e10, 1e300]), min_size=1,
                            max_size=3),
    }
    for key, strategy in own.items():  # in a fixed order, so the examples are too
        if key in cli._VERIFY[name].kind:
            sec[key] = draw(strategy)
    return name, sec


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(section=_verify_section())
def test_verify_bounds_section_search_ends_in_a_report_or_one_error_line(
    tmp_path, capsys, section
):
    name, sec = section
    p = write_config(tmp_path / "v.json",
                     {"seed": 1, name: sec, "out": str(tmp_path / "r.json")})
    code = main(["verify-bounds", "--config", p])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CHECK_FAILED), (code, err)
    if code == EXIT_CONFIG:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# run-real


def test_run_real_missing_data_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "real.json",
        {
            "dataset": "mnist",
            "train_images": str(tmp_path / "absent-images"),
            "train_labels": str(tmp_path / "absent-labels"),
            "test_images": str(tmp_path / "absent-test-images"),
            "test_labels": str(tmp_path / "absent-test-labels"),
            "class_a": 1,
            "class_b": 8,
            "alpha_tilde": 0.005,
            "out": str(tmp_path / "real.csv"),
        },
    )
    assert main(["run-real", "--config", cfg]) == EXIT_DATA_MISSING
    err = capsys.readouterr().err
    assert "missing" in err.lower()
    lines = (tmp_path / "real.csv").read_text().splitlines()
    assert COMMENT_RE.match(lines[0])
    assert len(lines) == 2  # comment + header, no data rows


@pytest.fixture(scope="module")
def real_search_data(tmp_path_factory):
    """Small datasets of every kind: a CSV with labels 0, 1 and 2, an
    MNIST-shaped IDX set (labels 1, 8 and 3) and CIFAR-10 batches (3 and 5)."""
    tmp = tmp_path_factory.mktemp("real-search")
    paths = {"csv": tmp / "points.csv", **write_mnist_style_fixture(tmp / "idx", 60, 20)}
    rows = [f"{i % 7 + 3 * (i % 2)},{(i * 5) % 11},{i % 3}" for i in range(60)]
    paths["csv"].write_text("x0,x1,label\n" + "\n".join(rows) + "\n")
    gen = RngState(5).generator()
    for name, n in (("batch", 40), ("test_batch", 10)):
        records = gen.integers(0, 256, size=(n, 3073), dtype=np.uint8)
        records[:, 0] = np.where(np.arange(n) % 2, 3, 5)
        paths[name] = tmp / name
        paths[name].write_bytes(records.tobytes())
    return {k: str(v) for k, v in paths.items()}


@st.composite
def _real_values(draw, data):
    """A run-real config over the search datasets, with extreme values."""
    dataset = draw(st.sampled_from(["csv", "mnist", "cifar10"]))
    source = {
        "csv": {"path": data["csv"]},
        "mnist": {k: data[k] for k in ("train_images", "train_labels", "test_images",
                                       "test_labels")},
        "cifar10": {"train_batches": [data["batch"]], "test_batch": data["test_batch"]},
    }[dataset]
    if draw(st.sampled_from([False, False, True])):
        # a path left out, missing, or naming a file of another kind
        key = draw(st.sampled_from(sorted(source)))
        v = draw(st.sampled_from([data["csv"] + ".absent", data["csv"], data["batch"],
                                  data["train_images"], _OMIT]))
        if key == "train_batches" and v is not _OMIT:
            v = draw(st.sampled_from([[v], [], v]))
        source[key] = v
    a, b = draw(st.permutations({"csv": [0, 1, 2], "mnist": [1, 8, 3],
                                 "cifar10": [3, 5]}[dataset]))[:2]
    return {**{key: v for key, v in source.items() if v is not _OMIT}, **_search_dict(draw, {
        "dataset": ([dataset], ["idx", None]),
        "class_a": ([a], [9, 2**70, "1", _OMIT]),
        "class_b": ([b], [a, -1, 1.0, None]),
        "trials": ([1, 2, _OMIT], [0]),
        "max_iter": ([0, 1, 30], [-1]),  # always small: epochs null cycles until max_iter
        "epochs": ([1, 2, None, _OMIT], [0, "1", 1.5]),
        "centering_samples": ([2, 3, 40, _OMIT], [1]),
        "seed": ([0, 2**64 - 1, _OMIT], [2**64]),
        "alpha_tilde": (_POSITIVE, _NOT_POSITIVE),
        "loss": (["logistic", "hinge", _OMIT], ["squared"]),
        "continue_factor": ([0, 5e-324, 1.5, 1000, _OMIT], [1001, 1e308, -1]),
        "stoppers": (
            st.one_of(st.lists(st.sampled_from(["zero_overhead", "zero_overhead_continue",
                                                "extra_sample", "svs_1", "svs_3"]),
                               min_size=1, max_size=3), st.just(_OMIT)),
            [[], ["svs_0"], ["nope"]],
        ),
        "scale_pixels": ([True, False, _OMIT], [1, None]),
        "test_fraction": ([5e-324, 0.01, 0.2, 0.98, 1 - 2**-53, _OMIT], [0, 1, -0.5]),
    })}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_run_real_search_ends_in_a_table_or_one_error_line(
    tmp_path, capsys, real_search_data, data
):
    values = data.draw(_real_values(real_search_data))
    p = write_config(tmp_path / "r.json", {**values, "out": str(tmp_path / "r.csv")})
    code = main(["run-real", "--config", p])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA_MISSING), (code, err)
    if code == EXIT_CONFIG:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_run_real_mnist_style_fixture(tmp_path):
    paths = write_mnist_style_fixture(tmp_path / "data")
    cfg = write_config(
        tmp_path / "real.json",
        {
            "dataset": "mnist",
            **paths,
            "class_a": 1,
            "class_b": 8,
            "alpha_tilde": 0.005,
            "trials": 2,
            "stoppers": ["zero_overhead", "zero_overhead_continue"],
            "seed": 5,
            "out": str(tmp_path / "real.csv"),
        },
    )
    assert main(["run-real", "--config", cfg]) == EXIT_OK
    _, rows = _read_csv(tmp_path / "real.csv")
    assert len(rows) == 4
    for row in rows:
        assert float(row["accuracy"]) > float(row["baseline"])
        assert 0.0 < float(row["baseline"]) < 1.0
    by_stopper = {}
    for row in rows:
        by_stopper.setdefault(row["stopper"], []).append(row)
    for zo, cont in zip(by_stopper["zero_overhead"], by_stopper["zero_overhead_continue"]):
        k = int(zo["iterations"])
        assert int(cont["iterations"]) == k + int(round(1.5 * k))


@pytest.mark.parametrize("scale_pixels", [True, False])
def test_run_real_keeps_the_pixel_split_uint8_and_unchanged(tmp_path, monkeypatch, scale_pixels):
    # every run folds the parsed training split, still uint8, into one float
    # buffer of the command; the split itself is never written
    paths = write_mnist_style_fixture(tmp_path / "data", n_train=120, n_test=30)
    cfg = write_config(tmp_path / "real.json", {
        "dataset": "mnist", **paths, "class_a": 1, "class_b": 8, "alpha_tilde": 0.05,
        "trials": 2, "epochs": 3, "stoppers": ["zero_overhead", "svs_4", "extra_sample"],
        "scale_pixels": scale_pixels, "out": str(tmp_path / "real.csv"),
    })
    calls = []
    real = cli.center_and_fold_split

    def recorded(split, gen, n, epochs, out, divisor):
        calls.append((split, split.zeta.tobytes(), out, divisor))
        return real(split, gen, n, epochs, out, divisor)

    monkeypatch.setattr(cli, "center_and_fold_split", recorded)
    assert main(["run-real", "--config", cfg]) == EXIT_OK
    assert len(calls) == 6  # three stoppers in each of two trials
    split, before, out, divisor = calls[0]
    assert split.zeta.dtype == np.uint8 and out.dtype == float
    assert divisor == (255.0 if scale_pixels else 1.0)
    for other, _, other_out, _ in calls:
        assert other is split and other_out is out
    assert split.zeta.tobytes() == before


def test_run_real_csv_dataset(tmp_path):
    rng = np.random.default_rng(13)
    lines = ["x0,x1,x2,label"]
    for _ in range(300):
        y = int(rng.random() < 0.5)
        center = 1.0 if y else -1.0
        v = rng.normal(loc=center, scale=0.3, size=3)
        lines.append(f"{v[0]},{v[1]},{v[2]},{y}")
    data = tmp_path / "points.csv"
    data.write_text("\n".join(lines) + "\n")
    cfg = write_config(
        tmp_path / "real.json",
        {
            "dataset": "csv",
            "path": str(data),
            "class_a": 0,
            "class_b": 1,
            "alpha_tilde": 0.1,
            "test_fraction": 0.25,
            "seed": 2,
            "out": str(tmp_path / "real.csv"),
        },
    )
    assert main(["run-real", "--config", cfg]) == EXIT_OK
    _, rows = _read_csv(tmp_path / "real.csv")
    assert len(rows) == 1
    assert float(rows[0]["accuracy"]) > float(rows[0]["baseline"])


def _real_csv_cfg(tmp, **over):
    data = tmp / "points.csv"
    data.write_text(
        "x0,x1,label\n" + "".join(f"{i % 7},{-(i % 5)},{i % 2}\n" for i in range(40))
    )
    values = {"dataset": "csv", "path": str(data), "class_a": 0, "class_b": 1,
              "alpha_tilde": 0.1, "stoppers": ["zero_overhead", "zero_overhead_continue"],
              "out": str(tmp / "o.csv")}
    values.update(over)
    return write_config(tmp / "real.json", values)


def test_run_real_extra_sample_that_runs_out_counts_only_the_checks_drawn(tmp_path):
    # 32 training rows, 10 of them for centering: the 22 left alternate check
    # and update, and the stream ends on the twelfth check
    p = _real_csv_cfg(tmp_path, stoppers=["extra_sample"], centering_samples=10)
    assert main(["run-real", "--config", p]) == EXIT_OK
    _, [row] = _read_csv(tmp_path / "o.csv")
    k, samples = int(row["iterations"]), int(row["samples_consumed"])
    assert (row["stop_reason"], k, samples) == ("exhausted", 11, 22)
    assert int(row["overhead"]) == samples - k


_RUN_SETTING_CONFIGS = {
    "sweep-sigma": _sweep_cfg,
    "compare-stoppers": _compare_cfg,
    "run-real": _real_csv_cfg,
}


@pytest.mark.parametrize(
    "command, key, value",
    [
        (command, key, value)
        for command in _RUN_SETTING_CONFIGS
        for key, value in [
            ("alpha_tilde", 0), ("alpha_tilde", math.inf), ("centering_samples", 1),
            ("max_iter", -1), ("continue_factor", -1), ("continue_factor", math.nan),
        ]
        if not (command == "sweep-sigma" and key == "continue_factor")
    ]
    + [
        ("sweep-sigma", "beta", -1), ("compare-stoppers", "beta", -1),
        ("sweep-sigma", "mu_scale", 0), ("compare-stoppers", "mu_scale", math.nan),
        ("sweep-sigma", "sigma_grid", [math.inf]), ("compare-stoppers", "sigma", math.inf),
        ("compare-stoppers", "sigma", math.nan), ("compare-stoppers", "stoppers", [1]),
        ("run-real", "stoppers", ["zero_overhead", None]),
        # mu_scale**2 underflows to 0 or overflows: the model has no |mu|^2
        ("sweep-sigma", "mu_scale", 1e-170), ("sweep-sigma", "mu_scale", 1e300),
    ],
)
def test_out_of_range_run_settings_are_config_errors(tmp_path, capsys, command, key, value):
    over = {key: value, "source": "t2"} if key == "beta" else {key: value}
    p = _RUN_SETTING_CONFIGS[command](tmp_path, **over)
    assert main([command, "--config", p]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err, err


_CONFIGS = {**_RUN_SETTING_CONFIGS, "verify-bounds": _verify_cfg}
_SECTION = {"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.1}


def _assert_rejected(capsys, command, config):
    """Exit 2 with one error line and no output file; returns the line."""
    out = json.loads(Path(config).read_text())["out"]
    assert main([command, "--config", config]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not Path(out).exists()
    return err


@pytest.mark.parametrize(
    "command, over, message",
    [
        ("compare-stoppers", {"stopper": ["svs_4"]}, "'stopper'; did you mean 'stoppers'?"),
        ("compare-stoppers", {"max_iters": 10}, "'max_iters'; did you mean 'max_iter'?"),
        ("sweep-sigma", {"loss": ["hinge"]}, "'loss'; did you mean 'losses'?"),
        ("run-real", {"epoch": 2}, "'epoch'; did you mean 'epochs'?"),
        ("verify-bounds", {"hiting_time": {**_SECTION, "trials": 2}},
         "'hiting_time'; did you mean 'hitting_time'?"),
        # the unknown key is reported, not the required key it was meant to be
        ("verify-bounds", {"expected_T": {**_SECTION, "trial": 3}},
         "'expected_T.trial'; did you mean 'trials'?"),
    ],
)
def test_unknown_keys_name_the_closest_known_key(tmp_path, capsys, command, over, message):
    err = _assert_rejected(capsys, command, _CONFIGS[command](tmp_path, **over))
    assert err == f"error: unknown config key {message}\n"


@pytest.mark.parametrize(
    "command, over, key",
    [
        ("compare-stoppers", {"stoppers": []}, "stoppers"),
        ("run-real", {"stoppers": []}, "stoppers"),
        ("verify-bounds", {"drift": {**_SECTION, "mu_dots": []}}, "drift.mu_dots"),
        ("sweep-sigma", {"seed": -1}, "seed"),
        ("verify-bounds", {"seed": 2**64}, "seed"),
        ("run-real", {"epochs": True}, "epochs"),
        ("verify-bounds", {"expected_T": {**_SECTION, "sigma": math.inf, "trials": 2}},
         "expected_T.sigma"),
        ("compare-stoppers", {"alpha_tilde": 10**400}, "alpha_tilde"),
        ("sweep-sigma", {"sigma_grid": [0.1, 10**400]}, "sigma_grid"),
        ("sweep-sigma", {"source": "t2"}, "beta"),
    ],
)
def test_values_outside_the_command_table_are_config_errors(
    tmp_path, capsys, command, over, key
):
    err = _assert_rejected(capsys, command, _CONFIGS[command](tmp_path, **over))
    assert f"config key '{key}'" in err, err


@pytest.mark.parametrize(
    "over", [{}, {"stoppers": ["svs_16"], "centering_samples": 40}]
)
def test_run_real_training_set_too_short_is_config_error(tmp_path, capsys, over):
    # 60 rows, 48 of them for training: centering uses them up before the
    # first step, or leaves fewer than the 16 validation samples
    data = tmp_path / "points.csv"
    data.write_text("x0,x1,label\n" + "".join(f"{i % 7},{-(i % 5)},{i % 2}\n" for i in range(60)))
    cfg = write_config(
        tmp_path / "real.json",
        {"dataset": "csv", "path": str(data), "class_a": 0, "class_b": 1,
         "alpha_tilde": 0.1, "out": str(tmp_path / "o.csv"), **over},
    )
    err = _assert_rejected(capsys, "run-real", cfg)
    assert "centering_samples" in err and "epochs" in err, err


# main in a process held to 2 GiB of address space
_MAIN_IN_2_GIB = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
    "from sgdstop.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_svs_past_its_memory_cap_is_config_error_before_any_trial(tmp_path):
    # svs_100000000 at d 100 would stack 80 GB of validation rows before
    # its first update; the cap rejects it at once
    p = _compare_cfg(tmp_path, d=100, stoppers=["zero_overhead", "svs_100000000"])
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_IN_2_GIB, "compare-stoppers", "--config", p],
        capture_output=True, text=True, timeout=60,
    )
    _assert_config_error(proc)
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "config key 'stoppers': svs_100000000 at d = 100" in proc.stderr, proc.stderr
    assert not (tmp_path / "cmp.csv").exists()


@pytest.mark.parametrize("p, message", [(171196, "raise epochs"), (171197, "2**27")])
def test_run_real_svs_memory_cap_is_checked_once_the_data_is_read(tmp_path, capsys, p, message):
    # d = 784: p * d <= 2**27 up to p = 171,196, which passes the cap and
    # then finds too few training rows; one more is over the cap
    paths = write_mnist_style_fixture(tmp_path / "data", n_train=120, n_test=30)
    cfg = write_config(tmp_path / "real.json", {
        "dataset": "mnist", **paths, "class_a": 1, "class_b": 8, "alpha_tilde": 0.05,
        "stoppers": ["zero_overhead", f"svs_{p}"], "out": str(tmp_path / "real.csv"),
    })
    err = _assert_rejected(capsys, "run-real", cfg)
    assert message in err, err


def test_centering_estimate_that_overflows_is_config_error(tmp_path, capsys):
    # squared residuals of points at 1e300 overflow sigma2_tilde to inf
    p = _sweep_cfg(tmp_path, d=4, sigma_grid=[1e300], trials=1)
    err = _assert_rejected(capsys, "sweep-sigma", p)
    assert "stopper zero_overhead" in err and "overflows the centering estimate" in err, err


def test_centering_window_with_one_class_is_config_error(tmp_path, capsys):
    # two centering samples, then two more, all of one class: 1 in 8 trials
    p = _sweep_cfg(tmp_path, d=4, sigma_grid=[0.5], trials=30, centering_samples=2, seed=0)
    err = _assert_rejected(capsys, "sweep-sigma", p)
    assert "one class absent" in err and "raise centering_samples" in err, err


_README = Path(__file__).resolve().parents[1] / "README.md"


def _documented(key) -> list[str]:
    """The default and limit cells of a README key table row."""
    default = "required" if key.default is cli.REQUIRED else f"`{json.dumps(key.default)}`"
    return [default, key.limit]


def test_readme_configs_and_key_tables_match_the_command_tables():
    parts = re.split(r"^### (\S+)$", _README.read_text(), flags=re.M)
    text_of = dict(zip(parts[1::2], parts[2::2]))
    for command, (_, table) in cli._COMMANDS.items():
        text = text_of[command]
        blocks = re.findall(r"```json\n(.*?)```", text, flags=re.S)
        assert blocks, command
        for block in blocks:
            cli._parse(table, json.loads(block))  # a ConfigError names the key
        keys, section_keys = {}, {}
        for line in text.splitlines():
            if line.startswith("| `"):
                names, *cells = [cell.strip() for cell in line.strip("|").split(" | ")]
                for name in re.findall(r"`([^`]+)`", names):
                    if len(cells) == 3:  # a verify-bounds section key: sections, default, limit
                        for section in cells[0].split(", "):
                            section_keys.setdefault(section, {})[name] = cells[1:]
                    else:
                        keys[name] = cells
        assert keys == {k: _documented(v) for k, v in table.items()}, command
        assert section_keys == {
            section: {k: _documented(v) for k, v in entry.kind.items()}
            for section, entry in table.items() if isinstance(entry.kind, dict)
        }, command


@pytest.mark.parametrize(
    "command, make_cfg", [("compare-stoppers", _compare_cfg), ("verify-bounds", _verify_cfg)]
)
def test_unwritable_out_is_config_error(tmp_path, capsys, command, make_cfg):
    # a directory that does not exist is rejected with the config, before any trial
    err = _assert_rejected(capsys, command, make_cfg(tmp_path, out=str(tmp_path / "no" / "x")))
    assert "'out'" in err
    # so are an empty path and an existing directory, which no file can be written to
    for out in ("", str(tmp_path)):
        assert main([command, "--config", make_cfg(tmp_path, out=out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'out' must be") and err.count("\n") == 1, err
    # a path that passes the table but cannot be written is one error line too
    assert main([command, "--config", make_cfg(tmp_path, out="/dev/full")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output /dev/full") and err.count("\n") == 1, err


@pytest.mark.parametrize("contents", [b"x0,label\n\xff\xfe,0\n", None])
def test_run_real_unreadable_data_file_is_config_error(tmp_path, capsys, contents):
    # a CSV that is not UTF-8, or a data path that is a directory
    data = tmp_path / "bad.csv"
    if contents is None:
        data.mkdir()
    else:
        data.write_bytes(contents)
    err = _assert_rejected(capsys, "run-real", _real_csv_cfg(tmp_path, path=str(data)))
    assert str(data) in err


def test_run_real_rejects_nonpositive_epochs(tmp_path):
    paths = write_mnist_style_fixture(tmp_path / "data", n_train=40, n_test=10)
    for epochs in (0, -1):
        cfg = write_config(
            tmp_path / "real.json",
            {"dataset": "mnist", **paths, "class_a": 1, "class_b": 8,
             "alpha_tilde": 0.005, "epochs": epochs, "out": str(tmp_path / "o.csv")},
        )
        assert main(["run-real", "--config", cfg]) == EXIT_CONFIG


def test_compare_stoppers_reports_diverged(tmp_path, monkeypatch):
    # a NaN feature in the first row after the 100 centering rows reaches
    # every rule's first margin: the runs stop as diverged, not censored
    real_source = cli._labeled_source

    def poisoned(cfg, sigma, rng):
        blocks = real_source(cfg, sigma, rng)
        first = next(blocks)
        first.zeta[100, 0] = np.nan
        return itertools.chain([first], blocks)

    monkeypatch.setattr(cli, "_labeled_source", poisoned)
    p = _compare_cfg(
        tmp_path, stoppers=["zero_overhead", "extra_sample", "zero_overhead_continue"]
    )
    assert main(["compare-stoppers", "--config", p]) == EXIT_OK
    _, rows = _read_csv(tmp_path / "cmp.csv")
    assert len(rows) == 3 * 3
    assert {row["stop_reason"] for row in rows} == {"diverged"}
    assert {row["iterations"] for row in rows} == {"0"}


@pytest.mark.parametrize(
    "dataset, class_a, class_b",
    [("mnist", 1, 5), ("mnist", 8, 8), ("csv", 0, 1), ("csv", 0, 0)],
)
def test_run_real_absent_or_equal_classes_is_config_error(tmp_path, dataset, class_a, class_b):
    if dataset == "mnist":
        source = write_mnist_style_fixture(tmp_path / "data", n_train=40, n_test=10)
    else:  # every row has label 0, so class 1 has no rows
        data = tmp_path / "points.csv"
        data.write_text("x0,x1,label\n" + "".join(f"{i},{-i},0\n" for i in range(20)))
        source = {"path": str(data)}
    cfg = write_config(
        tmp_path / "real.json",
        {"dataset": dataset, **source, "class_a": class_a, "class_b": class_b,
         "alpha_tilde": 0.005, "out": str(tmp_path / "o.csv")},
    )
    _assert_config_error(_run_process("run-real", "--config", cfg))


def test_run_real_unknown_dataset(tmp_path):
    cfg = write_config(
        tmp_path / "real.json",
        {"dataset": "imagenet", "class_a": 0, "class_b": 1, "alpha_tilde": 0.1,
         "out": str(tmp_path / "o.csv")},
    )
    assert main(["run-real", "--config", cfg]) == EXIT_CONFIG


def test_run_real_corrupt_idx_is_config_error(tmp_path):
    bad = tmp_path / "corrupt"
    bad.write_bytes(b"\x00\x00\x08\x99garbage")
    cfg = write_config(
        tmp_path / "real.json",
        {
            "dataset": "mnist",
            "train_images": str(bad),
            "train_labels": str(bad),
            "test_images": str(bad),
            "test_labels": str(bad),
            "class_a": 1,
            "class_b": 8,
            "alpha_tilde": 0.005,
            "out": str(tmp_path / "o.csv"),
        },
    )
    assert main(["run-real", "--config", cfg]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# console entry point


def _run_process(*args):
    return subprocess.run(
        [sys.executable, "-m", "sgdstop.cli", *args], capture_output=True, text=True
    )


def _assert_config_error(proc):
    """Exit 2 with one error line on stderr, not a traceback."""
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_diverged_runs_print_nothing_on_stderr(tmp_path):
    # alpha_tilde 1e308 overflows the iterate: the continued rows read
    # diverged, and numpy's overflow warnings would only repeat that
    p = _compare_cfg(tmp_path, d=50, sigma=5, loss="hinge", alpha_tilde=1e308, trials=2,
                     eval_samples=50, stoppers=["svs_20", "zero_overhead_continue"],
                     continue_factor=1000)
    proc = _run_process("compare-stoppers", "--config", p)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    _, rows = _read_csv(tmp_path / "cmp.csv")
    assert [row["stop_reason"] for row in rows[1::2]] == ["diverged", "diverged"]


def test_console_script_runs(tmp_path):
    p = _sweep_cfg(tmp_path)
    proc = _run_process("sweep-sigma", "--config", p)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "sweep.csv").exists()


# prints the exit code, the unwanted modules loaded at all, and the numpy
# modules first loaded inside the command (their import time would count as
# the command's run time)
_MAIN_THEN_MODULES = """
import sys
from sgdstop.cli import main
ready = set(sys.modules)
code = main(sys.argv[1:])
late = sorted(m for m in set(sys.modules) - ready if m.partition(".")[0] == "numpy")
print(code, [m for m in ("scipy", "numpy.polynomial") if m in sys.modules], late)
"""


# runs main in a fresh interpreter and prints its exit code, the thread count
# before and after it, and how many runs reached the Box-Muller helper
_MAIN_THEN_THREADS = """
import sys, threading
from sgdstop import numerics
from sgdstop.cli import main
reached, box_muller_helper = [], numerics._box_muller_helper
numerics._box_muller_helper = lambda: reached.append(1) or box_muller_helper()
before = threading.active_count()
code = main(sys.argv[1:])
print(code, before, threading.active_count(), len(reached))
"""


def _readme_verify_config():
    section = re.split(r"^### (\S+)$", _README.read_text(), flags=re.M)
    body = section[section.index("verify-bounds") + 1]
    return json.loads(body.split("```json\n", 1)[1].split("```", 1)[0])


def _threads_around_main(tmp, values):
    cfg = write_config(tmp / "verify.json", {**values, "out": str(tmp / "report.json")})
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_THREADS, "verify-bounds", "--config", cfg],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return [int(v) for v in proc.stdout.split()]


def test_readme_verify_bounds_starts_no_thread_below_the_split(tmp_path):
    values = _readme_verify_config()
    # drift draws its n_mc d normals in one run of 100,000 pairs, the only
    # run of the README config at or above numerics.SPLIT_PAIRS
    assert values["drift"]["n_mc"] * values["drift"]["d"] // 2 >= numerics.SPLIT_PAIRS
    del values["drift"]
    code, before, after, reached = _threads_around_main(tmp_path, values)
    assert (code, reached) == (EXIT_OK, 0)
    assert after == before


def test_readme_verify_bounds_starts_at_most_one_helper(tmp_path):
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    code, before, after, reached = _threads_around_main(tmp_path, _readme_verify_config())
    assert code == EXIT_OK and reached >= 1
    assert after == before + (cpus >= 2)


def test_cli_import_loads_no_thread_pool():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, threading, sgdstop.cli; "
         "print('concurrent.futures' in sys.modules, threading.active_count())"],
        capture_output=True, text=True,
    )
    assert proc.stdout == "False 1\n", proc.stderr


def _verify_hinge_cfg(tmp):
    # the high-noise hinge hitting_time section solves for the ray minimizer rho_star
    return write_config(tmp / "verify.json", {
        "seed": 0,
        "hitting_time": {"loss": "hinge", "d": 6, "sigma": 2.0, "alpha": 0.05, "trials": 3},
        "drift": {"loss": "hinge", "d": 6, "sigma": 1.2, "alpha": 0.1, "n_mc": 200},
        "target_delta": {"loss": "hinge", "d": 6, "sigma": 0.8, "alpha": 0.1, "n_theta": 20},
        "out": str(tmp / "report.json"),
    })


def _real_mnist_cfg(tmp):
    paths = write_mnist_style_fixture(tmp / "data", n_train=200, n_test=50)
    return write_config(tmp / "real.json", {
        "dataset": "mnist", **paths, "class_a": 1, "class_b": 8, "alpha_tilde": 0.005,
        "stoppers": ["zero_overhead", "svs_4"], "out": str(tmp / "real.csv"),
    })


_README_COMMANDS = {
    "sweep-sigma": lambda tmp: _sweep_cfg(tmp, losses=["logistic", "hinge"]),
    "compare-stoppers": lambda tmp: _compare_cfg(tmp, trials=1, loss="hinge"),
    "verify-bounds": _verify_hinge_cfg,
    "run-real": _real_mnist_cfg,
}


@pytest.mark.parametrize("command", list(_README_COMMANDS))
def test_commands_import_no_scipy_and_numpy_only_at_start_up(tmp_path, command):
    cfg = _README_COMMANDS[command](tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_MODULES, command, "--config", cfg],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{EXIT_OK} [] []\n", proc.stdout


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
