"""Checks that need a setting of their own process, each run as a child
pytest process.

pyproject.toml's filterwarnings hold in every tier-1 test, these children
included: a RuntimeWarning is an error, and so is a DeprecationWarning
raised from sgdstop's own code.  The child settings add what a process-wide
flag must set.  Each child also makes every deprecation warning an error,
wherever numpy attributes it (the streams set the state of a Philox
generator through its state setter).  The golden digests
(tests/test_golden.py) in the settings that can move their bytes:

* one OpenBLAS thread, the benchmark's setting: gemv's per-row rounding
  depends on how it splits rows across threads;
* one CPU: a Box-Muller run of at least numerics.SPLIT_PAIRS pairs is
  computed in halves on a helper thread only where two CPUs are usable, and
  the inline path must give the same bytes; the numerics tests check that no
  helper starts, also when first splits race, and the verify tests compare
  the drift check's pieces with its samples drawn at once.

And the helper hand-off tests of tests/test_numerics.py five runs in a row
on every usable CPU: the hand-off between callers and the helper thread is
timing dependent, so repeating it lets a race fail rather than flake once.
"""

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _child_pytest(args, extra_env=None, preexec=None) -> str:
    """Runs pytest on ``args`` in a child process; returns its output."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args],
        env={**os.environ, "PYTHONPATH": path, **(extra_env or {})}, cwd=TESTS.parent,
        preexec_fn=preexec, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, f"{child.stdout[-4000:]}{child.stderr[-2000:]}"
    return child.stdout


GOLDEN = str(TESTS / "test_golden.py")
DEPRECATIONS = ["-W", "error::DeprecationWarning"]
SETTINGS = {
    "one_blas_thread": ({"OPENBLAS_NUM_THREADS": "1"}, [GOLDEN], None),
    "one_cpu": ({}, [GOLDEN, str(TESTS / "test_numerics.py"), str(TESTS / "test_verify.py")], _pin_to_one_cpu),
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_golden_digests_hold_in_setting(setting):
    extra_env, args, preexec = SETTINGS[setting]
    if preexec is not None and not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is missing here")
    _child_pytest(["-q", *DEPRECATIONS, *args], extra_env, preexec)


HANDOFFS = [
    "test_positioned_reads_build_no_stream_generator",
    "test_normals_at_in_halves_gives_the_inline_bytes",
    "test_normals_at_of_n_normals_in_halves_gives_the_whole_array_bytes",
    "test_normals_at_from_a_second_run_inside_a_philox_block_gives_standard_normals",
    "test_the_transform_raises_no_floating_point_flag_on_stream_uniforms",
    "test_an_error_in_the_helpers_half_is_raised_by_the_caller_and_the_next_call_works",
    "test_normals_at_keeps_no_run_alive",
    "test_a_split_right_after_a_wait_cut_short_goes_to_the_helper",
    "test_normals_at_in_a_forked_child_gives_the_inline_bytes",
    "test_normals_at_from_more_threads_than_cpus_gives_the_inline_bytes",
    "test_first_splits_racing_in_a_fresh_process_start_one_helper",
]
RUNS = 5


def test_helper_handoffs_hold_five_runs_in_a_row():
    # pytest runs a node id given twice once, even with --keep-duplicates, so
    # the file is given five times and -k selects the tests; each name must
    # then be seen run five times, so a renamed test fails here, not silently
    out = _child_pytest(["-v", "--keep-duplicates", "-k", " or ".join(HANDOFFS),
                         *[str(TESTS / "test_numerics.py")] * RUNS])
    ran = Counter(re.findall(r"^tests/test_numerics\.py::(\w+)", out, flags=re.M))
    assert sorted(ran) == sorted(HANDOFFS), out[-4000:]
    assert all(count % RUNS == 0 for count in ran.values()), ran
