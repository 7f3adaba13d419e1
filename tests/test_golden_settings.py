"""The golden digests (tests/test_golden.py) in the settings that can move
their bytes, each run as a child pytest process:

* one OpenBLAS thread, the benchmark's setting: gemv's per-row rounding
  depends on how it splits rows across threads;
* numpy's deprecation and runtime warnings as errors: the streams set
  Philox's state and hand Philox its key as an ISeedSequence, and no
  transform may raise a floating-point flag;
* one CPU: a Box-Muller run of at least numerics.SPLIT_PAIRS pairs is
  computed in halves on a helper thread only where two CPUs are usable, and
  the inline path must give the same bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


SETTINGS = {
    "one_blas_thread": ({"OPENBLAS_NUM_THREADS": "1"}, [], None),
    "warnings_as_errors": ({}, ["-W", "error::DeprecationWarning", "-W", "error::RuntimeWarning"], None),
    "one_cpu": ({}, [], _pin_to_one_cpu),
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_golden_digests_hold_in_setting(setting):
    extra_env, flags, preexec = SETTINGS[setting]
    if preexec is not None and not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is missing here")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, str(TESTS / "test_golden.py")],
        env={**os.environ, "PYTHONPATH": path, **extra_env}, cwd=TESTS.parent, preexec_fn=preexec,
        capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, f"{setting}:\n{child.stdout[-4000:]}{child.stderr[-2000:]}"
