"""Run one sgdstop CLI command in this fresh interpreter and report timings.

Usage: child.py RESULT_JSON MODE [CLI ARGS...]

MODE is ``0`` (untraced), ``1`` (traced through ``spans.Tracer``) or
``probe`` (import the CLI and exit, to sample set-up time alone).  The
result file gets ``t_ready``, the ``perf_counter`` reading once the CLI is
imported (a system-wide monotonic clock on Linux, so the parent can subtract
its spawn time), the exit code, the wall seconds inside ``main``, the
process's peak RSS, and in traced mode the per-layer report.

An untraced command is interleaved with a fixed reference computation: an
interval timer interrupts ``main`` every ``TICK_S`` seconds of wall time and
the signal handler times one ``reference_chunk``.  The host's speed drifts by
up to a factor of two within seconds, and these samples, spread evenly over
the command, move with it.  ``ref_s`` lists them; ``wall_s`` is the time
inside ``main`` less the time spent in them.
"""

import json
import math
import resource
import signal
import sys
import time

import numpy as np

TICK_S = 0.05
MIN_TICKS = 5
REF_STEPS = 400
REF_DIM = 100


def reference_chunk() -> float:
    """Seconds for a fixed SGD-shaped loop: dot, logistic factor, scaled update.

    The mix (Python per-step overhead around small numpy calls) is that of
    the program's update loops, but the code is the benchmark's own, so no
    change to ``src/`` moves it.  It touches no state of the program.
    """
    t0 = time.perf_counter()
    block = np.random.default_rng(20031031).standard_normal((REF_STEPS // 4, REF_DIM))
    theta = np.zeros(REF_DIM)
    for _ in range(4):
        for xi in block:
            m = float(xi @ theta)
            theta += (0.01 / (1.0 + math.exp(min(m, 30.0)))) * xi
    return time.perf_counter() - t0


def run_with_reference(main, argv) -> tuple[int, float, list[float]]:
    """``main(argv)`` with reference chunks interleaved; (rc, wall_s, ref_s)."""
    ref: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda *_: ref.append(reference_chunk()))
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        t0 = time.perf_counter()
        rc = main(argv)
        wall = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sum(ref)
    while len(ref) < MIN_TICKS:  # a command too short for the timer
        ref.append(reference_chunk())
    return rc, wall, ref


def _main() -> None:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import sgdstop.cli as cli

    out = {"sgdstop_file": cli.__file__, "t_ready": time.perf_counter()}
    if mode == "0":
        out["rc"], out["wall_s"], out["ref_s"] = run_with_reference(cli.main, argv)
    elif mode == "1":
        import spans

        tracer = spans.Tracer().install()
        try:
            t0 = time.perf_counter()
            out["rc"] = tracer.call_root(cli.main, argv)
            out["wall_s"] = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        out["trace"] = tracer.report()
    elif mode != "probe":
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(out, f)


if __name__ == "__main__":
    _main()
