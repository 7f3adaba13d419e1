"""Per-layer tracing of one sgdstop command, installed from outside the package.

``Tracer.install`` wraps every public function (a module-level function whose
name has no leading underscore) of each layer module in every
other sgdstop module namespace that binds it (``from .x import y`` copies
the binding, so ``cli.run``, ``verify.run``, ``data.standard_normals`` and so
on are wrapped one by one), plus ``RngState.generator`` and the CLI's own
dataset stream.  Calls inside a module stay part of that module's self time.
Generator functions return iterators whose ``next`` calls are spans, and the
sample sources among them count samples handed out and generated.

Spans are not stored one by one: each is folded into per-function self-time
and call-count accumulators as it closes, which keeps memory flat over
hundreds of thousands of per-sample spans.  Self time is a span's duration
minus the durations of the spans it directly contains, so the self times of
all spans add up to the root span's duration.  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("numerics", "data", "losses", "sgd", "theory", "verify", "cli")

# Generator functions that produce samples (as opposed to transforming them).
# Synthetic sources draw Gaussian noise in blocks; the points generated are
# the normals drawn inside their ``next`` calls divided by the dimension.
_SYNTHETIC_SOURCES = {"gaussian_mixture_sampler", "folded_gaussian_stream"}
# Dataset streams hand out stored points, so every point generated is yielded.
_DATASET_SOURCES = {"dataset_stream", "_labeled_dataset_stream"}

_ESTIMATORS = {"estimate_expected_T", "estimate_angle_deviation", "estimate_hitting_time"}

# data functions whose self time is also reported as its own bucket
BUCKETS = {
    "centering_s": ("estimate_centering",),
    "parse_s": ("load_idx", "load_csv_points", "make_binary_task"),
    "score_s": ("accuracy_on_set",),
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)  # "layer.fn" -> s
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack = [0.0]  # time covered by the children of each open span
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _timed(self, key: str, fn):
        """``fn`` wrapped so that each call is a span named ``key``."""
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[key] += dt - stack.pop()
                stack[-1] += dt
                calls[key] += 1

        return timed

    def call_root(self, fn, *args):
        """Run ``fn`` as the root span (layer cli); returns its result."""
        return self._timed("cli.main", fn)(*args)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            if name in _SYNTHETIC_SOURCES:
                source = "synthetic"
            elif name in _DATASET_SOURCES:
                source = "dataset"
            else:
                source = None

            def make_stream(*args, **kwargs):
                return _Stream(self._timed(key, fn(*args, **kwargs).__next__), counts, source)

            return make_stream
        timed = self._timed(key, fn)
        if name == "standard_normals":
            def wrapper(gen, n, *args, **kwargs):
                counts["normals"] += n
                return timed(gen, n, *args, **kwargs)
        elif name == "generator":
            def wrapper(*args, **kwargs):
                counts["generators"] += 1
                return timed(*args, **kwargs)
        elif name == "run":
            def wrapper(*args, **kwargs):
                result = timed(*args, **kwargs)
                counts["iterations"] += result.iterations
                counts["samples_charged"] += result.samples_consumed
                return result
        elif name == "continue_run":
            def wrapper(base, *args, **kwargs):
                result = timed(base, *args, **kwargs)
                counts["iterations"] += result.iterations - base.iterations
                counts["samples_charged"] += result.samples_consumed - base.samples_consumed
                return result
        elif name == "sgd_step":
            def wrapper(*args, **kwargs):
                counts["iterations"] += 1
                counts["samples_charged"] += 1
                return timed(*args, **kwargs)
        elif name in _ESTIMATORS:
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                counts["trials"] += signature.bind(*args, **kwargs).arguments["n_trials"]
                return timed(*args, **kwargs)
        else:
            wrapper = timed
        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"sgdstop.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                for other, other_mod in modules.items():
                    if other != layer and other_mod.__dict__.get(name) is fn:
                        self._patch(other_mod, name, self._wrap(layer, name, fn))
        rng_state = modules["numerics"].RngState
        self._patch(rng_state, "generator", self._wrap("numerics", "generator", rng_state.generator))
        # The CLI streams datasets through its own private generator; it is
        # the data layer's work, done in cli.
        cli = modules["cli"]
        if inspect.isgeneratorfunction(getattr(cli, "_labeled_dataset_stream", None)):
            self._patch(
                cli, "_labeled_dataset_stream",
                self._wrap("data", "_labeled_dataset_stream", cli._labeled_dataset_stream),
            )
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def report(self) -> dict:
        """Per-layer metrics: self times in seconds and work counts.

        ``<layer>.self_s`` covers every span of the layer; ``data.centering_s``,
        ``data.parse_s`` and ``data.score_s`` are parts of ``data.self_s``.
        ``data.draw_yield`` is samples yielded over samples generated, and
        ``sgd.iterations`` counts updates (``continue_run`` adds only its own).
        """
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.self_s.items():
            layer_s[key.partition(".")[0]] += seconds
        counts = self.counts
        generated = counts["samples_generated"]
        iterations = counts["iterations"]
        metrics = {f"{layer}.self_s": layer_s[layer] for layer in LAYERS}
        for bucket, names in BUCKETS.items():
            metrics[f"data.{bucket}"] = sum(self.self_s[f"data.{n}"] for n in names)
        metrics.update({
            "numerics.normals": counts["normals"],
            "numerics.generators": counts["generators"],
            "data.samples_generated": generated,
            "data.samples_yielded": counts["samples_yielded"],
            "data.draw_yield": counts["samples_yielded"] / generated if generated else 0.0,
            "losses.gradient_calls": self.calls["losses.gradient_factor"],
            "sgd.iterations": iterations,
            "sgd.samples_charged": counts["samples_charged"],
            "sgd.us_per_iter": 1e6 * layer_s["sgd"] / iterations if iterations else 0.0,
            "theory.calls": sum(n for k, n in self.calls.items() if k.startswith("theory.")),
            "verify.trials": counts["trials"],
        })
        return metrics


class _Stream:
    """Iterator whose ``next`` calls are spans; sample sources also count."""

    __slots__ = ("_next", "_counts", "_source")

    def __init__(self, timed_next, counts: Counter, source: str | None) -> None:
        self._next = timed_next
        self._counts = counts
        self._source = source

    def __iter__(self):
        return self

    def __next__(self):
        if self._source is None:
            return self._next()
        counts = self._counts
        normals = counts["normals"]
        item = self._next()
        counts["samples_yielded"] += 1
        if self._source == "dataset":
            counts["samples_generated"] += 1
        else:
            drawn = counts["normals"] - normals
            if drawn:
                counts["samples_generated"] += drawn // getattr(item, "zeta", item).shape[-1]
        return item
