"""Per-layer tracing from outside the package.

`traced` installs timing wrappers on the module attributes that callers
resolve at call time, and restores the originals on exit. Wrapping only the
defining module would miss calls: ``from .stage1 import design_highrate``
binds a second name in ``metrics`` and ``stage2``. The wrappers sit at layer
granularity, never per bin, so that tracing costs little.

Spans are kept in memory as ``[name, start, end, parent]`` rows; index 0 is
the root span around the workload's timed section.
"""

import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from fbmclink import fbmc, metrics, stage2, theory


def _count_coeffs(tracer, args, kwargs, out):
    tracer.counts["metrics.coeffs"] += sum(c.R.size for c in out)


def _count_trial(tracer, args, kwargs, out):
    tracer.counts["metrics.trials"] += 1


def _count_highrate_bins(tracer, args, kwargs, out):
    tracer.counts["stage1.bins"] += out.taps.shape[2]


def _count_single_tap_bins(tracer, args, kwargs, out):
    tracer.counts["stage1.bins"] += out.W.shape[0]


def _count_fits(tracer, args, kwargs, out):
    tracer.counts["stage2.fits"] += math.prod(out.gbar.shape[:3])


def _count_moment_repeats(tracer, args, kwargs, out):
    bvals = args[0] if args else kwargs["bvals"]
    N_r = args[1] if len(args) > 1 else kwargs["N_r"]
    key = (N_r, np.asarray(bvals, dtype=float).tobytes())
    tracer.counts["theory.ratio_moments.repeats"] += key in tracer.moment_args
    tracer.moment_args.add(key)


# (module, attribute, span name or None for a count only, counter or None)
PATCHES = [
    (metrics, "_measure_many", "metrics.measure", _count_coeffs),
    (metrics, "trial_rng", None, _count_trial),
    (metrics, "single_tap", "stage1.single_tap", _count_single_tap_bins),
    (metrics, "design_highrate", "stage1.design_highrate", _count_highrate_bins),
    (stage2, "design_highrate", "stage1.design_highrate", _count_highrate_bins),
    (metrics, "build_lowrate_receiver", "stage2.build_bank", _count_fits),
    (metrics, "equalize_lowrate", "stage2.equalize", None),
    (metrics, "recover_symbols", "stage2.recover", None),
    (stage2, "_afb", "fbmc.afb", None),
    (fbmc, "_afb", "fbmc.afb", None),
    (metrics, "modulate", "fbmc.modulate", None),
    (metrics, "demodulate", "fbmc.demodulate", None),
    (metrics, "draw_channel", "channel.draw_channel", None),
    (metrics, "apply_channel", "channel.apply_channel", None),
    (metrics, "add_awgn", "channel.add_awgn", None),
    (metrics, "freq_csi", "channel.csi", None),
    (metrics, "estimate_csi_mmse", "channel.csi", None),
    (theory, "_ratio_moments", "theory.ratio_moments",
     _count_moment_repeats),
    (theory, "error_stats", "theory.error_stats", None),
    (theory, "average_power", "theory.average_power", None),
    (theory, "noise_power", "theory.noise_power", None),
    (theory, "interference_table", "theory.interference_table", None),
    (theory, "sir_upper_bound", "theory.sir_upper_bound", None),
]

class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.moment_args = set()    # (N_r, bvals) seen by _ratio_moments
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        row = [name, 0.0, 0.0, parent]
        self.spans.append(row)
        row[1] = perf_counter()
        return row

    def _close(self, row):
        row[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """The span around the workload's timed section."""
        row = self._open("workload")
        try:
            yield
        finally:
            self._close(row)

    def wrap(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
            else:
                row = self._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(row)
            if counter is not None:
                counter(self, args, kwargs, out)
            return out
        return wrapper

    def summary(self):
        """Self time and calls per span name, the counters, the ratio of
        repeated _ratio_moments arguments, and the share of the root span
        that layer spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans[1:], 1):
            out[f"{name}.self_s"] += (end - start) - child[i]
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        moments = out["theory.ratio_moments.calls"]
        out["theory.ratio_moments.repeat_ratio"] = (
            out["theory.ratio_moments.repeats"] / moments if moments else 0.0)
        root = self.spans[0]
        out["trace.coverage"] = child[0] / (root[2] - root[1])
        return dict(out)


@contextmanager
def traced(tracer):
    """Install the tracer's wrappers; restore every original on exit."""
    saved = []
    try:
        for module, attr, name, counter in PATCHES:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, counter))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
