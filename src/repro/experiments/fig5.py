"""Figure 5 reproduction: signature-computation scalability.

Measures the time to compute a single signature from random ``Sw``
matrices, (a) as a function of the aggregation window ``wl`` with the
dimension count fixed at ``n = 100``, and (b) as a function of ``n`` with
``wl = 100`` — repeating each measurement and taking the median, exactly
as Section IV-D describes.  The CS training stage is excluded: models are
fitted once per matrix size before the clock starts.

Expected shapes: every method is linear in ``n``; Tuncer and Bodik are
slightly super-linear in ``wl`` (their percentiles cost
``O(wl log wl)``); CS is linear in both and roughly an order of magnitude
faster than Tuncer/Bodik at the high end, with the block count having
only a minor effect.

The experiment is the registered ``fig5`` scenario spec (``python -m
repro run fig5``); this module holds its kernels, :class:`TimingPoint`
and :func:`time_single_signature`, which the ``timing`` evaluation kind
calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.experiments.harness import make_method_factory

__all__ = ["TimingPoint", "time_single_signature"]


@dataclass
class TimingPoint:
    """One point of the Figure 5 timing curves."""

    axis: str       # "wl" or "n"
    method: str
    wl: int
    n: int
    median_time_s: float

    def row(self) -> tuple:
        return (self.axis, self.method, self.wl, self.n, self.median_time_s)


def time_single_signature(
    method_name: str,
    n: int,
    wl: int,
    *,
    repeats: int = 20,
    seed: int = 0,
) -> float:
    """Median wall-clock seconds to compute one signature.

    The method is fitted on the random matrix beforehand (CS training is
    excluded from the measurement, matching the paper's methodology).
    """
    rng = np.random.default_rng(seed)
    Sw = rng.random((n, wl))
    method = make_method_factory(method_name)()
    method.fit(Sw)
    # Warm-up pass so allocation effects don't land in the first sample.
    method.transform(Sw)
    times = np.empty(max(repeats, 1))
    for i in range(times.shape[0]):
        start = time.perf_counter()
        method.transform(Sw)
        times[i] = time.perf_counter() - start
    return float(np.median(times))

