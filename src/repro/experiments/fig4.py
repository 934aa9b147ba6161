"""Figure 4 reproduction: compression quality vs signature length.

For the first four segments and signature lengths l in {5, 10, 20, 40,
All}, this experiment computes:

* **Figure 4a** — the 2-D Jensen-Shannon divergence (Equation 4) between
  the CS signature sets and the original (sorted) data;
* **Figure 4b** — the corresponding ML scores;

both in the standard configuration and with the imaginary (derivative)
components removed (the ``-R`` variants, modelled as zeroed imaginary
parts for the divergence and dropped features for the ML score).

Expected shapes, as in the paper: JS divergence decreases and the ML
score increases monotonically with l; Fault and Power react strongly to
l, Infrastructure barely; dropping the imaginary parts raises the JS
divergence everywhere but hurts the ML score mainly for Power and Fault.

The experiment is the registered ``fig4`` scenario spec (``python -m
repro run fig4``); this module holds its kernels, :class:`Fig4Point` and
:func:`segment_js_divergence`, which the ``length-sweep`` evaluation
kind calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.similarity import cs_compression_divergence
from repro.core.pipeline import CorrelationWiseSmoothing
from repro.datasets.generators import SegmentData

__all__ = ["Fig4Point", "segment_js_divergence"]


@dataclass
class Fig4Point:
    """One point of the Figure 4 curves."""

    segment: str
    length: str
    real_only: bool
    js_divergence: float
    ml_score: float
    signature_size: int

    def row(self) -> tuple:
        return (
            self.segment,
            self.length,
            self.real_only,
            round(self.js_divergence, 4),
            round(self.ml_score, 4),
            self.signature_size,
        )


def segment_js_divergence(
    segment: SegmentData, blocks: int | str, *, real_only: bool, bins: int = 64
) -> float:
    """Mean JS divergence over the segment's components at one length.

    As in the ML harness, a block count above a component's sensor count
    clamps to one block per sensor (the CS-All configuration), so the
    full l-sweep runs on every segment.
    """
    values = []
    for comp in segment.components:
        l = blocks if isinstance(blocks, str) else min(int(blocks), comp.n_sensors)
        cs = CorrelationWiseSmoothing(blocks=l).fit(comp.matrix)
        sorted_data = cs.sort(comp.matrix)
        sigs = cs.transform_series(comp.matrix, segment.spec.wl, segment.spec.ws)
        if real_only:
            # The -R configuration discards the derivative information; the
            # imaginary half of the comparison degrades accordingly.
            sigs = sigs.real.astype(np.complex128)
        _, _, js = cs_compression_divergence(sorted_data, sigs, bins=bins)
        values.append(js)
    return float(np.mean(values))

