"""Section IV-F reproduction: portability across architectures.

Follows the paper's three-step protocol exactly:

1. apply the CS method to each of the three nodes *independently*,
   generating 20-block signatures (so all feature vectors have the same
   length despite 52/46/39 sensors per node);
2. merge the three per-node datasets into one;
3. run 5-fold stratified cross-validation classifying the running
   application with no knowledge of the architecture.

The paper reports F1 = 0.995 with a random forest and 0.992 with a
multi-layer perceptron; our synthetic segment should land similarly high,
and — crucially — the experiment is *impossible* with the baselines,
whose signature lengths differ per node (we verify that too).

The experiment is the registered ``crossarch`` scenario spec (``python
-m repro run crossarch``); this module holds :class:`CrossArchResult` and
:func:`baseline_signature_lengths`, which the ``merged-crossarch``
evaluation kind uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import get_method
from repro.datasets.generators import generate_cross_architecture

__all__ = ["CrossArchResult", "baseline_signature_lengths"]


@dataclass
class CrossArchResult:
    """Outcome of the merged cross-architecture classification."""

    rf_f1: float
    mlp_f1: float
    n_samples: int
    signature_size: int
    per_arch_counts: dict[str, int]


def baseline_signature_lengths(segment=None, *, seed: int = 0, t: int = 900) -> dict:
    """Per-node Tuncer signature lengths — demonstrably incompatible.

    Returns a mapping ``arch -> feature length``; the values differ, which
    is why "this experiment cannot be reproduced at all using the baseline
    methods".
    """
    if segment is None:
        segment = generate_cross_architecture(seed=seed, t=t)
    method = get_method("tuncer")
    return {
        comp.arch: method.feature_length(comp.n_sensors, segment.spec.wl)
        for comp in segment.components
    }

