"""Figure 7 reproduction: one application across three architectures.

Renders the 20-block CS signature heatmaps of LAMMPS runs on the three
Cross-Architecture nodes (Skylake, Knights Landing, AMD Rome).  Each node
has a different sensor count and response scaling, yet — because CS
signatures of a fixed block count are comparable across systems — the
same performance patterns appear in all three heatmaps.

The experiment is the registered ``fig7`` scenario spec (``python -m
repro run fig7 --out figures``); this module holds its kernel,
:func:`node_heatmap`, which the ``arch-heatmap`` evaluation kind calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.visualization import (
    add_boundaries,
    signature_heatmaps,
    to_grayscale,
)
from repro.core.pipeline import CorrelationWiseSmoothing
from repro.datasets.generators import ComponentData
from repro.experiments.fig6 import run_intervals

__all__ = ["NodeHeatmap", "node_heatmap"]


@dataclass
class NodeHeatmap:
    """Heatmaps of one application on one architecture."""

    arch: str
    n_sensors: int
    signatures: np.ndarray
    real_image: np.ndarray
    imag_image: np.ndarray


def node_heatmap(
    comp: ComponentData,
    label_id: int,
    wl: int,
    ws: int,
    *,
    blocks: int = 20,
) -> NodeHeatmap | None:
    """Signatures of one application's runs on one node, or None if absent."""
    cs = CorrelationWiseSmoothing(blocks=blocks).fit(comp.matrix)
    all_sigs: list[np.ndarray] = []
    boundaries: list[int] = []
    total = 0
    assert comp.labels is not None
    for start, stop in run_intervals(comp.labels, label_id):
        if stop - start < wl:
            continue
        sigs = cs.transform_series(comp.matrix[:, start:stop], wl, ws)
        if sigs.shape[0] == 0:
            continue
        all_sigs.append(sigs)
        total += sigs.shape[0]
        boundaries.append(total - 1)
    if not all_sigs:
        return None
    signatures = np.concatenate(all_sigs, axis=0)
    real, imag = signature_heatmaps(signatures)
    seps = np.asarray(boundaries[:-1], dtype=np.intp)
    return NodeHeatmap(
        arch=comp.arch,
        n_sensors=comp.n_sensors,
        signatures=signatures,
        real_image=add_boundaries(to_grayscale(real), seps),
        imag_image=add_boundaries(to_grayscale(imag), seps),
    )

