"""Figure 6 (and Figure 2) reproduction: application signature heatmaps.

Computes CS signatures with 160 blocks over the full 16-node sensor stack
(~832 dimensions) of the Application segment, separately for each run of
a chosen set of applications, and renders the real and imaginary
components as heatmaps — each column one signature, solid vertical lines
separating runs.  The runner writes the images as binary PGM files
under ``--out``.

The paper's interpretation hooks are reproduced by the workload models:
Kripke shows clear iterations in both components, Linpack constant load
with a pronounced initialization phase, Quicksilver light load with a
periodic frequency pattern, and AMG (Figure 2) a memory-usage gradient.

The experiments are the registered ``fig6`` and ``fig2`` scenario specs
(``python -m repro run fig6 --out figures``, ``python -m repro run fig2
--out figures``); this module holds their kernels,
:func:`application_heatmaps` and :func:`run_intervals`, which the
``app-heatmap`` evaluation kind calls.
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
from repro.datasets.generators import SegmentData

__all__ = ["HeatmapResult", "run_intervals", "application_heatmaps"]


@dataclass
class HeatmapResult:
    """Signature heatmaps of one application."""

    app: str
    signatures: np.ndarray        # (num_windows, l) complex
    boundaries: np.ndarray        # column indices of run ends
    real_image: np.ndarray        # uint8
    imag_image: np.ndarray        # uint8


def run_intervals(labels: np.ndarray, label_id: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` intervals where ``labels == label_id``."""
    labels = np.asarray(labels)
    mask = labels == label_id
    if not mask.any():
        return []
    edges = np.flatnonzero(np.diff(mask.astype(np.int8)))
    starts = list(edges[~mask[edges]] + 1)
    stops = list(edges[mask[edges]] + 1)
    if mask[0]:
        starts.insert(0, 0)
    if mask[-1]:
        stops.append(labels.shape[0])
    return list(zip(starts, stops))


def application_heatmaps(
    segment: SegmentData,
    app: str,
    *,
    blocks: int = 160,
    wl: int | None = None,
    ws: int | None = None,
) -> HeatmapResult:
    """Compute the Figure 6 heatmaps for one application.

    The CS model is trained on the full stacked matrix (all nodes, all
    applications — the historical data), then signatures are computed for
    the windows inside each of the application's runs.
    """
    spec = segment.spec
    wl = spec.wl if wl is None else wl
    ws = spec.ws if ws is None else ws
    stacked = segment.stacked_matrix()
    labels = segment.components[0].labels
    if labels is None:
        raise ValueError("segment lacks labels")
    try:
        label_id = segment.label_names.index(app)
    except ValueError:
        raise KeyError(
            f"unknown application {app!r}; known: {segment.label_names}"
        ) from None
    cs = CorrelationWiseSmoothing(blocks=blocks).fit(stacked)
    all_sigs: list[np.ndarray] = []
    boundaries: list[int] = []
    total = 0
    for start, stop in run_intervals(labels, label_id):
        if stop - start < wl:
            continue
        sigs = cs.transform_series(stacked[:, start:stop], wl, ws)
        if sigs.shape[0] == 0:
            continue
        all_sigs.append(sigs)
        total += sigs.shape[0]
        boundaries.append(total - 1)
    if not all_sigs:
        raise ValueError(f"no runs of {app!r} long enough for wl={wl}")
    signatures = np.concatenate(all_sigs, axis=0)
    real, imag = signature_heatmaps(signatures)
    # Run-end separators are drawn on all but the final column.
    seps = np.asarray(boundaries[:-1], dtype=np.intp)
    real_img = add_boundaries(to_grayscale(real), seps)
    imag_img = add_boundaries(to_grayscale(imag), seps)
    return HeatmapResult(
        app=app,
        signatures=signatures,
        boundaries=np.asarray(boundaries, dtype=np.intp),
        real_image=real_img,
        imag_image=imag_img,
    )

