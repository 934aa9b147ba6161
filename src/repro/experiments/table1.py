"""Table I reproduction: overview of the dataset-collection segments.

Generates all five synthetic segments and prints, per segment: HPC
system, component count, sensors per component, total data points, series
length, sampling interval, number of feature sets and the ``wl``/``ws``
parameters — the same columns as Table I of the paper (values reflect the
scaled-down synthetic defaults; ``repro run table1 --scale`` enlarges
them).

The experiment is the registered ``table1`` scenario spec (``python -m
repro run table1``); this module holds its columns, :data:`HEADERS`, and
its kernel, :func:`segment_summary`, which the ``segment-summary``
evaluation kind calls.
"""

from __future__ import annotations

from repro.datasets.generators import SegmentData
from repro.datasets.windows import window_starts

__all__ = ["HEADERS", "segment_summary"]

HEADERS = (
    "Segment",
    "HPC System",
    "Nodes",
    "Sensors",
    "Data Points",
    "Length (samples)",
    "Interval (s)",
    "Feature Sets",
    "wl",
    "ws",
)


def segment_summary(segment: SegmentData) -> tuple:
    """One Table I row for a generated segment."""
    spec = segment.spec
    sensors = (
        "/".join(str(s) for s in spec.sensors)
        if isinstance(spec.sensors, tuple)
        else str(spec.sensors)
    )
    feature_sets = 0
    for comp in segment.components:
        starts = window_starts(comp.t, spec.wl, spec.ws)
        if spec.horizon:
            starts = starts[starts + spec.wl + spec.horizon <= comp.t]
        feature_sets += starts.size
    length = max(c.t for c in segment.components)
    return (
        spec.name,
        spec.system,
        segment.n_components,
        sensors,
        segment.total_data_points,
        length,
        spec.sampling_interval_s,
        feature_sets,
        spec.wl,
        spec.ws,
    )

