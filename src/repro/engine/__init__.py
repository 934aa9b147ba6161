"""repro.engine — the unified windowed-execution subsystem.

Every layer of the repository that slides a window over monitoring data
routes through this package:

* :mod:`~repro.engine.windows` — :class:`WindowPlan`, zero-copy
  :func:`windowed_view` and prefix-sum reductions (the primitives);
* :mod:`~repro.engine.batch` — batched sort + smooth kernels with
  leading batch axes (``repro.core.smoothing`` delegates here);
* :mod:`~repro.engine.scan` — vectorized linear-recurrence scans
  (chunked first-order affine form, diagonalized 2x2 oscillator) that
  ``repro.datasets`` generates telemetry through;
* :mod:`~repro.engine.streaming` — :class:`IncrementalSignatureCore`,
  the O(n)-per-emit core behind the online stream;
* :mod:`~repro.engine.hotpath` — :class:`TickArena`, the service's one
  fleet tick path: fused, zero-allocation absorb → signature → forest
  votes in preallocated arenas, with exact (bit-identical to the
  streaming core) and float32 signature modes;
* :mod:`~repro.engine.trainer` — :class:`IncrementalCSTrainer`,
  streaming min-max + Welford co-moment training for drift retraining;
* :mod:`~repro.engine.fleet` — :class:`FleetSignatureEngine`, per-node
  models keyed by sensor-tree paths with batched fleet-wide transforms.

Layering: ``windows`` and ``batch`` sit *below* ``repro.core`` (core
imports them); ``streaming``/``trainer``/``fleet`` sit beside core and
import only its leaf modules (``model``, ``training``), never the
pipeline — which keeps the import graph acyclic.
"""

from repro.engine.batch import (
    normalize_rows_batch,
    smooth_windows_batch,
    sort_rows_batch,
)
from repro.engine.fleet import FleetSignatureEngine
from repro.engine.hotpath import SIGNATURE_MODES, TickArena
from repro.engine.scan import (
    damped_oscillation_scan,
    ema_scan,
    first_order_affine_scan,
)
from repro.engine.streaming import IncrementalSignatureCore
from repro.engine.trainer import IncrementalCSTrainer
from repro.engine.windows import (
    WindowPlan,
    partition_bounds,
    prefix_sums,
    segment_means,
    segment_sums,
    window_means,
    window_sums,
    windowed_view,
)

__all__ = [
    "FleetSignatureEngine",
    "IncrementalCSTrainer",
    "IncrementalSignatureCore",
    "SIGNATURE_MODES",
    "TickArena",
    "WindowPlan",
    "damped_oscillation_scan",
    "ema_scan",
    "first_order_affine_scan",
    "normalize_rows_batch",
    "partition_bounds",
    "prefix_sums",
    "segment_means",
    "segment_sums",
    "smooth_windows_batch",
    "sort_rows_batch",
    "window_means",
    "window_sums",
    "windowed_view",
]
