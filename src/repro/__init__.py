"""repro: reproduction of "Correlation-wise Smoothing: Lightweight
Knowledge Extraction for HPC Monitoring Data" (Netti et al., IPDPS 2021).

Subpackages
-----------
``repro.engine``
    The unified windowed-execution subsystem: window plans, zero-copy
    views, prefix-sum reductions, batched sort/smooth kernels, the
    incremental streaming core, streaming (Welford) training and the
    fleet-scale batched signature service.
``repro.core``
    The CS algorithm itself (training / sorting / smoothing stages).
``repro.baselines``
    The Tuncer, Bodik and Lan signature baselines.
``repro.ml``
    Random forests, MLPs, cross-validation and metrics (scikit-learn
    substitute).
``repro.datasets``
    Synthetic HPC-ODA dataset collection (telemetry simulator).
``repro.monitoring``
    Monitoring substrate: sensor trees, CSV storage, time alignment,
    online streaming.
``repro.analysis``
    Jensen-Shannon compression fidelity, heatmap visualization,
    root-cause drill-down.
``repro.experiments``
    The ML harness, result sinks and per-figure kernels behind the
    paper's scenarios.
``repro.scenarios``
    Declarative scenario registry + unified experiment runner with a
    content-addressed artifact cache (``python -m repro list|run``).
"""

from repro.core import CSModel, CorrelationWiseSmoothing, signature_features
from repro.engine.fleet import FleetSignatureEngine
from repro.engine.trainer import IncrementalCSTrainer

__version__ = "1.2.0"

__all__ = [
    "CSModel",
    "CorrelationWiseSmoothing",
    "FleetSignatureEngine",
    "IncrementalCSTrainer",
    "signature_features",
    "__version__",
]
