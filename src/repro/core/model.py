"""The CS model artefact: permutation vector plus normalization bounds.

The training stage of the CS algorithm (Section III-C.1 of the paper)
produces two data structures:

* a **permutation vector** ``p`` that re-orders sensor rows so that
  correlated sensors become adjacent, and
* per-row **lower/upper bounds** used for min-max normalization.

Together these form a *CS model*, which "can be stored and re-used for the
subsequent stages of the algorithm".  This module provides that artefact as
a small dataclass with JSON persistence so that models can be shipped
between systems (the Portability requirement).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["CSModel"]


@dataclass
class CSModel:
    """Trained state of the Correlation-wise Smoothing algorithm.

    Parameters
    ----------
    permutation:
        Integer array of shape ``(n,)``; ``permutation[k]`` is the index of
        the original sensor row placed at sorted position ``k``.  The first
        entries are the rows that best describe the system state, the
        middle entries are noise-like rows, and the final entries are rows
        anti-correlated with the first ones.
    lower:
        Per-row minima (shape ``(n,)``), in *original* row order.
    upper:
        Per-row maxima (shape ``(n,)``), in *original* row order.
    sensor_names:
        Optional human-readable names for the original rows; used by the
        root-cause analysis helpers to translate block indices back into
        sensor names.
    """

    permutation: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    sensor_names: tuple[str, ...] | None = None
    _inverse: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: Sensor names per (signature length, block), filled by
    #: :mod:`repro.analysis.rootcause` on first use.
    _block_names: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.permutation = np.asarray(self.permutation, dtype=np.intp)
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        n = self.permutation.shape[0]
        if self.permutation.ndim != 1:
            raise ValueError("permutation must be one-dimensional")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError(
                f"bounds shape mismatch: permutation has {n} rows, "
                f"lower {self.lower.shape}, upper {self.upper.shape}"
            )
        if np.any(np.sort(self.permutation) != np.arange(n)):
            raise ValueError("permutation is not a permutation of 0..n-1")
        if np.any(self.upper < self.lower):
            raise ValueError("upper bounds must be >= lower bounds")
        if self.sensor_names is not None:
            self.sensor_names = tuple(self.sensor_names)
            if len(self.sensor_names) != n:
                raise ValueError(
                    f"{len(self.sensor_names)} sensor names for {n} rows"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_sensors(self) -> int:
        """Number of sensor rows this model was trained on."""
        return int(self.permutation.shape[0])

    @property
    def inverse_permutation(self) -> np.ndarray:
        """Inverse of :attr:`permutation` (sorted position of each row)."""
        if self._inverse is None:
            inv = np.empty_like(self.permutation)
            inv[self.permutation] = np.arange(self.permutation.shape[0])
            self._inverse = inv
        return self._inverse

    def sorted_names(self) -> tuple[str, ...] | None:
        """Sensor names in sorted (permuted) order, if names are known."""
        if self.sensor_names is None:
            return None
        return tuple(self.sensor_names[i] for i in self.permutation)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dictionary."""
        return {
            "format": "cs-model/v1",
            "permutation": self.permutation.tolist(),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "sensor_names": list(self.sensor_names)
            if self.sensor_names is not None
            else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CSModel":
        """Deserialize from :meth:`to_dict` output."""
        if payload.get("format") != "cs-model/v1":
            raise ValueError(f"unsupported CS model format: {payload.get('format')!r}")
        names = payload.get("sensor_names")
        return cls(
            permutation=np.asarray(payload["permutation"], dtype=np.intp),
            lower=np.asarray(payload["lower"], dtype=np.float64),
            upper=np.asarray(payload["upper"], dtype=np.float64),
            sensor_names=tuple(names) if names is not None else None,
        )

    def save(self, path: str | Path) -> None:
        """Write the model to ``path`` as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CSModel":
        """Read a model previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    # ------------------------------------------------------------------
    # Robustness against sensor-set changes (Portability requirement)
    # ------------------------------------------------------------------
    def subset(self, keep: Sequence[int]) -> "CSModel":
        """Restrict the model to a subset of the original sensor rows.

        This supports the paper's robustness claim: when sensors are
        removed from the monitoring configuration, the trained model can be
        restricted instead of retrained.  ``keep`` lists the original row
        indices to retain; the relative sorted order of the survivors is
        preserved.
        """
        keep_arr = np.unique(np.asarray(keep, dtype=np.intp))
        if keep_arr.size == 0:
            raise ValueError("cannot subset a CS model to zero sensors")
        if keep_arr.min() < 0 or keep_arr.max() >= self.n_sensors:
            raise ValueError("subset indices out of range")
        # Map old row index -> new row index.
        remap = -np.ones(self.n_sensors, dtype=np.intp)
        remap[keep_arr] = np.arange(keep_arr.size)
        surviving = self.permutation[np.isin(self.permutation, keep_arr)]
        names = (
            tuple(self.sensor_names[i] for i in keep_arr)
            if self.sensor_names is not None
            else None
        )
        return CSModel(
            permutation=remap[surviving],
            lower=self.lower[keep_arr],
            upper=self.upper[keep_arr],
            sensor_names=names,
        )
