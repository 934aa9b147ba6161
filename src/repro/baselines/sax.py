"""Symbolic Aggregate Approximation (SAX) baseline (related work, §I-A).

"Among these we find Symbolic Aggregate Approximation and Trend-value
Approximation, which aggregate time-series data both on the time and
value axes."

Classic SAX per sensor row: the window is Piecewise-Aggregate-
Approximated (PAA) to ``segments`` means, each mean is mapped to one of
``alphabet`` symbols via Gaussian breakpoints computed from the row's
training statistics, and the integer symbols of all rows are concatenated
into the signature.  The signature length is ``n * segments``.

SAX is the only scipy user in the package (``norm.ppf`` for the
breakpoints), so scipy is imported when a ``SAXSignature`` is built, not
when this module loads: serving and every CLI command stay numpy-only.
Install it with ``pip install repro-cs[baselines]``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SignatureMethod, register_method
from repro.core.blocks import block_bounds
from repro.engine.windows import segment_means

__all__ = ["SAXSignature"]


class SAXSignature(SignatureMethod):
    """Per-sensor SAX symbols as an integer feature vector.

    Parameters
    ----------
    segments:
        PAA segments per sensor (time-axis aggregation).
    alphabet:
        Number of symbols (value-axis aggregation), ``2..26``.
    """

    name = "SAX"

    def __init__(self, segments: int = 4, alphabet: int = 8):
        if segments < 1:
            raise ValueError("segments must be >= 1")
        if not 2 <= alphabet <= 26:
            raise ValueError("alphabet must be in [2, 26]")
        self.segments = int(segments)
        self.alphabet = int(alphabet)
        try:
            from scipy.stats import norm
        except ImportError as exc:
            raise ImportError(
                "SAXSignature needs scipy: pip install repro-cs[baselines]"
            ) from exc
        # Gaussian breakpoints dividing N(0, 1) into equiprobable regions.
        self._breakpoints = norm.ppf(np.arange(1, alphabet) / alphabet)
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def fit(self, S: np.ndarray) -> "SAXSignature":
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2:
            raise ValueError(f"sensor matrix must be 2-D, got {S.shape}")
        self._mean = S.mean(axis=1)
        std = S.std(axis=1)
        self._std = np.where(std > 0, std, 1.0)
        return self

    def _normalize(self, windows: np.ndarray) -> np.ndarray:
        """Z-normalize per row with training stats (or per-window stats)."""
        if self._mean is not None and self._mean.shape[0] == windows.shape[1]:
            return (windows - self._mean[None, :, None]) / self._std[None, :, None]
        mean = windows.mean(axis=2, keepdims=True)
        std = windows.std(axis=2, keepdims=True)
        return (windows - mean) / np.where(std > 0, std, 1.0)

    def _symbols(self, windows: np.ndarray) -> np.ndarray:
        num, n, wl = windows.shape
        seg = min(self.segments, wl)
        starts, ends = block_bounds(wl, seg)
        paa = segment_means(self._normalize(windows), starts, ends)
        symbols = np.searchsorted(self._breakpoints, paa.reshape(num, -1))
        return symbols.astype(np.float64)

    def transform(self, Sw: np.ndarray) -> np.ndarray:
        Sw = np.asarray(Sw, dtype=np.float64)
        if Sw.ndim != 2:
            raise ValueError(f"window must be 2-D, got shape {Sw.shape}")
        return self._symbols(Sw[None])[0]

    def transform_batch(self, windows: np.ndarray) -> np.ndarray:
        return self._symbols(np.asarray(windows, dtype=np.float64))

    def transform_series(self, S: np.ndarray, wl: int, ws: int) -> np.ndarray:
        S = np.asarray(S, dtype=np.float64)
        if self._mean is None:
            self.fit(S)
        return super().transform_series(S, wl, ws)

    def feature_length(self, n: int, wl: int) -> int:
        return n * min(self.segments, wl)


register_method("sax", SAXSignature)
