"""Online sliding-window signature stream (in-band ODA operation).

The CS algorithm "is designed for lightweight online operation": a
monitoring agent on a compute node pushes one sample vector per tick, and
every ``ws`` ticks a signature over the last ``wl`` samples is emitted.
:class:`OnlineSignatureStream` implements that loop on top of the
engine's :class:`~repro.engine.streaming.IncrementalSignatureCore`:
each pushed sample is sorted/normalized once and folded into running
prefix sums, so an emit costs ``O(n)`` instead of re-gathering and
re-normalizing the whole ``(n, wl)`` window as the seed implementation
did.  Emitted signatures are bit-identical to the offline
:meth:`~repro.core.pipeline.CorrelationWiseSmoothing.transform_series`
on the same samples.  :meth:`OnlineSignatureStream.push_block` is the
batched entry point for agents that deliver samples in bursts.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.model import CSModel
from repro.core.pipeline import CorrelationWiseSmoothing
from repro.engine.streaming import IncrementalSignatureCore

__all__ = ["OnlineSignatureStream"]


class OnlineSignatureStream:
    """Incremental signature computation over a live sample feed.

    Parameters
    ----------
    cs:
        A fitted :class:`~repro.core.pipeline.CorrelationWiseSmoothing`
        instance (the CS model is typically trained offline and shipped
        to the node).
    wl:
        Aggregation window length, in samples.
    ws:
        Step between emitted signatures, in samples.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import CorrelationWiseSmoothing
    >>> from repro.monitoring import OnlineSignatureStream
    >>> rng = np.random.default_rng(0)
    >>> hist = rng.random((4, 128))
    >>> cs = CorrelationWiseSmoothing(blocks=2).fit(hist)
    >>> stream = OnlineSignatureStream(cs, wl=8, ws=4)
    >>> sigs = [s for x in hist.T if (s := stream.push(x)) is not None]
    >>> len(sigs)
    31
    """

    def __init__(self, cs: CorrelationWiseSmoothing, wl: int, ws: int):
        if not cs.is_fitted:
            raise ValueError("the CS estimator must be fitted before streaming")
        if wl < 1 or ws < 1:
            raise ValueError("wl and ws must be positive")
        self.cs = cs
        self.wl = int(wl)
        self.ws = int(ws)
        self._core = IncrementalSignatureCore(
            cs.model, cs.signature_length(), self.wl, self.ws
        )

    @classmethod
    def from_model(
        cls, model: "CSModel", blocks: int, *, wl: int, ws: int
    ) -> "OnlineSignatureStream":
        """Build a stream straight from a trained :class:`CSModel`.

        Fleet-scale serving ships bare models per node (see
        :meth:`repro.engine.fleet.FleetSignatureEngine.stream`) rather
        than full estimator objects; streams built this way have
        ``cs is None`` but behave identically otherwise.
        """
        if wl < 1 or ws < 1:
            raise ValueError("wl and ws must be positive")
        stream = cls.__new__(cls)
        stream.cs = None
        stream.wl = int(wl)
        stream.ws = int(ws)
        stream._core = IncrementalSignatureCore(
            model, int(blocks), stream.wl, stream.ws
        )
        return stream

    @property
    def n_sensors(self) -> int:
        return self._core.n_sensors

    @property
    def emitted(self) -> int:
        """Signatures emitted so far."""
        return self._core.emitted

    @property
    def count(self) -> int:
        """Samples absorbed so far."""
        return self._core.count

    @property
    def state_nbytes(self) -> int:
        """Retained bytes of the incremental core (memory-per-node of
        one streaming node)."""
        return self._core.state_nbytes

    def push(self, sample: np.ndarray) -> np.ndarray | None:
        """Feed one sample vector; return a signature when one is due.

        A signature is emitted once the first full window is available and
        then every ``ws`` samples, covering the most recent ``wl`` ticks.
        Returns ``None`` on non-emitting ticks.  Cost is ``O(n)`` per call.
        """
        return self._core.push(sample)

    def push_block(self, block: np.ndarray) -> np.ndarray:
        """Feed a burst of samples as columns ``(n, m)``; return due signatures.

        Equivalent to ``m`` :meth:`push` calls (bit-identical output) but
        normalizes, prefix-sums and emits in vectorized form.  Returns a
        complex ``(k, l)`` array of the ``k`` signatures whose windows
        completed inside the block.
        """
        return self._core.push_block(block)

    def state_dict(self) -> dict:
        """Snapshot of the incremental core's retained state (see
        :meth:`repro.engine.streaming.IncrementalSignatureCore.state_dict`);
        restoring it into a stream over the same model continues the
        emission sequence bit-identically."""
        return self._core.state_dict()

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this stream."""
        self._core.load_state(state)

    def window_view(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Current *sorted, normalized* window and its preceding column.

        Rebuilt from at most two contiguous slices of the ring buffer (no
        per-element modulo gather).  Matches the corresponding slice of
        ``sort_rows(S, model)`` in offline operation.
        """
        return self._core.window_view()

    def run(self, samples: Iterable[np.ndarray]) -> list[np.ndarray]:
        """Push an iterable of samples; collect all emitted signatures.

        A 2-D array input (``(t, n)``, samples as rows — the transpose of
        the usual sensor-matrix layout, matching what iterating the
        matrix columns yields) takes the batched :meth:`push_block` path.
        """
        if isinstance(samples, np.ndarray) and samples.ndim == 2:
            return list(self._core.push_block(samples.T))
        out = []
        for sample in samples:
            sig = self.push(sample)
            if sig is not None:
                out.append(sig)
        return out
