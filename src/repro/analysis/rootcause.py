"""Root-cause drill-down from signature blocks to raw sensors.

"As the set of raw sensors belonging to a block is clearly defined, root
cause analysis is simplified" (Section III-C.3): when an ODA model flags
a signature, the deviating blocks can be mapped straight back to sensor
names.  This module implements that mapping plus a simple
signature-difference explainer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import block_sensor_map
from repro.core.model import CSModel

__all__ = [
    "block_sensors",
    "explain_difference",
    "findings_payload",
    "BlockFinding",
]


def block_sensors(model: CSModel, l: int, block: int) -> tuple[str, ...]:
    """Names of the raw sensors aggregated into one signature block.

    Parameters
    ----------
    model:
        Trained CS model (must carry sensor names).
    l:
        Signature length the block index refers to.
    block:
        Block index in ``[0, l)``.
    """
    if model.sensor_names is None:
        raise ValueError("CS model carries no sensor names")
    if not 0 <= block < l:
        raise ValueError(f"block must be in [0, {l}), got {block}")
    rows = block_sensor_map(model.n_sensors, l, model.permutation)[block]
    return tuple(model.sensor_names[i] for i in rows)


def _cached_block_sensors(model: CSModel, l: int, block: int) -> tuple[str, ...]:
    """:func:`block_sensors`, kept on the model per signature length and
    block: replicas share their model, so a fleet builds each block's
    names once per distinct model."""
    key = (l, block)
    names = model._block_names.get(key)
    if names is None:
        names = model._block_names[key] = block_sensors(model, l, block)
    return names


@dataclass(frozen=True)
class BlockFinding:
    """One deviating block with its provenance."""

    block: int
    delta_real: float
    delta_imag: float
    sensors: tuple[str, ...]

    @property
    def magnitude(self) -> float:
        """Combined deviation magnitude used for ranking."""
        return float(np.hypot(self.delta_real, self.delta_imag))

    def to_dict(self, *, ndigits: int | None = None) -> dict:
        """JSON-ready form (``ndigits`` rounds the float fields).

        Key order and rounding are fixed so serialized findings are
        byte-stable — alert payloads embed these in replayable JSONL.
        """

        def _num(x: float) -> float:
            return round(x, ndigits) if ndigits is not None else x

        return {
            "block": self.block,
            "delta_real": _num(self.delta_real),
            "delta_imag": _num(self.delta_imag),
            "magnitude": _num(self.magnitude),
            "sensors": list(self.sensors),
        }


def explain_difference(
    model: CSModel,
    reference: np.ndarray,
    observed: np.ndarray,
    *,
    top: int = 3,
) -> list[BlockFinding]:
    """Rank the blocks that differ most between two signatures.

    Parameters
    ----------
    model:
        The CS model both signatures were computed with.
    reference, observed:
        Complex signatures of equal length ``l`` (e.g. a healthy baseline
        and an anomalous observation).
    top:
        Number of findings to return (largest deviation first).

    Returns
    -------
    list of BlockFinding
        Each finding lists the real/imaginary deltas and the raw sensors
        feeding the block, ready for operator inspection.
    """
    ref = np.asarray(reference)
    obs = np.asarray(observed)
    if ref.shape != obs.shape or ref.ndim != 1:
        raise ValueError("signatures must be 1-D and of equal length")
    l = ref.shape[0]
    if top < 1:
        raise ValueError("top must be >= 1")
    delta = obs - ref
    magnitude = np.hypot(delta.real, delta.imag)
    order = np.argsort(magnitude)[::-1][: min(top, l)]
    findings = []
    for b in order:
        findings.append(
            BlockFinding(
                block=int(b),
                delta_real=float(delta.real[b]),
                delta_imag=float(delta.imag[b]),
                sensors=_cached_block_sensors(model, l, int(b)),
            )
        )
    return findings


def findings_payload(
    findings: list[BlockFinding], *, ndigits: int | None = None
) -> list[dict]:
    """Serializable rendering of a findings list (for alert payloads)."""
    return [f.to_dict(ndigits=ndigits) for f in findings]
