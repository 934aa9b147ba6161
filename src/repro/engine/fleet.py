"""Fleet-scale batched signature service.

The paper positions CS as a *fleet-wide* online method, yet the seed
repository could only compute signatures one node at a time — an
experiment over hundreds of nodes paid the full Python + NumPy dispatch
overhead per node.  :class:`FleetSignatureEngine` holds one trained CS
model per monitored node, keyed by hierarchical sensor-tree paths
(``rack0/node3``), and computes signatures for the whole fleet in a
handful of batched NumPy calls: nodes with identical geometry are
stacked into a single ``(nodes, n, t)`` tensor and pushed through the
batched sort + smooth kernels at once.

Per-node results are bit-identical to
:meth:`repro.core.pipeline.CorrelationWiseSmoothing.transform_series`,
so offline experiments, the online stream and the fleet service can be
mixed freely.
"""

from __future__ import annotations

import fnmatch
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.model import CSModel
from repro.core.training import train_cs_model
from repro.engine.batch import normalize_rows_batch, smooth_windows_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitoring.sensor_tree import SensorTree

__all__ = ["FleetSignatureEngine"]


class FleetSignatureEngine:
    """Per-node CS models + batched fleet-wide signature computation.

    Parameters
    ----------
    blocks:
        Signature blocks ``l`` per node, or ``"all"`` for one block per
        sensor.  A block count above a node's sensor count is clamped to
        it (the CS-All configuration), so heterogeneous fleets work.
    wl, ws:
        Aggregation window length and step, in samples.
    tree:
        Optional :class:`~repro.monitoring.sensor_tree.SensorTree`; when
        given, node paths are validated against it and sensor names are
        taken from it if not supplied explicitly.
    """

    def __init__(
        self,
        blocks: int | str = "all",
        *,
        wl: int,
        ws: int,
        tree: "SensorTree | None" = None,
    ):
        if isinstance(blocks, str):
            if blocks.lower() != "all":
                raise ValueError(f"blocks must be an int or 'all', got {blocks!r}")
            self.blocks: int | None = None
        else:
            blocks = int(blocks)
            if blocks < 1:
                raise ValueError("blocks must be >= 1")
            self.blocks = blocks
        if wl < 1 or ws < 1:
            raise ValueError("wl and ws must be positive")
        self.wl = int(wl)
        self.ws = int(ws)
        self.tree = tree
        self._models: dict[str, CSModel] = {}

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    @property
    def paths(self) -> list[str]:
        """Sorted paths of all registered nodes."""
        return sorted(self._models)

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, path: str) -> bool:
        return path in self._models

    def model(self, path: str) -> CSModel:
        """The trained model of one node (KeyError if absent)."""
        return self._models[path]

    def _tree_names(self, path: str) -> tuple[str, ...] | None:
        if self.tree is None:
            return None
        try:
            names = self.tree.sensors(path)
        except (KeyError, ValueError):
            raise ValueError(f"node path {path!r} not present in the sensor tree")
        if not names:
            raise ValueError(f"node path {path!r} has no sensors in the tree")
        return tuple(names)

    def set_model(self, path: str, model: CSModel) -> "FleetSignatureEngine":
        """Install a pre-trained (possibly shipped-in) model for a node."""
        self._tree_names(path)  # path validation only
        self._models[str(path)] = model
        return self

    def fit_node(
        self,
        path: str,
        history: np.ndarray,
        *,
        sensor_names: Sequence[str] | None = None,
    ) -> "FleetSignatureEngine":
        """Train one node's CS model on its historical matrix ``(n, t)``."""
        tree_names = self._tree_names(path)
        if sensor_names is None:
            sensor_names = tree_names
        history = np.asarray(history, dtype=np.float64)
        if tree_names is not None and history.shape[0] != len(tree_names):
            raise ValueError(
                f"history for {path!r} has {history.shape[0]} rows but the "
                f"tree lists {len(tree_names)} sensors"
            )
        self._models[str(path)] = train_cs_model(history, sensor_names=sensor_names)
        return self

    def fit_fleet(
        self, histories: Mapping[str, np.ndarray]
    ) -> "FleetSignatureEngine":
        """Train every node of the fleet from a ``path -> history`` mapping."""
        for path in sorted(histories):
            self.fit_node(path, histories[path])
        return self

    def select(self, pattern: str) -> list[str]:
        """Registered node paths matching a per-segment glob pattern.

        Matching follows :meth:`SensorTree.glob` semantics: ``*`` matches
        within one slash-separated segment, so ``rack0/*`` selects every
        node of rack 0 but not deeper descendants.
        """
        pat_parts = [p for p in pattern.split("/") if p]
        out = []
        for path in self.paths:
            parts = path.split("/")
            if len(parts) == len(pat_parts) and all(
                fnmatch.fnmatchcase(p, q) for p, q in zip(parts, pat_parts)
            ):
                out.append(path)
        return out

    def signature_length(self, path: str) -> int:
        """Blocks per signature emitted for one node."""
        return self._effective_blocks(self._models[path].n_sensors)

    def stream(self, path: str):
        """A live :class:`~repro.monitoring.streaming.OnlineSignatureStream`
        for one node, built from its registered model.

        The stream shares the engine's blocks/wl/ws, so signatures it
        emits are bit-identical to :meth:`transform_node` over the same
        samples — the online serving layer (``repro.service``) keys one
        such stream per sensor-tree path.
        """
        from repro.monitoring.streaming import OnlineSignatureStream

        model = self._models[path]
        return OnlineSignatureStream.from_model(
            model,
            self._effective_blocks(model.n_sensors),
            wl=self.wl,
            ws=self.ws,
        )

    def _effective_blocks(self, n: int) -> int:
        return n if self.blocks is None else min(self.blocks, n)

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def transform_node(self, path: str, S: np.ndarray) -> np.ndarray:
        """Signatures of one node's matrix ``(n, t)``: shape ``(num, l)``."""
        return self._run_group([path], {path: np.asarray(S, dtype=np.float64)})[path]

    def transform_fleet(
        self, data: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Signatures for many nodes in one batched call.

        Parameters
        ----------
        data:
            Mapping of node path to sensor matrix ``(n, t)``.  Every path
            must have been fitted (or given a model) beforehand.

        Returns
        -------
        dict
            Node path to complex signature matrix ``(num, l)``.
        """
        arrays = {}
        for path in data:
            if path not in self._models:
                raise KeyError(f"no model fitted for node {path!r}")
            A = np.asarray(data[path], dtype=np.float64)
            if A.ndim != 2:
                raise ValueError(f"matrix for {path!r} must be 2-D, got {A.shape}")
            if A.shape[0] != self._models[path].n_sensors:
                raise ValueError(
                    f"matrix for {path!r} has {A.shape[0]} rows but its model "
                    f"was trained on {self._models[path].n_sensors} sensors"
                )
            arrays[path] = A

        # Nodes sharing (n, t, l) geometry run as one stacked tensor.
        groups: dict[tuple[int, int, int], list[str]] = {}
        for path in sorted(arrays):
            n, t = arrays[path].shape
            key = (n, t, self._effective_blocks(n))
            groups.setdefault(key, []).append(path)

        out: dict[str, np.ndarray] = {}
        for paths in groups.values():
            out.update(self._run_group(paths, arrays))
        return out

    #: Target working-set size per batched chunk.  Chunks sized to stay
    #: cache-resident beat both the per-node loop (NumPy dispatch is
    #: amortized across the chunk) and one giant fleet tensor (whose
    #: every pass spills to main memory).  Chunking is along nodes, so
    #: per-node results are unaffected.
    _CHUNK_TARGET_BYTES = 1 << 20

    def _run_group(
        self, paths: list[str], arrays: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Sort + smooth a group of same-geometry nodes, chunk by chunk."""
        n, t = arrays[paths[0]].shape
        l = self._effective_blocks(n)
        chunk = int(max(1, min(64, self._CHUNK_TARGET_BYTES // max(1, n * t * 8))))
        out: dict[str, np.ndarray] = {}
        for i in range(0, len(paths), chunk):
            part = paths[i : i + chunk]
            c = len(part)
            # Gather each node's rows straight into the chunk buffer (one
            # pass) instead of stacking raw matrices and re-gathering,
            # then normalize in place through the shared batch kernel so
            # the bits match sort_rows() exactly.
            buf = np.empty((c, n, t))
            lower = np.empty((c, n))
            upper = np.empty((c, n))
            for j, path in enumerate(part):
                model = self._models[path]
                perm = model.permutation
                np.take(arrays[path], perm, axis=0, out=buf[j])
                lower[j] = model.lower[perm]
                upper[j] = model.upper[perm]
            normalize_rows_batch(buf, lower, upper, out=buf)
            sigs = smooth_windows_batch(buf, l, self.wl, self.ws)
            out.update(zip(part, sigs))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        blocks = "all" if self.blocks is None else self.blocks
        return (
            f"FleetSignatureEngine(nodes={len(self)}, blocks={blocks}, "
            f"wl={self.wl}, ws={self.ws})"
        )
