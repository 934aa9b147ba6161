"""Append-only, time-partitioned columnar telemetry store.

The live service consumes telemetry tick by tick; evaluating a detector
change against *recorded* telemetry should not.  This module is the
on-disk plane for that: a directory of immutable, time-partitioned
``.npz`` partitions — one column-major ``(sensors, ticks)`` plane per
(partition, node) — plus a small JSON index, written with the
:func:`~repro.monitoring.storage.atomic_savez` fsync discipline so a
crash mid-write (or mid-compaction) can never leave a torn partition.

Format ``repro-telestore/v1``::

    <root>/
      store.json                    # manifest + partition index (atomic)
      part-<t0>-<t1>.npz            # one partition: plane_<i> per node
      checkpoints/                  # optional: detector checkpoints the
                                    # retention policy must respect

``store.json`` carries the node schema (paths, sensor counts, dtypes),
free-form ``meta`` (the service layer records fleet fingerprint, guard
status and live chunk size there) and the partition index: tick range,
byte size and SHA-256 content hash per partition.  Each partition is
additionally self-describing (``manifest`` member, format
``repro-telestore-part/v1``) so a damaged index never orphans data.

Planes are stored **column-major** (Fortran order): one tick's column
is contiguous, so slicing an arbitrary ``[t0, t1)`` sub-range out of a
memory-mapped partition touches exactly that range's pages.  Reading
goes through PR 5's zip-offset mmap path
(:func:`~repro.monitoring.storage.load_npz_arrays`): :meth:`TeleStore.scan`
iterates a store of any size with peak memory bounded by one partition —
fleet-months never need to fit in RAM.

Retention is explicit: :meth:`TeleStore.compact` merges adjacent small
partitions (new files first, index flip second, unlink last — crash-safe
at every step), :meth:`TeleStore.prune` drops the oldest partitions but
**refuses** — with a typed :class:`RetentionError` — to drop any
partition a detector checkpoint still references (a ``--resume`` after
such a prune could otherwise never replay its remaining ticks).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.monitoring.storage import (
    _fsync_dir,
    _temp_sibling,
    atomic_savez,
    load_npz_arrays,
)

__all__ = [
    "STORE_FORMAT",
    "PARTITION_FORMAT",
    "TeleStoreError",
    "RetentionError",
    "PartitionInfo",
    "TelemetryRecorder",
    "TeleStore",
]

#: On-disk format version of the store directory (``store.json``).
STORE_FORMAT = "repro-telestore/v1"
#: Format version of each partition's embedded manifest.
PARTITION_FORMAT = "repro-telestore-part/v1"

_STORE_JSON = "store.json"
_CHECKPOINT_DIR = "checkpoints"


class TeleStoreError(ValueError):
    """A telemetry store is malformed, misused or failed validation."""


class RetentionError(TeleStoreError):
    """Retention would drop data a checkpoint still references.

    ``partition`` is the offending partition file name, ``checkpoint``
    the path of the checkpoint pinning it, ``next_lo`` the first sample
    that checkpoint still needs.
    """

    def __init__(
        self, message: str, *, partition: str, checkpoint: str, next_lo: int
    ):
        super().__init__(message)
        self.partition = partition
        self.checkpoint = checkpoint
        self.next_lo = int(next_lo)


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Durable atomic JSON write (same discipline as ``atomic_savez``)."""
    tmp = _temp_sibling(path)
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    finally:
        if tmp.exists():
            tmp.unlink()


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class PartitionInfo:
    """One immutable partition: ``[t0, t1)`` ticks in ``file``."""

    file: str
    t0: int
    t1: int
    sha256: str
    bytes: int

    @property
    def ticks(self) -> int:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "t0": self.t0,
            "t1": self.t1,
            "sha256": self.sha256,
            "bytes": self.bytes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PartitionInfo":
        return cls(
            file=str(d["file"]),
            t0=int(d["t0"]),
            t1=int(d["t1"]),
            sha256=str(d["sha256"]),
            bytes=int(d["bytes"]),
        )


def _partition_name(t0: int, t1: int) -> str:
    return f"part-{t0:010d}-{t1:010d}.npz"


def _validate_nodes(nodes: Mapping[str, tuple[int, np.dtype]]) -> list[dict]:
    if not nodes:
        raise TeleStoreError("a telemetry store needs at least one node")
    out = []
    for path in sorted(nodes):
        sensors, dtype = nodes[path]
        dtype = np.dtype(dtype)
        if dtype.hasobject:
            raise TeleStoreError(
                f"node {path!r}: object dtypes cannot be stored "
                "(not memory-mappable)"
            )
        if int(sensors) < 1:
            raise TeleStoreError(f"node {path!r}: needs >= 1 sensor rows")
        out.append(
            {"path": path, "sensors": int(sensors), "dtype": dtype.str}
        )
    return out


def _write_partition(
    root: Path,
    node_schema: Sequence[dict],
    t0: int,
    planes: Mapping[str, np.ndarray],
) -> PartitionInfo:
    """Write one immutable partition file and return its index entry."""
    m = next(iter(planes.values())).shape[1]
    t1 = t0 + m
    name = _partition_name(t0, t1)
    manifest = {
        "format": PARTITION_FORMAT,
        "t0": int(t0),
        "t1": int(t1),
        "paths": [n["path"] for n in node_schema],
    }
    arrays: dict[str, np.ndarray] = {
        "manifest": np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
    }
    for i, node in enumerate(node_schema):
        plane = planes[node["path"]]
        # Column-major so one tick's column is contiguous: scans of a
        # tick sub-range fault in exactly that range's pages.
        arrays[f"plane_{i}"] = np.asfortranarray(plane)
    path = root / name
    atomic_savez(path, **arrays)
    return PartitionInfo(
        file=name,
        t0=int(t0),
        t1=int(t1),
        sha256=_sha256_file(path),
        bytes=path.stat().st_size,
    )


class TelemetryRecorder:
    """Append-only writer: buffers bursts, flushes full partitions.

    Create a fresh store with :meth:`create` (declaring the node schema
    up front) or resume appending to an existing one with :meth:`open`.
    Every :meth:`append` must carry the same tick count for every node
    (the fleet is time-aligned); sensor counts and dtypes may differ
    per node (a ragged fleet).  ``close()`` flushes the tail partition
    and finalizes the index — a recorder is a context manager.
    """

    def __init__(
        self,
        root: Path,
        node_schema: list[dict],
        *,
        partition_ticks: int,
        meta: dict,
        partitions: list[PartitionInfo],
        next_tick: int,
    ):
        self.root = root
        self._schema = node_schema
        self._dtypes = {
            n["path"]: np.dtype(n["dtype"]) for n in node_schema
        }
        self._sensors = {n["path"]: n["sensors"] for n in node_schema}
        self.partition_ticks = int(partition_ticks)
        self.meta = dict(meta)
        self._partitions = list(partitions)
        self._next_tick = int(next_tick)
        self._buf: dict[str, list[np.ndarray]] = {
            n["path"]: [] for n in node_schema
        }
        self._buffered = 0
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str | Path,
        nodes: Mapping[str, tuple[int, np.dtype]],
        *,
        partition_ticks: int = 1024,
        meta: dict | None = None,
    ) -> "TelemetryRecorder":
        """Start a fresh store at ``root`` (must not already be one)."""
        if partition_ticks < 1:
            raise TeleStoreError("partition_ticks must be >= 1")
        root = Path(root)
        if (root / _STORE_JSON).exists():
            raise TeleStoreError(
                f"{root} already holds a telemetry store; use "
                "TelemetryRecorder.open() to append"
            )
        root.mkdir(parents=True, exist_ok=True)
        rec = cls(
            root,
            _validate_nodes(nodes),
            partition_ticks=partition_ticks,
            meta=meta or {},
            partitions=[],
            next_tick=0,
        )
        rec._write_index()
        return rec

    @classmethod
    def open(cls, root: str | Path) -> "TelemetryRecorder":
        """Resume appending to an existing store (append-only: new
        samples continue at the store's current ``t1``)."""
        store = TeleStore(root)
        return cls(
            store.root,
            store.node_schema,
            partition_ticks=store.partition_ticks,
            meta=store.meta,
            partitions=list(store.partitions),
            next_tick=store.t1,
        )

    # ------------------------------------------------------------------
    @property
    def paths(self) -> list[str]:
        return [n["path"] for n in self._schema]

    def append(self, burst: Mapping[str, np.ndarray]) -> None:
        """Buffer one time-aligned burst: ``{path: (sensors, m)}``."""
        if self._closed:
            raise TeleStoreError("recorder is closed")
        missing = [p for p in self._dtypes if p not in burst]
        unknown = [p for p in burst if p not in self._dtypes]
        if missing or unknown:
            raise TeleStoreError(
                f"burst node set mismatch: missing {missing!r}, "
                f"unknown {unknown!r}"
            )
        ms = set()
        staged = {}
        for path in self.paths:
            a = np.asarray(burst[path], dtype=self._dtypes[path])
            if a.ndim != 2 or a.shape[0] != self._sensors[path]:
                raise TeleStoreError(
                    f"node {path!r}: burst shape {a.shape} does not match "
                    f"({self._sensors[path]}, m)"
                )
            ms.add(a.shape[1])
            staged[path] = a
        if len(ms) != 1:
            raise TeleStoreError(
                f"burst tick counts differ across nodes: {sorted(ms)}"
            )
        m = ms.pop()
        if m == 0:
            return
        for path, a in staged.items():
            self._buf[path].append(a)
        self._buffered += m
        while self._buffered >= self.partition_ticks:
            self._flush(self.partition_ticks)

    def flush(self) -> None:
        """Flush any buffered tail as one (short) partition."""
        if self._buffered:
            self._flush(self._buffered)

    def close(self) -> None:
        """Flush the tail and finalize the index (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._write_index()
        self._closed = True

    def __enter__(self) -> "TelemetryRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _flush(self, ticks: int) -> None:
        planes = {}
        for path, chunks in self._buf.items():
            whole = chunks[0] if len(chunks) == 1 else np.concatenate(
                chunks, axis=1
            )
            planes[path] = whole[:, :ticks]
            rest = whole[:, ticks:]
            self._buf[path] = [rest] if rest.shape[1] else []
        info = _write_partition(
            self.root, self._schema, self._next_tick, planes
        )
        self._partitions.append(info)
        self._next_tick = info.t1
        self._buffered -= ticks
        self._write_index()

    def _write_index(self) -> None:
        _atomic_write_json(
            self.root / _STORE_JSON,
            {
                "format": STORE_FORMAT,
                "nodes": self._schema,
                "partition_ticks": self.partition_ticks,
                "meta": self.meta,
                "partitions": [p.to_dict() for p in self._partitions],
            },
        )


class TeleStore:
    """Read/retention side of a recorded store directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        index_path = self.root / _STORE_JSON
        if not index_path.exists():
            raise TeleStoreError(f"{self.root} is not a telemetry store")
        index = json.loads(index_path.read_text())
        if index.get("format") != STORE_FORMAT:
            raise TeleStoreError(
                f"{self.root}: unsupported store format "
                f"{index.get('format')!r} (expected {STORE_FORMAT!r})"
            )
        self.node_schema: list[dict] = list(index["nodes"])
        self.partition_ticks = int(index["partition_ticks"])
        self.meta: dict = dict(index.get("meta", {}))
        self.partitions: list[PartitionInfo] = [
            PartitionInfo.from_dict(d) for d in index["partitions"]
        ]
        for a, b in zip(self.partitions, self.partitions[1:]):
            if b.t0 != a.t1:
                raise TeleStoreError(
                    f"{self.root}: partition gap between {a.file} "
                    f"and {b.file}"
                )

    # ------------------------------------------------------------------
    @property
    def paths(self) -> list[str]:
        return [n["path"] for n in self.node_schema]

    def dtype(self, path: str) -> np.dtype:
        for n in self.node_schema:
            if n["path"] == path:
                return np.dtype(n["dtype"])
        raise KeyError(path)

    def sensors(self, path: str) -> int:
        for n in self.node_schema:
            if n["path"] == path:
                return int(n["sensors"])
        raise KeyError(path)

    @property
    def t0(self) -> int:
        return self.partitions[0].t0 if self.partitions else 0

    @property
    def t1(self) -> int:
        return self.partitions[-1].t1 if self.partitions else 0

    @property
    def ticks(self) -> int:
        return self.t1 - self.t0

    @property
    def nbytes(self) -> int:
        return sum(p.bytes for p in self.partitions)

    # ------------------------------------------------------------------
    def _load_planes(
        self, info: PartitionInfo, mmap_mode: str | None
    ) -> dict[str, np.ndarray]:
        path = self.root / info.file
        arrays = load_npz_arrays(path, mmap_mode)
        if "manifest" not in arrays:
            raise TeleStoreError(f"{path}: not a telestore partition")
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        if manifest.get("format") != PARTITION_FORMAT:
            raise TeleStoreError(
                f"{path}: unsupported partition format "
                f"{manifest.get('format')!r}"
            )
        paths = manifest["paths"]
        if paths != self.paths:
            raise TeleStoreError(
                f"{path}: partition node set {paths!r} does not match "
                f"the store index {self.paths!r}"
            )
        return {p: arrays[f"plane_{i}"] for i, p in enumerate(paths)}

    def _clip(self, t0: int | None, t1: int | None) -> tuple[int, int]:
        lo = self.t0 if t0 is None else int(t0)
        hi = self.t1 if t1 is None else int(t1)
        if lo < self.t0 or hi > self.t1 or lo > hi:
            raise TeleStoreError(
                f"window [{lo}, {hi}) outside recorded range "
                f"[{self.t0}, {self.t1}) — pruned away or never recorded"
            )
        return lo, hi

    def scan(
        self,
        t0: int | None = None,
        t1: int | None = None,
        *,
        mmap_mode: str | None = "r",
    ) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
        """Iterate ``(tick0, {path: (sensors, m) plane})`` blocks.

        One block per partition intersecting ``[t0, t1)``, clipped to
        the window.  With the default ``mmap_mode="r"`` planes are
        zero-copy memory-mapped views straight out of the archive —
        peak resident memory is bounded by the pages a consumer actually
        touches per partition, never by store size.  ``mmap_mode=None``
        reads eager copies (identical values, test-enforced).
        """
        lo, hi = self._clip(t0, t1)
        for info in self.partitions:
            if info.t1 <= lo or info.t0 >= hi:
                continue
            a = max(lo, info.t0)
            b = min(hi, info.t1)
            planes = self._load_planes(info, mmap_mode)
            yield a, {
                p: plane[:, a - info.t0 : b - info.t0]
                for p, plane in planes.items()
            }

    def read(
        self, t0: int | None = None, t1: int | None = None
    ) -> dict[str, np.ndarray]:
        """Materialize ``[t0, t1)`` as one matrix per node (eager)."""
        lo, hi = self._clip(t0, t1)
        parts: dict[str, list[np.ndarray]] = {p: [] for p in self.paths}
        for _, planes in self.scan(lo, hi, mmap_mode="r"):
            for p, plane in planes.items():
                parts[p].append(np.ascontiguousarray(plane))
        return {
            p: (
                np.concatenate(chunks, axis=1)
                if chunks
                else np.empty((self.sensors(p), 0), dtype=self.dtype(p))
            )
            for p, chunks in parts.items()
        }

    # ------------------------------------------------------------------
    def stat(self) -> dict:
        """Summary payload for ``repro store stat``."""
        return {
            "format": STORE_FORMAT,
            "root": str(self.root),
            "nodes": len(self.paths),
            "partitions": len(self.partitions),
            "t0": self.t0,
            "t1": self.t1,
            "ticks": self.ticks,
            "bytes": self.nbytes,
            "partition_ticks": self.partition_ticks,
            "meta": dict(self.meta),
        }

    def verify(self) -> int:
        """Recompute every partition's content hash; raise on mismatch.

        Returns the number of partitions checked.  Pairs with PR 7's
        CRC-checked reads: the hash catches bit rot and truncation the
        zip CRC of an individual member would only catch lazily.
        """
        for info in self.partitions:
            path = self.root / info.file
            if not path.exists():
                raise TeleStoreError(f"{path}: partition file missing")
            digest = _sha256_file(path)
            if digest != info.sha256:
                raise TeleStoreError(
                    f"{path}: content hash mismatch (index {info.sha256}, "
                    f"file {digest}) — partition corrupted"
                )
        return len(self.partitions)

    # ------------------------------------------------------------------
    def _write_index(self) -> None:
        _atomic_write_json(
            self.root / _STORE_JSON,
            {
                "format": STORE_FORMAT,
                "nodes": self.node_schema,
                "partition_ticks": self.partition_ticks,
                "meta": self.meta,
                "partitions": [p.to_dict() for p in self.partitions],
            },
        )

    def _reap_orphans(self) -> None:
        """Remove partition files the index no longer references (the
        leftovers of a compaction/prune that crashed after the index
        flip but before the unlink — harmless, but reclaimable)."""
        live = {p.file for p in self.partitions}
        for path in self.root.glob("part-*.npz"):
            if path.name not in live:
                path.unlink()

    def compact(self, target_ticks: int | None = None) -> int:
        """Merge adjacent partitions up to ``target_ticks`` each.

        Crash-safe ordering: merged partition files are written (and
        fsynced) first, the index flips atomically second, and only
        then are the superseded files unlinked — at every intermediate
        point the store reads back either fully-old or fully-new.
        Returns the number of partitions merged away.
        """
        target = (
            self.partition_ticks if target_ticks is None else int(target_ticks)
        )
        if target < 1:
            raise TeleStoreError("target_ticks must be >= 1")
        groups: list[list[PartitionInfo]] = []
        for info in self.partitions:
            if (
                groups
                and sum(p.ticks for p in groups[-1]) + info.ticks <= target
            ):
                groups[-1].append(info)
            else:
                groups.append([info])
        if all(len(g) == 1 for g in groups):
            self._reap_orphans()
            return 0
        new_partitions: list[PartitionInfo] = []
        replaced: list[PartitionInfo] = []
        for group in groups:
            if len(group) == 1:
                new_partitions.append(group[0])
                continue
            planes: dict[str, list[np.ndarray]] = {p: [] for p in self.paths}
            for info in group:
                for p, plane in self._load_planes(info, "r").items():
                    planes[p].append(plane)
            merged = {
                p: np.concatenate(chunks, axis=1)
                for p, chunks in planes.items()
            }
            new_partitions.append(
                _write_partition(
                    self.root, self.node_schema, group[0].t0, merged
                )
            )
            replaced.extend(group)
        old_files = {p.file for p in replaced}
        self.partitions = new_partitions
        self._write_index()
        for name in old_files:
            path = self.root / name
            if path.exists():
                path.unlink()
        return len(replaced)

    # ------------------------------------------------------------------
    def checkpoint_paths(
        self, extra: Sequence[str | Path] = ()
    ) -> list[Path]:
        """Checkpoints retention must respect: every ``.npz`` under
        ``<root>/checkpoints/`` plus any explicitly passed paths."""
        found = sorted((self.root / _CHECKPOINT_DIR).glob("*.npz"))
        return [*found, *(Path(p) for p in extra)]

    def prune(
        self,
        *,
        keep_last: int,
        checkpoints: Sequence[str | Path] = (),
    ) -> int:
        """Drop the oldest partitions, keeping the last ``keep_last``.

        Refuses (typed :class:`RetentionError`) to drop any partition a
        detector checkpoint still references: a checkpoint with
        ``next_lo = s`` resumes at sample ``s``, so every partition with
        ``t1 > s`` must survive.  Checkpoints come from
        :meth:`checkpoint_paths` (the store's ``checkpoints/`` directory
        plus explicit paths).  Returns the number of partitions dropped.
        """
        if keep_last < 0:
            raise TeleStoreError("keep_last must be >= 0")
        drop = (
            self.partitions[:-keep_last]
            if keep_last
            else list(self.partitions)
        )
        if not drop:
            self._reap_orphans()
            return 0
        pins = [
            (path, _checkpoint_next_lo(path))
            for path in self.checkpoint_paths(checkpoints)
        ]
        for info in drop:
            for path, next_lo in pins:
                if info.t1 > next_lo:
                    raise RetentionError(
                        f"refusing to prune {info.file} "
                        f"([{info.t0}, {info.t1})): checkpoint {path} "
                        f"resumes at sample {next_lo} and still needs it",
                        partition=info.file,
                        checkpoint=str(path),
                        next_lo=next_lo,
                    )
        kept = self.partitions[len(drop):]
        self.partitions = kept
        self._write_index()
        for info in drop:
            path = self.root / info.file
            if path.exists():
                path.unlink()
        self._reap_orphans()
        return len(drop)


def _checkpoint_next_lo(path: str | Path) -> int:
    """First un-ingested sample a detector checkpoint resumes at.

    Parses the ``repro-detector-checkpoint/v2`` manifest directly (no
    service import: retention is a storage-layer concern), raising
    :class:`TeleStoreError` for anything that is not a readable
    checkpoint — retention must never *silently* ignore a pin.
    """
    path = Path(path)
    try:
        # Only the manifest member is read: the state arrays of a
        # serving checkpoint run to tens of MB.
        with open(path, "rb") as fh, np.load(fh) as data:
            raw = data["manifest"] if "manifest" in data.files else None
    except Exception as exc:
        raise TeleStoreError(
            f"{path}: unreadable checkpoint ({exc})"
        ) from exc
    if raw is None:
        raise TeleStoreError(f"{path}: no checkpoint manifest")
    manifest = json.loads(bytes(raw).decode("utf-8"))
    if manifest.get("format") != "repro-detector-checkpoint/v2":
        raise TeleStoreError(
            f"{path}: unsupported checkpoint format "
            f"{manifest.get('format')!r}"
        )
    return int(manifest["next_lo"])
