"""The ``repro-wal/v1`` write-ahead frame journal.

:class:`~repro.service.net.FleetServer` journals every accepted data
frame *before* it is routed into a queue and stamps a **watermark**
record after every processed tick.  Because the server is a single
event loop, the journal records the exact total order the live process
applied — so replaying the journal from the last checkpoint's index
through a freshly restored detector reproduces the crashed process's
event stream byte for byte (the PR 7 checkpoint contract, extended over
the wire).

On-disk layout — append-only segment files under one directory::

    wal-000000000000.seg      wal-000000004096.seg      ...

Each segment starts with a 16-byte header
(``b"RWALSEG1" | start_index u64``) naming the global index of its
first record, followed by CRC32-framed records::

    type u8 | length u32 | crc32 u32 | payload[length]

``crc32`` covers the type byte and the payload, so a corrupt length,
flipped type or torn payload all fail the same check.  Record types:

====  ===========  ==================================================
1     frame        one ``repro-ticks/v1`` encoded data frame (a
                   received version 2 frame's bytes as they came)
2     error        JSON ``{"reason", "node"}`` (a poisoning decode
                   error — replayed so guard quarantine stays exact)
3     watermark    JSON ``{"tick"}`` — the tick just processed
====  ===========  ==================================================

Durability is a policy, not a promise:

``always``
    fsync after every appended record (safest, slowest);
``tick``
    fsync once per watermark — a crash can lose at most the frames of
    the in-flight tick, which the reconnecting client re-sends from its
    last acked tick (the default);
``off``
    never fsync (OS page cache only; benchmarking / best effort).

Recovery (:meth:`WalWriter.open`) reads every segment in order,
truncates a torn tail back to the longest valid record prefix, and
resumes appending into a fresh segment — a half-written record from a
``kill -9`` can never poison later appends.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.service.protocol import (
    Frame,
    FrameDecoder,
    encode_binary,
    encode_json,
)

__all__ = [
    "FSYNC_POLICIES",
    "REC_ERROR",
    "REC_FRAME",
    "REC_WATERMARK",
    "WAL_FORMAT",
    "WalError",
    "WalRecord",
    "WalRecovery",
    "WalWriter",
    "decode_frame_record",
    "encode_frame_payload",
    "recover_wal",
]

WAL_FORMAT = "repro-wal/v1"

FSYNC_POLICIES = ("always", "tick", "off")

#: Record types.
REC_FRAME = 1
REC_ERROR = 2
REC_WATERMARK = 3
_REC_TYPES = (REC_FRAME, REC_ERROR, REC_WATERMARK)

_SEG_MAGIC = b"RWALSEG1"
_SEG_HEADER = struct.Struct("<8sQ")  # magic, start_index
_REC_HEADER = struct.Struct("<BII")  # type, length, crc32

#: One journal record's payload can never exceed one protocol frame
#: plus slack; anything larger in a header is corruption.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Default bytes per segment before rotation.
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

#: Appended records accumulate in the segment file's write buffer of
#: this many bytes and hit the file when it fills (or at every sync
#: point).  The buffer is allocated once per segment: a buffer grown and
#: released every tick faults its pages in afresh every tick, unless
#: some larger allocation has happened to raise the allocator's mmap
#: threshold.  Every ``write`` releases
#: the GIL around the syscall — against a CPU-bound sender thread on a
#: shared core, reacquiring it costs a full scheduler switch interval
#: (~5 ms), thousands of times the write itself.  The batch size is
#: therefore a GIL-release budget, not an IO tuning knob: it bounds
#: writer memory while keeping the number of release points per tick in
#: the single digits.  Batching costs nothing durability-wise: the
#: journal's durability edge is the fsync policy, and every policy
#: syncs through :meth:`WalWriter.sync`, which drains the buffer first.
FLUSH_BYTES = 8 * 1024 * 1024


class WalError(ValueError):
    """A journal directory or record is unusable."""


@dataclass(frozen=True)
class WalRecord:
    """One recovered journal record."""

    index: int
    rtype: int
    payload: bytes


@dataclass(frozen=True)
class WalRecovery:
    """What :func:`recover_wal` found on disk."""

    records: tuple[WalRecord, ...]
    #: Index the next appended record will get.
    next_index: int
    #: Segment files seen (valid ones, in order).
    segments: tuple[Path, ...]
    #: Bytes discarded at the torn tail (0 for a clean log).
    torn_bytes: int
    #: File holding the torn tail, if any.
    torn_segment: Path | None
    #: Valid byte length of ``torn_segment`` (its longest record prefix).
    valid_bytes: int


def _crc(rtype: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(bytes((rtype,))))


def encode_frame_payload(node: str, tick: int, values) -> bytes:
    """One data frame as ``repro-ticks/v1`` bytes (binary for 2-d
    float arrays, newline-JSON for everything else — including the
    ``None`` values of poison blocks)."""
    if isinstance(values, np.ndarray) and values.ndim == 2:
        return encode_binary(node, tick, values)
    return encode_json(node, tick, values)


def decode_frame_record(payload: bytes) -> Frame:
    """Decode one journaled frame payload back into a :class:`Frame`."""
    decoder = FrameDecoder()
    frames, errors = decoder.feed(payload)
    errors += decoder.eof()
    if errors or len(frames) != 1:
        raise WalError(
            "journal frame record does not decode to exactly one frame "
            f"({len(frames)} frames, {len(errors)} errors)"
        )
    return frames[0]


def _segment_files(root: Path) -> list[Path]:
    return sorted(root.glob("wal-*.seg"))


def _scan_segment(path: Path) -> tuple[int, list[tuple[int, bytes]], int]:
    """``(start_index, [(rtype, payload), ...], valid_bytes)``.

    Stops at the first invalid record (bad magic raises, a torn or
    corrupt record just ends the scan — the caller decides whether that
    is a recoverable tail or mid-log damage).
    """
    data = path.read_bytes()
    if len(data) < _SEG_HEADER.size:
        raise WalError(f"{path}: short segment header")
    magic, start_index = _SEG_HEADER.unpack_from(data)
    if magic != _SEG_MAGIC:
        raise WalError(f"{path}: not a repro-wal/v1 segment")
    records: list[tuple[int, bytes]] = []
    off = _SEG_HEADER.size
    while off + _REC_HEADER.size <= len(data):
        rtype, length, crc = _REC_HEADER.unpack_from(data, off)
        if (
            rtype not in _REC_TYPES
            or length > MAX_RECORD_BYTES
            or off + _REC_HEADER.size + length > len(data)
        ):
            break
        payload = data[off + _REC_HEADER.size : off + _REC_HEADER.size + length]
        if _crc(rtype, payload) != crc:
            break
        records.append((rtype, payload))
        off += _REC_HEADER.size + length
    return int(start_index), records, off


def recover_wal(root: str | Path) -> WalRecovery:
    """Read a journal directory back into its longest valid prefix.

    Segments are walked in start-index order; the scan stops at the
    first torn/corrupt record or index discontinuity and everything
    after it is reported as the torn tail (for the last segment that is
    the expected ``kill -9`` shape; mid-log damage additionally
    discards the segments behind it rather than replaying around a
    hole).
    """
    root = Path(root)
    records: list[WalRecord] = []
    segments: list[Path] = []
    next_index = 0
    torn_bytes = 0
    torn_segment: Path | None = None
    valid_bytes = 0
    files = _segment_files(root) if root.exists() else []
    for i, path in enumerate(files):
        if path.stat().st_size < _SEG_HEADER.size:
            # kill -9 during segment creation: nothing in it is valid.
            torn_segment = path
            valid_bytes = 0
            torn_bytes += sum(p.stat().st_size for p in files[i:])
            break
        start_index, seg_records, seg_valid = _scan_segment(path)
        if segments and start_index != next_index:
            # Discontinuity (a pruned or lost segment in the middle):
            # nothing after the gap can be replayed in order.
            torn_segment = path
            valid_bytes = 0  # the whole segment is unreachable
            torn_bytes += sum(
                p.stat().st_size for p in files[i:]
            )
            break
        if not segments:
            next_index = start_index
        segments.append(path)
        for rtype, payload in seg_records:
            records.append(WalRecord(next_index, rtype, bytes(payload)))
            next_index += 1
        size = path.stat().st_size
        if seg_valid != size:
            torn_segment = path
            valid_bytes = seg_valid
            torn_bytes += size - seg_valid
            torn_bytes += sum(p.stat().st_size for p in files[i + 1 :])
            break
    return WalRecovery(
        records=tuple(records),
        next_index=next_index,
        segments=tuple(segments),
        torn_bytes=torn_bytes,
        torn_segment=torn_segment,
        valid_bytes=valid_bytes,
    )


def _fsync_dir(root: Path) -> None:
    fd = os.open(root, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WalWriter:
    """Appender over a ``repro-wal/v1`` directory.

    Use :meth:`open` to recover + resume an existing directory; the
    constructor alone starts appending at ``start_index`` without
    looking at what is on disk (tests and fresh directories).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        fsync: str = "tick",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        start_index: int = 0,
    ):
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes < _SEG_HEADER.size + _REC_HEADER.size:
            raise WalError("segment_bytes is too small for a record")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = int(segment_bytes)
        self.next_index = int(start_index)
        self.appended = 0
        self.fsyncs = 0
        self.bytes_written = 0
        #: Records appended since the last fsync (the flush-lag signal
        #: the ops ``/health`` route reports as degraded when it grows).
        self.pending = 0
        self._fh = None
        self._seg_bytes = 0
        self._closed = False

    @classmethod
    def open(
        cls,
        root: str | Path,
        *,
        fsync: str = "tick",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        min_index: int = 0,
    ) -> tuple["WalWriter", tuple[WalRecord, ...]]:
        """Recover ``root`` and return ``(writer, recovered_records)``.

        The torn tail (if any) is truncated on disk so the next
        recovery sees a clean log; ``min_index`` floors the writer's
        next index (a checkpoint may claim records whose segment was
        lost after an ``off``-policy crash — indices must never move
        backwards or checkpoint pruning would misfire).
        """
        recovery = recover_wal(root)
        if recovery.torn_segment is not None:
            if recovery.valid_bytes >= _SEG_HEADER.size:
                with recovery.torn_segment.open("r+b") as fh:
                    fh.truncate(recovery.valid_bytes)
            else:
                recovery.torn_segment.unlink()
            # Anything past the torn segment is unreachable history.
            seen = set(recovery.segments)
            for path in _segment_files(Path(root)):
                if path not in seen and path != recovery.torn_segment:
                    path.unlink()
        writer = cls(
            root,
            fsync=fsync,
            segment_bytes=segment_bytes,
            start_index=max(recovery.next_index, int(min_index)),
        )
        return writer, recovery.records

    # -- appending -----------------------------------------------------
    def _rotate(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
            self._fh.close()
        path = self.root / f"wal-{self.next_index:012d}.seg"
        self._fh = path.open("wb", buffering=FLUSH_BYTES)
        self._fh.write(_SEG_HEADER.pack(_SEG_MAGIC, self.next_index))
        self._seg_bytes = _SEG_HEADER.size
        _fsync_dir(self.root)

    def _append(self, rtype: int, payload: bytes) -> int:
        if self._closed:
            raise WalError("journal writer is closed")
        if self._fh is None or self._seg_bytes >= self.segment_bytes:
            self._rotate()
        self._fh.write(
            _REC_HEADER.pack(rtype, len(payload), _crc(rtype, payload))
        )
        self._fh.write(payload)
        size = _REC_HEADER.size + len(payload)
        self._seg_bytes += size
        self.bytes_written += size
        index = self.next_index
        self.next_index += 1
        self.appended += 1
        self.pending += 1
        if self.fsync == "always":
            self.sync()
        return index

    def append_frame(self, node: str, tick: int, values, wire=None) -> int:
        """Journal a frame: its received ``wire`` bytes, else encoded."""
        if wire is None:
            wire = encode_frame_payload(node, tick, values)
        return self._append(REC_FRAME, wire)

    def append_error(self, reason: str, node: str | None) -> int:
        payload = json.dumps(
            {"reason": reason, "node": node}, separators=(",", ":")
        ).encode("utf-8")
        return self._append(REC_ERROR, payload)

    def append_watermark(self, tick: int) -> int:
        index = self._append(
            REC_WATERMARK,
            json.dumps({"tick": int(tick)}, separators=(",", ":")).encode(
                "utf-8"
            ),
        )
        if self.fsync == "tick":
            self.sync()
        return index

    def sync(self) -> None:
        """Flush + fsync the live segment (no-op when nothing pends)."""
        if self._fh is None or self.pending == 0:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        self.pending = 0

    # -- maintenance ---------------------------------------------------
    def prune_through(self, index: int) -> int:
        """Delete segments whose records all precede ``index``.

        Called after a durable checkpoint claiming records below
        ``index``; returns the number of segments removed.  The live
        segment is never removed.
        """
        removed = 0
        files = _segment_files(self.root)
        for path, nxt in zip(files, files[1:]):
            with nxt.open("rb") as fh:
                nxt_start = _SEG_HEADER.unpack(
                    fh.read(_SEG_HEADER.size)
                )[1]
            if nxt_start <= index and (
                self._fh is None or path.name != Path(self._fh.name).name
            ):
                path.unlink()
                removed += 1
            else:
                break
        if removed:
            _fsync_dir(self.root)
        return removed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
            self.pending = 0
            self._fh.close()
            self._fh = None
