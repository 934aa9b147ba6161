"""The ``repro-ticks/v1`` ingestion wire protocol.

One *frame* carries one node's burst for one tick.  Two encodings share
a stream (auto-detected per frame by the first byte):

* **newline-JSON** — one object per line::

      {"node": "rack0/node00", "tick": 7, "values": [[...], ...]}

  ``values`` is the ``(n_sensors, m)`` burst as nested lists.  A line
  whose object carries ``"op"`` instead is a control frame; the only
  defined op is ``{"op": "eof"}`` (the sender is done).

* **binary** — compact length-prefixed frames for load-generator /
  agent traffic::

      MAGIC(4) | body_len u32 | body

  with ``body`` = ``version u8 | path_len u16 | tick u64 |
  n_sensors u16 | m u32 | crc u32 | path utf-8 | values
  float64[n*m]`` (all little-endian, values C-order).  ``crc`` is
  version 2's payload checksum, ``crc32(path, crc32(values))`` —
  values first so a load generator can cache one burst's checksum and
  re-stamp only the cheap path prefix per node.  A checksum mismatch
  is transport corruption, **not** a node fault: the decoder reports
  it without a node attribution so the server drops (and counts) the
  frame instead of poisoning whatever path the damaged bytes happen
  to spell, and the sender's ack-driven retransmit re-delivers it.
  Version 1 frames (no ``crc`` field) still decode.  ``MAGIC``'s
  first byte can never start a JSON line, which is what makes
  per-frame autodetection safe.

:class:`FrameDecoder` is an incremental parser over arbitrary byte
chunks: it yields decoded :class:`Frame`\\ s plus typed
:class:`FrameError`\\ s for garbage, truncated or malformed input — and
*resynchronizes* after garbage instead of dying, so one corrupt sender
cannot take the ingestion loop down.  Errors that can be attributed to
a node keep its path, which lets the server route the fault into the
guard's quarantine machinery as a poison block.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "MAGIC",
    "PROTOCOL",
    "READ_CAP",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "encode_ack",
    "encode_acks_subscribe",
    "encode_binary",
    "encode_eof",
    "encode_json",
]

PROTOCOL = "repro-ticks/v1"

#: Binary frame magic.  0x93 cannot begin UTF-8 JSON text, so the
#: decoder distinguishes the two encodings from one byte.
MAGIC = b"\x93RT1"

_PREFIX = len(MAGIC) + 4  # magic, body_len u32
_HEADER = struct.Struct("<BHQHI")  # v1: version, path_len, tick, n, m
_HEADER2 = struct.Struct("<BHQHII")  # v2: ... + crc32
_VERSION = 2

#: Upper bound on one frame body / JSON line; anything larger is
#: treated as garbage (a desynchronized or malicious length prefix must
#: not make the decoder buffer gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Receive buffer per connection (about 34 30 KiB frames), sized
#: against server RSS: 4 MiB raised serve-1000's peak from 191 to 203 MiB.
READ_CAP = 1 << 20


@dataclass(frozen=True)
class Frame:
    """One decoded tick frame (``control`` set for ``{"op": ...}``)."""

    node: str
    tick: int
    #: ``(n_sensors, m)`` float64 array for binary frames; the raw JSON
    #: ``values`` payload (nested lists, or anything else the sender
    #: put there) for JSON frames — the guard boundary conforms it.
    values: Any
    control: str | None = None
    #: A version 2 binary frame as received (``values`` views it, the
    #: journal writes it as is); ``None`` for every other frame.
    wire: bytes | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FrameError:
    """One undecodable stretch of input, with the best-known context."""

    #: "garbage" | "bad-json" | "bad-frame" | "bad-crc" | "truncated"
    reason: str
    detail: str = ""
    #: The node path when the broken frame still named one (lets the
    #: server poison that node's queue so the guard quarantines it).
    node: str | None = None


def encode_json(node: str, tick: int, values) -> bytes:
    """One newline-JSON frame (values via ``tolist()`` for arrays)."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return (
        json.dumps(
            {"node": node, "tick": int(tick), "values": values},
            separators=(",", ":"),
        )
        + "\n"
    ).encode("utf-8")


def encode_eof() -> bytes:
    """The end-of-stream control frame."""
    return b'{"op":"eof"}\n'


def encode_acks_subscribe() -> bytes:
    """Control frame a client sends to opt into per-tick acks."""
    return b'{"op":"acks"}\n'


def encode_ack(tick: int) -> bytes:
    """Per-tick ack the server sends to subscribed connections."""
    return (
        json.dumps(
            {"op": "ack", "tick": int(tick)}, separators=(",", ":")
        )
        + "\n"
    ).encode("utf-8")


def encode_binary(node: str, tick: int, values) -> bytes:
    """One binary (version 2, checksummed) frame for a burst."""
    B = np.ascontiguousarray(values, dtype="<f8")
    if B.ndim != 2:
        raise ValueError(
            f"binary frames carry (n_sensors, m) bursts, got shape {B.shape}"
        )
    path = node.encode("utf-8")
    payload = B.tobytes()
    crc = zlib.crc32(path, zlib.crc32(payload))
    header = _HEADER2.pack(
        _VERSION, len(path), int(tick), B.shape[0], B.shape[1], crc
    )
    body = header + path + payload
    return MAGIC + struct.pack("<I", len(body)) + body


def _decode_binary(view: memoryview, lo: int, hi: int) -> Frame | FrameError:
    """Decode the binary frame ``view[lo:hi]`` in place; copy it once."""
    body = lo + _PREFIX
    size = hi - body
    if size < _HEADER.size:
        return FrameError("bad-frame", detail="short header")
    version = view[body]
    if version == 1:
        header, crc = _HEADER, None
        _, path_len, tick, n, m = _HEADER.unpack_from(view, body)
    elif version == _VERSION:
        if size < _HEADER2.size:
            return FrameError("bad-frame", detail="short header")
        header = _HEADER2
        _, path_len, tick, n, m, crc = _HEADER2.unpack_from(view, body)
    else:
        return FrameError("bad-frame", detail=f"unknown version {version}")
    expected = header.size + path_len + 8 * n * m
    if size != expected:
        return FrameError(
            "bad-frame",
            detail=f"body is {size} bytes, header implies {expected}",
        )
    raw_path = view[body + header.size : body + header.size + path_len]
    if crc is not None:
        actual = zlib.crc32(
            raw_path, zlib.crc32(view[body + header.size + path_len : hi])
        )
        if actual != crc:
            # Transport corruption: the path bytes themselves are
            # untrustworthy, so no node attribution — the server must
            # drop this frame, not poison whatever the bytes spell.
            return FrameError(
                "bad-crc",
                detail=f"checksum {actual:#010x} != header {crc:#010x}",
            )
    try:
        path = str(raw_path, "utf-8")
    except UnicodeDecodeError:
        return FrameError("bad-frame", detail="undecodable path")
    wire = bytes(view[lo:hi])  # the frame's one copy
    values = np.frombuffer(
        wire, dtype="<f8", count=n * m, offset=hi - lo - 8 * n * m
    ).reshape(n, m)
    return Frame(path, int(tick), values, wire=wire if crc is not None else None)


def _decode_line(line: bytes) -> Frame | FrameError:
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        return FrameError("bad-json", detail=str(exc))
    if not isinstance(obj, dict):
        return FrameError("bad-json", detail="frame is not an object")
    if "op" in obj:
        # Control frames keep a tick when they carry one (acks do);
        # -1 otherwise, preserving the historical sentinel.
        try:
            tick = int(obj.get("tick", -1))
        except (TypeError, ValueError):
            tick = -1
        return Frame(
            node="", tick=tick, values=None, control=str(obj["op"])
        )
    node = obj.get("node")
    if not isinstance(node, str) or not node:
        return FrameError("bad-json", detail="missing node path")
    try:
        tick = int(obj["tick"])
    except (KeyError, TypeError, ValueError):
        return FrameError("bad-json", detail="missing tick", node=node)
    # values stay raw: the guard boundary conforms (or rejects) them,
    # so a malformed payload degrades the node instead of the decoder.
    return Frame(node=node, tick=tick, values=obj.get("values"))


class FrameDecoder:
    """Incremental ``repro-ticks/v1`` decoder with garbage resync.

    It owns one buffer: a receiver ``recv_into``\\ s a :meth:`get_buffer`
    view and passes the filled prefix, ``view[:nbytes]``, to :meth:`feed`
    (the view is good for that one call); other chunks are copied in.
    A binary frame is copied out once, into :attr:`Frame.wire`, so frames
    never alias the buffer.  The buffer outgrows :data:`READ_CAP` only
    while a longer frame arrives.  A garbage run is reported once, when
    the next frame or :meth:`eof` ends it, so any chunking of a stream
    yields the frames and errors of one ``feed``.
    """

    def __init__(self):
        self._buf = bytearray()
        self._start = self._end = 0  # undecoded bytes: _buf[_start:_end]
        self._skipped = 0  # garbage bytes not yet reported

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet decodable."""
        return self._end - self._start

    def get_buffer(self, sizehint: int = -1) -> memoryview:
        """Writable view of the free tail, undecoded bytes moved first."""
        if self._start or self._end == len(self._buf):
            cap = _PREFIX + MAX_FRAME_BYTES + 1  # room to tell a frame is too long
            self._move(max(READ_CAP, min(2 * self.pending, cap)))
        return memoryview(self._buf)[self._end :]

    def _move(self, size: int) -> None:
        """Move the undecoded bytes to the front of a buffer of ``size``
        to ``2 * size`` bytes (a new one, never a resize: a live view
        forbids that)."""
        old, pending = memoryview(self._buf), self.pending
        if not size <= len(self._buf) <= 2 * size:
            self._buf = bytearray(size)
        self._buf[:pending] = old[self._start : self._end]
        self._start, self._end = 0, pending

    def feed(self, chunk) -> tuple[list[Frame], list[FrameError]]:
        """Consume one chunk (a filled :meth:`get_buffer` view or any
        bytes); return every frame/error it completed."""
        n = len(chunk)
        if not (isinstance(chunk, memoryview) and chunk.obj is self._buf):
            if len(self._buf) - self._end < n:
                self._move(max(self.pending + n, 2 * self.pending))
            self._buf[self._end : self._end + n] = chunk
        self._end += n
        buf, pos, end = self._buf, self._start, self._end
        frames: list[Frame] = []
        errors: list[FrameError] = []
        while pos < end:
            if buf[pos] == 0x7B:  # "{"
                self._report_garbage(errors)
                nl = buf.find(b"\n", pos, end)
                if nl < 0:
                    if end - pos > MAX_FRAME_BYTES:
                        errors.append(FrameError("garbage", "unterminated line"))
                        pos = end
                    break
                result = _decode_line(buf[pos:nl])
                pos = nl + 1
            elif buf.startswith(MAGIC[: end - pos], pos):
                if end - pos < _PREFIX:
                    break  # incomplete prefix
                self._report_garbage(errors)
                (body_len,) = struct.unpack_from("<I", buf, pos + len(MAGIC))
                if body_len > MAX_FRAME_BYTES:
                    errors.append(
                        FrameError(
                            "garbage",
                            detail=f"frame length {body_len} exceeds cap",
                        )
                    )
                    pos += len(MAGIC)  # skip the magic, resync after
                    continue
                total = _PREFIX + body_len
                if end - pos < total:
                    break  # incomplete frame
                result = _decode_binary(memoryview(buf), pos, pos + total)
                pos += total
            else:  # garbage: skip to the next plausible frame start
                found = (buf.find(MAGIC, pos + 1, end), buf.find(b"{", pos + 1, end))
                starts = [i for i in (*found, buf.find(b"\n", pos, end) + 1) if i > pos]
                # No start yet: keep the last bytes, a magic may be split.
                nxt = min(starts) if starts else max(pos + 1, end - len(MAGIC) + 1)
                self._skipped += nxt - pos
                pos = nxt
                if starts:
                    self._report_garbage(errors)
                continue
            if isinstance(result, Frame):
                frames.append(result)
            else:
                errors.append(result)
        if pos == end:
            self._reset()
        else:
            self._start = pos
        return frames, errors

    def _report_garbage(self, errors: list) -> None:
        if self._skipped:
            errors.append(FrameError("garbage", f"skipped {self._skipped} bytes"))
            self._skipped = 0

    def eof(self) -> list[FrameError]:
        """Flush at end of stream; leftover bytes are a truncated frame."""
        errors: list[FrameError] = []
        self._report_garbage(errors)
        if self.pending:
            detail = f"{self.pending} bytes after last complete frame"
            errors.append(FrameError("truncated", detail=detail))
        self._reset()
        return errors

    def _reset(self) -> None:
        """Drop the buffered bytes and any buffer over ``READ_CAP``."""
        self._start = self._end = 0
        if len(self._buf) > READ_CAP:
            self._buf = bytearray()
