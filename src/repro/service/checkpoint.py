"""Versioned checkpoint/restore of full serving state.

:func:`save_checkpoint` snapshots the **complete** serving state — the
tick arena's streams, alert hysteresis and open alerts, guard health,
routing state — into one atomic ``.npz`` archive (the ``atomic_savez``
temp-file + rename discipline and manifest-as-uint8 convention of
:mod:`repro.monitoring.storage`) plus an append-only event journal
beside it, so a save costs O(state), not O(uptime).

``repro-detector-checkpoint/v2`` archive members:

* ``manifest`` — JSON: a **model lineage fingerprint**
  (:func:`fleet_fingerprint`), mode, pinned knobs, tick geometry,
  per-node alert policies and window counts, guard state, event and
  alert counts, the serving core's cursor and journal index, and the
  committed extent of the event journal;
* ``g{j}_{part}`` — one member per geometry group array of the tick
  arena (:meth:`~repro.engine.hotpath.TickArena.export_state`);
* ``hist_labels``, ``hist_conf``, ``hist_lengths`` — only when the
  detector records history: every node's scoring history concatenated
  in path order, plus per-node lengths;
* ``server_queues``, ``server_pending`` — routed-but-unprocessed
  frames and strays, as encoded-frame blobs.

The events emitted so far live in ``<checkpoint>.events``
(:func:`events_path`), one :func:`~repro.service.alerts.event_line` per
event.  A save truncates it to the extent the previous checkpoint
committed (a crashed save's tail), appends the events since then,
fsyncs, and only then renames the archive whose manifest records the
new extent and its CRC-32; a restore reads exactly that extent.  A core
that did not resume starts the journal over.

There is one writer, :meth:`repro.service.servecore.ServeCore.
write_checkpoint`, and one reader, :meth:`~repro.service.servecore.
ServeCore.recover`.  The contract — test-enforced per scenario under a
PYTHONHASHSEED subprocess sweep — is *byte identity*: crash → restore →
re-emit the journal → replay the remaining ticks produces alert JSONL
identical to an uninterrupted run.  The manifest's ``"backend"`` stamp
is not read; version 1 archives (per-node members, events inside),
including every one the retired staged backend wrote, are refused.  Any
lineage, geometry, knob or mode mismatch and any corrupt state or
journal raises :class:`CheckpointError` naming the offending field —
never silent drift.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.monitoring.storage import atomic_savez, load_npz_arrays
from repro.service.alerts import ALERTS_SCHEMA, event_line
from repro.service.classify import TrainedFleet
from repro.service.detector import FleetFaultDetector

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "DetectorCheckpoint",
    "EventsMark",
    "events_path",
    "fleet_fingerprint",
    "load_checkpoint",
    "restore_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_FORMAT = "repro-detector-checkpoint/v2"

#: Detector knobs a checkpoint pins: resuming under different values would
#: continue a *different* event sequence, so mismatches are typed errors.
_PINNED_PARAMS = (
    "open_after",
    "close_after",
    "min_confidence",
    "top_blocks",
    "record_history",
)


class CheckpointError(ValueError):
    """A checkpoint archive is unusable; ``field`` names the offender."""

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field


class EventsMark(NamedTuple):
    """The committed extent of a checkpoint's event journal: its first
    ``nbytes`` bytes, whose CRC-32 is ``crc32``."""

    nbytes: int = 0
    crc32: int = 0


def events_path(path: str | Path) -> Path:
    """The event journal beside the checkpoint archive ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".events")


def fleet_fingerprint(trained: TrainedFleet) -> str:
    """SHA-256 lineage hash over every array the detector's output
    depends on: per-node CS models + references, the shared forest's
    flat node arrays, and the label metadata.  Two fleets with the same
    fingerprint replay to byte-identical alert streams."""
    h = hashlib.sha256()
    engine = trained.engine
    h.update(
        json.dumps(
            [
                "all" if engine.blocks is None else int(engine.blocks),
                int(engine.wl),
                int(engine.ws),
                list(trained.label_names),
                int(trained.healthy_label),
            ]
        ).encode("utf-8")
    )
    for path in engine.paths:
        model = engine.model(path)
        h.update(path.encode("utf-8"))
        for arr in (
            model.permutation,
            model.lower,
            model.upper,
            trained.references[path],
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
    for name, arr in sorted(trained.classifier.forest.to_arrays().items()):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _detector_params(detector: FleetFaultDetector) -> dict:
    return {
        "open_after": detector.policy(detector.paths[0]).open_after,
        "close_after": detector.policy(detector.paths[0]).close_after,
        "min_confidence": detector.policy(detector.paths[0]).min_confidence,
        "top_blocks": detector.top_blocks,
        "record_history": detector.record_history,
    }


def _append_events(path: Path, events: list[dict], mark: EventsMark) -> EventsMark:
    """Truncate the journal to ``mark``, append ``events`` and fsync.

    Bytes past ``mark`` are a crashed save's uncommitted tail.  A
    journal shorter than ``mark`` has lost committed events, which no
    later save can put back, so it is refused.
    """
    data = "".join(event_line(e) + "\n" for e in events).encode("utf-8")
    with open(path, "ab") as fh:
        if fh.tell() < mark.nbytes:
            raise CheckpointError(
                f"{path}: event journal holds {fh.tell()} bytes, the last "
                f"checkpoint committed {mark.nbytes}",
                field="events",
            )
        fh.truncate(mark.nbytes)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return EventsMark(mark.nbytes + len(data), zlib.crc32(data, mark.crc32))


def save_checkpoint(
    path: str | Path,
    detector: FleetFaultDetector,
    *,
    fingerprint: str,
    chunk: int,
    next_lo: int,
    events: list[dict],
    events_mark: EventsMark,
    n_events: int,
    n_alerts: int,
    guard_state: dict,
    server_state: dict,
    extra_arrays: dict[str, np.ndarray],
) -> EventsMark:
    """Snapshot the full serving state; return the new journal extent.

    ``next_lo`` is the first un-ingested sample column.  ``events`` are
    the alert events emitted since the checkpoint that committed
    ``events_mark`` (an empty mark: since start); they are appended to
    the event journal (:func:`events_path`), which a resume re-emits
    into fresh sinks — what makes the resumed JSONL byte-identical end
    to end.  ``guard_state`` is the guard's health state.
    ``server_state`` (tick cursor, WAL index) goes into the manifest and
    ``extra_arrays`` (the routed-but-unprocessed queue contents as
    encoded-frame blobs) into the archive, so a restart resumes routing
    exactly where the crash left it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    paths = detector.paths
    arrays = detector.arena.export_state()
    if detector.record_history:
        labels = [detector.history[p][0] for p in paths]
        confs = [detector.history[p][1] for p in paths]
        arrays["hist_lengths"] = np.array(
            [len(h) for h in labels], dtype=np.int64
        )
        arrays["hist_labels"] = np.fromiter(
            (x for h in labels for x in h), dtype=np.int64
        )
        arrays["hist_conf"] = np.fromiter(
            (x for h in confs for x in h), dtype=np.float64
        )
    for name, arr in extra_arrays.items():
        if name in arrays or name.startswith("hist_") or name == "manifest":
            raise ValueError(
                f"extra checkpoint array {name!r} collides with a "
                "reserved archive member"
            )
        arrays[name] = np.asarray(arr)
    mark = _append_events(events_path(path), events, events_mark)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "alerts_schema": ALERTS_SCHEMA,
        "backend": "fused",
        "mode": detector.mode,
        "fingerprint": fingerprint,
        "chunk": int(chunk),
        "next_lo": int(next_lo),
        "paths": list(paths),
        "params": _detector_params(detector),
        "windows": [detector.windows_seen(p) for p in paths],
        "policies": {p: detector.policy(p).state_dict() for p in paths},
        "guard": guard_state,
        "n_events": int(n_events),
        "n_alerts": int(n_alerts),
        "events_bytes": mark.nbytes,
        "events_crc32": mark.crc32,
        "server": server_state,
    }
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    atomic_savez(path, **arrays)
    return mark


class DetectorCheckpoint:
    """A loaded (not yet validated) checkpoint archive."""

    def __init__(self, manifest: dict, events: list[dict], arrays: dict):
        self.manifest = manifest
        self.events = events
        #: Every archive member but the manifest.
        self.arrays = arrays

    def array(self, name: str) -> np.ndarray | None:
        """An archive member (server queue blobs, history), if present."""
        return self.arrays.get(name)


def _read_events(path: Path, manifest: dict) -> list[dict]:
    """The committed extent of the event journal beside ``path``."""
    journal = events_path(path)
    nbytes = int(manifest["events_bytes"])
    try:
        with open(journal, "rb") as fh:
            data = fh.read(nbytes)
    except FileNotFoundError:
        data = None
    if data is None or len(data) < nbytes or (
        zlib.crc32(data) != int(manifest["events_crc32"])
    ):
        raise CheckpointError(
            f"{journal}: event journal is missing, shorter than the "
            f"{nbytes} bytes the checkpoint committed, or altered",
            field="events",
        )
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def load_checkpoint(path: str | Path) -> DetectorCheckpoint:
    """Load and structurally validate a checkpoint and its event journal.

    Truncated, corrupt or non-checkpoint files raise
    :class:`CheckpointError` (never a raw numpy/zip/KeyError), so a
    crash *during* a checkpoint write — already unlikely thanks to the
    atomic temp-file + rename — cannot take the resuming process down
    ungracefully.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(
            f"{path}: checkpoint file does not exist", field="path"
        )
    try:
        arrays = load_npz_arrays(path)
        if "manifest" not in arrays:
            raise CheckpointError(
                f"{path}: not a detector checkpoint (no manifest)",
                field="manifest",
            )
        manifest = json.loads(bytes(arrays.pop("manifest")).decode("utf-8"))
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{path}: unsupported checkpoint format "
                f"{manifest.get('format')!r}",
                field="format",
            )
        events = _read_events(path, manifest)
    except CheckpointError:
        raise
    except Exception as exc:  # zip/json/numpy decode failures
        raise CheckpointError(
            f"{path}: unreadable checkpoint archive ({exc})", field="archive"
        ) from exc
    return DetectorCheckpoint(manifest, events, arrays)


def _restore_history(ckpt: DetectorCheckpoint, detector) -> None:
    lengths = ckpt.array("hist_lengths")
    labels, confs = ckpt.array("hist_labels"), ckpt.array("hist_conf")
    if (
        lengths is None
        or labels is None
        or confs is None
        or lengths.shape != (len(detector.paths),)
        or (lengths < 0).any()
        or labels.shape != confs.shape
        or labels.shape != (int(lengths.sum()),)
    ):
        raise CheckpointError(
            "checkpoint scoring history does not fit this fleet",
            field="history",
        )
    bounds = np.cumsum(lengths)[:-1]
    for node, lab, conf in zip(
        detector.paths, np.split(labels, bounds), np.split(confs, bounds)
    ):
        detector.history[node] = (lab.tolist(), conf.tolist())


def restore_checkpoint(
    ckpt: DetectorCheckpoint,
    detector: FleetFaultDetector,
    *,
    fingerprint: str,
    chunk: int,
    guard,
) -> tuple[list[dict], int, int, EventsMark]:
    """Restore a checkpoint into a freshly constructed detector and its
    :class:`~repro.service.guard.GuardedDetector` ``guard``.

    Validates lineage, geometry, mode compatibility and every
    pinned detector knob before touching any state — a mismatch raises
    :class:`CheckpointError` with the offending ``field``.  Returns
    ``(events, n_events, n_alerts, events_mark)``: the journaled events
    to re-emit, the event and alert counts, and the journal extent the
    next save continues from.
    """
    m = ckpt.manifest
    if m["fingerprint"] != fingerprint:
        raise CheckpointError(
            "checkpoint was taken against a different trained fleet "
            f"(lineage {m['fingerprint'][:12]}... vs {fingerprint[:12]}...)",
            field="fingerprint",
        )
    if m["mode"] != detector.mode:
        raise CheckpointError(
            f"checkpoint mode {m['mode']!r} is incompatible with a "
            f"{detector.mode!r} resume (float32 state is not bit-portable)",
            field="mode",
        )
    if int(m["chunk"]) != int(chunk):
        raise CheckpointError(
            f"checkpoint taken at chunk={m['chunk']}, resume wants "
            f"chunk={chunk} (tick boundaries would shift)",
            field="chunk",
        )
    if list(m["paths"]) != list(detector.paths):
        raise CheckpointError(
            f"checkpoint covers {len(m['paths'])} node(s) "
            f"{m['paths'][:4]}..., detector has "
            f"{len(detector.paths)} node(s)",
            field="paths",
        )
    params = _detector_params(detector)
    for knob in _PINNED_PARAMS:
        if m["params"].get(knob) != params[knob]:
            raise CheckpointError(
                f"checkpoint taken with {knob}={m['params'].get(knob)!r}, "
                f"resume wants {knob}={params[knob]!r}",
                field=knob,
            )
    try:
        detector.arena.load_state(ckpt.arrays)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint stream state does not fit this fleet ({exc})",
            field="streams",
        ) from exc
    if detector.record_history:
        _restore_history(ckpt, detector)
    for node, windows in zip(m["paths"], m["windows"]):
        detector.policy(node).load_state(m["policies"][node])
        detector._windows[node] = int(windows)
    guard.load_state(m["guard"])
    return (
        list(ckpt.events),
        int(m["n_events"]),
        int(m["n_alerts"]),
        EventsMark(int(m["events_bytes"]), int(m["events_crc32"])),
    )
