"""HPC-ODA on-disk format: one CSV per sensor, timestamp/value rows.

Section II-A: "each sensor's time-series data is stored in a separate CSV
file, with each entry being a time-stamp/value pair."  This module reads
and writes that format, and persists/loads whole
:class:`~repro.datasets.generators.SegmentData` objects as a directory of
per-component subdirectories plus a small JSON manifest.

Two segment formats are supported:

* :func:`save_segment` / :func:`load_segment` — the human-readable
  HPC-ODA CSV layout (lossy: ``%.9g`` per value, but inspectable with
  standard tools);
* :func:`save_segment_npz` / :func:`load_segment_npz` — a single binary
  ``.npz`` archive with an embedded JSON manifest.  Bit-exact float64
  round-trip and roughly two orders of magnitude faster, which is what
  the content-addressed artifact cache (``repro.scenarios.cache``)
  layers on.
"""

from __future__ import annotations

import json
import os
import struct
import uuid
import zipfile
from pathlib import Path

import numpy as np
from numpy.lib import format as npformat

from repro.datasets.generators import ComponentData, SegmentData
from repro.datasets.schema import get_segment_spec

__all__ = [
    "save_sensor_csv",
    "load_sensor_csv",
    "save_segment",
    "load_segment",
    "save_segment_npz",
    "load_segment_npz",
    "load_npz_arrays",
    "atomic_savez",
]

_HEADER = "timestamp,value"


def save_sensor_csv(
    path: str | Path, timestamps: np.ndarray, values: np.ndarray
) -> None:
    """Write one sensor's series as ``timestamp,value`` rows."""
    timestamps = np.asarray(timestamps, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if timestamps.shape != values.shape or timestamps.ndim != 1:
        raise ValueError("timestamps and values must be equal-length 1-D arrays")
    data = np.column_stack([timestamps, values])
    np.savetxt(path, data, delimiter=",", header=_HEADER, comments="", fmt="%.9g")


def load_sensor_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a sensor CSV back into (timestamps, values)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        return np.empty(0), np.empty(0)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected 2 columns, found {data.shape[1]}")
    return data[:, 0].copy(), data[:, 1].copy()


def _sanitize(name: str) -> str:
    return name.replace("/", "_")


def save_segment(segment: SegmentData, root: str | Path) -> Path:
    """Persist a segment in HPC-ODA layout.

    Layout::

        root/
          manifest.json
          <component>/
            <sensor>.csv        # timestamp,value rows
            labels.csv          # when classification labels exist
            target.csv          # when a regression target exists
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    interval = segment.spec.sampling_interval_s
    manifest = {
        "format": "hpc-oda-segment/v1",
        "segment": segment.spec.name,
        "seed": segment.seed,
        "label_names": list(segment.label_names),
        "components": [],
    }
    for comp in segment.components:
        comp_dir = root / _sanitize(comp.name)
        comp_dir.mkdir(exist_ok=True)
        ts = np.arange(comp.t) * interval
        for row, sensor in enumerate(comp.sensor_names):
            save_sensor_csv(comp_dir / f"{_sanitize(sensor)}.csv", ts, comp.matrix[row])
        if comp.labels is not None:
            save_sensor_csv(comp_dir / "labels.csv", ts, comp.labels.astype(np.float64))
        if comp.target is not None:
            save_sensor_csv(comp_dir / "target.csv", ts, comp.target)
        manifest["components"].append(
            {
                "name": comp.name,
                "arch": comp.arch,
                "sensors": list(comp.sensor_names),
                "groups": list(comp.sensor_groups),
                "has_labels": comp.labels is not None,
                "has_target": comp.target is not None,
            }
        )
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return root


def load_segment(root: str | Path) -> SegmentData:
    """Load a segment previously written by :func:`save_segment`."""
    root = Path(root)
    manifest = json.loads((root / "manifest.json").read_text())
    if manifest.get("format") != "hpc-oda-segment/v1":
        raise ValueError(f"unsupported segment format in {root}")
    spec = get_segment_spec(manifest["segment"])
    components = []
    for entry in manifest["components"]:
        comp_dir = root / _sanitize(entry["name"])
        rows = []
        for sensor in entry["sensors"]:
            _, values = load_sensor_csv(comp_dir / f"{_sanitize(sensor)}.csv")
            rows.append(values)
        matrix = np.stack(rows)
        labels = None
        if entry["has_labels"]:
            _, lab = load_sensor_csv(comp_dir / "labels.csv")
            labels = lab.astype(np.intp)
        target = None
        if entry["has_target"]:
            _, target = load_sensor_csv(comp_dir / "target.csv")
        components.append(
            ComponentData(
                name=entry["name"],
                matrix=matrix,
                sensor_names=tuple(entry["sensors"]),
                sensor_groups=tuple(entry["groups"]),
                labels=labels,
                target=target,
                arch=entry["arch"],
            )
        )
    return SegmentData(
        spec,
        components,
        label_names=tuple(manifest["label_names"]),
        seed=manifest.get("seed"),
    )


# ----------------------------------------------------------------------
# Binary (.npz) segment format — exact round-trip, cache-grade speed
# ----------------------------------------------------------------------
_NPZ_FORMAT = "hpc-oda-segment-npz/v1"


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry to disk (no-op where unsupported).

    ``os.replace`` makes the rename atomic against concurrent readers,
    but only an fsync of the *parent directory* makes it durable: until
    then a power loss can roll the directory back to the old entry — or,
    worse, to a state where neither name exists.  Platforms that cannot
    open directories (Windows) skip silently; rename durability is a
    best-effort there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _temp_sibling(path: Path) -> Path:
    """A fresh temp-file name next to ``path``, unique per call: two
    threads of one process writing the same path must not share one."""
    return path.with_name(f"{path.name}.tmp{os.getpid()}-{uuid.uuid4().hex}")


#: Largest slice of an array's buffer handed to one member write.
_WRITE_SLICE = 1 << 20


def _write_member(fid, arr: np.ndarray) -> None:
    """Write one ``.npy`` member exactly as ``np.lib.format.write_array``
    does.  A C-contiguous plain array goes out as its header plus
    ``memoryview`` slices of its own buffer; ``write_array`` copies it
    through 16 MiB chunks instead, which costs that much resident
    memory per large member.  Anything else falls back to numpy."""
    if not arr.flags.c_contiguous or arr.dtype.kind not in "biufcmMSU":
        npformat.write_array(fid, arr)
        return
    # A plain dtype's header always fits version 1.0, as numpy picks.
    npformat.write_array_header_1_0(fid, npformat.header_data_from_array_1_0(arr))
    data = memoryview(arr.reshape(-1).view(np.uint8))
    for lo in range(0, data.nbytes, _WRITE_SLICE):
        fid.write(data[lo : lo + _WRITE_SLICE])


def atomic_savez(path: Path, **arrays: np.ndarray) -> None:
    """``np.savez`` via temp file + fsync + rename + directory fsync.

    Readers never see a partial archive (shared by the segment format,
    the artifact cache, detector checkpoints and the telemetry store),
    and the write is *durable*: the temp file is fsynced before
    ``os.replace`` (so the renamed entry can never point at unflushed
    data) and the parent directory is fsynced after it (so a crash
    cannot roll back the rename and leave a torn partition behind a
    completed compaction).  The archive is byte-identical to
    ``np.savez``'s, but members are written without a bulk copy
    (:func:`_write_member`).
    """
    path = Path(path)
    tmp = _temp_sibling(path)
    try:
        with open(tmp, "xb") as fh:
            # np.savez's container: stored members, always zip64.
            with zipfile.ZipFile(
                fh, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True
            ) as zf:
                for name, arr in arrays.items():
                    with zf.open(f"{name}.npy", "w", force_zip64=True) as fid:
                        _write_member(fid, np.asanyarray(arr))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    finally:
        if tmp.exists():  # failed write: don't litter the directory
            tmp.unlink()


def save_segment_npz(segment: SegmentData, path: str | Path) -> Path:
    """Persist a segment as one ``.npz`` archive with a JSON manifest.

    Matrices, labels and targets are stored as raw arrays (bit-exact
    float64 round-trip); names, architectures and sensor metadata live in
    an embedded JSON manifest.  The write is atomic (temp file + rename)
    so a crashed writer never leaves a half-written cache entry behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": _NPZ_FORMAT,
        "segment": segment.spec.name,
        "seed": segment.seed,
        "label_names": list(segment.label_names),
        "components": [
            {
                "name": comp.name,
                "arch": comp.arch,
                "sensors": list(comp.sensor_names),
                "groups": list(comp.sensor_groups),
                "has_labels": comp.labels is not None,
                "has_target": comp.target is not None,
            }
            for comp in segment.components
        ],
    }
    arrays: dict[str, np.ndarray] = {
        "manifest": np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
    }
    for i, comp in enumerate(segment.components):
        arrays[f"matrix_{i}"] = comp.matrix
        if comp.labels is not None:
            arrays[f"labels_{i}"] = comp.labels
        if comp.target is not None:
            arrays[f"target_{i}"] = comp.target
    atomic_savez(path, **arrays)
    return path


def _mapped_member_array(
    path: Path, f, info: zipfile.ZipInfo, mmap_mode: str
) -> np.ndarray:
    """Memory-map one stored (uncompressed) ``.npy`` zip member.

    ``np.savez`` writes ``ZIP_STORED`` members, so each array's bytes
    sit contiguously in the archive: parse the member's local header to
    find the data start, read the ``.npy`` header there, and map the
    payload in place — a cache hit then costs no bulk read or copy.
    """
    f.seek(info.header_offset)
    local = f.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise ValueError(f"{path}: corrupt local header for {info.filename}")
    name_len, extra_len = struct.unpack("<HH", local[26:30])
    f.seek(info.header_offset + 30 + name_len + extra_len)
    version = npformat.read_magic(f)
    if version == (1, 0):
        shape, fortran, dtype = npformat.read_array_header_1_0(f)
    elif version == (2, 0):
        shape, fortran, dtype = npformat.read_array_header_2_0(f)
    else:
        raise ValueError(f"{path}: unsupported .npy version {version}")
    if dtype.hasobject:
        raise ValueError(f"{path}: object arrays cannot be memory-mapped")
    return np.memmap(
        path,
        mode=mmap_mode,
        dtype=dtype,
        shape=shape,
        order="F" if fortran else "C",
        offset=f.tell(),
    )


def load_npz_arrays(
    path: str | Path, mmap_mode: str | None = None
) -> dict[str, np.ndarray]:
    """Load every array of an (uncompressed) ``.npz`` archive.

    With ``mmap_mode`` (``"r"`` / ``"c"``) the stored members are
    memory-mapped zero-copy straight out of the archive; pages are
    faulted in only when actually touched.  Compressed or zero-size
    members fall back to an eager in-memory read.  ``mmap_mode=None``
    matches ``np.load`` exactly.
    """
    path = Path(path)
    if mmap_mode is None:
        with open(path, "rb") as fh, np.load(fh) as data:
            return {name: data[name] for name in data.files}
    if mmap_mode not in ("r", "c"):
        raise ValueError(f"unsupported mmap_mode {mmap_mode!r}")
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as zf, open(path, "rb") as f:
        for info in zf.infolist():
            name = info.filename
            key = name[:-4] if name.endswith(".npy") else name
            if info.compress_type != zipfile.ZIP_STORED or info.file_size == 0:
                with zf.open(info) as member:
                    arrays[key] = npformat.read_array(
                        member, allow_pickle=False
                    )
                continue
            try:
                arrays[key] = _mapped_member_array(path, f, info, mmap_mode)
            except ValueError:
                with zf.open(info) as member:
                    arrays[key] = npformat.read_array(
                        member, allow_pickle=False
                    )
    return arrays


def load_segment_npz(
    path: str | Path, mmap_mode: str | None = None
) -> SegmentData:
    """Load a segment previously written by :func:`save_segment_npz`.

    ``mmap_mode="r"`` memory-maps the matrices/labels/targets instead of
    copying them into fresh arrays (zero-copy cache hits for the
    artifact cache and ``repro detect`` replay); the arrays are then
    read-only views backed by the archive file.
    """
    path = Path(path)
    data = load_npz_arrays(path, mmap_mode)
    manifest = json.loads(bytes(data["manifest"]).decode("utf-8"))
    if manifest.get("format") != _NPZ_FORMAT:
        raise ValueError(f"unsupported segment format in {path}")
    components = []
    for i, entry in enumerate(manifest["components"]):
        components.append(
            ComponentData(
                name=entry["name"],
                matrix=data[f"matrix_{i}"],
                sensor_names=tuple(entry["sensors"]),
                sensor_groups=tuple(entry["groups"]),
                labels=data[f"labels_{i}"] if entry["has_labels"] else None,
                target=data[f"target_{i}"] if entry["has_target"] else None,
                arch=entry["arch"],
            )
        )
    return SegmentData(
        get_segment_spec(manifest["segment"]),
        components,
        label_names=tuple(manifest["label_names"]),
        seed=manifest.get("seed"),
    )
