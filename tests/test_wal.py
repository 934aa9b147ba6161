"""The ``repro-wal/v1`` write-ahead journal: round-trips, torn-tail
recovery (the property the kill -9 drill leans on), rotation, pruning
and the fsync policies."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    MAGIC,
    FrameDecoder,
    encode_binary,
    encode_json,
)
from repro.service.wal import (
    _REC_HEADER,
    _SEG_HEADER,
    REC_ERROR,
    REC_FRAME,
    REC_WATERMARK,
    WalError,
    WalWriter,
    decode_frame_record,
    encode_frame_payload,
    recover_wal,
)


def _values(rng, rows=3, cols=4):
    return rng.standard_normal((rows, cols))


def _append_mixed(writer, rng, n_ticks=3, nodes=("node-00", "node-01")):
    """A realistic record mix; returns the expected (rtype, key) list."""
    expected = []
    for tick in range(n_ticks):
        for node in nodes:
            writer.append_frame(node, tick, _values(rng))
            expected.append((REC_FRAME, (node, tick)))
        if tick == 1:
            writer.append_error("bad-shape", nodes[0])
            expected.append((REC_ERROR, ("bad-shape", nodes[0])))
        writer.append_watermark(tick)
        expected.append((REC_WATERMARK, tick))
    return expected


def _check_records(records, expected):
    import json

    assert [r.rtype for r in records] == [e[0] for e in expected]
    assert [r.index for r in records] == list(range(len(expected)))
    for record, (rtype, key) in zip(records, expected):
        if rtype == REC_FRAME:
            frame = decode_frame_record(record.payload)
            assert (frame.node, frame.tick) == key
            assert frame.values.shape == (3, 4)
        elif rtype == REC_ERROR:
            obj = json.loads(record.payload)
            assert (obj["reason"], obj["node"]) == key
        else:
            assert json.loads(record.payload)["tick"] == key


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    writer = WalWriter(tmp_path / "wal")
    expected = _append_mixed(writer, rng)
    assert writer.appended == len(expected)
    writer.close()

    recovery = recover_wal(tmp_path / "wal")
    assert recovery.torn_bytes == 0
    assert recovery.torn_segment is None
    assert recovery.next_index == len(expected)
    _check_records(recovery.records, expected)


def test_frame_payload_round_trips_binary_and_json(tmp_path):
    rng = np.random.default_rng(1)
    values = _values(rng)
    frame = decode_frame_record(encode_frame_payload("n0", 7, values))
    assert frame.node == "n0" and frame.tick == 7
    np.testing.assert_array_equal(frame.values, values)
    # Non-2d values (poison blocks journal as JSON).
    frame = decode_frame_record(encode_frame_payload("n1", 3, None))
    assert frame.node == "n1" and frame.tick == 3 and frame.values is None


def test_open_resumes_at_next_index(tmp_path):
    rng = np.random.default_rng(2)
    writer = WalWriter(tmp_path / "wal")
    expected = _append_mixed(writer, rng)
    writer.close()

    writer, records = WalWriter.open(tmp_path / "wal")
    assert len(records) == len(expected)
    assert writer.next_index == len(expected)
    writer.append_watermark(99)
    writer.close()
    recovery = recover_wal(tmp_path / "wal")
    assert recovery.next_index == len(expected) + 1
    assert recovery.records[-1].rtype == REC_WATERMARK


def test_rotation_and_prune(tmp_path):
    rng = np.random.default_rng(3)
    # Tiny segments: every record rotates into its own file.
    writer = WalWriter(tmp_path / "wal", segment_bytes=256)
    for tick in range(6):
        writer.append_frame("n0", tick, _values(rng))
        writer.append_watermark(tick)
    segments = sorted((tmp_path / "wal").glob("wal-*.seg"))
    assert len(segments) > 1
    removed = writer.prune_through(6)
    assert removed > 0
    remaining = sorted((tmp_path / "wal").glob("wal-*.seg"))
    assert len(remaining) == len(segments) - removed
    writer.close()
    # Pruned history is gone; the rest still replays in order from the
    # surviving head segment's start index (filename-encoded).
    recovery = recover_wal(tmp_path / "wal")
    assert recovery.torn_bytes == 0
    first_index = int(remaining[0].name[len("wal-") : -len(".seg")])
    assert 0 < first_index <= 6
    assert recovery.records[0].index == first_index
    assert recovery.next_index == 12


def test_fsync_policies(tmp_path):
    rng = np.random.default_rng(4)
    values = _values(rng)

    always = WalWriter(tmp_path / "a", fsync="always")
    always.append_frame("n0", 0, values)
    always.append_frame("n0", 1, values)
    assert always.fsyncs == 2 and always.pending == 0
    always.close()

    tick = WalWriter(tmp_path / "t", fsync="tick")
    tick.append_frame("n0", 0, values)
    assert tick.fsyncs == 0 and tick.pending == 1
    tick.append_watermark(0)
    assert tick.fsyncs == 1 and tick.pending == 0
    tick.close()

    off = WalWriter(tmp_path / "o", fsync="off")
    off.append_frame("n0", 0, values)
    off.append_watermark(0)
    assert off.fsyncs == 0 and off.pending == 2
    off.close()  # close always makes the tail durable
    assert off.fsyncs == 1 and off.pending == 0

    with pytest.raises(WalError):
        WalWriter(tmp_path / "x", fsync="sometimes")


def test_min_index_floor(tmp_path):
    writer = WalWriter(tmp_path / "wal")
    writer.append_watermark(0)
    writer.close()
    writer, _ = WalWriter.open(tmp_path / "wal", min_index=40)
    assert writer.next_index == 40
    writer.close()


def test_mid_log_discontinuity_discards_tail(tmp_path):
    rng = np.random.default_rng(5)
    writer = WalWriter(tmp_path / "wal", segment_bytes=256)
    for tick in range(6):
        writer.append_frame("n0", tick, _values(rng))
        writer.append_watermark(tick)
    writer.close()
    segments = sorted((tmp_path / "wal").glob("wal-*.seg"))
    assert len(segments) >= 3
    hole_start = int(segments[1].name[len("wal-") : -len(".seg")])
    segments[1].unlink()  # hole in the middle

    recovery = recover_wal(tmp_path / "wal")
    # Only the prefix before the hole replays; the rest is torn.
    assert recovery.next_index == hole_start
    assert recovery.torn_segment == segments[2]
    assert recovery.torn_bytes > 0
    # open() cleans the unreachable files off disk entirely.
    writer, records = WalWriter.open(tmp_path / "wal")
    assert len(records) == hole_start
    remaining = sorted((tmp_path / "wal").glob("wal-*.seg"))
    assert segments[2] not in remaining
    writer.close()


# -- torn-tail property -------------------------------------------------
# The crash contract: cutting the byte stream at *any* point loses at
# most the records at and after the cut — never an earlier one, and
# recovery after truncation yields exactly the longest valid prefix.

record_specs = st.lists(
    st.one_of(
        st.tuples(
            st.just("frame"),
            st.integers(0, 3),  # node id
            st.integers(0, 50),  # tick
            st.integers(1, 4),  # rows
            st.integers(1, 5),  # cols
        ),
        st.tuples(st.just("error"), st.integers(0, 3)),
        st.tuples(st.just("watermark"), st.integers(0, 50)),
    ),
    min_size=1,
    max_size=12,
)


def _write_specs(root, specs):
    writer = WalWriter(root, fsync="off")
    boundaries = [writer.bytes_written]
    for spec in specs:
        if spec[0] == "frame":
            _, node, tick, rows, cols = spec
            values = np.full((rows, cols), float(node * 100 + tick))
            writer.append_frame(f"node-{node:02d}", tick, values)
        elif spec[0] == "error":
            writer.append_error("bad-shape", f"node-{spec[1]:02d}")
        else:
            writer.append_watermark(spec[1])
        boundaries.append(writer.bytes_written)
    writer.close()
    return boundaries


@settings(max_examples=40, deadline=None)
@given(specs=record_specs, data=st.data())
def test_truncation_recovers_longest_valid_prefix(tmp_path_factory, specs, data):
    root = tmp_path_factory.mktemp("wal")
    boundaries = _write_specs(root, specs)
    (segment,) = sorted(root.glob("wal-*.seg"))
    total = segment.stat().st_size
    assert total == _SEG_HEADER.size + boundaries[-1]

    cut = data.draw(st.integers(0, total), label="cut")
    with segment.open("r+b") as fh:
        fh.truncate(cut)

    if cut < _SEG_HEADER.size:
        # Not even a header (kill -9 during segment creation): the
        # segment is unusable and open() drops it from disk.
        recovery = recover_wal(root)
        assert recovery.records == ()
        assert recovery.torn_bytes == cut
        writer, records = WalWriter.open(root)
        assert records == ()
        assert writer.next_index == 0
        writer.close()
        return

    # Number of whole records that fit before the cut.
    survivors = sum(
        1 for b in boundaries[1:] if _SEG_HEADER.size + b <= cut
    )
    recovery = recover_wal(root)
    assert len(recovery.records) == survivors
    assert recovery.next_index == survivors
    expected_valid = _SEG_HEADER.size + boundaries[survivors]
    assert recovery.torn_bytes == cut - expected_valid
    for record, spec in zip(recovery.records, specs):
        if spec[0] == "frame":
            frame = decode_frame_record(record.payload)
            assert frame.node == f"node-{spec[1]:02d}"
            assert frame.tick == spec[2]
            assert frame.values.shape == (spec[3], spec[4])

    # Recovery is idempotent: open() truncates the torn tail, appending
    # resumes, and a second recovery sees everything.
    writer, records = WalWriter.open(root)
    assert len(records) == survivors
    writer.append_watermark(1234)
    writer.close()
    again = recover_wal(root)
    assert again.torn_bytes == 0
    assert len(again.records) == survivors + 1
    assert again.records[-1].rtype == REC_WATERMARK


@settings(max_examples=20, deadline=None)
@given(specs=record_specs, data=st.data())
def test_corruption_never_yields_wrong_records(tmp_path_factory, specs, data):
    """Flipping any byte either drops a suffix or touches nothing —
    recovered record payloads are always a prefix of what was written."""
    root = tmp_path_factory.mktemp("wal")
    _write_specs(root, specs)
    clean = recover_wal(root).records
    (segment,) = sorted(root.glob("wal-*.seg"))
    raw = bytearray(segment.read_bytes())

    pos = data.draw(
        st.integers(_SEG_HEADER.size, len(raw) - 1), label="pos"
    )
    raw[pos] ^= data.draw(st.integers(1, 255), label="xor")
    segment.write_bytes(bytes(raw))

    recovered = recover_wal(root).records
    assert len(recovered) <= len(clean)
    for got, want in zip(recovered, clean):
        assert (got.rtype, got.payload) == (want.rtype, want.payload)


def test_record_header_constant_matches_format():
    # The scan math above hard-codes the framing; pin it.
    assert _REC_HEADER.size == 9
    assert _SEG_HEADER.size == 16


def _fixed_feed() -> bytes:
    """Nine version 2 binary frames, then one version 1 and one JSON."""
    out = bytearray()
    for tick in range(3):
        for i in range(3):
            values = np.arange(24, dtype=np.float64).reshape(4, 6) / (
                i + tick + 3
            )
            out += encode_binary(f"rack0/node{i:02d}", tick, values)
    values = np.arange(6, dtype="<f8").reshape(2, 3)
    path = b"rack0/node00"
    body = (
        struct.pack("<BHQHI", 1, len(path), 3, 2, 3) + path + values.tobytes()
    )
    out += MAGIC + struct.pack("<I", len(body)) + body
    out += encode_json("rack0/node01", 3, [[1.0, 2.5]])
    return bytes(out)


#: SHA-256 of the journal ``_fixed_feed`` gives when every frame is
#: re-encoded, as the journal did before it kept received bytes.
FIXED_FEED_JOURNAL_SHA256 = (
    "73cd2ad18caa20769fbe1d5648ff5a17b9477a405482127bb74ac5b03efbc0f7"
)


def test_journaled_wire_bytes_match_the_reencoded_journal(tmp_path):
    """Received version 2 frames are journaled as the bytes that came
    in; the segments stay byte-identical to re-encoding every frame."""
    frames, errors = FrameDecoder().feed(_fixed_feed())
    assert errors == [] and len(frames) == 11
    assert [f.wire is not None for f in frames] == [True] * 9 + [False] * 2
    for f in frames[:9]:
        assert encode_binary(f.node, f.tick, f.values) == f.wire
    segments = {}
    for name, keep_wire in (("wire", True), ("encoded", False)):
        writer = WalWriter(tmp_path / name)
        for f in frames:
            writer.append_frame(
                f.node, f.tick, f.values, f.wire if keep_wire else None
            )
        writer.append_watermark(3)
        writer.close()
        segments[name] = b"".join(
            p.read_bytes() for p in sorted((tmp_path / name).glob("wal-*.seg"))
        )
    assert segments["wire"] == segments["encoded"]
    digest = hashlib.sha256(segments["wire"]).hexdigest()
    assert digest == FIXED_FEED_JOURNAL_SHA256
