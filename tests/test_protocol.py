"""Wire-protocol tests: repro-ticks/v1 framing (repro.service.protocol).

The contract under test: every well-formed frame round-trips exactly
through :class:`FrameDecoder` regardless of how the byte stream is
chunked; malformed input yields typed :class:`FrameError`\\ s (with the
node attached whenever the broken frame still named one) and the
decoder *resynchronizes* instead of dying.  Any split of a stream, fed
as foreign bytes or received into the decoder's own buffer, gives the
frames and errors of one ``feed``, and the buffer stays bounded.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.protocol import (
    MAGIC,
    MAX_FRAME_BYTES,
    READ_CAP,
    Frame,
    FrameDecoder,
    FrameError,
    encode_binary,
    encode_eof,
    encode_json,
)


def _burst(n=3, m=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m))


class TestEncodeDecode:
    def test_binary_round_trip(self):
        v = _burst()
        frames, errors = FrameDecoder().feed(
            encode_binary("rack0/node01", 42, v)
        )
        assert errors == []
        (f,) = frames
        assert f.node == "rack0/node01"
        assert f.tick == 42
        assert f.control is None
        np.testing.assert_array_equal(f.values, v)
        assert f.values.dtype == np.float64

    def test_json_round_trip(self):
        v = _burst()
        frames, errors = FrameDecoder().feed(encode_json("a/b", 7, v))
        assert errors == []
        (f,) = frames
        assert f.node == "a/b"
        assert f.tick == 7
        np.testing.assert_array_equal(np.asarray(f.values), v)

    def test_eof_control_frame(self):
        frames, errors = FrameDecoder().feed(encode_eof())
        assert errors == []
        assert frames == [Frame(node="", tick=-1, values=None, control="eof")]

    def test_mixed_encodings_share_one_stream(self):
        v = _burst()
        data = (
            encode_binary("n0", 0, v)
            + encode_json("n1", 0, v)
            + encode_binary("n0", 1, v)
            + encode_eof()
        )
        frames, errors = FrameDecoder().feed(data)
        assert errors == []
        assert [(f.node, f.tick, f.control) for f in frames] == [
            ("n0", 0, None),
            ("n1", 0, None),
            ("n0", 1, None),
            ("", -1, "eof"),
        ]

    def test_binary_rejects_non_2d(self):
        with pytest.raises(ValueError, match="bursts"):
            encode_binary("n", 0, np.zeros(5))

    @settings(max_examples=30, deadline=None)
    @given(
        node=st.text(
            alphabet=st.characters(
                codec="utf-8", exclude_characters="\x00"
            ),
            min_size=1,
            max_size=40,
        ),
        tick=st.integers(0, 2**63 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 16),
        seed=st.integers(0, 2**16),
        cut=st.integers(1, 64),
    )
    def test_round_trip_survives_any_chunking(
        self, node, tick, n, m, seed, cut
    ):
        """Property: frame bytes split at arbitrary points decode to the
        same frames as one contiguous feed."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, m))
        data = encode_binary(node, tick, v) + encode_json(node, tick + 1, v)
        decoder = FrameDecoder()
        frames = []
        for lo in range(0, len(data), cut):
            got, errors = decoder.feed(data[lo : lo + cut])
            assert errors == []
            frames.extend(got)
        assert decoder.eof() == []
        assert len(frames) == 2
        assert frames[0].node == node and frames[0].tick == tick
        np.testing.assert_array_equal(frames[0].values, v)
        assert frames[1].node == node and frames[1].tick == tick + 1


class TestMalformedInput:
    def test_garbage_resyncs_to_next_frame(self):
        v = _burst()
        data = b"\x01\x02\xffnoise" + encode_binary("n0", 3, v)
        frames, errors = FrameDecoder().feed(data)
        assert len(frames) == 1
        assert frames[0].node == "n0"
        assert any(e.reason == "garbage" for e in errors)

    def test_truncated_binary_frame_at_eof(self):
        data = encode_binary("n0", 0, _burst())
        decoder = FrameDecoder()
        frames, errors = decoder.feed(data[:-10])
        assert frames == [] and errors == []
        (err,) = decoder.eof()
        assert err.reason == "truncated"
        assert decoder.pending == 0

    def test_bad_json_line(self):
        frames, errors = FrameDecoder().feed(b"{not json}\n")
        assert frames == []
        assert errors[0].reason == "bad-json"

    def test_json_missing_tick_keeps_node_attribution(self):
        """A frame that names a node but breaks otherwise must carry the
        node in the error — that's what routes it into the guard's
        quarantine path server-side."""
        line = json.dumps({"node": "rack0/node00", "values": [[1.0]]})
        frames, errors = FrameDecoder().feed(line.encode() + b"\n")
        assert frames == []
        assert errors[0].reason == "bad-json"
        assert errors[0].node == "rack0/node00"

    def test_json_missing_node(self):
        frames, errors = FrameDecoder().feed(b'{"tick": 1}\n')
        assert errors[0].reason == "bad-json"
        assert errors[0].node is None

    def test_bad_version_binary(self):
        v = _burst()
        frame = bytearray(encode_binary("n", 0, v))
        frame[len(MAGIC) + 4] = 99  # version byte
        frames, errors = FrameDecoder().feed(bytes(frame))
        assert frames == []
        assert errors[0].reason == "bad-frame"
        assert "version" in errors[0].detail

    def test_length_lie_is_bad_frame(self):
        """A body shorter than its header claims decodes to a typed
        error, never an exception."""
        v = _burst(2, 2)
        good = encode_binary("n", 0, v)
        # Rewrite n_sensors upward without extending the payload.
        import struct

        frame = bytearray(good)
        struct.pack_into("<H", frame, len(MAGIC) + 4 + 11, 64)
        frames, errors = FrameDecoder().feed(bytes(frame))
        assert frames == []
        assert errors[0].reason == "bad-frame"

    def test_oversized_length_prefix_is_garbage_not_buffering(self):
        bomb = MAGIC + (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
        decoder = FrameDecoder()
        frames, errors = decoder.feed(bomb)
        assert frames == []
        assert errors[0].reason == "garbage"
        assert decoder.pending < len(bomb)

    def test_garbage_between_frames_loses_only_the_garbage(self):
        v = _burst()
        chunks = [
            encode_binary("n0", 0, v),
            b"\x00\x01\x02 junk without structure",
            encode_json("n1", 1, v),
        ]
        frames, errors = FrameDecoder().feed(b"".join(chunks))
        assert [(f.node, f.tick) for f in frames] == [("n0", 0), ("n1", 1)]
        assert all(e.reason == "garbage" for e in errors)

    def test_magic_split_after_garbage_keeps_the_frame(self):
        """A chunk boundary inside a frame's magic, right after garbage,
        must not cost the frame."""
        data = b"xx" + encode_binary("n0", 1, _burst(2, 3))
        for cut in (3, 4, 5):
            decoder = FrameDecoder()
            frames = decoder.feed(data[:cut])[0] + decoder.feed(data[cut:])[0]
            assert [f.node for f in frames] == ["n0"]

    @settings(max_examples=30, deadline=None)
    @given(junk=st.binary(min_size=1, max_size=200))
    def test_arbitrary_junk_never_raises_and_later_frames_decode(
        self, junk
    ):
        """Property: any byte junk before a valid frame leaves the
        decoder alive; a frame fed afterwards still decodes."""
        decoder = FrameDecoder()
        decoder.feed(junk)  # must not raise
        decoder.eof()  # drain whatever is pending
        v = _burst(2, 3)
        frames, _ = decoder.feed(encode_binary("n9", 5, v))
        assert any(
            f.node == "n9" and f.tick == 5 for f in frames
        )


def _v1_frame(node: str, tick: int, values) -> bytes:
    """A version 1 (unchecksummed) binary frame."""
    values = np.ascontiguousarray(values, dtype="<f8")
    path = node.encode("utf-8")
    body = (
        struct.pack("<BHQHI", 1, len(path), tick, *values.shape)
        + path
        + values.tobytes()
    )
    return MAGIC + struct.pack("<I", len(body)) + body


def _bad_crc_frame(node: str, tick: int, values) -> bytes:
    frame = bytearray(encode_binary(node, tick, values))
    frame[-1] ^= 0x40  # flip one payload bit
    return bytes(frame)


_nodes = st.text(
    alphabet="abcdefgh/0123456789\u00e9", min_size=1, max_size=12
)
_values = st.builds(
    lambda n, m, seed: np.random.default_rng(seed).standard_normal((n, m)),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(0, 2**16),
)
_segment = st.one_of(
    st.builds(encode_binary, _nodes, st.integers(0, 2**40), _values),
    st.builds(_v1_frame, _nodes, st.integers(0, 2**40), _values),
    st.builds(encode_json, _nodes, st.integers(0, 2**40), _values),
    st.builds(_bad_crc_frame, _nodes, st.integers(0, 2**40), _values),
    st.just(encode_eof()),
    st.just(b'{"node": "x", "values": []}\n'),  # attributable bad-json
    st.binary(min_size=1, max_size=40),  # garbage
    st.sampled_from([MAGIC[:1], MAGIC[:3], b"\n", b"{", b"\x93RT1\x00"]),
    st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1).map(
        lambda n: MAGIC + n.to_bytes(4, "little")  # length bomb
    ),
)


def _key(frame: Frame):
    values = frame.values
    if isinstance(values, np.ndarray):
        values = (values.shape, values.tobytes())
    return (frame.node, frame.tick, frame.control, repr(values), frame.wire)


def _decode(chunks, *, receive: bool):
    """Frames and errors of feeding ``chunks`` (then eof): as foreign
    bytes, or received into :meth:`FrameDecoder.get_buffer` views the
    way a socket's ``recv_into`` fills them."""
    decoder = FrameDecoder()
    frames, errors = [], []
    largest = max((len(c) for c in chunks), default=0)
    for chunk in chunks:
        while chunk:
            if receive:
                view = decoder.get_buffer()
                n = min(len(view), len(chunk))
                view[:n] = chunk[:n]
                got, errs = decoder.feed(view[:n])
                chunk = chunk[n:]
            else:
                got, errs = decoder.feed(chunk)
                chunk = b""
            frames += [_key(f) for f in got]
            errors += errs
            assert len(decoder._buf) <= 2 * max(READ_CAP, 2 * largest)
    errors += decoder.eof()
    assert decoder.pending == 0
    assert len(decoder._buf) <= READ_CAP
    return frames, errors


class TestChunkingInvariance:
    @settings(max_examples=200, deadline=None)
    @given(
        segments=st.lists(_segment, min_size=1, max_size=12),
        cuts=st.lists(st.integers(0, 10_000), max_size=12),
        byte_at_a_time=st.booleans(),
    )
    def test_any_split_decodes_like_one_feed(
        self, segments, cuts, byte_at_a_time
    ):
        """Property: v1, v2 and JSON frames mixed with garbage, bad-CRC
        frames and length bombs decode to the same frames and errors
        whether fed whole, split anywhere (down to single bytes), or
        received into the decoder's own buffer."""
        data = b"".join(segments)
        whole = _decode([data], receive=False)
        if byte_at_a_time:
            points = list(range(len(data) + 1))
        else:
            points = sorted({0, len(data), *(c % (len(data) + 1) for c in cuts)})
        chunks = [data[a:b] for a, b in zip(points, points[1:])]
        assert _decode(chunks, receive=False) == whole
        assert _decode(chunks, receive=True) == whole
        assert _decode([data], receive=True) == whole


class TestBufferBounds:
    def test_length_bomb_is_not_buffered(self):
        """A length prefix over the cap costs one error, not a buffer
        of that size, however the bytes arrive."""
        bomb = MAGIC + (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
        decoder = FrameDecoder()
        errors = []
        for byte in bomb * 3:
            view = decoder.get_buffer()
            view[0] = byte
            errors += decoder.feed(view[:1])[1]
            assert decoder.pending < len(MAGIC) + 4
        assert {e.reason for e in errors} == {"garbage"}
        assert sum("exceeds cap" in e.detail for e in errors) == 3
        assert len(decoder._buf) <= READ_CAP

    def test_drained_decoder_keeps_at_most_the_read_cap(self, monkeypatch):
        """A frame larger than the read cap grows the buffer while it
        arrives, never past one frame at the size cap; once decoded,
        the idle connection holds no more than ``READ_CAP``."""
        big = encode_binary("n0", 1, np.ones((64, 3 * READ_CAP // 512)))
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", len(big))
        decoder = FrameDecoder()
        frames = []
        pos = 0
        while pos < len(big):
            view = decoder.get_buffer()
            assert len(decoder._buf) <= len(big) + 9
            n = min(len(view), 300_000, len(big) - pos)
            view[:n] = big[pos : pos + n]
            frames += decoder.feed(view[:n])[0]
            pos += n
        (frame,) = frames
        assert frame.wire == big
        assert decoder.pending == 0
        assert len(decoder._buf) <= READ_CAP

    def test_frame_owns_one_copy_not_the_buffer(self):
        """A received frame's values view its own copy of the wire
        bytes, so reusing the receive buffer cannot change them."""
        v = _burst(4, 5)
        data = encode_binary("n0", 2, v) + encode_binary("n1", 3, v)
        decoder = FrameDecoder()
        view = decoder.get_buffer()
        view[: len(data)] = data
        frames, errors = decoder.feed(view[: len(data)])
        assert errors == [] and len(frames) == 2
        view = decoder.get_buffer()
        view[:] = b"\xff" * len(view)
        for frame, node in zip(frames, ("n0", "n1")):
            assert frame.node == node
            np.testing.assert_array_equal(frame.values, v)
            assert not frame.values.flags.writeable
            assert frame.values.base is not None
            assert frame.wire == encode_binary(frame.node, frame.tick, v)
