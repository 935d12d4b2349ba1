"""Wire framing: tagged frames must detect truncation and interleaving."""

import json
import zlib

import pytest

from repro.service.wire import MAX_FRAME_BYTES, FrameError, decode_frame, encode_frame


def test_round_trip():
    obj = {"kind": "rec", "run": 7, "row": {"outcome": "sdc", "x": 1.5}}
    assert decode_frame(encode_frame(obj)) == obj


def test_round_trip_without_trailing_newline():
    frame = encode_frame({"a": 1})
    assert decode_frame(frame.rstrip(b"\n")) == {"a": 1}


def test_frame_is_one_line_with_length_and_crc_tags():
    frame = encode_frame({"kind": "ok"})
    assert frame.endswith(b"\n") and frame.count(b"\n") == 1
    length, crc, payload = frame.rstrip(b"\n").split(b":", 2)
    assert int(length) == len(payload)
    assert int(crc, 16) == zlib.crc32(payload)
    assert json.loads(payload) == {"kind": "ok"}


def test_truncated_frame_detected():
    frame = encode_frame({"kind": "rec", "row": {"data": "x" * 100}})
    for cut in (10, len(frame) // 2, len(frame) - 2):
        with pytest.raises(FrameError):
            decode_frame(frame[:cut])


def test_interleaved_frames_detected():
    a = encode_frame({"kind": "a", "n": 1}).rstrip(b"\n")
    b = encode_frame({"kind": "b", "n": 2}).rstrip(b"\n")
    # Two writers tearing into one line: tag and payload disagree.
    torn = a[: len(a) // 2] + b[len(b) // 2 :]
    with pytest.raises(FrameError):
        decode_frame(torn)


def test_corrupted_payload_detected():
    frame = bytearray(encode_frame({"kind": "rec", "value": 12345}))
    frame[-5] ^= 0x01  # flip one payload bit
    with pytest.raises(FrameError):
        decode_frame(bytes(frame))


def test_bad_tags_rejected():
    with pytest.raises(FrameError):
        decode_frame(b"notatag\n")
    with pytest.raises(FrameError):
        decode_frame(b"xx:yy:{}\n")
    with pytest.raises(FrameError):
        decode_frame(b"%d:%08x:%s" % (MAX_FRAME_BYTES + 1, 0, b"{}"))


def test_non_dict_payload_rejected():
    payload = b"[1,2,3]"
    line = b"%d:%08x:%s\n" % (len(payload), zlib.crc32(payload), payload)
    with pytest.raises(FrameError):
        decode_frame(line)
