"""Tagged wire frames for the lease workers' heartbeat pipe.

A lease worker reports to the scheduler in small JSON-able dicts —
heartbeats, metric deltas, span batches, failure events, record rows.
This module gives those dicts one framed wire format:

* a frame is one line: ``<length>:<crc32>:<payload-json>\\n``, where
  ``length`` is the byte length of the payload and ``crc32`` its
  zlib CRC-32 in 8 hex digits;
* a corrupted, truncated or interleaved frame is **detectable** (the
  tag no longer matches the payload) instead of silently parsing into
  the wrong record.

The pipe (:mod:`repro.service.local`; ``Connection.send_bytes`` is
message-oriented) delimits frames itself, so only the tag validation
matters there: a torn frame from a dying worker is skipped, never
half-parsed into the log.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

__all__ = [
    "FrameError",
    "MAX_FRAME_BYTES",
    "decode_frame",
    "encode_frame",
]

#: Upper bound on one frame's payload; a tag announcing more than this
#: is treated as corruption, not as an instruction to buffer forever.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ValueError):
    """A frame failed its length/checksum validation or JSON parse."""


def encode_frame(obj: dict[str, Any]) -> bytes:
    """Encode one dict as a tagged frame line (length + CRC-32 + JSON)."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"%d:%08x:%s\n" % (len(payload), zlib.crc32(payload), payload)


def decode_frame(data: bytes) -> dict[str, Any]:
    """Decode one complete frame (with or without the trailing newline).

    Raises :class:`FrameError` on any mismatch between the tag and the
    payload — a short read, a torn write, two interleaved frames — so a
    damaged frame can never be mistaken for a valid record.
    """
    line = data.rstrip(b"\n")
    head, sep, rest = line.partition(b":")
    if not sep:
        raise FrameError("frame has no length tag")
    crc_hex, sep, payload = rest.partition(b":")
    if not sep:
        raise FrameError("frame has no checksum tag")
    try:
        length = int(head)
        crc = int(crc_hex, 16)
    except ValueError as exc:
        raise FrameError(f"unparseable frame tag {head!r}:{crc_hex!r}") from exc
    if length < 0 or length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} out of bounds")
    if len(payload) != length:
        raise FrameError(f"frame payload is {len(payload)} bytes, tag says {length}")
    if zlib.crc32(payload) != crc:
        raise FrameError("frame checksum mismatch")
    try:
        obj = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise FrameError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError(f"frame payload must be a dict, got {type(obj).__name__}")
    return obj

