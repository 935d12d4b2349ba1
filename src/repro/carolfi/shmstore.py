"""Shared-memory snapshot segments: one golden prefix per host.

The prefix store (:mod:`repro.carolfi.prefixcache`) — pristine input,
snapshots and golden output — is a pure function of the campaign
identity: every worker process on a host rebuilds (or clones) the
same bytes.  This module serialises them **once per host** into an
mmap-backed segment file and gives every other process a zero-copy
read path:

* the segment lives under ``/dev/shm`` (tmpfs) where available, so
  "file" means "page cache shared by every mapper", not disk I/O;
* attachers map the payload ``ACCESS_READ`` and borrow snapshot states
  as read-only ndarray views — the golden reference the batch runner
  walks costs zero copies in every process;
* restores map the payload ``ACCESS_COPY`` (``MAP_PRIVATE``): the
  restored state's arrays are copy-on-write views whose pages are
  duplicated by the OS only when the injected execution actually
  writes them, so per-worker RSS no longer scales with the snapshot
  set.

**Integrity.**  A segment carries a JSON manifest with SHA-256 digests
of both the pickled state skeleton and the raw array payload; attach
verifies the digests *before* unpickling and returns a miss on any
mismatch, so a torn write or corrupted segment degrades to the
per-process clone path, never to wrong records.  Publication is atomic
(temp file + ``os.replace``), and the content is a deterministic
function of the key, so a stale-but-valid segment from a concurrent
publisher is always correct to adopt.

**Ownership.**  Only the process that published a segment may unlink
it (the registry is pid-guarded, so forked children never reap their
parent's segments).  Attachers own nothing — a worker killed with
``SIGKILL`` mid-restore cannot leak a ``/dev/shm`` entry.  Publishers
release explicitly (:func:`release_published`, called by the campaign
engine at teardown) with an ``atexit`` hook as the backstop.

**Byte-identity.**  A materialised state is bit-for-bit the state
:func:`repro.benchmarks.base.clone_state` would have produced: arrays
are packed C-contiguous with dtype and shape preserved, scalars ride
the pickled skeleton unchanged, and ``clone()``-style objects are
rebuilt attribute by attribute via ``object.__new__`` exactly like
their own ``clone()`` methods.  The records of a campaign are
therefore identical with the store on or off — the CI ``cmp`` gates
enforce it.
"""

from __future__ import annotations

import atexit
import hashlib
import io
import json
import mmap
import os
import pickle
import tempfile
import weakref
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "SHM_DIR_ENV",
    "SHM_DISABLE_ENV",
    "ShmSegment",
    "attach",
    "publish",
    "release_published",
    "shm_dir",
    "shm_enabled",
    "store_key",
]

#: Directory override for segment files (default: ``/dev/shm`` where it
#: exists, else the system temp dir).  Every process on a host must
#: resolve the same directory for attachment to work.
SHM_DIR_ENV = "REPRO_SHM_DIR"

#: Kill switch: ``REPRO_SHM=0`` disables the shared store everywhere
#: (records are identical either way; this is purely an accelerator).
SHM_DISABLE_ENV = "REPRO_SHM"

#: Segment format version (bump on incompatible layout changes).  Since
#: version 2 the golden output is stored raw, unquantized.
_SEGMENT_VERSION = 2

_MAGIC = b"RPROSHM1"
_ALIGN = 64


def shm_enabled() -> bool:
    """Whether the shared snapshot store may be used at all."""
    return os.environ.get(SHM_DISABLE_ENV, "").strip() != "0"


def shm_dir() -> Path:
    """The host-wide segment directory (see :data:`SHM_DIR_ENV`)."""
    env = os.environ.get(SHM_DIR_ENV, "").strip()
    if env:
        return Path(env)
    dev_shm = Path("/dev/shm")
    if dev_shm.is_dir() and os.access(dev_shm, os.W_OK):
        return dev_shm
    return Path(tempfile.gettempdir())


def store_key(
    benchmark: str,
    seed: int,
    benchmark_params: dict[str, Any],
    *,
    label: str = "carolfi",
    density: int | None = None,
    byte_budget: int | None = None,
) -> str:
    """Stable hash of everything that determines a segment's content.

    The golden trajectory's identity (benchmark, seed, parameters and
    ``label``, the input's RNG stream: ``"beam"`` or ``"carolfi"``)
    plus the snapshot-cadence knobs, which determine
    *which* prefix states the segment carries.  The site policy and
    every engine knob are absent: they only affect where faults land,
    never the fault-free execution.
    """
    payload = {
        "version": _SEGMENT_VERSION,
        "benchmark": benchmark,
        "seed": int(seed),
        "label": label,
        "benchmark_params": benchmark_params,
        "density": density,
        "byte_budget": byte_budget,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def segment_path(key: str) -> Path:
    """Where the segment for ``key`` lives on this host."""
    return shm_dir() / f"repro-shm-{key[:40]}.seg"


# -- state tree (de)serialisation ----------------------------------------------
#
# The walk mirrors repro.benchmarks.base.clone_state node for node, so
# everything that can be snapshotted can be packed.  Arrays become
# ("arr", payload_offset, shape, dtype) placeholders with their bytes
# appended to the payload; rebuilding swaps the placeholders for views
# over whichever mapping (shared read-only or private copy-on-write)
# the caller supplies.


def _pack(obj: Any, payload: io.BytesIO) -> Any:
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise TypeError("cannot share object-dtype arrays")
        if not obj.flags.c_contiguous:
            # clone_state preserves exotic memory orders; the packed
            # form cannot, so refuse and let the caller fall back to
            # the private clone path.
            raise TypeError("cannot share non-C-contiguous arrays")
        pos = payload.tell()
        pad = (-pos) % _ALIGN
        if pad:
            payload.write(b"\0" * pad)
        offset = payload.tell()
        payload.write(obj.tobytes())
        return ("arr", offset, tuple(obj.shape), obj.dtype.str)
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return ("val", obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return (
            "dc",
            type(obj),
            {f.name: _pack(getattr(obj, f.name), payload) for f in fields(obj)},
        )
    if isinstance(obj, dict):
        return ("dict", {key: _pack(value, payload) for key, value in obj.items()})
    if isinstance(obj, (list, tuple)):
        tag = "list" if isinstance(obj, list) else "tuple"
        return (tag, [_pack(value, payload) for value in obj])
    if callable(getattr(obj, "clone", None)):
        # PointerTable, AmrMesh, ...: rebuilt attribute by attribute via
        # object.__new__, exactly the construction their own clone()
        # methods use (bypassing __init__ validation on purpose — a
        # snapshot may hold corrupted-but-live values).
        return (
            "obj",
            type(obj),
            {name: _pack(value, payload) for name, value in vars(obj).items()},
        )
    raise TypeError(f"cannot share state component of type {type(obj).__name__}")


def _unpack(node: Any, buf: Any, base: int) -> Any:
    tag = node[0]
    if tag == "arr":
        _, offset, shape, dtype = node
        dt = np.dtype(dtype)
        count = 1
        for dim in shape:
            count *= dim
        arr = np.frombuffer(buf, dtype=dt, count=count, offset=base + offset)
        return arr.reshape(shape)
    if tag == "val":
        return node[1]
    if tag == "dc":
        _, cls, kwargs = node
        return cls(**{name: _unpack(sub, buf, base) for name, sub in kwargs.items()})
    if tag == "dict":
        return {key: _unpack(sub, buf, base) for key, sub in node[1].items()}
    if tag == "list":
        return [_unpack(sub, buf, base) for sub in node[1]]
    if tag == "tuple":
        return tuple(_unpack(sub, buf, base) for sub in node[1])
    if tag == "obj":
        _, cls, attrs = node
        dup = object.__new__(cls)
        for name, sub in attrs.items():
            setattr(dup, name, _unpack(sub, buf, base))
        return dup
    raise ValueError(f"unknown skeleton node tag {tag!r}")


# -- segments ------------------------------------------------------------------


class ShmSegment:
    """One attached (or freshly published) snapshot segment.

    Read-only state trees (:attr:`pristine`, :meth:`snapshot_state`,
    :attr:`golden`) are views over one shared ``ACCESS_READ`` mapping;
    :meth:`materialize` rebuilds a *writable* state over a fresh
    private ``ACCESS_COPY`` mapping, whose pages the OS duplicates only
    on write.  The file object is kept open for the segment's lifetime
    so new private mappings remain possible after the publisher unlinks
    the path, and closed once the segment is dropped.
    """

    def __init__(self, path: Path, fobj: Any, header: dict[str, Any], skeleton: Any):
        self.path = path
        self._file = fobj
        weakref.finalize(self, fobj.close)
        self.header = header
        self._skeleton = skeleton
        self._payload_base = int(header["payload_offset"])
        size = self._payload_base + int(header["payload_size"])
        self._read_map = mmap.mmap(fobj.fileno(), size, access=mmap.ACCESS_READ)
        self._pristine: Any = None
        self._golden: np.ndarray | None = None
        self._snapshots: dict[int, Any] = {}

    # -- metadata --------------------------------------------------------------

    @property
    def key(self) -> str:
        return str(self.header["key"])

    @property
    def benchmark(self) -> str:
        return str(self.header["benchmark"])

    @property
    def interval(self) -> int:
        return int(self.header["interval"])

    @property
    def degraded(self) -> bool:
        return bool(self.header.get("degraded", False))

    @property
    def snapshot_steps(self) -> list[int]:
        return [int(step) for step in self.header["snapshot_steps"]]

    @property
    def snapshot_nbytes(self) -> list[int]:
        return [int(n) for n in self.header["snapshot_nbytes"]]

    @property
    def payload_bytes(self) -> int:
        return int(self.header["payload_size"])

    # -- zero-copy reads -------------------------------------------------------

    @property
    def pristine(self) -> Any:
        """The pristine input state as read-only shared views."""
        if self._pristine is None:
            self._pristine = _unpack(
                self._skeleton["pristine"], self._read_map, self._payload_base
            )
        return self._pristine

    @property
    def golden(self) -> np.ndarray:
        """The raw golden output as a read-only shared view.

        Raw, not quantized: consumers round it to their own precision
        (:meth:`~repro.benchmarks.base.Benchmark.quantize`).
        """
        if self._golden is None:
            self._golden = _unpack(
                self._skeleton["golden"], self._read_map, self._payload_base
            )
        return self._golden

    def snapshot_state(self, step: int) -> Any:
        """The snapshot at ``step`` as read-only shared views."""
        if step not in self._snapshots:
            self._snapshots[step] = _unpack(
                self._skeleton["snapshots"][step], self._read_map, self._payload_base
            )
        return self._snapshots[step]

    # -- copy-on-write restores ------------------------------------------------

    def materialize(self, which: int | None) -> Any:
        """A writable state (``None`` = pristine, else a snapshot step).

        Every call maps the payload privately (``ACCESS_COPY``); the
        returned arrays view that mapping, so the "copy" is lazy: the
        OS duplicates exactly the pages the run writes.  The mapping's
        lifetime is tied to the arrays through the buffer protocol.
        """
        private = mmap.mmap(
            self._file.fileno(),
            self._payload_base + int(self.header["payload_size"]),
            access=mmap.ACCESS_COPY,
        )
        node = (
            self._skeleton["pristine"]
            if which is None
            else self._skeleton["snapshots"][which]
        )
        return _unpack(node, private, self._payload_base)

    def close(self) -> None:  # pragma: no cover — tests use fresh processes
        """Drop the shared mapping (views become invalid: callers only)."""
        self._pristine = None
        self._golden = None
        self._snapshots.clear()
        try:
            self._read_map.close()
        finally:
            self._file.close()


# -- publish / attach ----------------------------------------------------------

#: Segments created by *this* process: path -> publishing pid.  The pid
#: guard keeps forked children from reaping their parent's segments.
_PUBLISHED: dict[str, int] = {}


def _unlink_published() -> None:
    pid = os.getpid()
    for path, owner in list(_PUBLISHED.items()):
        if owner != pid:
            continue
        del _PUBLISHED[path]
        try:
            os.unlink(path)
        except OSError:
            pass


atexit.register(_unlink_published)


def release_published() -> None:
    """Unlink every segment this process published (engine teardown)."""
    _unlink_published()


def reap(key: str) -> None:
    """Unlink ``key``'s segment whoever published it (campaign teardown).

    The publisher normally reaps its own segments, but a publisher that
    dies abruptly (``kill -9``, a chaos-killed worker agent) cannot —
    so the campaign engine sweeps its campaign's key at teardown.
    Unlinking is always safe for attachers (their mappings pin the
    inode); a concurrent identical campaign merely republishes.
    """
    path = segment_path(key)
    _PUBLISHED.pop(str(path), None)
    try:
        os.unlink(path)
    except OSError:
        pass


def publish(
    key: str,
    *,
    benchmark: str,
    total_steps: int,
    interval: int,
    degraded: bool,
    pristine: Any,
    snapshots: list[tuple[int, Any, int]],
    golden: np.ndarray,
) -> ShmSegment | None:
    """Serialise one runner's golden prefix into a host segment.

    ``snapshots`` is ``[(step, state, nbytes), ...]``.  Returns an
    attached :class:`ShmSegment` over the freshly written file, or
    ``None`` when the state cannot be shared (unshareable component,
    filesystem failure) — the caller then keeps its private copies; a
    publish failure must never fail a campaign that can simply clone.
    """
    payload = io.BytesIO()
    try:
        skeleton = {
            "pristine": _pack(pristine, payload),
            "snapshots": {
                int(step): _pack(state, payload) for step, state, _ in snapshots
            },
            "golden": _pack(np.ascontiguousarray(golden), payload),
        }
    except TypeError:
        return None
    payload_bytes = payload.getvalue()
    skeleton_bytes = pickle.dumps(skeleton, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "version": _SEGMENT_VERSION,
        "key": key,
        "benchmark": benchmark,
        "total_steps": int(total_steps),
        "interval": int(interval),
        "degraded": bool(degraded),
        "snapshot_steps": [int(step) for step, _, _ in snapshots],
        "snapshot_nbytes": [int(nbytes) for _, _, nbytes in snapshots],
        "skeleton_size": len(skeleton_bytes),
        "skeleton_sha256": hashlib.sha256(skeleton_bytes).hexdigest(),
        "payload_size": len(payload_bytes),
        "payload_sha256": hashlib.sha256(payload_bytes).hexdigest(),
    }
    target = segment_path(key)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
        # Fixed preamble: magic, header length, then the two section
        # offsets as binary fields (keeping them out of the JSON avoids
        # a chicken-and-egg on the header's own length).
        preamble_len = len(_MAGIC) + 24
        skeleton_offset = preamble_len + len(header_blob)
        skeleton_offset += (-skeleton_offset) % _ALIGN
        payload_offset = skeleton_offset + len(skeleton_bytes)
        payload_offset += (-payload_offset) % _ALIGN
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".seg.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(len(header_blob).to_bytes(8, "little"))
                fh.write(skeleton_offset.to_bytes(8, "little"))
                fh.write(payload_offset.to_bytes(8, "little"))
                fh.write(header_blob)
                fh.write(b"\0" * (skeleton_offset - preamble_len - len(header_blob)))
                fh.write(skeleton_bytes)
                fh.write(b"\0" * (payload_offset - skeleton_offset - len(skeleton_bytes)))
                fh.write(payload_bytes)
            os.replace(tmp, target)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return None
    _PUBLISHED[str(target)] = os.getpid()
    return attach(key)


def attach(key: str) -> ShmSegment | None:
    """Map the segment for ``key``, or ``None`` on miss/corruption.

    Both digests are verified against the manifest before the skeleton
    is unpickled; any inconsistency — truncation, torn write, foreign
    key, version skew — is a miss, never an error.
    """
    path = segment_path(key)
    try:
        fobj = open(path, "rb")
    except OSError:
        return None
    try:
        head = fobj.read(len(_MAGIC) + 24)
        if len(head) != len(_MAGIC) + 24 or head[: len(_MAGIC)] != _MAGIC:
            raise ValueError("bad magic")
        header_len = int.from_bytes(head[len(_MAGIC) : len(_MAGIC) + 8], "little")
        skeleton_offset = int.from_bytes(head[len(_MAGIC) + 8 : len(_MAGIC) + 16], "little")
        payload_offset = int.from_bytes(head[len(_MAGIC) + 16 :], "little")
        if not 0 < header_len <= 1 << 20:
            raise ValueError("implausible header length")
        header = json.loads(fobj.read(header_len).decode("utf-8"))
        if (
            not isinstance(header, dict)
            or header.get("version") != _SEGMENT_VERSION
            or header.get("key") != key
        ):
            raise ValueError("header mismatch")
        header["payload_offset"] = payload_offset
        skeleton_size = int(header["skeleton_size"])
        payload_size = int(header["payload_size"])
        if os.fstat(fobj.fileno()).st_size < payload_offset + payload_size:
            raise ValueError("truncated segment")
        fobj.seek(skeleton_offset)
        skeleton_bytes = fobj.read(skeleton_size)
        if hashlib.sha256(skeleton_bytes).hexdigest() != header["skeleton_sha256"]:
            raise ValueError("skeleton digest mismatch")
        fobj.seek(payload_offset)
        payload_bytes = fobj.read(payload_size)
        if hashlib.sha256(payload_bytes).hexdigest() != header["payload_sha256"]:
            raise ValueError("payload digest mismatch")
        skeleton = pickle.loads(skeleton_bytes)
        return ShmSegment(path, fobj, header, skeleton)
    except (OSError, ValueError, KeyError, TypeError, pickle.UnpicklingError,
            json.JSONDecodeError, EOFError, AttributeError, ImportError):
        try:
            fobj.close()
        except OSError:  # pragma: no cover
            pass
        return None
