"""On-disk golden-run cache keyed by campaign identity.

The golden walk is the one piece of work the ``fork``-based supervisor
cache cannot amortise everywhere: spawn-based platforms pay it once per
worker process, and a resumed campaign pays it again even when every
shard replays from its checkpoint.  This cache persists the quantized
golden output and the step count under a key hashing *exactly* the
inputs that determine them — the same identity
:func:`repro.carolfi.isolation.supervisor_key` uses — so any process,
in any session, can skip straight to injecting.

Entries are written atomically (temp file + ``os.replace``) and carry a
SHA-256 digest of the array bytes; a corrupt, truncated or
foreign-dtype entry fails verification and is treated as a miss, never
an error — the Supervisor just recomputes and rewrites it.

The cache directory comes from an explicit path (the engine defaults to
``<checkpoint_dir>/golden-cache``) or the ``REPRO_GOLDEN_CACHE``
environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "GOLDEN_CACHE_ENV",
    "GoldenCache",
    "GoldenEntry",
    "golden_cache_key",
    "resolve_golden_cache",
]

#: Environment variable naming a default golden-cache directory.
GOLDEN_CACHE_ENV = "REPRO_GOLDEN_CACHE"

#: Entry format version (bump on incompatible layout changes).
_ENTRY_VERSION = 1


def golden_cache_key(
    benchmark: str,
    seed: int,
    benchmark_params: dict[str, Any],
) -> str:
    """Stable hash of everything that determines one golden run.

    Note what is *absent*: the site policy (it only affects where faults
    land, never the fault-free execution), the snapshot flag, and every
    engine knob.  Two campaigns differing only in those share one entry.
    """
    payload = {
        "version": _ENTRY_VERSION,
        "benchmark": benchmark,
        "seed": int(seed),
        "benchmark_params": benchmark_params,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class GoldenEntry:
    """One cached golden run."""

    golden: np.ndarray
    total_steps: int


class GoldenCache:
    """Directory of golden runs, one ``.npy`` + ``.json`` pair per key."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / f"{key}.npy", self.root / f"{key}.json"

    @staticmethod
    def _digest(golden: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(golden).tobytes()).hexdigest()

    def load(self, key: str) -> GoldenEntry | None:
        """The entry for ``key``, or ``None`` on miss/corruption."""
        array_path, meta_path = self._paths(key)
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            golden = np.load(array_path, allow_pickle=False)
        except (OSError, ValueError, json.JSONDecodeError):
            return None
        if not isinstance(meta, dict) or meta.get("version") != _ENTRY_VERSION:
            return None
        try:
            total_steps = int(meta["total_steps"])
            digest = str(meta["digest"])
        except (KeyError, TypeError, ValueError):
            return None
        if total_steps < 1 or digest != self._digest(golden):
            return None
        return GoldenEntry(golden=golden, total_steps=total_steps)

    def store(self, key: str, entry: GoldenEntry) -> None:
        """Persist ``entry`` atomically; IO failures are swallowed.

        The cache is an accelerator: a read-only or full disk must never
        fail a campaign that could simply recompute.
        """
        array_path, meta_path = self._paths(key)
        meta = {
            "version": _ENTRY_VERSION,
            "total_steps": int(entry.total_steps),
            "digest": self._digest(entry.golden),
            "dtype": str(entry.golden.dtype),
            "shape": list(entry.golden.shape),
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_atomic(array_path, entry.golden)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".json.tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(meta, fh, sort_keys=True)
            os.replace(tmp, meta_path)
        except OSError:
            pass

    def _write_atomic(self, path: Path, golden: np.ndarray) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".npy.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, golden, allow_pickle=False)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def resolve_golden_cache(
    cache: "GoldenCache | str | Path | None",
) -> GoldenCache | None:
    """Coerce a cache argument: instance, path, or ``None`` (then env)."""
    if isinstance(cache, GoldenCache):
        return cache
    if cache is not None:
        return GoldenCache(cache)
    env = os.environ.get(GOLDEN_CACHE_ENV, "").strip()
    return GoldenCache(env) if env else None
