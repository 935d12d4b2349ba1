"""Deterministic named random streams.

Every stochastic component (beam strike process, Flip-script variable
selection, benchmark input generation, ...) derives its own independent
``numpy`` generator from a campaign seed plus a stable string path, so
campaigns are reproducible bit-for-bit and adding a consumer never
perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_rng"]


def _name_entropy(name: str | int) -> int:
    """Stable 128-bit entropy for one path component.

    Integer components hash as their decimal string, so
    ``derive_rng(7, "run", 5)`` and ``derive_rng(7, "run", "5")`` name
    the same stream — shard and run indices can be passed uncast.
    """
    digest = hashlib.sha256(str(name).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def derive_rng(seed: int, *names: str | int) -> np.random.Generator:
    """Return a generator keyed by ``seed`` and a stable path of names.

    ``derive_rng(7, "beam", "dgemm")`` always yields the same stream, and
    streams with different paths are statistically independent (distinct
    SeedSequence spawn keys).
    """
    entropy = [int(seed)] + [_name_entropy(n) for n in names]
    return np.random.default_rng(np.random.SeedSequence(entropy))

