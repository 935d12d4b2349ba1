"""Campaign service: the lease scheduler and its two executors.

The campaign engine executes run-range leases, cut at shard boundaries
(one per free executor slot), through a
:class:`~repro.service.backend.ShardBackend`:

* :class:`~repro.service.local.InlineBackend` — each lease in the
  calling process (the engine's serial mode);
* :class:`~repro.service.local.LocalBackend` — one supervised
  ``mp.Process`` per lease on this host (the engine's pooled mode).

Both executors run one lease body and stream each record back as it is
produced; the scheduler re-leases a failed lease from its last
delivered record and alone writes shard checkpoints.

The package-wide invariant is inherited from the engine: per-run RNG is
keyed by run index, so the merged ``campaign.jsonl`` is byte-identical
at any worker count — including after re-leases and worker kills.
"""

from repro.service.backend import BackendEvent, LeaseResult, ShardBackend, ShardLease

__all__ = ["BackendEvent", "LeaseResult", "ShardBackend", "ShardLease"]
