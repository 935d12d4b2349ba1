"""Distributed campaign service: backends, scheduler, broker, workers.

The campaign engine executes run-range leases, cut at shard boundaries
(one per free executor slot), through a transport-agnostic
:class:`~repro.service.backend.ShardBackend`:

* :class:`~repro.service.local.InlineBackend` — each lease in the
  calling process (the engine's serial mode);
* :class:`~repro.service.local.LocalBackend` — one supervised
  ``mp.Process`` per lease on this host (the engine's pooled mode);
* :class:`~repro.service.broker.BrokerBackend` — a TCP work-queue
  broker leasing run ranges to connected ``repro-worker`` agents, with
  re-lease on worker loss and work stealing.

All three executors run one lease body and stream each record back as
it is produced; the scheduler re-leases a failed lease from its last
delivered record and alone writes shard checkpoints.

The package-wide invariant is inherited from the engine: per-run RNG is
keyed by run index, so the merged ``campaign.jsonl`` is byte-identical
at any worker/host count — including after steals, re-leases and worker
kills.
"""

from repro.service.backend import BackendEvent, LeaseResult, ShardBackend, ShardLease
from repro.service.wire import FrameDecoder, FrameError, decode_frame, encode_frame

__all__ = [
    "BackendEvent",
    "FrameDecoder",
    "FrameError",
    "LeaseResult",
    "ShardBackend",
    "ShardLease",
    "decode_frame",
    "encode_frame",
]
