"""The lease pipe: what ``LocalBackend`` makes of a damaged message.

A lease worker sends pickled ``BackendEvent``s and one ``LeaseResult``
over a ``Connection``, which length-prefixes every message.  These
tests run scripted workers in place of the real lease body, over the
backend's own pipe, and pin what the drain and the judgement do with a
message that does not unpickle and with one torn by a dying worker.
"""

import os
import struct
import time

from repro.carolfi.campaign import CampaignConfig
from repro.service import local
from repro.service.backend import BackendEvent, LeaseResult, ShardLease
from repro.service.local import LocalBackend

CONFIG = CampaignConfig(benchmark="nw", injections=2)
LEASE = ShardLease(lease_id="s00000.1", shard_index=0, start=0, stop=2, attempt=1)
REC = BackendEvent("rec", LEASE.lease_id, run=0, row={"run_index": 0})


def undecodable_then_rec(config, lease, shard_tel, conn):
    """A message that does not unpickle, a valid record, then death."""
    conn.send_bytes(b"\x00 not a pickle")
    conn.send(REC)
    os._exit(5)


def torn_message(config, lease, shard_tel, conn):
    """A length prefix announcing more bytes than follow, then death."""
    os.write(conn.fileno(), struct.pack("!i", 1000) + b"x" * 10)
    os._exit(3)


def drive(monkeypatch, worker):
    """Run one lease on ``worker``; the events drained and its result."""
    monkeypatch.setattr(local, "_lease_worker_main", worker)
    backend = LocalBackend(CONFIG, workers=1)
    events = []
    try:
        backend.submit(LEASE)
        deadline = time.monotonic() + 30.0
        while True:
            events.extend(backend.heartbeats())
            results = backend.results()
            if results:
                return events, results
            assert time.monotonic() < deadline, "the lease was never judged"
            time.sleep(0.01)
    finally:
        backend.close()


def test_a_message_that_does_not_unpickle_is_skipped(monkeypatch):
    events, results = drive(monkeypatch, undecodable_then_rec)
    assert events == [REC]
    assert results == [LeaseResult(LEASE.lease_id, "dead", detail="shard worker exit code 5")]


def test_a_torn_message_ends_the_drain_and_the_lease_dies(monkeypatch):
    events, results = drive(monkeypatch, torn_message)
    assert events == []
    assert results == [LeaseResult(LEASE.lease_id, "dead", detail="shard worker exit code 3")]
