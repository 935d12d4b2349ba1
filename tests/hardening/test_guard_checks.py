"""An injected hardened run checks its guards once; set-up counts the
bytes a guarded execution verifies.

Only the guard check at a run's interrupt step can trip, so an injected
run syncs its guards on the golden state there, flips, and verifies
each live guard once.  Set-up verifies nothing: its golden walk sums
the bytes of the guarded live variables before every step, which must
equal what the fault-free from-step-0 reference verifies.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.benchmarks.registry import names
from repro.hardening.guards import VariableGuard

from tests.hardening.test_hardened_resume import plan, replay_execute, supervisor_for


def count_calls(monkeypatch, method: str, tally) -> None:
    """Route ``VariableGuard.<method>`` through ``tally(guard, array)``."""
    original = getattr(VariableGuard, method)

    def counted(self, array):
        tally(self, array)
        return original(self, array)

    monkeypatch.setattr(VariableGuard, method, counted)


@pytest.mark.parametrize("name", names())
def test_injected_run_verifies_and_resyncs_each_guard_at_most_once(name, monkeypatch):
    sup = supervisor_for(name, 1)
    calls: Counter = Counter()
    count_calls(monkeypatch, "verify", lambda guard, _: calls.update([("verify", guard.name)]))
    count_calls(monkeypatch, "resync", lambda guard, _: calls.update([("resync", guard.name)]))
    verified = 0
    for run, model, step in plan(sup):
        calls.clear()
        sup.run_one(run, model, interrupt_step=step)
        assert max(calls.values(), default=0) <= 1, (run, step, calls)
        verified += sum(n for (method, _), n in calls.items() if method == "verify")
    assert verified > 0


@pytest.mark.parametrize("name", names())
def test_fault_free_run_is_a_full_replay_on_every_kernel(name, monkeypatch):
    """The fault-free guarded replay is masked, and verifies exactly the
    bytes the set-up's golden walk counted."""
    sup = supervisor_for(name, 1)
    nbytes: list[int] = []
    count_calls(monkeypatch, "verify", lambda _guard, array: nbytes.append(array.nbytes))
    assert replay_execute(sup, -1, None, None).outcome == "masked"
    assert sup.verify_kib_per_step > 0
    assert sup.verify_kib_per_step == sum(nbytes) / 1024 / sup.total_steps
