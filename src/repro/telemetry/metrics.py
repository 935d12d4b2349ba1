"""Fork-safe metrics: counters, gauges, fixed-bucket histograms.

The campaign engine fans out over worker processes, so a classic
shared-registry design (locks, shared memory) would couple telemetry to
the execution topology.  Instead every process owns a plain, lock-free
:class:`MetricsRegistry` and the *wire format* does the merging:

* a worker accumulates locally and periodically ships
  :meth:`MetricsRegistry.drain_delta` over the engine's existing
  heartbeat pipe;
* the engine folds each delta into its own registry with
  :meth:`MetricsRegistry.merge`.

Counters and histogram buckets merge by addition, gauges by
last-writer-wins, so a serial campaign (one registry, no merging) and a
parallel one (N registries, merged) report identical counter totals.

Disabled telemetry uses :data:`NULL_REGISTRY`, whose instruments are
shared no-op singletons: instrumented code pays one attribute lookup
and one no-op call, nothing else — and, critically, telemetry never
touches the campaign's RNG streams, so records stay bit-identical.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import Any

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
]

#: Label set -> canonical hashable key ("outcome"="sdc" -> (("outcome","sdc"),)).
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds): spans injection runs
#: (~ms) through golden runs and whole shards (~minutes).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
    120.0,
    600.0,
)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _key_to_wire(key: LabelKey) -> list[list[str]]:
    return [[k, v] for k, v in key]


def _key_from_wire(pairs: Sequence[Sequence[str]]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in pairs))


class Metric:
    """Shared bookkeeping: values plus a since-last-drain delta."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, Any] = {}
        self._delta: dict[LabelKey, Any] = {}

    def items(self) -> Iterator[tuple[dict[str, str], Any]]:
        """Iterate ``(labels, value)`` pairs in sorted label order."""
        for key in sorted(self._values):
            yield dict(key), self._values[key]

    def _wire_values(self, values: Mapping[LabelKey, Any]) -> list[list[Any]]:
        return [[_key_to_wire(key), values[key]] for key in sorted(values)]

    def to_wire(self, *, delta: bool = False) -> dict[str, Any]:
        source = self._delta if delta else self._values
        payload: dict[str, Any] = {
            "kind": self.kind,
            "help": self.help,
            "values": self._wire_values(source),
        }
        return payload

    def clear_delta(self) -> None:
        self._delta = {}


class Counter(Metric):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount
        self._delta[key] = self._delta.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return float(self._values.get(_label_key(labels), 0.0))

    def total(self) -> float:
        return float(sum(self._values.values()))

    def merge_wire(self, values: Sequence[Sequence[Any]]) -> None:
        for pairs, amount in values:
            key = _key_from_wire(pairs)
            self._values[key] = self._values.get(key, 0.0) + float(amount)


class Gauge(Metric):
    """Point-in-time value; merge keeps the most recent write."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = float(value)
        self._delta[key] = float(value)

    def value(self, **labels: Any) -> float:
        return float(self._values.get(_label_key(labels), 0.0))

    def merge_wire(self, values: Sequence[Sequence[Any]]) -> None:
        for pairs, value in values:
            self._values[_key_from_wire(pairs)] = float(value)


class Histogram(Metric):
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    Buckets are upper bounds; an observation lands in the first bucket
    whose bound it does not exceed, or in the implicit ``+Inf`` slot.
    The bounds are part of the wire format and must match to merge —
    histograms from differently-configured registries never mix
    silently.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be non-empty, sorted, unique")
        self.buckets = bounds

    def _slot(self, key: LabelKey, store: dict[LabelKey, Any]) -> dict[str, Any]:
        slot = store.get(key)
        if slot is None:
            slot = {"buckets": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
            store[key] = slot
        return slot

    def observe(self, value: float, **labels: Any) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        key = _label_key(labels)
        for store in (self._values, self._delta):
            slot = self._slot(key, store)
            slot["buckets"][index] += 1
            slot["sum"] += value
            slot["count"] += 1

    def count(self, **labels: Any) -> int:
        slot = self._values.get(_label_key(labels))
        return 0 if slot is None else int(slot["count"])

    def sum(self, **labels: Any) -> float:
        slot = self._values.get(_label_key(labels))
        return 0.0 if slot is None else float(slot["sum"])

    def to_wire(self, *, delta: bool = False) -> dict[str, Any]:
        payload = super().to_wire(delta=delta)
        payload["buckets"] = list(self.buckets)
        return payload

    def merge_wire(self, values: Sequence[Sequence[Any]]) -> None:
        for pairs, incoming in values:
            slot = self._slot(_key_from_wire(pairs), self._values)
            if len(incoming["buckets"]) != len(slot["buckets"]):
                raise ValueError(f"histogram {self.name}: bucket layout mismatch")
            for i, n in enumerate(incoming["buckets"]):
                slot["buckets"][i] += int(n)
            slot["sum"] += float(incoming["sum"])
            slot["count"] += int(incoming["count"])


class MetricsRegistry:
    """One process's metrics, mergeable across processes via dicts."""

    #: False on :class:`NullRegistry`; hot paths may use this to skip
    #: work whose only purpose is feeding an instrument.
    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get(self, name: str, factory: Any, **kwargs: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {factory.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)  # type: ignore[no-any-return]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)  # type: ignore[no-any-return]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)  # type: ignore[no-any-return]

    def metrics(self) -> list[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    # -- wire format -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Full state as a JSON-serialisable dict (totals, not deltas)."""
        return {name: metric.to_wire() for name, metric in sorted(self._metrics.items())}

    def drain_delta(self) -> dict[str, Any]:
        """Changes since the previous drain, clearing the delta buffer.

        The result merges into another registry exactly once; draining
        after every unit of work gives at-most-once loss (a killed
        worker loses only its undrained tail) and no double counting.
        Metrics with no changes are omitted; an idle registry drains to
        ``{}`` so callers can skip the send entirely.
        """
        out: dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if metric._delta:
                out[name] = metric.to_wire(delta=True)
                metric.clear_delta()
        return out

    def merge(self, payload: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` or :meth:`drain_delta` dict into this registry."""
        factories = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        for name, wire in payload.items():
            kind = wire.get("kind")
            factory = factories.get(kind)
            if factory is None:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            kwargs: dict[str, Any] = {"help": wire.get("help", "")}
            if factory is Histogram:
                kwargs["buckets"] = wire.get("buckets", DEFAULT_BUCKETS)
            metric = self._get(name, factory, **kwargs)
            metric.merge_wire(wire.get("values", []))

    # -- cheap reads for reporters and tests -----------------------------------

    def counter_values(self) -> dict[str, dict[str, float]]:
        """All counters as ``{name: {rendered-labels: value}}``.

        Label sets render as ``k=v,k=v`` (sorted) or ``""`` when bare —
        a stable, comparison-friendly shape for equivalence tests.
        """
        out: dict[str, dict[str, float]] = {}
        for metric in self.metrics():
            if isinstance(metric, Counter):
                out[metric.name] = {
                    ",".join(f"{k}={v}" for k, v in sorted(labels.items())): value
                    for labels, value in metric.items()
                }
        return out


class _NullInstrument:
    """Accepts any instrument call and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0.0

    def items(self) -> Iterator[tuple[dict[str, str], Any]]:
        return iter(())


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op."""

    enabled = False

    def counter(self, name: str, help: str = "") -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def merge(self, payload: Mapping[str, Any]) -> None:
        pass


#: Process-wide disabled registry (instruments are stateless, sharing is safe).
NULL_REGISTRY = NullRegistry()
