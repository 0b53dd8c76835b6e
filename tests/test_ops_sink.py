"""MetricsSink protocol: fan-out, store persistence, the runtime port.

The sink is the one publishing surface (emit / counter / observe /
flush); these tests pin the protocol conformance of every
implementation.
"""

import dataclasses

import pytest

from repro.ops.sink import (
    Counter,
    MetricsSink,
    MultiSink,
    NullSink,
    StoreSink,
    as_sink,
    event_record,
)
from repro.ops.store import MetricsStore
from repro.runtime.metrics import RuntimeMetrics, TickEvent


class Recorder(MetricsSink):
    def __init__(self):
        self.events = []
        self.observations = []
        self.flushes = 0

    def emit(self, event):
        self.events.append(event_record(event))

    def observe(self, name, value):
        self.observations.append((name, value))

    def flush(self):
        self.flushes += 1


# -- protocol basics ---------------------------------------------------------


def test_base_sink_defaults_are_noops():
    sink = MetricsSink()
    sink.emit({"kind": "tick"})
    sink.observe("x", 1.0)
    sink.flush()
    counter = sink.counter("served")
    counter.inc()
    assert counter.value == 1


def test_counter_rejects_negative_increments():
    counter = Counter("served")
    counter.inc(3)
    with pytest.raises(ValueError, match="must be >= 0"):
        counter.inc(-1)
    assert counter.value == 3


def test_event_record_accepts_dataclasses_and_mappings():
    record = event_record({"kind": "tick", "i": 1})
    assert record == {"kind": "tick", "i": 1}
    event = TickEvent(
        tick=3, time=1.0, decision="reuse", reason="drift<threshold",
        drift=0.0, predicted_makespan=1.0, executed_makespan=1.0,
        regret=0.0,
    )
    record = event_record(event)
    assert record["tick"] == 3 and record["decision"] == "reuse"
    with pytest.raises(TypeError, match="event"):
        event_record(42)


def test_as_sink_null_fallback():
    assert isinstance(as_sink(None), NullSink)
    sink = Recorder()
    assert as_sink(sink) is sink


# -- MultiSink fan-out -------------------------------------------------------


def test_multisink_fans_out_everything():
    left, right = Recorder(), Recorder()
    multi = MultiSink([left, right])
    multi.emit({"kind": "tick"})
    multi.observe("latency", 0.5)
    counter = multi.counter("served")
    counter.inc(2)
    multi.flush()
    for sink in (left, right):
        assert sink.events == [{"kind": "tick"}]
        assert sink.observations == [("latency", 0.5)]
        assert sink.flushes == 1
    # the fan-out counter increments each member's counter
    assert multi.counter("served") is counter


def test_multisink_counter_reaches_runtime_metrics():
    metrics = RuntimeMetrics()
    multi = MultiSink([metrics, Recorder()])
    multi.counter("served").inc(5)
    assert metrics.counter("served").value == 5


# -- StoreSink persistence ---------------------------------------------------


def test_store_sink_tags_events(tmp_path):
    store = MetricsStore(tmp_path)
    sink = StoreSink(store, source="tenant-3", kind="tick")
    sink.emit({"decision": "reuse", "ts": 1.0})
    sink.emit({"decision": "repair", "kind": "custom", "ts": 2.0})
    records = store.query()
    assert [r["kind"] for r in records] == ["tick", "custom"]
    assert all(r["source"] == "tenant-3" for r in records)
    store.close()


def test_store_sink_observe_and_counter_snapshot(tmp_path):
    store = MetricsStore(tmp_path, clock=lambda: 7.0)
    sink = StoreSink(store, source="daemon")
    sink.observe("decision_latency_s", 0.25)
    sink.counter("served").inc(3)
    sink.counter("accepted").inc(4)
    # counters buffer in memory; only flush writes the snapshot record
    assert store.query(kind="counters") == []
    sink.flush()
    (snapshot,) = store.query(kind="counters")
    assert snapshot["counters"] == {"accepted": 4, "served": 3}
    (observed,) = store.query(kind="observe")
    assert observed["name"] == "decision_latency_s"
    assert observed["value"] == 0.25
    store.close()


# -- the runtime port --------------------------------------------------------


def test_runtime_metrics_is_a_sink():
    metrics = RuntimeMetrics()
    assert isinstance(metrics, MetricsSink)
    event = TickEvent(
        tick=0, time=0.0, decision="reuse", reason="drift<threshold",
        drift=0.0, predicted_makespan=1.0, executed_makespan=1.0,
        regret=0.0,
    )
    metrics.emit(event)
    metrics.emit(dataclasses.asdict(event))  # mappings work too
    assert metrics.counter("ticks").value == 2
    metrics.observe("decision_latency_s", 0.5)
    assert metrics.histogram("decision_latency_s").count == 1
