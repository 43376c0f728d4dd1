"""Tests of the benchmark's own helpers (no server, no search).

Run with ``python3 -m pytest e2ebench/tests``.
"""

import loadgen
import pytest
import spans

HOSTS = [f"host/{p}/{r}/{h}" for p in range(4) for r in range(4) for h in range(4)]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1000)]
    percentile, value = loadgen.tail(values)
    assert percentile == pytest.approx(99.0)
    assert value == 989.0
    assert sum(v > value for v in values) == 10


def test_tail_needs_more_than_ten_samples():
    assert loadgen.tail([1.0] * 10) is None
    percentile, value = loadgen.tail([float(i) for i in range(11)])
    assert (percentile, value) == (pytest.approx(100 * 1 / 11), 0.0)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert loadgen.tail(values) == loadgen.tail(sorted(values))


def test_summary_reports_median_tail_and_count():
    text = loadgen.summary("lat", [i / 1000 for i in range(1, 101)])
    assert text == "lat: p50 50.500 ms | p90.0 90.000 ms | n 100"


def _span(name, start, end, children=()):
    span = spans.Span((0, name), None, name, start, end)
    span.children = list(children)
    return span


def test_self_time_is_span_minus_children():
    root = _span("root", 0.0, 10.0, [_span("a", 2.0, 5.0, [_span("b", 3.0, 4.0)])])
    shares = spans.exclusive_times(root)
    assert shares == {"root": pytest.approx(7.0), "a": pytest.approx(2.0),
                      "b": pytest.approx(1.0)}


def test_overlapping_children_split_time_instead_of_doubling_it():
    # Two children on other threads overlap during [3, 4].
    root = _span("root", 0.0, 10.0, [_span("a", 1.0, 4.0), _span("b", 3.0, 6.0)])
    shares = spans.exclusive_times(root)
    assert sum(shares.values()) == pytest.approx(10.0)
    assert shares["root"] == pytest.approx(5.0)
    assert shares["a"] == pytest.approx(2.0)  # the later-started b takes [3, 4]
    assert shares["b"] == pytest.approx(3.0)


def test_child_outliving_its_parent_is_clipped():
    root = _span("root", 0.0, 10.0, [_span("a", 8.0, 12.0)])
    assert spans.exclusive_times(root) == {"root": pytest.approx(8.0),
                                           "a": pytest.approx(2.0)}


def test_recorder_links_parents_and_hands_request_ids_up():
    recorder = spans.SpanRecorder()

    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return "req-7"

    spans.install(recorder, [
        (Layer, "outer", "layer.outer", None),
        (Layer, "inner", "layer.inner", lambda args, kwargs, result: (result, None)),
    ])
    assert Layer().outer() == "req-7"
    recorded = {span.name: span for span in recorder.spans()}
    inner, outer = recorded["layer.inner"], recorded["layer.outer"]
    assert inner.parent == outer.key and outer.parent is None
    assert inner.rid == outer.rid == "req-7"
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_same_seed_gives_same_request_stream():
    first = loadgen.interactive_stream(3, HOSTS, 300, 30.0)
    assert first == loadgen.interactive_stream(3, HOSTS, 300, 30.0)
    assert first != loadgen.interactive_stream(4, HOSTS, 300, 30.0)
    assert loadgen.bulk_stream(3, HOSTS, 50) == loadgen.bulk_stream(3, HOSTS, 50)
    assert loadgen.bulk_stream(3, HOSTS, 50) != loadgen.bulk_stream(4, HOSTS, 50)


def test_interactive_stream_shape():
    stream = loadgen.interactive_stream(5, HOSTS, 600, 30.0)
    replays = [r for r in stream if r.replay_of is not None]
    assert 0.1 < len(replays) / len(stream) < 0.3
    for replay in replays:
        original = stream[replay.replay_of]
        assert original.replay_of is None
        assert replay.index - original.index >= 60  # due two seconds earlier
        assert (replay.key, replay.hosts) == (original.key, original.hosts)
    fresh_keys = [r.key for r in stream if r.replay_of is None]
    assert len(set(fresh_keys)) == len(fresh_keys)
    assert sum(r.canary for r in stream) == 3
    assert all(r.replay_of is None for r in stream if r.canary)
    warm = loadgen.interactive_stream(5, HOSTS, 6, 30.0, canaries=0, label="warm")
    assert not set(r.key for r in warm) & set(fresh_keys)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_latency_from_the_due_time():
    clock = FakeClock()
    service = iter([0.05, 0.25, 0.05, 0.05])

    def send(request):
        clock.now += next(service)
        return {"ok": request.index}, None, False

    requests = loadgen.bulk_stream(1, HOSTS, 4)
    outcomes = loadgen.open_loop(requests, 10.0, send, threads=1,
                                 clock=clock, sleep=clock.sleep)
    late = [round(o.late, 9) for o in outcomes]
    latency = [round(o.latency, 9) for o in outcomes]
    # Request 1 stalls the only sender, so 2 and 3 go out late; their
    # latency includes the wait, not just their own service time.
    assert late == [0.0, 0.0, 0.15, 0.1]
    assert latency == [0.05, 0.25, 0.2, 0.15]


def test_closed_loop_times_from_the_send():
    clock = FakeClock()

    def send(request):
        clock.now += 0.2
        return None, "refused", True

    outcomes = loadgen.closed_loop(loadgen.bulk_stream(1, HOSTS, 100), send,
                                   threads=1, seconds=1.0, clock=clock)
    assert len(outcomes) == 5
    assert all(o.latency == pytest.approx(0.2) and o.late == 0 for o in outcomes)
    assert all(o.shed and o.response is None for o in outcomes)


def test_benchmark_json_matches_the_code():
    import json
    import os

    import layers
    import run

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.PER_LAYER
