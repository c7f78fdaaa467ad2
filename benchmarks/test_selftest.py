"""Self-test of the benchmark on its smallest case (criterion-4 model 0).

    python3 -m pytest benchmarks/test_selftest.py

Checks the span schema, that span self times account for the traced solve
time, that tracing leaves the computed states bitwise unchanged, that the
result line matches BENCHMARK.json, and that the host-speed probes run during
a timed call and their time is taken off it.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from workloads import build_model, initial_state, load_frozen

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def smallest():
    case = load_frozen("c4-n2")[0]
    h = build_model(case)
    return case, h, initial_state(case, h.dim, None, 0)


@pytest.fixture(scope="module")
def passes(smallest):
    case, h, psi = smallest
    plain = run.run_pass([case], [h], [psi])
    with spans.Tracer() as tracer:
        traced = run.run_pass([case], [h], [psi], tracer)
    return plain[0], traced[0], tracer


def test_span_schema(smallest, passes):
    case = smallest[0]
    _, _, tracer = passes
    names = {name for _, _, name, _ in spans.traced_points()} | {"trace.count"}
    assert tracer.spans
    for i, (name, start, end, parent, case_id, counters) in enumerate(tracer.spans):
        assert name in names
        assert start <= end
        assert case_id == case.id
        if parent is not None:
            assert 0 <= parent < i
            outer = tracer.spans[parent]
            assert outer[spans.START] <= start and end <= outer[spans.END]
        assert counters is None or all(isinstance(v, int) for v in counters.values())
    roots = [s for s in tracer.spans if s[spans.NAME] == "lcu.run_full"]
    assert len(roots) == 1 and roots[0][spans.PARENT] is None


def test_tracer_restores_attributes():
    before = [owner.__dict__[attr] for owner, attr, _, _ in spans.traced_points()]
    with spans.Tracer():
        pass
    after = [owner.__dict__[attr] for owner, attr, _, _ in spans.traced_points()]
    assert all(a is b for a, b in zip(before, after))


def test_self_times_account_for_traced_solve(passes):
    _, traced, tracer = passes
    own = spans.self_times(tracer.spans)
    root = next(i for i, s in enumerate(tracer.spans) if s[spans.NAME] == "lcu.run_full")

    def under_root(i):
        while i is not None:
            if i == root:
                return True
            i = tracer.spans[i][spans.PARENT]
        return False

    accounted = sum(t for i, t in enumerate(own) if under_root(i))
    assert abs(accounted - traced.solve_s) <= 0.1 * traced.solve_s


def test_traced_and_untraced_states_bitwise_equal(passes):
    plain, traced, _ = passes
    assert plain.failure is None and traced.failure is None
    assert np.array_equal(plain.final, traced.final)


def test_result_line_matches_benchmark_json(smallest, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "load_frozen", lambda workload: [smallest[0]])
    doc = json.loads(BENCHMARK_JSON.read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "c4-n2", "--seed", "5", "--seconds", "0",
                         "--trace", str(trace), "--out", str(tmp_path)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in doc[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_host_speed_takes_probe_time_off():
    speed = run.HostSpeed(0.01)

    def busy(seconds=0.2):  # pure-Python work, so the timer's probes get to run
        t0, n = run.perf_counter(), 0
        while run.perf_counter() - t0 < seconds:
            n += 1
        return n

    n, own, ref = speed.timed(busy)
    assert n > 0
    assert len(speed.times) >= 5                  # before, during and after
    assert 0.0 < own < 0.2                        # the probes' time is taken off
    mean_probe = sum(speed.times) / len(speed.times)
    assert ref == pytest.approx(own * run.PROBE_REF_S / mean_probe)
