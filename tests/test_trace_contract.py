"""The benchmark's trace contract, checked on its frozen cases.

`benchmarks/spans.py` times the engine from outside by replacing module
attributes (`Tracer`), and `benchmarks/run.py --trace 1` fails a case whose
traced final state is not byte-equal to the untraced one, or whose spans
count other Dyson term components than the frozen ones.  These tests read
the benchmark's files and change nothing under `benchmarks/`.
"""
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from permlcu import lcu, models, oracle, pham

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
# per workload: divided-difference calls and rows, and the largest joint dimension
COUNTS = {"c4-n2": (1, 6183, 43696), "osc-long": (2, 48, 512)}


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", BENCHMARKS / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def frozen_cases(workload):
    return json.loads((BENCHMARKS / "frozen" / f"{workload}.json").read_text())["cases"]


def build_model(case):
    if case.get("spec") is not None:
        return pham.from_pauli_spec(case["spec"])
    return models.oscillating_hamiltonian(**case["oscillating"])


def solve(case, h):
    psi = np.full(h.dim, 1 / math.sqrt(h.dim), dtype=complex)  # the frozen "plus" state
    final, _ = lcu.run_full(h, case["t_total"], case["eps"], psi, mode=case["mode"])
    return final.system_block(0)


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_traced_runs_match_untraced_and_frozen_counts(workload):
    spans = load_spans()
    cases = frozen_cases(workload)
    untraced = {case["id"]: solve(case, build_model(case)) for case in cases}
    points = spans.traced_points()
    for owner, attr, _, _ in points:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is not where the tracer looks"
    with spans.Tracer() as tracer:
        for case in cases:
            tracer.case = case["id"]
            h = build_model(case)
            assert solve(case, h).tobytes() == untraced[case["id"]].tobytes(), case["id"]
            if case is cases[0]:  # reaches the ODE oracle's counter hook
                oracle.propagate_ode(h, 0.0, case["t_total"], tol=1e-8)
    # every counter hook ran, on each call of its point
    for _, _, name, hook in points:
        called = [span for span in tracer.spans if span[spans.NAME] == name]
        assert hook is None or (called and all(span[spans.COUNTERS] for span in called)), name
    got = spans.per_case_counter(tracer.spans, "dyson.build_segment", "term_components")
    assert got == {case["id"]: case["expect"]["term_components"] for case in cases}
    summary = spans.summarize(tracer.spans)
    assert (summary["calls"]["dd.exp_dd_batch"], summary["counters"]["dd.exp_dd_batch.rows"],
            summary["maxima"]["lcu.build_context.joint_dim"]) == COUNTS[workload]
    # a run checks its segments matrix-free: the dense operator is for the criteria and tests
    assert "dyson.SegmentOperator.matrix" not in summary["calls"]
