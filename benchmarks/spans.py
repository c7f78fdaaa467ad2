"""Spans recorded from outside the engine, by wrapping module attributes.

`lcu.run_full` resolves `sched.build_schedule`, `dyson.build_segment`,
`build_context`, `apply_A` and `SegmentOperator.matrix` at call time, and
`dyson` reaches the divided-difference kernel through `dd.exp_dd_batch`, so
replacing those attributes for the duration of a traced pass sees every
layer boundary without touching library code.  Spans live in memory and are
written out once at the end.

A span is [name, start, end, parent, case, counters]; parent is the index of
the enclosing span.  Counting work that inspects arguments or results (the
wide-row count, for one) is itself recorded as a ``trace.count`` span next to
the span it describes, so it is charged to tracing, not to a layer.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, CASE, COUNTERS = range(6)


def _dd_counts(args, result):
    from permlcu import dd
    xs = np.asarray(args[0])
    wide = 0
    if xs.shape[1] > 1:
        spread = np.abs(xs - xs.mean(axis=1)[:, None]).max(axis=1)
        wide = int((spread > dd.SERIES_SPREAD_CUTOFF).sum())
    return {"rows": int(xs.shape[0]), "wide_rows": wide}


def _segment_counts(args, result):
    return {"term_components": len(result.blocks) * result.h.dim}


def _context_counts(args, result):
    return {"joint_dim": int(result.layout.joint_dim)}


def _schedule_counts(args, result):
    dts = [dt for _, dt in result.steps]
    repeated = sum(1 for dt in dts if dts.count(dt) > 1)
    return {"segments": result.r, "q_max": result.Q, "repeated_dt": repeated}


def _ode_counts(args, result):
    return {"steps": int(result.steps_taken)}


def traced_points():
    """(owner, attribute, span name, counter hook) for every wrapped boundary."""
    from permlcu import dd, dyson, lcu, models, oracle, pham, sched
    return [
        (pham, "from_pauli_spec", "pham.from_pauli_spec", None),
        (models, "oscillating_hamiltonian", "models.oscillating_hamiltonian", None),
        (lcu, "run_full", "lcu.run_full", None),
        (sched, "build_schedule", "sched.build_schedule", _schedule_counts),
        (dyson, "build_segment", "dyson.build_segment", _segment_counts),
        (dd, "exp_dd_batch", "dd.exp_dd_batch", _dd_counts),
        (lcu, "build_context", "lcu.build_context", _context_counts),
        (lcu, "apply_A", "lcu.apply_A", None),
        (dyson.SegmentOperator, "matrix", "dyson.SegmentOperator.matrix", None),
        (oracle, "propagate_ode", "oracle.propagate_ode", _ode_counts),
        (oracle, "two_level_oscillating_propagator",
         "oracle.two_level_oscillating_propagator", None),
    ]


class Tracer:
    """Context manager that wraps the traced points and collects spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.case: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.case, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                t0 = perf_counter()
                span[COUNTERS] = hook(args, result)
                spans.append(["trace.count", t0, perf_counter(), parent, self.case, None])
            return result

        return wrapper

    def __enter__(self):
        for owner, attr, name, hook in traced_points():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def write_jsonl(self, path) -> None:
        keys = ("name", "start", "end", "parent", "case", "counters")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def per_case_counter(spans, name: str, key: str) -> dict:
    """Sum of one counter of the spans called ``name``, per case id."""
    out = defaultdict(int)
    for span in spans:
        if span[NAME] == name and span[COUNTERS]:
            out[span[CASE]] += span[COUNTERS][key]
    return dict(out)


def summarize(spans) -> dict:
    """Per-name total and self seconds, call counts and summed counters."""
    own = self_times(spans)
    total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counters = defaultdict(int)
    maxima = defaultdict(int)
    for span, s_own in zip(spans, own):
        name = span[NAME]
        total[name] += span[END] - span[START]
        self_s[name] += s_own
        calls[name] += 1
        for key, value in (span[COUNTERS] or {}).items():
            counters[f"{name}.{key}"] += value
            maxima[f"{name}.{key}"] = max(maxima[f"{name}.{key}"], value)
    return {"total": dict(total), "self": dict(self_s), "calls": dict(calls),
            "counters": dict(counters), "maxima": dict(maxima)}
