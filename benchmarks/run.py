"""permlcu benchmark: time to a verified solution on one workload.

    python3 benchmarks/run.py --workload osc-long --seed 1 --seconds 60 --trace 0

Run from the repository root; the engine is imported from ``src/``.  One
process, one workload.  After set-up (imports, model construction for every
case, one untimed warm-up) it repeats passes over the workload's cases until
``--seconds`` is used up.  A pass solves every case with `lcu.run_full` and
checks it against an independent oracle (`oracle.propagate_ode` at tol 1e-10,
or the rotating-frame closed form where an ODE cannot resolve the frequency).
A case fails if it raises, if its final state is farther than eps from the
oracle's, or if r, Q or the Dyson term count differ from the frozen values.

``--trace 0`` prints the end-to-end metrics: per case, the median over the
passes of its time at a reference host speed, summed (or maxed) over the
cases.  The host this runs on is shared, and contention from outside the
process slows compute-bound work by up to 2x, for seconds to minutes at a
time, which no number of passes within one run averages out.  So a short
fixed numpy probe (`HostSpeed`) runs right before and after every timed call
and, from an interval timer, every PROBE_INTERVAL_S during it.  The call's
time is its wall time less the time spent in probes, and its time at the
reference speed is that multiplied by PROBE_REF_S over the mean probe time.
``setup_s`` is scaled the same way, by the probes around and during the
set-up repeats.  The wall times (per pass and per case, and of set-up) and
the probe times are all in the report line.  The correction fits calls that are compute-bound like the
probe, as in c4-n2 and osc-long and in every oracle check.  The solves of
rand-n345 stream arrays of hundreds of MB, slow less than the probe under
contention and come out over-corrected, so that workload can be run but is
not one of the benchmark's gated workloads.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones; the spans are written to ``--out``.

``--seed`` draws a random initial state per case (the work does not depend
on it); without it the frozen initial states are used.  ``--workload-seed``
replaces the frozen cases by fresh ones from the benchmark's generator.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the full
report (environment, per-case results, every layer number).  The exit
code is 0 only when every case passed.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread, never more than nproc: the engine's arrays are
# small or elementwise, and a single thread keeps run-to-run spread lowest.
# Must be set before numpy is imported.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
VERIFY_MIN_S = 0.5
VERIFY_REPEATS = 20
PROBE_INTERVAL_S = 0.1
# About HostSpeed's probe time on an uncontended host: over 3000 probes in
# 30 s on a shared 2-vCPU Xeon VM, the fastest took 2.3 ms, the median 4.2 ms.
PROBE_REF_S = 0.0025


def _import_engine() -> None:
    src = ROOT / "src"
    if not (src / "permlcu" / "__init__.py").is_file():
        sys.exit(f"benchmark: engine sources not found at {src}; run from a full checkout")
    sys.path.insert(0, str(src))


_import_engine()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from permlcu import dyson, lcu, oracle  # noqa: E402

import spans  # noqa: E402
from workloads import (ODE_TOL, WORKLOADS, Case, build_model, fresh_cases,  # noqa: E402
                       initial_state, load_frozen)

IMPORTS_S = time.perf_counter() - T_START

END_TO_END = {"solve_s": "s", "solve_max_case_s": "s", "verify_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
# name -> unit, in the order of BENCHMARK.json; oracle.closed_form_s is in the
# report only, since it is exactly 0 on workloads without closed-form cases
PER_LAYER = {
    "pham.parse_s": "s", "sched.build_s": "s", "sched.segments": "count",
    "sched.q_max": "count", "dd.kernel_s": "s", "dd.calls": "count",
    "dd.rows": "count", "dd.wide_rows": "count", "dyson.segment_s": "s",
    "dyson.segment_self_s": "s", "dyson.term_components": "count",
    "dyson.matrix_s": "s", "lcu.context_s": "s", "lcu.oaa_s": "s",
    "lcu.run_full_self_s": "s", "lcu.joint_dim_max": "count",
    "lcu.residual_max": "1", "lcu.deficit_total": "1", "oracle.ode_s": "s",
    "oracle.ode_steps": "count", "trace.solve_s": "s", "trace.untraced_solve_s": "s",
}


class HostSpeed:
    """Times calls and follows the shared host's speed while they run.

    The probe is a fixed numpy workload of the two kinds the engine does: an
    elementwise pass over a cache-sized array and many small-array passes.
    It runs right before and after each call and, from a SIGALRM interval
    timer, every ``interval`` seconds during it (0: not during).  A probe in
    the timer's handler runs between two bytecodes of the call, so it only
    adds time, which is measured and taken off.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        rng = np.random.default_rng(0)
        self._big = rng.normal(size=30_000) + 1j * rng.normal(size=30_000)
        self._buf = np.empty_like(self._big)
        self._small = [rng.normal(size=16) + 0j for _ in range(100)]
        self.interval = interval
        self.times: list[float] = []     # every probe's time, in order
        self._probe_s = 0.0              # probe time inside the current call
        self._in_probe = False

    def _probe(self) -> float:
        t0 = perf_counter()
        for _ in range(3):
            np.multiply(self._big, 1e-3, out=self._buf)
            np.exp(self._buf, out=self._buf)
            self._buf *= self._big
            self._buf.sum()
        for _ in range(5):
            for a in self._small:
                (np.exp(a) * a).sum()
        t = perf_counter() - t0
        self.times.append(t)
        return t

    def _during(self, signum, frame) -> None:
        if self._in_probe:  # a probe slower than the interval: skip, do not nest
            return
        self._in_probe = True
        t0 = perf_counter()
        self._probe()
        self._probe_s += perf_counter() - t0
        self._in_probe = False

    def timed(self, fn):
        """fn's result, its time without the probes, and that time at the
        reference speed (times PROBE_REF_S over the mean probe time)."""
        first = len(self.times)
        self._probe()
        self._probe_s = 0.0
        if self.interval:
            signal.signal(signal.SIGALRM, self._during)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        own = elapsed - self._probe_s
        self._probe()
        return out, own, own * PROBE_REF_S / statistics.fmean(self.times[first:])


@dataclass
class CaseResult:
    id: str
    solve_s: float
    verify_s: float
    solve_ref_s: float               # solve_s at the reference host speed
    verify_ref_s: float              # verify_s at the reference host speed
    err: float | None
    residual_max: float
    deficit_total: float
    final: np.ndarray | None
    failure: str | None


def reference_state(case: Case, h, psi0: np.ndarray) -> np.ndarray:
    """The oracle's final state for a case."""
    if case.oracle == "ode":
        return oracle.propagate_ode(h, 0.0, case.t_total, tol=ODE_TOL).U @ psi0
    osc = case.oscillating
    return oracle.two_level_oscillating_propagator(
        osc["h"], osc["gamma"], osc["alpha"], case.t_total) @ psi0


def _check(case: Case, h, diag: dict, err: float) -> str | None:
    if not err <= case.eps:
        return f"oracle distance {err:.3e} > eps {case.eps:g}"
    if case.expect is not None:
        got = {"r": diag["r"], "Q": diag["Q"],
               "term_components": diag["r"] * dyson.count_terms(h, diag["Q"])}
        if got != case.expect:
            return f"counts {got} differ from frozen {case.expect}"
    return None


def repeated_check(case: Case, h, psi0: np.ndarray, min_s: float):
    """The oracle's state and the number of times it was computed: the check
    is repeated (at most VERIFY_REPEATS times) until min_s seconds are spent,
    so that millisecond-scale checks are not timed from a single sample."""
    t0, n = perf_counter(), 0
    while True:
        ref, n = reference_state(case, h, psi0), n + 1
        if perf_counter() - t0 >= min_s or n == VERIFY_REPEATS:
            return ref, n


def solve_case(case: Case, h, psi0: np.ndarray, verify_min_s: float,
               speed: HostSpeed) -> CaseResult:
    """One timed run_full plus its timed oracle check; never raises."""
    solve_s = verify_s = solve_ref_s = verify_ref_s = 0.0
    try:
        gc.collect()  # garbage left by earlier cases is not this case's cost
        (final, diag), solve_s, solve_ref_s = speed.timed(
            lambda: lcu.run_full(h, case.t_total, case.eps, psi0, mode=case.mode))
        (ref, n), verify_s, verify_ref_s = speed.timed(
            lambda: repeated_check(case, h, psi0, verify_min_s))
        verify_s, verify_ref_s = verify_s / n, verify_ref_s / n
        psi = final.system_block(0)
        err = float(np.linalg.norm(psi - ref))
        return CaseResult(case.id, solve_s, verify_s, solve_ref_s, verify_ref_s, err,
                          max(diag["residuals"], default=0.0), diag["total_deficit"],
                          psi, _check(case, h, diag, err))
    except Exception as exc:  # a failing case is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return CaseResult(case.id, solve_s, verify_s, solve_ref_s, verify_ref_s,
                          None, 0.0, 0.0, None, f"{type(exc).__name__}: {exc}")


def run_pass(cases, hams, states, tracer: spans.Tracer | None = None,
             speed: HostSpeed | None = None) -> list[CaseResult]:
    """Solve and verify every case once.  A traced pass also rebuilds the
    models, so that model construction shows up as a span, checks each case
    exactly once, so that the oracle spans are one check per case, and runs
    no probes during calls, so that spans hold only the engine's time."""
    if tracer is not None:
        hams = []
        for case in cases:
            tracer.case = case.id
            hams.append(build_model(case))
    speed = speed or HostSpeed(PROBE_INTERVAL_S if tracer is None else 0.0)
    results = []
    for case, h, psi0 in zip(cases, hams, states):
        if tracer is not None:
            tracer.case = case.id
        results.append(solve_case(case, h, psi0, 0.0 if tracer else VERIFY_MIN_S, speed))
    return results


def set_up(cases, seed, speed: HostSpeed):
    """Models, initial states and one untimed warm-up run.

    Repeated SETUP_REPEATS times.  The set-up time is the import time (from
    the top of this script, once per process) plus the median of the
    repeats; returned as measured and at the reference speed, scaled by the
    probes timed around and during the repeats, a second after the imports.
    """
    warm = load_frozen("c4-n2")[0]

    def once():
        hams = [build_model(c) for c in cases]
        states = [initial_state(c, h.dim, seed, i) for i, (c, h) in enumerate(zip(cases, hams))]
        h_warm = build_model(warm)
        psi_warm = initial_state(warm, h_warm.dim, None, 0)
        lcu.run_full(h_warm, warm.t_total, warm.eps, psi_warm, mode=warm.mode)
        reference_state(warm, h_warm, psi_warm)
        return hams, states

    first, times = len(speed.times), []
    for _ in range(SETUP_REPEATS):
        (hams, states), own, _ = speed.timed(once)
        times.append(own)
    wall = IMPORTS_S + statistics.median(times)
    return hams, states, wall, wall * PROBE_REF_S / statistics.fmean(speed.times[first:])


def scaled_totals(passes: list[list[CaseResult]]) -> dict:
    """End-to-end times from each case's median over the passes of its solve
    and check times, each scaled to the reference host speed."""
    cases = range(len(passes[0]))
    solve = [statistics.median(res[i].solve_ref_s for res in passes) for i in cases]
    verify = [statistics.median(res[i].verify_ref_s for res in passes) for i in cases]
    return {"solve_s": sum(solve), "solve_max_case_s": max(solve), "verify_s": sum(verify)}


def pass_totals(results: list[CaseResult]) -> dict:
    return {"solve_s": sum(r.solve_s for r in results),
            "solve_max_case_s": max(r.solve_s for r in results),
            "verify_s": sum(r.verify_s for r in results)}


def layer_numbers(results: list[CaseResult], summary: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    tot, own, calls, cnt, mx = (summary[k] for k in
                                ("total", "self", "calls", "counters", "maxima"))
    ode_s = tot.get("oracle.propagate_ode", 0.0)
    closed_s = tot.get("oracle.two_level_oscillating_propagator", 0.0)
    rows = cnt.get("dd.exp_dd_batch.rows", 0)
    segments = cnt.get("sched.build_schedule.segments", 0)
    return {
        "pham.parse_s": tot.get("pham.from_pauli_spec", 0.0)
        + tot.get("models.oscillating_hamiltonian", 0.0),
        "sched.build_s": tot.get("sched.build_schedule", 0.0),
        "sched.segments": segments,
        "sched.q_max": mx.get("sched.build_schedule.q_max", 0),
        "dd.kernel_s": tot.get("dd.exp_dd_batch", 0.0),
        "dd.calls": calls.get("dd.exp_dd_batch", 0),
        "dd.rows": rows,
        "dd.wide_rows": cnt.get("dd.exp_dd_batch.wide_rows", 0),
        "dyson.segment_s": tot.get("dyson.build_segment", 0.0),
        "dyson.segment_self_s": own.get("dyson.build_segment", 0.0),
        "dyson.term_components": cnt.get("dyson.build_segment.term_components", 0),
        "dyson.matrix_s": tot.get("dyson.SegmentOperator.matrix", 0.0),
        "lcu.context_s": tot.get("lcu.build_context", 0.0),
        "lcu.oaa_s": tot.get("lcu.apply_A", 0.0),
        "lcu.run_full_self_s": own.get("lcu.run_full", 0.0),
        "lcu.joint_dim_max": mx.get("lcu.build_context.joint_dim", 0),
        "lcu.residual_max": max(r.residual_max for r in results),
        "lcu.deficit_total": sum(r.deficit_total for r in results),
        "oracle.ode_s": ode_s,
        "oracle.ode_steps": cnt.get("oracle.propagate_ode.steps", 0),
        "oracle.closed_form_s": closed_s,
        "trace.solve_s": pass_totals(results)["solve_s"],
        "trace.count_s": tot.get("trace.count", 0.0),
        # properties a "helps only inputs with X" claim is judged against
        "share.wide_rows": cnt.get("dd.exp_dd_batch.wide_rows", 0) / rows if rows else 0.0,
        "share.repeated_dt_segments":
            cnt.get("sched.build_schedule.repeated_dt", 0) / segments if segments else 0.0,
        "share.ode_of_verify": ode_s / (ode_s + closed_s) if ode_s + closed_s else 0.0,
    }


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": THREADS}


def measure(cases, hams, states, seconds: float, trace: bool, speed: HostSpeed):
    """Passes until another one might not end within the time (at least one
    of each kind needed)."""
    untraced, traced, durations = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if trace and len(durations) % 2 == 1:
            with spans.Tracer() as tracer:
                results = run_pass(cases, hams, states, tracer, speed)
            traced.append((results, tracer))
        else:
            untraced.append(run_pass(cases, hams, states, speed=speed))
        durations.append(perf_counter() - t0)
        enough = len(durations) >= (2 if trace else 1)
        if enough and perf_counter() - start + max(durations) > seconds:
            return untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="draws the initial states; omitted: frozen initial states")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=int, default=None,
                    help="fresh cases from the benchmark's generator instead of the frozen ones")
    ap.add_argument("--out", default=".bench_out", help="directory for the report and spans")
    args = ap.parse_args(argv)

    cases = (load_frozen(args.workload) if args.workload_seed is None
             else fresh_cases(args.workload, args.workload_seed))
    # a traced run reports no end-to-end times, so it probes only between calls
    speed = HostSpeed(0.0 if args.trace else PROBE_INTERVAL_S)
    hams, states, setup_wall_s, setup_s = set_up(cases, args.seed, speed)
    untraced, traced = measure(cases, hams, states, args.seconds, bool(args.trace), speed)

    every = [r for results in untraced for r in results]
    if traced:
        # a traced pass must compute bitwise the same states as an untraced
        # one, and its spans must see exactly the frozen amount of work
        base = {r.id: r.final for r in untraced[0]}
        want = {c.id: c.expect["term_components"] for c in cases if c.expect}
        for results, tracer in traced:
            got = spans.per_case_counter(tracer.spans, "dyson.build_segment",
                                         "term_components")
            for r in results:
                if r.failure:
                    continue
                if base[r.id] is not None and not np.array_equal(r.final, base[r.id]):
                    r.failure = "traced final state differs from the untraced one"
                elif r.id in want and got.get(r.id) != want[r.id]:
                    r.failure = f"traced term components {got.get(r.id)} != frozen {want[r.id]}"
            every += results
    failures = [f"{r.id}: {r.failure}" for r in every if r.failure]

    totals = [pass_totals(results) for results in untraced]
    e2e = scaled_totals(untraced)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "workload": args.workload, "seed": args.seed, "workload_seed": args.workload_seed,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": e2e,
        "per_pass": totals,
        "wall_medians": {k: statistics.median(t[k] for t in totals) for k in totals[0]},
        "setup_wall_s": setup_wall_s,
        "probe_s": {"ref": PROBE_REF_S, "min": min(speed.times),
                    "median": statistics.median(speed.times), "max": max(speed.times)},
        "err_max": max((r.err for r in every if r.err is not None), default=None),
        "eps": max(c.eps for c in cases),
        "cases": {c.id: {"solve_s": [res[i].solve_s for res in untraced],
                         "verify_s": [res[i].verify_s for res in untraced],
                         "solve_ref_s": [res[i].solve_ref_s for res in untraced],
                         "verify_ref_s": [res[i].verify_ref_s for res in untraced],
                         "err": max((res[i].err for res in untraced
                                     if res[i].err is not None), default=None)}
                  for i, c in enumerate(cases)},
        "failures": failures,
    }
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if traced:
        per_pass = [layer_numbers(results, spans.summarize(tracer.spans))
                    for results, tracer in traced]
        layers = {k: statistics.median([p[k] for p in per_pass]) for k in per_pass[0]}
        # medians of whole passes on both sides, so the overhead compares like with like
        layers["trace.untraced_solve_s"] = statistics.median(t["solve_s"] for t in totals)
        report["layers"] = layers
        report["trace_overhead_s"] = layers["trace.solve_s"] - layers["trace.untraced_solve_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if traced:
        traced[-1][1].write_jsonl(out / f"{stem}.spans.jsonl")

    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": len(every),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
