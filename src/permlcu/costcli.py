"""Gate/qubit resource formulas and the permlcu command-line interface.

Costs are reported in unit gates: every asymptotic constant is set to 1, so
the numbers expose the structure of the scaling formulas rather than
calibrated counts.  The CLI bundles the schedule, simulate, cost, verify,
and dd subcommands; configuration precedence is flags > PERMLCU_* variables
> defaults, and exit codes are 0 (pass), 1 (tolerance failure), 2 (input
error).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import dd, lcu, oracle, pham, sched

ENV_PREFIX = "PERMLCU_"


@dataclass(frozen=True)
class CostParams:
    """Symbol values feeding the resource formulas (unit oracle costs default 1)."""
    M: int
    K: int
    r: int
    Q: int
    k_od: int
    L: int
    d: int
    n: int = 0
    c_d: int = 1
    c_dh0: int = 1
    c_lambda: int = 1

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"cost parameter {name} must be a nonnegative integer")


@dataclass(frozen=True)
class CostReport:
    gate_vc: int
    gate_ui: int
    gate_h0: int
    gate_total: int
    qubits: int
    prep_exact_per_segment: int
    prep_uniform_per_segment: int
    breakdown: dict


def _log2_ceil(value: int) -> int:
    return 0 if value <= 1 else math.ceil(math.log2(value))


def qubit_cost(p: CostParams) -> int:
    """Qubit estimate Q*ceil(log2(max(2, M*K))) + n + 2: the order registers,
    the system, the cosine qubit and the flag of the padding term."""
    return p.Q * _log2_ceil(max(2, p.M * p.K)) + p.n + 2


def gate_cost(p: CostParams) -> CostReport:
    """Unit-gate instantiation of the per-segment and total cost formulas."""
    vc = (p.Q**2 + p.Q * p.M * (p.k_od + _log2_ceil(p.M))
          + p.Q * p.M * p.K * (p.c_d + p.c_dh0 + p.c_lambda))
    ui = p.r * vc
    h0 = p.L * p.d
    prep_exact = p.Q * p.M * p.K
    prep_uniform = p.Q * _log2_ceil(max(2, p.M * p.K))
    return CostReport(
        gate_vc=vc, gate_ui=ui, gate_h0=h0, gate_total=ui + h0,
        qubits=qubit_cost(p),
        prep_exact_per_segment=prep_exact,
        prep_uniform_per_segment=prep_uniform,
        breakdown={
            "h0_evolution": {"gates": h0, "qubits": 1},
            "controlled_unitary": {"gates": vc, "qubits": qubit_cost(p)},
            "segmented_evolution": {"gates": ui, "qubits": qubit_cost(p),
                                    "state_prep_per_segment": prep_exact,
                                    "state_prep_uniform_per_segment": prep_uniform},
        })


def h0_circuit_count(L: int, d: int, weights) -> int:
    """CNOT + rotation count for e^{-i H0 T}: each weight-m Z string costs 2m + 1."""
    weights = list(weights)
    if len(weights) != L:
        raise ValueError(f"expected {L} weights, got {len(weights)}")
    if any((not isinstance(m, int)) or m < 0 or m > d for m in weights):
        raise ValueError(f"weights must be integers in [0, {d}]")
    return sum(2 * m + 1 for m in weights)


def params_from_model(h: pham.PermExpHamiltonian, schedule: sched.Schedule,
                      c_d: int = 1, c_dh0: int = 1, c_lambda: int = 1) -> CostParams:
    """Extract the symbol values of a concrete model and its schedule."""
    k_od = max((t.locality for t in h.vterms), default=0)
    d = max((bin(zmask).count("1") for _, zmask in h.h0_zterms), default=0)
    return CostParams(M=h.num_masks, K=h.num_exp_terms, r=schedule.r, Q=schedule.Q,
                      k_od=k_od, L=len(h.h0_zterms), d=d, n=h.n,
                      c_d=c_d, c_dh0=c_dh0, c_lambda=c_lambda)


# --- CLI ---------------------------------------------------------------------

class InputError(ValueError):
    """Bad user input: maps to exit code 2."""


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name)


def _resolve(flag_value, env_name: str, cast, default):
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is not None:
        try:
            return cast(raw)
        except ValueError as exc:
            raise InputError(f"bad {ENV_PREFIX}{env_name}={raw!r}: {exc}") from exc
    return default


def _load_spec(path: str) -> pham.PermExpHamiltonian:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"spec {path} is not valid JSON: {exc}") from exc
    try:
        return pham.from_pauli_spec(doc)
    except pham.HamiltonianSpecError as exc:
        raise InputError(str(exc)) from exc


def _run_settings(args):
    """The model plus the --time, --epsilon and --mode settings of a run."""
    h = _load_spec(args.spec)
    t_total = _resolve(args.time, "TIME", float, None)
    if t_total is None:
        raise InputError("--time is required (or set PERMLCU_TIME)")
    eps = _resolve(args.epsilon, "EPSILON", float, 1e-3)
    return h, t_total, eps, _resolve(args.mode, "MODE", str, sched.MODE_EXACT)


def _initial_state(h: pham.PermExpHamiltonian, spec: str, seed) -> np.ndarray:
    dim = h.dim
    if spec == "plus":
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if spec == "random":
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return psi / np.linalg.norm(psi)
    if len(spec) == h.n and set(spec) <= {"0", "1"}:
        z = sum(1 << j for j, c in enumerate(spec) if c == "1")
        psi = np.zeros(dim, dtype=complex)
        psi[z] = 1.0
        return psi
    raise InputError(f"initial state must be 'plus', 'random', or an {h.n}-bit string")


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_schedule(args) -> int:
    h, t_total, eps, mode = _run_settings(args)
    s = sched.build_schedule(h, t_total, eps=eps, mode=mode)
    print("w,t_w,dt_w,gamma_tw")
    for w, ((t_w, dt_w), g) in enumerate(zip(s.steps, s.gammas)):
        print(f"{w},{t_w!r},{dt_w!r},{g!r}")
    summary = {"r": s.r, "Q": s.Q, "l1_like": s.l1_like, "lambda": s.lam,
               "final_step_clamped": s.final_step_clamped,
               "gamma_tilde_final": s.gamma_tilde_final, "mode": s.mode}
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    h, t_total, eps, mode = _run_settings(args)
    seed = _resolve(args.seed, "SEED", int, None)
    initial = _resolve(args.initial, "INITIAL", str, "plus")
    psi0 = _initial_state(h, initial, seed)
    final, diag = lcu.run_full(h, t_total, eps, psi0, mode=mode)
    out_state = final.system_block(0)
    payload = {
        "n": h.n, "time": t_total, "epsilon": eps, "mode": mode,
        "r": diag["r"], "Q": diag["Q"],
        "residuals": diag["residuals"], "deficits": diag["deficits"],
        "total_deficit": diag["total_deficit"],
        "final": [[float(a.real), float(a.imag)] for a in out_state],
    }
    status = 0
    if args.verify:
        ref = oracle.propagate_ode(h, 0.0, t_total, tol=min(1e-10, eps / 100)).U @ psi0
        distance = float(np.linalg.norm(out_state - ref))
        payload["distance_to_oracle"] = distance
        payload["fidelity"] = float(abs(np.vdot(ref, out_state)))
        if distance > eps:
            status = 1
    _emit(payload, _resolve(args.output, "OUTPUT", str, None))
    return status


def _cmd_cost(args) -> int:
    h, t_total, eps, mode = _run_settings(args)
    s = sched.build_schedule(h, t_total, eps=eps, mode=mode)
    params = params_from_model(h, s, c_d=args.cd, c_dh0=args.cdh0, c_lambda=args.clambda)
    report = gate_cost(params)
    payload = {"params": asdict(params), "report": asdict(report)}
    _emit(payload, _resolve(args.output, "OUTPUT", str, None))
    return 0


def _cmd_dd(args) -> int:
    raw = sys.stdin.read() if args.inputs == "-" else args.inputs
    try:
        pairs = json.loads(raw)
        xs = [complex(float(re), float(im)) for re, im in pairs]
    except (ValueError, TypeError, json.JSONDecodeError) as exc:
        raise InputError(f"dd expects a JSON list of [re, im] pairs: {exc}") from exc
    if not xs:
        raise InputError("dd needs at least one input")
    val = dd.exp_dd(xs)
    print(json.dumps([val.real, val.imag]))
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance
    names = args.criteria.split(",") if args.criteria else None
    results = acceptance.run_criteria(names)
    for res in results:
        print(acceptance.report_line(res))
    payload = {"criteria": results, "passed": all(r["passed"] for r in results)}
    _emit(payload, _resolve(args.output, "OUTPUT", str, None))
    return 0 if payload["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlcu",
        description="Desk-scale time-dependent Hamiltonian simulation by "
                    "permutation expansion and LCU")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the JSON report to this path")
    run = argparse.ArgumentParser(add_help=False, parents=[common])
    run.add_argument("spec", help="HamiltonianSpec JSON file")
    run.add_argument("--time", type=float)
    run.add_argument("--epsilon", type=float)
    run.add_argument("--mode", choices=[sched.MODE_EXACT, sched.MODE_UNIFORM])

    p = sub.add_parser("schedule", parents=[run],
                       help="emit the adaptive partition as CSV plus a JSON summary")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", parents=[run],
                       help="run the LCU + OAA pipeline on an initial state")
    p.add_argument("--initial", help="'plus', 'random', or a bitstring")
    p.add_argument("--seed", type=int)
    p.add_argument("--verify", action="store_true",
                   help="also integrate the ODE oracle and report the distance")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cost", parents=[run],
                       help="instantiate the gate/qubit resource formulas")
    p.add_argument("--cd", type=int, default=1, help="unit cost of a D-element oracle")
    p.add_argument("--cdh0", type=int, default=1, help="unit cost of an H0 gap oracle")
    p.add_argument("--clambda", type=int, default=1, help="unit cost of a rate oracle")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("dd", help="divided difference of exp at complex inputs")
    p.add_argument("inputs", help="JSON list of [re, im] pairs, or '-' for stdin")
    p.set_defaults(func=_cmd_dd)

    p = sub.add_parser("verify", parents=[common],
                       help="run the acceptance suite and emit a pass/fail report")
    p.add_argument("--criteria", help="comma-separated criterion numbers (default all)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # InputError and pham.HamiltonianSpecError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except lcu.SimulationAbort as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
