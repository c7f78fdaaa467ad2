"""The benchmark's workloads: frozen default cases and a fresh-case generator.

A case is one `lcu.run_full` call plus its oracle check.  The default cases
of each workload live in ``frozen/<workload>.json`` with the values a correct
engine must reproduce (r, Q and the number of Dyson term components), so
the inputs stay fixed while the engine's own generators and duration
pickers change.  ``fresh_cases`` draws new cases of the same shape from the
benchmark's own generator, so that a gain can be checked on unseen models;
fresh cases carry no expected counts.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FROZEN_DIR = Path(__file__).resolve().parent / "frozen"
WORKLOADS = ("c4-n2", "rand-n345", "osc-long")
EPS = 1e-3
ODE_TOL = 1e-10
LN2 = math.log(2.0)
ALPHA_IDS = {0.0: "a0", 1e3: "a1e3", 1e6: "a1e6"}


@dataclass(frozen=True)
class Case:
    """One benchmark operation: model, duration, tolerance and oracle choice.

    Exactly one of ``spec`` (a HamiltonianSpec document) and ``oscillating``
    (h, gamma, alpha of the two-level model) is set.  The oscillating model
    is built directly because the Pauli-spec parser merges its two rates at
    alpha = 0, which would change the model between frequencies.
    """
    id: str
    t_total: float
    eps: float
    mode: str
    initial: str
    oracle: str                      # "ode" or "closed_form"
    spec: dict | None = None
    oscillating: dict | None = None
    expect: dict | None = None       # {"r", "Q", "term_components"}


def _check_workload(workload: str) -> None:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


def load_frozen(workload: str) -> list[Case]:
    _check_workload(workload)
    doc = json.loads((FROZEN_DIR / f"{workload}.json").read_text())
    return [Case(**entry) for entry in doc["cases"]]


def build_model(case: Case):
    """The engine's model for a case (spec parse or direct two-level build)."""
    from permlcu import models, pham
    if case.spec is not None:
        return pham.from_pauli_spec(case.spec)
    osc = case.oscillating
    return models.oscillating_hamiltonian(osc["h"], osc["gamma"], osc["alpha"])


def initial_state(case: Case, dim: int, seed: int | None, index: int) -> np.ndarray:
    """The case's frozen initial state, or a random unit vector drawn from
    (seed, index) when a run seed is given.  The cost of a run does not
    depend on the state, so the seed varies inputs without varying work."""
    if seed is None:
        if case.initial != "plus":
            raise ValueError(f"unsupported initial state {case.initial!r}")
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    rng = np.random.default_rng([seed, index])
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------- fresh cases

def _random_spec(rng: np.random.Generator, n: int, n_masks: int) -> dict:
    """Hermitian random n-qubit spec: n_masks distinct X-type masks, each with
    a conjugate pair of exponential terms (K = 2), plus Z and ZZ couplings."""
    masks = rng.choice(np.arange(1, 1 << n), size=min(n_masks, (1 << n) - 1),
                       replace=False)
    v = []
    for mask in masks:
        pauli = "".join(("XY" if (int(mask) >> j) & 1 else "IZ")[rng.integers(2)]
                        for j in range(n))
        amp = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.4, 0.4))
        rate = complex(rng.uniform(-0.4, 0.1), rng.uniform(0.3, 2.0))
        v.append({"pauli": pauli, "coeff": [
            {"amp": [amp.real, amp.imag], "rate": [rate.real, rate.imag]},
            {"amp": [amp.real, -amp.imag], "rate": [rate.real, -rate.imag]}]})
    h0 = [{"coupling": float(rng.uniform(-1.5, 1.5)),
           "z_mask": "".join("1" if i == j else "0" for i in range(n))} for j in range(n)]
    h0.append({"coupling": float(rng.uniform(-0.8, 0.8)), "z_mask": "11" + "0" * (n - 2)})
    return {"n": n, "h0": h0, "v": v}


def _final_amplification(schedule) -> float:
    """|3/s - 4/s^3| of the final segment; near 0 the projected OAA amplitude
    vanishes and run_full aborts, so fresh durations avoid that zone."""
    dt = schedule.steps[-1][1]
    dt_tilde = dt if schedule.lam == 0.0 else math.expm1(schedule.lam * dt) / schedule.lam
    u = schedule.gammas[-1] * dt_tilde
    s = sum(u**q / math.factorial(q) for q in range(schedule.Q + 1))
    return abs(3.0 / s - 4.0 / s**3)


def _pick_duration(h, r_target: int) -> float:
    """Shortest duration on a 1.5% grid with r >= r_target and a final
    segment clear of the amplification zero."""
    from permlcu import pham, sched
    t = 0.85 * r_target * LN2 / pham.gamma_bound(h, 0.0)
    for _ in range(2000):
        s = sched.build_schedule(h, t, eps=EPS)
        if s.r >= r_target and _final_amplification(s) > 0.3:
            return t
        t *= 1.015
    raise RuntimeError(f"no duration reaches r >= {r_target}")


def fresh_cases(workload: str, seed: int) -> list[Case]:
    """Cases of the workload's shape drawn from ``seed``; no expected counts."""
    from permlcu import pham
    _check_workload(workload)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    common = {"eps": EPS, "mode": "exact", "initial": "plus"}
    cases = []
    if workload == "c4-n2":
        for idx in range(5):
            spec = _random_spec(rng, n=2, n_masks=2)
            t = _pick_duration(pham.from_pauli_spec(spec), r_target=3 + 2 * idx)
            cases.append(Case(id=f"fresh{seed}-m{idx}", t_total=t, oracle="ode",
                              spec=spec, **common))
    elif workload == "rand-n345":
        for n in (3, 4, 5):
            cases.append(Case(id=f"fresh{seed}-n{n}", t_total=1.0, oracle="ode",
                              spec=_random_spec(rng, n=n, n_masks=3), **common))
    else:
        h_field, gamma = (float(x) for x in rng.uniform(0.5, 1.5, size=2))
        for alpha in (0.0, 1e3, 1e6):
            cases.append(Case(id=f"fresh{seed}-{ALPHA_IDS[alpha]}", t_total=10.0,
                              oracle="ode" if alpha <= 1e3 else "closed_form",
                              oscillating={"h": h_field, "gamma": gamma, "alpha": alpha},
                              **common))
    return cases
