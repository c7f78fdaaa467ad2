"""Acceptance suite: quantitative desk-scale checks of the whole engine.

Each criterion function returns a result dict and is independently runnable;
run_criteria drives them all (used by the `permlcu verify` subcommand and by
tests/test_acceptance.py, which asserts every criterion at its stated
tolerance).
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import expm

from . import costcli, dd, dyson, lcu, oracle, pham, sched
from .models import (decay_spec, growth_spec, oscillating_hamiltonian,
                     random_model_spec, static_spec)

LN2 = math.log(2.0)
EPS_DEFAULT = 1e-3


def _result(num, name, passed, details, t0):
    return {"criterion": num, "name": name, "passed": bool(passed),
            "details": details, "seconds": round(time.time() - t0, 2)}


def _spectral(a):
    return np.linalg.norm(a, 2)


def _random_inputs(rng, q, scale=10.0):
    kind = rng.integers(0, 4)
    if kind == 0:
        xs = (rng.uniform(-1, 1, q + 1) + 1j * rng.uniform(-1, 1, q + 1)) * scale / 1.5
    elif kind == 1:
        xs = 1j * rng.uniform(-scale, scale, q + 1)
    elif kind == 2:
        xs = rng.uniform(-scale, scale, q + 1) + 0.0j
    else:
        xs = (rng.uniform(-1, 1, q + 1) + 1j * rng.uniform(-1, 1, q + 1)) * scale / 2
        xs[rng.integers(0, q + 1)] = xs[0]
    return xs


def criterion_1(budget_s: float = 30.0):
    """Divided-difference suite over 10^4 random input lists."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    total, failures = 0, []
    for q in range(1, 9):
        rows = np.array([_random_inputs(rng, q) for _ in range(1250)])
        total += len(rows)
        vals = dd.exp_dd_batch(rows)
        mags = np.maximum(np.abs(vals), 1e-300)
        # permutation symmetry
        shuffled = np.take_along_axis(rows, rng.permuted(
            np.tile(np.arange(q + 1), (len(rows), 1)), axis=1), axis=1)
        perm_err = np.abs(dd.exp_dd_batch(shuffled) - vals) / mags
        if perm_err.max() > 1e-10:
            failures.append(f"q={q}: permutation symmetry {perm_err.max():.2e}")
        # factor-out property
        shifted = rows - rows[:, :1]
        shifted[:, 0] = 0.0
        prop_err = np.abs(np.exp(rows[:, 0]) * dd.exp_dd_batch(shifted) - vals) / mags
        if prop_err.max() > 1e-10:
            failures.append(f"q={q}: factor-out property {prop_err.max():.2e}")
        # real-part bound, all cases
        bounds = dd.exp_dd_bound_batch(rows)
        viol = int((np.abs(vals) > bounds * (1 + 1e-12)).sum())
        if viol:
            failures.append(f"q={q}: bound violated in {viol} cases")
        # independent bidiagonal oracle
        worst = 0.0
        for i in range(len(rows)):
            ref = dd.exp_dd_oracle_bidiagonal(rows[i])
            worst = max(worst, abs(vals[i] - ref) / max(abs(ref), 1e-300))
        if worst > 1e-10:
            failures.append(f"q={q}: bidiagonal oracle deviation {worst:.2e}")
    # simplex-quadrature cross-check of the integral identity
    for trial in range(30):
        q = int(rng.integers(1, 4))
        lam = rng.uniform(-1, 1, q) + 1j * rng.uniform(-1, 1, q)
        xs = [lam[j:].sum() for j in range(q)] + [0.0]
        grid = 400 if q <= 2 else 120
        quad = dd.hermite_genocchi_quadrature(lam, grid)
        ref = dd.exp_dd(xs)
        if abs(quad - ref) / max(abs(ref), 1e-300) > 1e-6:
            failures.append(f"quadrature trial {trial}: mismatch")
    elapsed = time.time() - t0
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.1f}s over budget {budget_s}s")
    return _result(1, "divided-difference suite", not failures,
                   failures or f"{total} lists checked", t0)


def criterion_2(budget_s: float = 5.0):
    """Schedule regimes: constant steps, decay saturation, growth asymptote."""
    t0 = time.time()
    failures = []
    h = oscillating_hamiltonian(1.0, 1.0, 4.0)
    s = sched.build_schedule(h, 5.0)
    gamma0 = pham.gamma_bound(h, 0.0)
    if any(dt != LN2 / gamma0 for _, dt in s.steps[:-1]):
        failures.append("lambda=0: non-final steps differ from ln2/Gamma")
    rs = []
    for t_total in (10.0, 100.0, 1000.0):
        hd = pham.from_pauli_spec(decay_spec(1.0, 1.0, 1.0))
        rs.append(sched.build_schedule(hd, t_total).r)
    if not rs[0] == rs[1] == rs[2]:
        failures.append(f"decay saturation violated: r = {rs}")
    hg = pham.from_pauli_spec(growth_spec(1.0, 1.0, 1.0))
    sg = sched.build_schedule(hg, 4.0)
    prods = [g * dt for (_, dt), g in zip(sg.steps[:-1], sg.gammas[:-1])]
    if not all(p < LN2 for p in prods):
        failures.append("lambda>0: product reached ln2 from above")
    if not all(b > a for a, b in zip(prods, prods[1:])):
        failures.append("lambda>0: product not monotone increasing")
    elapsed = time.time() - t0
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.1f}s over budget {budget_s}s")
    return _result(2, "schedule regime checks", not failures,
                   failures or f"decay saturates at r={rs[0]}", t0)


def criterion_3(budget_s: float = 120.0):
    """Frequency independence: identical schedule/cost and full fidelity per alpha.

    Ground truth is the adaptive ODE for alpha <= 1e3 and the exact
    rotating-frame propagator for alpha = 1e6 (an ODE cannot resolve ~1e5
    oscillation periods within the runtime budget); the closed form is
    cross-validated against the ODE at the lower frequencies.
    """
    t0 = time.time()
    failures = []
    eps, t_total, h_field, gamma = EPS_DEFAULT, 1.0, 1.0, 1.0
    rng = np.random.default_rng(103)
    psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi0 /= np.linalg.norm(psi0)
    base_key = None
    for alpha in (0.0, 1.0, 1e3, 1e6):
        h = oscillating_hamiltonian(h_field, gamma, alpha)
        s = sched.build_schedule(h, t_total, eps=eps)
        seg = dyson.build_segment(h, s, 0)
        params = costcli.params_from_model(h, s)
        report = costcli.gate_cost(params)
        key = (s.steps, s.gammas, s.r, s.Q, s.lam, len(seg.blocks),
               report.gate_total, report.qubits)
        if base_key is None:
            base_key = key
        elif key != base_key:
            failures.append(f"alpha={alpha}: schedule/cost key differs")
        if alpha <= 1e3:
            ref = oracle.propagate_ode(h, 0.0, t_total, tol=1e-10).U
            closed = oracle.two_level_oscillating_propagator(h_field, gamma, alpha, t_total)
            if _spectral(ref - closed) > 1e-8:
                failures.append(f"alpha={alpha}: closed form vs ODE {_spectral(ref - closed):.2e}")
        else:
            ref = oracle.two_level_oscillating_propagator(h_field, gamma, alpha, t_total)
        final, _ = lcu.run_full(h, t_total, eps, psi0)
        out = final.system_block(0)
        fid = abs(np.vdot(ref @ psi0, out))
        if fid < 1 - eps:
            failures.append(f"alpha={alpha}: fidelity {fid:.6f} < 1 - eps")
    elapsed = time.time() - t0
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.1f}s over budget {budget_s}s")
    return _result(3, "frequency independence", not failures,
                   failures or "schedule, costs, and fidelity stable over 6 decades", t0)


def _pick_time(h, eps, r_lo=3, r_hi=12, modes=(sched.MODE_EXACT,)):
    """Deterministic duration scan: the shortest duration on a 1.5% grid
    landing r in range in every mode.

    Near-decaying models saturate at small r, so the target window is relaxed
    toward [3, r_hi] when the requested lower edge is unreachable.
    """
    for lo in sorted({r_lo, max(3, r_lo - 3), 3}, reverse=True):
        t = 0.85 * lo * LN2 / pham.gamma_bound(h, 0.0)
        for _ in range(600):
            scheds = [sched.build_schedule(h, t, eps=eps, mode=m) for m in modes]
            r = scheds[0].r
            if r > r_hi or any(s.r > 4 * r_hi for s in scheds[1:]):
                break
            if r >= lo:
                return t
            t *= 1.015
    raise RuntimeError("no suitable duration found")


def _criterion4_cases(eps=EPS_DEFAULT, modes=(sched.MODE_EXACT,)):
    cases = []
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        h = pham.from_pauli_spec(random_model_spec(rng, n=2, m_max=2, k_max=2))
        cases.append((h, _pick_time(h, eps, r_lo=3 + 2 * seed, r_hi=12, modes=modes)))
    return cases


def criterion_4(budget_s: float = 600.0):
    """End-to-end fidelity on five random 2-qubit models."""
    t0 = time.time()
    failures, details = [], []
    eps = EPS_DEFAULT
    rng = np.random.default_rng(104)
    for idx, (h, t_total) in enumerate(_criterion4_cases(eps)):
        s = sched.build_schedule(h, t_total, eps=eps)
        if not 3 <= s.r <= 12:
            failures.append(f"model {idx}: r={s.r} outside [3, 12]")
            continue
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 /= np.linalg.norm(psi0)
        final, diag = lcu.run_full(h, t_total, eps, psi0)
        ref = oracle.propagate_ode(h, 0.0, t_total, tol=1e-10).U @ psi0
        err = float(np.linalg.norm(final.system_block(0) - ref))
        deficit = diag["total_deficit"]
        details.append(f"model {idx}: r={s.r} err={err:.2e} deficit={deficit:.1e}")
        if not (err <= eps and abs(deficit) <= eps):
            failures.append(f"model {idx}: error {err:.2e} or deficit {deficit:.2e} above eps")
    elapsed = time.time() - t0
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.1f}s over budget {budget_s}s")
    return _result(4, "end-to-end fidelity", not failures, failures or details, t0)


def criterion_5(budget_s: float = 60.0):
    """OAA exactness on a synthetic unitary two-term fixture with s = 2."""
    t0 = time.time()
    rng = np.random.default_rng(105)
    dim = 4
    herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = herm + herm.conj().T
    evals, evecs = np.linalg.eigh(herm)
    invol = evecs @ np.diag(np.sign(evals)) @ evecs.conj().T
    base, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                           + 1j * rng.normal(size=(dim, dim)))
    v0 = base @ expm(1j * math.pi / 3 * invol)
    v1 = base @ expm(-1j * math.pi / 3 * invol)
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)

    def apply_w(joint):
        mixed = hadamard @ joint
        mixed = np.stack([v0 @ mixed[0], v1 @ mixed[1]])
        return hadamard @ mixed

    def apply_w_dagger(joint):
        mixed = hadamard @ joint
        mixed = np.stack([v0.conj().T @ mixed[0], v1.conj().T @ mixed[1]])
        return hadamard @ mixed

    worst = 0.0
    for _ in range(100):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        joint = np.zeros((2, dim), dtype=complex)
        joint[0] = psi
        out = lcu.oaa_sequence(apply_w, apply_w_dagger, joint)
        worst = max(worst, float(np.linalg.norm(out[0] - base @ psi)))
    passed = worst <= 1e-12 and time.time() - t0 < budget_s
    return _result(5, "OAA exactness fixture", passed, f"worst deviation {worst:.2e}", t0)


def criterion_6(budget_s: float = 120.0):
    """Alternative-scheme product identity and time-independent reduction."""
    t0 = time.time()
    failures = []
    eps = 1e-4
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        h = pham.from_pauli_spec(random_model_spec(rng, n=2))
        t_total = 1.5
        s = sched.build_schedule(h, t_total, eps=eps)
        alt_prod = np.eye(h.dim, dtype=complex)
        ui_prod = np.eye(h.dim, dtype=complex)
        plan = dyson.SegmentPlan(h, s)
        for w in range(s.r):
            alt_prod = dyson.alt_segment_unitary(h, s, w) @ alt_prod
            ui_prod = dyson.build_segment(h, s, w, plan=plan).matrix() @ ui_prod
        gap = _spectral(alt_prod - np.diag(np.exp(-1j * h.h0_diag * t_total)) @ ui_prod)
        if gap > 1e-8:
            failures.append(f"model {seed}: product identity gap {gap:.2e}")
    h = pham.from_pauli_spec(static_spec(0.8, 1.1))
    eps_static = EPS_DEFAULT
    t_total = 3.0
    s = sched.build_schedule(h, t_total, eps=eps_static)
    prod = np.eye(2, dtype=complex)
    for w in range(s.r):
        prod = dyson.alt_segment_unitary(h, s, w) @ prod
    ref = expm(-1j * pham.eval_H(h, 0.0) * t_total)
    gap = _spectral(prod - ref)
    if gap > 2 * eps_static:
        failures.append(f"time-independent reduction gap {gap:.2e}")
    elapsed = time.time() - t0
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.1f}s over budget {budget_s}s")
    return _result(6, "alternative-scheme identity", not failures,
                   failures or "products agree", t0)


def criterion_7(budget_s: float = 120.0):
    """Per-segment truncation: near-unitarity and interaction-oracle distance."""
    t0 = time.time()
    failures = []
    eps = EPS_DEFAULT
    for seed in range(2):
        rng = np.random.default_rng(400 + seed)
        h = pham.from_pauli_spec(random_model_spec(rng, n=2))
        s = sched.build_schedule(h, 2.0, eps=eps)
        last = s.r - 1 if s.final_step_clamped else s.r
        plan = dyson.SegmentPlan(h, s)
        for w in range(last):
            u = dyson.build_segment(h, s, w, plan=plan).matrix()
            defect = _spectral(u.conj().T @ u - np.eye(h.dim))
            if defect > 3 * eps / s.r:
                failures.append(f"model {seed} segment {w}: defect {defect:.2e}")
            t_w, dt_w = s.steps[w]
            ref = oracle.propagate_interaction(h, t_w, t_w + dt_w, tol=1e-11).U
            gap = _spectral(u - ref)
            if gap > 2 * eps / s.r:
                failures.append(f"model {seed} segment {w}: oracle gap {gap:.2e}")
    elapsed = time.time() - t0
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.1f}s over budget {budget_s}s")
    return _result(7, "segment-level truncation", not failures,
                   failures or "all segments within budget", t0)


def criterion_8(budget_s: float = 120.0):
    """Exponential-sum approximation: propagator gap bounded by sup error * T."""
    t0 = time.time()
    failures, deltas = [], []
    t_total = 1.0
    h0 = 0.6
    x_mat = np.array([[0, 1], [1, 0]], dtype=complex)
    z_mat = np.diag([h0, -h0]).astype(complex)
    samples = np.linspace(0.0, t_total, 4097)
    ref = oracle.propagate_ode(lambda t: t * x_mat + z_mat, 0.0, t_total, tol=1e-11).U
    for k in (11, 41, 161):
        terms, delta = pham.exp_sum_fit(samples, t_total, k)
        deltas.append(delta)

        def h_fit(t, terms=terms):
            return pham.eval_exp_sum(terms, t)[0].real * x_mat + z_mat

        u_fit = oracle.propagate_ode(h_fit, 0.0, t_total, tol=1e-11).U
        gap = _spectral(ref - u_fit)
        if gap > delta * t_total + 1e-8:
            failures.append(f"K={k}: gap {gap:.2e} > delta*T={delta * t_total:.2e}")
    if not deltas[0] > deltas[1] > deltas[2]:
        failures.append(f"sup error not decreasing: {deltas}")
    elapsed = time.time() - t0
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.1f}s over budget {budget_s}s")
    return _result(8, "exponential-sum propagator bound", not failures,
                   failures or f"sup errors {['%.2e' % d for d in deltas]}", t0)


def criterion_9(budget_s: float = 600.0):
    """Uniform-bound mode: same models as criterion 4 under the larger norm."""
    t0 = time.time()
    failures, details = [], []
    eps = EPS_DEFAULT
    rng = np.random.default_rng(109)
    cases = _criterion4_cases(eps, modes=(sched.MODE_EXACT, sched.MODE_UNIFORM))
    for idx, (h, t_total) in enumerate(cases):
        s_ex = sched.build_schedule(h, t_total, eps=eps, mode=sched.MODE_EXACT)
        s_un = sched.build_schedule(h, t_total, eps=eps, mode=sched.MODE_UNIFORM)
        if s_un.r < s_ex.r:
            failures.append(f"model {idx}: uniform r={s_un.r} < exact r={s_ex.r}")
        n_ik = len(h.vterms) * h.num_exp_terms
        gmax = pham.gamma_max(h)
        for w in range(s_un.r):
            u = n_ik * gmax * np.exp(s_un.steps[w][0] * s_un.lam) * s_un.dt_tilde(w)
            expect = sum(u**q / math.factorial(q) for q in range(s_un.Q + 1))
            if abs(s_un.s(w) - expect) > 1e-12 * max(1.0, expect):
                failures.append(f"model {idx} segment {w}: s mismatch")
                break
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 /= np.linalg.norm(psi0)
        final, diag = lcu.run_full(h, t_total, eps, psi0, mode=sched.MODE_UNIFORM)
        ref = oracle.propagate_ode(h, 0.0, t_total, tol=1e-10).U @ psi0
        err = float(np.linalg.norm(final.system_block(0) - ref))
        deficit = diag["total_deficit"]
        details.append(f"model {idx}: r {s_ex.r}->{s_un.r} err={err:.2e} deficit={deficit:.1e}")
        if not (err <= eps and abs(deficit) <= eps):
            failures.append(f"model {idx}: uniform-mode error {err:.2e} or deficit "
                            f"{deficit:.2e} above eps")
    elapsed = time.time() - t0
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.1f}s over budget {budget_s}s")
    return _result(9, "uniform-bound mode", not failures, failures or details, t0)


def criterion_10(budget_s: float = 30.0):
    """Truncation-order search versus the closed-form sufficient bound."""
    t0 = time.time()
    failures = []
    grid = [(r, eps) for r in (1, 2, 5, 10, 10**2, 10**3, 10**4)
            for eps in (0.3, 1e-2, 1e-5)][:20]
    assert len(grid) == 20
    for r, eps in grid:
        q = sched.truncation_order(r, eps)
        upper = sched.truncation_order_lambert(r, eps)
        if upper is not None and q > upper:
            failures.append(f"r={r}, eps={eps}: search {q} > closed form {upper}")
        if sched.s_tail(q) > eps / r:
            failures.append(f"r={r}, eps={eps}: tail above budget")
    return _result(10, "truncation-order selection", not failures,
                   failures or "search within closed-form bound on 20-point grid", t0)


CRITERIA = {
    "1": criterion_1, "2": criterion_2, "3": criterion_3, "4": criterion_4,
    "5": criterion_5, "6": criterion_6, "7": criterion_7, "8": criterion_8,
    "9": criterion_9, "10": criterion_10,
}


def run_criteria(names=None):
    """Run the requested criteria (all by default) and collect results."""
    selected = list(CRITERIA) if names is None else [str(n).strip() for n in names]
    results = []
    for name in selected:
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}; valid: {sorted(CRITERIA)}")
        results.append(CRITERIA[name]())
    return results
