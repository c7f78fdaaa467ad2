"""Tests for the statevector LCU routine and oblivious amplitude amplification."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from permlcu import dd, dyson, lcu, oracle, pham, sched
from permlcu.models import (decay_spec, oscillating_hamiltonian, random_model_spec,
                            static_spec)

LN2 = math.log(2.0)


def haar_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def build_pipeline(h, t_total, eps, mode=sched.MODE_EXACT, w=0):
    s = sched.build_schedule(h, t_total, eps=eps, mode=mode)
    seg = dyson.build_segment(h, s, w)
    return s, seg, lcu.build_context(seg)


# --- register layout ------------------------------------------------------------

def test_layout_counts():
    layout = lcu.RegisterLayout(Q=3, dim_i=2, dim_k=2, n=2)
    assert layout.n_terms == 1 + 4 + 16 + 64 + 1  # Dyson terms plus the padding term
    assert layout.ancilla_dim == 2 * layout.n_terms
    assert layout.joint_dim == layout.ancilla_dim * 4


def test_layout_empty_interaction():
    h = pham.from_pauli_spec({"n": 1, "h0": [{"coupling": 1.0, "z_mask": "1"}]})
    layout = lcu.layout_for(h, 4)
    assert layout.n_terms == 2 and layout.ancilla_dim == 4


# --- state preparation ------------------------------------------------------------

def test_prepare_b_order_zero():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    s = sched.build_schedule(h, 1.0)
    seg = dyson.build_segment(h, replace(s, Q=0), 0)
    ctx = lcu.build_context(seg)
    assert seg.s == 1.0
    # the q = 0 term and the padding term 2 - s = 1, a quarter per x branch
    np.testing.assert_allclose(ctx.b_amps, [0.5] * 4, rtol=1e-14)


def test_prepare_b_static_first_order():
    # M = K = 1, lambda = 0: weights {1, ln2, 2 - s}/4 with s = 1 + ln2
    h = pham.from_pauli_spec(static_spec(0.0, 1.0))
    s = sched.build_schedule(h, 10.0)
    seg = dyson.build_segment(h, replace(s, Q=1), 0)
    ctx = lcu.build_context(seg)
    assert seg.s == pytest.approx(1 + LN2, rel=1e-12)
    expect = np.sqrt(np.array([1.0, 1.0, LN2, LN2, 1 - LN2, 1 - LN2]) / 4)
    np.testing.assert_allclose(ctx.b_amps, expect, rtol=1e-12)


def test_prepare_b_uniform_mode_equal_amplitudes():
    rng = np.random.default_rng(60)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2, m_max=2, k_max=1))
    s = sched.build_schedule(h, 2.0, mode=sched.MODE_UNIFORM)
    seg = dyson.build_segment(h, replace(s, Q=1), 0)
    ctx = lcu.build_context(seg)
    order1 = ctx.b_amps[2:-2]
    assert np.ptp(order1) < 1e-14  # every (i, k, x) weight identical at fixed q


def test_prepare_b_householder_unitary():
    h = oscillating_hamiltonian(1.0, 1.0, 5.0)
    _, seg, ctx = build_pipeline(h, 1.0, 1e-3)
    prep = lcu.AncillaPreparation(ctx.b_amps)
    e0 = np.zeros((ctx.layout.ancilla_dim, 1))
    e0[0, 0] = 1.0
    np.testing.assert_allclose(prep.apply(e0)[:, 0], ctx.b_amps, atol=1e-13)
    rng = np.random.default_rng(61)
    v = rng.normal(size=(ctx.layout.ancilla_dim, 3))
    np.testing.assert_allclose(prep.apply(prep.apply(v)), v, atol=1e-12)


# --- controlled unitary -------------------------------------------------------------

def test_vc_zero_order_block_identity():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    _, seg, ctx = build_pipeline(h, 1.0, 1e-3)
    psi = lcu.Statevector.from_system(ctx.layout, np.array([0.6, 0.8j]))
    out = lcu.apply_Vc(ctx, psi.amps)
    np.testing.assert_allclose(out[0], psi.amps[0], atol=1e-14)
    np.testing.assert_allclose(out[1], psi.amps[1], atol=1e-14)


def test_vc_first_order_block_hand_trace():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    s, seg, ctx = build_pipeline(h, 1.0, 1e-3)
    tab = seg.blocks
    assert tab.q[1] == 1 and tab.cum_mask[1] == 1
    a = 2 * 1  # ancilla row of (term 1, x=0)
    joint = np.zeros((ctx.layout.ancilla_dim, 2), dtype=complex)
    joint[a, 0] = 1.0
    out = lcu.apply_Vc(ctx, joint)
    expect = -1j * np.exp(1j * (tab.phi[1, 0] + tab.theta[1, 0]))
    assert out[a, 1] == pytest.approx(expect)
    assert out[a, 0] == 0.0


def test_context_tables_match_term_loop():
    # the sliced tables equal the per-term construction; one term per
    # ancilla pair (2t, 2t + 1) with the cosine branches +-phi, and last the
    # padding term: bound 2 - s, identity, branches +-i
    rng = np.random.default_rng(75)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    for mode in (sched.MODE_EXACT, sched.MODE_UNIFORM):
        _, seg, ctx = build_pipeline(h, 2.0, 1e-3, mode=mode)
        tab = seg.blocks
        b = np.zeros(ctx.layout.ancilla_dim)
        phases = np.zeros((ctx.layout.ancilla_dim, h.dim), dtype=complex)
        gather = np.zeros((len(tab) + 1, 1, h.dim), dtype=np.int64)
        for t in range(len(tab)):
            b[2 * t] = b[2 * t + 1] = math.sqrt(tab.bound[t] / 4.0)
            factor = (-1j) ** int(tab.q[t])
            phases[2 * t] = factor * np.exp(1j * (tab.phi[t] + tab.theta[t]))
            phases[2 * t + 1] = factor * np.exp(1j * (-tab.phi[t] + tab.theta[t]))
            for z in range(h.dim):
                gather[t, 0, z] = tab.cum_mask[t] ^ z
        b[-2] = b[-1] = math.sqrt((2.0 - seg.s) / 4.0)
        phases[-2] = np.exp(1j * math.pi / 2)
        phases[-1] = np.exp(-1j * math.pi / 2)
        gather[-1, 0] = np.arange(h.dim)
        assert np.array_equal(ctx.b_amps, b / np.linalg.norm(b))
        assert np.array_equal(ctx.phase_table, phases)
        assert np.array_equal(ctx.gather, gather)


def test_context_rejects_normalization_above_two():
    # the padding term's bound 2 - s must not be negative
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    _, seg, _ = build_pipeline(h, 1.0, 1e-3)
    with pytest.raises(dyson.TermBoundError):
        lcu.build_context(replace(seg, s=2.0 + 1e-9))


def test_vc_preserves_norm():
    rng = np.random.default_rng(62)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    _, seg, ctx = build_pipeline(h, 2.0, 1e-3)
    for _ in range(5):
        joint = (rng.normal(size=(ctx.layout.ancilla_dim, 4))
                 + 1j * rng.normal(size=(ctx.layout.ancilla_dim, 4)))
        joint /= np.linalg.norm(joint)
        assert abs(np.linalg.norm(lcu.apply_Vc(ctx, joint)) - 1.0) < 1e-12


def test_w_projected_block_is_segment_over_s():
    rng = np.random.default_rng(63)
    for seed in range(3):
        h = pham.from_pauli_spec(random_model_spec(np.random.default_rng(64 + seed), n=2))
        _, seg, ctx = build_pipeline(h, 2.0, 1e-3)
        prep = lcu.AncillaPreparation(ctx.b_amps)
        useg = seg.matrix()
        for _ in range(3):
            psi = haar_state(rng, h.dim)
            joint = np.zeros((ctx.layout.ancilla_dim, h.dim), dtype=complex)
            joint[0] = psi
            out = lcu._apply_w(ctx, prep, joint)
            expect = useg @ psi / 2.0  # the padding term brings s to 2
            assert np.linalg.norm(out[0] - expect) < 1e-10
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


# --- oblivious amplitude amplification ------------------------------------------------

def test_oaa_exact_on_synthetic_unitary_fixture():
    # two-term LCU of a unitary with s = 2: P A |0>|psi> = |0> U |psi> exactly
    rng = np.random.default_rng(65)
    dim = 4
    herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = herm + herm.conj().T
    evals, evecs = np.linalg.eigh(herm)
    invol = evecs @ np.diag(np.sign(evals)) @ evecs.conj().T  # Hermitian involution
    base = expm(1j * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                      + np.eye(dim)) / 2)
    base, _ = np.linalg.qr(base)
    v0 = base @ expm(1j * math.pi / 3 * invol)
    v1 = base @ expm(-1j * math.pi / 3 * invol)
    target = v0 + v1  # = 2 cos(pi/3) * base = base, unitary with s = 2
    np.testing.assert_allclose(target, base, atol=1e-12)

    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)

    def apply_w(joint):
        mixed = hadamard @ joint
        mixed = np.stack([v0 @ mixed[0], v1 @ mixed[1]])
        return hadamard @ mixed

    def apply_w_dagger(joint):
        mixed = hadamard @ joint
        mixed = np.stack([v0.conj().T @ mixed[0], v1.conj().T @ mixed[1]])
        return hadamard @ mixed

    for _ in range(100):
        psi = haar_state(rng, dim)
        joint = np.zeros((2, dim), dtype=complex)
        joint[0] = psi
        out = lcu.oaa_sequence(apply_w, apply_w_dagger, joint)
        assert np.linalg.norm(out[0] - base @ psi) < 1e-12
        assert abs(np.linalg.norm(out[0]) - 1.0) < 1e-12


def test_apply_a_identity_on_empty_interaction():
    h = pham.from_pauli_spec({"n": 1, "h0": [{"coupling": 0.9, "z_mask": "1"}]})
    s = sched.build_schedule(h, 1.0, eps=1e-3)
    seg = dyson.build_segment(h, s, 0)
    ctx = lcu.build_context(seg)
    psi = lcu.Statevector.from_system(ctx.layout, np.array([0.6, 0.8]))
    out = lcu.apply_A(ctx, psi)
    np.testing.assert_allclose(out.amps, psi.amps, atol=1e-12)


def test_apply_a_residual_within_budget():
    h = oscillating_hamiltonian(1.0, 1.0, 4.0)
    eps = 1e-3
    s, seg, ctx = build_pipeline(h, 2.0, eps)
    rng = np.random.default_rng(66)
    useg = seg.matrix()
    for _ in range(5):
        psi = haar_state(rng, 2)
        state = lcu.Statevector.from_system(ctx.layout, psi)
        out = lcu.apply_A(ctx, state)
        ref = useg @ psi
        assert np.linalg.norm(out.amps[0] - ref) <= 3 * eps / s.r
        assert abs(out.norm - 1.0) < 1e-12


def test_apply_a_requires_zero_ancilla():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    _, seg, ctx = build_pipeline(h, 1.0, 1e-3)
    joint = np.zeros((ctx.layout.ancilla_dim, 2), dtype=complex)
    joint[3, 0] = 1.0
    with pytest.raises(lcu.AncillaPreconditionError):
        lcu.apply_A(ctx, lcu.Statevector(amps=joint, layout=ctx.layout))


# --- diagonal phase ---------------------------------------------------------------

def test_apply_h0_phase():
    h = pham.from_pauli_spec({"n": 1, "h0": [{"coupling": 0.7, "z_mask": "1"}]})
    psi = np.array([0.6, 0.8j])
    np.testing.assert_allclose(lcu.apply_H0_phase(h, 0.0, psi), psi)
    t = 1.3
    out = lcu.apply_H0_phase(h, t, psi)
    np.testing.assert_allclose(out, psi * np.exp(-1j * np.array([0.7, -0.7]) * t))
    rng = np.random.default_rng(67)
    h2 = pham.from_pauli_spec(random_model_spec(rng, n=2))
    psi2 = haar_state(rng, 4)
    ref = expm(-1j * np.diag(h2.h0_diag) * t) @ psi2
    np.testing.assert_allclose(lcu.apply_H0_phase(h2, t, psi2), ref, atol=1e-13)


# --- full runs --------------------------------------------------------------------

def test_run_full_v_zero_is_diagonal_phase():
    h = pham.from_pauli_spec({"n": 2, "h0": [{"coupling": 0.4, "z_mask": "01"},
                                             {"coupling": -0.9, "z_mask": "11"}]})
    psi = haar_state(np.random.default_rng(68), 4)
    final, diag = lcu.run_full(h, 2.5, 1e-3, psi)
    expect = np.exp(-1j * h.h0_diag * 2.5) * psi
    np.testing.assert_allclose(final.system_block(0), expect, atol=1e-12)
    assert diag["r"] == 1 and abs(diag["total_deficit"]) <= 1e-12
    assert set(diag) == {"r", "Q", "residuals", "deficits", "total_deficit"}
    assert not np.shares_memory(final.system_block(0), final.amps)


def test_run_full_oscillating_matches_ode_oracle():
    eps = 1e-3
    h = oscillating_hamiltonian(1.0, 1.0, 3.0)
    t_total = 2.0
    psi = haar_state(np.random.default_rng(69), 2)
    final, diag = lcu.run_full(h, t_total, eps, psi)
    ref = oracle.propagate_ode(h, 0.0, t_total, tol=1e-11).U @ psi
    err = np.linalg.norm(final.system_block(0) - ref)
    assert err <= eps
    assert abs(np.vdot(ref, final.system_block(0))) >= 1 - 2 * eps
    assert abs(diag["total_deficit"]) <= eps


def test_run_full_decay_saturated_schedule():
    eps = 1e-3
    h = pham.from_pauli_spec(decay_spec(1.0, 1.0, 1.0))
    t_total = 50.0
    psi = np.array([1.0, 0.0], dtype=complex)
    final, diag = lcu.run_full(h, t_total, eps, psi)
    assert diag["r"] == sched.build_schedule(h, t_total).r
    ref = oracle.propagate_ode(h, 0.0, t_total, tol=1e-11).U @ psi
    assert np.linalg.norm(final.system_block(0) - ref) <= eps
    assert abs(diag["total_deficit"]) <= eps


def test_run_full_uniform_mode_matches_oracle():
    eps = 1e-3
    rng = np.random.default_rng(70)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    t_total = 1.2
    psi = haar_state(rng, 4)
    ref = oracle.propagate_ode(h, 0.0, t_total, tol=1e-11).U @ psi
    for mode in (sched.MODE_EXACT, sched.MODE_UNIFORM):
        final, diag = lcu.run_full(h, t_total, eps, psi, mode=mode)
        assert np.linalg.norm(final.system_block(0) - ref) <= eps, mode
        assert abs(diag["total_deficit"]) <= eps, mode


def test_run_full_at_the_unpadded_amplification_zero():
    # the seed-200 criterion-4 model at the duration where the final
    # segment's s is 2/sqrt(3): without the padding term the projected
    # amplitude 3/s - 4/s^3 of its amplification vanishes there
    eps = 1e-3
    h = pham.from_pauli_spec(random_model_spec(np.random.default_rng(200), n=2, m_max=2, k_max=2))
    lo, hi = 0.8, 0.85  # r = 3 throughout; the final s grows with T
    for _ in range(60):
        mid = (lo + hi) / 2
        s = sched.build_schedule(h, mid, eps=eps)
        lo, hi = (mid, hi) if s.s(s.r - 1) < 2 / math.sqrt(3) else (lo, mid)
    s = sched.build_schedule(h, lo, eps=eps)
    assert s.r == 3 and s.s(2) == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    assert lo == pytest.approx(0.821899774028, abs=1e-11)
    psi = haar_state(np.random.default_rng(72), 4)
    final, diag = lcu.run_full(h, lo, eps, psi)
    ref = oracle.propagate_ode(h, 0.0, lo, tol=1e-11).U @ psi
    assert np.linalg.norm(final.system_block(0) - ref) <= eps
    assert abs(diag["total_deficit"]) <= eps


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2), t_total=st.floats(0.05, 4.0))
def test_run_full_matches_oracle_at_any_duration(seed, n, t_total):
    # no duration scan: the final segment's s lands anywhere below 2
    eps = 1e-3
    rng = np.random.default_rng(seed)
    h = pham.from_pauli_spec(random_model_spec(rng, n=n))
    psi = haar_state(rng, h.dim)
    final, diag = lcu.run_full(h, t_total, eps, psi)
    ref = oracle.propagate_ode(h, 0.0, t_total, tol=1e-11).U @ psi
    assert np.linalg.norm(final.system_block(0) - ref) <= eps
    assert abs(diag["total_deficit"]) <= eps


def test_run_full_uniform_s_matches_alternative_formula():
    rng = np.random.default_rng(71)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 1.5, eps=1e-3, mode=sched.MODE_UNIFORM)
    seg = dyson.build_segment(h, s, 0)
    n_ik = len(h.vterms) * h.num_exp_terms
    u = n_ik * pham.gamma_max(h) * np.exp(s.steps[0][0] * s.lam) * s.dt_tilde(0)
    expect = sum(u**q / math.factorial(q) for q in range(s.Q + 1))
    assert seg.s == pytest.approx(expect, rel=1e-12)


def test_run_full_size_guard():
    h = pham.from_pauli_spec({"n": 9, "v": [{"pauli": "X" + "I" * 8, "coeff": [
        {"amp": [0.5, 0.0], "rate": [0.0, 0.0]}]}]})
    with pytest.raises(ValueError):
        lcu.run_full(h, 1.0, 1e-3, np.ones(512) / math.sqrt(512))


def test_run_full_abort_on_tiny_budget(monkeypatch):
    # healthy direction residuals sit at machine level; a sub-eps budget
    # exercises the abort path and its attached diagnostics
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    psi = np.array([1.0, 0.0], dtype=complex)
    monkeypatch.setattr(lcu, "RESIDUAL_ABORT", 1e-13)
    with pytest.raises(lcu.SimulationAbort) as exc:
        lcu.run_full(h, 2.0, 1e-3, psi)
    assert set(exc.value.diagnostics) == {"residuals", "deficits"}


def test_run_full_aborts_on_non_finite_state(monkeypatch):
    # a NaN residual fails the budget check instead of passing it; numpy
    # warns on the way, when the NaN block is normalized
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    real = lcu.apply_A
    monkeypatch.setattr(lcu, "apply_A", lambda ctx, psi: lcu.Statevector(
        amps=real(ctx, psi).amps * np.nan, layout=psi.layout))
    with pytest.warns(RuntimeWarning), pytest.raises(lcu.SimulationAbort,
                                                     match="segment 0 residual nan"):
        lcu.run_full(h, 2.0, 1e-3, np.array([1.0, 0.0], dtype=complex))


def test_run_full_divided_difference_work_per_run(monkeypatch):
    # each run makes one coefficient pass per order, at every distinct step
    # length of its schedule (two for the oscillating model at alpha = 0
    # over T = 10), and a second run repeats all of it
    h = oscillating_hamiltonian(1.0, 1.0, 0.0)
    psi = np.full(2, 1 / math.sqrt(2), dtype=complex)
    steps = []
    real = dd.exp_dd_steps
    monkeypatch.setattr(dd, "exp_dd_steps", lambda xs, dts: steps.append(len(dts)) or real(xs, dts))
    first_final, diag = lcu.run_full(h, 10.0, 1e-3, psi)
    first = len(steps)
    second_final, _ = lcu.run_full(h, 10.0, 1e-3, psi)
    assert diag["r"] == 29 and first == diag["Q"] and steps == [2] * (2 * first)
    assert np.array_equal(first_final.system_block(0), second_final.system_block(0))
