"""Tests for the truncated integral-free Dyson segment operators."""
import math
from itertools import product

import numpy as np
import pytest
from scipy.linalg import expm

from permlcu import dd, dyson, oracle, pham, sched
from permlcu.models import (decay_spec, oscillating_hamiltonian, random_model_spec,
                            static_spec)

LN2 = math.log(2.0)


def spectral(a):
    return np.linalg.norm(a, 2)


def multi_indices(h, q_max):
    """(q, i_q, k_q) in ancilla order: ascending q, i_q outer, k_q inner."""
    n_i, n_k = range(len(h.vterms)), range(h.num_exp_terms)
    return [(q, iq, kq) for q in range(q_max + 1)
            for iq in product(n_i, repeat=q) for kq in product(n_k, repeat=q)]


# --- interaction inputs -------------------------------------------------------

def test_inputs_empty_order():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    xj, z_path, d0 = dyson.interaction_inputs(h, (), (), 0)
    assert xj == () and z_path == () and d0 == 1.0


def test_inputs_oscillating_first_order():
    # x_1 = i(E_1 - E_0) + (-i alpha) = -i(2h + alpha); h=1, alpha=2 -> -4i
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    xj, z_path, d0 = dyson.interaction_inputs(h, (0,), (0,), 0)
    assert z_path == (1,)
    assert xj[0] == pytest.approx(-4j)
    # that exponential term has amp support on entry 0 only, so d vanishes here
    assert d0 == 0.0
    xj1, _, d1 = dyson.interaction_inputs(h, (0,), (1,), 0)
    assert xj1[0] == pytest.approx(1j * (-2.0 + 2.0))
    assert d1 == pytest.approx(1.0)


def test_inputs_vanish_for_static_no_h0():
    h = pham.from_pauli_spec({"n": 1, "v": [{"pauli": "X", "coeff": [
        {"amp": [0.8, 0.0], "rate": [0.0, 0.0]}]}]})
    xj, z_path, d0 = dyson.interaction_inputs(h, (0, 0), (0, 0), 1)
    assert all(x == 0 for x in xj)
    assert z_path == (0, 1)
    assert d0 == pytest.approx(0.8**2)


def test_inputs_path_is_cumulative_xor():
    rng = np.random.default_rng(50)
    h = pham.from_pauli_spec(random_model_spec(rng, n=3))
    iq = (0, min(1, len(h.vterms) - 1), 0)
    kq = (0, 0, 0)
    _, z_path, _ = dyson.interaction_inputs(h, iq, kq, 5)
    cur = 5
    for j, i in enumerate(iq):
        cur ^= h.vterms[i].mask
        assert z_path[j] == cur


# --- term coefficients ----------------------------------------------------------

def test_coefficient_zero_order_is_one():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    assert dyson.term_coefficient(h, 0.3, 0.5, (), (), 0) == 1.0


def test_coefficient_static_first_order():
    gamma, dt = 0.9, 0.4
    h = pham.from_pauli_spec({"n": 1, "v": [{"pauli": "X", "coeff": [
        {"amp": [gamma, 0.0], "rate": [0.0, 0.0]}]}]})
    coeff = dyson.term_coefficient(h, 0.0, dt, (0,), (0,), 0)
    assert coeff == pytest.approx(gamma * dt)


def test_coefficient_bound_holds_per_term():
    rng = np.random.default_rng(51)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 2.0, eps=1e-3)
    t_w, dt_w = s.steps[0]
    dt_tilde = s.dt_tilde(0)
    n_i, n_k = len(h.vterms), h.num_exp_terms
    for q in (1, 2, 3):
        for _ in range(20):
            iq = tuple(rng.integers(0, n_i, q))
            kq = tuple(rng.integers(0, n_k, q))
            z = int(rng.integers(0, h.dim))
            xj, z_path, _ = dyson.interaction_inputs(h, iq, kq, z)
            divided = dd.exp_dd_scaled(dt_w, list(xj) + [0.0])
            assert abs(divided) <= dt_tilde**q / math.factorial(q) * (1 + 1e-10)


# --- phase decomposition --------------------------------------------------------

def test_phase_angles_cases():
    assert dyson.phase_angles(1.0 + 0.0j, 1.0) == (0.0, 0.0)
    phi, theta = dyson.phase_angles(0.0j, 1.0)
    assert phi == pytest.approx(math.pi / 2) and theta == 0.0
    phi, theta = dyson.phase_angles(0.5 * np.exp(1j * math.pi / 3), 1.0)
    assert phi == pytest.approx(math.pi / 3)
    assert theta == pytest.approx(math.pi / 3)


def test_phase_angles_reconstruction():
    rng = np.random.default_rng(52)
    for _ in range(100):
        bound = float(rng.uniform(0.1, 3.0))
        coeff = bound * rng.uniform(0, 1) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        phi, theta = dyson.phase_angles(complex(coeff), bound)
        rebuilt = bound / 2 * (np.exp(1j * (phi + theta)) + np.exp(1j * (-phi + theta)))
        assert abs(rebuilt - coeff) < 1e-12 * max(1.0, bound)


def test_phase_angles_rejects_bound_violation():
    with pytest.raises(dyson.TermBoundError):
        dyson.phase_angles(1.1 + 0.0j, 1.0)
    with pytest.raises(dyson.TermBoundError):
        dyson.phase_angles(0.5 + 0.0j, 0.0)


# --- segment operators ----------------------------------------------------------

def test_segment_v_zero_is_identity():
    h = pham.from_pauli_spec({"n": 2, "h0": [{"coupling": 0.7, "z_mask": "10"}]})
    s = sched.build_schedule(h, 1.0, eps=1e-3)
    np.testing.assert_allclose(dyson.build_segment_unitary(h, s, 0), np.eye(4),
                               atol=1e-14)


def test_segment_blocks_match_scalar_reference():
    rng = np.random.default_rng(53)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 1.5, eps=1e-2)
    seg = dyson.build_segment(h, s, 0)
    t_w, dt_w = s.steps[0]
    tab = seg.blocks
    for t, (q, iq, kq) in zip(range(40), multi_indices(h, s.Q)):
        assert tab.q[t] == q and len(iq) == len(kq) == q
        for z in range(h.dim):
            ref = dyson.term_coefficient(h, t_w, dt_w, iq, kq, z)
            assert abs(tab.coeff[t, z] - ref) < 1e-12 * max(1.0, abs(ref))


def test_segment_oscillating_matches_interaction_oracle():
    h = oscillating_hamiltonian(1.0, 1.0, 3.0)
    eps = 1e-3
    s = sched.build_schedule(h, 1.0, eps=eps)
    t_w, dt_w = s.steps[0]
    built = dyson.build_segment_unitary(h, s, 0)
    ref = oracle.propagate_interaction(h, t_w, t_w + dt_w, tol=1e-11).U
    assert spectral(built - ref) <= eps


def test_segment_static_matches_matrix_exponential():
    gamma = 1.2
    h = pham.from_pauli_spec({"n": 1, "v": [{"pauli": "X", "coeff": [
        {"amp": [gamma, 0.0], "rate": [0.0, 0.0]}]}]})
    s = sched.build_schedule(h, 2.0, eps=1e-4)
    dt = s.steps[0][1]
    built = dyson.build_segment_unitary(h, s, 0)
    ref = expm(-1j * gamma * np.array([[0, 1], [1, 0]]) * dt)
    assert spectral(built - ref) <= sched.s_tail(s.Q) * 1.5


def test_segment_near_unitarity_and_oracle_distance():
    rng = np.random.default_rng(54)
    eps = 1e-3
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 2.0, eps=eps)
    for w in range(s.r - (1 if s.final_step_clamped else 0)):
        u = dyson.build_segment_unitary(h, s, w)
        assert spectral(u.conj().T @ u - np.eye(h.dim)) <= 3 * eps / s.r
        t_w, dt_w = s.steps[w]
        ref = oracle.propagate_interaction(h, t_w, t_w + dt_w, tol=1e-11).U
        assert spectral(u - ref) <= 2 * eps / s.r


def test_segment_chaining_matches_full_interaction_propagator():
    rng = np.random.default_rng(55)
    eps = 1e-3
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    t_total = 2.0
    s = sched.build_schedule(h, t_total, eps=eps)
    prod = np.eye(h.dim, dtype=complex)
    for w in range(s.r):
        prod = dyson.build_segment_unitary(h, s, w) @ prod
    ref = oracle.propagate_interaction(h, 0.0, t_total, tol=1e-11).U
    assert spectral(prod - ref) <= eps + 1e-6


def test_segment_s_value():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    s = sched.build_schedule(h, 1.0, eps=1e-3)
    seg = dyson.build_segment(h, s, 0)
    u = s.gammas[0] * s.dt_tilde(0)
    assert u == pytest.approx(LN2, rel=1e-12)
    expect = sum(u**q / math.factorial(q) for q in range(s.Q + 1))
    assert seg.s == pytest.approx(expect, rel=1e-14)
    assert abs(seg.s - 2.0) <= 1e-3 / s.r


def test_frequency_independence_of_enumeration():
    eps = 1e-3
    base = None
    for alpha in (0.0, 1.0, 1e3, 1e6):
        h = oscillating_hamiltonian(1.0, 1.0, alpha)
        s = sched.build_schedule(h, 1.0, eps=eps)
        seg = dyson.build_segment(h, s, 0)
        key = (len(seg.blocks), s.Q, s.r,
               tuple(np.round(seg.blocks.gamma_term, 12)))
        if base is None:
            base = key
        assert key == base


def test_segment_blocks_reconstruct_from_phases():
    # coeff = bound/2 * (e^{i(phi+theta)} + e^{i(-phi+theta)}) entrywise
    rng = np.random.default_rng(49)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 1.5, eps=1e-3)
    tab = dyson.build_segment(h, s, 1 % s.r).blocks
    bound = tab.bound[:, None]
    rebuilt = bound / 2 * (np.exp(1j * (tab.phi + tab.theta))
                           + np.exp(1j * (-tab.phi + tab.theta)))
    assert (np.abs(rebuilt - tab.coeff) < 1e-12 * np.maximum(1.0, bound)).all()


def test_segment_term_views():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    s = sched.build_schedule(h, 1.0, eps=1e-2)
    seg = dyson.build_segment(h, s, 0)
    tab = seg.blocks
    index = multi_indices(h, s.Q)
    assert len(index) == len(tab) == dyson.count_terms(h, s.Q) // h.dim
    assert tab.coeff.shape == tab.phi.shape == tab.theta.shape == (len(tab), h.dim)
    for t, (q, iq, kq) in enumerate(index[:10]):
        assert tab.q[t] == q
        for z in range(h.dim):
            _, z_path, _ = dyson.interaction_inputs(h, iq, kq, z)
            if q:
                assert z ^ tab.cum_mask[t] == z_path[-1]
            assert abs(tab.coeff[t, z]) <= (seg.dt_tilde**q / math.factorial(q)
                                           * tab.gamma_term[t]) * (1 + 1e-9)
            assert 0.0 <= tab.phi[t, z] <= math.pi / 2


def test_schedule_reports_clamped_replacement_bound():
    h = pham.from_pauli_spec(decay_spec(1.0, 1.0, 1.0))
    s = sched.build_schedule(h, 10.0)
    assert s.final_step_clamped
    # the implied bound satisfies gamma_tilde * dt_tilde = ln2 by construction
    assert s.gamma_tilde_final * s.dt_tilde(s.r - 1) == pytest.approx(LN2)
    unclamped = sched.build_schedule(oscillating_hamiltonian(1.0, 1.0, 0.0),
                                     4 * sched.next_step(2.0, 0.0))
    assert unclamped.gamma_tilde_final is None


def test_segment_build_is_deterministic():
    rng = np.random.default_rng(56)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 2.0, eps=1e-3)
    first = dyson.build_segment_unitary(h, s, 0)
    second = dyson.build_segment_unitary(h, s, 0)
    assert np.array_equal(first, second)


def test_enumeration_guard():
    rng = np.random.default_rng(56)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 2.0, eps=1e-3)
    if len(h.vterms) * h.num_exp_terms >= 4:
        with pytest.raises(dyson.EnumerationLimitError):
            dyson.build_segment(h, s, 0, q_max=14)
    assert dyson.count_terms(h, 2) == h.dim * (
        1 + (len(h.vterms) * h.num_exp_terms) + (len(h.vterms) * h.num_exp_terms)**2)


# --- alternative scheme -----------------------------------------------------------

def test_alt_equals_main_when_h0_vanishes():
    h = pham.from_pauli_spec({"n": 1, "v": [{"pauli": "X", "coeff": [
        {"amp": [0.5, 0.0], "rate": [-0.3, 0.0]}]}]})
    s = sched.build_schedule(h, 1.0, eps=1e-4)
    for w in range(s.r):
        a = dyson.alt_segment_unitary(h, s, w)
        b = dyson.build_segment_unitary(h, s, w)
        assert spectral(a - b) < 1e-11


def test_alt_intertwining_identity():
    rng = np.random.default_rng(57)
    for _ in range(3):
        h = pham.from_pauli_spec(random_model_spec(rng, n=2))
        s = sched.build_schedule(h, 1.5, eps=1e-3)
        for w in range(min(s.r, 3)):
            t_w, dt_w = s.steps[w]
            ui = dyson.build_segment_unitary(h, s, w)
            alt = dyson.alt_segment_unitary(h, s, w)
            left = np.diag(np.exp(-1j * h.h0_diag * (t_w + dt_w))) @ ui
            right = alt @ np.diag(np.exp(-1j * h.h0_diag * t_w))
            assert spectral(left - right) < 1e-10


def test_alt_product_vs_interaction_product():
    rng = np.random.default_rng(58)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    t_total = 1.6
    s = sched.build_schedule(h, t_total, eps=1e-4)
    alt_prod = np.eye(h.dim, dtype=complex)
    ui_prod = np.eye(h.dim, dtype=complex)
    for w in range(s.r):
        alt_prod = dyson.alt_segment_unitary(h, s, w) @ alt_prod
        ui_prod = dyson.build_segment_unitary(h, s, w) @ ui_prod
    lhs = alt_prod
    rhs = np.diag(np.exp(-1j * h.h0_diag * t_total)) @ ui_prod
    assert spectral(lhs - rhs) < 1e-8


def test_alt_time_independent_reduction():
    # static model: every segment is the same off-diagonal factor times e^{-i D0 dt}
    h = pham.from_pauli_spec(static_spec(0.8, 1.1))
    eps = 1e-3
    s = sched.build_schedule(h, 3.0, eps=eps)
    alt0 = dyson.alt_segment_unitary(h, s, 0)
    alt1 = dyson.alt_segment_unitary(h, s, 1)
    assert spectral(alt0 - alt1) < 1e-12
    u_od = alt0 @ np.diag(np.exp(1j * h.h0_diag * s.steps[0][1]))
    np.testing.assert_allclose(
        alt0, u_od @ np.diag(np.exp(-1j * h.h0_diag * s.steps[0][1])), atol=1e-12)
    prod = np.eye(2, dtype=complex)
    for w in range(s.r):
        prod = dyson.alt_segment_unitary(h, s, w) @ prod
    ref = expm(-1j * pham.eval_H(h, 0.0) * 3.0)
    assert spectral(prod - ref) <= 2 * eps


def test_uniform_mode_bounds_dominate():
    rng = np.random.default_rng(59)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s_ex = sched.build_schedule(h, 2.0, eps=1e-3, mode=sched.MODE_EXACT)
    s_un = sched.build_schedule(h, 2.0, eps=1e-3, mode=sched.MODE_UNIFORM)
    assert s_un.r >= s_ex.r
    tab = dyson.build_segment(h, s_un, 0).blocks
    gmax = pham.gamma_max(h)
    for q, bound, coeff in zip(tab.q, tab.bound, tab.coeff):
        if q == 0:
            continue
        expect = (s_un.dt_tilde(0)**q / math.factorial(q)
                  * (gmax * np.exp(s_un.steps[0][0] * s_un.lam))**q)
        assert bound == pytest.approx(expect, rel=1e-12)
        assert np.abs(coeff).max() <= bound * (1 + 1e-9)


# --- segment plan -------------------------------------------------------------------

def _table_fields(seg):
    tab = seg.blocks
    return (tab.q, tab.cum_mask, tab.coeff, tab.phi, tab.theta, tab.gamma_term, tab.bound)


@pytest.mark.parametrize("mode", [sched.MODE_EXACT, sched.MODE_UNIFORM])
def test_shared_plan_segments_bitwise_equal_fresh(mode):
    rng = np.random.default_rng(72)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 2.0, eps=1e-3, mode=mode)
    plan = dyson.SegmentPlan(h, s.Q)
    assert len(plan) == dyson.count_terms(h, s.Q) // h.dim
    for w in list(range(s.r)) + [0]:  # revisit segment 0 after the memo moved on
        shared = dyson.build_segment(h, s, w, plan=plan)
        fresh = dyson.build_segment(h, s, w)
        assert len(shared.blocks) == len(fresh.blocks) == len(plan)
        for a, b in zip(_table_fields(shared), _table_fields(fresh)):
            assert np.array_equal(a, b)
        assert np.array_equal(shared.matrix(), fresh.matrix())
        assert shared.s == fresh.s


def test_matrix_matches_term_loop():
    # one scatter-add over the table equals the term-by-term accumulation
    rng = np.random.default_rng(74)
    h = pham.from_pauli_spec(random_model_spec(rng, n=3))
    s = sched.build_schedule(h, 1.0, eps=1e-3)
    seg = dyson.build_segment(h, s, 0)
    tab = seg.blocks
    z = np.arange(h.dim)
    loop = np.zeros((h.dim, h.dim), dtype=complex)
    for t in range(len(tab)):
        loop[z ^ int(tab.cum_mask[t]), z] += (-1j) ** int(tab.q[t]) * tab.coeff[t]
    assert np.array_equal(seg.matrix(), loop)


def test_build_segment_rejects_mismatched_plan():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    s = sched.build_schedule(h, 1.0, eps=1e-3)
    plan = dyson.SegmentPlan(h, s.Q)
    with pytest.raises(ValueError):
        dyson.build_segment(h, s, 0, q_max=s.Q - 1, plan=plan)
    other = oscillating_hamiltonian(1.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        dyson.build_segment(other, s, 0, plan=plan)


def test_plan_reuses_divided_differences_of_equal_steps(monkeypatch):
    # lambda = 0: every step but the clamped last one has the same length
    h = oscillating_hamiltonian(1.0, 1.0, 0.0)
    s = sched.build_schedule(h, 10.0, eps=1e-3)
    calls = []
    real = dd.exp_dd_batch
    monkeypatch.setattr(dd, "exp_dd_batch", lambda xs: calls.append(len(xs)) or real(xs))
    plan = dyson.SegmentPlan(h, s.Q)
    for w in range(s.r):
        dyson.build_segment(h, s, w, plan=plan)
    assert len(calls) == s.Q * len(set(dt for _, dt in s.steps)) <= 2 * s.Q
    # a new plan shares nothing with the old one, not even the last step
    before = len(calls)
    dyson.build_segment(h, s, s.r - 1, plan=dyson.SegmentPlan(h, s.Q))
    assert len(calls) == before + s.Q


def test_alt_matches_term_by_term_construction():
    # the alternative form summed term by term from the scalar inputs:
    # y_j = -i(E_{z_{j-1}} - E_z) - sum_{l<j} rate_l, y_{q+1} from the full path
    rng = np.random.default_rng(73)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2, m_max=2, k_max=2))
    s = sched.build_schedule(h, 1.0, eps=1e-2)
    w = min(1, s.r - 1)
    t_w, dt_w = s.steps[w]
    energies = h.h0_diag
    n_ik = [(i, k) for i in range(len(h.vterms)) for k in range(h.num_exp_terms)]
    ref = np.eye(h.dim, dtype=complex)
    for q in range(1, s.Q + 1):
        for path in product(n_ik, repeat=q):
            iq = tuple(i for i, _ in path)
            kq = tuple(k for _, k in path)
            for z in range(h.dim):
                _, z_path, d_coeff = dyson.interaction_inputs(h, iq, kq, z)
                rates = [complex(h.vterms[i].exp_terms[k].rate[zj])
                         for i, k, zj in zip(iq, kq, z_path)]
                prev = (z,) + z_path
                ys = [-1j * (energies[prev[j]] - energies[z]) - sum(rates[:j])
                      for j in range(q + 1)]
                coeff = (np.exp((t_w + dt_w) * sum(rates))
                         * dd.exp_dd_scaled(dt_w, ys) * d_coeff)
                ref[z_path[-1], z] += (-1j) ** q * coeff
    ref = ref * np.exp(-1j * energies * dt_w)[None, :]
    np.testing.assert_allclose(dyson.alt_segment_unitary(h, s, w), ref, rtol=0, atol=1e-14)
