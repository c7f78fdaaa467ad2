"""Tests for the truncated integral-free Dyson segment operators."""
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from dyson_reference import (dense_coefficients, dense_table, frozen_model,
                             interaction_inputs, partial_support_models, term_coefficient,
                             tiny_amplitude_model)
from permlcu import dd, dyson, lcu, oracle, pham, sched
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
    xj, z_path, d0 = interaction_inputs(h, (), (), 0)
    assert xj == () and z_path == () and d0 == 1.0


def test_inputs_oscillating_first_order():
    # x_1 = i(E_1 - E_0) + (-i alpha) = -i(2h + alpha); h=1, alpha=2 -> -4i
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    xj, z_path, d0 = interaction_inputs(h, (0,), (0,), 0)
    assert z_path == (1,)
    assert xj[0] == pytest.approx(-4j)
    # that exponential term has amp support on entry 0 only, so d vanishes here
    assert d0 == 0.0
    xj1, _, d1 = interaction_inputs(h, (0,), (1,), 0)
    assert xj1[0] == pytest.approx(1j * (-2.0 + 2.0))
    assert d1 == pytest.approx(1.0)


def test_inputs_vanish_for_static_no_h0():
    h = pham.from_pauli_spec({"n": 1, "v": [{"pauli": "X", "coeff": [
        {"amp": [0.8, 0.0], "rate": [0.0, 0.0]}]}]})
    xj, z_path, d0 = interaction_inputs(h, (0, 0), (0, 0), 1)
    assert all(x == 0 for x in xj)
    assert z_path == (0, 1)
    assert d0 == pytest.approx(0.8**2)


def test_inputs_path_is_cumulative_xor():
    rng = np.random.default_rng(50)
    h = pham.from_pauli_spec(random_model_spec(rng, n=3))
    iq = (0, min(1, len(h.vterms) - 1), 0)
    kq = (0, 0, 0)
    _, z_path, _ = interaction_inputs(h, iq, kq, 5)
    cur = 5
    for j, i in enumerate(iq):
        cur ^= h.vterms[i].mask
        assert z_path[j] == cur


# --- term coefficients ----------------------------------------------------------

def test_coefficient_zero_order_is_one():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    assert term_coefficient(h, 0.3, 0.5, (), (), 0) == 1.0


def test_coefficient_static_first_order():
    gamma, dt = 0.9, 0.4
    h = pham.from_pauli_spec({"n": 1, "v": [{"pauli": "X", "coeff": [
        {"amp": [gamma, 0.0], "rate": [0.0, 0.0]}]}]})
    coeff = term_coefficient(h, 0.0, dt, (0,), (0,), 0)
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
            xj, z_path, _ = interaction_inputs(h, iq, kq, z)
            divided = dd.exp_dd_steps([list(xj) + [0.0]], [dt_w])[0, 0]
            assert abs(divided) <= dt_tilde**q / math.factorial(q) * (1 + 1e-10)


# --- segment operators ----------------------------------------------------------

def test_segment_v_zero_is_identity():
    h = pham.from_pauli_spec({"n": 2, "h0": [{"coupling": 0.7, "z_mask": "10"}]})
    s = sched.build_schedule(h, 1.0, eps=1e-3)
    np.testing.assert_allclose(dyson.build_segment(dyson.SegmentPlan(h, s), 0).matrix(),
                               np.eye(4), atol=1e-14)


def test_segment_blocks_match_scalar_reference():
    rng = np.random.default_rng(53)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 1.5, eps=1e-2)
    seg = dyson.build_segment(dyson.SegmentPlan(h, s), 0)
    t_w, dt_w = s.steps[0]
    coeff = dense_table(seg.plan, seg.blocks.values)
    for t, (q, iq, kq) in zip(range(40), multi_indices(h, s.Q)):
        assert seg.plan.q[t] == q and len(iq) == len(kq) == q
        for z in range(h.dim):
            ref = term_coefficient(h, t_w, dt_w, iq, kq, z)
            assert abs(coeff[t, z] - ref) < 1e-12 * max(1.0, abs(ref))


def test_segment_oscillating_matches_interaction_oracle():
    h = oscillating_hamiltonian(1.0, 1.0, 3.0)
    eps = 1e-3
    s = sched.build_schedule(h, 1.0, eps=eps)
    t_w, dt_w = s.steps[0]
    built = dyson.build_segment(dyson.SegmentPlan(h, s), 0).matrix()
    ref = oracle.propagate_interaction(h, t_w, t_w + dt_w, tol=1e-11).U
    assert spectral(built - ref) <= eps


def test_segment_static_matches_matrix_exponential():
    gamma = 1.2
    h = pham.from_pauli_spec({"n": 1, "v": [{"pauli": "X", "coeff": [
        {"amp": [gamma, 0.0], "rate": [0.0, 0.0]}]}]})
    s = sched.build_schedule(h, 2.0, eps=1e-4)
    dt = s.steps[0][1]
    built = dyson.build_segment(dyson.SegmentPlan(h, s), 0).matrix()
    ref = expm(-1j * gamma * np.array([[0, 1], [1, 0]]) * dt)
    assert spectral(built - ref) <= sched.s_tail(s.Q) * 1.5


def test_segment_near_unitarity_and_oracle_distance():
    rng = np.random.default_rng(54)
    eps = 1e-3
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 2.0, eps=eps)
    plan = dyson.SegmentPlan(h, s)
    for w in range(s.r - (1 if s.final_step_clamped else 0)):
        u = dyson.build_segment(plan, w).matrix()
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
    plan = dyson.SegmentPlan(h, s)
    for w in range(s.r):
        prod = dyson.build_segment(plan, w).matrix() @ prod
    ref = oracle.propagate_interaction(h, 0.0, t_total, tol=1e-11).U
    assert spectral(prod - ref) <= eps + 1e-6


@pytest.mark.parametrize("mode", [sched.MODE_EXACT, sched.MODE_UNIFORM])
def test_segment_s_is_the_schedule_s(mode):
    # the segment's normalization is read from the schedule, bitwise, on
    # every segment including a clamped final one
    rng = np.random.default_rng(53)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 1.5, eps=1e-2, mode=mode)
    assert s.final_step_clamped and s.r > 1
    plan = dyson.SegmentPlan(h, s)
    for w in range(s.r):
        assert dyson.build_segment(plan, w).s == s.s(w)


def test_segment_s_value():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    s = sched.build_schedule(h, 1.0, eps=1e-3)
    seg = dyson.build_segment(dyson.SegmentPlan(h, s), 0)
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
        plan = dyson.SegmentPlan(h, s)
        tab = dyson.build_segment(plan, 0).blocks
        # exact mode: bound = dt_tilde^q/q! * Gamma_term
        scale = np.array([s.dt_tilde(0)**q / math.factorial(q) for q in plan.q])
        key = (len(tab), s.Q, s.r, tuple(np.round(tab.bound / scale, 12)))
        if base is None:
            base = key
        assert key == base


def test_segment_blocks_reconstruct_from_phases():
    # coeff = bound/2 * (c+ + c-) entrywise, with unit-modulus branches
    rng = np.random.default_rng(49)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 1.5, eps=1e-3)
    seg = dyson.build_segment(dyson.SegmentPlan(h, s), 1 % s.r)
    coeff, bound = dense_table(seg.plan, seg.blocks.values), seg.blocks.bound[:, None]
    plus, minus = lcu.cosine_branches(coeff, bound)
    rebuilt = bound / 2 * (plus + minus)
    assert (np.abs(rebuilt - coeff) < 1e-12 * np.maximum(1.0, bound)).all()
    assert np.allclose(np.abs(plus), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(np.abs(minus), 1.0, rtol=0, atol=1e-15)


def test_segment_term_views():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    s = sched.build_schedule(h, 1.0, eps=1e-2)
    seg = dyson.build_segment(dyson.SegmentPlan(h, s), 0)
    tab, plan = seg.blocks, seg.plan
    coeff = dense_table(plan, tab.values)
    dt_tilde = s.dt_tilde(0)
    index = multi_indices(h, s.Q)
    assert len(index) == len(tab) == dyson.count_terms(h, s.Q) // h.dim
    assert tab.values.shape == plan.entries.shape and tab.bound.shape == (len(tab),)
    for t, (q, iq, kq) in enumerate(index[:10]):
        assert plan.q[t] == q
        for z in range(h.dim):
            _, z_path, _ = interaction_inputs(h, iq, kq, z)
            if q:
                assert z ^ plan.cum_mask[t] == z_path[-1]
            assert abs(coeff[t, z]) <= tab.bound[t] * (1 + 1e-9)
        # the oscillating model's Gamma_term is 1 (unit amplitudes, imaginary rates)
        assert tab.bound[t] == pytest.approx(dt_tilde**q / math.factorial(q), rel=1e-14)


def test_schedule_reports_clamped_replacement_bound():
    h = pham.from_pauli_spec(decay_spec(1.0, 1.0, 1.0))
    s = sched.build_schedule(h, 10.0, eps=1e-3)
    assert s.final_step_clamped
    # the implied bound satisfies gamma_tilde * dt_tilde = ln2 by construction
    assert s.gamma_tilde_final * s.dt_tilde(s.r - 1) == pytest.approx(LN2)
    unclamped = sched.build_schedule(oscillating_hamiltonian(1.0, 1.0, 0.0),
                                     4 * sched.next_step(2.0, 0.0), eps=1e-3)
    assert unclamped.gamma_tilde_final is None


def test_segment_build_is_deterministic():
    rng = np.random.default_rng(56)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 2.0, eps=1e-3)
    first = dyson.build_segment(dyson.SegmentPlan(h, s), 0).matrix()
    second = dyson.build_segment(dyson.SegmentPlan(h, s), 0).matrix()
    assert np.array_equal(first, second)


def test_enumeration_guard():
    rng = np.random.default_rng(56)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 2.0, eps=1e-3)
    if len(h.vterms) * h.num_exp_terms >= 4:
        with pytest.raises(dyson.EnumerationLimitError):
            dyson.SegmentPlan(h, replace(s, Q=14))
    assert dyson.count_terms(h, 2) == h.dim * (
        1 + (len(h.vterms) * h.num_exp_terms) + (len(h.vterms) * h.num_exp_terms)**2)


# --- alternative scheme -----------------------------------------------------------

def test_alt_equals_main_when_h0_vanishes():
    h = pham.from_pauli_spec({"n": 1, "v": [{"pauli": "X", "coeff": [
        {"amp": [0.5, 0.0], "rate": [-0.3, 0.0]}]}]})
    s = sched.build_schedule(h, 1.0, eps=1e-4)
    plan = dyson.SegmentPlan(h, s)
    for w in range(s.r):
        a = dyson.alt_segment_unitary(plan, w)
        b = dyson.build_segment(plan, w).matrix()
        assert spectral(a - b) < 1e-11


def test_alt_intertwining_identity():
    rng = np.random.default_rng(57)
    for _ in range(3):
        h = pham.from_pauli_spec(random_model_spec(rng, n=2))
        s = sched.build_schedule(h, 1.5, eps=1e-3)
        plan = dyson.SegmentPlan(h, s)
        for w in range(min(s.r, 3)):
            t_w, dt_w = s.steps[w]
            ui = dyson.build_segment(plan, w).matrix()
            alt = dyson.alt_segment_unitary(plan, w)
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
    plan = dyson.SegmentPlan(h, s)
    for w in range(s.r):
        alt_prod = dyson.alt_segment_unitary(plan, w) @ alt_prod
        ui_prod = dyson.build_segment(plan, w).matrix() @ ui_prod
    lhs = alt_prod
    rhs = np.diag(np.exp(-1j * h.h0_diag * t_total)) @ ui_prod
    assert spectral(lhs - rhs) < 1e-8


def test_alt_time_independent_reduction():
    # static model: every segment is the same off-diagonal factor times e^{-i D0 dt}
    h = pham.from_pauli_spec(static_spec(0.8, 1.1))
    eps = 1e-3
    s = sched.build_schedule(h, 3.0, eps=eps)
    plan = dyson.SegmentPlan(h, s)
    alt0 = dyson.alt_segment_unitary(plan, 0)
    alt1 = dyson.alt_segment_unitary(plan, 1)
    assert spectral(alt0 - alt1) < 1e-12
    u_od = alt0 @ np.diag(np.exp(1j * h.h0_diag * s.steps[0][1]))
    np.testing.assert_allclose(
        alt0, u_od @ np.diag(np.exp(-1j * h.h0_diag * s.steps[0][1])), atol=1e-12)
    prod = np.eye(2, dtype=complex)
    for w in range(s.r):
        prod = dyson.alt_segment_unitary(plan, w) @ prod
    ref = expm(-1j * pham.eval_H(h, 0.0) * 3.0)
    assert spectral(prod - ref) <= 2 * eps


def test_uniform_mode_bounds_dominate():
    rng = np.random.default_rng(59)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s_ex = sched.build_schedule(h, 2.0, eps=1e-3, mode=sched.MODE_EXACT)
    s_un = sched.build_schedule(h, 2.0, eps=1e-3, mode=sched.MODE_UNIFORM)
    assert s_un.r >= s_ex.r
    plan = dyson.SegmentPlan(h, s_un)
    tab = dyson.build_segment(plan, 0).blocks
    gmax = pham.gamma_max(h)
    for q, bound, coeff in zip(plan.q, tab.bound, dense_table(plan, tab.values)):
        if q == 0:
            continue
        expect = (s_un.dt_tilde(0)**q / math.factorial(q)
                  * (gmax * np.exp(s_un.steps[0][0] * s_un.lam))**q)
        assert bound == pytest.approx(expect, rel=1e-12)
        assert np.abs(coeff).max() <= bound * (1 + 1e-9)


# --- segment plan -------------------------------------------------------------------

def _table_fields(seg):
    return (seg.plan.q, seg.plan.cum_mask, seg.blocks.values, seg.blocks.bound)


@pytest.mark.parametrize("mode", [sched.MODE_EXACT, sched.MODE_UNIFORM])
def test_shared_plan_segments_bitwise_equal_fresh(mode):
    rng = np.random.default_rng(72)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 2.0, eps=1e-3, mode=mode)
    plan = dyson.SegmentPlan(h, s)
    assert len(plan) == dyson.count_terms(h, s.Q) // h.dim
    for w in list(range(s.r)) + [0]:  # revisit segment 0 after the last step
        shared = dyson.build_segment(plan, w)
        fresh = dyson.build_segment(dyson.SegmentPlan(h, s), w)
        assert len(shared.blocks) == len(fresh.blocks) == len(plan)
        for a, b in zip(_table_fields(shared), _table_fields(fresh)):
            assert np.array_equal(a, b)
        assert np.array_equal(shared.matrix(), fresh.matrix())
        assert shared.s == fresh.s


def _requested_tables(plan, ws):
    """Per segment of ws, requested in that order: its table, s, phase
    table and preparation weights."""
    tables, out = lcu.RunTables(plan), {}
    for w in ws:
        seg = dyson.build_segment(plan, w)
        ctx = lcu.build_context(seg, tables)
        out[w] = (seg.blocks.values, seg.blocks.bound, seg.s, ctx.phase_table, ctx.b_amps)
    return out


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from([("osc-long", "a1e3"), ("c4-n2", "m1")]), data=st.data())
def test_block_tables_do_not_depend_on_request_order(case, data):
    h, s, _ = frozen_model(*case)
    order = data.draw(st.permutations(range(s.r)), label="order")
    per_block = data.draw(st.integers(1, s.r), label="segments per block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyson, "BLOCK_BYTES", 0)  # one segment per block, in order
        want = _requested_tables(dyson.SegmentPlan(h, s), range(s.r))
        plan = dyson.SegmentPlan(h, s)
        mp.setattr(dyson, "BLOCK_BYTES", per_block * len(plan) * h.dim * 16)
        got = _requested_tables(plan, order)
    for w in range(s.r):
        assert all(np.array_equal(a, b) for a, b in zip(want[w], got[w]))


def test_matrix_matches_term_loop():
    # the operator applied to the identity columns equals the term-by-term
    # accumulation in table order, with the q = 0 term (the identity) last
    rng = np.random.default_rng(74)
    h = pham.from_pauli_spec(random_model_spec(rng, n=3))
    s = sched.build_schedule(h, 1.0, eps=1e-3)
    seg = dyson.build_segment(dyson.SegmentPlan(h, s), 0)
    plan = seg.plan
    coeff = dense_table(plan, seg.blocks.values)
    z = np.arange(h.dim)
    loop = np.zeros((h.dim, h.dim), dtype=complex)
    for t in range(1, len(plan)):
        loop[z ^ int(plan.cum_mask[t]), z] += (-1j) ** int(plan.q[t]) * coeff[t]
    loop[z, z] += coeff[0]
    assert np.array_equal(seg.matrix(), loop)


def test_plan_reuses_divided_differences_of_equal_steps(monkeypatch):
    # lambda = 0: every step but the clamped last one has the same length;
    # the plan evaluates the rows of all orders in one call, at both
    # lengths, and the segments only look the values up
    h = oscillating_hamiltonian(1.0, 1.0, 0.0)
    s = sched.build_schedule(h, 10.0, eps=1e-3)
    steps = sorted(set(dt for _, dt in s.steps))
    assert len(steps) == 2
    calls, rows = [], []
    real_steps, real_coefficients = dd.exp_dd_steps, dd._coefficients
    monkeypatch.setattr(dd, "exp_dd_steps", lambda xs, dts, q=None:
                        calls.append((len(xs), list(dts), q)) or real_steps(xs, dts, q))
    monkeypatch.setattr(dd, "_coefficients", lambda zs, q, radius:
                        rows.append(len(zs)) or real_coefficients(zs, q, radius))
    plan = dyson.SegmentPlan(h, s)
    ((n_rows, dts, orders),) = calls  # one call per plan
    assert dts == steps
    # only the amplitude support is evaluated: each single-entry amplitude
    # diagonal fixes k_j along a path, so 2 of the 2^(q+1) entries per order
    assert (len(plan) - 1) * h.dim == 252 and n_rows == plan.dd_rows == 2 * s.Q == 12
    assert np.array_equal(orders, np.repeat(np.arange(1, s.Q + 1), 2))
    assert sum(rows) == n_rows  # one pass per row
    for w in range(s.r):
        dyson.build_segment(plan, w)
    assert len(calls) == 1
    # a new plan shares nothing with the old one
    dyson.build_segment(dyson.SegmentPlan(h, s), s.r - 1)
    assert len(calls) == 2 and sum(rows) == 2 * n_rows


# A decaying model (rates -0.37) whose steps grow, with static energies large
# enough that some divided-difference rows leave the series range between
# one step length and the next, in both modes.
DECAYING_WIDE_SPEC = {
    "n": 2,
    "h0": [{"coupling": -35.0, "z_mask": "10"}, {"coupling": -26.5, "z_mask": "01"},
           {"coupling": -14.3, "z_mask": "11"}],
    "v": [{"pauli": "ZX", "coeff": [{"amp": [0.206, -0.239], "rate": [-0.371, 0.763]},
                                    {"amp": [0.206, 0.239], "rate": [-0.371, -0.763]}]},
          {"pauli": "YY", "coeff": [{"amp": [0.6, 0.0], "rate": [-0.374, 0.0]}]}],
}


@pytest.mark.parametrize("mode", [sched.MODE_EXACT, sched.MODE_UNIFORM])
def test_plan_values_match_per_step_batches(mode, monkeypatch):
    # every order at every distinct step, against dd.exp_dd_batch on that
    # order's rows at that step alone: within 1e-12 of each value's
    # real-part bound (per entry, both carry the series' error of up to
    # ~1e-10 at shifted spreads 9-12), and equal where the pair is beyond
    # the series cutoff
    h = pham.from_pauli_spec(DECAYING_WIDE_SPEC)
    s = sched.build_schedule(h, 3.0, eps=1e-3, mode=mode)
    calls = []
    real = dd.exp_dd_steps
    monkeypatch.setattr(dd, "exp_dd_steps",
                        lambda xs, dts, q=None: calls.append((xs, q)) or real(xs, dts, q))
    plan = dyson.SegmentPlan(h, s)
    steps = sorted(set(dt for _, dt in s.steps))
    ((rows, orders),) = calls  # one call per plan
    assert len(steps) > 1 and set(orders.tolist()) == set(range(1, s.Q + 1))
    # the rows handed over are the support rows, and only they
    assert len(rows) == np.count_nonzero(plan.d_coeff) == len(plan.gap)
    assert len(rows) < (len(plan) - 1) * h.dim  # the YY term is padded
    crossing = 0
    for q in range(1, s.Q + 1):
        of_q = orders == q
        xs = rows[of_q, :q + 1]
        spread = np.abs(xs - xs.mean(axis=1, keepdims=True)).max(axis=1)
        wide = spread[None, :] * np.array(steps)[:, None] > dd.SERIES_SPREAD_CUTOFF
        crossing += np.count_nonzero(wide.any(axis=0) & ~wide.all(axis=0))
        for dt, wide_at_dt in zip(steps, wide):
            got = plan.divided(dt)[of_q]
            ref = dt**q * dd.exp_dd_batch(dt * xs)
            bound = dt**q * dd.exp_dd_bound_batch(dt * xs)
            assert (np.abs(got - ref) <= 1e-12 * bound).all(), (q, dt)
            assert np.array_equal(got[wide_at_dt], ref[wide_at_dt])
    assert crossing > 0
    # off the support every coefficient is exactly 0, and on it none is
    on = np.zeros(len(plan) * h.dim, dtype=bool)
    on[plan.entries] = True
    for w in range(s.r):
        coeff = dense_table(plan, dyson.build_segment(plan, w).blocks.values).ravel()
        assert not coeff[~on].any() and coeff[on].all()


def test_padded_slot_paths_have_zero_coefficients():
    # the parser pads the K = 1 YY term to K = 2: a path through its padded
    # slot has coefficient exactly 0, by the scalar reference and in the table
    h = pham.from_pauli_spec(DECAYING_WIDE_SPEC)
    s = sched.build_schedule(h, 3.0, eps=1e-3)
    padded = {(i, k) for i, term in enumerate(h.vterms)
              for k, et in enumerate(term.exp_terms) if not et.amp.any()}
    assert len(padded) == 1
    t_w, dt_w = s.steps[1]
    seg = dyson.build_segment(dyson.SegmentPlan(h, s), 1)
    coeff = dense_table(seg.plan, seg.blocks.values)
    seen = 0
    for t, (q, iq, kq) in enumerate(multi_indices(h, 2)):
        if padded & set(zip(iq, kq)):
            seen += 1
            assert not coeff[t].any()
            assert all(term_coefficient(h, t_w, dt_w, iq, kq, z) == 0 for z in range(h.dim))
    assert seen == 1 + 7  # q = 1: the slot itself; q = 2: 16 paths less 3 x 3 without it


def assert_plan_matches_dense_build(h, s):
    """The plan hands exp_dd_steps the dense rows of the entries with a
    nonzero d_coeff, and nothing else; given the dense build's divided
    differences there, every segment's table and matrix equal the dense
    build's bitwise.  With the real kernel they agree to within 1e-12 of
    each term's bound: the series' Vandermonde product rounds a row
    according to the batch it is in (its length and the row's place)."""
    dense_rows, dense_vals = [], []
    real = dd.exp_dd_steps

    def record(xs, dts):
        dense_rows.append(xs)
        dense_vals.append(real(xs, dts))
        return dense_vals[-1]

    def served(xs, dts, q):
        # one call: the support rows of every order, ascending, zero-padded
        assert np.array_equal(q, np.repeat(np.arange(1, s.Q + 1), list(map(len, supports))))
        for k, support in enumerate(supports, start=1):
            assert np.array_equal(xs[q == k, :k + 1], dense_rows[k - 1][support])
            assert not xs[q == k, k + 1:].any()
        return np.concatenate([vals[:, support] for vals, support in zip(dense_vals, supports)],
                              axis=1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd, "exp_dd_steps", record)
        dense, supports = dense_coefficients(h, s)
        mp.setattr(dd, "exp_dd_steps", served)
        plan = dyson.SegmentPlan(h, s)
    evaluated = dyson.SegmentPlan(h, s)
    assert plan.dd_rows == evaluated.dd_rows == sum(map(len, supports))
    assert plan.dd_rows < (len(plan) - 1) * h.dim
    for w, coeff in enumerate(dense):
        seg = dyson.build_segment(plan, w)
        tab = seg.blocks
        assert np.array_equal(dense_table(plan, tab.values), coeff)
        # the dense build's values at the entries, in a block of their own
        values = seg.block.values.copy()
        values[w - seg.block.start] = coeff.reshape(-1)[plan.entries]
        full = replace(seg, block=replace(seg.block, values=values))
        assert np.array_equal(seg.matrix(), full.matrix())
        tables = lcu.RunTables(plan)
        assert np.array_equal(lcu.build_context(seg, tables).phase_table,
                              lcu.build_context(full, tables).phase_table)
        got = dense_table(plan, dyson.build_segment(evaluated, w).blocks.values)
        assert (np.abs(got - coeff) <= 1e-12 * tab.bound[:, None]).all()
        assert np.array_equal(got == 0, coeff == 0)
    return supports


@settings(max_examples=25, deadline=None)
@given(partial_support_models())
def test_support_plan_matches_dense_build(case):
    assert_plan_matches_dense_build(*case)


def test_support_keeps_tiny_amplitudes():
    # no threshold: a d_coeff of 1e-150 or 8e-301 keeps its entry on the
    # support; only an exact 0, here the underflow of three 1e-150 factors,
    # leaves it
    h = tiny_amplitude_model()
    s = sched.build_schedule(h, 1.0, eps=1e-3)
    supports = assert_plan_matches_dense_build(h, s)
    for q, support in enumerate(supports, start=1):
        n_tiny = (np.array(list(product(range(2), repeat=q))) == 1).sum(axis=1)
        assert np.array_equal(support // h.dim, np.repeat(np.flatnonzero(n_tiny < 3), h.dim))


@pytest.mark.parametrize("workload, case_id, rows, support, series_rows", [
    ("c4-n2", "m4", 21840, 4368, 4368), ("osc-long", "a1e3", 252, 12, 0)])
def test_plan_support_row_counts_on_frozen_cases(workload, case_id, rows, support,
                                                 series_rows, monkeypatch):
    # the plan evaluates the support rows only; those with a step in the
    # series range go through the coefficient pass (a1e3's are all wide)
    h, s, _ = frozen_model(workload, case_id)
    handed, passed = [], []
    real_steps, real_coefficients = dd.exp_dd_steps, dd._coefficients
    monkeypatch.setattr(dd, "exp_dd_steps", lambda xs, dts, q=None:
                        handed.append(len(xs)) or real_steps(xs, dts, q))
    monkeypatch.setattr(dd, "_coefficients", lambda zs, q, radius:
                        passed.append(len(zs)) or real_coefficients(zs, q, radius))
    plan = dyson.SegmentPlan(h, s)
    assert (len(plan) - 1) * h.dim == rows
    assert len(handed) == 1  # one call per plan
    assert sum(handed) == plan.dd_rows == support and sum(passed) == series_rows


@pytest.mark.parametrize("workload, case_id", [("c4-n2", "m4"), ("osc-long", "a1e3")])
def test_plan_entries_after_shrink_match_dense_build(workload, case_id, monkeypatch):
    # the per-entry buffers are sized for every entry and shrunk to the
    # support; after the shrink they hold the support entries, in order
    h, s, _ = frozen_model(workload, case_id)
    dense_vals, real = [], dd.exp_dd_steps
    monkeypatch.setattr(dd, "exp_dd_steps", lambda xs, dts, q=None:
                        dense_vals.append(real(xs, dts, q)) or dense_vals[-1])
    dense, supports = dense_coefficients(h, s)
    monkeypatch.undo()
    plan = dyson.SegmentPlan(h, s)
    starts = np.cumsum([1] + [len(v[0]) // h.dim for v in dense_vals])
    index = np.concatenate([sup + start * h.dim for sup, start in zip(supports, starts)])
    assert plan.dd_rows == len(index) < (len(plan) - 1) * h.dim
    assert np.array_equal(plan.entries, np.r_[np.arange(h.dim), index])
    term, z = np.divmod(index, h.dim)
    energies = h.h0_diag
    assert plan.gap.shape == plan.rates_sum.shape == plan.d_coeff.shape == (len(index),)
    assert np.array_equal(plan.gap, energies[z] - energies[z ^ plan.cum_mask[term]])
    for i, dt in enumerate(sorted({dt for _, dt in s.steps})):
        values = np.concatenate([v[i, sup] for v, sup in zip(dense_vals, supports)])
        np.testing.assert_allclose(plan.divided(dt), values, rtol=1e-12, atol=0)
    # at t_0 = 0 a coefficient is its divided difference times d_coeff
    assert s.steps[0][0] == 0.0
    np.testing.assert_allclose(plan.d_coeff * plan.divided(s.steps[0][1]),
                               dense[0].reshape(-1)[index], rtol=1e-12, atol=0)


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
                _, z_path, d_coeff = interaction_inputs(h, iq, kq, z)
                rates = [complex(h.vterms[i].exp_terms[k].rate[zj])
                         for i, k, zj in zip(iq, kq, z_path)]
                prev = (z,) + z_path
                ys = [-1j * (energies[prev[j]] - energies[z]) - sum(rates[:j])
                      for j in range(q + 1)]
                coeff = (np.exp((t_w + dt_w) * sum(rates))
                         * dd.exp_dd_steps([ys], [dt_w])[0, 0] * d_coeff)
                ref[z_path[-1], z] += (-1j) ** q * coeff
    ref = ref * np.exp(-1j * energies * dt_w)[None, :]
    alt = dyson.alt_segment_unitary(dyson.SegmentPlan(h, s), w)
    np.testing.assert_allclose(alt, ref, rtol=0, atol=1e-14)


def test_alt_reads_the_plan(monkeypatch):
    # given the run's plan, the alternative form evaluates no divided
    # difference, and its values are those of a fresh plan
    rng = np.random.default_rng(75)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    s = sched.build_schedule(h, 1.5, eps=1e-3)
    plan = dyson.SegmentPlan(h, s)
    fresh = {w: dyson.alt_segment_unitary(dyson.SegmentPlan(h, s), w) for w in (0, s.r - 1)}
    calls = []
    for name in ("exp_dd_steps", "exp_dd_batch"):
        real = getattr(dd, name)
        monkeypatch.setattr(dd, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    for w, alt in fresh.items():
        assert np.array_equal(dyson.alt_segment_unitary(plan, w), alt)
    assert calls == []
