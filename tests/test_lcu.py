"""Tests for the statevector LCU routine and oblivious amplitude amplification."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from dyson_reference import (dense_table, frozen_model, partial_support_models,
                             tiny_amplitude_model)
from permlcu import dd, dyson, lcu, oracle, pham, sched
from permlcu.models import (decay_spec, oscillating_hamiltonian, random_model_spec,
                            static_spec)

LN2 = math.log(2.0)


def haar_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def context(seg):
    return lcu.build_context(seg, lcu.RunTables(seg.plan))


def with_s(seg, s):
    """seg in a copy of its block whose normalization for seg is s."""
    per_segment = seg.block.s.copy()
    per_segment[seg.w - seg.block.start] = s
    return replace(seg, block=replace(seg.block, s=per_segment))


def build_pipeline(h, t_total, eps, mode=sched.MODE_EXACT, w=0):
    s = sched.build_schedule(h, t_total, eps=eps, mode=mode)
    seg = dyson.build_segment(dyson.SegmentPlan(h, s), w)
    return s, seg, context(seg)


# --- full-statevector reference: B, W and the OAA gate by gate on the joint state

def householder(b_amps):
    """The real reflection B = I - 2|u><u| = B^dag with B|0> = |b>, as the
    function applying it to an (ancilla, ...) array (a dense B would take
    ancilla_dim^2 entries)."""
    u = np.array(b_amps, dtype=float)
    u[0] -= 1.0
    u /= np.linalg.norm(u)
    return lambda joint: joint - 2.0 * np.multiply.outer(u, np.tensordot(u, joint, 1))


def apply_vc_dagger(ctx, joint):
    # XOR masks are involutions: the gather is its own inverse
    return ctx.phase_table.conj() * joint.ravel().take(ctx.gather).reshape(joint.shape)


def apply_w(ctx, b, joint):
    return b(lcu.apply_Vc(ctx, b(joint)))


def apply_w_dagger(ctx, b, joint):
    return b(apply_vc_dagger(ctx, b(joint)))


def full_statevector_oaa(ctx, psi):
    """-W R W^dag R W on |0> (x) psi over the whole (ancilla, system) state."""
    b = householder(ctx.b_amps)
    joint = np.zeros((ctx.layout.ancilla_dim, len(psi)), dtype=complex)
    joint[0] = psi
    return lcu.oaa_sequence(lambda j: apply_w(ctx, b, j),
                            lambda j: apply_w_dagger(ctx, b, j), joint)


# --- register layout ------------------------------------------------------------

def plan_layout(h, schedule):
    return lcu.RunTables(dyson.SegmentPlan(h, schedule)).layout


def test_layout_counts():
    # M = 2 masks with K = 2 terms each, Q = 3
    h = pham.from_pauli_spec(random_model_spec(np.random.default_rng(62), n=2, m_max=2, k_max=2))
    assert (len(h.vterms), h.num_exp_terms) == (2, 2)
    layout = plan_layout(h, replace(sched.build_schedule(h, 1.0, eps=1e-3), Q=3))
    assert layout.n_terms == 1 + 4 + 16 + 64 + 1  # Dyson terms plus the padding term
    assert layout.ancilla_dim == 2 * layout.n_terms
    assert layout.joint_dim == layout.ancilla_dim * 4


def test_layout_empty_interaction():
    h = pham.from_pauli_spec({"n": 1, "h0": [{"coupling": 1.0, "z_mask": "1"}]})
    layout = plan_layout(h, replace(sched.build_schedule(h, 1.0, eps=1e-3), Q=4))
    assert layout.n_terms == 2 and layout.ancilla_dim == 4
    _, _, ctx = build_pipeline(h, 1.0, 1e-3)
    assert ctx.layout.n_terms == 2 and ctx.layout.ancilla_dim == 4


@pytest.mark.parametrize("workload, joint_dim_max", [("c4-n2", 43696), ("osc-long", 512)])
def test_layout_on_frozen_cases(workload, joint_dim_max):
    # the layout counts the plan's terms plus the padding term; the largest
    # joint dimension is the one a traced benchmark run reports
    cases = {"c4-n2": ["m0", "m1", "m2", "m3", "m4"], "osc-long": ["a0", "a1e3", "a1e6"]}
    joint = []
    for case_id in cases[workload]:
        h, s, _ = frozen_model(workload, case_id)
        plan = dyson.SegmentPlan(h, s)
        tables = lcu.RunTables(plan)
        assert len(plan) == dyson.count_terms(h, s.Q) // h.dim
        assert tables.layout.n_terms == len(plan) + 1
        joint += [lcu.build_context(dyson.build_segment(plan, w), tables).layout.joint_dim
                  for w in range(s.r)]
    assert max(joint) == joint_dim_max


# --- cosine branches -----------------------------------------------------------

def test_cosine_branches_cases():
    plus, minus = lcu.cosine_branches(
        np.array([1.0 + 0.0j, 0.0j, 0.5 * np.exp(1j * math.pi / 3), 0.0j, 1.0 + 1e-10]),
        np.array([1.0, 1.0, 1.0, 0.0, 1.0]))
    assert plus[0] == 1.0 and minus[0] == 1.0
    assert plus[1] == 1j and minus[1] == -1j
    # u = e^{i pi/3} cos(pi/3): branches e^{i(pi/3 +- pi/3)}
    assert plus[2] == pytest.approx(np.exp(2j * math.pi / 3), abs=1e-15)
    assert minus[2] == pytest.approx(1.0, abs=1e-15)
    # zero-padded exponential term: zero coefficient on a zero bound
    assert plus[3] == 1j and minus[3] == -1j
    # |u| above 1 by roundoff is clamped to 1
    assert plus[4] == 1.0 and minus[4] == 1.0


def test_cosine_branches_reconstruction():
    rng = np.random.default_rng(52)
    bound = rng.uniform(0.1, 3.0, 100)
    coeff = bound * rng.uniform(0, 1, 100) * np.exp(1j * rng.uniform(-np.pi, np.pi, 100))
    plus, minus = lcu.cosine_branches(coeff, bound)
    rebuilt = bound / 2 * (plus + minus)
    assert (np.abs(rebuilt - coeff) < 1e-12 * np.maximum(1.0, bound)).all()
    assert (np.abs(np.abs(plus) - 1.0) <= 1e-15).all()
    assert (np.abs(np.abs(minus) - 1.0) <= 1e-15).all()


def test_cosine_branches_rejects_bound_violation():
    # |c|/bound above 1 + 1e-9, nonzero coefficient on a zero bound, negative bound
    for coeff, bound, message in ((1.1 + 0.0j, 1.0, "exceeds 1 beyond roundoff"),
                                  (0.5 + 0.0j, 0.0, "nonzero coefficient on a zero bound"),
                                  (0.0j, -1.0, "negative bound")):
        with pytest.raises(lcu.TermBoundError, match=message):
            lcu.cosine_branches(np.array([0.5 + 0.0j, coeff]), np.array([1.0, bound]))


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e308),
       st.floats(min_value=1.0, max_value=1e6))
def test_cosine_branches_property(coeff, slack):
    # any finite coefficient under its bound: unit-modulus branches that rebuild it
    bound = abs(coeff) * slack
    assume(math.isfinite(bound))
    plus, minus = lcu.cosine_branches(np.array([coeff]), np.array([bound]))
    assert abs(bound / 2 * (plus[0] + minus[0]) - coeff) <= 1e-15 * max(1.0, bound)
    assert abs(abs(plus[0]) - 1.0) <= 1e-15 and abs(abs(minus[0]) - 1.0) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(allow_nan=False, allow_infinity=False, min_magnitude=1e-300,
                          max_magnitude=1e300),
       st.floats(min_value=1.0 + 2e-9, max_value=1e6))
def test_cosine_branches_property_rejects_excess(coeff, excess):
    # a coefficient above its bound by more than 2e-9 relative is a violation
    # (the magnitude floor keeps |coeff|/excess a normal float, so that the
    # bound is the one asked for)
    bound = abs(coeff) / excess
    with pytest.raises(lcu.TermBoundError):
        lcu.cosine_branches(np.array([coeff]), np.array([bound]))


# --- state preparation ------------------------------------------------------------

def test_prepare_b_order_zero():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    s = sched.build_schedule(h, 1.0, eps=1e-3)
    seg = dyson.build_segment(dyson.SegmentPlan(h, replace(s, Q=0)), 0)
    ctx = context(seg)
    assert seg.s == 1.0
    # the q = 0 term and the padding term 2 - s = 1, a quarter per x branch
    np.testing.assert_allclose(ctx.b_amps, [0.5] * 4, rtol=1e-14)


def test_prepare_b_static_first_order():
    # M = K = 1, lambda = 0: weights {1, ln2, 2 - s}/4 with s = 1 + ln2
    h = pham.from_pauli_spec(static_spec(0.0, 1.0))
    s = sched.build_schedule(h, 10.0, eps=1e-3)
    seg = dyson.build_segment(dyson.SegmentPlan(h, replace(s, Q=1)), 0)
    ctx = context(seg)
    assert seg.s == pytest.approx(1 + LN2, rel=1e-12)
    expect = np.sqrt(np.array([1.0, 1.0, LN2, LN2, 1 - LN2, 1 - LN2]) / 4)
    np.testing.assert_allclose(ctx.b_amps, expect, rtol=1e-12)


def test_prepare_b_uniform_mode_equal_amplitudes():
    rng = np.random.default_rng(60)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2, m_max=2, k_max=1))
    s = sched.build_schedule(h, 2.0, eps=1e-3, mode=sched.MODE_UNIFORM)
    seg = dyson.build_segment(dyson.SegmentPlan(h, replace(s, Q=1)), 0)
    ctx = context(seg)
    order1 = ctx.b_amps[2:-2]
    assert np.ptp(order1) < 1e-14  # every (i, k, x) weight identical at fixed q


def test_prepare_b_householder_unitary():
    h = oscillating_hamiltonian(1.0, 1.0, 5.0)
    _, seg, ctx = build_pipeline(h, 1.0, 1e-3)
    b = householder(ctx.b_amps)
    e0 = np.zeros((ctx.layout.ancilla_dim, 1))
    e0[0, 0] = 1.0
    np.testing.assert_allclose(b(e0)[:, 0], ctx.b_amps, atol=1e-13)
    rng = np.random.default_rng(61)
    v = rng.normal(size=(ctx.layout.ancilla_dim, 3))
    np.testing.assert_allclose(b(b(v)), v, atol=1e-12)
    dense = b(np.eye(ctx.layout.ancilla_dim))
    np.testing.assert_allclose(dense, dense.T, atol=1e-15)


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
    coeff = dense_table(seg.plan, tab.values)
    assert seg.plan.q[1] == 1 and seg.plan.cum_mask[1] == 1
    a = 2 * 1  # ancilla row of (term 1, x=0): (-i) c+ with c+ = u + i sqrt(1 - |u|^2) u/|u|
    # u = coeff/bound is 0 at z = 0, where c+ is i, and 1 at z = 1
    assert coeff[1, 0] == 0.0
    u = coeff[1, 1] / tab.bound[1]
    assert u == pytest.approx(1.0, rel=1e-14)
    joint = np.zeros((ctx.layout.ancilla_dim, 2), dtype=complex)
    joint[a, 0] = 1.0
    out = lcu.apply_Vc(ctx, joint)
    assert out[a, 1] == -1j * 1j
    assert out[a, 0] == 0.0
    joint[a] = [0.0, 1.0]
    out = lcu.apply_Vc(ctx, joint)
    expect = -1j * (u + 1j * math.sqrt(max(0.0, 1.0 - abs(u) ** 2)) * u / abs(u))
    assert out[a, 0] == pytest.approx(expect, abs=1e-7)
    assert out[a, 1] == 0.0


def test_context_tables_match_term_loop():
    # the sliced tables equal the per-term construction; one term per
    # ancilla pair (2t, 2t + 1) with its two cosine branches, and last the
    # padding term: bound 2 - s, identity, branches exactly +-i.  b_amps and
    # gather are bitwise; the phases are compared with the trig form
    # (-i)^q e^{i(+-phi + theta)}, phi = arccos|u|, theta = arg u, which
    # differs from the algebraic branches by roundoff (2.3e-13 at worst on
    # this model, where |u| is near 1 and sqrt(1 - |u|^2) is ill-conditioned)
    rng = np.random.default_rng(75)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    for mode in (sched.MODE_EXACT, sched.MODE_UNIFORM):
        _, seg, ctx = build_pipeline(h, 2.0, 1e-3, mode=mode)
        tab = seg.blocks
        table = dense_table(seg.plan, tab.values)
        b = np.zeros(ctx.layout.ancilla_dim)
        phases = np.zeros((ctx.layout.ancilla_dim, h.dim), dtype=complex)
        gather = np.zeros(ctx.layout.joint_dim, dtype=np.int64)
        masks = [int(m) for m in seg.plan.cum_mask] + [0]
        for t in range(len(tab)):
            b[2 * t] = b[2 * t + 1] = math.sqrt(tab.bound[t] / 4.0)
            factor = (-1j) ** int(seg.plan.q[t])
            u = table[t] / tab.bound[t] if tab.bound[t] > 0 else np.zeros(h.dim)
            phi, theta = np.arccos(np.minimum(np.abs(u), 1.0)), np.angle(u)
            phases[2 * t] = factor * np.exp(1j * (phi + theta))
            phases[2 * t + 1] = factor * np.exp(1j * (-phi + theta))
        b[-2] = b[-1] = math.sqrt((2.0 - seg.s) / 4.0)
        phases[-2], phases[-1] = 1j, -1j
        for a in range(ctx.layout.ancilla_dim):  # row a reads z ^ mask of its term
            for z in range(h.dim):
                gather[a * h.dim + z] = a * h.dim + (masks[a // 2] ^ z)
        assert np.array_equal(ctx.b_amps, b / np.linalg.norm(b))
        np.testing.assert_allclose(ctx.phase_table, phases, rtol=0, atol=1e-12)
        assert np.array_equal(ctx.phase_table[-2:], phases[-2:])
        assert np.array_equal(ctx.gather, gather)
        # each branch pair rebuilds its coefficient and has unit modulus
        unfactor = np.append(seg.plan.factors, 1.0).conj()[:, None]  # exact: +-1, +-i
        plus, minus = unfactor * ctx.phase_table[0::2], unfactor * ctx.phase_table[1::2]
        bound = np.append(tab.bound, 2.0 - seg.s)[:, None]
        coeff = np.vstack([table, np.zeros(h.dim)])
        assert (np.abs(bound / 2 * (plus + minus) - coeff)
                <= 1e-15 * np.maximum(1.0, bound)).all()
        assert (np.abs(np.abs(plus) - 1.0) <= 1e-15).all()
        assert (np.abs(np.abs(minus) - 1.0) <= 1e-15).all()


def test_context_rejects_normalization_above_two():
    # the padding term's bound 2 - s must not be negative
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    _, seg, _ = build_pipeline(h, 1.0, 1e-3)
    with pytest.raises(lcu.TermBoundError, match="negative bound"):
        context(with_s(seg, 2.0 + 1e-9))


def test_context_names_the_segment_whose_preparation_drifts():
    # an s below the table's own normalization leaves the preparation
    # weights 0.1/2 above unit norm
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    _, seg, _ = build_pipeline(h, 2.0, 1e-3, w=1)
    with pytest.raises(lcu.TermBoundError,
                       match="segment 1: preparation amplitudes drifted from unit norm by 5.00e-02"):
        context(with_s(seg, seg.s - 0.1))


def full_table_contexts(seg):
    """(phase tables, preparation weights) of seg's block built the direct
    way: cosine_branches over every entry of each segment's whole table,
    the padding row included, then the factors (-i)^q row by row."""
    block, plan = seg.block, seg.plan
    n_seg, dim = len(block.s), plan.h.dim
    coeff = np.concatenate([dense_table(plan, block.values),
                            np.zeros((n_seg, 1, dim), dtype=complex)], axis=1)
    bound = np.concatenate([block.bound, (2.0 - block.s)[:, None]], axis=1)
    plus, minus = lcu.cosine_branches(coeff, bound[:, :, None])
    factors = np.append(plan.factors, 1.0)[:, None]
    phases = np.empty((n_seg, 2 * len(factors), dim), dtype=complex)
    np.multiply(factors, plus, out=phases[:, 0::2])
    np.multiply(factors, minus, out=phases[:, 1::2])
    b = np.repeat(np.sqrt(bound / 4.0), 2, axis=1)
    b /= np.sqrt([row @ row for row in b])[:, None]
    return phases, b


def assert_contexts_equal_full_table(h, s):
    # the support-only build is byte-equal to the direct one, signed zeros included
    plan = dyson.SegmentPlan(h, s)
    tables = lcu.RunTables(plan)
    for w in range(s.r):
        seg = dyson.build_segment(plan, w)
        ctx = lcu.build_context(seg, tables)
        if w == seg.block.start:
            phases, b = full_table_contexts(seg)
        assert ctx.phase_table.tobytes() == phases[w - seg.block.start].tobytes(), w
        assert ctx.b_amps.tobytes() == b[w - seg.block.start].tobytes(), w


@pytest.mark.parametrize("workload, case_id", [
    ("c4-n2", c) for c in ("m0", "m1", "m2", "m3", "m4")] + [
    ("osc-long", c) for c in ("a0", "a1e3", "a1e6")])
def test_contexts_equal_full_table_branches_on_frozen_cases(workload, case_id):
    # m0 is all support, m1-m4 and osc-long partly; m2-m4's tables pass lcu._SWAP_BYTES
    h, s, _ = frozen_model(workload, case_id)
    assert_contexts_equal_full_table(h, s)


@settings(max_examples=25, deadline=None)
@given(partial_support_models())
def test_contexts_equal_full_table_branches(case):
    # zero-padded K and zero amplitude entries, in both modes
    assert_contexts_equal_full_table(*case)


@pytest.mark.parametrize("mode", [sched.MODE_EXACT, sched.MODE_UNIFORM])
def test_contexts_equal_full_table_branches_at_tiny_amplitudes(mode):
    h = tiny_amplitude_model()
    assert_contexts_equal_full_table(h, sched.build_schedule(h, 1.3, eps=1e-3, mode=mode))


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
        b = householder(ctx.b_amps)
        useg = seg.matrix()
        for _ in range(3):
            psi = haar_state(rng, h.dim)
            joint = np.zeros((ctx.layout.ancilla_dim, h.dim), dtype=complex)
            joint[0] = psi
            out = apply_w(ctx, b, joint)
            block = ctx.b_amps @ lcu.apply_Vc(ctx, np.outer(ctx.b_amps, psi))  # <b|V_c|b> psi
            expect = useg @ psi / 2.0  # the padding term brings s to 2
            assert np.linalg.norm(block - expect) < 1e-10
            assert np.linalg.norm(out[0] - block) < 1e-13
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
    seg = dyson.build_segment(dyson.SegmentPlan(h, s), 0)
    ctx = context(seg)
    psi = np.array([0.6, 0.8])
    out = lcu.apply_A(ctx, psi)
    assert out.shape == (2,)
    np.testing.assert_allclose(out, psi, atol=1e-12)


def test_apply_a_residual_within_budget():
    h = oscillating_hamiltonian(1.0, 1.0, 4.0)
    eps = 1e-3
    s, seg, ctx = build_pipeline(h, 2.0, eps)
    rng = np.random.default_rng(66)
    useg = seg.matrix()
    for _ in range(5):
        psi = haar_state(rng, 2)
        block = lcu.apply_A(ctx, psi)
        ref = useg @ psi
        assert np.linalg.norm(block - ref) <= 3 * eps / s.r
        assert abs(np.linalg.norm(block) - 1.0) < 1e-12


def test_apply_a_requires_zero_ancilla():
    # apply_A takes the system vector: the ancilla starts in |0...0> by
    # construction, and a joint state or a wrong length is refused by shape
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    _, seg, ctx = build_pipeline(h, 1.0, 1e-3)
    joint = np.zeros((ctx.layout.ancilla_dim, 2), dtype=complex)
    joint[3, 0] = 1.0
    for bad in (joint, np.ones(4), np.ones((1, 2)), 1.0):
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            lcu.apply_A(ctx, bad)


def _random_contexts():
    # n <= 2 random models in both modes: first and clamped final segment
    for seed in range(4):
        rng = np.random.default_rng(90 + seed)
        h = pham.from_pauli_spec(random_model_spec(rng, n=1 + seed % 2))
        for mode in (sched.MODE_EXACT, sched.MODE_UNIFORM):
            s = sched.build_schedule(h, 1.3, eps=1e-3, mode=mode)
            assert s.final_step_clamped
            plan = dyson.SegmentPlan(h, s)
            for w in sorted({0, s.r - 1}):
                yield h, context(dyson.build_segment(plan, w))
    h = pham.from_pauli_spec({"n": 2, "h0": [{"coupling": 0.9, "z_mask": "01"}]})
    yield h, build_pipeline(h, 1.0, 1e-3)[2]  # empty interaction


def test_apply_a_matches_full_statevector_oaa():
    # the folded form equals row 0 of -W R W^dag R W on the whole joint state,
    # with B built here as a dense Householder matrix from the weights
    rng = np.random.default_rng(91)
    checked = 0
    for h, ctx in _random_contexts():
        for _ in range(2):
            psi = haar_state(rng, h.dim)
            full = full_statevector_oaa(ctx, psi)
            assert np.linalg.norm(lcu.apply_A(ctx, psi) - full[0]) <= 1e-13
            checked += 1
    assert checked == 2 * (4 * 2 * 2 + 1)


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

FROZEN_CASES = [("c4-n2", c) for c in ("m0", "m1", "m2", "m3", "m4")] + [
    ("osc-long", c) for c in ("a0", "a1e3", "a1e6")]


@pytest.mark.parametrize("workload, case_id", FROZEN_CASES)
def test_run_full_does_not_depend_on_the_block_size(workload, case_id, monkeypatch):
    # one segment per block, the default, and the whole run in one block
    # (c4-n2 m0's whole-run LCU tables pass lcu._SWAP_BYTES)
    h, _, case = frozen_model(workload, case_id)
    psi = haar_state(np.random.default_rng(16), h.dim)
    runs = []
    for budget in (0, dyson.BLOCK_BYTES, 1 << 40):
        monkeypatch.setattr(dyson, "BLOCK_BYTES", budget)
        final, diag = lcu.run_full(h, case["t_total"], case["eps"], psi, mode=case["mode"])
        runs.append((final.system_block(0), diag["residuals"], diag["deficits"]))
    for run in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], run))


def test_apply_and_run_full_keep_their_operand_order_past_the_elision_size(monkeypatch):
    # 21,824 support entries, 341 KiB of values: at 256 KiB and above numpy
    # may compute a product into its right-hand temporary with the operands
    # swapped, which rounds the imaginary part differently under FMA
    h = pham.from_pauli_spec(random_model_spec(np.random.default_rng(1), n=4, m_max=2))
    s = sched.build_schedule(h, 0.5, eps=1e-3)
    plan = dyson.SegmentPlan(h, s)
    assert (len(plan.entries) - h.dim) * 16 > 1 << 18
    psi = haar_state(np.random.default_rng(17), h.dim)
    seg = dyson.build_segment(plan, s.r - 1)
    coeff = dense_table(plan, seg.blocks.values)
    on = np.zeros(len(plan) * h.dim, dtype=bool)
    on[plan.entries] = True
    on = on.reshape(len(plan), h.dim)
    loop = np.zeros(h.dim, dtype=complex)
    for t in range(1, len(plan)):  # coeff * ((-i)^q psi[z]), added at z ^ cum_mask in table order
        z = np.flatnonzero(on[t])
        rotated = (-1j) ** int(plan.q[t]) * psi[z]  # exact: a swap and signs
        np.add.at(loop, z ^ plan.cum_mask[t], np.multiply(coeff[t, z], rotated))
    assert seg.apply(psi).tobytes() == (psi + loop).tobytes()
    runs = []
    for budget in (0, dyson.BLOCK_BYTES, 1 << 40):
        monkeypatch.setattr(dyson, "BLOCK_BYTES", budget)
        final, diag = lcu.run_full(h, 0.5, 1e-3, psi)
        runs.append((final.system_block(0).tobytes(), np.array(diag["residuals"]).tobytes()))
    assert runs[0] == runs[1] == runs[2]


def test_run_full_v_zero_is_diagonal_phase():
    h = pham.from_pauli_spec({"n": 2, "h0": [{"coupling": 0.4, "z_mask": "01"},
                                             {"coupling": -0.9, "z_mask": "11"}]})
    psi = haar_state(np.random.default_rng(68), 4)
    final, diag = lcu.run_full(h, 2.5, 1e-3, psi)
    expect = np.exp(-1j * h.h0_diag * 2.5) * psi
    np.testing.assert_allclose(final.system_block(0), expect, atol=1e-12)
    assert diag["r"] == 1 and abs(diag["total_deficit"]) <= 1e-12
    assert set(diag) == {"r", "Q", "residuals", "deficits", "total_deficit", "dd_rows"}
    assert diag["dd_rows"] == 0
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
    assert diag["r"] == sched.build_schedule(h, t_total, eps=1e-3).r
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
    seg = dyson.build_segment(dyson.SegmentPlan(h, s), 0)
    n_ik = len(h.vterms) * h.num_exp_terms
    gmax = max(et.amp_max for term in h.vterms for et in term.exp_terms)
    u = n_ik * gmax * np.exp(s.steps[0][0] * s.lam) * s.dt_tilde(0)
    expect = sum(u**q / math.factorial(q) for q in range(s.Q + 1))
    assert seg.s == pytest.approx(expect, rel=1e-12)


def test_run_full_size_guard():
    h = pham.from_pauli_spec({"n": 9, "v": [{"pauli": "X" + "I" * 8, "coeff": [
        {"amp": [0.5, 0.0], "rate": [0.0, 0.0]}]}]})
    with pytest.raises(ValueError):
        lcu.run_full(h, 1.0, 1e-3, np.ones(512) / math.sqrt(512))


@pytest.mark.parametrize("psi, condition", [
    ([np.inf, 0, 0, 0], "finite"),
    ([np.nan, 1, 0, 0], "finite"),
    ([1e200, 1e200, 0, 0], "finite"),       # finite entries, overflowing norm
    ([0, 0, 0, 0], "nonzero"),
    ([1, 0], "length 4"),
    ([[1, 0, 0, 0]], "1-D"),
])
def test_run_full_rejects_bad_initial_states(psi, condition, monkeypatch):
    # one typed check, before the schedule is built
    h = pham.from_pauli_spec(random_model_spec(np.random.default_rng(5), n=2))
    monkeypatch.setattr(sched, "build_schedule", lambda *args, **kwargs: pytest.fail("built"))
    with pytest.raises(ValueError, match=condition):
        lcu.run_full(h, 1.0, 1e-3, np.array(psi, dtype=complex))


def test_run_full_abort_on_tiny_budget(monkeypatch):
    # healthy direction residuals sit at machine level; a sub-eps budget
    # exercises the abort path and its attached diagnostics
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    psi = np.array([1.0, 0.0], dtype=complex)
    monkeypatch.setattr(lcu, "RESIDUAL_ABORT", 1e-13)
    with pytest.raises(lcu.SimulationAbort) as exc:
        lcu.run_full(h, 2.0, 1e-3, psi)
    assert set(exc.value.diagnostics) == {"residuals", "deficits"}


@pytest.mark.parametrize("workload, case_id", FROZEN_CASES)
def test_matrix_free_residuals_match_the_dense_operator(workload, case_id):
    # run_full's residuals against the dense matrix() @ psi, segment by segment
    h, s, case = frozen_model(workload, case_id)
    psi = haar_state(np.random.default_rng(18), h.dim)
    _, diag = lcu.run_full(h, case["t_total"], case["eps"], psi, mode=case["mode"])
    psi = psi / np.linalg.norm(psi)  # as run_full normalizes it
    plan = dyson.SegmentPlan(h, s)
    tables = lcu.RunTables(plan)
    for w, residual in enumerate(diag["residuals"]):
        seg = dyson.build_segment(plan, w)
        block = lcu.apply_A(lcu.build_context(seg, tables), psi)
        dense = seg.matrix() @ psi
        free = seg.apply(psi)
        assert np.linalg.norm(free - dense) <= 1e-14
        new_psi = block / np.linalg.norm(block)
        assert abs(residual - np.linalg.norm(new_psi - dense / np.linalg.norm(dense))) <= 1e-15
        psi = new_psi


def test_run_full_abort_names_the_first_failing_segment(monkeypatch):
    # a budget between a later segment's residual and every earlier one's
    h, s, case = frozen_model("osc-long", "a1e3")
    psi = haar_state(np.random.default_rng(19), h.dim)
    _, diag = lcu.run_full(h, case["t_total"], case["eps"], psi)
    res = diag["residuals"]
    first = next(w for w in range(1, s.r) if res[w] > max(res[:w]))
    budget = (res[first] + max(res[:first])) / 2
    monkeypatch.setattr(lcu, "RESIDUAL_ABORT", budget * s.r / case["eps"])
    with pytest.raises(lcu.SimulationAbort, match=f"^segment {first} residual ") as exc:
        lcu.run_full(h, case["t_total"], case["eps"], psi)
    assert exc.value.diagnostics["residuals"] == res[:first + 1]
    assert exc.value.diagnostics["deficits"] == diag["deficits"][:first + 1]


def test_run_full_aborts_on_non_finite_state(monkeypatch):
    # a NaN residual fails the budget check instead of passing it; numpy
    # warns on the way, when the NaN block is normalized
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    real = lcu.apply_A
    monkeypatch.setattr(lcu, "apply_A", lambda ctx, psi: real(ctx, psi) * np.nan)
    with pytest.warns(RuntimeWarning), pytest.raises(lcu.SimulationAbort,
                                                     match="segment 0 residual nan"):
        lcu.run_full(h, 2.0, 1e-3, np.array([1.0, 0.0], dtype=complex))


def test_run_full_divided_difference_work_per_run(monkeypatch):
    # each run makes one divided-difference call for the rows of all
    # orders, at every distinct step length of its schedule (two for the
    # oscillating model at alpha = 0 over T = 10), and a second run repeats
    # all of it
    h = oscillating_hamiltonian(1.0, 1.0, 0.0)
    psi = np.full(2, 1 / math.sqrt(2), dtype=complex)
    steps, orders = [], []
    real = dd.exp_dd_steps
    monkeypatch.setattr(dd, "exp_dd_steps", lambda xs, dts, q=None:
                        steps.append(len(dts)) or orders.append(set(q)) or real(xs, dts, q))
    first_final, diag = lcu.run_full(h, 10.0, 1e-3, psi)
    first = len(steps)
    second_final, _ = lcu.run_full(h, 10.0, 1e-3, psi)
    assert diag["r"] == 29 and first == 1 and steps == [2, 2]
    assert orders == [set(range(1, diag["Q"] + 1))] * 2 and diag["dd_rows"] == 12
    assert np.array_equal(first_final.system_block(0), second_final.system_block(0))


def test_run_full_reports_the_rows_it_evaluates(monkeypatch):
    # dd_rows counts the plan rows whose divided differences a run
    # evaluates: on the frozen c4-n2 case m4, its amplitude support of 4,368
    # rows out of 21,840
    h, s, case = frozen_model("c4-n2", "m4")
    handed = []
    real = dd.exp_dd_steps
    monkeypatch.setattr(dd, "exp_dd_steps",
                        lambda xs, dts, q=None: handed.append(len(xs)) or real(xs, dts, q))
    _, diag = lcu.run_full(h, case["t_total"], case["eps"], np.full(h.dim, 0.5, dtype=complex),
                           mode=case["mode"])
    assert (diag["r"], diag["Q"]) == (case["expect"]["r"], case["expect"]["Q"]) == (s.r, s.Q)
    assert len(handed) == 1  # one call per run
    assert diag["dd_rows"] == sum(handed) == 4368


def test_run_full_builds_one_statevector(monkeypatch):
    # the segments work on system vectors; the only ancilla-sized state is
    # the returned one
    h = oscillating_hamiltonian(1.0, 1.0, 3.0)
    made = []
    real = lcu.Statevector.__init__
    monkeypatch.setattr(lcu.Statevector, "__init__",
                        lambda self, *args, **kwargs: made.append(1) or real(self, *args, **kwargs))
    final, diag = lcu.run_full(h, 2.0, 1e-3, np.array([1.0, 0.0], dtype=complex))
    assert diag["r"] > 1 and len(made) == 1
    assert final.amps.shape == (final.layout.ancilla_dim, 2)
