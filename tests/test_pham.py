"""Tests for the permutation-expanded Hamiltonian model and its parser."""
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlcu import costcli, pham
from permlcu.models import (decay_spec, oscillating_hamiltonian, oscillating_spec,
                            random_model_spec, static_spec)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def naive_matrix(spec, t):
    """Independent oracle: assemble H(t) from Kronecker products of Pauli matrices."""
    n = spec["n"]

    def string_matrix(s):
        out = np.ones((1, 1), dtype=complex)
        for j in range(n - 1, -1, -1):  # qubit j lives on bit j (little-endian)
            out = np.kron(out, PAULI[s[j]])
        return out

    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for entry in spec.get("h0", []):
        s = "".join("Z" if c == "1" else "I" for c in entry["z_mask"])
        h += entry["coupling"] * string_matrix(s)
    for entry in spec.get("v", []):
        coeff = sum(complex(*c["amp"]) * np.exp(complex(*c["rate"]) * t)
                    for c in entry["coeff"])
        h += coeff * string_matrix(entry["pauli"])
    return h


# --- parsing ----------------------------------------------------------------

def test_xxy_static_factorization():
    # X (x) X (x) Y factors as (I (x) I (x) -iZ)(X (x) X (x) X)
    spec = {"n": 3, "v": [{"pauli": "XXY",
                           "coeff": [{"amp": [1.0, 0.0], "rate": [0.0, 0.0]}]}]}
    h = pham.from_pauli_spec(spec)
    assert len(h.vterms) == 1
    term = h.vterms[0]
    assert term.mask == 0b111
    assert term.locality == 3
    z = np.arange(8)
    expected = -1j * (1 - 2 * ((z >> 2) & 1))
    np.testing.assert_allclose(term.exp_terms[0].amp, expected, atol=1e-15)
    np.testing.assert_allclose(pham.eval_V(h, 0.3), naive_matrix(spec, 0.3), atol=1e-12)


def test_pure_z_goes_to_h0():
    spec = {"n": 1, "h0": [{"coupling": 1.0, "z_mask": "1"}], "v": []}
    h = pham.from_pauli_spec(spec)
    assert h.vterms == ()
    np.testing.assert_allclose(h.h0_diag, [1.0, -1.0])
    np.testing.assert_allclose(pham.eval_H(h, 2.0), np.diag([1.0, -1.0]))


def test_oscillating_model_merges_to_ladder_amps():
    gamma, alpha = 0.7, 2.5
    h = pham.from_pauli_spec(oscillating_spec(1.0, gamma, alpha))
    assert len(h.vterms) == 1
    term = h.vterms[0]
    assert term.mask == 1
    assert len(term.exp_terms) == 2
    rates = sorted(et.rate[0].imag for et in term.exp_terms)
    assert rates == pytest.approx([-alpha, alpha])
    for et in term.exp_terms:
        if et.rate[0].imag < 0:
            np.testing.assert_allclose(et.amp, [gamma, 0.0], atol=1e-14)
        else:
            np.testing.assert_allclose(et.amp, [0.0, gamma], atol=1e-14)


def test_oscillating_direct_matches_parsed():
    h_spec = pham.from_pauli_spec(oscillating_spec(1.0, 0.8, 3.0))
    h_direct = oscillating_hamiltonian(1.0, 0.8, 3.0)
    for t in (0.0, 0.4, 1.7):
        np.testing.assert_allclose(pham.eval_H(h_spec, t), pham.eval_H(h_direct, t),
                                   atol=1e-13)


def test_h0_diag_matches_zterm_expansion():
    rng = np.random.default_rng(5)
    spec = random_model_spec(rng, n=3)
    h = pham.from_pauli_spec(spec)
    z = np.arange(h.dim)
    rebuilt = np.zeros(h.dim)
    for coupling, zmask in h.h0_zterms:
        parity = np.bitwise_count(np.uint64(zmask) & z.astype(np.uint64)).astype(int) & 1
        rebuilt = rebuilt + coupling * (1 - 2 * parity)
    np.testing.assert_allclose(h.h0_diag, rebuilt, atol=1e-13)


def test_rejects_non_hermitian():
    spec = {"n": 1, "v": [{"pauli": "X",
                           "coeff": [{"amp": [1.0, 0.0], "rate": [0.0, 1.0]}]}]}
    with pytest.raises(pham.HamiltonianSpecError):
        pham.from_pauli_spec(spec)


def test_rejects_schema_violations():
    with pytest.raises(pham.HamiltonianSpecError):
        pham.from_pauli_spec({"n": 0})
    with pytest.raises(pham.HamiltonianSpecError):
        pham.from_pauli_spec({"n": 13})
    with pytest.raises(pham.HamiltonianSpecError):
        pham.from_pauli_spec({"n": 1, "v": [{"pauli": "Q", "coeff": [
            {"amp": [1, 0], "rate": [0, 0]}]}]})
    with pytest.raises(pham.HamiltonianSpecError):
        pham.from_pauli_spec({"n": 1, "h0": [{"coupling": 1.0, "z_mask": "10"}]})
    with pytest.raises(pham.HamiltonianSpecError):
        pham.from_pauli_spec({"n": 1, "bogus": []})


def _valid_spec(n):
    return {"n": n, "h0": [{"coupling": 0.7, "z_mask": "1" * n}],
            "v": [{"pauli": "X" * n, "coeff": [{"amp": [0.5, 0.0], "rate": [-0.1, 0.0]}]}]}


_BAD_REALS = st.sampled_from([True, False, None, "1", [1.0], {}, math.inf, -math.inf,
                              math.nan, 10**400, -10**400])
_NOT_LISTS = st.sampled_from([5, 1.5, "x", {}, None, True])
_HUGE = st.floats(0.9 * sys.float_info.max, sys.float_info.max)


@st.composite
def broken_specs(draw):
    """A valid spec with one defect: malformed, non-finite, overflowing or non-Hermitian."""
    n = draw(st.integers(1, 3))
    spec = _valid_spec(n)
    coeff = spec["v"][0]["coeff"][0]
    kind = draw(st.integers(0, 10))
    if kind == 0:
        return draw(st.sampled_from([[], "x", 5, None, {**spec, "extra": 1}]))
    if kind == 1:
        spec["n"] = draw(st.sampled_from([True, 0, -1, 1.0, "1", None, 13, 10**400]))
    elif kind == 2:
        spec[draw(st.sampled_from(["h0", "v"]))] = draw(_NOT_LISTS)
    elif kind == 3:
        spec["v"][0]["coeff"] = draw(st.one_of(_NOT_LISTS, st.just([])))
    elif kind == 4:
        spec["h0"][0]["coupling"] = draw(_BAD_REALS)
    elif kind == 5:
        coeff[draw(st.sampled_from(["amp", "rate"]))][draw(st.integers(0, 1))] = draw(_BAD_REALS)
    elif kind == 6:
        key = draw(st.sampled_from(["h0", "v"]))
        spec[key][0] = draw(st.sampled_from([5, [], {}, {"pauli": "X" * n}, {"coupling": 1.0},
                                             {**spec[key][0], "extra": 1}]))
    elif kind == 7:
        entry = draw(st.sampled_from(["pauli", "z_mask"]))
        target = spec["v"][0] if entry == "pauli" else spec["h0"][0]
        target[entry] = draw(st.sampled_from(["Q" * n, "X" * (n + 1), "", 1, None, "2" * n]))
    elif kind == 8:  # two couplings whose sum overflows the h0 diagonal
        c = draw(_HUGE) * draw(st.sampled_from([1.0, -1.0]))
        spec["h0"] = [{"coupling": c, "z_mask": "1" * n}] * 2
    elif kind == 9:  # amplitudes of one mask and rate whose sum or modulus overflows
        a = draw(_HUGE)
        amps = draw(st.sampled_from([[[a, 0.0], [a, 0.0]], [[a, a]]]))
        spec["v"].append({"pauli": "Z" * n, "coeff": [
            {"amp": amp, "rate": [0.0, 0.0]} for amp in amps]})
    else:  # an imaginary amplitude on X, or a complex rate without its partner
        if draw(st.booleans()):
            coeff["amp"][1] = draw(st.floats(0.1, 10.0))
        else:
            coeff["rate"][1] = draw(st.floats(0.1, 10.0))
    return spec


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fuzz_base_spec_is_valid(n):
    h = pham.from_pauli_spec(_valid_spec(n))
    assert h.n == n and len(h.vterms) == 1


@settings(max_examples=300, deadline=None)
@given(broken_specs())
def test_fuzz_broken_specs_raise_spec_error(spec):
    with pytest.raises(pham.HamiltonianSpecError):
        pham.from_pauli_spec(spec)


@pytest.mark.parametrize("spec", [
    {"n": 1, "h0": 5},
    {"n": 1, "v": [{"pauli": "Z", "coeff": [{"amp": [1e308, 0.0], "rate": [0.0, 0.0]}] * 2},
                   {"pauli": "X", "coeff": [{"amp": [1.0, 0.0], "rate": [0.0, 0.0]}]}]},
])
def test_cli_schedule_exits_2_on_broken_spec(tmp_path, capsys, spec):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    assert costcli.main(["schedule", str(path), "--time", "1.0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# --- evaluation -------------------------------------------------------------

def test_eval_v_oscillating_at_zero_is_gamma_x():
    h = pham.from_pauli_spec(oscillating_spec(1.0, 0.9, 4.0))
    np.testing.assert_allclose(pham.eval_V(h, 0.0), 0.9 * PAULI["X"], atol=1e-14)


def test_eval_v_decay_half_life():
    gamma, alpha = 1.3, 0.8
    h = pham.from_pauli_spec(decay_spec(1.0, gamma, alpha))
    t_half = math.log(2.0) / alpha
    np.testing.assert_allclose(pham.eval_V(h, t_half), gamma / 2 * PAULI["X"], atol=1e-13)


def test_eval_v_matches_naive_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        spec = random_model_spec(rng, n=2)
        h = pham.from_pauli_spec(spec)
        hv = pham.eval_V(h, 0.37)
        naive = naive_matrix(spec, 0.37)
        naive[np.arange(4), np.arange(4)] -= h.h0_diag
        np.testing.assert_allclose(hv, naive, atol=1e-12)
        np.testing.assert_allclose(pham.eval_H(h, 0.37), naive_matrix(spec, 0.37),
                                   atol=1e-12)


def test_eval_h_hermitian_sampled():
    rng = np.random.default_rng(7)
    h = pham.from_pauli_spec(random_model_spec(rng, n=3))
    for t in rng.uniform(0, 3, 100):
        mat = pham.eval_H(h, float(t))
        assert np.abs(mat - mat.conj().T).max() < 1e-10


# --- norms and rates --------------------------------------------------------

def test_gamma_bound_oscillating_literal_formula():
    gamma = 0.6
    h = pham.from_pauli_spec(oscillating_spec(1.0, gamma, 5.0))
    # two single-entry amplitude terms, each with max-norm gamma
    assert pham.gamma_bound(h, 0.0) == pytest.approx(2 * gamma)
    vmax = np.abs(pham.eval_V(h, 1.23)).max()
    assert pham.gamma_bound(h, 1.23) >= vmax - 1e-12


def test_gamma_bound_decay_curve():
    gamma, alpha = 1.1, 0.9
    h = pham.from_pauli_spec(decay_spec(1.0, gamma, alpha))
    for t in (0.0, 0.5, 2.0):
        assert pham.gamma_bound(h, t) == pytest.approx(gamma * math.exp(-alpha * t))


def test_gamma_bound_empty_v():
    h = pham.from_pauli_spec({"n": 1, "h0": [{"coupling": 1.0, "z_mask": "1"}]})
    assert pham.gamma_bound(h, 0.7) == 0.0
    assert pham.lambda_max(h) == 0.0


def test_gamma_bound_dominates_max_norm():
    rng = np.random.default_rng(8)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    for t in rng.uniform(0, 2, 100):
        vmax = np.abs(pham.eval_V(h, float(t))).max()
        assert pham.gamma_bound(h, float(t)) >= vmax - 1e-12


def test_lambda_max_values():
    assert pham.lambda_max(pham.from_pauli_spec(oscillating_spec(1, 1, 7.0))) == 0.0
    assert pham.lambda_max(pham.from_pauli_spec(decay_spec(1, 1, 0.4))) == pytest.approx(-0.4)
    assert pham.lambda_max(pham.from_pauli_spec(static_spec())) == 0.0


def test_gamma_uniform_dominates_exact():
    rng = np.random.default_rng(9)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    for t in (0.0, 0.7, 2.1):
        assert pham.gamma_bound_uniform(h, t) >= pham.gamma_bound(h, t) - 1e-12


# --- exponential-sum fitting -------------------------------------------------

def test_fit_constant_function():
    terms, delta = pham.exp_sum_fit(np.full(65, 2.5), 1.0, 1)
    assert len(terms) == 1
    assert terms[0][0] == pytest.approx(2.5)
    assert terms[0][1] == 0.0
    assert delta < 1e-12


def test_fit_cosine_on_grid_is_exact():
    t_total, m = 1.0, 3
    ts = np.linspace(0, t_total, 129)
    omega = np.pi * m / t_total
    terms, delta = pham.exp_sum_fit(np.cos(omega * ts), t_total, 2)
    assert len(terms) == 2
    rates = sorted(r.imag for _, r in terms)
    assert rates == pytest.approx([-omega, omega])
    assert delta < 1e-12


def test_fit_ramp_error_shrinks_like_one_over_k():
    ts = np.linspace(0, 1.0, 4097)
    deltas = []
    dense = np.linspace(0, 1.0, 10_001)
    for k in (11, 41, 161):
        terms, delta = pham.exp_sum_fit(ts.copy(), 1.0, k)
        deltas.append(delta)
        sup = np.abs(dense - pham.eval_exp_sum(terms, dense).real).max()
        assert sup < 5.0 / k
    assert deltas[0] > deltas[1] > deltas[2]
    assert deltas[2] < deltas[0] * 161 / (11 * 4)  # at least ~1/K-ish decrease


def test_fit_ill_posed_k():
    with pytest.raises(ValueError):
        pham.exp_sum_fit(np.zeros(9), 1.0, 9)
