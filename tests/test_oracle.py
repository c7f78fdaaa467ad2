"""Tests for the ground-truth propagators."""
import ast
import gc
import inspect
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from permlcu import oracle, pham
from permlcu.models import oscillating_hamiltonian, random_model_spec, static_spec


def spectral(a):
    return np.linalg.norm(a, 2)


def test_zero_hamiltonian_gives_identity():
    h = pham.from_pauli_spec({"n": 1})
    res = oracle.propagate_ode(h, 0.0, 1.3)
    np.testing.assert_allclose(res.U, np.eye(2), atol=1e-12)


def test_static_matches_dense_exponential():
    h = pham.from_pauli_spec(static_spec(0.7, 1.1))
    t = 2.1
    res = oracle.propagate_ode(h, 0.0, t)
    ref = expm(-1j * pham.eval_H(h, 0.0) * t)
    assert spectral(res.U - ref) < 1e-9
    assert res.steps_taken > 0


def test_oscillating_matches_rotating_frame_closed_form():
    for alpha in (0.0, 1.0, 9.0):
        hf, g, t = 0.8, 1.2, 1.5
        h = oscillating_hamiltonian(hf, g, alpha)
        res = oracle.propagate_ode(h, 0.0, t)
        ref = oracle.two_level_oscillating_propagator(hf, g, alpha, t)
        assert spectral(res.U - ref) < 1e-9


def test_closed_form_is_unitary_and_solves_schrodinger():
    hf, g, alpha = 1.0, 0.7, 200.0
    u = oracle.two_level_oscillating_propagator(hf, g, alpha, 0.43)
    assert spectral(u.conj().T @ u - np.eye(2)) < 1e-13
    # finite-difference check of i dU/dt = H(t) U at a point
    h_model = oscillating_hamiltonian(hf, g, alpha)
    t, dt = 0.43, 1e-6
    up = oracle.two_level_oscillating_propagator(hf, g, alpha, t + dt)
    um = oracle.two_level_oscillating_propagator(hf, g, alpha, t - dt)
    dudt = (up - um) / (2 * dt)
    rhs = -1j * pham.eval_H(h_model, t) @ oracle.two_level_oscillating_propagator(hf, g, alpha, t)
    assert np.abs(dudt - rhs).max() < 1e-4 * alpha


def test_unitarity_of_returned_propagators():
    rng = np.random.default_rng(40)
    for _ in range(3):
        h = pham.from_pauli_spec(random_model_spec(rng, n=2))
        res = oracle.propagate_ode(h, 0.0, 2.0, tol=1e-10)
        assert spectral(res.U.conj().T @ res.U - np.eye(4)) <= 10 * res.est_error


def test_composition_property():
    rng = np.random.default_rng(41)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    tol = 1e-11
    u02 = oracle.propagate_ode(h, 0.0, 2.0, tol=tol).U
    u01 = oracle.propagate_ode(h, 0.0, 0.8, tol=tol).U
    u12 = oracle.propagate_ode(h, 0.8, 2.0, tol=tol).U
    assert spectral(u02 - u12 @ u01) <= 10 * tol


def test_interaction_picture_intertwining():
    rng = np.random.default_rng(42)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    t0, t1, tol = 0.3, 1.7, 1e-11
    ui = oracle.propagate_interaction(h, t0, t1, tol=tol).U
    u = oracle.propagate_ode(h, t0, t1, tol=tol).U
    left = np.diag(np.exp(-1j * h.h0_diag * t1)) @ ui @ np.diag(np.exp(1j * h.h0_diag * t0))
    assert spectral(u - left) <= 5 * tol


def test_interaction_picture_trivial_cases():
    h = pham.from_pauli_spec({"n": 1, "h0": [{"coupling": 0.9, "z_mask": "1"}]})
    res = oracle.propagate_interaction(h, 0.0, 2.0)
    np.testing.assert_allclose(res.U, np.eye(2), atol=1e-11)
    h2 = pham.from_pauli_spec({"n": 1, "v": [{"pauli": "X", "coeff": [
        {"amp": [0.8, 0.0], "rate": [0.0, 0.0]}]}]})
    ui = oracle.propagate_interaction(h2, 0.0, 1.1).U
    u = oracle.propagate_ode(h2, 0.0, 1.1).U
    assert spectral(ui - u) < 1e-9


def test_callable_hamiltonian_accepted():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    res = oracle.propagate_ode(lambda t: t * x, 0.0, 1.0)
    ref = expm(-0.5j * x)  # integral of t over [0,1] is 1/2, and [H(t), H(s)] = 0
    assert spectral(res.U - ref) < 1e-9


def test_subadditivity_bound():
    # two nearby Hamiltonians: propagator distance <= sup-norm gap * duration
    rng = np.random.default_rng(43)
    spec = random_model_spec(rng, n=2)
    h1 = pham.from_pauli_spec(spec)
    delta = 1e-3
    x_on_0 = np.zeros((4, 4), dtype=complex)
    x_on_0[[1, 0, 3, 2], [0, 1, 2, 3]] = 1.0
    h2 = lambda t: pham.eval_H(h1, t) + delta * np.cos(3 * t) * x_on_0
    t_total, tol = 2.0, 1e-11
    u1 = oracle.propagate_ode(h1, 0.0, t_total, tol=tol).U
    u2 = oracle.propagate_ode(h2, 0.0, t_total, tol=tol).U
    assert spectral(u1 - u2) <= delta * t_total + 10 * tol


def test_tolerance_and_size_guards():
    h = pham.from_pauli_spec(static_spec())
    with pytest.raises(ValueError):
        oracle.propagate_ode(h, 0.0, 1.0, tol=1e-14)
    big = pham.from_pauli_spec({"n": 9, "v": [{"pauli": "X" + "I" * 8, "coeff": [
        {"amp": [0.5, 0.0], "rate": [0.0, 0.0]}]}]})
    with pytest.raises(ValueError):
        oracle.propagate_ode(big, 0.0, 1.0)


def _table_test_model(rng, n):
    """Random model with a mask-0 (diagonal) V term and two V terms sharing a
    mask, which the spec parser would merge; some amplitudes are zero."""
    dim = 1 << n
    shared = int(rng.integers(1, dim))
    terms = []
    for mask in (0, shared, shared, int(rng.integers(1, dim))):
        exp_terms = []
        for _ in range(2):
            amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            amp[rng.random(dim) < 0.25] = 0.0
            rate = rng.uniform(-1.0, 0.5, dim) + 1j * rng.uniform(-5.0, 5.0, dim)
            exp_terms.append(pham.ExpTerm(rate=rate, amp=amp))
        terms.append(pham.PermTerm(mask=mask, exp_terms=tuple(exp_terms)))
    return pham.PermExpHamiltonian(n=n, h0_diag=rng.normal(size=dim), h0_zterms=(),
                                   vterms=tuple(terms))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_table_matches_dense_hamiltonian(n):
    rng = np.random.default_rng(50 + n)
    h = _table_test_model(rng, n)
    gen = oracle.generator_table(h)
    u = rng.normal(size=(h.dim, h.dim)) + 1j * rng.normal(size=(h.dim, h.dim))
    for t in rng.uniform(0.0, 3.0, 5):
        ref = -1j * (pham.eval_H(h, t) @ u)
        assert np.abs(gen(t) @ u - ref).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interaction_generator_table_matches_dense_frame(n):
    rng = np.random.default_rng(60 + n)
    h = _table_test_model(rng, n)
    gen = oracle.generator_table(h, interaction=True)
    h0 = np.diag(h.h0_diag).astype(complex)
    u = rng.normal(size=(h.dim, h.dim)) + 1j * rng.normal(size=(h.dim, h.dim))
    for t in rng.uniform(0.0, 3.0, 5):
        v_int = expm(1j * h0 * t) @ (pham.eval_H(h, t) - h0) @ expm(-1j * h0 * t)
        assert np.abs(gen(t) @ u - (-1j * v_int) @ u).max() < 1e-13


def test_high_frequency_matches_closed_form():
    hf, g, alpha, t = 1.0, 1.0, 1e3, 2.0
    res = oracle.propagate_ode(oscillating_hamiltonian(hf, g, alpha), 0.0, t, tol=1e-10)
    ref = oracle.two_level_oscillating_propagator(hf, g, alpha, t)
    assert spectral(res.U - ref) < 1e-9


def test_integrator_failure_raises_stiffness_error():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    nan = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(oracle.StiffnessError, match="integrator failed"):
        oracle.propagate_ode(lambda t: x if t < 0.5 else nan, 0.0, 1.0)


def test_unitarity_defect_raises_stiffness_error():
    with pytest.raises(oracle.StiffnessError, match="unitarity defect"):
        oracle.propagate_ode(lambda t: -1j * np.eye(2), 0.0, 1.0)


def test_exception_in_hamiltonian_propagates(monkeypatch):
    # a 1000-step cap bounds the run should the error not stop it; solvers are
    # kept per thread, so the new thread builds one with this cap
    monkeypatch.setattr(oracle, "MAX_STEPS", 1000)
    x = np.array([[0, 1], [1, 0]], dtype=complex)

    def field(t):
        if t > 0.5:
            raise ValueError("field undefined")
        return x

    caught = []

    def run():
        try:
            oracle.propagate_ode(field, 0.0, 1.0)
        except ValueError as exc:
            caught.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(caught) == 1 and "field undefined" in str(caught[0])


def test_repeated_calls_hold_no_memory():
    # scipy's DOP853 runner never drops the right-hand side and the step
    # callback it is given; a solver made per call would stay in memory with
    # its work arrays (over 2 KB here) and the generator table
    h = pham.from_pauli_spec(random_model_spec(np.random.default_rng(44), n=2))
    oracle.propagate_ode(h, 0.0, 0.1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            oracle.propagate_ode(h, 0.0, 0.1)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 200 * 256


def test_oracle_imports_nothing_from_the_engine():
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not {name.rsplit(".", 1)[-1] for name in imported} & {"dd", "dyson", "lcu", "sched"}
