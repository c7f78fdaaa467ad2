"""Tests for the ground-truth propagators."""
import ast
import functools
import gc
import inspect
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import ode
from scipy.linalg import expm

from dyson_reference import frozen_model
from permlcu import dd, oracle, pham
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
    # each of the three runs is cut into slices of its own: the product of
    # the runs over [0, 0.8] and [0.8, 2] meets the one over [0, 2] across
    # the slice boundaries of all three
    rng = np.random.default_rng(41)
    h = pham.from_pauli_spec(random_model_spec(rng, n=2))
    tol = 1e-11
    table = oracle.generator_table(h)
    assert all(len(table(*span)[0]) > 1 for span in ((0.0, 2.0), (0.0, 0.8), (0.8, 2.0)))
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


def _table_stack(rng, h, interaction=False):
    """The times s + offsets of the slices of a random interval, at a random
    s, and the table's stack of G at them."""
    t0 = rng.uniform(0.0, 1.5)
    offsets, gen = oracle.generator_table(h, interaction)(t0, t0 + rng.uniform(1.0, 3.0))
    s = t0 + rng.uniform(0.0, offsets[1])
    stack = gen(s)
    assert stack.shape == (len(offsets), h.dim, h.dim) and len(offsets) > 1
    return s + offsets, stack


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_table_matches_dense_hamiltonian(n):
    rng = np.random.default_rng(50 + n)
    h = _table_test_model(rng, n)
    u = rng.normal(size=(h.dim, h.dim)) + 1j * rng.normal(size=(h.dim, h.dim))
    for ts, stack in (_table_stack(rng, h) for _ in range(2)):
        for t, gen in zip(ts, stack):
            ref = -1j * (pham.eval_H(h, t) @ u)
            assert np.abs(gen @ u - ref).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interaction_generator_table_matches_dense_frame(n):
    rng = np.random.default_rng(60 + n)
    h = _table_test_model(rng, n)
    h0 = np.diag(h.h0_diag).astype(complex)
    u = rng.normal(size=(h.dim, h.dim)) + 1j * rng.normal(size=(h.dim, h.dim))
    for ts, stack in (_table_stack(rng, h, interaction=True) for _ in range(2)):
        for t, gen in zip(ts, stack):
            v_int = expm(1j * h0 * t) @ (pham.eval_H(h, t) - h0) @ expm(-1j * h0 * t)
            assert np.abs(gen @ u - (-1j * v_int) @ u).max() < 1e-13


def test_high_frequency_matches_closed_form():
    hf, g, alpha, t = 1.0, 1.0, 1e3, 2.0
    res = oracle.propagate_ode(oscillating_hamiltonian(hf, g, alpha), 0.0, t, tol=1e-10)
    ref = oracle.two_level_oscillating_propagator(hf, g, alpha, t)
    assert spectral(res.U - ref) < 1e-9


def test_long_high_frequency_run_at_the_slice_cap_matches_closed_form():
    # the osc-long a1e3 check: 10 time units at 1e3 rad/time want about 5,000
    # slices of 2 rad; the stacked state caps them at 1,024
    hf, g, alpha, t = 1.0, 1.0, 1e3, 10.0
    h = oscillating_hamiltonian(hf, g, alpha)
    assert len(oracle.generator_table(h)(0.0, t)[0]) == oracle.SLICE_ENTRIES // 4
    res = oracle.propagate_ode(h, 0.0, t, tol=1e-10)
    assert spectral(res.U - oracle.two_level_oscillating_propagator(hf, g, alpha, t)) < 1e-10


@pytest.mark.parametrize("case_id", ["m0", "m1", "m2", "m3", "m4"])
def test_sliced_runs_of_the_frozen_models_meet_their_tolerance(case_id):
    h, _, case = frozen_model("c4-n2", case_id)
    t, tol = case["t_total"], 1e-10
    assert len(oracle.generator_table(h)(0.0, t)[0]) > 1
    ref = oracle.propagate_ode(h, 0.0, t, tol=1e-13).U
    assert spectral(oracle.propagate_ode(h, 0.0, t, tol=tol).U - ref) <= tol


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


def test_exception_in_deep_stack_generator_propagates(monkeypatch):
    # as above, for a generator of 64 slices of dim 2, which the elementwise
    # product takes: the NaN fill stops the run and the error is raised again
    monkeypatch.setattr(oracle, "MAX_STEPS", 1000)
    m = 2 * oracle.DEEP_SLICES_PER_DIM
    assert oracle._stack_product((m, 2, 2)) is not np.matmul
    stack = np.tile(np.array([[0, -1j], [-1j, 0]]), (m, 1, 1))

    def gen(t):
        if t > 0.005:
            raise ValueError("field undefined")
        return stack

    def sliced(t0, t1):
        return np.arange(m) * ((t1 - t0) / m), gen

    caught = []

    def run():
        try:
            oracle._integrate(sliced, 2, 0.0, 1.0, 1e-10)
        except ValueError as exc:
            caught.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(caught) == 1 and "field undefined" in str(caught[0])


def _deep_run_growth(tols):
    """Traced memory growth over 200 runs of a deep stack (the oscillating
    model at 1e3 rad/time over 0.15: 76 slices of dim 2), cycling tols.  Each
    run replaces the scipy work arrays of the run before (about 59 KB here),
    so tracing starts before a first run, and those arrays are traced on both
    sides of the count."""
    h, t1 = oscillating_hamiltonian(1.0, 1.0, 1e3), 0.15
    assert len(oracle.generator_table(h)(0.0, t1)[0]) >= 2 * oracle.DEEP_SLICES_PER_DIM
    for tol in tols:
        oracle.propagate_ode(h, 0.0, t1, tol=tol)
    # the run's product, with its work buffers, goes with the run
    assert oracle._SOLVERS.solver.product is None
    gc.collect()
    tracemalloc.start()
    try:
        oracle.propagate_ode(h, 0.0, t1, tol=tols[-1])
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for k in range(200):
            oracle.propagate_ode(h, 0.0, t1, tol=tols[k % len(tols)])
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_repeated_calls_hold_no_memory():
    # scipy's DOP853 runner never drops the right-hand side and the step
    # callback it is given; a solver made per call would stay in memory with
    # its work arrays (over 2 KB here) and the generator table, and a new
    # step callback per call would stay too (about 70 B each)
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
    assert grown < 200 * 40
    assert _deep_run_growth([1e-10]) < 200 * 40


def test_solver_cache_is_bounded():
    # one solver per thread whatever the tolerance: cycling tolerances makes
    # no solver per call (scipy's runner would pin each one it has run)
    h = pham.from_pauli_spec(random_model_spec(np.random.default_rng(44), n=2))
    tols = [1e-6, 1e-7, 1e-8, 1e-9, 1e-10]
    for tol in tols:
        oracle.propagate_ode(h, 0.0, 0.1, tol=tol)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(200):
            oracle.propagate_ode(h, 0.0, 0.1, tol=tols[k % len(tols)])
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 200 * 40
    assert _deep_run_growth(tols) < 200 * 40


def _stacked_dop853(h, t1, tol, solout=None):
    """The product of the slices' propagators from a fresh DOP853 solver at
    tol on the oracle's stacked right-hand side over [0, t1], at the table's
    number of slices M > 1."""
    dim = h.dim
    offsets, gen = oracle.generator_table(h)(0.0, t1)
    m = len(offsets)
    assert m > 1

    def rhs(t, y):
        return (gen(t) @ y.view(complex).reshape(m, dim, dim)).view(float).reshape(-1)

    fresh = ode(rhs).set_integrator("dop853", rtol=tol / 100.0, atol=tol / 100.0,
                                    nsteps=oracle.MAX_STEPS)
    if solout is not None:
        fresh.set_solout(solout)
    fresh.set_initial_value(np.tile(np.eye(dim, dtype=complex), (m, 1, 1)).view(float).reshape(-1),
                            0.0)
    u = fresh.integrate(t1 - offsets[-1]).view(complex).reshape(m, dim, dim)
    return functools.reduce(lambda done, step: step @ done, u)


def test_shared_solver_runs_at_each_calls_tolerance():
    # the thread's one solver, cycled through tolerances, gives bitwise the
    # result of a fresh DOP853 solver made at that tolerance
    h = pham.from_pauli_spec(random_model_spec(np.random.default_rng(45), n=2))
    got = {}
    for tol in [1e-6, 1e-10, 1e-8, 1e-7, 1e-9, 1e-6]:
        got[tol] = oracle.propagate_ode(h, 0.0, 0.7, tol=tol).U
        assert np.array_equal(got[tol], _stacked_dop853(h, 0.7, tol))
    assert not np.array_equal(got[1e-6], got[1e-10])


def test_steps_taken_counts_accepted_steps():
    # a fresh DOP853 solver at the same tolerance, its accepted steps counted
    # by a step callback (called once at t0, then after every accepted step)
    h = pham.from_pauli_spec(random_model_spec(np.random.default_rng(46), n=2))
    for tol in (1e-6, 1e-10):
        calls = []
        _stacked_dop853(h, 0.7, tol, solout=lambda t, y: calls.append(t))
        assert oracle.propagate_ode(h, 0.0, 0.7, tol=tol).steps_taken == len(calls) - 1 > 0


@pytest.mark.parametrize("dim", [2, 4])
def test_stacked_product_and_chain_match_matmul(dim):
    # below the crossover the product is numpy's batched matmul and the chain
    # the product one slice at a time, bitwise; from it on, both agree with
    # those to rounding (the chain on random unitaries, odd M included)
    rng = np.random.default_rng(70 + dim)
    cross = oracle.DEEP_SLICES_PER_DIM * dim
    for m in (cross // 4, cross - 1, cross, cross + 1, oracle.SLICE_ENTRIES // dim**2):
        shape = (m, dim, dim)
        g, u = rng.normal(size=(2, *shape)) + 1j * rng.normal(size=(2, *shape))
        out = np.empty(shape, dtype=complex)
        got = oracle._stack_product(shape)(g, u, out=out)
        assert got is out
        ref = np.matmul(g, u)
        unitaries = np.linalg.qr(g)[0]
        chain = oracle._chain(unitaries)
        one_at_a_time = functools.reduce(lambda done, step: step @ done, unitaries)
        if m < cross:
            assert np.array_equal(got, ref) and np.array_equal(chain, one_at_a_time)
        else:
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
            assert spectral(chain - one_at_a_time) <= 1e-12


def _deep_stacked_dop853(h, t1, tol):
    """U(t1) from a fresh DOP853 solver at tol fed by the oracle's own
    stacked product, and its chain of the slices, at a deep M."""
    offsets, gen = oracle.generator_table(h)(0.0, t1)
    shape = (len(offsets), h.dim, h.dim)
    product, out = oracle._stack_product(shape), np.empty(shape, dtype=complex)
    assert product is not np.matmul

    def rhs(t, y):
        return product(gen(t), y.view(complex).reshape(shape), out=out).view(float).reshape(-1)

    fresh = ode(rhs).set_integrator("dop853", rtol=tol / 100.0, atol=tol / 100.0,
                                    nsteps=oracle.MAX_STEPS)
    eyes = np.tile(np.eye(h.dim, dtype=complex), (shape[0], 1, 1))
    fresh.set_initial_value(eyes.view(float).reshape(-1), 0.0)
    return oracle._chain(fresh.integrate(t1 - offsets[-1]).view(complex).reshape(shape))


def test_shared_solver_runs_deep_stacks_at_each_calls_tolerance():
    # the osc-long a1e3 check (1,024 slices of dim 2): the thread's one
    # solver, cycled through tolerances, gives bitwise the fresh solver's result
    h, t1 = oscillating_hamiltonian(1.0, 1.0, 1e3), 10.0
    got = {}
    for tol in [1e-6, 1e-10, 1e-8, 1e-6]:
        got[tol] = oracle.propagate_ode(h, 0.0, t1, tol=tol).U
        assert np.array_equal(got[tol], _deep_stacked_dop853(h, t1, tol))
    assert not np.array_equal(got[1e-6], got[1e-10])


def _single_run(gen_of_t, dim, t1, tol):
    """U(t1) of dU/dt = G(t) U, U(0) = 1, by one fresh DOP853 run at tol."""
    def rhs(t, y):
        return (gen_of_t(t) @ y.view(complex).reshape(dim, dim)).view(float).reshape(-1)

    fresh = ode(rhs).set_integrator("dop853", rtol=tol / 100.0, atol=tol / 100.0,
                                    nsteps=oracle.MAX_STEPS)
    fresh.set_initial_value(np.eye(dim, dtype=complex).view(float).reshape(-1), 0.0)
    return fresh.integrate(t1).view(complex).reshape(dim, dim)


def test_eight_qubits_and_callables_run_unsliced():
    # dim^2 = 65,536 entries exceed the stacked state's cap, and a callable
    # H(t) has no table: both run as one slice, bitwise the single run
    spec = {"n": 8, "h0": [{"coupling": 0.4, "z_mask": "10000001"}],
            "v": [{"pauli": "XIIIIIIZ", "coeff": [
                {"amp": [0.15, 0.0], "rate": [0.0, 50.0]},
                {"amp": [0.15, 0.0], "rate": [0.0, -50.0]}]}]}
    h = pham.from_pauli_spec(spec)
    table, t1, tol = oracle.generator_table(h), 1e-3, 1e-6
    offsets, gen = table(0.0, t1)
    assert np.array_equal(offsets, [0.0]) and len(table(0.0, 100.0)[0]) == 1
    assert np.array_equal(oracle.propagate_ode(h, 0.0, t1, tol=tol).U,
                          _single_run(lambda t: gen(t)[0], h.dim, t1, tol))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    field = lambda t: 50.0 * np.cos(50.0 * t) * x + np.diag([1.0, -1.0])
    assert np.array_equal(oracle.propagate_ode(field, 0.0, 0.2).U,
                          _single_run(lambda t: -1j * field(t), 2, 0.2, 1e-10))


def test_oracle_imports_nothing_from_the_engine():
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not {name.rsplit(".", 1)[-1] for name in imported} & {"dd", "dyson", "lcu", "sched"}


def test_dd_oracles_live_in_the_oracle_module():
    # the divided-difference oracles are defined here, under the import
    # check above, and the kernel module no longer carries them
    for name in ("exp_dd_oracle_bidiagonal", "hermite_genocchi_quadrature",
                 "UnsupportedSizeError"):
        assert getattr(oracle, name).__module__ == "permlcu.oracle"
        assert not hasattr(dd, name)
    with pytest.raises(ValueError):
        oracle.exp_dd_oracle_bidiagonal([1.0, np.nan])
    with pytest.raises(ValueError):
        oracle.exp_dd_oracle_bidiagonal([])
