"""Independent ground-truth propagators used by every acceptance check.

Nothing here shares code with the divided-difference or segment machinery.
The divided differences of exp have two oracles of their own: the corner
of a bidiagonal matrix exponential (scipy's `expm`) and a composite
quadrature over the simplex (the Hermite-Genocchi integral).
Time-ordered propagators are integrated with Hairer's DOP853 via
`scipy.integrate.ode` (a compiled stepping loop; the complex state is passed
as a float64 view).  For a PermExpHamiltonian the generator -iH(t) is built
once per call as a table: the flat matrix index, -i*amp and rate of every
entry of V (mask-0 diagonal terms included), plus rate-0 diagonal rows for
the -i*H0 base.  The interaction-frame generator is the same table with every
rate shifted by i(E_row - E_col) and no base.  The ODE is linear, so
U(t1, t0) = U_M ... U_1 exactly over M equal slices, which one DOP853 run
steps as one stacked system: a fast phase costs the steps of one slice.  A
deep stack (M >= `DEEP_SLICES_PER_DIM` dim slices) is slice-last, (dim, dim,
M), for the whole run, its G U dim elementwise multiply-adds over the slices
and its U_M ... U_1 a pairwise tree of batched products; a shallow stack is
(M, dim, dim), with numpy's batched matmul (one BLAS call per slice) and the
product one slice at a time.  The two-level oscillating model also has an
exact rotating-frame closed form for frequencies too fast for an ODE.
"""
from __future__ import annotations

import functools
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode
from scipy.linalg import expm

from .pham import PermExpHamiltonian

MAX_PIPELINE_QUBITS = 8
ORACLE_MAX_INPUTS = 32
MAX_STEPS = 1_000_000  # accepted plus rejected DOP853 steps per call
SLICE_PHASE = 2.0  # radians the fastest phase turns over one slice
SLICE_ENTRIES = 4096  # complex entries of a stacked state at most
# Elementwise products of slice-last stacks beat batched matmul (a BLAS call
# per slice) from about 16 dim slices on at dim <= 4, never at dim 8; 32 is
# conservative.  us per product, matmul/elementwise, timeit best of 15, one
# thread (Xeon, numpy 2.4.6): dim 2: M 8 4.6/4.7, M 32 15/4.6, M 1,024 313/21;
# dim 4: M 14 6.3/13, M 69 25/19, M 128 45/28; dim 8: M 16 16/45, M 64 31/101.
DEEP_SLICES_PER_DIM = 32
# negative IDID return codes of Hairer's DOP853
_DOP853_FAILURES = {-1: "input is not consistent", -2: f"more than {MAX_STEPS} steps",
                    -3: "step size became too small", -4: "problem is probably stiff"}


class UnsupportedSizeError(ValueError):
    """Input list exceeds the scale an oracle routine is rated for."""


class StiffnessError(RuntimeError):
    """The integrator failed (step underflow, step cap, stiffness) or lost unitarity."""


@dataclass(frozen=True)
class PropagatorResult:
    U: np.ndarray
    est_error: float
    steps_taken: int


def generator_table(h: PermExpHamiltonian, interaction: bool = False):
    """Return (t0, t1) -> (offsets, G): the offsets j (t1 - t0)/M of the M
    slices of [t0, t1], and s -> the stack of G(s + offsets), (M, dim, dim) or
    for a deep stack (dim, dim, M), that the next call overwrites; G = -iH(t),
    or -i e^{iH0 t} V(t) e^{-iH0 t} when interaction is set.  G's nonzero
    entries sum coef * exp(rate * t) over the table rows sharing their flat
    index (-i*H0 as rate-0 diagonal rows); slice j's are coef e^{rate
    offsets[j]} e^{rate s}, so slice 0's are coef e^{rate s} bitwise.  M bounds
    the phase rate by max |Im rate| plus the largest row sum of |G| on [t0, t1].
    """
    dim = h.dim
    z = np.arange(dim)
    energies = h.h0_diag
    base = np.zeros(dim) if interaction else energies
    target, coef, rate = [z * (dim + 1)], [-1j * base], [np.zeros(dim, dtype=complex)]
    for term in h.vterms:
        rows = z ^ term.mask
        shift = 1j * (energies[rows] - energies) if interaction else 0.0
        for et in term.exp_terms:
            target.append(rows * dim + z)
            coef.append(-1j * et.amp[rows])
            rate.append(et.rate[rows] + shift)
    target, coef, rate = np.concatenate(target), np.concatenate(coef), np.concatenate(rate)
    keep = np.flatnonzero(coef)
    order = keep[np.argsort(target[keep], kind="stable")]
    targets, starts = np.unique(target[order], return_index=True)
    coef, rate, row = coef[order], rate[order], target[order] // dim
    summed = len(targets) < len(rate)  # some entry is a sum of table rows

    def sliced(t0: float, t1: float):
        size = np.abs(coef) * np.exp(np.maximum(rate.real * t0, rate.real * t1))
        omega = np.abs(rate.imag).max(initial=0.0) + np.bincount(row, size).max(initial=0.0)
        m = max(min(math.ceil(abs(t1 - t0) * omega / SLICE_PHASE), SLICE_ENTRIES // dim**2), 1)
        offsets = np.arange(m) * ((t1 - t0) / m)
        if m >= DEEP_SLICES_PER_DIM * dim:  # slice-last: a table row's M values in one go
            coefs = coef[:, None] * np.exp(np.multiply.outer(rate, offsets))
            gen = np.zeros((dim, dim, m), dtype=complex)
            entries = gen.reshape(dim * dim, m)

            def evaluate(s: float) -> np.ndarray:
                terms = coefs * np.exp(rate * s)[:, None]
                entries[targets] = np.add.reduceat(terms, starts, axis=0) if summed else terms
                return gen

            return offsets, evaluate
        coefs = coef * np.exp(np.multiply.outer(offsets, rate))
        coefs = coefs[0] if m == 1 else coefs  # a 1-D product broadcasts faster
        into = (targets + dim**2 * np.arange(m)[:, None]).reshape(-1)
        runs = (starts + len(rate) * np.arange(m)[:, None]).reshape(-1)
        gen = np.zeros((m, dim, dim), dtype=complex)
        flat = gen.reshape(-1)

        def evaluate(s: float) -> np.ndarray:
            terms = (coefs * np.exp(rate * s)).reshape(-1)
            flat[into] = np.add.reduceat(terms, runs) if summed else terms
            return gen

        return offsets, evaluate

    return sliced


def _stack_product(shape: tuple):
    """(G, U, out=) -> G U into out for M slices of dim x dim, shape (M, dim,
    dim): numpy's batched matmul of (M, dim, dim) stacks, or for a deep stack
    dim elementwise multiply-adds over slice-last (dim, dim, M) stacks."""
    m, dim, _ = shape
    if m < DEEP_SLICES_PER_DIM * dim:
        return np.matmul
    term = np.empty((dim, dim, m), dtype=complex)

    def product(gen: np.ndarray, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        # out[i, j] = sum_k state[k, j] gen[i, k], U first: numpy's complex a*b
        # keeps a.re's products exact in an FMA, so the order sets the last bits
        # (a1e3: 2.8e-15 from batched matmul's product; G first, 1.1e-13)
        np.multiply(state[0], gen[:, :1], out=out)
        for k in range(1, dim):
            np.multiply(state[k], gen[:, k:k + 1], out=term)
            np.add(out, term, out=out)
        return out

    return product


def _chain(u: np.ndarray) -> np.ndarray:
    """u[-1] ... u[0]: one slice at a time for a shallow stack, as a pairwise
    tree of batched products (log2 M levels) for a deep one."""
    m, dim, _ = u.shape
    if m < DEEP_SLICES_PER_DIM * dim:
        return functools.reduce(lambda done, step: step @ done, u)
    while len(u) > 1:
        pairs = u[1::2] @ u[:len(u) - 1:2]
        u = pairs if len(u) % 2 == 0 else np.concatenate([pairs, u[-1:]])
    return u[0]


class _Dop853:
    """scipy's `ode` with DOP853, reused for every run of one thread.

    scipy's compiled DOP853 runner keeps a reference to the right-hand side
    and to the integrator's step callback that it is given and never drops
    it, so an `ode` made per run would stay in memory with its work arrays
    and everything its right-hand side holds.  Each thread therefore keeps
    one solver, with a fixed right-hand side that reads the current problem
    from the solver.  Each run sets the integrator's tolerances before
    `set_initial_value`, whose reset reads them into the runner's arguments,
    then puts back the solver's first step callback in place of the new one
    the reset made.  Not re-entrant: a callable H(t) must not call the oracle.
    """

    def __init__(self):
        self.gen_of_t = self.product = self.out = self.out_real = self.error = None
        self.ode = ode(self._rhs).set_integrator("dop853", nsteps=MAX_STEPS)
        self.solout = self.ode._integrator._solout

    def _rhs(self, t, y):
        try:
            self.product(self.gen_of_t(t), y.view(complex).reshape(self.out.shape), out=self.out)
        except BaseException as exc:
            # the runner would go on stepping (and holding memory) until the
            # step cap; NaN makes it stop at once and run() raises exc again
            self.error = exc
            self.out.fill(np.nan)
        return self.out_real

    def run(self, gen_of_t, shape: tuple, t0: float, t1: float, tol: float):
        """(U(t1) as (M, dim, dim), return code, accepted steps) for dU/dt =
        G(t) U, U(t0) = 1, at rtol = atol = tol/100; a deep run is slice-last."""
        self.gen_of_t, self.product = gen_of_t, _stack_product(shape)
        deep = self.product is not np.matmul
        eyes = np.tile(np.eye(shape[-1], dtype=complex), (shape[0], 1, 1))
        eyes = np.ascontiguousarray(eyes.transpose(1, 2, 0)) if deep else eyes
        self.out = np.empty_like(eyes)
        self.out_real = self.out.view(float).reshape(-1)
        integrator = self.ode._integrator
        integrator.rtol = integrator.atol = tol / 100.0
        self.ode.set_initial_value(eyes.view(float).reshape(-1), t0)
        integrator.call_args[2] = self.solout
        try:
            with warnings.catch_warnings():
                # a failure is raised by the caller; scipy would also warn about it
                warnings.filterwarnings("ignore", "dop853", UserWarning)
                y = self.ode.integrate(t1)
        finally:
            error, self.error = self.error, None
            self.gen_of_t = self.product = self.out = self.out_real = None
        if error is not None:
            raise error
        accepted = int(integrator.iwork[18])  # NACCPT, DOP853's accepted-step count
        u = y.view(complex).reshape(eyes.shape)
        return (u.transpose(2, 0, 1) if deep else u).copy(), self.ode.get_return_code(), accepted


class _ThreadSolvers(threading.local):
    """This thread's solver, made on its first run."""
    solver: _Dop853 | None = None


_SOLVERS = _ThreadSolvers()


def _integrate(sliced, dim: int, t0: float, t1: float, tol: float) -> PropagatorResult:
    """U(t1, t0) = U_M ... U_1 over the slices of sliced(t0, t1), integrated
    as one stacked system over the first slice, [t0, t1 - offsets[-1]]."""
    if t1 == t0:
        return PropagatorResult(U=np.eye(dim, dtype=complex), est_error=tol, steps_taken=0)
    if _SOLVERS.solver is None:
        _SOLVERS.solver = _Dop853()
    offsets, gen = sliced(t0, t1)
    u, code, accepted = _SOLVERS.solver.run(gen, (len(offsets), dim, dim), t0,
                                            t1 - offsets[-1], tol)
    if code < 0:
        raise StiffnessError(f"integrator failed on [{t0}, {t1}] with code {code}: "
                             f"{_DOP853_FAILURES.get(code, 'unknown failure')}")
    u = _chain(u)
    defect = np.linalg.norm(u.conj().T @ u - np.eye(dim), 2)
    if defect > 10.0 * tol:
        raise StiffnessError(
            f"unitarity defect {defect:.3e} exceeds 10x requested tolerance {tol:.1e}")
    return PropagatorResult(U=u, est_error=tol, steps_taken=accepted)


def _check_pre(h, tol: float) -> None:
    if tol < 1e-13:
        raise ValueError("tolerance below 1e-13 is not resolvable in double precision")
    if isinstance(h, PermExpHamiltonian) and h.n > MAX_PIPELINE_QUBITS:
        raise ValueError(f"ODE oracle rated for n <= {MAX_PIPELINE_QUBITS} qubits")


def propagate_ode(h, t0: float, t1: float, tol: float = 1e-10) -> PropagatorResult:
    """Time-ordered propagator of H(t) on [t0, t1] by DOP853.

    h is a PermExpHamiltonian or a callable t -> dense Hermitian matrix.
    Columns of U are the evolved computational basis vectors.
    """
    _check_pre(h, tol)
    if isinstance(h, PermExpHamiltonian):
        return _integrate(generator_table(h), h.dim, t0, t1, tol)
    dim = np.asarray(h(t0)).shape[0]
    return _integrate(lambda *_: (np.zeros(1), lambda t: -1j * np.asarray(h(t))), dim, t0, t1, tol)


def propagate_interaction(h: PermExpHamiltonian, t0: float, t1: float,
                          tol: float = 1e-10) -> PropagatorResult:
    """Propagator of the interaction-frame generator e^{iH0 t} V(t) e^{-iH0 t}."""
    _check_pre(h, tol)
    return _integrate(generator_table(h, interaction=True), h.dim, t0, t1, tol)


def two_level_oscillating_propagator(h_field: float, gamma: float, alpha: float,
                                     t: float) -> np.ndarray:
    """Exact propagator of h*Z + gamma*(e^{-i a t}|0><1| + h.c.).

    In the frame rotating at alpha the generator is the static
    (h - alpha/2) Z + gamma X, so U(t) = e^{-i alpha t Z / 2} e^{-i H_rot t}.
    """
    a = h_field - alpha / 2.0
    w = math.hypot(a, gamma)
    eye = np.eye(2, dtype=complex)
    axis = np.array([[a, gamma], [gamma, -a]], dtype=complex)
    if w == 0.0:
        rot = eye
    else:
        rot = math.cos(w * t) * eye - 1j * math.sin(w * t) * axis / w
    frame = np.diag([np.exp(-0.5j * alpha * t), np.exp(0.5j * alpha * t)])
    return frame @ rot


def exp_dd_oracle_bidiagonal(xs) -> complex:
    """Independent oracle: divided difference as the corner of a matrix exponential.

    The upper bidiagonal matrix with xs on the diagonal and ones on the
    superdiagonal has e^{[x_0,...,x_q]} as the (0, q) entry of its exponential.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=complex))
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("input list must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(xs)):
        raise ValueError("divided-difference inputs must be finite")
    if len(xs) > ORACLE_MAX_INPUTS:
        raise UnsupportedSizeError(
            f"bidiagonal oracle supports at most {ORACLE_MAX_INPUTS} inputs, got {len(xs)}")
    m = len(xs)
    if m == 1:
        return complex(np.exp(xs[0]))
    mat = np.diag(xs) + np.diag(np.ones(m - 1), 1)
    return complex(expm(mat)[0, -1])


def _simpson_nodes(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson nodes/weights on [0, 1] with an even panel count."""
    panels = grid + (grid % 2)
    u = np.linspace(0.0, 1.0, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= 1.0 / (3.0 * panels)
    return u, w


def hermite_genocchi_quadrature(lambdas, grid: int) -> complex:
    """Nested simplex integral of exp(sum_l lambda_l s_l) by composite quadrature.

    Evaluates int_0^1 ds_q ... int_0^{s_2} ds_1 e^{lambda_1 s_1 + ... + lambda_q s_q}
    on the simplex 0 <= s_1 <= ... <= s_q <= 1, which converges to
    exp_dd([x_1,...,x_q, 0]) with x_j = sum_{l>=j} lambda_l.  Cost grows as grid^q.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=complex))
    q = len(lam)
    if q == 0:
        raise ValueError("need at least one exponent")
    if q > 3:
        raise UnsupportedSizeError("simplex quadrature is rated for q <= 3")
    if grid < 10:
        raise ValueError("grid must be at least 10")
    if not np.all(np.isfinite(lam)):
        raise ValueError("exponents must be finite")
    u, w = _simpson_nodes(grid)
    # Map the simplex to the unit cube: s_j = prod_{l=j}^{q} u_l, with
    # Jacobian prod_{l=2}^{q} u_l^{l-1}.
    grids = np.meshgrid(*([u] * q), indexing="ij")
    s = [None] * q
    s[q - 1] = grids[q - 1]
    for j in range(q - 2, -1, -1):
        s[j] = s[j + 1] * grids[j]
    phase = sum(lam[j] * s[j] for j in range(q))
    jac = 1.0
    for l in range(1, q):
        jac = jac * grids[l] ** l
    integrand = np.exp(phase) * jac
    for _ in range(q):
        integrand = np.tensordot(integrand, w, axes=([-1], [0]))
    return complex(integrand)
