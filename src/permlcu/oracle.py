"""Independent ground-truth propagators used by every acceptance check.

Nothing here shares code with the divided-difference or segment machinery.
Time-ordered propagators are integrated with Hairer's DOP853 via
`scipy.integrate.ode` (a compiled stepping loop; the complex state is passed
as a float64 view).  For a PermExpHamiltonian the generator -iH(t) is built
once per call as a table: the flat matrix index, -i*amp and rate of every
entry of V (mask-0 diagonal terms included), plus rate-0 diagonal rows for
the -i*H0 base, so each right-hand side is one exp, one reduceat scatter and
one matmul.  The interaction-frame generator is the same table with every
rate shifted by i(E_row - E_col) and no base.  The two-level oscillating
model also has an exact rotating-frame closed form for frequencies an ODE
cannot resolve in reasonable time.
"""
from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode

from .pham import PermExpHamiltonian

MAX_PIPELINE_QUBITS = 8
MAX_STEPS = 1_000_000  # accepted plus rejected DOP853 steps per call
# negative IDID return codes of Hairer's DOP853
_DOP853_FAILURES = {-1: "input is not consistent", -2: f"more than {MAX_STEPS} steps",
                    -3: "step size became too small", -4: "problem is probably stiff"}


class StiffnessError(RuntimeError):
    """The integrator failed (step underflow, step cap, stiffness) or lost unitarity."""


@dataclass(frozen=True)
class PropagatorResult:
    U: np.ndarray
    est_error: float
    steps_taken: int


def generator_table(h: PermExpHamiltonian, interaction: bool = False):
    """Return t -> G(t) = -iH(t), or the interaction-frame generator
    -i e^{iH0 t} V(t) e^{-iH0 t} when interaction is set, as a dense matrix.

    Every nonzero entry of G is a sum of coef * exp(rate * t) over table
    rows sharing its flat index; -i*H0 enters as rate-0 diagonal rows (none
    in the interaction frame).  The returned matrix is a buffer that the
    next call overwrites.
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
    coef, rate = coef[order], rate[order]
    gen = np.zeros((dim, dim), dtype=complex)
    flat = gen.reshape(-1)

    def evaluate(t: float) -> np.ndarray:
        flat[targets] = np.add.reduceat(coef * np.exp(rate * t), starts)
        return gen

    return evaluate


class _Dop853:
    """scipy's `ode` with DOP853 at one tolerance, reused for every run.

    scipy's compiled DOP853 runner keeps a reference to the right-hand side
    and to the integrator's step callback that it is given and never drops
    it, so an `ode` made per run would stay in memory with its work arrays
    and everything its right-hand side holds.  Each thread therefore keeps
    one solver per tolerance, with a fixed right-hand side that reads the
    current problem from the solver.  Not re-entrant: a callable H(t) must
    not call the oracle itself.
    """

    def __init__(self, tol: float):
        self.gen_of_t = self.out = self.out_real = self.error = None
        self.accepted = 0
        self.ode = ode(self._rhs).set_integrator(
            "dop853", rtol=tol / 100.0, atol=tol / 100.0, nsteps=MAX_STEPS)
        self.ode.set_solout(self._count)

    def _rhs(self, t, y):
        try:
            np.matmul(self.gen_of_t(t), y.view(complex).reshape(self.out.shape), out=self.out)
        except BaseException as exc:
            # the runner would go on stepping (and holding memory) until the
            # step cap; NaN makes it stop at once and run() raises exc again
            self.error = exc
            self.out.fill(np.nan)
        return self.out_real

    def _count(self, t, y):
        self.accepted += 1  # once at t0, then after every accepted step

    def run(self, gen_of_t, dim: int, t0: float, t1: float):
        """(U(t1), return code, accepted steps) for dU/dt = G(t) U, U(t0) = 1."""
        self.gen_of_t, self.out = gen_of_t, np.empty((dim, dim), dtype=complex)
        self.out_real = self.out.view(float).reshape(-1)
        self.accepted = -1
        self.ode.set_initial_value(np.eye(dim, dtype=complex).view(float).reshape(-1), t0)
        try:
            with warnings.catch_warnings():
                # a failure is raised by the caller; scipy would also warn about it
                warnings.filterwarnings("ignore", "dop853", UserWarning)
                y = self.ode.integrate(t1)
        finally:
            error, self.error = self.error, None
            self.gen_of_t = self.out = self.out_real = None
        if error is not None:
            raise error
        return y.view(complex).reshape(dim, dim).copy(), self.ode.get_return_code(), self.accepted


class _ThreadSolvers(threading.local):
    """This thread's solvers, one per tolerance."""

    def __init__(self):
        self.by_tol: dict[float, _Dop853] = {}


_SOLVERS = _ThreadSolvers()


def _integrate(gen_of_t, dim: int, t0: float, t1: float, tol: float) -> PropagatorResult:
    if t1 == t0:
        return PropagatorResult(U=np.eye(dim, dtype=complex), est_error=tol, steps_taken=0)
    solvers = _SOLVERS.by_tol
    if tol not in solvers:
        solvers[tol] = _Dop853(tol)
    u, code, accepted = solvers[tol].run(gen_of_t, dim, t0, t1)
    if code < 0:
        raise StiffnessError(f"integrator failed on [{t0}, {t1}] with code {code}: "
                             f"{_DOP853_FAILURES.get(code, 'unknown failure')}")
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
    return _integrate(lambda t: -1j * np.asarray(h(t)), dim, t0, t1, tol)


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
