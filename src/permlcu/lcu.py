"""Statevector simulation of the per-segment LCU routine.

The ancilla indexes the enumerated Dyson terms: entry 2*t + x couples term t
(ordered by ascending order q, then lexicographic multi-indices) with the
cosine-decomposition qubit x.  The preparation B is a real Householder
reflection sending the all-zero ancilla to the weight state; the controlled
unitary applies (-i)^q P_{i_q} Phi_{x} per ancilla basis state; oblivious
amplitude amplification composes A = -W R W^dag R W with W = B^dag V_c B.

For a unitary segment operator the projected result is exactly
(3/s - 4/s^3) * U |psi>; the sign of that factor is a classically known
global phase, normalized away so small-s clamped final segments and the
V = 0 limit act as the identity they represent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dyson, pham, sched
from .sched import MODE_EXACT

MAX_PIPELINE_QUBITS = 8
RESIDUAL_ABORT = 10.0


class AncillaPreconditionError(ValueError):
    """The operation requires the ancilla register in the all-zero state."""


class SimulationAbort(RuntimeError):
    """A segment residual exceeded its budget; diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class RegisterLayout:
    """Ancilla bookkeeping for Q order registers of dimensions dim_i, dim_k plus x."""
    Q: int
    dim_i: int
    dim_k: int
    n: int

    @property
    def n_terms(self) -> int:
        base = self.dim_i * self.dim_k
        return sum(base**q for q in range(self.Q + 1))

    @property
    def ancilla_dim(self) -> int:
        return 2 * self.n_terms

    @property
    def joint_dim(self) -> int:
        return self.ancilla_dim * (1 << self.n)


def layout_for(h: pham.PermExpHamiltonian, q_max: int) -> RegisterLayout:
    return RegisterLayout(Q=q_max, dim_i=len(h.vterms), dim_k=h.num_exp_terms, n=h.n)


@dataclass
class Statevector:
    """Joint ancilla (x) system amplitudes, row-major (ancilla, system)."""
    amps: np.ndarray
    layout: RegisterLayout

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def system_block(self, ancilla_index: int = 0) -> np.ndarray:
        """A copy of one ancilla row, so that keeping it does not keep the
        whole ancilla-sized array alive."""
        return self.amps[ancilla_index].copy()

    @classmethod
    def from_system(cls, layout: RegisterLayout, psi_system: np.ndarray) -> "Statevector":
        amps = np.zeros((layout.ancilla_dim, 1 << layout.n), dtype=complex)
        amps[0] = psi_system
        return cls(amps=amps, layout=layout)


@dataclass(frozen=True)
class LCUContext:
    """Per-segment data: preparation amplitudes and controlled-unitary tables."""
    layout: RegisterLayout
    s: float
    b_amps: np.ndarray       # (ancilla_dim,) real preparation amplitudes
    phase_table: np.ndarray  # (ancilla_dim, 2^n) factors (-i)^q e^{i(+-phi+theta)}
    gather: np.ndarray       # (n_terms, 1, 2^n) z ^ mask, shared by a term's x rows


def build_context(seg: dyson.SegmentOperator) -> LCUContext:
    layout = layout_for(seg.h, seg.q_max)
    terms = seg.blocks
    if len(terms) != layout.n_terms:
        raise RuntimeError("segment enumeration does not match the register layout")
    adim = layout.ancilla_dim
    # row 2t + x: term t, cosine branch x; bound = dt_tilde^q/q! * Gamma-part
    # in either mode, so the prepared weight is bound/(2s) per x branch
    b = np.empty(adim)
    b[0::2] = b[1::2] = np.sqrt(terms.bound / (2.0 * seg.s))
    factors = seg.plan.factors[:, None]
    phases = np.empty((adim, seg.h.dim), dtype=complex)
    phases[0::2] = factors * np.exp(1j * (terms.phi + terms.theta))
    phases[1::2] = factors * np.exp(1j * (-terms.phi + terms.theta))
    drift = abs(float(b @ b) - 1.0)
    if drift > 1e-8:
        raise RuntimeError(f"preparation amplitudes drifted from unit norm by {drift:.2e}")
    b /= np.linalg.norm(b)
    gather = (terms.cum_mask[:, None] ^ np.arange(seg.h.dim))[:, None, :]
    return LCUContext(layout=layout, s=seg.s, b_amps=b, phase_table=phases, gather=gather)


class AncillaPreparation:
    """Real Householder reflection with B|0> = psi0 (so B = B^dag = B^{-1}).

    With psi0 = LCUContext.b_amps, B prepares the per-term square-root weights
    sqrt(dt_tilde^q Gamma_term / (2 q! s)) with the x qubit in (|0>+|1>)/sqrt(2).
    """

    def __init__(self, psi0: np.ndarray):
        self.psi0 = psi0
        w = psi0.astype(float).copy()
        w[0] -= 1.0
        self._w = w / np.linalg.norm(w)

    def apply(self, joint: np.ndarray) -> np.ndarray:
        return joint - 2.0 * np.outer(self._w, self._w @ joint)

    apply_dagger = apply


def _permute(ctx: LCUContext, joint: np.ndarray) -> np.ndarray:
    """System block a gets P_{i_q}: amplitude z moves to z ^ mask (an involution)."""
    pairs = joint.reshape(-1, 2, joint.shape[1])
    return np.take_along_axis(pairs, ctx.gather, axis=2).reshape(joint.shape)


def apply_Vc(ctx: LCUContext, joint: np.ndarray) -> np.ndarray:
    """Controlled segment unitary: system block a gets (-i)^q P_{i_q} Phi_{a}."""
    return _permute(ctx, ctx.phase_table * joint)


def _apply_w(ctx: LCUContext, prep: AncillaPreparation, joint: np.ndarray) -> np.ndarray:
    return prep.apply_dagger(apply_Vc(ctx, prep.apply(joint)))


def _apply_w_dagger(ctx: LCUContext, prep: AncillaPreparation, joint: np.ndarray) -> np.ndarray:
    # V_c is block diagonal: its adjoint conjugates phases and inverts the
    # permutation (XOR masks are involutions, so the permutation is reused)
    return prep.apply_dagger(ctx.phase_table.conj() * _permute(ctx, prep.apply(joint)))


def oaa_sequence(apply_w, apply_w_dagger, joint: np.ndarray) -> np.ndarray:
    """-W R W^dag R W acting on the joint state; R negates the ancilla-0 block."""
    cur = apply_w(joint)
    cur[0] *= -1.0
    cur = apply_w_dagger(cur)
    cur[0] *= -1.0
    cur = apply_w(cur)
    return -cur


def amplification_factor(s: float) -> float:
    """Projected amplitude 3/s - 4/s^3 = sin(3 arcsin(1/s)) of the OAA output."""
    return 3.0 / s - 4.0 / s**3


def apply_A(ctx: LCUContext, psi: Statevector) -> Statevector:
    """One OAA application, with the known global sign of the projected branch
    normalized to +1 (it flips for small-s clamped segments and V = 0)."""
    if np.linalg.norm(psi.amps[1:]) > 1e-10 * max(psi.norm, 1e-30):
        raise AncillaPreconditionError("apply_A requires the ancilla in |0...0>")
    prep = AncillaPreparation(ctx.b_amps)
    out = oaa_sequence(lambda j: _apply_w(ctx, prep, j),
                       lambda j: _apply_w_dagger(ctx, prep, j),
                       psi.amps.copy())
    if amplification_factor(ctx.s) < 0.0:
        out = -out
    return Statevector(amps=out, layout=psi.layout)


def apply_H0_phase(h: pham.PermExpHamiltonian, t: float, psi: np.ndarray) -> np.ndarray:
    """Diagonal unitary e^{-i H0 t} on the system register."""
    return np.asarray(psi, dtype=complex) * np.exp(-1j * h.h0_diag * t)


def run_full(h: pham.PermExpHamiltonian, t_total: float, eps: float,
             psi_system: np.ndarray, mode: str = MODE_EXACT):
    """Full evolution: schedule, per-segment OAA with ancilla projection,
    then the closing diagonal phase e^{-i H0 T}.

    Returns (final Statevector, diagnostics).  Between segments the ancilla
    is projected back to |0...0> and the system renormalized; the projection
    deficit and the direction residual against the dense segment operator
    are recorded per segment.  A residual above RESIDUAL_ABORT * eps / r
    aborts with diagnostics attached.
    """
    if h.n > MAX_PIPELINE_QUBITS:
        raise ValueError(f"full pipeline rated for n <= {MAX_PIPELINE_QUBITS}")
    psi = np.asarray(psi_system, dtype=complex)
    nrm = np.linalg.norm(psi)
    if not (nrm > 0):
        raise ValueError("initial system state must be nonzero")
    psi = psi / nrm
    schedule = sched.build_schedule(h, t_total, eps=eps, mode=mode)
    budget = RESIDUAL_ABORT * eps / schedule.r
    residuals, deficits = [], []
    plan = dyson.SegmentPlan(h, schedule)
    layout = None
    for w in range(schedule.r):
        seg = dyson.build_segment(h, schedule, w, plan=plan)
        ctx = build_context(seg)
        layout = ctx.layout
        state = Statevector.from_system(ctx.layout, psi)
        state = apply_A(ctx, state)
        block = state.system_block(0)
        block_norm = float(np.linalg.norm(block))
        if block_norm < 1e-6:
            raise SimulationAbort(
                f"segment {w}: projected amplitude {block_norm:.2e} vanished "
                f"(s = {seg.s:.6f} near the amplification zero)")
        new_psi = block / block_norm
        ref = seg.matrix() @ psi
        ref /= np.linalg.norm(ref)
        residual = float(np.linalg.norm(new_psi - ref))
        deficit = 1.0 - block_norm
        residuals.append(residual)
        deficits.append(deficit)
        if residual > budget:
            raise SimulationAbort(
                f"segment {w} residual {residual:.3e} exceeds budget {budget:.3e}",
                {"residuals": residuals, "deficits": deficits})
        psi = new_psi
    psi = apply_H0_phase(h, t_total, psi)
    final = Statevector.from_system(layout, psi) if layout is not None else None
    diagnostics = {
        "r": schedule.r, "Q": schedule.Q,
        "residuals": residuals, "deficits": deficits,
        "total_deficit": float(sum(deficits)),
    }
    return final, diagnostics
