"""Statevector simulation of the per-segment LCU routine.

The ancilla indexes the enumerated Dyson terms: entry 2*t + x couples term t
(ordered by ascending order q, then lexicographic multi-indices) with the
cosine-decomposition qubit x.  The preparation B is a real Householder
reflection sending the all-zero ancilla to the weight state; the controlled
unitary applies (-i)^q P_{i_q} Phi_{x} per ancilla basis state; oblivious
amplitude amplification composes A = -W R W^dag R W with W = B^dag V_c B.

A padding term after the Dyson terms (coefficient 0, mask 0, bound 2 - s)
brings every segment's normalization to exactly 2 (Berry, Childs, Cleve,
Kothari & Somma, PRL 114, 090502 (2015)): its two cosine branches, +i and
-i, cancel, so the projected block is U/2.  At s = 2 the amplification is
exact: the projected result is U |psi>, and the deficits are at roundoff level.
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
        """The Dyson terms up to order Q plus the padding term."""
        base = self.dim_i * self.dim_k
        return sum(base**q for q in range(self.Q + 1)) + 1

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
    b_amps: np.ndarray       # (ancilla_dim,) real preparation amplitudes
    phase_table: np.ndarray  # (ancilla_dim, 2^n) factors (-i)^q e^{i(+-phi+theta)}
    gather: np.ndarray       # (n_terms, 1, 2^n) z ^ mask, shared by a term's x rows


def build_context(seg: dyson.SegmentOperator) -> LCUContext:
    layout = layout_for(seg.h, seg.q_max)
    terms = seg.blocks
    if len(terms) + 1 != layout.n_terms:
        raise RuntimeError("segment enumeration does not match the register layout")
    adim = layout.ancilla_dim
    # row 2t + x: term t, cosine branch x; bound = dt_tilde^q/q! * Gamma-part
    # in either mode, and the padding term's bound 2 - s brings the total to
    # 2, so the prepared weight is bound/4 per x branch
    pad = 2.0 - seg.s
    pad_phi, pad_theta = dyson.phase_angles(np.zeros(1), pad)
    b = np.empty(adim)
    b[0::2] = b[1::2] = np.sqrt(np.append(terms.bound, pad) / 4.0)
    factors = seg.plan.factors[:, None]
    phases = np.empty((adim, seg.h.dim), dtype=complex)
    phases[0:-2:2] = factors * np.exp(1j * (terms.phi + terms.theta))
    phases[1:-2:2] = factors * np.exp(1j * (-terms.phi + terms.theta))
    phases[-2] = np.exp(1j * (pad_phi + pad_theta))
    phases[-1] = np.exp(1j * (-pad_phi + pad_theta))
    drift = abs(float(b @ b) - 1.0)
    if drift > 1e-8:
        raise RuntimeError(f"preparation amplitudes drifted from unit norm by {drift:.2e}")
    b /= np.linalg.norm(b)
    gather = (np.append(terms.cum_mask, 0)[:, None] ^ np.arange(seg.h.dim))[:, None, :]
    return LCUContext(layout=layout, b_amps=b, phase_table=phases, gather=gather)


class AncillaPreparation:
    """Real Householder reflection with B|0> = psi0 (so B = B^dag = B^{-1}).

    With psi0 = LCUContext.b_amps, B prepares the per-term square-root weights
    sqrt(dt_tilde^q Gamma_term / (4 q!)), and sqrt((2 - s)/4) for the padding
    term, with the x qubit in (|0>+|1>)/sqrt(2).
    """

    def __init__(self, psi0: np.ndarray):
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


def apply_A(ctx: LCUContext, psi: Statevector) -> Statevector:
    """One OAA application at s = 2."""
    if np.linalg.norm(psi.amps[1:]) > 1e-10 * max(psi.norm, 1e-30):
        raise AncillaPreconditionError("apply_A requires the ancilla in |0...0>")
    prep = AncillaPreparation(ctx.b_amps)
    out = oaa_sequence(lambda j: _apply_w(ctx, prep, j),
                       lambda j: _apply_w_dagger(ctx, prep, j),
                       psi.amps.copy())
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
    are recorded per segment.  A residual above RESIDUAL_ABORT * eps / r,
    or a non-finite one, aborts with diagnostics attached.
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
    for w in range(schedule.r):
        seg = dyson.build_segment(h, schedule, w, plan=plan)
        ctx = build_context(seg)
        block = apply_A(ctx, Statevector.from_system(ctx.layout, psi)).system_block(0)
        block_norm = float(np.linalg.norm(block))
        new_psi = block / block_norm
        ref = seg.matrix() @ psi
        ref /= np.linalg.norm(ref)
        residual = float(np.linalg.norm(new_psi - ref))
        residuals.append(residual)
        deficits.append(1.0 - block_norm)
        if not residual <= budget:
            raise SimulationAbort(
                f"segment {w} residual {residual:.3e} exceeds budget {budget:.3e}",
                {"residuals": residuals, "deficits": deficits})
        psi = new_psi
    psi = apply_H0_phase(h, t_total, psi)
    final = Statevector.from_system(ctx.layout, psi)  # r >= 1 for every schedule
    diagnostics = {
        "r": schedule.r, "Q": schedule.Q,
        "residuals": residuals, "deficits": deficits,
        "total_deficit": float(sum(deficits)),
    }
    return final, diagnostics
