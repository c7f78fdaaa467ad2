"""Statevector simulation of the per-segment LCU routine.

The ancilla indexes the plan's kept Dyson terms: entry 2*r + x couples the
r-th (ordered by ascending order q, then lexicographic multi-indices) with
the cosine-decomposition qubit x.  A term with a zero growth-table scale
product is no row: its zero amplitude would stay 0 through V_c, the gather
and both reflections.  The preparation B is a real reflection sending the
all-zero ancilla to the weight state |b>; the controlled unitary V_c
applies (-i)^q P_{i_q} Phi_{x} per ancilla basis state; oblivious amplitude
amplification composes A = -W R W^dag R W with W = B^dag V_c B and
R = I - 2|0><0| on the ancilla.

Since B = B^dag and B|0> = |b>, B R B is the reflection I - 2|b><b| about
the weight state, so the system block that the run keeps is

    <0|A|0> psi = -<b| V_c (I - 2|b><b|) V_c^dag (I - 2|b><b|) V_c |b> psi,

which `apply_A` computes on (ancilla, system) arrays without forming B.

Each Dyson coefficient is bound * u with |u| <= 1, and u is the mean of the
two unit-modulus cosine branches e^{i theta}(|u| +- i sqrt(1 - |u|^2)),
u = |u| e^{i theta}; `cosine_branches` builds them straight from the
coefficients and bounds and owns the check that the bounds hold.

A padding term after the Dyson terms (coefficient 0, mask 0, bound 2 - s)
brings every segment's normalization to exactly 2 (Berry, Childs, Cleve,
Kothari & Somma, PRL 114, 090502 (2015)): its two cosine branches, +i and
-i, cancel, so the projected block <b|V_c|b> is U/2.  At s = 2 the
amplification is exact: the projected result is U |psi>, and the deficits
are at roundoff level.

Only `apply_A` depends on the state, so `build_context` builds the
contexts of all the segments of a `dyson.SegmentBlock` at once, from the
block's entry values, and the run's `RunTables` keeps them until the next
block.  Off the plan's entries a coefficient is exactly 0, with branches
+i and -i, which `RunTables` turns into row constants once per run.
`run_full` checks each segment against the matrix-free U psi of
`dyson.SegmentOperator.apply`.  The benchmark's tracer wraps
`dyson.build_segment`, `build_context` and `apply_A`, which `run_full`
calls once per segment through their modules.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dyson, pham, sched

MAX_PIPELINE_QUBITS = 8
RESIDUAL_ABORT = 10.0
BOUND_CLAMP_TOL = 1e-9


class TermBoundError(RuntimeError):
    """A coefficient exceeded its norm bound, or a segment's preparation
    weights their unit norm, by more than roundoff: internal bug."""


class SimulationAbort(RuntimeError):
    """A segment residual exceeded its budget; diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class RegisterLayout:
    """Ancilla bookkeeping: n_terms terms (the plan's kept Dyson terms plus
    the padding term), each with its cosine qubit x, on n system qubits."""
    n_terms: int
    n: int

    @property
    def ancilla_dim(self) -> int:
        return 2 * self.n_terms

    @property
    def joint_dim(self) -> int:
        return self.ancilla_dim * (1 << self.n)


@dataclass
class Statevector:
    """Joint ancilla (x) system amplitudes, row-major (ancilla, system)."""
    amps: np.ndarray
    layout: RegisterLayout

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
    phase_table: np.ndarray  # (ancilla_dim, 2^n) factors (-i)^q c+-, see cosine_branches
    gather: np.ndarray       # (ancilla_dim * 2^n,) flat index: entry (a, z) reads (a, z ^ mask)


def cosine_branches(coeff: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise unit-modulus branches c+- = e^{i theta}(|u| +- i sqrt(1 - |u|^2))
    of u = coeff/bound = |u| e^{i theta}, so that coeff = bound (c+ + c-)/2;
    ``bound`` broadcasts against ``coeff``, whose last two axes are one
    segment's table (or some of its entries) and whose leading axes stack
    segments; every entry's branches are the same whatever else shares the call.
    |u| is clamped to 1, and u = 0 gives exactly (i, -i).  A coefficient of
    subnormal magnitude takes theta = 0: its phase is below the roundoff of
    any bound, and coeff/|coeff| would lose its precision.

    A zero bound is only legal for a zero coefficient (zero-padded exponential
    terms); a negative bound, or a ratio above 1 + 1e-9, indicates a bound
    violation, not roundoff.
    """
    mag = np.abs(coeff)
    bound = np.broadcast_to(bound, mag.shape)
    zero = bound == 0.0
    if (bound < 0.0).any() or (mag[zero] > 0.0).any():
        raise TermBoundError("nonzero coefficient on a zero bound, or a negative bound")
    # e^{i theta}, a part at a time: a complex quotient goes through 1/|coeff|
    unit = np.ones(mag.shape, dtype=complex)
    normal = mag >= np.finfo(float).tiny
    np.divide(coeff.real, mag, out=unit.real, where=normal)
    np.divide(coeff.imag, mag, out=unit.imag, where=normal)
    # |u| and c+ in place: freed entry-sized temporaries leave holes that raise peak RSS
    ratio = np.divide(mag, bound, out=mag, where=~zero)
    del mag, normal, zero
    if ratio.max() > 1.0 + BOUND_CLAMP_TOL:
        worst = np.unravel_index(ratio.argmax(), ratio.shape)
        raise TermBoundError(f"|coeff|/bound = {ratio.max()} at entry {worst} "
                             "exceeds 1 beyond roundoff")
    np.minimum(ratio, 1.0, out=ratio)
    plus = np.empty(ratio.shape, dtype=complex)  # ratio + i sqrt((1 - ratio)(1 + ratio))
    root = np.subtract(1.0, ratio, out=plus.imag)
    np.sqrt(np.multiply(root, np.add(1.0, ratio, out=plus.real), out=root), out=root)
    plus.real = ratio
    del ratio
    # c- = unit * conj(c+) in place, in this operand order at every size (numpy's
    # temporary elision swaps `unit * plus.conj()` from 256 KiB on: other bits)
    minus = plus.conj()
    np.multiply(unit, minus, out=minus)
    return np.multiply(unit, plus, out=plus), minus


class RunTables:
    """What the contexts of a plan's run share, and the contexts of the
    block last built, over the plan's kept terms: ``row_of``, each term's
    row pair (kept terms only); ``fill``, the phase of each ancilla row off
    the plan's entries, (-i)^q (+-i)."""

    def __init__(self, plan: dyson.SegmentPlan):
        h, kept = plan.h, plan.kept
        self.layout = RegisterLayout(n_terms=len(kept) + 1, n=h.n)
        self.row_of = np.searchsorted(kept, np.arange(len(plan)))  # a kept term's row pair
        # the mask is below 2^n, so XOR on the flat index a * 2^n + z flips only z
        masks = np.repeat(np.append(plan.cum_mask[kept], 0), 2)
        self.gather = (np.arange(self.layout.ancilla_dim * h.dim).reshape(-1, h.dim)
                       ^ masks[:, None]).ravel()
        zero = np.concatenate(cosine_branches(np.zeros(1, dtype=complex), np.ones(1)))
        self.fill = (np.append(plan.factors[kept], 1.0)[:, None] * zero).ravel()  # 1: padding
        self.block: dyson.SegmentBlock | None = None
        self.contexts: tuple[LCUContext, ...] = ()


def build_context(seg: dyson.SegmentOperator, tables: RunTables) -> LCUContext:
    """The segment's context, read from the contexts of its block, which
    the first call for the block builds at once (``tables`` is the run's
    `RunTables` and keeps them)."""
    if tables.block is not seg.block:
        tables.block, tables.contexts = None, ()  # the last block's tables go first
        tables.contexts, tables.block = _block_contexts(seg.plan, seg.block, tables), seg.block
    return tables.contexts[seg.w - seg.block.start]


def _block_contexts(plan: dyson.SegmentPlan, block: dyson.SegmentBlock,
                    tables: RunTables) -> tuple[LCUContext, ...]:
    """The contexts of a block's segments: the entries' branches in one pass
    over (B, entries), every other phase its row's constant; raises
    TermBoundError naming the segment whose preparation weights drift."""
    layout = tables.layout
    n_seg, dim = len(block.s), 1 << layout.n
    # row 2 row_of[t] + x: kept term t, cosine branch x; bound = dt_tilde^q/q!
    # * Gamma-part in either mode, and the padding term (coefficient 0, mask 0,
    # factor 1) has bound 2 - s, which brings the total to 2, so the prepared
    # weight is bound/4 per x branch
    bound = np.concatenate([block.bound[:, plan.kept], (2.0 - block.s)[:, None]], axis=1)
    if (bound[:, -1] < 0.0).any():
        raise TermBoundError("s above 2 gives the padding term a negative bound")
    # the entries' branches, as in the whole table
    entries = plan.entries
    plus, minus = cosine_branches(block.values, block.bound.take(entries // dim, axis=1))
    for branch in (plus, minus):
        np.multiply(plan.factors.take(entries // dim), branch, out=branch)
    phases = np.repeat(np.broadcast_to(tables.fill, (n_seg, len(tables.fill))), dim, axis=1)
    # entry (t, z): c+ in row 2 row_of[t], c- in the row after it
    at = tables.row_of.take(entries // dim) * (2 * dim) + entries % dim
    phases[:, at], phases[:, at + dim] = plus, minus
    b = np.repeat(np.sqrt(bound / 4.0), 2, axis=1)
    norm2 = np.array([row @ row for row in b])  # per segment: a stacked sum rounds otherwise
    drift = np.abs(norm2 - 1.0)
    if (drift > 1e-8).any():
        i = int(np.argmax(drift > 1e-8))
        raise TermBoundError(f"segment {block.start + i}: preparation amplitudes drifted "
                             f"from unit norm by {drift[i]:.2e}")
    b /= np.sqrt(norm2)[:, None]
    return tuple(LCUContext(layout=layout, b_amps=row, phase_table=table, gather=tables.gather)
                 for row, table in zip(b, phases.reshape(n_seg, layout.ancilla_dim, dim)))


def apply_Vc(ctx: LCUContext, joint: np.ndarray) -> np.ndarray:
    """Controlled segment unitary on an (ancilla, system) array: system block
    a gets (-i)^q P_{i_q} Phi_{a}, so amplitude z moves to z ^ mask."""
    return _vc(ctx, np.array(joint, dtype=complex))


def _vc(ctx: LCUContext, joint: np.ndarray) -> np.ndarray:
    """apply_Vc, overwriting the complex array ``joint`` (phases first)."""
    np.multiply(ctx.phase_table, joint, out=joint)
    return joint.ravel().take(ctx.gather).reshape(joint.shape)


def _reflect_about_b(b: np.ndarray, joint: np.ndarray) -> None:
    """(I - 2|b><b|) (x) I in place."""
    joint -= b[:, None] * (2.0 * (b @ joint))


def oaa_sequence(apply_w, apply_w_dagger, joint: np.ndarray) -> np.ndarray:
    """-W R W^dag R W acting on the joint state; R negates the ancilla-0 block."""
    cur = apply_w(joint)
    cur[0] *= -1.0
    cur = apply_w_dagger(cur)
    cur[0] *= -1.0
    cur = apply_w(cur)
    return -cur


def apply_A(ctx: LCUContext, psi: np.ndarray) -> np.ndarray:
    """The system block <0|A|0> psi of one OAA application at s = 2.

    psi is the system vector, shape (2^n,); so is the result.  V_c^dag is
    the same gather (XOR masks are involutions) followed by the conjugate
    phases.
    """
    dim = ctx.phase_table.shape[1]
    if np.shape(psi) != (dim,):
        raise ValueError(f"apply_A takes a system vector of shape ({dim},), "
                         f"not of shape {np.shape(psi)}")
    b = ctx.b_amps.astype(complex)  # cast once, not in each product with the joint array
    cur = _vc(ctx, b[:, None] * psi)
    _reflect_about_b(b, cur)
    cur = cur.ravel().take(ctx.gather).reshape(cur.shape)
    step = max(1, (1 << 16) // dim)  # rows of conjugate phases at a time: no joint-sized copy
    for at in (slice(lo, lo + step) for lo in range(0, len(cur), step)):
        np.multiply(ctx.phase_table[at].conj(), cur[at], out=cur[at])
    _reflect_about_b(b, cur)
    return -(b @ _vc(ctx, cur))


def apply_H0_phase(h: pham.PermExpHamiltonian, t: float, psi: np.ndarray) -> np.ndarray:
    """Diagonal unitary e^{-i H0 t} on the system register."""
    return np.asarray(psi, dtype=complex) * np.exp(-1j * h.h0_diag * t)


def run_full(h: pham.PermExpHamiltonian, t_total: float, eps: float,
             psi_system: np.ndarray, mode: str = pham.MODE_EXACT):
    """Full evolution: schedule, per-segment OAA with ancilla projection,
    then the closing diagonal phase e^{-i H0 T}.

    Returns (final Statevector, diagnostics).  Between segments the ancilla
    is projected back to |0...0> and the system renormalized; the projection
    deficit and the direction residual against `SegmentOperator.apply` are
    recorded per segment.  A residual above RESIDUAL_ABORT * eps / r,
    or a non-finite one, aborts with diagnostics attached.  The plan's work
    counters are deterministic: ``dd_rows``, its divided-difference rows,
    ``squared_pairs``, its wide (row, step) pairs squared over its rows,
    and ``squaring_work``, that squaring's rows times levels.

    psi_system must be a finite, nonzero vector of length 2^n; it is
    normalized.  Any other state raises ValueError before the schedule is
    built.
    """
    if h.n > MAX_PIPELINE_QUBITS:
        raise ValueError(f"full pipeline rated for n <= {MAX_PIPELINE_QUBITS}")
    psi = np.asarray(psi_system, dtype=complex)
    if psi.shape != (h.dim,):
        raise ValueError(f"initial system state must be a 1-D vector of length {h.dim}, "
                         f"not of shape {psi.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = np.linalg.norm(psi)
    if not np.isfinite(nrm):
        raise ValueError("initial system state must be finite, and so must its norm")
    if nrm == 0:
        raise ValueError("initial system state must be nonzero")
    psi = psi / nrm
    schedule = sched.build_schedule(h, t_total, eps=eps, mode=mode)
    budget = RESIDUAL_ABORT * eps / schedule.r
    residuals, deficits = [], []
    plan = dyson.SegmentPlan(h, schedule)
    tables = RunTables(plan)
    for w in range(schedule.r):
        seg = dyson.build_segment(plan, w)
        # holding no context here, the next block's are built without the last one's
        block = apply_A(build_context(seg, tables), psi)
        block_norm = float(np.linalg.norm(block))
        new_psi = block / block_norm
        ref = seg.apply(psi)
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
    final = Statevector.from_system(tables.layout, psi)
    diagnostics = {
        "r": schedule.r, "Q": schedule.Q,
        "residuals": residuals, "deficits": deficits,
        "total_deficit": float(sum(deficits)), "dd_rows": plan.dd_rows,
        "squared_pairs": plan.squared_pairs, "squaring_work": plan.squaring_work,
    }
    return final, diagnostics
