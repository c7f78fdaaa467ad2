"""Truncated integral-free Dyson segment operators.

A segment operator over [t_w, t_w + dt_w] in the interaction frame is the
order-Q truncation of

    sum_q sum_{i_q} sum_{k_q} (-i)^q  e^{-i t_w (E_z - E_{z_q})}
        e^{t_w sum_l rate_l}  e^{dt_w [x_1,...,x_q, 0]}  d_coeff  P_{i_q} |z><z|

where the inputs x_j combine static-energy gaps along the permutation path
with the exponential rates, and the divided difference replaces the nested
time-ordered integrals.  Every scalar coefficient is bounded by
(dt_tilde^q / q!) * Gamma_term, which fixes the phase pair (phi, theta)
consumed by the LCU simulator.

Everything but the phases at t_w and the divided differences at dt_w
depends only on the model and the truncation order, so a `SegmentPlan`
enumerates the permutation paths once per run, and each segment is an
array table of its terms built from the plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from . import dd, pham
from .sched import MODE_UNIFORM, Schedule

ENUMERATION_GUARD = 100_000_000
BOUND_CLAMP_TOL = 1e-9


class TermBoundError(RuntimeError):
    """A coefficient exceeded its norm bound by more than roundoff: internal bug."""


class EnumerationLimitError(ValueError):
    """The exhaustive multi-index enumeration would exceed the term guard."""


@dataclass(frozen=True, eq=False)
class TermTable:
    """All ancilla terms (q, i_q, k_q) of a segment, one row per term in
    ancilla order (ascending q, then i_q outer and k_q inner, both
    lexicographic); columns are the z-components."""
    q: np.ndarray           # (T,) order
    cum_mask: np.ndarray    # (T,) XOR mask of P_{i_q}
    coeff: np.ndarray       # (T, 2^n)
    phi: np.ndarray         # (T, 2^n)
    theta: np.ndarray       # (T, 2^n)
    gamma_term: np.ndarray  # (T,)
    bound: np.ndarray       # (T,) dt_tilde^q/q! * gamma bound used for the phases

    def __len__(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class SegmentOperator:
    """Truncated Dyson expansion of U_I(t_w + dt_w, t_w) plus its LCU data."""
    h: pham.PermExpHamiltonian
    w: int
    t_w: float
    dt_w: float
    dt_tilde: float
    q_max: int
    s: float
    gamma_step: float
    mode: str
    clamped: bool
    blocks: TermTable
    plan: "SegmentPlan"

    def matrix(self) -> np.ndarray:
        """Dense segment operator; deterministic term-ordered accumulation."""
        return _accumulate(self.blocks.cum_mask, self.plan.factors, self.blocks.coeff)


def _accumulate(cum_mask: np.ndarray, factors: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Dense sum_t factors_t P_{cum_mask_t} diag(coeff_t), added term by term."""
    nt, dim = coeff.shape
    z = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    np.add.at(out, (cum_mask[:, None] ^ z, np.broadcast_to(z, (nt, dim))),
              factors[:, None] * coeff)
    return out


def interaction_inputs(h: pham.PermExpHamiltonian, iq, kq, z: int):
    """Divided-difference inputs, permuted-state path, and static d-product.

    x_j = i(E_{z_q} - E_{z_{j-1}}) + sum_{l=j..q} rate_{i_l,k_l}[z_l], with
    z_l the state after the first l permutations and z_0 = z.
    """
    iq, kq = tuple(iq), tuple(kq)
    q = len(iq)
    if len(kq) != q:
        raise ValueError("i and k multi-indices must have equal order")
    energies = h.h0_diag
    z_path = []
    cur = z
    for i in iq:
        cur ^= h.vterms[i].mask
        z_path.append(cur)
    d_coeff = 1.0 + 0.0j
    rates = []
    for j in range(q):
        et = h.vterms[iq[j]].exp_terms[kq[j]]
        d_coeff *= et.amp[z_path[j]]
        rates.append(complex(et.rate[z_path[j]]))
    e_final = energies[z_path[-1]] if q else energies[z]
    suffix = 0.0 + 0.0j
    xj = [0.0 + 0.0j] * q
    for j in range(q - 1, -1, -1):
        suffix += rates[j]
        e_prev = energies[z_path[j - 1]] if j > 0 else energies[z]
        xj[j] = 1j * (e_final - e_prev) + suffix
    return tuple(xj), tuple(z_path), complex(d_coeff)


def term_coefficient(h: pham.PermExpHamiltonian, t_w: float, dt_w: float,
                     iq, kq, z: int) -> complex:
    """Scalar coefficient of P_{i_q}|z><z| in the segment expansion (reference path)."""
    xj, z_path, d_coeff = interaction_inputs(h, iq, kq, z)
    q = len(xj)
    if q == 0:
        return complex(dd.exp_dd_scaled(dt_w, [0.0]))
    rates_sum = sum(
        complex(h.vterms[iq[j]].exp_terms[kq[j]].rate[z_path[j]]) for j in range(q))
    energies = h.h0_diag
    phase = np.exp(-1j * t_w * (energies[z] - energies[z_path[-1]]))
    divided = dd.exp_dd_scaled(dt_w, list(xj) + [0.0])
    return complex(phase * np.exp(t_w * rates_sum) * divided * d_coeff)


def phase_angles(coeff: complex, bound: float) -> tuple[float, float]:
    """(phi, theta) with coeff = bound * cos(phi) * e^{i theta}, phi in [0, pi/2].

    A zero bound is only legal for a zero coefficient (zero-padded exponential
    terms); a ratio above 1 + 1e-9 indicates a bound violation, not roundoff.
    """
    mag = abs(coeff)
    if bound <= 0.0:
        if mag > 0.0 or bound < 0.0:
            raise TermBoundError(f"coefficient {coeff} with non-positive bound {bound}")
        return math.pi / 2.0, 0.0
    ratio = mag / bound
    if ratio > 1.0 + BOUND_CLAMP_TOL:
        raise TermBoundError(f"|coeff|/bound = {ratio} exceeds 1 beyond roundoff")
    phi = math.acos(min(ratio, 1.0))
    theta = math.atan2(coeff.imag, coeff.real) if mag > 0.0 else 0.0
    return phi, theta


def _lookup_tables(h: pham.PermExpHamiltonian):
    """Stacked (i, k) -> vector tables for vectorized enumeration."""
    n_i, n_k = len(h.vterms), h.num_exp_terms
    dim = h.dim
    amp = np.zeros((n_i, n_k, dim), dtype=complex)
    rate = np.zeros((n_i, n_k, dim), dtype=complex)
    amp_scale = np.zeros((n_i, n_k))
    masks = np.zeros(n_i, dtype=np.int64)
    for i, term in enumerate(h.vterms):
        masks[i] = term.mask
        for k, et in enumerate(term.exp_terms):
            amp[i, k] = et.amp
            rate[i, k] = et.rate
            amp_scale[i, k] = et.amp_max
    return amp, rate, amp_scale, masks


def count_terms(h: pham.PermExpHamiltonian, q_max: int) -> int:
    """Enumerated (q, i_q, k_q, z) tuples up to order q_max."""
    base = len(h.vterms) * h.num_exp_terms
    return h.dim * sum(base**q for q in range(q_max + 1))


def _truncation_order(schedule: Schedule, q_max: int | None) -> int:
    if q_max is None:
        q_max = schedule.Q
    if q_max is None:
        raise ValueError("truncation order missing: build the schedule with eps or pass q_max")
    return q_max


def _enumerate_paths(h: pham.PermExpHamiltonian, tables, q_max: int):
    """Per order q = 1..q_max, the permutation paths of all (i_q, k_q), i_q
    outer and k_q inner, both lexicographic: (i, k, cum, e_prev, e_final,
    rates, d_coeff), shapes (B, q) for the multi-indices and cumulative masks,
    (B, q, 2^n) for E_{z_{j-1}} and the rates, (B, 2^n) for E_{z_q} and d."""
    if count_terms(h, q_max) > ENUMERATION_GUARD:
        raise EnumerationLimitError(
            f"{count_terms(h, q_max)} terms exceed the enumeration guard {ENUMERATION_GUARD}")
    amp, rate, _, masks = tables
    n_i, n_k = amp.shape[:2]
    if not (n_i and n_k):
        return
    dim = h.dim
    z = np.arange(dim)
    energies = h.h0_diag
    for q in range(1, q_max + 1):
        i_tuples = np.array(list(product(range(n_i), repeat=q)), dtype=np.int64)
        k_tuples = np.array(list(product(range(n_k), repeat=q)), dtype=np.int64)
        n_it, n_kt = len(i_tuples), len(k_tuples)
        big_i = np.repeat(i_tuples, n_kt, axis=0)            # (B, q)
        big_k = np.tile(k_tuples, (n_it, 1))                 # (B, q)
        nb = n_it * n_kt

        cum = np.zeros((nb, q), dtype=np.int64)
        acc = np.zeros(nb, dtype=np.int64)
        for j in range(q):
            acc = acc ^ masks[big_i[:, j]]
            cum[:, j] = acc
        zp = cum[:, :, None] ^ z[None, None, :]              # (B, q, dim)

        e_prev = np.concatenate(
            [np.broadcast_to(energies[z], (nb, 1, dim)),
             energies[zp[:, :-1, :]]], axis=1)
        yield (big_i, big_k, cum, e_prev, energies[zp[:, -1, :]],
               rate[big_i[:, :, None], big_k[:, :, None], zp],
               amp[big_i[:, :, None], big_k[:, :, None], zp].prod(axis=1))


class _Order(NamedTuple):
    """Segment-independent data of the order-q terms."""
    q: int
    rows: slice            # their rows in the term table
    dd_rows: np.ndarray    # (B * 2^n, q + 1) inputs [x_1, ..., x_q, 0]
    gap: np.ndarray        # (B, 2^n) E_z - E_{z_q}
    rates_sum: np.ndarray  # (B, 2^n)
    d_coeff: np.ndarray    # (B, 2^n)
    lam: np.ndarray        # (B, q) growth exponent of each (i_j, k_j)
    amp_prod: np.ndarray   # (B,) product of the amplitude scales


class SegmentPlan:
    """The segment-independent part of the Dyson segments of h to order
    q_max, built once per run.  It keeps the divided differences of the last
    step length asked for, since a schedule's equal steps are consecutive."""

    def __init__(self, h: pham.PermExpHamiltonian, q_max: int):
        self.h, self.q_max = h, q_max
        tables = _lookup_tables(h)
        _, rate, amp_scale, _ = tables
        lam_ik = rate.real.max(axis=2)           # per-(i,k) growth exponent
        self.gmax = amp_scale.max() if amp_scale.size else 0.0
        dim = h.dim
        self.orders: list[_Order] = []
        masks, qs, start = [np.zeros(1, dtype=np.int64)], [np.zeros(1, dtype=np.int64)], 1
        for big_i, big_k, cum, e_prev, e_final, rates, d_coeff in _enumerate_paths(
                h, tables, q_max):
            nb, q = big_i.shape
            suffix = np.flip(np.cumsum(np.flip(rates, axis=1), axis=1), axis=1)
            xrows = 1j * (e_final[:, None, :] - e_prev) + suffix  # (B, q, dim)
            dd_rows = np.concatenate(
                [xrows.transpose(0, 2, 1).reshape(nb * dim, q),
                 np.zeros((nb * dim, 1), dtype=complex)], axis=1)
            self.orders.append(_Order(
                q, slice(start, start + nb), dd_rows, h.h0_diag[None, :] - e_final,
                rates.sum(axis=1), d_coeff, lam_ik[big_i, big_k],
                amp_scale[big_i, big_k].prod(axis=1)))
            masks.append(cum[:, -1])
            qs.append(np.full(nb, q))
            start += nb
        self.cum_mask, self.q = np.concatenate(masks), np.concatenate(qs)
        self.factors = np.array([(-1j) ** q for q in range(q_max + 1)])[self.q]  # (-i)^q
        self._dd_step = self._dd = None

    def __len__(self) -> int:
        return len(self.q)

    def divided(self, dt: float) -> list[np.ndarray]:
        """e^{dt [x_1,...,x_q, 0]} of every order, shape (B, 2^n) each."""
        if dt != self._dd_step:
            self._dd = [dd.exp_dd_scaled_batch(dt, o.dd_rows).reshape(o.gap.shape)
                        for o in self.orders]
            self._dd_step = dt
        return self._dd


def build_segment(h: pham.PermExpHamiltonian, schedule: Schedule, w: int,
                  q_max: int | None = None, plan: SegmentPlan | None = None
                  ) -> SegmentOperator:
    """All Dyson terms of segment w up to the truncation order.

    The mode is inherited from the schedule: exact per-term Gamma bounds or
    the uniform (larger, state-preparation-cheap) bound.  ``plan`` is the
    run's SegmentPlan for (h, q_max); one is built when it is omitted.
    """
    q_max = _truncation_order(schedule, q_max)
    if plan is None:
        plan = SegmentPlan(h, q_max)
    elif plan.h is not h or plan.q_max != q_max:
        raise ValueError(f"plan of order {plan.q_max} does not match this model "
                         f"at order {q_max}")
    t_w, dt_w = schedule.steps[w]
    dt_tilde = schedule.dt_tilde(w)
    gamma_step = schedule.gammas[w]
    mode = schedule.mode
    clamped = schedule.final_step_clamped and w == schedule.r - 1

    # row 0 is the q = 0 term: coefficient, Gamma and bound 1
    coeff = np.ones((len(plan), h.dim), dtype=complex)
    gamma_terms, bounds = np.ones(len(plan)), np.ones(len(plan))
    for o, divided in zip(plan.orders, plan.divided(dt_w)):
        phase = np.exp(-1j * t_w * o.gap)
        coeff[o.rows] = phase * np.exp(t_w * o.rates_sum) * divided * o.d_coeff
        gamma_terms[o.rows] = np.exp(t_w * o.lam).prod(axis=1) * o.amp_prod
        scale = dt_tilde**o.q / math.factorial(o.q)
        if mode == MODE_UNIFORM:
            bounds[o.rows] = scale * (plan.gmax * np.exp(t_w * schedule.lam))**o.q
        else:
            bounds[o.rows] = scale * gamma_terms[o.rows]

    mag = np.abs(coeff)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bounds[:, None] > 0, mag / bounds[:, None], 0.0)
    if (mag[bounds == 0.0] > 0).any() or ratio.max() > 1.0 + BOUND_CLAMP_TOL:
        raise TermBoundError(f"segment {w} order {plan.q[ratio.max(axis=1).argmax()]}: "
                             f"coefficient bound violated (max ratio {ratio.max()})")
    phi = np.arccos(np.minimum(ratio, 1.0))
    phi[bounds == 0.0] = math.pi / 2.0
    theta = np.where(mag > 0, np.angle(coeff), 0.0)

    s = sum((gamma_step * dt_tilde)**q / math.factorial(q) for q in range(q_max + 1))
    table = TermTable(q=plan.q, cum_mask=plan.cum_mask, coeff=coeff, phi=phi, theta=theta,
                      gamma_term=gamma_terms, bound=bounds)
    return SegmentOperator(h=h, w=w, t_w=t_w, dt_w=dt_w, dt_tilde=dt_tilde,
                           q_max=q_max, s=s, gamma_step=gamma_step, mode=mode,
                           clamped=clamped, blocks=table, plan=plan)


def build_segment_unitary(h: pham.PermExpHamiltonian, schedule: Schedule, w: int,
                          q_max: int | None = None) -> np.ndarray:
    """Dense truncated U_I(t_w + dt_w, t_w)."""
    return build_segment(h, schedule, w, q_max=q_max).matrix()


def alt_segment_unitary(h: pham.PermExpHamiltonian, schedule: Schedule, w: int,
                        q_max: int | None = None) -> np.ndarray:
    """Dense Schroedinger-frame segment with the static phases absorbed.

    Built from the shifted inputs y_j = -i(E_{z_{j-1}} - E_z) - sum_{l<j} rate_l
    (y_1 = 0) and a trailing diagonal e^{-i H0 dt_w}; satisfies
    e^{-i H0 t_{w+1}} U_I = U_alt e^{-i H0 t_w} segment by segment.
    """
    q_max = _truncation_order(schedule, q_max)
    t_w, dt_w = schedule.steps[w]
    dim = h.dim
    energies = h.h0_diag
    masks, factors = [np.zeros(1, dtype=np.int64)], [np.ones(1, dtype=complex)]  # q = 0
    coeffs = [np.ones((1, dim), dtype=complex)]
    for big_i, _, cum, e_prev, e_final, rates, d_coeff in _enumerate_paths(
            h, _lookup_tables(h), q_max):
        nb, q = big_i.shape
        rates_sum = rates.sum(axis=1)
        prefix = np.concatenate(
            [np.zeros((nb, 1, dim), dtype=complex),
             np.cumsum(rates, axis=1)[:, :-1, :]], axis=1)       # sum_{l<j} rate_l
        yrows = -1j * (e_prev - energies[None, None, :]) - prefix  # (B, q, dim)
        y_last = -1j * (e_final - energies[None, :]) - rates_sum   # j = q + 1
        flat = np.concatenate(
            [yrows.transpose(0, 2, 1).reshape(nb * dim, q),
             y_last.reshape(nb * dim, 1)], axis=1)
        divided = dd.exp_dd_scaled_batch(dt_w, flat).reshape(nb, dim)
        coeffs.append(np.exp((t_w + dt_w) * rates_sum) * divided * d_coeff)
        masks.append(cum[:, -1])
        factors.append(np.full(nb, (-1j) ** q))
    out = _accumulate(np.concatenate(masks), np.concatenate(factors), np.concatenate(coeffs))
    return out * np.exp(-1j * energies * dt_w)[None, :]
