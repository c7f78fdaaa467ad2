"""Truncated integral-free Dyson segment operators.

A segment operator over [t_w, t_w + dt_w] in the interaction frame is the
order-Q truncation of

    sum_q sum_{i_q} sum_{k_q} (-i)^q  e^{-i t_w (E_z - E_{z_q})}
        e^{t_w sum_l rate_l}  e^{dt_w [x_1,...,x_q, 0]}  d_coeff  P_{i_q} |z><z|

where the inputs x_j combine static-energy gaps along the permutation path
with the exponential rates, and the divided difference replaces the nested
time-ordered integrals.  Every scalar coefficient is bounded by
(dt_tilde^q / q!) * Gamma_term; the LCU simulator turns coefficient and
bound into its cosine branches (`lcu.cosine_branches`).

Everything but the phases at t_w and the divided differences at dt_w
depends only on the model and the truncation order, and the step lengths
are known before the first segment, so a `SegmentPlan` enumerates the
permutation paths once per run and evaluates the divided differences of
every distinct step length at once; each segment is an array table of its
terms built from the plan.

A term whose d_coeff = prod_j D_{i_j,k_j}(z_j) is exactly 0 vanishes
whatever its divided difference: a path through a zero-padded exponential
slot (the parser pads every PermTerm to a common K) or through a zero entry
of an amplitude diagonal.  The plan keeps the per-entry data and evaluates
the divided differences on the amplitude support only, the entries with a
nonzero d_coeff, with no threshold; the table keeps every term, with
coefficient 0 off the support, so the LCU and its bounds are unchanged.

The alternative (Schroedinger-frame) segment absorbs the static phases,
U_alt = e^{-i H0 t_{w+1}} U_I e^{i H0 t_w}.  Its inputs are
y_j = -i(E_{z_{j-1}} - E_z) - sum_{l<j} rate_l, j = 1..q+1, and the
interaction inputs are the same rows shifted by their last entry,
x_j = y_j - y_{q+1}, so e^{dt [y]} = e^{dt y_{q+1}} e^{dt [x]} (Gupta,
Barash & Hen, CPC 254 (2020); Kalev & Hen, NJP 23 (2021)).  The
alternative form is therefore read from the same plan: no second path
enumeration and no second divided-difference pass.
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
    bound: np.ndarray       # (T,) dt_tilde^q/q! * Gamma bound on |coeff|

    def __len__(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class SegmentOperator:
    """Truncated Dyson expansion of U_I(t_w + dt_w, t_w) plus its LCU data."""
    h: pham.PermExpHamiltonian
    s: float
    blocks: TermTable
    plan: "SegmentPlan"

    def matrix(self) -> np.ndarray:
        """Dense sum_t (-i)^q_t P_{cum_mask_t} diag(coeff_t), added term by
        term in table order (deterministic)."""
        tab = self.blocks
        nt, dim = tab.coeff.shape
        z = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        np.add.at(out, (tab.cum_mask[:, None] ^ z, np.broadcast_to(z, (nt, dim))),
                  self.plan.factors[:, None] * tab.coeff)
        return out


def count_terms(h: pham.PermExpHamiltonian, q_max: int) -> int:
    """Enumerated (q, i_q, k_q, z) tuples up to order q_max."""
    base = len(h.vterms) * h.num_exp_terms
    return h.dim * sum(base**q for q in range(q_max + 1))


class _Order(NamedTuple):
    """The order-q terms' data that does not depend on t_w.  The per-entry
    arrays hold the amplitude support only: the S entries (path, z) whose
    d_coeff is nonzero, in flat (B, 2^n) order."""
    q: int
    rows: slice            # their rows in the term table
    support: np.ndarray | slice  # (S,) flat indices into (B, 2^n); slice(None) if all
    divided: np.ndarray    # (steps, S) e^{dt [x_1, ..., x_q, 0]} per distinct step
    gap: np.ndarray        # (S,) E_z - E_{z_q}
    rates_sum: np.ndarray  # (S,)
    d_coeff: np.ndarray    # (S,)
    lam: np.ndarray        # (B, q) growth exponent of each (i_j, k_j)
    amp_prod: np.ndarray   # (B,) product of the amplitude scales


class SegmentPlan:
    """The Dyson segments of h over one schedule, less their phases and
    bounds at t_w: the permutation paths to order Q, and the divided
    differences at every distinct step length of the entries on the
    amplitude support, one `dd.exp_dd_steps` call per order.  Built once
    per run; ``dd_rows`` counts the rows evaluated."""

    def __init__(self, h: pham.PermExpHamiltonian, schedule: Schedule):
        self.h, self.schedule = h, schedule
        rows = self._enumerate(h, schedule.Q)
        # evaluated after the enumeration has returned and freed its temporaries
        steps = sorted({dt for _, dt in schedule.steps})
        self._step_index = {dt: i for i, dt in enumerate(steps)}
        self.orders = [o._replace(divided=dd.exp_dd_steps(xs, steps))
                       for o, xs in zip(self.orders, rows)]
        self.dd_rows = sum(len(xs) for xs in rows)
        self.factors = np.array([(-1j) ** q for q in range(schedule.Q + 1)])[self.q]  # (-i)^q

    def _enumerate(self, h: pham.PermExpHamiltonian, q_max: int) -> list[np.ndarray]:
        """Sets the orders' data but their divided differences, and every
        term's order and mask; returns each order's divided-difference inputs
        [x_1, ..., x_q, 0] on its support, shape (S, q + 1).

        The paths of order q are enumerated at once over all (i_q, k_q),
        i_q outer and k_q inner, both lexicographic; the rows of the
        entries with d_coeff exactly 0 are never built."""
        if q_max is None:
            raise ValueError("truncation order missing: build the schedule with eps")
        if count_terms(h, q_max) > ENUMERATION_GUARD:
            raise EnumerationLimitError(
                f"{count_terms(h, q_max)} terms exceed the enumeration guard {ENUMERATION_GUARD}")
        n_i, n_k, dim = len(h.vterms), h.num_exp_terms, h.dim
        # stacked (i, k) -> per-z tables
        amp = np.zeros((n_i, n_k, dim), dtype=complex)
        rate = np.zeros((n_i, n_k, dim), dtype=complex)
        amp_scale = np.zeros((n_i, n_k))
        for i, term in enumerate(h.vterms):
            for k, et in enumerate(term.exp_terms):
                amp[i, k], rate[i, k], amp_scale[i, k] = et.amp, et.rate, et.amp_max
        term_masks = np.array([term.mask for term in h.vterms], dtype=np.int64)
        lam_ik = rate.real.max(axis=2)           # per-(i,k) growth exponent
        self.gmax = amp_scale.max() if amp_scale.size else 0.0
        energies, z = h.h0_diag, np.arange(dim)
        self.orders: list[_Order] = []
        rows = []
        masks, qs, start = [np.zeros(1, dtype=np.int64)], [np.zeros(1, dtype=np.int64)], 1
        for q in range(1, q_max + 1 if n_i and n_k else 1):
            big_i = np.repeat(np.array(list(product(range(n_i), repeat=q)), dtype=np.int64),
                              n_k**q, axis=0)                             # (B, q)
            big_k = np.tile(np.array(list(product(range(n_k), repeat=q)), dtype=np.int64),
                            (n_i**q, 1))
            nb = len(big_i)
            cum = np.bitwise_xor.accumulate(term_masks[big_i], axis=1)    # cumulative masks
            zp = cum[:, :, None] ^ z                                      # (B, q, dim) z_j
            rates = rate[big_i[:, :, None], big_k[:, :, None], zp]
            d_coeff = amp[big_i[:, :, None], big_k[:, :, None], zp].prod(axis=1).ravel()
            support = np.flatnonzero(d_coeff)
            path, z0 = np.divmod(support, dim)
            zs, rs = zp[path, :, z0], rates[path, :, z0]                  # (S, q)
            rates_sum = rates.sum(axis=1).ravel()
            del zp, rates
            # x_j = i(E_{z_q} - E_{z_{j-1}}) + sum_{l >= j} rate_l; x_{q+1} = 0
            xs = np.zeros((len(support), q + 1), dtype=complex)
            np.cumsum(rs[:, ::-1], axis=1, out=xs[:, q - 1::-1])
            del rs
            e_final = energies[zs[:, -1]]
            xs[:, :q] += 1j * (e_final[:, None] - np.concatenate(
                [energies[z0, None], energies[zs[:, :-1]]], axis=1))
            rows.append(xs)
            if len(support) == len(d_coeff):
                support = slice(None)
            self.orders.append(_Order(
                q, slice(start, start + nb), support, None, energies[z0] - e_final,
                rates_sum[support], d_coeff[support],
                lam_ik[big_i, big_k], amp_scale[big_i, big_k].prod(axis=1)))
            masks.append(cum[:, -1])
            qs.append(np.full(nb, q))
            start += nb
        self.cum_mask, self.q = np.concatenate(masks), np.concatenate(qs)
        return rows

    def __len__(self) -> int:
        return len(self.q)

    def divided(self, dt: float) -> list[np.ndarray]:
        """e^{dt [x_1,...,x_q, 0]} of every order on its support, shape (S,)
        each, for a step length dt of the schedule."""
        i = self._step_index[dt]
        return [o.divided[i] for o in self.orders]


def build_segment(h: pham.PermExpHamiltonian, schedule: Schedule, w: int,
                  plan: SegmentPlan | None = None) -> SegmentOperator:
    """All Dyson terms of segment w up to the schedule's truncation order Q.

    The mode is inherited from the schedule: exact per-term Gamma bounds or
    the uniform (larger, state-preparation-cheap) bound.  ``plan`` is the
    run's SegmentPlan for (h, schedule); one is built, for every step of the
    schedule, when it is omitted.  Coefficients off the amplitude support
    are 0.
    """
    if plan is None:
        plan = SegmentPlan(h, schedule)
    elif plan.h is not h or plan.schedule != schedule:
        raise ValueError("the plan was built for another model or schedule")
    t_w, dt_w = schedule.steps[w]
    dt_tilde = schedule.dt_tilde(w)

    # row 0 is the q = 0 term: coefficient and bound 1
    coeff = np.zeros((len(plan), h.dim), dtype=complex)
    coeff[0] = 1.0
    bounds = np.ones(len(plan))
    for o, divided in zip(plan.orders, plan.divided(dt_w)):
        # phase * e^{t_w sum rates} * divided * d_coeff in this operand order
        # at every size (numpy computes a product of large arrays into its
        # right-hand temporary, operands swapped, and a complex product
        # with swapped operands can round differently)
        vals = np.exp(-1j * t_w * o.gap)
        vals *= np.exp(t_w * o.rates_sum)
        vals *= divided
        vals *= o.d_coeff
        # an order's rows are contiguous, so the flattened slice is a view
        coeff[o.rows].reshape(-1)[o.support] = vals
        scale = dt_tilde**o.q / math.factorial(o.q)
        if schedule.mode == MODE_UNIFORM:
            bounds[o.rows] = scale * (plan.gmax * np.exp(t_w * schedule.lam))**o.q
        else:
            bounds[o.rows] = scale * (np.exp(t_w * o.lam).prod(axis=1) * o.amp_prod)
    table = TermTable(q=plan.q, cum_mask=plan.cum_mask, coeff=coeff, bound=bounds)
    return SegmentOperator(h=h, s=schedule.s(w), blocks=table, plan=plan)


def alt_segment_unitary(h: pham.PermExpHamiltonian, schedule: Schedule, w: int,
                        plan: SegmentPlan | None = None) -> np.ndarray:
    """Dense Schroedinger-frame segment with the static phases absorbed,

        U_alt = e^{-i H0 t_{w+1}} U_I e^{i H0 t_w}:

    the interaction-frame segment of `build_segment`, same ``plan``
    contract, with its rows times e^{-i E t_{w+1}} and its columns times
    e^{i E t_w}.  Term by term this is the expansion in the inputs
    y_j = -i(E_{z_{j-1}} - E_z) - sum_{l<j} rate_l (y_1 = 0), which are the
    interaction inputs shifted, y_j = x_j + y_{q+1}, with a trailing
    diagonal e^{-i H0 dt_w}.
    """
    t_w, dt_w = schedule.steps[w]
    energies = h.h0_diag
    u_i = build_segment(h, schedule, w, plan).matrix()
    return np.exp(-1j * energies * (t_w + dt_w))[:, None] * u_i * np.exp(1j * energies * t_w)
