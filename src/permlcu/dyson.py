"""Truncated integral-free Dyson segment operators.

A segment operator over [t_w, t_w + dt_w] in the interaction frame is the
order-Q truncation of

    sum_q sum_{i_q} sum_{k_q} (-i)^q  e^{-i t_w (E_z - E_{z_q})}
        e^{t_w sum_l rate_l}  e^{dt_w [x_1,...,x_q, 0]}  d_coeff  P_{i_q} |z><z|

where the inputs x_j combine static-energy gaps along the permutation path
with the exponential rates, and the divided difference replaces the nested
time-ordered integrals.  Every scalar coefficient is bounded by dt_tilde^q/q!
times its path's `pham.growth_table` factors; the LCU simulator turns
coefficient and bound into its cosine branches (`lcu.cosine_branches`).

Everything but the phases at t_w and the divided differences at dt_w
depends only on the model and the truncation order, and the step lengths
are known before the first segment, so a `SegmentPlan` enumerates the
permutation paths once per run into flat arrays over the terms of all
orders, and evaluates the divided differences of every distinct step
length in one `dd.exp_dd_steps` call, the rows of every order together.

A term whose d_coeff = prod_j D_{i_j,k_j}(z_j) is exactly 0 vanishes
whatever its divided difference: a path through a zero-padded exponential
slot (the parser pads every PermTerm to a common K) or through a zero entry
of an amplitude diagonal.  The plan evaluates the divided differences on
the amplitude support only, the entries with a nonzero d_coeff, with no
threshold.  A segment's table is its values at the plan's ``entries``, the
q = 0 row and then the support; every other coefficient is exactly 0.

The values depend only on t_w and dt_w, so the plan builds them a block of
consecutive segments at a time, in one array pass over (block, entries):
as many segments as fit in BLOCK_BYTES of dense table, at least one.
`build_segment(plan, w)` returns a view of the block that holds w; the
plan keeps one block and builds the next on first need.  Every product
keeps its operand order at every block size, so no value depends on how
many segments share a block; `SegmentOperator.apply` is U psi from them.

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

import numpy as np

from . import dd, pham
from .sched import Schedule

ENUMERATION_GUARD = 100_000_000
# Dense coefficient-table bytes per block of segments (at least one): the LCU's
# branches and phase table over a block take about six times as many, within 2 MB L2.
BLOCK_BYTES = 1 << 18


class EnumerationLimitError(ValueError):
    """The exhaustive multi-index enumeration would exceed the term guard."""


@dataclass(frozen=True, eq=False)
class TermTable:
    """One segment's coefficients at the plan's entries, and the bound of
    each term (q, i_q, k_q), in the order of the plan's ``q`` and ``cum_mask``."""
    values: np.ndarray      # (E,) coefficient of each entry, see SegmentPlan.entries
    bound: np.ndarray       # (T,) dt_tilde^q/q! * Gamma bound on |coeff|

    def __len__(self) -> int:
        return len(self.bound)


@dataclass(frozen=True, eq=False)
class SegmentBlock:
    """The tables of the consecutive segments start, start + 1, ... of a
    plan's schedule, stacked: entry values (B, E), bound (B, T) and the
    normalizations s (B,)."""
    start: int
    values: np.ndarray
    bound: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class SegmentOperator:
    """Truncated Dyson expansion of U_I(t_w + dt_w, t_w) plus its LCU data:
    segment w of the plan's schedule, a view of ``block``, from which its
    normalization ``s`` and its table ``blocks`` are read."""
    plan: "SegmentPlan"
    block: SegmentBlock
    w: int
    h = property(lambda self: self.plan.h)
    s = property(lambda self: float(self.block.s[self.w - self.block.start]))

    @property
    def blocks(self) -> TermTable:
        i = self.w - self.block.start
        return TermTable(self.block.values[i], self.block.bound[i])

    def _terms(self, psi: np.ndarray) -> np.ndarray:
        """Each support entry's coeff (-i)^q psi[z], in table order."""
        rotations = (np.array([1, -1j, -1, 1j])[:, None] * psi).ravel()
        # explicit: `values * rotations.take(...)` may swap its operands, see _build_block
        return np.multiply(self.blocks.values[len(psi):], rotations.take(self.plan.rotated))

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Matrix-free U psi: psi (the q = 0 term) plus, in table order,
        each support entry's coeff (-i)^q psi[z] at z ^ cum_mask."""
        out = np.zeros(len(psi), dtype=complex)
        np.add.at(out, self.plan.target, self._terms(psi))
        return psi + out

    def matrix(self) -> np.ndarray:
        """Dense U in one pass, bitwise `apply` on each identity column z, where
        only the entries at z add nonzero terms: their terms for the all-ones state."""
        out = np.zeros((self.h.dim, self.h.dim), dtype=complex)
        at = (self.plan.target, self.plan.rotated % self.h.dim)
        np.add.at(out, at, self._terms(np.ones(self.h.dim)))
        return np.eye(self.h.dim) + out


def count_terms(h: pham.PermExpHamiltonian, q_max: int) -> int:
    """Enumerated (q, i_q, k_q, z) tuples up to order q_max."""
    base = len(h.vterms) * h.num_exp_terms
    return h.dim * sum(base**q for q in range(q_max + 1))


class SegmentPlan:
    """The Dyson segments of h over one schedule, less their phases and
    bounds at t_w: the permutation paths to order Q, and the divided
    differences at every distinct step length of the entries on the
    amplitude support, all orders in one `dd.exp_dd_steps` call.  Built
    once per run; ``dd_rows`` counts the rows evaluated.

    Per term, row 0 the q = 0 term: q, cum_mask (of P_{i_q}), factors
    (-i)^q, lam (T, Q) the growth rate of each (i_j, k_j), 0 past q, and
    amp_prod, the product of their scales, both by the schedule mode's
    `pham.growth_table`.  entries, the flat (term, z) indices of the q = 0
    row and the support, in table order; per support entry: gap E_z -
    E_{z_q}, rates_sum, d_coeff, target = z ^ cum_mask and rotated, the
    place of (-i)^q psi[z] in the four rotations of psi, stacked."""

    def __init__(self, h: pham.PermExpHamiltonian, schedule: Schedule):
        self.h, self.schedule = h, schedule
        xs, orders = self._enumerate(h, schedule.Q, schedule.mode)
        # evaluated after the enumeration has returned and freed its temporaries
        steps = sorted({dt for _, dt in schedule.steps})
        self._step_index = {dt: i for i, dt in enumerate(steps)}
        self._divided = dd.exp_dd_steps(xs, steps, orders)  # (steps, S)
        self.dd_rows = len(xs)
        del xs, orders  # freed before the entry-sized index temporaries below
        term, z = np.divmod(self.entries[h.dim:], h.dim)
        self.target = (z ^ self.cum_mask[term]).astype(np.min_scalar_type(h.dim))
        self.rotated = (self.q[term] % 4 * h.dim + z).astype(np.min_scalar_type(4 * h.dim))
        self.factors = np.array([(-1j) ** q for q in range(schedule.Q + 1)])[self.q]  # (-i)^q
        # dt_tilde^q/q! once per distinct step and s once per distinct
        # (Gamma(t_w), dt_w): any segment w with those values gives them
        w_of = {dt: w for w, (_, dt) in enumerate(schedule.steps)}
        self._per_order = np.array([[schedule.dt_tilde(w_of[dt])**q / math.factorial(q)
                                     for q in range(schedule.Q + 1)] for dt in steps])
        pairs = list(zip(schedule.gammas, (dt for _, dt in schedule.steps)))
        s_of = {pair: schedule.s(w) for pair, w in {p: w for w, p in enumerate(pairs)}.items()}
        self._s = np.array([s_of[pair] for pair in pairs])
        self._block: SegmentBlock | None = None

    def _enumerate(self, h: pham.PermExpHamiltonian, q_max: int, mode: str):
        """Sets the per-term and per-entry arrays; returns the entries'
        divided-difference inputs [x_1, ..., x_q, 0], zero-padded to width
        q_max + 1, and their orders.

        The paths of order q are enumerated at once over all (i_q, k_q),
        i_q outer and k_q inner, both lexicographic; the rows of the
        entries with d_coeff exactly 0 are never built."""
        total = count_terms(h, q_max)
        if total > ENUMERATION_GUARD:
            raise EnumerationLimitError(
                f"{total} terms exceed the enumeration guard {ENUMERATION_GUARD}")
        n_i, n_k, dim = len(h.vterms), h.num_exp_terms, h.dim
        n_terms = total // dim
        # stacked (i, k) -> per-z tables
        amp = np.zeros((n_i, n_k, dim), dtype=complex)
        rate = np.zeros((n_i, n_k, dim), dtype=complex)
        for i, term in enumerate(h.vterms):
            for k, et in enumerate(term.exp_terms):
                amp[i, k], rate[i, k] = et.amp, et.rate
        term_masks = np.array([term.mask for term in h.vterms], dtype=np.int64)
        scale, growth = pham.growth_table(h, mode)
        energies, z = h.h0_diag, np.arange(dim)
        q_top = q_max if n_i and n_k else 0
        self.lam = np.zeros((n_terms, q_max))
        self.amp_prod = np.ones(n_terms)
        self.q = np.repeat(np.arange(q_top + 1), [(n_i * n_k)**q for q in range(q_top + 1)])
        self.cum_mask = np.zeros(n_terms, dtype=np.int64)
        # sized for the entries with all amplitude factors nonzero (paths[y]
        # counts such partial paths ending in state y); each order's support
        # follows the last's, and a product that underflows to 0 leaves a tail
        nz, paths, n_entries = (amp != 0).sum(axis=1), np.ones(dim, dtype=np.int64), 0
        for q in range(q_top):
            paths = sum(nz[i] * paths[z ^ mask] for i, mask in enumerate(term_masks))
            n_entries += int(paths.sum())
        xs = np.empty((n_entries, q_max + 1), dtype=complex)
        orders = np.empty(n_entries, dtype=np.min_scalar_type(q_max))
        entries = np.empty(dim + n_entries, dtype=np.intp)
        entries[:dim] = z
        gap, rates_sum = np.empty(n_entries), np.empty(n_entries, dtype=complex)
        d_coeff = np.empty(n_entries, dtype=complex)
        start, at = 1, 0
        for q in range(1, q_top + 1):
            big_i = np.repeat(np.array(list(product(range(n_i), repeat=q)), dtype=np.int64),
                              n_k**q, axis=0)                             # (B, q)
            big_k = np.tile(np.array(list(product(range(n_k), repeat=q)), dtype=np.int64),
                            (n_i**q, 1))
            nb = len(big_i)
            cum = np.bitwise_xor.accumulate(term_masks[big_i], axis=1)    # cumulative masks
            d_all = amp[big_i[:, 0, None], big_k[:, 0, None], cum[:, 0, None] ^ z]  # (B, dim)
            for j in range(1, q):  # a factor at a time: no (B, q, dim) path states
                d_all *= amp[big_i[:, j, None], big_k[:, j, None], cum[:, j, None] ^ z]
            support = np.flatnonzero(d_all)
            path, z0 = np.divmod(support, dim)
            zs = cum[path] ^ z0[:, None]                                  # (S, q) z_j
            rs = rate[big_i[path], big_k[path], zs]
            part = slice(at, at + len(support))
            rates_sum[part] = 0.0  # +0, then a factor at a time: as the scalar sum rounds
            for j in range(q):
                rates_sum[part] += rs[:, j]
            # x_j = i(E_{z_q} - E_{z_{j-1}}) + sum_{l >= j} rate_l; x_{q+1} = 0
            xs[part, q:] = 0.0
            np.cumsum(rs[:, ::-1], axis=1, out=xs[part, q - 1::-1])
            del rs
            e_final = energies[zs[:, -1]]
            gaps = np.concatenate([energies[z0, None], energies[zs[:, :-1]]], axis=1)
            np.subtract(e_final[:, None], gaps, out=gaps)
            xs[part, :q].imag += gaps  # in place: no complex temporary
            del gaps
            orders[part] = q
            entries[dim:][part] = support + start * dim
            gap[part] = energies[z0] - e_final
            d_coeff[part] = d_all.take(support)
            at += len(support)
            self.lam[start:start + nb, :q] = growth[big_i, big_k]
            self.amp_prod[start:start + nb] = scale[big_i, big_k].prod(axis=1)
            self.cum_mask[start:start + nb] = cum[:, -1]
            start += nb
        self.gap, self.rates_sum, self.d_coeff = (a[:at] for a in (gap, rates_sum, d_coeff))
        self.entries = entries[:dim + at]
        return xs[:at], orders[:at]

    def __len__(self) -> int:
        return len(self.q)

    def divided(self, dt: float) -> np.ndarray:
        """e^{dt [x_1,...,x_q, 0]} of every entry on the support, shape
        (S,), for a step length dt of the schedule."""
        return self._divided[self._step_index[dt]]

    def _build_block(self, ws: range) -> SegmentBlock:
        """The tables of segments ws in one array pass over (B, entries); a
        term's bound is dt_tilde^q/q! times its factors amp_prod e^{t_w lam}."""
        schedule = self.schedule
        t_ws = [schedule.steps[w][0] for w in ws]
        t = np.array(t_ws)
        at = [self._step_index[schedule.steps[w][1]] for w in ws]
        # the q = 0 row first: coefficient and bound 1
        values = np.empty((len(ws), len(self.entries)), dtype=complex)
        values[:, :self.h.dim] = 1.0
        vals = values[:, self.h.dim:]
        # phase * e^{t_w sum rates} * divided * d_coeff in this operand order at
        # every size (numpy computes a product of large arrays into its
        # right-hand temporary, operands swapped, and a complex product with
        # swapped operands can round differently)
        np.exp(np.multiply.outer([-1j * t_w for t_w in t_ws], self.gap), out=vals)
        vals *= np.exp(np.multiply.outer(t.astype(complex), self.rates_sum))
        vals *= self._divided[at]
        vals *= self.d_coeff
        # exp(0) = 1 past each term's order: the padding multiplies by 1.0
        bound = self._per_order[at][:, self.q] * (np.exp(np.multiply.outer(t, self.lam))
                                                  .prod(axis=2) * self.amp_prod)
        return SegmentBlock(ws.start, values, bound, self._s[ws.start:ws.stop])


def build_segment(plan: SegmentPlan, w: int) -> SegmentOperator:
    """All Dyson terms of segment w of the plan's schedule, to its order Q:
    a view of the block that holds w.  The schedule is cut into runs of as
    many segments as fit in BLOCK_BYTES of coefficient table (at least
    one); the plan keeps one block, and builds the next on first need."""
    w = range(plan.schedule.r)[w]
    block = plan._block
    if block is None or not 0 <= w - block.start < len(block.s):
        per = max(1, BLOCK_BYTES // (len(plan) * plan.h.dim * 16))
        start = w - w % per
        block = plan._block = plan._build_block(range(start, min(start + per, plan.schedule.r)))
    return SegmentOperator(plan, block, w)


def alt_segment_unitary(plan: SegmentPlan, w: int) -> np.ndarray:
    """Dense Schroedinger-frame segment w with the static phases absorbed,

        U_alt = e^{-i H0 t_{w+1}} U_I e^{i H0 t_w}:

    the interaction-frame segment of `build_segment` with its rows times
    e^{-i E t_{w+1}} and its columns times e^{i E t_w}.  Term by term this
    is the expansion in the inputs y_j = -i(E_{z_{j-1}} - E_z) -
    sum_{l<j} rate_l (y_1 = 0), which are the interaction inputs shifted,
    y_j = x_j + y_{q+1}, with a trailing diagonal e^{-i H0 dt_w}.
    """
    t_w, dt_w = plan.schedule.steps[w]
    energies = plan.h.h0_diag
    u_i = build_segment(plan, w).matrix()
    return np.exp(-1j * energies * (t_w + dt_w))[:, None] * u_i * np.exp(1j * energies * t_w)
