"""Test-side references for the Dyson segments.

`interaction_inputs` and `term_coefficient` evaluate one term (q, i_q, k_q, z)
by scalar loops, independently of the segment plan.  `dense_coefficients`
is the plan's vectorized enumeration over every (path, z) entry, the
amplitude support or not, with `dd.exp_dd_steps` on every row: the
coefficients a plan restricted to the support must reproduce bitwise.
`dense_table` scatters a segment's (or a block's) entry values into the
full coefficient table, 0 off the plan's entries.  `frozen_model` loads a
frozen benchmark case; `partial_support_models`
draws models whose amplitude support is partial, and
`tiny_amplitude_model` is one with 1e-150 amplitudes.
"""
import json
from itertools import product
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from permlcu import dd, models, pham, sched

FROZEN_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "frozen"


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
    """Scalar coefficient of P_{i_q}|z><z| in the segment expansion."""
    xj, z_path, d_coeff = interaction_inputs(h, iq, kq, z)
    q = len(xj)
    if q == 0:
        return complex(dd.exp_dd_steps([[0.0]], [dt_w])[0, 0])
    rates_sum = sum(
        complex(h.vterms[iq[j]].exp_terms[kq[j]].rate[z_path[j]]) for j in range(q))
    energies = h.h0_diag
    phase = np.exp(-1j * t_w * (energies[z] - energies[z_path[-1]]))
    divided = dd.exp_dd_steps([list(xj) + [0.0]], [dt_w])[0, 0]
    return complex(phase * np.exp(t_w * rates_sum) * divided * d_coeff)


def dense_coefficients(h: pham.PermExpHamiltonian, schedule: sched.Schedule):
    """Coefficients (T, 2^n) of every segment, every entry evaluated: the x
    rows of all (path, z), their divided differences at every distinct step
    of the schedule, and phase * e^{t_w sum rates} * divided * d_coeff, in
    the plan's term order and with the plan's operations.  Also returns each
    order's amplitude support, the flat (B, 2^n) indices of nonzero d_coeff."""
    n_i, n_k, dim = len(h.vterms), h.num_exp_terms, h.dim
    amp = np.zeros((n_i, n_k, dim), dtype=complex)
    rate = np.zeros((n_i, n_k, dim), dtype=complex)
    for i, term in enumerate(h.vterms):
        for k, et in enumerate(term.exp_terms):
            amp[i, k], rate[i, k] = et.amp, et.rate
    term_masks = np.array([term.mask for term in h.vterms], dtype=np.int64)
    energies, z = h.h0_diag, np.arange(dim)
    steps = sorted({dt for _, dt in schedule.steps})
    blocks = [[np.ones((1, dim), dtype=complex)] for _ in range(schedule.r)]
    supports = []
    for q in range(1, schedule.Q + 1 if n_i and n_k else 1):
        big_i = np.repeat(np.array(list(product(range(n_i), repeat=q)), dtype=np.int64),
                          n_k**q, axis=0)
        big_k = np.tile(np.array(list(product(range(n_k), repeat=q)), dtype=np.int64),
                        (n_i**q, 1))
        nb = len(big_i)
        zp = np.bitwise_xor.accumulate(term_masks[big_i], axis=1)[:, :, None] ^ z
        e_prev = np.concatenate(
            [np.broadcast_to(energies, (nb, 1, dim)), energies[zp[:, :-1]]], axis=1)
        e_final = energies[zp[:, -1]]
        rates = rate[big_i[:, :, None], big_k[:, :, None], zp]
        suffix = np.flip(np.cumsum(np.flip(rates, axis=1), axis=1), axis=1)
        xrows = 1j * (e_final[:, None, :] - e_prev) + suffix
        rows = np.concatenate([xrows.transpose(0, 2, 1).reshape(nb * dim, q),
                               np.zeros((nb * dim, 1), dtype=complex)], axis=1)
        divided = dd.exp_dd_steps(rows, steps).reshape(len(steps), nb, dim)
        d_coeff = amp[big_i[:, :, None], big_k[:, :, None], zp].prod(axis=1)
        supports.append(np.flatnonzero(d_coeff))
        for block, (t_w, dt_w) in zip(blocks, schedule.steps):
            vals = np.exp(-1j * t_w * (energies[None, :] - e_final))
            vals *= np.exp(t_w * rates.sum(axis=1))
            vals *= divided[steps.index(dt_w)]
            vals *= d_coeff
            block.append(vals)
    return [np.concatenate(block) for block in blocks], supports


def dense_table(plan, values: np.ndarray) -> np.ndarray:
    """The coefficient table(s) (..., T, 2^n) whose entries at
    ``plan.entries`` are ``values`` (..., E), and 0 elsewhere."""
    lead = values.shape[:-1]
    table = np.zeros(lead + (len(plan) * plan.h.dim,), dtype=complex)
    table[..., plan.entries] = values
    return table.reshape(lead + (len(plan), plan.h.dim))


def frozen_model(workload: str, case_id: str):
    """(model, schedule, case document) of a frozen benchmark case."""
    doc = json.loads((FROZEN_DIR / f"{workload}.json").read_text())
    case = next(c for c in doc["cases"] if c["id"] == case_id)
    h = (pham.from_pauli_spec(case["spec"]) if case.get("spec") is not None
         else models.oscillating_hamiltonian(**case["oscillating"]))
    schedule = sched.build_schedule(h, case["t_total"], eps=case["eps"], mode=case["mode"])
    return h, schedule, case


@st.composite
def partial_support_models(draw):
    """A model with a partial amplitude support, a schedule over it, and the
    schedule's mode: a random spec with one K = 1 and one K = 2 term (the
    parser pads the first to K = 2), or the oscillating model (single-entry
    amplitude diagonals)."""
    mode = draw(st.sampled_from([sched.MODE_EXACT, sched.MODE_UNIFORM]))
    t_total = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        h = models.oscillating_hamiltonian(1.0, 1.0, draw(st.sampled_from([0.0, 1.0, 1e3])))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        spec = models.random_model_spec(rng, n=draw(st.integers(2, 3)), m_max=2, k_max=2)
        amp = float(rng.uniform(0.2, 0.8))
        rate = complex(rng.uniform(-0.4, 0.1), rng.uniform(0.3, 2.0))
        spec["v"][0]["coeff"] = [{"amp": [amp, 0.0], "rate": [rate.real, 0.0]}]
        spec["v"][1]["coeff"] = [{"amp": [amp, 0.1], "rate": [rate.real, rate.imag]},
                                 {"amp": [amp, -0.1], "rate": [rate.real, -rate.imag]}]
        h = pham.from_pauli_spec(spec)
    return h, sched.build_schedule(h, t_total, eps=1e-3, mode=mode)


def tiny_amplitude_model():
    """Two masks, one with amplitudes 1e-150: built directly, since the spec
    parser drops amplitudes below 1e-14 of the largest."""
    return pham.PermExpHamiltonian(
        n=2, h0_diag=np.array([0.7, -0.7, 0.7, -0.7]), h0_zterms=((0.7, 1),),
        vterms=(pham.PermTerm(mask=2, exp_terms=(pham.ExpTerm(
                    rate=np.full(4, -0.2 + 0j), amp=np.full(4, 0.8 + 0j)),)),
                pham.PermTerm(mask=1, exp_terms=(pham.ExpTerm(
                    rate=np.zeros(4, dtype=complex), amp=np.full(4, 1e-150 + 0j)),))))
