"""Canonical desk-scale models used across tests, acceptance checks, and docs."""
from __future__ import annotations

import numpy as np

from .pham import ExpTerm, PermExpHamiltonian, PermTerm


def oscillating_spec(h: float = 1.0, gamma: float = 1.0, alpha: float = 1.0) -> dict:
    """Two-level model h*Z + gamma*(e^{-i a t}|0><1| + e^{+i a t}|1><0|) as a
    HamiltonianSpec document (gamma*cos(a t)*X + gamma*sin(a t)*Y)."""
    return {
        "n": 1,
        "h0": [{"coupling": h, "z_mask": "1"}],
        "v": [
            {"pauli": "X", "coeff": [
                {"amp": [gamma / 2, 0.0], "rate": [0.0, -alpha]},
                {"amp": [gamma / 2, 0.0], "rate": [0.0, alpha]},
            ]},
            {"pauli": "Y", "coeff": [
                {"amp": [0.0, gamma / 2], "rate": [0.0, -alpha]},
                {"amp": [0.0, -gamma / 2], "rate": [0.0, alpha]},
            ]},
        ],
    }


def oscillating_hamiltonian(h: float = 1.0, gamma: float = 1.0,
                            alpha: float = 1.0) -> PermExpHamiltonian:
    """Two-level oscillating model built directly at the exponential-sum level.

    Structurally identical for every alpha (two single-entry amplitude
    diagonals with rates -i*alpha and +i*alpha), so schedules and cost
    reports can be compared bitwise across frequencies, including alpha=0
    where the Pauli-spec route would merge the coinciding rates.
    """
    amp0 = np.array([gamma, 0.0], dtype=complex)
    amp1 = np.array([0.0, gamma], dtype=complex)
    term = PermTerm(mask=1, exp_terms=(
        ExpTerm(rate=np.full(2, -1j * alpha), amp=amp0),
        ExpTerm(rate=np.full(2, 1j * alpha), amp=amp1),
    ))
    return PermExpHamiltonian(n=1, h0_diag=np.array([h, -h]),
                              h0_zterms=((h, 1),), vterms=(term,))


def decay_spec(h: float = 1.0, gamma: float = 1.0, alpha: float = 1.0) -> dict:
    """Two-level model h*Z + gamma*e^{-alpha t}*X."""
    return {
        "n": 1,
        "h0": [{"coupling": h, "z_mask": "1"}],
        "v": [{"pauli": "X", "coeff": [{"amp": [gamma, 0.0], "rate": [-alpha, 0.0]}]}],
    }


def growth_spec(h: float = 1.0, gamma: float = 1.0, alpha: float = 1.0) -> dict:
    """Two-level model h*Z + gamma*e^{+alpha t}*X (positive rate regime)."""
    return {
        "n": 1,
        "h0": [{"coupling": h, "z_mask": "1"}],
        "v": [{"pauli": "X", "coeff": [{"amp": [gamma, 0.0], "rate": [alpha, 0.0]}]}],
    }


def static_spec(h: float = 1.0, gamma: float = 1.0) -> dict:
    """Time-independent two-level model h*Z + gamma*X."""
    return {
        "n": 1,
        "h0": [{"coupling": h, "z_mask": "1"}],
        "v": [{"pauli": "X", "coeff": [{"amp": [gamma, 0.0], "rate": [0.0, 0.0]}]}],
    }


def random_model_spec(rng: np.random.Generator, n: int = 2, m_max: int = 2,
                      k_max: int = 2, rate_im: float = 2.0,
                      rate_re: tuple[float, float] = (-0.4, 0.1)) -> dict:
    """Random Hermitian n-qubit spec with at most m_max distinct masks and at
    most k_max exponential terms per diagonal.

    Each mask carries either one conjugate pair of (amp, rate) entries (a real
    oscillating/decaying coefficient, K=2) or a single real-rate real-amp
    entry (K=1), so Hermiticity holds by construction and K stays <= k_max.
    """
    masks = rng.choice(np.arange(1, 1 << n), size=min(m_max, (1 << n) - 1),
                       replace=False)
    vterms = []
    for mask in masks:
        letters = []
        for j in range(n):
            if (int(mask) >> j) & 1:
                letters.append(rng.choice(["X", "Y"]))
            else:
                letters.append(rng.choice(["I", "Z"]))
        pauli = "".join(letters)
        if k_max >= 2 and rng.random() < 0.7:
            amp = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.4, 0.4))
            rate = complex(rng.uniform(*rate_re), rng.uniform(0.3, rate_im))
            coeff = [
                {"amp": [amp.real, amp.imag], "rate": [rate.real, rate.imag]},
                {"amp": [amp.real, -amp.imag], "rate": [rate.real, -rate.imag]},
            ]
        else:
            coeff = [{"amp": [float(rng.uniform(0.3, 1.0)), 0.0],
                      "rate": [float(rng.uniform(*rate_re)), 0.0]}]
        vterms.append({"pauli": pauli, "coeff": coeff})

    h0 = []
    for j in range(n):
        h0.append({"coupling": float(rng.uniform(-1.5, 1.5)),
                   "z_mask": "".join("1" if i == j else "0" for i in range(n))})
    if n >= 2:
        h0.append({"coupling": float(rng.uniform(-0.8, 0.8)),
                   "z_mask": "11" + "0" * (n - 2)})
    return {"n": n, "h0": h0, "v": vterms}
