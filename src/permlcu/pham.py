"""Permutation-expanded Hamiltonian model H(t) = H0 + V(t).

H0 is a static diagonal (sum of Z-string couplings); V(t) is a sum of
generalized permutations D_i(t) P_i where each P_i is an X-type bitmask
permutation and each D_i(t) is an exponential sum of diagonals,
D_i(t) = sum_k exp(rate_k t) * amp_k, stored as dense length-2^n vectors.

Bit i of every mask corresponds to qubit i (little-endian); character j of
a Pauli or Z-mask string corresponds to qubit j.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

MAX_QUBITS = 12

_PAULI_CHARS = set("IXYZ")
MODE_EXACT, MODE_UNIFORM = "exact", "uniform"  # the bounds of `growth_table`


class HamiltonianSpecError(ValueError):
    """Raised for schema violations, non-Hermitian term sets, or oversize systems."""


def _popcount(arr):
    return np.bitwise_count(np.asarray(arr, dtype=np.uint64)).astype(np.int64)


@dataclass(frozen=True)
class ExpTerm:
    """One exponential-sum component of a diagonal: exp(rate*t) * amp, entrywise."""
    rate: np.ndarray
    amp: np.ndarray

    @property
    def lambda_max(self) -> float:
        """Largest real part of the rate vector (step-size growth exponent)."""
        return float(self.rate.real.max())

    @property
    def amp_max(self) -> float:
        """Max norm of the amplitude diagonal."""
        return float(np.abs(self.amp).max())


@dataclass(frozen=True)
class PermTerm:
    """Permutation mask with its exponential-sum diagonal coefficients."""
    mask: int
    exp_terms: tuple[ExpTerm, ...]

    @property
    def locality(self) -> int:
        return int(bin(self.mask).count("1"))


@dataclass(frozen=True)
class PermExpHamiltonian:
    n: int
    h0_diag: np.ndarray
    h0_zterms: tuple[tuple[float, int], ...]
    vterms: tuple[PermTerm, ...]

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def num_masks(self) -> int:
        """M: number of distinct nonzero permutation masks."""
        return sum(1 for t in self.vterms if t.mask != 0)

    @property
    def num_exp_terms(self) -> int:
        """K after uniformization (0 when V vanishes)."""
        return len(self.vterms[0].exp_terms) if self.vterms else 0


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HamiltonianSpecError(msg)


def _real(value, what: str) -> float:
    """A finite JSON number; bool is refused, though Python counts it an int."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max,
             f"{what} must be a finite real number, got {value!r:.40}")
    return float(value)


def _parse_bitmask(s, n: int) -> int:
    _require(isinstance(s, str) and len(s) == n and set(s) <= {"0", "1"},
             f"z_mask must be a {n}-character string over 0/1, got {s!r}")
    return sum(1 << j for j, c in enumerate(s) if c == "1")


def _parse_complex(pair, what: str) -> complex:
    _require(isinstance(pair, (list, tuple)) and len(pair) == 2,
             f"{what} must be a [re, im] pair, got {pair!r}")
    return complex(_real(pair[0], what), _real(pair[1], what))


def _pauli_factor(pauli: str, n: int) -> tuple[int, np.ndarray]:
    """Split a Pauli string into (X-mask, diagonal phase/sign vector).

    X contributes a mask bit; Z contributes (-1)^{z_j}; Y contributes both a
    mask bit and the diagonal factor -i(-1)^{z_j} (Y = (-iZ) X).
    """
    _require(isinstance(pauli, str) and len(pauli) == n and set(pauli) <= _PAULI_CHARS,
             f"pauli must be a {n}-character string over IXYZ, got {pauli!r}")
    z = np.arange(1 << n)
    mask = 0
    diag = np.ones(1 << n, dtype=complex)
    for j, c in enumerate(pauli):
        bit = (z >> j) & 1
        if c == "X":
            mask |= 1 << j
        elif c == "Y":
            mask |= 1 << j
            diag = diag * (-1j) * (1 - 2 * bit)
        elif c == "Z":
            diag = diag * (1 - 2 * bit)
    return mask, diag


def _check_hermitian_structure(mask: int, by_rate: dict, scale: float) -> bool:
    """D(t) P Hermitian for all t iff amp_rho[z] == conj(amp_conj(rho)[z^mask])."""
    z = np.arange(len(next(iter(by_rate.values()))))
    tol = 1e-10 * max(scale, 1e-30)
    for rate, amp in by_rate.items():
        partner = by_rate.get(complex(rate).conjugate())
        if partner is None:
            if np.abs(amp).max() > tol:
                return False
            continue
        if np.abs(amp - partner[z ^ mask].conj()).max() > tol:
            return False
    return True


@np.errstate(over="ignore")  # overflowing sums are refused below instead
def from_pauli_spec(spec: dict) -> PermExpHamiltonian:
    """Build the permutation-expanded model from a HamiltonianSpec document.

    Schema: { "n": int, "h0": [ {"coupling": float, "z_mask": "bits"} ],
              "v": [ {"pauli": "IXYZ string",
                      "coeff": [ {"amp": [re,im], "rate": [re,im]} ] } ] }
    """
    _require(isinstance(spec, dict), "spec must be a JSON object")
    unknown = set(spec) - {"n", "h0", "v"}
    _require(not unknown, f"unknown spec keys: {sorted(unknown)}")
    _require(all(isinstance(spec.get(k, []), list) for k in ("h0", "v")), "h0 and v must be lists")
    n = spec.get("n")
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "n must be a positive integer")
    _require(n <= MAX_QUBITS, f"n={n} exceeds the dense-representation cap of {MAX_QUBITS}")
    dim = 1 << n
    z = np.arange(dim)

    h0_diag = np.zeros(dim)
    zterms: list[tuple[float, int]] = []
    for entry in spec.get("h0", []):
        _require(isinstance(entry, dict) and set(entry) == {"coupling", "z_mask"},
                 f"h0 entries need exactly coupling and z_mask, got {entry!r}")
        coupling = _real(entry["coupling"], "coupling")
        zmask = _parse_bitmask(entry["z_mask"], n)
        zterms.append((coupling, zmask))
        h0_diag = h0_diag + coupling * (1.0 - 2.0 * (_popcount(z & zmask) & 1))
    _require(np.isfinite(h0_diag).all(), "the h0 couplings overflow")

    # accumulate amp vectors per (mask, rate)
    by_mask: dict[int, dict[complex, np.ndarray]] = {}
    mask_order: list[int] = []
    for entry in spec.get("v", []):
        _require(isinstance(entry, dict) and set(entry) == {"pauli", "coeff"},
                 f"v entries need exactly pauli and coeff, got {entry!r}")
        mask, diag = _pauli_factor(entry["pauli"], n)
        coeffs = entry["coeff"]
        _require(isinstance(coeffs, list) and coeffs, "coeff must be a nonempty list")
        if mask not in by_mask:
            by_mask[mask] = {}
            mask_order.append(mask)
        for c in coeffs:
            _require(isinstance(c, dict) and set(c) == {"amp", "rate"},
                     f"coeff entries need exactly amp and rate, got {c!r}")
            amp = _parse_complex(c["amp"], "amp")
            rate = _parse_complex(c["rate"], "rate")
            vec = by_mask[mask].get(rate)
            by_mask[mask][rate] = (amp * diag) if vec is None else vec + amp * diag
    _require(all(np.isfinite(np.abs(a)).all() for m in by_mask.values() for a in m.values()),
             "the amplitudes of one mask and rate overflow")

    # drop all-zero rate groups, keep deterministic order: mask 0 first
    scale = max((float(np.abs(a).max()) for m in by_mask.values() for a in m.values()),
                default=0.0)
    first_seen = {m: i for i, m in enumerate(mask_order)}
    mask_order.sort(key=lambda m: (m != 0, first_seen[m]))
    vterms = []
    for mask in mask_order:
        by_rate = {r: a for r, a in by_mask[mask].items()
                   if np.abs(a).max() > 1e-14 * max(scale, 1e-30)}
        if not by_rate:
            continue
        _require(_check_hermitian_structure(mask, by_rate, scale),
                 f"term set for mask {mask:#b} is not Hermitian")
        terms = tuple(ExpTerm(rate=np.full(dim, r, dtype=complex), amp=a.copy())
                      for r, a in sorted(by_rate.items(), key=lambda kv: (kv[0].real, kv[0].imag)))
        vterms.append(PermTerm(mask=mask, exp_terms=terms))

    # uniformize K: zero-pad every PermTerm to the common maximum
    kmax = max((len(t.exp_terms) for t in vterms), default=0)
    vterms = [
        PermTerm(mask=t.mask, exp_terms=t.exp_terms + tuple(
            ExpTerm(rate=np.zeros(dim, dtype=complex), amp=np.zeros(dim, dtype=complex))
            for _ in range(kmax - len(t.exp_terms))))
        for t in vterms
    ]
    return PermExpHamiltonian(n=n, h0_diag=h0_diag, h0_zterms=tuple(zterms),
                              vterms=tuple(vterms))


def eval_V(h: PermExpHamiltonian, t: float) -> np.ndarray:
    """Dense V(t) = sum_i D_i(t) P_i."""
    dim = h.dim
    z = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for term in h.vterms:
        d = np.zeros(dim, dtype=complex)
        for et in term.exp_terms:
            d = d + et.amp * np.exp(et.rate * t)
        rows = z ^ term.mask
        out[rows, z] += d[rows]
    return out


def eval_H(h: PermExpHamiltonian, t: float) -> np.ndarray:
    """Dense H(t) = diag(h0) + V(t)."""
    out = eval_V(h, t)
    out[np.arange(h.dim), np.arange(h.dim)] += h.h0_diag
    return out


def lambda_max(h: PermExpHamiltonian) -> float:
    """Largest real part over all exponential rates; 0 when V is empty."""
    lams = [et.lambda_max for term in h.vterms for et in term.exp_terms]
    return max(lams) if lams else 0.0


def growth_table(h: PermExpHamiltonian, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(scale, rate), each (len(h.vterms), K): slot (i, k)'s factor in the
    Dyson-term bounds is scale e^{rate t}.  MODE_EXACT: each slot's amp_max and
    lambda_max, (0, 0) when padded; MODE_UNIFORM: every slot at the largest
    scale and lambda_max(h)."""
    shape = (len(h.vterms), h.num_exp_terms)
    scale = np.array([et.amp_max for term in h.vterms for et in term.exp_terms]).reshape(shape)
    rate = np.array([et.lambda_max for term in h.vterms for et in term.exp_terms]).reshape(shape)
    if mode == MODE_UNIFORM:
        return np.full_like(scale, scale.max(initial=0.0)), np.full_like(rate, lambda_max(h))
    if mode != MODE_EXACT:
        raise ValueError(f"unknown mode {mode!r}")
    return scale, rate


def gamma_bound(h: PermExpHamiltonian, t: float) -> float:
    """Gamma(t) = sum_{i,k} ||amp_{i,k}||_max e^{t lambda_{(i,k)}} >= ||V(t)||_max."""
    return gamma_bound_fn(h, MODE_EXACT)(t)


def gamma_bound_fn(h: PermExpHamiltonian, mode: str):
    """The mode's Gamma(t), the sum of its `growth_table` factors: the table built
    once, the slots summed in order (a vectorized sum would round differently)."""
    scale, rate = growth_table(h, mode)
    terms = list(zip(scale.ravel().tolist(), rate.ravel().tolist()))
    return lambda t: float(reduce(lambda total, c: total + c[0] * np.exp(t * c[1]), terms, 0.0))


def eval_exp_sum(terms, ts) -> np.ndarray:
    """Evaluate sum_k amp_k e^{rate_k t} on a time grid."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.zeros(len(ts), dtype=complex)
    for amp, rate in terms:
        out += amp * np.exp(rate * ts)
    return out


def exp_sum_fit(samples, t_total: float, k_target: int):
    """Truncated-Fourier exponential-sum fit of a real function tabulated on [0, T].

    samples holds f on the uniform grid t_j = j*T/N (N+1 points, endpoints
    included).  The signal is mirror-extended to period 2T, transformed, and
    the k_target largest-magnitude modes are kept; conjugate mode pairs are
    kept together so the fit stays real, which can leave one slot unused for
    even k_target.  Returns (terms, sup_error) with terms a list of
    (amplitude, rate) pairs, rate = i*pi*m/T, and sup_error the maximum
    deviation |f - fit| on the sample grid.
    """
    fs = np.asarray(samples, dtype=float)
    if fs.ndim != 1 or len(fs) < 3:
        raise ValueError("need at least 3 samples on [0, T]")
    if t_total <= 0:
        raise ValueError("t_total must be positive")
    if not isinstance(k_target, int) or k_target < 1:
        raise ValueError("k_target must be a positive integer")
    nseg = len(fs) - 1
    if k_target > nseg:
        raise ValueError(
            f"ill-posed fit: k_target={k_target} exceeds sample resolution {nseg}")
    mirrored = np.concatenate([fs[:-1], fs[:0:-1]])  # period 2T, length 2N
    coeffs = np.fft.rfft(mirrored) / (2 * nseg)
    base_rate = 1j * np.pi / t_total

    # candidate groups: DC alone, then conjugate pairs (skip the Nyquist mode)
    groups = [(abs(coeffs[0]), 0, [(complex(coeffs[0]), 0.0 + 0.0j)])]
    for m in range(1, nseg):
        c = complex(coeffs[m])
        groups.append((abs(c), m, [(c, base_rate * m), (c.conjugate(), -base_rate * m)]))
    top = max(g[0] for g in groups)
    groups.sort(key=lambda g: (-g[0], g[1]))

    terms: list[tuple[complex, complex]] = []
    budget = k_target
    for weight, _, members in groups:
        if len(members) > budget:
            continue
        if weight <= 1e-14 * max(top, 1e-300):
            break
        terms.extend(members)
        budget -= len(members)
        if budget == 0:
            break
    if not terms:
        terms = [(0.0 + 0.0j, 0.0 + 0.0j)]

    ts = np.linspace(0.0, t_total, len(fs))
    resid = fs - eval_exp_sum(terms, ts).real
    return terms, float(np.abs(resid).max())
