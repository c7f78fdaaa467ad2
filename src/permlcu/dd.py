"""Divided differences of the exponential function with complex inputs.

Evaluates e^{[x_0,...,x_q]} for arbitrary complex input lists, including
exact repeats (confluent case), together with the real-part upper bound,
an independent bidiagonal-matrix oracle, and a simplex-quadrature oracle.

Method: a row's spread is the largest distance of an input from the row
mean.  Rows whose spread is at most ``SERIES_SPREAD_CUTOFF`` are shifted by
their mean (any constant can be factored out of the divided difference of
exp), and the Taylor series

    e^{[y_0,...,y_q]} = sum_{m>=0} h_m(y_0,...,y_q) / (m+q)!

is summed with Neumaier-compensated accumulation, where h_m is the complete
homogeneous symmetric polynomial of degree m.  Termination uses the
worst-case envelope R^m/(m! q!) with R = max|y_j| rather than the actual
term magnitude, because mean-shifted inputs make low-order h_m vanish
identically.

Wider rows would cancel catastrophically in the series.  For them the
divided difference is the corner entry of exp(A), A the bidiagonal matrix
with the inputs on the diagonal and ones above it, and one batched kernel
evaluates it for (B, q+1, q+1) stacks by scaling and squaring.  The inputs
are shifted only by an integer real offset (a complex mean shift would
round them), put in Leja order, and scaled by 2^-s so that their largest
modulus is at most 1/4; a Taylor polynomial approximates the scaled
exponential, and s squarings undo the scaling.  After every squaring the
diagonal and the first superdiagonal are reset to their exact values
(Al-Mohy & Higham, SIMAX 31, 2009, Code Fragment 2.1): e^{t x_k} and
t e^{[t x_k, t x_{k+1}]}, the latter as the difference quotient when
|t(x_{k+1} - x_k)| >= 1 and in the sinh form e^{(a+b)/2} sinh(d)/d,
d = (b-a)/2, below that.  Against a 50-digit reference the kernel's worst
relative error was 1.7e-14 on 150 wide rows drawn from the benchmark
workloads (scipy's expm: 1.3e-10), 2.4e-12 on near-confluent clusters at
spread 1e5 (scipy: 1.7e-8) and 2.0e-11 on 1,300 adversarial rows with
near-confluent pairs, exact repeats and imaginary spreads up to 1e6
(scipy: 1.4e-6).  The floor is the problem's conditioning: a row whose
value is far below its real-part bound, e.g. real parts of 50 against an
imaginary spread of 2e3, loses digits in any double-precision evaluation.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# Shifted-series validity radius; wider rows go to the scaling-and-squaring
# kernel.  The series sums terms as large as e^spread/q! to a value that for
# imaginary inputs can be far smaller: against a 50-digit reference, on 6,000
# random rows (q <= 8) its worst relative error was 3e-12 below spread 9,
# 1.3e-10 up to 12 and 7e-10 up to 14 (kernel: 3e-14), 1.1e-7 at 25.8.
SERIES_SPREAD_CUTOFF = 12.0
SERIES_TERM_CAP = 500
# Wide rows: scale so that 2^-s max|x| <= _THETA, then a Taylor polynomial
# of degree q + _TAYLOR_TAIL - 1 leaves a relative truncation error of at
# most _THETA^13/13! = 2.4e-18 in every entry of the scaled exponential.
_THETA = 0.25
_TAYLOR_TAIL = 13
# Wide rows per chunk; chunks of rows that need more than _BAND_LEVELS - 1
# squarings (inputs beyond 5e8 in modulus) are smaller in proportion.
WIDE_CHUNK = 256
_BAND_LEVELS = 32
# sinh(d)/d = sum_k d^(2k)/(2k+1)!
_SINHC = tuple(1.0 / math.factorial(2 * k + 1) for k in range(8))
ORACLE_MAX_INPUTS = 32
_TINY = 1e-300


class UnsupportedSizeError(ValueError):
    """Input list exceeds the scale an oracle routine is rated for."""


def _validate_inputs(xs) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(xs, dtype=complex))
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("input list must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(xs)):
        raise ValueError("divided-difference inputs must be finite")
    return xs


def _series_batch(ys: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Compensated Taylor series on mean-shifted rows ys of shape (B, q+1).

    A row's value is taken as soon as it converges, and the working arrays
    drop the converged rows whenever they make up a quarter of them, so the
    late orders cost only the slow rows.
    """
    nb, m = ys.shape
    q = m - 1
    out = np.empty(nb, dtype=complex)
    idx = np.arange(nb)  # positions in out of the rows in the working arrays
    live = np.ones(nb, dtype=bool)  # rows not yet converged
    ys = ys.T.copy()  # (m, B): one contiguous vector per input position
    h = np.ones((m, nb), dtype=complex)
    acc = np.full(nb, 1.0 / math.factorial(q), dtype=complex)
    comp = np.zeros(nb, dtype=complex)
    env = np.full(nb, 1.0 / math.factorial(q))
    powers = np.ones(nb, dtype=complex)  # ys[0]**m, updated incrementally
    fact = float(math.factorial(q))
    for order in range(1, SERIES_TERM_CAP + 1):
        powers = powers * ys[0]
        h[0] = powers
        for j in range(1, m):
            h[j] = h[j - 1] + ys[j] * h[j]
        fact *= order + q
        term = h[q] / fact
        # Neumaier compensated add of term into acc
        new = acc + term
        big = np.abs(acc) >= np.abs(term)
        comp = comp + np.where(big, (acc - new) + term, (term - new) + acc)
        acc = new
        env *= spread / order
        done = live & (env <= 1e-17 * np.maximum(np.abs(acc + comp), _TINY))
        done &= order > spread
        if done.any():
            out[idx[done]] = acc[done] + comp[done]
            live &= ~done
            n_live = np.count_nonzero(live)
            if n_live == 0:
                return out
            if n_live <= 0.75 * live.size:
                ys, h = ys[:, live], h[:, live]
                idx, spread, acc, comp, env, powers = (
                    a[live] for a in (idx, spread, acc, comp, env, powers))
                live = np.ones(n_live, dtype=bool)
    out[idx[live]] = (acc + comp)[live]
    return out


def _exp_dd_pair(a: np.ndarray, b: np.ndarray, ea: np.ndarray,
                 eb: np.ndarray) -> np.ndarray:
    """e^{[a,b]} elementwise, given ea = e^a and eb = e^b.

    The difference quotient where |b - a| >= 1; otherwise e^{(a+b)/2}
    sinh(d)/d with d = (b - a)/2, summed as a series in d^2 (|d| < 1/2, so
    eight terms reach 1e-19).  The sinh form at every gap rounds (a+b)/2
    of inputs near 1e6: on [693147.18055995j, 1039720.07769274j,
    693147.18055995j, 346572.89713279j, 0, 346572.89713279j, 0] it gave a
    relative error of 5.8e-12, against 9.5e-16 for this rule.
    """
    diff = b - a
    far = np.abs(diff) >= 1.0
    out = eb - ea
    np.divide(out, diff, out=out, where=far)
    d2 = np.multiply(diff, diff, out=diff)
    d2 *= 0.25
    d2[far] = 0.0
    sinhc = np.full_like(d2, _SINHC[-1])
    for c in _SINHC[-2::-1]:
        sinhc *= d2
        sinhc += c
    mid = np.add(a, b, out=d2)
    mid *= 0.5
    sinhc *= np.exp(mid, out=mid)
    np.copyto(out, sinhc, where=~far)
    return out


def _square_chunk(ys: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Corner of exp(A) for the bidiagonal matrices A with rows ys (n, m) on
    the diagonal, given squaring counts s sorted in descending order.

    Every row ends at level S = s[0] with the unscaled matrix; row r starts
    at level S - s[r], where its matrix is scaled by 2^-s[r].  At level L
    all started rows hold exp(2^(L-S) A), so one squaring of the leading
    rows moves them up a level, after which their diagonal and first
    superdiagonal are reset to exact values (Al-Mohy & Higham, SIMAX 31,
    2009, Code Fragment 2.1).
    """
    n, m = ys.shape
    q = m - 1
    top = int(s[0])
    # exact bands at every level L, scale t = 2^(L-S)
    t = np.ldexp(1.0, np.arange(-top, 1))[:, None, None]
    ty = t * ys
    diag = np.exp(ty)
    sup = _exp_dd_pair(ty[..., :-1], ty[..., 1:], diag[..., :-1], diag[..., 1:])
    sup *= t
    start = top - s
    rows = np.arange(n)
    # Taylor polynomial of the scaled matrix in Horner form; a product with
    # the bidiagonal matrix is a scaled row plus the next row up.
    diag_scaled = ty[start, rows][:, :, None]
    sup_scaled = t[start]
    x = np.zeros((n, m, m), dtype=complex)
    x.reshape(n, m * m)[:, ::m + 1] = 1.0
    for k in range(q + _TAYLOR_TAIL - 1, 0, -1):
        bx = diag_scaled * x
        bx[:, :-1] += sup_scaled * x[:, 1:]
        bx *= 1.0 / k
        bx.reshape(n, m * m)[:, ::m + 1] += 1.0
        x = bx
    band = x.reshape(n, m * m)
    band[:, ::m + 1] = diag[start, rows]
    band[:, 1::m + 1] = sup[start, rows]
    for level in range(1, top + 1):
        k = int(np.count_nonzero(s > top - level))
        x[:k] = np.matmul(x[:k], x[:k])
        band[:k, ::m + 1] = diag[level, :k]
        band[:k, 1::m + 1] = sup[level, :k]
    return x[:, 0, q]


def _leja_order(zs: np.ndarray) -> np.ndarray:
    """Rows of zs reordered in Leja order: first the entry farthest from
    the row mean, then each time the entry with the largest product of
    distances to those already taken.

    The divided difference does not depend on the order, but the squaring
    does: its intermediate entries are divided differences over contiguous
    runs of the row, and runs of well-separated entries carry less
    cancellation.  On 1,300 near-confluent rows with imaginary spreads up
    to 1e6, the worst relative error against a 50-digit reference was
    8.9e-8 in input order, 3.1e-3 in sorted order and 2.0e-11 in Leja
    order (scipy's expm: 1.4e-6).
    """
    n, m = zs.shape
    ys = zs - zs.mean(axis=1, keepdims=True)
    scale = np.abs(ys).max(axis=1, keepdims=True)
    rows = np.arange(n)
    order = np.empty((n, m), dtype=np.intp)
    taken = np.zeros((n, m), dtype=bool)
    score = np.ones((n, m))
    j = np.argmax(np.abs(ys), axis=1)
    for k in range(m):
        order[:, k] = j
        taken[rows, j] = True
        score *= np.abs(ys - ys[rows, j][:, None]) / scale
        j = np.argmax(np.where(taken, -1.0, score), axis=1)
    return np.take_along_axis(zs, order, axis=1)


def _wide_batch(xs: np.ndarray) -> np.ndarray:
    """e^{[x_0,...,x_q]} for rows xs (B, m) as the corner of exp of the
    bidiagonal matrix, by batched scaling and squaring.

    Rows are shifted by their real mean rounded to an integer, which keeps
    e^x in range, and not by their complex mean: fl(x - mean) moves each
    input by up to 1e-16 |x|, which on [810619.25j, -810619.25j,
    405309.625j] (value 1e-13 of its bound 1/2) cost 1.0e-9 relative
    error, against 3.1e-15 unshifted.  Rows are put in Leja order, and row
    r is scaled by 2^-s_r so that 2^-s_r max|x - shift| <= _THETA.  Rows
    are sorted by s_r and evaluated in chunks of at most WIDE_CHUNK, which
    bounds the working set of the (n, m, m) stacks and of the per-level
    bands.
    """
    shift = np.rint(xs.real.mean(axis=1))[:, None]
    radius = np.hypot(xs.real - shift, xs.imag).max(axis=1)
    s = np.maximum(np.ceil(np.log2(radius / _THETA)), 0.0).astype(np.int64)
    order = np.argsort(-s, kind="stable")
    out = np.empty(len(xs), dtype=complex)
    lo = 0
    while lo < len(xs):
        # the bands hold s+1 levels per row: past _BAND_LEVELS, fewer rows
        levels = int(s[order[lo]]) + 1
        sel = order[lo:lo + max(1, WIDE_CHUNK * _BAND_LEVELS // max(levels, _BAND_LEVELS))]
        out[sel] = _square_chunk(_leja_order(xs[sel] - shift[sel]), s[sel])
        lo += len(sel)
    return np.exp(shift[:, 0]) * out


def exp_dd_batch(xs: np.ndarray) -> np.ndarray:
    """Divided differences of exp for a batch of equal-length input rows.

    xs has shape (B, q+1); returns shape (B,).  Rows whose mean-shifted
    spread exceeds the series cutoff go to the scaling-and-squaring kernel.
    """
    xs = np.asarray(xs, dtype=complex)
    if xs.ndim != 2 or xs.shape[1] == 0:
        raise ValueError("batch must have shape (B, q+1) with q >= 0")
    if not np.all(np.isfinite(xs)):
        raise ValueError("divided-difference inputs must be finite")
    if xs.shape[1] == 1:
        return np.exp(xs[:, 0])
    mu = xs.mean(axis=1)
    ys = xs - mu[:, None]
    spread = np.abs(ys).max(axis=1)
    out = np.empty(xs.shape[0], dtype=complex)
    ok = spread <= SERIES_SPREAD_CUTOFF
    if ok.any():
        out[ok] = np.exp(mu[ok]) * _series_batch(ys[ok], spread[ok])
    if not ok.all():
        out[~ok] = _wide_batch(xs[~ok])
    return out


def exp_dd(xs) -> complex:
    """e^{[x_0,...,x_q]}: order-q divided difference of exp at complex inputs.

    Exact for q=0; permutation symmetric; confluent-safe (repeats allowed).
    """
    xs = _validate_inputs(xs)
    return complex(exp_dd_batch(xs[None, :])[0])


def exp_dd_scaled(t: float, xs) -> complex:
    """e^{t[x_0,...,x_q]} = t^q * e^{[t x_0,...,t x_q]} for real t."""
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise ValueError("scale t must be a finite real number")
    xs = _validate_inputs(xs)
    q = len(xs) - 1
    if t == 0.0:
        return 1.0 + 0.0j if q == 0 else 0.0 + 0.0j
    return complex(t**q * exp_dd(t * xs))


def exp_dd_scaled_batch(t: float, xs: np.ndarray) -> np.ndarray:
    """Batch form of exp_dd_scaled over rows of xs."""
    xs = np.asarray(xs, dtype=complex)
    q = xs.shape[1] - 1
    if t == 0.0:
        fill = 1.0 if q == 0 else 0.0
        return np.full(xs.shape[0], fill, dtype=complex)
    return t**q * exp_dd_batch(t * xs)


def exp_dd_bound(xs) -> float:
    """Real-input divided difference e^{[Re x_0,...,Re x_q]}, >= |exp_dd(xs)|."""
    xs = _validate_inputs(xs)
    return float(exp_dd(xs.real + 0.0j).real)


def exp_dd_bound_batch(xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=complex)
    return exp_dd_batch(xs.real + 0.0j).real


def exp_dd_oracle_bidiagonal(xs) -> complex:
    """Independent oracle: divided difference as the corner of a matrix exponential.

    The upper bidiagonal matrix with xs on the diagonal and ones on the
    superdiagonal has e^{[x_0,...,x_q]} as the (0, q) entry of its exponential.
    """
    xs = _validate_inputs(xs)
    if len(xs) > ORACLE_MAX_INPUTS:
        raise UnsupportedSizeError(
            f"bidiagonal oracle supports at most {ORACLE_MAX_INPUTS} inputs, got {len(xs)}")
    m = len(xs)
    if m == 1:
        return complex(np.exp(xs[0]))
    mat = np.diag(xs) + np.diag(np.ones(m - 1), 1)
    return complex(expm(mat)[0, -1])


def _simpson_nodes(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson nodes/weights on [0, 1] with an even panel count."""
    panels = grid + (grid % 2)
    u = np.linspace(0.0, 1.0, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= 1.0 / (3.0 * panels)
    return u, w


def hermite_genocchi_quadrature(lambdas, grid: int) -> complex:
    """Nested simplex integral of exp(sum_l lambda_l s_l) by composite quadrature.

    Evaluates int_0^1 ds_q ... int_0^{s_2} ds_1 e^{lambda_1 s_1 + ... + lambda_q s_q}
    on the simplex 0 <= s_1 <= ... <= s_q <= 1, which converges to
    exp_dd([x_1,...,x_q, 0]) with x_j = sum_{l>=j} lambda_l.  Cost grows as grid^q.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=complex))
    q = len(lam)
    if q == 0:
        raise ValueError("need at least one exponent")
    if q > 3:
        raise UnsupportedSizeError("simplex quadrature is rated for q <= 3")
    if grid < 10:
        raise ValueError("grid must be at least 10")
    if not np.all(np.isfinite(lam)):
        raise ValueError("exponents must be finite")
    u, w = _simpson_nodes(grid)
    # Map the simplex to the unit cube: s_j = prod_{l=j}^{q} u_l, with
    # Jacobian prod_{l=2}^{q} u_l^{l-1}.
    grids = np.meshgrid(*([u] * q), indexing="ij")
    s = [None] * q
    s[q - 1] = grids[q - 1]
    for j in range(q - 2, -1, -1):
        s[j] = s[j + 1] * grids[j]
    phase = sum(lam[j] * s[j] for j in range(q))
    jac = 1.0
    for l in range(1, q):
        jac = jac * grids[l] ** l
    integrand = np.exp(phase) * jac
    for _ in range(q):
        integrand = np.tensordot(integrand, w, axes=([-1], [0]))
    return complex(integrand)
