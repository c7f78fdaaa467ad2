"""Divided differences of the exponential function with complex inputs.

Evaluates e^{[x_0,...,x_q]} for arbitrary complex input lists, including
exact repeats (confluent case), together with the real-part upper bound,
an independent bidiagonal-matrix oracle, and a simplex-quadrature oracle.

Method: a row's spread is the largest distance of an input from the row
mean mu.  Rows whose spread is at most ``SERIES_SPREAD_CUTOFF`` are shifted
by their mean (any constant can be factored out of the divided difference
of exp), and summed as the Taylor series

    e^{[y_0,...,y_q]} = sum_{m>=0} h_m(y_0,...,y_q) / (m+q)!

where h_m is the complete homogeneous symmetric polynomial of degree m.
Termination uses the worst-case envelope R^m/(m! q!) with R = max|y_j|
rather than the actual term magnitude, because mean-shifted inputs make
low-order h_m vanish identically.

Since h_m is homogeneous, the series is a polynomial in the step: for a
real step dt,

    e^{dt [x_0,...,x_q]} = dt^q e^{dt mu} sum_m dt^m h_m(y) / (m+q)!,

and its coefficients h_m(y)/(m+q)! do not depend on dt (Gupta, Barash &
Hen, CPC 254, 2020).  `exp_dd_steps` therefore runs the coefficient
recurrence once per row and evaluates it at many steps at once, as a
product with the Vandermonde matrix of the steps; `exp_dd_batch` is its
case of the single step 1.

Wider rows would cancel catastrophically in the series.  For them the
divided difference is the corner entry of exp(A), A the bidiagonal matrix
with the inputs on the diagonal and ones above it, and one batched kernel
evaluates it by scaling and squaring.  The inputs are shifted only by an
integer real offset (a complex mean shift would round them), put in Leja
order, and scaled by 2^-s so that their largest modulus is at most 1/4; a
Taylor polynomial approximates the scaled exponential, and s squarings undo
the scaling.  After every squaring the diagonal and the first superdiagonal
are reset to their exact values (Al-Mohy & Higham, SIMAX 31, 2009, Code
Fragment 2.1): e^{t x_k} and t e^{[t x_k, t x_{k+1}]}, the latter as the
difference quotient when |t(x_{k+1} - x_k)| >= 1 and in the sinh form
e^{(a+b)/2} sinh(d)/d, d = (b-a)/2, below that.  So a squaring only has to
form the bands above the first superdiagonal, and the last one only the
corner.  The kernel holds a chunk of rows batch-last as upper bands, one
contiguous vector of rows per matrix entry, so that every step is
elementwise over the rows; at q = 6 a squaring takes 120 complex products
per row, against 343 for a dense matrix product.

Against a 50-digit reference the kernel's worst relative error was 2.5e-13
on 152 wide rows sampled from the frozen benchmark workloads (scipy's expm:
3.1e-10): 1.4e-14 on the rows of c4-n2 case m4 and 3.3e-15 on osc-long
a1e3, while the worst a1e6 rows have values 1e-27 to 1e-33 of their
real-part bound.  It was 2.4e-12 on 140 seeded near-confluent clusters at
spread 1e5 and 2.9e-11 on 1,300 seeded rows with near-confluent pairs,
exact repeats and imaginary spreads up to 1e6.  The floor is the problem's
conditioning: a row whose value is far below its real-part bound, e.g. real
parts of 50 against an imaginary spread of 2e3, loses digits in any
double-precision evaluation.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# Shifted-series validity radius; wider rows go to the scaling-and-squaring
# kernel.  The series sums terms as large as e^spread/q! to a value that for
# imaginary inputs can be far smaller: against a 50-digit reference, on 3,000
# random rows (q <= 8) at 2-8 steps each, its worst relative error was 1.2e-11
# up to spread 9 and 2.0e-10 up to 12 (kernel: 3e-14), and it grows fast
# beyond (with compensated summation: 7e-10 up to 14, 1.1e-7 at 25.8).
SERIES_SPREAD_CUTOFF = 12.0
SERIES_TERM_CAP = 500
# Rows per coefficient pass: the (terms, rows) coefficient block of a chunk
# is 2 MB at 64 terms.
SERIES_CHUNK = 2048
# Wide rows: scale so that 2^-s max|x| <= _THETA, then a Taylor polynomial
# of degree q + _TAYLOR_TAIL - 1 leaves a relative truncation error of at
# most _THETA^13/13! = 2.4e-18 in every entry of the scaled exponential.
_THETA = 0.25
_TAYLOR_TAIL = 13
# Wide rows per chunk: at q = 8 a chunk's two band stacks take 1.3 MB, and
# each array of its exact bands 72 kB per squaring level.  Chunks of rows
# that need more than _BAND_LEVELS squarings (inputs beyond 1e9 in modulus)
# are smaller in proportion.
WIDE_CHUNK = 512
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


def _coefficients(zs: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Series coefficients h_m(z)/(m+q)! of the rows zs (n, q+1), shape (M, n).

    A row's coefficients stop, and stay zero, once its sum at z has
    converged: the envelope radius^m/(m! q!) of the terms has fallen below
    1e-17 of the sum and m is past the radius.  The working arrays drop the
    converged rows whenever they make up a quarter of them, so the late
    orders cost only the slow rows.
    """
    n, m = zs.shape
    q = m - 1
    coef = np.zeros((64, n), dtype=complex)
    coef[0] = 1.0 / math.factorial(q)
    idx = np.arange(n)  # positions in coef of the rows in the working arrays
    live = np.ones(n, dtype=bool)  # rows not yet converged
    zs = zs.T.copy()  # (m, n): one contiguous vector per input position
    h = np.ones((m, n), dtype=complex)
    acc = np.full(n, 1.0 / math.factorial(q), dtype=complex)
    env = np.full(n, 1.0 / math.factorial(q))
    powers = np.ones(n, dtype=complex)  # zs[0]**order, updated incrementally
    fact = float(math.factorial(q))
    for order in range(1, SERIES_TERM_CAP + 1):
        powers = powers * zs[0]
        h[0] = powers
        for j in range(1, m):
            h[j] = h[j - 1] + zs[j] * h[j]
        fact *= order + q
        term = h[q] / fact
        if order == len(coef):
            coef = np.concatenate([coef, np.zeros_like(coef)])
        coef[order, idx[live]] = term[live]
        acc += term
        env *= radius / order
        done = live & (env <= 1e-17 * np.maximum(np.abs(acc), _TINY))
        done &= order > radius
        if done.any():
            live &= ~done
            n_live = np.count_nonzero(live)
            if n_live == 0:
                break
            if n_live <= 0.75 * live.size:
                zs, h = zs[:, live], h[:, live]
                idx, radius, acc, env, powers = (
                    a[live] for a in (idx, radius, acc, env, powers))
                live = np.ones(n_live, dtype=bool)
    return coef[:order + 1]


def _step_powers(dts: np.ndarray, q: int) -> np.ndarray:
    """dt^q per step, by Python's float power as in exp_dd_scaled_batch (numpy's
    array power differs from it in the last bit for about 5% of inputs)."""
    return np.array([dt**q for dt in dts.tolist()])


def _series(xs: np.ndarray, mu: np.ndarray, spread: np.ndarray,
            dts: np.ndarray) -> np.ndarray:
    """e^{dt [x]} for every step dt in dts and every row x of xs, of mean mu
    and y = x - mu, over the pairs with spread * |dt| <= SERIES_SPREAD_CUTOFF;
    shape (S, B), the other pairs 0.

    Let tau be a row's longest step in range.  Its coefficient pass runs on
    tau * y, where the terms are largest, and stops by the rule at tau (at
    a shorter step each neglected term shrinks by (dt/tau)^m); the row is
    then evaluated at all its steps in range at once:

        e^{dt [x]} = dt^q e^{dt mu} sum_m (dt/tau)^m h_m(tau y)/(m+q)!,

    one product of the Vandermonde matrix of dt/tau (entries of modulus at
    most 1) with the coefficients of the rows that share tau.  Rows go
    through in chunks of SERIES_CHUNK, sorted by tau; only one chunk's
    coefficients are held at a time.
    """
    dtq = _step_powers(dts, xs.shape[1] - 1)
    mag = np.abs(dts)
    by_mag = np.argsort(mag, kind="stable")
    # a row's steps in range are a prefix of the steps sorted by |dt|
    n_in = np.count_nonzero(
        spread[None, :] * mag[by_mag, None] <= SERIES_SPREAD_CUTOFF, axis=0)
    rows = np.argsort(n_in, kind="stable")
    rows = rows[n_in[rows] > 0]
    out = np.zeros((len(dts), len(xs)), dtype=complex)
    for lo in range(0, len(rows), SERIES_CHUNK):
        chunk = rows[lo:lo + SERIES_CHUNK]
        k = n_in[chunk]
        tau = mag[by_mag[k - 1]]
        coef = _coefficients((xs[chunk] - mu[chunk, None]) * tau[:, None], spread[chunk] * tau)
        powers = np.arange(len(coef))
        cuts = np.flatnonzero(np.diff(k)) + 1
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(chunk)]):
            steps = by_mag[:k[a]]
            dt = dts[steps]
            ratio = dt / tau[a] if tau[a] > 0.0 else np.zeros_like(dt)
            vals = (ratio[:, None] ** powers) @ coef[:, a:b]
            sel = chunk[a:b]
            vals *= dtq[steps, None] * np.exp(np.multiply.outer(dt, mu[sel]))
            out[steps[:, None], sel] = vals
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
    near = np.abs(diff) < 1.0
    out = eb - ea
    np.divide(out, diff, out=out, where=~near)
    diff = diff[near]
    d2 = np.multiply(diff, diff, out=diff)
    d2 *= 0.25
    sinhc = np.full_like(d2, _SINHC[-1])
    for c in _SINHC[-2::-1]:
        sinhc *= d2
        sinhc += c
    mid = np.add(a[near], b[near], out=d2)
    mid *= 0.5
    sinhc *= np.exp(mid, out=mid)
    out[near] = sinhc
    return out


def _square_chunk(ys: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Corner of exp(A) for the bidiagonal matrices A with rows ys (n, m) on
    the diagonal, given squaring counts s sorted in descending order.

    Every row ends at level S = s[0] with the unscaled matrix; row r starts
    at level S - s[r], where its matrix is scaled by 2^-s[r].  At level L
    the rows started by then hold exp(2^(L-S) A), so one squaring of the
    leading rows moves them up a level, after which their diagonal and
    first superdiagonal are reset to exact values (Al-Mohy & Higham, SIMAX
    31, 2009, Code Fragment 2.1).

    The upper-triangular matrices are stored batch-last as upper bands,
    x[d, i, r] = X_r[i, i+d], with the slots i + d >= m held at zero, so
    every operation is elementwise over rows: a row's value does not depend
    on the other rows of the chunk.
    """
    n, m = ys.shape
    q = m - 1
    ys = ys.T  # (m, n)
    if q == 1:  # the corner is the superdiagonal, which is exact
        e = np.exp(ys)
        return _exp_dd_pair(ys[0], ys[1], e[0], e[1])
    top = int(s[0])
    # Taylor polynomial of the scaled matrix in Horner form, x <- I + A x / k;
    # a product with the bidiagonal matrix is a scaled band plus the next
    # band shifted by one row.  After j steps only bands 0..j are nonzero.
    t0 = np.ldexp(1.0, -s)
    ty0 = ys * t0
    x = np.zeros((m, m, n), dtype=complex)
    y = np.zeros_like(x)
    x[0] = 1.0
    for j, k in enumerate(range(q + _TAYLOR_TAIL - 1, 0, -1), start=1):
        nb = min(j + 1, m)
        np.multiply(ty0 * (1.0 / k), x[:nb], out=y[:nb])
        y[1:nb, :-1] += (t0 * (1.0 / k)) * x[:nb - 1, 1:]
        y[0] += 1.0
        x, y = y, x
    if top == 0:
        return x[q, 0]
    # started[L]: rows started by level L = 0..S-1.  The exact bands of
    # those rows at every such level lie side by side, level L in columns
    # off[L]:off[L+1]; the squaring into level S forms only the corner and
    # needs no bands.
    started = np.searchsorted(-s, np.arange(-top, 0), side="right")
    off = np.r_[0, np.cumsum(started)]
    t = np.ldexp(1.0, np.repeat(np.arange(-top, 0), started))
    ty = ys[:, np.concatenate([np.arange(k) for k in started])] * t
    diag = np.exp(ty)
    sup = _exp_dd_pair(ty[:-1], ty[1:], diag[:-1], diag[1:])
    sup *= t
    k = started[-1]
    at_start = off[top - s[:k]] + np.arange(k)
    x[0, :, :k] = diag[:, at_start]
    x[1, :-1, :k] = sup[:, at_start]
    # squarings into levels 1..S-1, bands d >= 2 only:
    # Y[d, i] = sum_e X[e, i] X[d-e, i+e].  Rows not started yet are only
    # read, and hold their Taylor values in both buffers.
    y[...] = x
    for lvl in range(1, top):
        k = started[lvl - 1]
        b, out = x[..., :k], y[..., :k]
        np.multiply(b[0, None], b[2:], out=out[2:])
        for e in range(1, m):
            d0 = max(e, 2)
            out[d0:, :m - e] += b[e, None, :m - e] * b[d0 - e:m - e, e:]
        out[0] = diag[:, off[lvl]:off[lvl] + k]
        out[1, :-1] = sup[:, off[lvl]:off[lvl] + k]
        x, y = y, x
    corner = x[q, 0].copy()
    k = started[-1]
    corner[:k] = x[0, 0, :k] * x[q, 0, :k]
    for e in range(1, m):
        corner[:k] += x[e, 0, :k] * x[q - e, e, :k]
    return corner


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
    bounds the working set of the band stacks and of the exact bands.
    """
    shift = np.rint(xs.real.mean(axis=1))[:, None]
    radius = np.hypot(xs.real - shift, xs.imag).max(axis=1)
    s = np.maximum(np.ceil(np.log2(radius / _THETA)), 0.0).astype(np.int64)
    order = np.argsort(-s, kind="stable")
    out = np.empty(len(xs), dtype=complex)
    lo = 0
    while lo < len(xs):
        # the exact bands hold up to s levels per row: past _BAND_LEVELS, fewer rows
        levels = int(s[order[lo]])
        sel = order[lo:lo + max(1, WIDE_CHUNK * _BAND_LEVELS // max(levels, _BAND_LEVELS))]
        out[sel] = _square_chunk(_leja_order(xs[sel] - shift[sel]), s[sel])
        lo += len(sel)
    return np.exp(shift[:, 0]) * out


def _checked_rows(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=complex)
    if xs.ndim != 2 or xs.shape[1] == 0:
        raise ValueError("batch must have shape (B, q+1) with q >= 0")
    if not np.all(np.isfinite(xs)):
        raise ValueError("divided-difference inputs must be finite")
    return xs


def _mean_spread(xs: np.ndarray):
    """Row means, and the largest distance of a row's input from its mean."""
    mu = xs.mean(axis=1)
    return mu, np.abs(xs - mu[:, None]).max(axis=1)


def exp_dd_steps(xs: np.ndarray, dts) -> np.ndarray:
    """e^{dt [x_0,...,x_q]} = dt^q e^{[dt x_0,...,dt x_q]} for every real
    step dt in dts and every row of xs (B, q+1); returns shape (S, B).

    The pairs with (row spread) * |dt| within the series cutoff share one
    coefficient pass per row; the other pairs are stacked into one
    exp_dd_batch call.  With the single step 1 this is exp_dd_batch.
    """
    xs = _checked_rows(xs)
    dts = np.asarray(dts, dtype=float)
    if dts.ndim != 1 or not np.all(np.isfinite(dts)):
        raise ValueError("steps must be a 1-D sequence of finite reals")
    q = xs.shape[1] - 1
    if q == 0:
        return np.exp(np.multiply.outer(dts, xs[:, 0]))
    mu, spread = _mean_spread(xs)
    out = _series(xs, mu, spread, dts)
    # the products _series compares with the cutoff: each pair is taken once
    wide_s, wide_b = np.nonzero(spread[None, :] * np.abs(dts)[:, None] > SERIES_SPREAD_CUTOFF)
    if len(wide_s):
        stacked = xs[wide_b]
        stacked *= dts[wide_s, None]
        out[wide_s, wide_b] = _step_powers(dts, q)[wide_s] * exp_dd_batch(stacked)
    return out


def exp_dd_batch(xs: np.ndarray) -> np.ndarray:
    """Divided differences of exp for a batch of equal-length input rows.

    xs has shape (B, q+1); returns shape (B,).  Rows whose mean-shifted
    spread exceeds the series cutoff go to the scaling-and-squaring kernel.
    """
    xs = _checked_rows(xs)
    if xs.shape[1] == 1:
        return np.exp(xs[:, 0])
    mu, spread = _mean_spread(xs)
    out = _series(xs, mu, spread, np.ones(1))[0]
    wide = spread > SERIES_SPREAD_CUTOFF
    if wide.any():
        out[wide] = _wide_batch(xs[wide])
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
