"""Divided differences of the exponential function with complex inputs.

Evaluates e^{[x_0,...,x_q]} for arbitrary complex input lists, including
exact repeats (confluent case), together with the real-part upper bound.
Its oracles (the bidiagonal matrix exponential and the simplex quadrature)
live in `oracle`, which shares no code with this module.

A batch holds rows of any orders up to its width: row r is read up to its
order q_r, and the code treats it as padded with its own mean, so its mean,
spread and value are those of the row alone (bitwise for the wide rows;
the series' Vandermonde product rounds by batch).  One call therefore takes
the rows of every order of a Dyson segment plan.

Method: a row's spread is the largest distance of an input from the row
mean mu.  Rows whose spread is at most ``SERIES_SPREAD_CUTOFF`` are shifted
by their mean (any constant can be factored out of the divided difference
of exp), and summed as the Taylor series

    e^{[y_0,...,y_q]} = sum_{m>=0} h_m(y_0,...,y_q) / (m+q)!

where h_m is the complete homogeneous symmetric polynomial of degree m (a
zero input leaves it unchanged).  Termination uses the worst-case envelope
R^m/(m! q!) with R = max|y_j|, because mean-shifted inputs make low-order
h_m vanish identically.  Since h_m is homogeneous, for a real step dt

    e^{dt [x_0,...,x_q]} = dt^q e^{dt mu} sum_m dt^m h_m(y) / (m+q)!,

whose coefficients do not depend on dt (Gupta, Barash & Hen, CPC 254,
2020): `exp_dd_steps` runs the recurrence once per row and evaluates it at
every step at once, as a product with the Vandermonde matrix of the steps;
`exp_dd_batch` is its case of the single step 1.

The rows of a Dyson segment plan (`exp_dd_paths`) have more structure: row
r holds the inputs [u_0, ..., u_q] of a permutation path, u_q = 0, and
every contiguous run of them is the row of the sub-path it spans, shifted
by the run's last input.  So the Leibniz rule for e^{2au} = e^{au} e^{au},
the semigroup U(2a) = U(a)^2 written for path amplitudes,

    D_{2a}(r) = sum_{k=0..q} e^{a u_k} D_a(pre_k) D_a(suf_k),

with D_a(r) the divided difference of u -> e^{a u} at r's inputs, pre_k
and suf_k the rows of the sub-paths before and after input k, squares the
whole plan at once at O(q) products per row and level, against O(q^3) per
row for the kernel below (divided-difference tables are squared the same
way by McCurdy, Ng & Parlett, Math. Comp. 43 (1984)).  The values at the
base step 2^-s dt come from the series pass as one more Vandermonde step;
the e^{a u} and the order-1 rows are exact at every level.

Wider rows would cancel catastrophically in the series.  For them, unless
a plan squares them, the divided difference is the corner entry (0, q) of
exp(A), A the bidiagonal matrix with the inputs on the diagonal and ones
above it, evaluated by batched scaling and squaring.  The inputs are
shifted only by an integer real offset (a complex mean shift would round
them), put in Leja order, and scaled by 2^-s so that their largest modulus
is at most 1/4; a Taylor polynomial approximates the scaled exponential,
and s squarings undo the scaling.  After every squaring the diagonal and the first superdiagonal
are reset to their exact values (Al-Mohy & Higham, SIMAX 31, 2009, Code
Fragment 2.1): e^{t x_k} and t e^{[t x_k, t x_{k+1}]}, the latter as the
difference quotient when |t(x_{k+1} - x_k)| >= 1 and in the sinh form
below that.  A chunk of rows with one s is held batch-last as upper
bands, so every step is elementwise over the rows; at q = 6 a squaring
forms 120 complex products per row, against 343 for a dense matrix product.

Against a 50-digit reference the kernel's worst relative error was 2.5e-13
on 152 wide rows sampled from the frozen benchmark workloads (scipy's expm:
3.1e-10), 2.4e-12 on 140 seeded near-confluent clusters at spread 1e5 and
2.9e-11 on 1,300 seeded rows with near-confluent pairs, exact repeats and
imaginary spreads up to 1e6.  The floor is the problem's conditioning: a
row whose value is far below its real-part bound, e.g. real parts of 50
against an imaginary spread of 2e3, loses digits in any double-precision
evaluation.
"""
from __future__ import annotations

import math

import numpy as np

# Shifted-series validity radius; wider rows go to the scaling-and-squaring
# kernel.  The series sums terms as large as e^spread/q! to a value that for
# imaginary inputs can be far smaller: against a 50-digit reference, on 3,000
# random rows (q <= 8) at 2-8 steps each, its worst relative error was 1.2e-11
# up to spread 9 and 2.0e-10 up to 12, in q = 1 rows near zeros of their value
# (now _exp_dd_pair's; q >= 2: 1.5e-11; kernel: 3e-14), and it grows fast
# beyond (with compensated summation: 7e-10 up to 14, 1.1e-7 at 25.8).
SERIES_SPREAD_CUTOFF = 12.0
SERIES_TERM_CAP = 500
# Rows per coefficient pass: the (terms, rows) coefficient block of a chunk
# is 2.1 MB at 65 terms, which rows at the cutoff radius take.
SERIES_CHUNK = 2048
# Wide rows: scale so that 2^-s max|x| <= _THETA, then a Taylor polynomial
# of degree q + _TAYLOR_TAIL - 1 leaves a relative truncation error of at
# most _THETA^13/13! = 2.4e-18 in every entry of the scaled exponential.
_THETA = 0.25
_TAYLOR_TAIL = 13
# Wide rows per chunk, all with one squaring count: at q = 8 a chunk's two
# band stacks take 1.3 MB, and each array of its exact bands 72 kB per
# squaring.  Chunks of rows that need more than _BAND_LEVELS squarings
# (inputs beyond 1e9 in modulus) are smaller in proportion.
WIDE_CHUNK = 512
_BAND_LEVELS = 32
# Plan-level squaring: the bytes of each (steps, Q + 1, rows) term array.
SQUARE_BYTES = 1 << 20
# sinh(d)/d = sum_k d^(2k)/(2k+1)!
_SINHC = tuple(1.0 / math.factorial(2 * k + 1) for k in range(8))
_TINY = 1e-300


def _coefficients(zs: np.ndarray, q: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Series coefficients h_m(z)/(m+q)! of the rows zs (n, width) of orders
    q (n,), zero-padded past their order; shape (M, n).

    A row's coefficients stop, and stay zero, once its sum at z has
    converged: the envelope radius^m/(m! q!) of the terms has fallen below
    1e-17 of the sum and m is past the radius.  The working arrays drop the
    converged rows whenever they make up a quarter of them, so the late
    orders cost only the slow rows.
    """
    n, m = zs.shape
    inv_fact = np.array([1.0 / math.factorial(k) for k in range(m)])[q]
    fact = np.array([float(math.factorial(k)) for k in range(m)])[q]
    # orders until the widest row's envelope is below 1e-20 (doubled if short)
    r = float(radius.max())
    terms = next(k for k in range(1, SERIES_TERM_CAP) if k > r and r**k / math.factorial(k) < 1e-20)
    coef = np.zeros((terms + 1, n), dtype=complex)
    coef[0] = inv_fact
    idx = np.arange(n)  # positions in coef of the rows in the working arrays
    live = np.ones(n, dtype=bool)  # rows not yet converged
    zs = zs.T.copy()  # (m, n): one contiguous vector per input position
    h = np.ones((m, n), dtype=complex)
    acc = inv_fact.astype(complex)
    env = inv_fact.copy()
    powers = np.ones(n, dtype=complex)  # zs[0]**order, updated incrementally
    for order in range(1, SERIES_TERM_CAP + 1):
        powers = powers * zs[0]
        h[0] = powers
        for j in range(1, m):
            h[j] = h[j - 1] + zs[j] * h[j]
        fact *= order + q
        term = h[q, np.arange(len(q))] / fact
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
                idx, q, radius, acc, env, fact, powers = (
                    a[live] for a in (idx, q, radius, acc, env, fact, powers))
                live = np.ones(n_live, dtype=bool)
    return coef[:order + 1]


def _step_powers(dts: np.ndarray, q_max: int) -> np.ndarray:
    """dt^k for every step and k = 0..q_max, shape (S, q_max + 1), by Python's
    float power, t^q as a scalar computes it (numpy's array power differs
    from it in the last bit for about 5% of inputs)."""
    return np.array([[dt**k for k in range(q_max + 1)] for dt in dts.tolist()])


def _series(xs: np.ndarray, q: np.ndarray, mu: np.ndarray, spread: np.ndarray,
            dts: np.ndarray, base: np.ndarray = np.empty(0),
            fresh: np.ndarray = np.empty(0, dtype=np.intp)) -> np.ndarray:
    """e^{dt [x]} for every step dt in dts and then in base, and every row x
    of xs, of order q, mean mu and y = x - mu, over the pairs with spread *
    |dt| <= SERIES_SPREAD_CUTOFF; shape (S + L, B), the other pairs 0.

    Let tau be a row's longest step of dts in range.  Its coefficient pass
    runs on tau * y, where the terms are largest, and stops by the rule at
    tau (at a shorter step each neglected term shrinks by (dt/tau)^m); the
    row is then evaluated at all its steps in range at once:

        e^{dt [x]} = dt^q e^{dt mu} sum_m (dt/tau)^m h_m(tau y)/(m+q)!,

    one product of the Vandermonde matrix of dt/tau (entries of modulus at
    most 1) with the coefficients of the rows that share tau.  Rows go
    through in chunks of SERIES_CHUNK, sorted by tau; only one chunk's
    coefficients are held at a time.

    The steps of base are evaluated, for rows of order q >= 2 only, at every
    row whose tau is at least as long, in a product of their own, so the
    values at dts keep their bits.  The rows ``fresh``, of orders q >= 2 and
    with no step of dts in range, take their pass at the longest step of
    base, which must be in their range, in chunks after all others.
    """
    every = np.concatenate([dts, base])
    dtq = _step_powers(every, int(q.max(initial=0)))
    mag, base_mag = np.abs(dts), np.abs(base)
    by_mag = np.argsort(mag, kind="stable")
    base_by_mag = np.argsort(base_mag, kind="stable")
    base_mag, base_by_mag = base_mag[base_by_mag], len(dts) + base_by_mag
    # a row's steps in range are a prefix of the steps sorted by |dt|
    n_in = np.zeros(len(xs), dtype=np.intp)
    for m in mag.tolist():
        n_in += spread * m <= SERIES_SPREAD_CUTOFF
    n_in[q == 1] = 0  # no coefficient pass: _exp_dd_pair below gives their values
    rows = np.argsort(n_in, kind="stable")
    rows = rows[n_in[rows] > 0]
    out = np.zeros((len(every), len(xs)), dtype=complex)
    for part in (rows, fresh):
        for lo in range(0, len(part), SERIES_CHUNK):
            chunk = part[lo:lo + SERIES_CHUNK]
            k = n_in[chunk]
            tau = mag[by_mag[k - 1]] if part is rows else np.full(len(chunk), base_mag[-1])
            width = int(q[chunk].max()) + 1
            zs = xs[chunk, :width] - mu[chunk, None]
            zs[np.arange(width) > q[chunk, None]] = 0.0
            zs *= tau[:, None]
            coef = _coefficients(zs, q[chunk], spread[chunk] * tau)
            powers = np.arange(len(coef))
            cuts = np.flatnonzero(np.diff(k)) + 1
            for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(chunk)]):
                sel = chunk[a:b]
                n_base = np.searchsorted(base_mag, tau[a], side="right")
                for steps in (by_mag[:k[a]], base_by_mag[:n_base]):
                    if not len(steps):
                        continue
                    dt = every[steps]
                    ratio = dt / tau[a] if tau[a] > 0.0 else np.zeros_like(dt)
                    vals = (ratio[:, None] ** powers) @ coef[:, a:b]
                    vals *= dtq[steps[:, None], q[sel]] * np.exp(np.multiply.outer(dt, mu[sel]))
                    out[steps[:, None], sel] = vals
            del coef  # the next chunk's pass runs without this one's coefficients
    # q = 1: _exp_dd_pair, exact where the series cancels near the value's zeros
    ones = np.flatnonzero(q == 1)
    at, one = np.nonzero(spread[ones] * mag[:, None] <= SERIES_SPREAD_CUTOFF)
    if len(one):
        one = ones[one]
        half = 0.5 * dts[at] * (xs[one, 1] - xs[one, 0])
        pair = _exp_dd_pair(-half, half, np.exp(-half), np.exp(half))
        out[at, one] = dts[at] * np.exp(dts[at] * mu[one]) * pair
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


def _square_chunk(ys: np.ndarray, q: np.ndarray, s: int) -> np.ndarray:
    """Corner (0, q_r) of exp(A) for the bidiagonal matrices A with rows ys
    (n, m) of orders q >= 2 on the diagonal, all scaled by 2^-s; s >= 1,
    since a wide row's radius is at least half its spread, which is above the
    series cutoff.  The padding past q_r only reaches entries past the
    corner's column (the leading blocks of upper-triangular matrices
    multiply on their own), and a row holds the identity until the Horner
    step of its own degree q_r + _TAYLOR_TAIL - 1.

    The Taylor polynomial gives exp(2^-s A) at level 0; level L holds
    exp(2^(L-s) A).  Each of the squarings into levels 1..s-1 is followed
    by the exact diagonal and first superdiagonal of its level (Al-Mohy &
    Higham, SIMAX 31, 2009, Code Fragment 2.1), read with those of level 0
    from one (m, s, n) table; the squaring into level s forms only the
    corner.

    The upper-triangular matrices are stored batch-last as upper bands,
    x[d, i, r] = X_r[i, i+d], with the slots i + d >= m held at zero, so
    every operation is elementwise over rows: a row's value does not depend
    on the other rows of the chunk, nor on the width of the chunk.
    """
    n, m = ys.shape
    ys = ys.T  # (m, n)
    cols = np.arange(n)
    degree = q + _TAYLOR_TAIL - 1
    # Taylor polynomial of the scaled matrix in Horner form, x <- I + A x / k;
    # a product with the bidiagonal matrix is a scaled band plus the next
    # band shifted by one row.  After j steps only bands 0..j are nonzero.
    t0 = math.ldexp(1.0, -s)
    ty0 = ys * t0
    x = np.zeros((m, m, n), dtype=complex)
    y = np.zeros_like(x)
    x[0] = 1.0
    for j, k in enumerate(range(int(degree.max()), 0, -1), start=1):
        nb = min(j + 1, m)
        np.multiply(ty0 * (1.0 / k), x[:nb], out=y[:nb])
        y[1:nb, :-1] += (t0 * (1.0 / k)) * x[:nb - 1, 1:]
        y[0] += 1.0
        x, y = y, x
        later = degree < k  # rows whose polynomial starts at a lower degree
        if later.any():
            x[:, :, later] = 0.0
            x[0, :, later] = 1.0
    # exact bands of levels 0..s-1, level L scaled by t = 2^(L-s)
    t = np.ldexp(1.0, np.arange(-s, 0))[:, None]
    ty = ys[:, None, :] * t
    diag = np.exp(ty)
    sup = _exp_dd_pair(ty[:-1], ty[1:], diag[:-1], diag[1:])
    sup *= t
    x[0], x[1, :-1] = diag[:, 0], sup[:, 0]
    # squarings into levels 1..s-1, bands d >= 2 only:
    # Y[d, i] = sum_e X[e, i] X[d-e, i+e]
    for lvl in range(1, s):
        np.multiply(x[0, None], x[2:], out=y[2:])
        for e in range(1, m):
            d0 = max(e, 2)
            y[d0:, :m - e] += x[e, None, :m - e] * x[d0 - e:m - e, e:]
        y[0], y[1, :-1] = diag[:, lvl], sup[:, lvl]
        x, y = y, x
    corner = x[0, 0] * x[q, 0, cols]
    for e in range(1, m):  # rows with q_r < e have no such term (q - e wraps)
        corner += np.where(q >= e, x[e, 0] * x[q - e, e, cols], 0.0)
    return corner


def _leja_order(zs: np.ndarray, q: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Rows of zs, of orders q and means mu, with their entries in Leja
    order and the padding last: first the entry farthest from the row mean,
    then each time the entry with the largest product of distances to those
    already taken.

    The divided difference does not depend on the order, but the squaring
    does: its intermediate entries are divided differences over contiguous
    runs of the row, and runs of well-separated entries carry less
    cancellation.  On 1,300 near-confluent rows with imaginary spreads up
    to 1e6, the worst relative error against a 50-digit reference was
    8.9e-8 in input order, 3.1e-3 in sorted order and 2.0e-11 in Leja
    order (scipy's expm: 1.4e-6).
    """
    n, m = zs.shape
    ys = zs - mu[:, None]
    pad = np.arange(m) > q[:, None]
    dist = np.abs(ys)  # 0 on the padding, which is the mean
    scale = dist.max(axis=1, keepdims=True)
    rows = np.arange(n)
    order = np.empty((n, m), dtype=np.intp)
    taken = pad.copy()
    score = np.ones((n, m))
    j = np.argmax(dist, axis=1)
    for k in range(m):
        order[:, k] = np.where(k <= q, j, k)
        taken[rows, j] = True
        score *= np.abs(ys - ys[rows, j][:, None]) / scale
        j = np.argmax(np.where(taken, -1.0, score), axis=1)
    return np.take_along_axis(zs, order, axis=1)


def _wide_batch(xs: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """e^{[x_0,...,x_q]} for the rows ``rows`` of xs (B, m), of orders q
    (B,), as the corner of exp of the bidiagonal matrix, by batched scaling
    and squaring.  The rows are read by index (an order at a time for the
    shifts, a chunk at a time for the kernel), so no copy of all of them is
    made.

    Rows are shifted by their real mean rounded to an integer, which keeps
    e^x in range, and not by their complex mean: fl(x - mean) moves each
    input by up to 1e-16 |x|, which on [810619.25j, -810619.25j,
    405309.625j] (value 1e-13 of its bound 1/2) cost 1.0e-9 relative
    error, against 3.1e-15 unshifted.  Rows are padded with their mean and
    put in Leja order, and row r is scaled by 2^-s_r so that 2^-s_r
    max|x - shift| <= _THETA.  Rows are sorted by s_r, then by order, and
    evaluated in chunks of one s_r and at most WIDE_CHUNK rows, which bounds
    the working set of the band stacks and of the exact bands; a chunk is as
    wide as its highest order.  A row of order 1 is `_exp_dd_pair` instead.
    """
    q = q[rows]
    shift, radius = np.empty(len(rows)), np.empty(len(rows))
    for sel, k in _by_order(q):
        own = xs[rows[sel], :k + 1]
        shift[sel] = np.rint(own.real.mean(axis=1))
        radius[sel] = np.hypot(own.real - shift[sel, None], own.imag).max(axis=1)
    del own  # an order's rows: not held through the chunks
    s = np.ceil(np.log2(radius / _THETA)).astype(np.int64)
    out = np.empty(len(rows), dtype=complex)
    one = np.flatnonzero(q == 1)  # symmetric in its inputs: no Leja order
    zs = xs[rows[one], :2] - shift[one, None]
    out[one] = _exp_dd_pair(zs[:, 0], zs[:, 1], *np.exp(zs.T))
    order = np.lexsort((q, s))
    order = order[q[order] > 1]
    cuts = np.flatnonzero(np.diff(s[order], prepend=0))  # s >= 1: 0 starts the first run
    for lo, hi in zip(cuts, np.r_[cuts[1:], len(order)]):
        level = int(s[order[lo]])
        # the exact bands hold s levels per row: past _BAND_LEVELS, fewer rows
        size = WIDE_CHUNK * _BAND_LEVELS // max(level, _BAND_LEVELS)
        for at in range(lo, hi, size):
            sel = order[at:min(at + size, hi)]
            qs = q[sel]
            zs = xs[rows[sel], :int(qs.max()) + 1] - shift[sel, None]
            mu = _mean_spread(zs, qs)[0]
            _pad(zs, qs, mu)
            out[sel] = _square_chunk(_leja_order(zs, qs, mu), qs, level)
    return np.exp(shift) * out


def _checked_rows(xs, q) -> tuple[np.ndarray, np.ndarray]:
    """The rows (B, m) and their orders (B,); q=None means m - 1 for all."""
    xs = np.asarray(xs, dtype=complex)
    if xs.ndim != 2 or xs.shape[1] == 0:
        raise ValueError("batch must have shape (B, q+1) with q >= 0")
    if not np.all(np.isfinite(xs)):
        raise ValueError("divided-difference inputs must be finite")
    q = np.full(len(xs), xs.shape[1] - 1) if q is None else np.asarray(q)
    if q.shape != (len(xs),) or q.dtype.kind not in "iu" or ((q < 0) | (q >= xs.shape[1])).any():
        raise ValueError("orders must be one integer per row, below the row width")
    return xs, q.astype(np.intp, copy=False)


def _by_order(q: np.ndarray):
    """(rows, k) per order k in q."""
    for k in np.flatnonzero(np.bincount(q)).tolist():
        yield np.flatnonzero(q == k), k


def _mean_spread(xs: np.ndarray, q: np.ndarray):
    """Row means, and the largest distance of a row's input from its mean,
    over the entries up to its order; taken over the rows of one order at a
    time, so that they are the row's own.  An order's rows are read through
    a view of the run of rows from its first to its last (the plan's orders
    are contiguous), not copied out; other rows in the run are dropped."""
    mu, spread = np.empty(len(xs), dtype=complex), np.zeros(len(xs))
    for rows, k in _by_order(q):
        run = xs[rows[0]:rows[-1] + 1, :k + 1]
        mean, dist = run.mean(axis=1), np.zeros(len(run))
        for j in range(k + 1):  # a column at a time: no (B, q+1) temporary
            np.maximum(dist, np.abs(run[:, j] - mean), out=dist)
        mu[rows], spread[rows] = mean[rows - rows[0]], dist[rows - rows[0]]
    return mu, spread


def _pad(xs: np.ndarray, q: np.ndarray, value: np.ndarray) -> None:
    """Sets the entries of each row past its order to value (B,), in place."""
    pad = np.arange(xs.shape[1]) > q[:, None]
    xs[pad] = np.broadcast_to(value[:, None], xs.shape)[pad]


def _complete(q: np.ndarray, pre: np.ndarray, suf: np.ndarray) -> np.ndarray:
    """(B + 1,) whether each row's splits, and theirs in turn, are all rows
    of the call; False at the index B, which stands for no row."""
    ok = np.ones(len(q) + 1, dtype=bool)
    ok[-1] = False
    for rows, k in _by_order(q):  # ascending: a row's splits have lower orders
        for j in range(k - 1):
            ok[rows] &= ok[pre[rows, j]] & ok[suf[rows, j]]
    return ok


def _closure(q: np.ndarray, pre: np.ndarray, suf: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The complete rows ``rows`` and every row that their splits reach,
    in turn, ascending."""
    need = np.zeros(len(q), dtype=bool)
    need[rows] = True
    for at, k in reversed(list(_by_order(q))):  # descending: a split reaches lower orders
        at = at[need[at]]
        for table in (pre, suf):
            need[table[at, :k - 1].ravel()] = True
    return np.flatnonzero(need)


def _square(xs: np.ndarray, q: np.ndarray, pre: np.ndarray, suf: np.ndarray,
            paths: np.ndarray, start: np.ndarray, base: np.ndarray,
            levels: np.ndarray) -> np.ndarray:
    """Values (L, len(paths)) of the rows ``paths`` at the steps base * 2^levels,
    from their values ``start`` at the steps base, by plan-level squaring.

    With D_a(r) the divided difference of u -> e^{a u} at row r's inputs
    [u_0, ..., u_q], the Leibniz rule for e^{2au} = e^{au} e^{au} reads

        D_{2a}(r) = sum_{k=0..q} e^{a u_k} D_a(pre_k) D_a(suf_k),

    with pre_0 and suf_q the empty row (D = 1, u_q = 0) and pre_q = suf_0 =
    r: O(q) products per row and level, summed in the order of k.  The
    e^{a u} are recomputed at every level, one exp per row (u_k is suf_k's
    first input), and the order-1 rows are set at every level to a e^{[a
    u_0, 0]} by `_exp_dd_pair`, as the kernel resets its first
    superdiagonal.  Steps with the same number of levels run in lockstep, a
    row of the arrays per step; the term arrays are cut to SQUARE_BYTES.
    """
    n = len(paths)
    one, zero = n, n + 1  # columns of the empty row (D = 1, first input 0) and of 0
    local = np.zeros(len(q), dtype=np.intp)
    local[paths] = np.arange(n)
    qp = q[paths]
    # term k of row j: e[f[k, j]] v[p[k, j]] v[f[k, j]], 0 past its order
    cols = np.arange(n)
    p = np.full((int(qp.max()) + 1, n), zero, dtype=np.min_scalar_type(zero))
    f = np.full_like(p, one)
    p[0], f[0] = one, cols
    p[qp, cols], f[qp, cols] = cols, one
    for sel, k in _by_order(qp):
        p[1:k, sel] = local[pre[paths[sel], :k - 1]].T
        f[1:k, sel] = local[suf[paths[sel], :k - 1]].T
    first = np.r_[xs[paths, 0], 0.0, 0.0]
    ones = np.flatnonzero(qp == 1)
    chunk = max(1, SQUARE_BYTES // (16 * len(p) * len(levels)))
    out = np.empty_like(start)
    for s in np.unique(levels).tolist():
        at = np.flatnonzero(levels == s)
        steps = np.ldexp(base[at], np.arange(s + 1)[:, None])[:, :, None]  # (levels, steps, 1)
        pair = steps * first[ones]
        pair = steps * _exp_dd_pair(pair, np.zeros_like(pair), np.exp(pair), np.ones_like(pair))
        v = np.zeros((len(at), n + 2), dtype=complex)
        v[:, :n], v[:, one], v[:, ones] = start[at], 1.0, pair[0]
        for lvl in range(1, s + 1):
            e = np.exp(steps[lvl - 1] * first)
            nxt = np.zeros_like(v)
            for lo in range(0, n, chunk):
                c = slice(lo, min(lo + chunk, n))
                terms = e[:, f[:, c]]
                terms *= v[:, p[:, c]]
                terms *= v[:, f[:, c]]
                terms.sum(axis=1, out=nxt[:, c])
            nxt[:, one], nxt[:, ones] = 1.0, pair[lvl]
            v = nxt
        out[at] = v[:, :n]
    return out


def _steps(xs, dts, q, splits):
    """exp_dd_paths, where splits=None sends every wide pair to the kernel."""
    xs, q = _checked_rows(xs, q)
    dts = np.asarray(dts, dtype=float)
    if dts.ndim != 1 or not np.all(np.isfinite(dts)):
        raise ValueError("steps must be a 1-D sequence of finite reals")
    mu, spread = _mean_spread(xs, q)
    # the products _series compares with the cutoff, each pair once; by row
    mag = np.abs(dts)
    rows = np.flatnonzero(spread * mag.max(initial=0.0) > SERIES_SPREAD_CUTOFF)
    wide_b, wide_s = np.nonzero(spread[rows, None] * mag[None, :] > SERIES_SPREAD_CUTOFF)
    wide_b = rows[wide_b]
    squared, work = np.zeros(len(wide_b), dtype=bool), 0
    if len(wide_b) and splits is not None:
        pre, suf = splits()
        squared = _complete(q, pre, suf)[wide_b]
    if not squared.any():
        out = _series(xs, q, mu, spread, dts)
    else:
        paths = _closure(q, pre, suf, wide_b[squared])
        # the base step of each squared step: 2^-s of it, for the least s
        # that puts it within every path row's longest step in range (so its
        # coefficient pass stays where it was), or within its range if the
        # row has none
        multi = paths[q[paths] > 1]
        in_range = spread[multi, None] * mag <= SERIES_SPREAD_CUTOFF
        cap = np.where(in_range, mag, 0.0).max(axis=1, initial=0.0)
        none = ~in_range.any(axis=1)
        cap[none] = _THETA / spread[multi[none]]
        limit = cap.min(initial=np.inf)
        at = np.unique(wide_s[squared])
        levels = np.zeros(len(at), dtype=np.intp)
        for j, m in enumerate(mag[at].tolist()):
            while math.ldexp(m, -int(levels[j])) > limit:
                levels[j] += 1
        base = np.ldexp(dts[at], -levels)
        out = _series(xs, q, mu, spread, dts, base, multi[none])
        tops = _square(xs, q, pre, suf, paths, out[len(dts):, paths], base, levels)
        out = out[:len(dts)]
        b, i = wide_b[squared], wide_s[squared]
        out[i, b] = tops[np.searchsorted(at, i), np.searchsorted(paths, b)]
        work = len(paths) * int(levels.sum())
    if not squared.all():
        kernel_b, kernel_s = wide_b[~squared], wide_s[~squared]
        qw = q[kernel_b]
        stacked = xs[kernel_b, :int(qw.max()) + 1]
        _pad(stacked, qw, mu[kernel_b])
        stacked *= dts[kernel_s, None]
        out[kernel_s, kernel_b] = (_step_powers(dts, int(qw.max()))[kernel_s, qw]
                                   * exp_dd_batch(stacked, qw))
    return out, np.count_nonzero(squared), work


def exp_dd_paths(xs: np.ndarray, dts, q, splits):
    """exp_dd_steps for the rows of a path plan, with its wide pairs squared
    over the plan's own rows; returns (values (S, B), the pairs squared, the
    squaring work: path rows times levels, summed over the steps squared).

    Row r holds inputs [u_0, ..., u_q] with u_q = 0, and every run of them
    is a row of the call shifted by the run's last input.  ``splits()``
    returns two tables (B, >= max(q) - 1): for k = 1..q_r - 1, column k - 1
    holds the row pre_k of inputs u_0 - u_k, ..., u_{k-1} - u_k, 0, and the
    row suf_k of inputs u_k, ..., u_q; B where there is no such row.  It is
    called only when a pair is wide.

    A wide pair is squared (see `_square`) when the row's splits, and
    theirs in turn, are all rows: from a base step 2^-s dt at which every
    row they reach is in the series range, evaluated by the series pass
    with the steps dts.  The other wide pairs take the kernel, through
    exp_dd_batch as in exp_dd_steps, and every series pair keeps the bits
    that exp_dd_steps gives it.

    The contract is relative to the real-part bound, which is what the LCU
    needs, as it consumes coefficient over bound: the squared values are
    within 1e-14 of the bound of the kernel's (measured: 5.5e-16 on the
    6,183 wide pairs of the frozen case c4-n2 m4, at most 1.3e-15 on 60
    random n = 2-3 models at steps 3-40).  Relative to the value they can
    be further off where the value is far below its bound: against 50
    digits, m4's worst was 3.0e-13 (kernel 1.95e-13), and on pairs at
    1.5e-9 of their bound 4.4e-11 (kernel 1.3e-12).
    """
    return _steps(xs, dts, q, splits)


def exp_dd_steps(xs: np.ndarray, dts, q=None) -> np.ndarray:
    """e^{dt [x_0,...,x_q]} = dt^q e^{[dt x_0,...,dt x_q]} for every real
    step dt in dts and every row of xs (B, m); returns shape (S, B).

    Row r is read up to its order q[r] (default m - 1); what lies past it
    is padding, which its value does not depend on.  The pairs with (row
    spread) * |dt| within the series cutoff share one coefficient pass per
    row; the other pairs are stacked, padded with their row mean, into one
    exp_dd_batch call.  With the single step 1 this is exp_dd_batch.
    """
    return _steps(xs, dts, q, None)[0]


def exp_dd_batch(xs: np.ndarray, q=None) -> np.ndarray:
    """Divided differences of exp for a batch of input rows (B, m) of
    orders q, as in exp_dd_steps; returns shape (B,).  Rows whose
    mean-shifted spread exceeds the series cutoff go to the
    scaling-and-squaring kernel.
    """
    xs, q = _checked_rows(xs, q)
    mu, spread = _mean_spread(xs, q)
    out = _series(xs, q, mu, spread, np.ones(1))[0]
    wide = spread > SERIES_SPREAD_CUTOFF
    if wide.any():
        out[wide] = _wide_batch(xs, q, np.flatnonzero(wide))
    return out


def exp_dd(xs) -> complex:
    """e^{[x_0,...,x_q]}: order-q divided difference of exp at complex inputs.

    Exact for q=0; permutation symmetric; confluent-safe (repeats allowed).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=complex))
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("input list must be a nonempty 1-D sequence")
    return complex(exp_dd_batch(xs[None, :])[0])


def exp_dd_bound_batch(xs: np.ndarray) -> np.ndarray:
    """Real-input divided differences e^{[Re x_0,...,Re x_q]} of a batch of
    rows (B, q+1), each >= |exp_dd| of its row; returns shape (B,)."""
    xs = np.asarray(xs, dtype=complex)
    return exp_dd_batch(xs.real + 0.0j).real
