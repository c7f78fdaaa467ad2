"""Tests for divided differences of the exponential function."""
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from dyson_reference import dense_coefficients, frozen_model
from permlcu import dd, oracle

LN2 = math.log(2.0)


def exp_dd_recursive(xs):
    """Independent oracle: Newton table recursion (distinct inputs only)."""
    xs = [complex(x) for x in xs]
    assert len({x for x in xs}) == len(xs), "recursive oracle needs distinct inputs"
    table = [np.exp(x) for x in xs]
    for j in range(1, len(xs)):
        table = [(table[i + 1] - table[i]) / (xs[i + j] - xs[i])
                 for i in range(len(table) - 1)]
    return table[0]


def random_inputs(rng, q, scale=10.0, kind=None):
    kind = rng.integers(0, 4) if kind is None else kind
    if kind == 0:  # complex ball
        xs = (rng.uniform(-1, 1, q + 1) + 1j * rng.uniform(-1, 1, q + 1)) * scale / 1.5
    elif kind == 1:  # purely imaginary
        xs = 1j * rng.uniform(-scale, scale, q + 1)
    elif kind == 2:  # purely real
        xs = rng.uniform(-scale, scale, q + 1) + 0.0j
    else:  # confluent: inject repeats
        xs = (rng.uniform(-1, 1, q + 1) + 1j * rng.uniform(-1, 1, q + 1)) * scale / 2
        if q >= 1:
            xs[rng.integers(0, q + 1)] = xs[0]
    return xs


def rel_err(a, b):
    scale = max(abs(a), abs(b))
    if scale < 1e-300:
        return abs(a - b)
    return abs(a - b) / scale


# --- exp_dd -----------------------------------------------------------------

def test_exp_dd_order_zero():
    assert dd.exp_dd([0.0]) == 1.0
    x = 0.7 - 0.2j
    assert rel_err(dd.exp_dd([x]), np.exp(x)) < 1e-15


def test_exp_dd_confluent_pair():
    x = 0.3 + 0.1j
    assert rel_err(dd.exp_dd([x, x]), np.exp(x)) < 1e-13


def test_exp_dd_zero_ln2():
    assert rel_err(dd.exp_dd([0.0, LN2]), 1.0 / LN2) < 1e-13


def test_exp_dd_fully_confluent_is_exp_over_factorial():
    x = -0.4 + 0.9j
    for q in range(6):
        val = dd.exp_dd([x] * (q + 1))
        assert rel_err(val, np.exp(x) / math.factorial(q)) < 1e-12


def test_exp_dd_matches_recursive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = int(rng.integers(1, 9))
        xs = random_inputs(rng, q, kind=int(rng.integers(0, 3)))
        if len({complex(x) for x in xs}) < len(xs):
            continue
        # the recursion is only stable for well-separated inputs
        gaps = [abs(a - b) for i, a in enumerate(xs) for b in xs[i + 1:]]
        if min(gaps) < 0.5:
            continue
        assert rel_err(dd.exp_dd(xs), exp_dd_recursive(xs)) < 1e-9


def test_exp_dd_matches_bidiagonal_oracle():
    rng = np.random.default_rng(12)
    for _ in range(300):
        q = int(rng.integers(1, 9))
        xs = random_inputs(rng, q)
        assert rel_err(dd.exp_dd(xs), oracle.exp_dd_oracle_bidiagonal(xs)) < 1e-10


def test_exp_dd_permutation_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(200):
        q = int(rng.integers(1, 9))
        xs = random_inputs(rng, q)
        ref = dd.exp_dd(xs)
        perm = rng.permutation(q + 1)
        assert rel_err(dd.exp_dd(xs[perm]), ref) < 1e-10


def test_exp_dd_factor_out_property():
    rng = np.random.default_rng(14)
    for _ in range(200):
        q = int(rng.integers(1, 9))
        xs = random_inputs(rng, q)
        ref = dd.exp_dd(xs)
        shifted = np.concatenate([[0.0], xs[1:] - xs[0]])
        assert rel_err(np.exp(xs[0]) * dd.exp_dd(shifted), ref) < 1e-10


def test_exp_dd_fallback_large_spread():
    # beyond the series cutoff the bidiagonal route takes over; cross-check
    # against the high-spread recursive oracle on well-separated inputs
    xs = np.array([40.0 + 5j, -35.0 - 2j, 3.0 + 60j])
    assert rel_err(dd.exp_dd(xs), exp_dd_recursive(xs)) < 1e-9


def test_exp_dd_huge_imaginary_inputs():
    # interaction inputs scale like i*(energy gap + rate); rates can be ~1e6
    xs = np.array([3.5e5j, -2.1e5j, 0.0j])
    assert rel_err(dd.exp_dd(xs), exp_dd_recursive(xs)) < 1e-9


def test_exp_dd_rejects_nonfinite():
    with pytest.raises(ValueError):
        dd.exp_dd([np.inf])
    with pytest.raises(ValueError):
        dd.exp_dd([0.0, np.nan])
    with pytest.raises(ValueError):
        dd.exp_dd([])


# --- a single step: e^{t[x]} = t^q e^{[t x]} ---------------------------------

def test_exp_dd_scaled_t_one_identity():
    xs = [0.2 + 0.4j, -0.1j]
    assert rel_err(dd.exp_dd_steps([xs], [1.0])[0, 0], dd.exp_dd(xs)) < 1e-15


def test_exp_dd_scaled_t_zero():
    assert dd.exp_dd_steps([[5.0, 7.0, -1.0]], [0.0])[0, 0] == 0.0
    assert dd.exp_dd_steps([[5.0]], [0.0])[0, 0] == 1.0


def test_exp_dd_scaled_first_order_integral():
    # oracle: e^{0.7[1,0]} = int_0^0.7 e^s ds = e^0.7 - 1
    t = 0.7
    s, w = np.linspace(0.0, t, 2001), None
    w = np.ones(2001)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    quad = float(np.sum(w * np.exp(s)) * (t / 2000) / 3.0)
    assert abs(quad - (math.exp(0.7) - 1.0)) < 1e-12
    assert rel_err(dd.exp_dd_steps([[1.0, 0.0]], [t])[0, 0], math.exp(0.7) - 1.0) < 1e-13
    assert rel_err(dd.exp_dd_steps([[1.0, 0.0]], [t])[0, 0], 1.0137527074704766) < 1e-12


def test_exp_dd_scaled_matches_scaling_identity():
    rng = np.random.default_rng(15)
    for _ in range(50):
        q = int(rng.integers(1, 6))
        xs = random_inputs(rng, q, scale=3.0)
        t = float(rng.uniform(-2, 2))
        lhs = dd.exp_dd_steps([xs], [t])[0, 0]
        rhs = t**q * dd.exp_dd(t * xs)
        assert rel_err(lhs, rhs) < 1e-12


# --- real-part bound ---------------------------------------------------------

def test_bound_pure_imaginary_pair():
    for a in (0.3, 2.0, 17.0):
        assert abs(dd.exp_dd_bound_batch([[1j * a, 0.0]])[0] - 1.0) < 1e-12


def test_bound_confluent_real_parts():
    assert rel_err(dd.exp_dd_bound_batch([[1 + 1j, 1 - 1j]])[0], math.e) < 1e-12


def test_bound_dominates_value():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        q = int(rng.integers(1, 9))
        xs = random_inputs(rng, q)
        assert abs(dd.exp_dd(xs)) <= dd.exp_dd_bound_batch([xs])[0] * (1 + 1e-12)


def test_bound_mean_value_form():
    rng = np.random.default_rng(17)
    for _ in range(200):
        q = int(rng.integers(1, 9))
        xs = random_inputs(rng, q)
        val = dd.exp_dd_bound_batch([xs])[0] * math.factorial(q)
        lo, hi = np.exp(xs.real.min()), np.exp(xs.real.max())
        assert lo * (1 - 1e-10) <= val <= hi * (1 + 1e-10)


def test_bound_monotone_in_real_inputs():
    rng = np.random.default_rng(18)
    for _ in range(100):
        q = int(rng.integers(1, 7))
        xs = rng.uniform(-5, 5, q + 1)
        base = dd.exp_dd_bound_batch([xs])[0]
        j = int(rng.integers(0, q + 1))
        xs[j] += float(rng.uniform(0.01, 2.0))
        assert dd.exp_dd_bound_batch([xs])[0] >= base * (1 - 1e-12)


# --- bidiagonal oracle ------------------------------------------------------

def test_oracle_trivial_values():
    assert rel_err(oracle.exp_dd_oracle_bidiagonal([0.0]), 1.0) < 1e-15
    assert rel_err(oracle.exp_dd_oracle_bidiagonal([0.0, LN2]), 1.0 / LN2) < 1e-13


def test_oracle_size_cap():
    with pytest.raises(oracle.UnsupportedSizeError):
        oracle.exp_dd_oracle_bidiagonal(np.zeros(33))


# --- simplex quadrature -----------------------------------------------------

def test_quadrature_single_exponent():
    assert rel_err(oracle.hermite_genocchi_quadrature([1.0], 200), math.e - 1.0) < 1e-9
    assert rel_err(oracle.hermite_genocchi_quadrature([0.0], 50), 1.0) < 1e-12
    assert rel_err(oracle.hermite_genocchi_quadrature([1.0], 200),
                   dd.exp_dd([1.0, 0.0])) < 1e-9


def test_quadrature_second_order():
    lam = [0.3, -0.2j]
    x = [lam[0] + lam[1], lam[1], 0.0]
    val = oracle.hermite_genocchi_quadrature(lam, 2000)
    assert rel_err(val, dd.exp_dd(x)) < 1e-6


def test_quadrature_third_order():
    rng = np.random.default_rng(19)
    for _ in range(3):
        lam = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        xs = [lam[j:].sum() for j in range(3)] + [0.0]
        val = oracle.hermite_genocchi_quadrature(lam, 120)
        assert rel_err(val, dd.exp_dd(xs)) < 1e-6


def test_quadrature_guards():
    with pytest.raises(oracle.UnsupportedSizeError):
        oracle.hermite_genocchi_quadrature([1.0, 1.0, 1.0, 1.0], 100)
    with pytest.raises(ValueError):
        oracle.hermite_genocchi_quadrature([1.0], 5)
    with pytest.raises(ValueError):
        oracle.hermite_genocchi_quadrature([], 100)


# --- integral identities ----------------------------------------------------

def test_lemma_scaled_integral():
    # int_0^1 a^q e^{[a xs]} da = e^{[0, xs]}, midpoint rule on 1e4 points
    rng = np.random.default_rng(20)
    for _ in range(5):
        q = int(rng.integers(1, 5))
        xs = random_inputs(rng, q, scale=2.0, kind=0)
        n = 10_000
        a = (np.arange(n) + 0.5) / n
        rows = a[:, None] * xs[None, :]
        vals = a**q * dd.exp_dd_batch(rows)
        lhs = vals.sum() / n
        rhs = dd.exp_dd(np.concatenate([[0.0], xs]))
        assert rel_err(lhs, rhs) < 1e-6


def test_corollary_time_integral():
    # int_0^tau e^{t[xs]} dt = e^{tau[0, xs]}, composite Simpson in t
    rng = np.random.default_rng(21)
    for _ in range(5):
        q = int(rng.integers(1, 5))
        xs = random_inputs(rng, q, scale=2.0, kind=0)
        tau = float(rng.uniform(0.3, 1.5))
        n = 2000
        t = np.linspace(0.0, tau, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        vals = dd.exp_dd_steps(xs[None, :], t)[:, 0]
        lhs = np.sum(w * vals) * (tau / n) / 3.0
        rhs = dd.exp_dd_steps([np.concatenate([[0.0], xs])], [tau])[0, 0]
        assert rel_err(lhs, rhs) < 1e-6


# --- batch consistency ------------------------------------------------------

def test_batch_matches_scalar():
    rng = np.random.default_rng(22)
    rows = np.array([random_inputs(rng, 4) for _ in range(64)])
    batch = dd.exp_dd_batch(rows)
    for i in range(64):
        assert rel_err(batch[i], dd.exp_dd(rows[i])) < 1e-12


def test_batch_mixed_fallback_rows():
    rows = np.array([
        [0.1 + 0.2j, -0.3j, 0.0],
        [45.0, -45.0, 0.0],        # spread beyond cutoff -> fallback
        [1e5j, -1e5j, 0.0],
    ])
    batch = dd.exp_dd_batch(rows)
    for i in range(3):
        assert rel_err(batch[i], oracle.exp_dd_oracle_bidiagonal(rows[i])) < 1e-9


# --- wide rows: batched scaling and squaring -------------------------------

def mp_exp_dd(xs):
    """Reference: corner of a 50-digit mpmath expm of the bidiagonal matrix."""
    mpmath = pytest.importorskip("mpmath")
    m = len(xs)
    with mpmath.workdps(50):
        a = mpmath.matrix(m, m)
        for i, x in enumerate(xs):
            a[i, i] = mpmath.mpc(complex(x).real, complex(x).imag)
            if i + 1 < m:
                a[i, i + 1] = 1
        return complex(mpmath.expm(a)[0, m - 1])


def test_imaginary_rows_above_the_series_cutoff():
    # the Taylor series lost 8.3e-9 and 1.1e-7 on these (shifted
    # spreads 19.4 and 25.8)
    for xs in ([31j, -7.75j], [31j, 31j, -7.75j]):
        assert rel_err(dd.exp_dd(xs), mp_exp_dd(xs)) <= 1e-10, xs


def test_wide_row_with_repeats_at_large_frequency():
    xs = np.array([693147.18055995j, 1039720.07769274j, 693147.18055995j,
                   346572.89713279j, 0, 346572.89713279j, 0])
    assert rel_err(dd.exp_dd(xs), mp_exp_dd(xs)) <= 1e-9


def test_wide_rows_near_confluent_clusters():
    rng = np.random.default_rng(23)
    for gap in (1e-3, 1e-4, 1e-5, 1e-6):
        for q in (2, 4, 6, 8):
            centre = 1e5j * rng.uniform(-1, 1)
            cluster = centre + gap * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
            rest = 1e5j * rng.uniform(-1, 1, q - 2)
            xs = rng.permutation(np.concatenate([cluster, rest]))
            assert rel_err(dd.exp_dd(xs), mp_exp_dd(xs)) <= 1e-10, (gap, q, xs)


def test_wide_real_rows_for_the_bound():
    rng = np.random.default_rng(24)
    rows = [rng.uniform(-1, 1, q + 1) * spread
            for q in (1, 3, 5, 8) for spread in (35.0, 80.0, 200.0)]
    for xs in rows:
        xs[0], xs[1] = -abs(xs).max(), abs(xs).max()  # the full spread
        got = dd.exp_dd_bound_batch(np.asarray(xs, dtype=complex)[None, :])[0]
        assert rel_err(got, mp_exp_dd(xs).real) <= 1e-12


@pytest.mark.parametrize("q", [1, 5, 8])
def test_wide_batch_larger_than_a_chunk_matches_single_rows(q):
    rng = np.random.default_rng(25)
    n = dd.WIDE_CHUNK + 300
    spread = np.exp(rng.uniform(np.log(31.0), np.log(1e6), n))
    rows = 1j * spread[:, None] * rng.uniform(-1, 1, (n, q + 1))
    rows[:, 0], rows[:, 1] = 1j * spread, -1j * spread
    if q >= 3:
        rows[::4, 2] = rows[::4, 3]  # exact repeats
    rows[::3] += rng.uniform(-5, 5, (len(rows[::3]), q + 1))
    batch = dd.exp_dd_batch(rows)
    single = np.array([dd.exp_dd_batch(r[None, :])[0] for r in rows])
    assert np.array_equal(batch, single)


def test_wide_batch_of_mixed_orders_and_squaring_counts_matches_single_rows():
    # orders 1-8 in every chunk; radii from 31 to 3e9, so squaring counts 7
    # to 34 (past the band-level cap, where chunks are smaller); more than a
    # chunk of rows with squaring count 10; exact repeats; and rows of order
    # 1, whose corner is the exact superdiagonal
    rng = np.random.default_rng(26)
    n_one, n_wide = dd.WIDE_CHUNK + 100, 300
    radius = np.concatenate([rng.uniform(141.0, 230.0, n_one),  # 2^9 < r / 0.25 < 2^10
                             np.exp(rng.uniform(np.log(31.0), np.log(3e9), n_wide))])
    radius[n_one], radius[-1] = 31.0, 3e9
    q = rng.integers(1, 9, len(radius))
    q[rng.permutation(len(q))[:80]] = 1
    rows = 1j * radius[:, None] * rng.uniform(-0.5, 0.5, (len(q), 9))
    rows[:, 0], rows[np.arange(len(q)), q] = 1j * radius, -1j * radius
    rows[n_one::5] += rng.uniform(-0.4, 0.4, (len(rows[n_one::5]), 9))  # same shift 0
    repeat = q >= 3
    rows[repeat, 2] = rows[repeat, 1]
    spread = [np.abs(r[:k + 1] - r[:k + 1].mean()).max() for r, k in zip(rows, q)]
    assert min(spread) > dd.SERIES_SPREAD_CUTOFF
    s = np.ceil(np.log2(radius / 0.25))
    assert s.min() == 7 and s.max() == 34 and np.count_nonzero(s == 10) > dd.WIDE_CHUNK
    batch = dd.exp_dd_batch(rows, q)
    perm = rng.permutation(len(q))
    assert batch[perm].tobytes() == dd.exp_dd_batch(rows[perm], q[perm]).tobytes()
    one = np.flatnonzero(q == 1)
    assert batch[one].tobytes() == dd.exp_dd_batch(rows[one, :2]).tobytes()
    single = np.array([dd.exp_dd_batch(r[None, :k + 1])[0] for r, k in zip(rows, q)])
    assert batch.tobytes() == single.tobytes()


def frozen_wide_rows(workload, case_id):
    """The kernel's inputs dt * x of a frozen benchmark case, by step dt:
    the rows of every (path, z) entry of its segments at every step of its
    schedule, less the pairs within the series cutoff.  `SegmentPlan`
    evaluates the rows of the amplitude support among them."""
    h, schedule, _ = frozen_model(workload, case_id)
    calls = []

    def record(xs, dts):
        calls.append((xs, np.asarray(dts)))
        return np.zeros((len(dts), len(xs)), dtype=complex)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd, "exp_dd_steps", record)
        dense_coefficients(h, schedule)
    by_step = {}
    for xs, dts in calls:
        spread = np.abs(xs - xs.mean(axis=1, keepdims=True)).max(axis=1)
        for dt in dts:
            wide = spread * abs(dt) > dd.SERIES_SPREAD_CUTOFF
            by_step.setdefault(float(dt), []).extend(dt * xs[wide])
    return by_step


def test_wide_rows_of_the_frozen_workloads_against_mpmath():
    # 10 rows each from c4-n2 m4 at its two long steps (4.24 and 20.5) and
    # from the wide rows of osc-long a1e3 and a1e6 (frequencies 1e3 and 1e6).
    # Not every workload row is within 1e-13: 8 of the 504 of a1e6, whose
    # values are 1e-27 to 1e-33 of their real-part bound, reach 2.6e-13.
    m4 = frozen_wide_rows("c4-n2", "m4")
    groups = [m4[dt] for dt in sorted(m4)[-2:]]
    groups += [sum(frozen_wide_rows("osc-long", c).values(), []) for c in ("a1e3", "a1e6")]
    rng = np.random.default_rng(8)
    rows = [g[i] for g in groups for i in rng.choice(len(g), size=10, replace=False)]
    for xs in rows:
        got = dd.exp_dd_batch(xs[None, :])[0]
        assert rel_err(got, mp_exp_dd(xs)) <= 1e-13, xs


def test_oracle_does_not_use_the_batched_kernel(monkeypatch):
    xs = np.array([1e5j, -1e5j, 3.0, 0.0])
    expected = oracle.exp_dd_oracle_bidiagonal(xs)

    def broken(*args, **kwargs):
        raise RuntimeError("batched kernel called")

    monkeypatch.setattr(dd, "_wide_batch", broken)
    monkeypatch.setattr(dd, "exp_dd_batch", broken)
    with pytest.raises(RuntimeError):
        dd.exp_dd(xs)
    assert oracle.exp_dd_oracle_bidiagonal(xs) == expected
    assert rel_err(expected, mp_exp_dd(xs)) <= 1e-9


@st.composite
def wide_rows(draw):
    """Imaginary, complex or imaginary rows with exact repeats, whose
    mean-shifted spread is at least a drawn value in (12, 1e6], and a
    permutation.

    Real parts stay within +-5, the scale of decay rates.  With real parts
    of 50 against an imaginary spread of 2e3 the value can be 2e-11 of the
    real-part bound: on [974j, 50 - 974j, 0, ..., 0] neither this kernel
    (3.4e-9) nor scipy's expm (1.9e-9) is within 1e-9 of the reference.
    """
    q = draw(st.integers(1, 8))
    spread = draw(st.floats(12.0, 1e6, exclude_min=True))
    unit = st.floats(-1.0, 1.0)
    u = np.array([1.0, -1.0] + draw(st.lists(unit, min_size=q - 1, max_size=q - 1)))
    xs = 1j * spread * u  # u[0] - u[1] = 2, so the shifted spread is >= spread
    kind = draw(st.sampled_from(["imaginary", "complex", "repeats"]))
    if kind == "complex":
        xs = xs + 5.0 * np.array(draw(st.lists(unit, min_size=q + 1, max_size=q + 1)))
    elif kind == "repeats" and q >= 2:  # entries 0 and 1 keep the spread
        for j in draw(st.lists(st.integers(2, q), min_size=1, max_size=q)):
            xs[j] = xs[draw(st.integers(0, q))]
    perm = draw(st.permutations(range(q + 1)))
    return xs, np.array(perm)


@settings(max_examples=60, deadline=None)
@given(wide_rows())
def test_wide_rows_property(case):
    xs, perm = case
    ref = mp_exp_dd(xs)
    vals = dd.exp_dd_batch(np.array([xs, xs[perm]]))
    assert rel_err(vals[0], ref) <= 1e-9
    assert rel_err(vals[1], vals[0]) <= 1e-9


# --- many step lengths: one coefficient pass per row --------------------------

def steps_reference(xs, dts):
    """Per-step batches e^{dt [x]}, shape (len(dts), B), and the real-part
    bounds of the same values."""
    q = xs.shape[1] - 1
    ref = np.array([dt**q * dd.exp_dd_batch(dt * xs) for dt in map(float, dts)])
    bound = np.array([abs(dt)**q * dd.exp_dd_bound_batch(dt * xs) for dt in dts])
    return ref, bound


def mixed_rows(rng, n, q):
    """Rows of spreads from 0.01 to 40 with imaginary, complex and repeated
    entries, so that a set of steps puts each row in the series range at
    some steps and beyond it at others."""
    spread = np.exp(rng.uniform(np.log(0.01), np.log(40.0), n))
    rows = spread[:, None] * (1j * rng.uniform(-1, 1, (n, q + 1)))
    rows[::3] += rng.uniform(-0.5, 0.5, (len(rows[::3]), q + 1))
    rows[::4, 1] = rows[::4, 0]
    return rows


def test_steps_single_unit_step_is_the_batch():
    rows = mixed_rows(np.random.default_rng(26), 300, 5)
    assert np.array_equal(dd.exp_dd_steps(rows, [1.0])[0], dd.exp_dd_batch(rows))


def test_steps_match_per_step_batches():
    # every (step, row) pair, with zero and negative steps: within 1e-12 of
    # the real-part bound (per entry, both sides carry the series' error of
    # up to ~1e-10 at shifted spreads 9-12); pairs beyond the cutoff are the
    # same kernel values
    rng = np.random.default_rng(27)
    dts = np.array([0.3, 1.0, 0.0, -0.7, 2.5, 0.3, 6.0])
    for q in (1, 3, 6):
        rows = mixed_rows(rng, 200, q)
        got = dd.exp_dd_steps(rows, dts)
        ref, bound = steps_reference(rows, dts)
        assert got.shape == (len(dts), len(rows))
        assert (np.abs(got - ref) <= 1e-12 * bound).all()
        spread = np.abs(rows - rows.mean(axis=1, keepdims=True)).max(axis=1)
        wide = spread[None, :] * np.abs(dts)[:, None] > dd.SERIES_SPREAD_CUTOFF
        assert wide.any() and not wide.all()
        assert np.array_equal(got[wide], ref[wide])
        assert np.array_equal(got[2], np.zeros(len(rows)))


def test_steps_stack_wide_pairs_into_one_batch_call(monkeypatch):
    rows = mixed_rows(np.random.default_rng(28), 100, 4)
    dts = np.array([0.1, 0.5, 2.0, 4.0])
    spread = np.abs(rows - rows.mean(axis=1, keepdims=True)).max(axis=1)
    n_wide = np.count_nonzero(spread[None, :] * dts[:, None] > dd.SERIES_SPREAD_CUTOFF)
    calls = []
    real = dd.exp_dd_batch
    monkeypatch.setattr(dd, "exp_dd_batch", lambda xs, q=None: calls.append(len(xs)) or real(xs, q))
    dd.exp_dd_steps(rows, dts)
    assert calls == [n_wide] and n_wide > 0
    dd.exp_dd_steps(rows, dts[:1] * 1e-3)
    assert calls == [n_wide]


def test_steps_chunks_do_not_change_values(monkeypatch):
    # chunk boundaries that cut through rows of different step counts
    rows = mixed_rows(np.random.default_rng(29), 60, 3)
    dts = np.array([0.05, 0.4, 1.0, 3.0])
    whole = dd.exp_dd_steps(rows, dts)
    monkeypatch.setattr(dd, "SERIES_CHUNK", 7)
    chunked = dd.exp_dd_steps(rows, dts)
    _, bound = steps_reference(rows, dts)
    assert (np.abs(chunked - whole) <= 1e-15 * bound).all()


def test_steps_order_zero_and_input_checks():
    xs = np.array([[0.3 + 2.0j], [-1.0 + 0.0j]])
    dts = np.array([0.0, 0.5, -2.0])
    np.testing.assert_allclose(dd.exp_dd_steps(xs, dts), np.exp(np.outer(dts, xs[:, 0])),
                               rtol=1e-15)
    for bad in ([np.inf], [[0.5]], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            dd.exp_dd_steps(np.ones((2, 3)), bad)
    with pytest.raises(ValueError):
        dd.exp_dd_steps(np.array([[1.0, np.nan]]), [1.0])
    with pytest.raises(ValueError):
        dd.exp_dd_steps(np.ones(3), [1.0])


@st.composite
def mixed_order_calls(draw):
    """Rows of orders 0-8, one order drawn to have none, each order's rows
    as from mixed_rows, and 1-8 steps of either sign up to 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    empty = draw(st.integers(0, 8))
    by_order = {}
    for q in range(9):
        if q != empty:
            n = draw(st.integers(1, 12))
            by_order[q] = (mixed_rows(rng, n, q) if q else
                           rng.uniform(-3, 3, (n, 1)) + 1j * rng.uniform(-40, 40, (n, 1)))
    dts = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8)))
    return by_order, dts


@seed(20261019)
@settings(max_examples=25, deadline=None)
@given(mixed_order_calls(), st.data())
def test_steps_mixed_orders_property(case, data):
    # one call with the rows of every order, in a shuffled row order and
    # padded with junk: the wide pairs are bitwise each order's own call,
    # the series pairs within 1e-12 of the real-part bound; a wide pair's
    # value does not move when rows are dropped from the call
    by_order, dts = case
    counts = [len(rows) for rows in by_order.values()]
    order_of = np.repeat(list(by_order), counts)
    place = np.random.default_rng(len(order_of)).permutation(len(order_of))  # row i at place[i]
    xs = np.random.default_rng(1).uniform(-1e3, 1e3, (len(order_of), 9)) + 0j
    q = np.empty_like(order_of)
    q[place] = order_of
    for at, row in zip(place, (row for rows in by_order.values() for row in rows)):
        xs[at, :len(row)] = row
    got = dd.exp_dd_steps(xs, dts, q)
    assert got.shape == (len(dts), len(q))
    wide_all = np.zeros(got.shape, dtype=bool)
    for (k, rows), at in zip(by_order.items(), np.split(place, np.cumsum(counts)[:-1])):
        own = dd.exp_dd_steps(rows, dts)
        spread = np.abs(rows - rows.mean(axis=1, keepdims=True)).max(axis=1)
        wide = spread[None, :] * np.abs(dts)[:, None] > dd.SERIES_SPREAD_CUTOFF
        _, bound = steps_reference(rows, dts)
        assert np.array_equal(got[:, at][wide], own[wide]), k
        assert (np.abs(got[:, at] - own) <= 1e-12 * bound).all(), k
        wide_all[:, at] = wide
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(q), max_size=len(q))))
    fewer = dd.exp_dd_steps(xs[keep], dts, q[keep])
    assert np.array_equal(fewer[wide_all[:, keep]], got[:, keep][wide_all[:, keep]])


def test_steps_rejects_bad_orders():
    xs = np.ones((3, 4), dtype=complex)
    for q in ([0, 1], [0, 1, 4], [0, -1, 2], [0.0, 1.0, 2.0], [[0, 1, 2]]):
        with pytest.raises(ValueError, match="orders"):
            dd.exp_dd_steps(xs, [1.0], np.array(q))


@st.composite
def row_and_steps(draw):
    """An imaginary, complex or repeated row of spread rho, and 2-8 step
    lengths with rho * dt <= 9."""
    q = draw(st.integers(1, 8))
    unit = st.floats(-1.0, 1.0)
    xs = 1j * np.array(draw(st.lists(unit, min_size=q + 1, max_size=q + 1)))
    kind = draw(st.sampled_from(["imaginary", "complex", "repeats"]))
    if kind == "complex":
        xs = xs + 0.5 * np.array(draw(st.lists(unit, min_size=q + 1, max_size=q + 1)))
    elif kind == "repeats":
        for j in draw(st.lists(st.integers(1, q), min_size=1, max_size=q)):
            xs[j] = xs[draw(st.integers(0, q))]
    rho = np.abs(xs - xs.mean()).max()
    reach = draw(st.lists(st.floats(0.0, 9.0, exclude_min=True), min_size=2, max_size=8))
    dts = np.array(reach) / max(rho, 1e-3)
    return xs, dts


def mp_exp_dd_at(dt, xs):
    """Reference e^{dt [x_0,...,x_q]}, with the inputs dt * x_j formed at 50
    digits rather than rounded to doubles first."""
    mpmath = pytest.importorskip("mpmath")
    m = len(xs)
    with mpmath.workdps(50):
        a = mpmath.matrix(m, m)
        for i, x in enumerate(xs):
            a[i, i] = mpmath.mpf(dt) * mpmath.mpc(complex(x).real, complex(x).imag)
            if i + 1 < m:
                a[i, i + 1] = 1
        return complex(mpmath.mpf(dt) ** (m - 1) * mpmath.expm(a)[0, m - 1])


@settings(max_examples=40, deadline=None)
@given(row_and_steps())
def test_steps_property_against_mpmath(case):
    xs, dts = case
    got = dd.exp_dd_steps(xs[None, :], dts)[:, 0]
    for dt, value in zip(dts, got):
        assert rel_err(value, mp_exp_dd_at(dt, xs)) <= 1e-10, (xs, dt)


def mp_pair_at(dt, xs):
    """Reference e^{dt [x_0, x_1]} of a pair with x_0 != x_1, as the 50-digit
    difference quotient (far faster than mp_exp_dd_at's expm)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, b = (mpmath.mpf(dt) * mpmath.mpc(x.real, x.imag) for x in map(complex, xs))
        return complex(mpmath.mpf(dt) * (mpmath.exp(b) - mpmath.exp(a)) / (b - a))


def test_series_band_rows_against_mpmath():
    # rows in the series band, shifted spread times step 9-12, where the
    # series sums terms up to e^12 / q! to far smaller values, at 2-8 steps
    # each: imaginary, complex and repeated rows of orders 2-8, and imaginary
    # q = 1 rows at steps near 3 pi / spread, a zero of their value, where the
    # value is 1e-4 to 5e-4 of its bound
    rng = np.random.default_rng(20261020)
    for k in range(18):
        q = 1 if k % 6 else int(rng.integers(2, 9))
        xs = 1j * rng.uniform(-1.0, 1.0, q + 1)
        if k == 6:
            xs += 0.5 * rng.uniform(-1.0, 1.0, q + 1)
        elif k == 12:
            xs[rng.integers(1, q + 1, q)] = xs[rng.integers(0, q + 1, q)]
        rho = np.abs(xs - xs.mean()).max()
        n = int(rng.integers(2, 9))
        if q == 1:
            reach = 3 * np.pi + rng.choice([-1.0, 1.0], n) * rng.uniform(1e-3, 5e-3, n)
        else:
            reach = rng.uniform(9.0, 12.0, n)
        dts = reach / max(rho, 1e-3)
        got = dd.exp_dd_steps(xs[None, :], dts)[:, 0]
        for dt, value in zip(dts, got):
            ref = mp_pair_at(dt, xs) if q == 1 else mp_exp_dd_at(dt, xs)
            assert rel_err(value, ref) <= 1e-10, (xs, dt)
