"""Tests for adaptive time partitioning and truncation-order selection."""
import math

import numpy as np
import pytest

from permlcu import pham, sched
from permlcu.models import (decay_spec, growth_spec, oscillating_hamiltonian,
                            oscillating_spec, static_spec)

LN2 = math.log(2.0)


def bisect_step(gamma, lam, lo=0.0, hi=100.0):
    """Independent oracle: solve gamma*(e^{lam*dt}-1)/lam = ln2 by bisection."""
    def f(dt):
        w = dt if lam == 0 else math.expm1(lam * dt) / lam
        return gamma * w - LN2
    assert f(hi) > 0
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


# --- next_step ----------------------------------------------------------------

def test_next_step_lambda_zero_exact():
    assert sched.next_step(1.0, 0.0) == LN2
    assert sched.next_step(2.0, 0.0) == LN2 / 2.0


def test_next_step_positive_lambda():
    val = sched.next_step(1.0, 1.0)
    assert val == pytest.approx(math.log(1.0 + LN2), rel=1e-14)
    assert val == pytest.approx(bisect_step(1.0, 1.0), rel=1e-12)


def test_next_step_matches_bisection_oracle():
    rng = np.random.default_rng(30)
    for _ in range(50):
        gamma = float(rng.uniform(0.1, 5.0))
        lam = float(rng.uniform(-0.5, 2.0))
        if 1.0 + lam * LN2 / gamma <= 0:
            continue
        assert sched.next_step(gamma, lam) == pytest.approx(
            bisect_step(gamma, lam), rel=1e-11)


def test_next_step_tiny_lambda_series_limit():
    gamma = 1.3
    for lam in (1e-12, -1e-12):
        got = sched.next_step(gamma, lam)
        expect = LN2 / gamma * (1.0 - lam * LN2 / (2.0 * gamma))
        assert got == expect


def test_next_step_negative_argument_signals_infinity():
    # 1 + lam*ln2/gamma = 1 - 2 ln2 < 0
    assert math.isinf(sched.next_step(0.5, -1.0))


def test_next_step_vanished_interaction():
    assert math.isinf(sched.next_step(0.0, 1.0))
    assert math.isinf(sched.next_step(-0.3, 0.0))


# --- build_schedule -----------------------------------------------------------

def test_schedule_constant_gamma_step_count():
    h = oscillating_hamiltonian(1.0, 1.0, 5.0)   # Gamma(t) = 2
    t_total = 5.0
    s = sched.build_schedule(h, t_total, eps=1e-3)
    assert s.r == math.ceil(2.0 * t_total / LN2)
    for (t, dt), g in zip(s.steps[:-1], s.gammas[:-1]):
        assert dt == LN2 / 2.0
        assert g == 2.0
    assert s.final_step_clamped
    t_last, dt_last = s.steps[-1]
    assert t_last + dt_last == t_total


def test_schedule_decay_saturates():
    # lambda < 0: the argument of the log goes negative after finitely many steps
    rs = []
    for t_total in (10.0, 100.0, 1000.0):
        h = pham.from_pauli_spec(decay_spec(1.0, 1.0, 1.0))
        s = sched.build_schedule(h, t_total, eps=1e-3)
        rs.append(s.r)
        assert s.final_step_clamped
    assert rs[0] == rs[1] == rs[2]
    # explicit-loop oracle for the saturated count
    t, count = 0.0, 0
    while True:
        g = math.exp(-t)
        arg = 1.0 - LN2 / g
        if arg <= 0:
            break
        t += -math.log1p(-LN2 / g)
        count += 1
        if t > 10.0:
            break
    assert rs[0] == count + 1  # non-final steps plus the clamped tail


def test_schedule_decay_prefix_identical_across_horizons():
    h = pham.from_pauli_spec(decay_spec(1.0, 1.0, 1.0))
    s1 = sched.build_schedule(h, 10.0, eps=1e-3)
    s2 = sched.build_schedule(h, 100.0, eps=1e-3)
    assert s1.r == s2.r
    assert s1.steps[:-1] == s2.steps[:-1]
    assert s1.steps[-1][0] == s2.steps[-1][0]
    assert s1.steps[-1][1] != s2.steps[-1][1]


def test_schedule_single_clamped_step():
    h = oscillating_hamiltonian(1.0, 1.0, 0.0)   # first step would be ln2/2
    s = sched.build_schedule(h, 0.05, eps=1e-3)
    assert s.r == 1
    assert s.final_step_clamped
    assert s.steps[0] == (0.0, 0.05)


def test_schedule_positive_lambda_approaches_ln2_from_below():
    h = pham.from_pauli_spec(growth_spec(1.0, 1.0, 1.0))
    s = sched.build_schedule(h, 4.0, eps=1e-3)
    prods = [g * dt for (t, dt), g in zip(s.steps[:-1], s.gammas[:-1])]
    assert all(p < LN2 for p in prods)
    assert all(b > a for a, b in zip(prods, prods[1:]))
    assert prods[-1] == pytest.approx(LN2, rel=0.05)


def test_schedule_nonfinal_condition_exact():
    for spec in (decay_spec(1.0, 2.0, 0.5), growth_spec(0.5, 1.5, 0.8)):
        h = pham.from_pauli_spec(spec)
        s = sched.build_schedule(h, 3.0, eps=1e-3)
        for w in range(s.r - 1):
            assert s.gammas[w] * s.dt_tilde(w) == pytest.approx(LN2, rel=1e-12)


def test_schedule_partition_is_contiguous():
    h = pham.from_pauli_spec(decay_spec(1.0, 2.0, 0.7))
    s = sched.build_schedule(h, 6.0, eps=1e-3)
    for w in range(s.r - 1):
        t, dt = s.steps[w]
        assert s.steps[w + 1][0] == t + dt
        assert dt > 0
    t_last, dt_last = s.steps[-1]
    assert t_last + dt_last == 6.0


def test_schedule_frequency_independent():
    base = None
    for alpha in (0.0, 1.0, 1e3, 1e6):
        h = oscillating_hamiltonian(1.0, 1.0, alpha)
        s = sched.build_schedule(h, 3.0, eps=1e-3)
        key = (s.steps, s.gammas, s.r, s.lam, s.Q, s.final_step_clamped)
        if base is None:
            base = key
        assert key == base


def test_schedule_vanished_interaction_single_step():
    h = pham.from_pauli_spec({"n": 1, "h0": [{"coupling": 1.0, "z_mask": "1"}]})
    s = sched.build_schedule(h, 2.0, eps=1e-3)
    assert s.r == 1 and s.final_step_clamped and s.steps[0] == (0.0, 2.0)


# --- l1-like norm ---------------------------------------------------------------

def test_l1_constant_gamma_unclamped():
    h = oscillating_hamiltonian(1.0, 1.0, 2.0)
    dt0 = sched.next_step(2.0, 0.0)
    t_total = ((dt0 + dt0) + dt0) + dt0   # exactly 4 representable steps
    s = sched.build_schedule(h, t_total, eps=1e-3)
    assert s.r == 4 and not s.final_step_clamped
    assert s.l1_like == pytest.approx(4 * LN2, rel=1e-12)


def test_l1_single_clamped_step_is_gamma_t():
    h = oscillating_hamiltonian(1.0, 1.0, 0.0)
    s = sched.build_schedule(h, 0.1, eps=1e-3)
    assert s.l1_like == pytest.approx(2.0 * 0.1, rel=1e-12)


def test_l1_decay_approaches_integral():
    h = pham.from_pauli_spec(decay_spec(1.0, 1.0, 1.0))
    s = sched.build_schedule(h, 1000.0, eps=1e-3)
    # closed form: integral of e^{-t} over [0, 1000] is 1 - e^{-1000}
    assert s.l1_like == pytest.approx(1.0, rel=0.25)


def test_l1_bounds_step_count():
    h = pham.from_pauli_spec(growth_spec(1.0, 1.0, 0.6))
    s = sched.build_schedule(h, 3.0, eps=1e-3)
    assert s.r <= s.l1_like / LN2 + 1


# --- truncation order -----------------------------------------------------------

def test_truncation_order_examples():
    assert sched.truncation_order(1, 0.5) == 1   # 2 - (1 + ln2) = 0.3069 <= 0.5
    assert sched.truncation_order(1, 2.0) == 0   # 2 - 1 = 1 <= 2


def test_truncation_order_tail_bracket():
    q = sched.truncation_order(100, 1e-3)
    assert sched.s_tail(q) <= 1e-5
    assert sched.s_tail(q - 1) > 1e-5


def test_truncation_order_vs_lambert_grid():
    for r in (1, 3, 10, 100, 1000):
        for eps in (0.3, 1e-2, 1e-4, 1e-8):
            q = sched.truncation_order(r, eps)
            upper = sched.truncation_order_lambert(r, eps)
            assert q <= upper
            assert sched.s_tail(q) <= eps / r


def test_truncation_order_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sched.truncation_order(0, 0.1)
    with pytest.raises(ValueError):
        sched.truncation_order(2, 0.0)


def test_build_schedule_rejects_bad_time():
    h = pham.from_pauli_spec(static_spec())
    with pytest.raises(ValueError):
        sched.build_schedule(h, 0.0, eps=1e-3)
    with pytest.raises(ValueError):
        sched.build_schedule(h, -1.0, eps=1e-3)


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0])
def test_build_schedule_rejects_bad_eps(eps):
    # checked before the order search, whose Lambert-W cross-check would
    # otherwise fail on log(0) at eps = inf
    h = pham.from_pauli_spec(static_spec())
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        sched.build_schedule(h, 1.0, eps=eps)


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0])
def test_build_schedule_checks_eps_before_the_first_step(monkeypatch, eps):
    # the rate-700 model of the step-cap test below: a bad eps is named at
    # once, not after MAX_STEPS steps end in the step cap
    h = pham.from_pauli_spec({"n": 1, "h0": [], "v": [
        {"pauli": "X", "coeff": [{"amp": [0.5, 0.0], "rate": [700.0, 0.0]}]}]})

    def no_step(*args):
        raise AssertionError("the step loop was entered")

    monkeypatch.setattr(sched, "next_step", no_step)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        sched.build_schedule(h, 2.0, eps=eps)


def test_build_schedule_rejects_unknown_mode(monkeypatch):
    # before any step, and after the checks of T and eps
    h = pham.from_pauli_spec(static_spec())

    def no_step(*args):
        raise AssertionError("the step loop was entered")

    monkeypatch.setattr(sched, "next_step", no_step)
    with pytest.raises(ValueError, match="unknown mode"):
        sched.build_schedule(h, 1.0, eps=1e-3, mode="bogus")
    with pytest.raises(ValueError, match="total time"):
        sched.build_schedule(h, -1.0, eps=1e-3, mode="bogus")
    with pytest.raises(ValueError, match="eps must be"):
        sched.build_schedule(h, 1.0, eps=0.0, mode="bogus")


def test_build_schedule_stops_at_the_step_cap():
    # each step raises Gamma by only lam * ln2, so T = 2 needs ~e^1400 steps
    h = pham.from_pauli_spec({"n": 1, "h0": [], "v": [
        {"pauli": "X", "coeff": [{"amp": [0.5, 0.0], "rate": [700.0, 0.0]}]}]})
    with pytest.raises(sched.ScheduleTooLongError) as err:
        sched.build_schedule(h, 2.0, eps=1e-3)
    msg = str(err.value)
    assert "T = 2.0" in msg and f"took {sched.MAX_STEPS} steps" in msg
    t_reached = float(msg.split("reached only t = ")[1].split(";")[0])
    assert 0.0 < t_reached < 0.1
