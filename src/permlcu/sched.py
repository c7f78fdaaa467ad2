"""Adaptive time partitioning of [0, T] and truncation-order selection.

Each non-final step solves Gamma(t_w) * (e^{lam*dt} - 1)/lam = ln 2, with
Gamma the mode's `pham.gamma_bound_fn`, which keeps the normalization of
each segment's Dyson terms near 2.  The closed form is dt = ln(1 +
lam*ln2/Gamma(t_w))/lam; three regimes follow from the sign of lam
(constant steps, saturating step count, shrinking steps).  When the
proposed step overshoots T, vanishes, or the logarithm argument turns
negative, the final step is clamped to T - t_w.  Every schedule carries the
truncation order Q, the smallest with |s - 2| <= eps/r for its eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import lambertw

from . import pham
from .pham import MODE_EXACT, MODE_UNIFORM  # the modes of build_schedule

LN2 = math.log(2.0)

# Steps a schedule may take.  A growing interaction shrinks the steps so fast
# that T may never be reached (rate 700: about e^1400 steps to T = 2); the
# rule takes about 7 us per step on a 2-vCPU Xeon, so the cap is reached in
# under a second.
MAX_STEPS = 100_000


class ScheduleTooLongError(ValueError):
    """The step rule needs more than MAX_STEPS steps to reach T."""


@dataclass(frozen=True)
class Schedule:
    """Ordered partition of [0, T] with per-step left-endpoint norm bounds."""
    steps: tuple[tuple[float, float], ...]   # (t_w, dt_w)
    gammas: tuple[float, ...]                # Gamma(t_w) used to set each step
    r: int
    lam: float
    final_step_clamped: bool
    l1_like: float                           # sum_w Gamma(t_w) dt_tilde_w, ln 2 per unclamped step
    mode: str
    Q: int                                   # truncation order for |s - 2| <= eps/r

    def dt_tilde(self, w: int) -> float:
        """Effective step weight (e^{lam*dt_w} - 1)/lam (dt_w in the lam->0 limit)."""
        return _dt_tilde(self.steps[w][1], self.lam)

    def s(self, w: int) -> float:
        """Dyson-term normalization sum_{q<=Q} (Gamma(t_w) dt_tilde_w)^q / q! of
        segment w, near 2 for every unclamped step; the LCU pads it to 2."""
        u = self.gammas[w] * self.dt_tilde(w)
        return sum(u**q / math.factorial(q) for q in range(self.Q + 1))

    @property
    def gamma_tilde_final(self) -> float | None:
        """Replacement bound ln2/dt_tilde implied by a clamped final step.

        Reported for diagnostics only; it never feeds back into Q or the
        partition itself.
        """
        if not self.final_step_clamped:
            return None
        return LN2 / self.dt_tilde(self.r - 1)


def _dt_tilde(dt: float, lam: float) -> float:
    if lam == 0.0:
        return dt
    return math.expm1(lam * dt) / lam


def next_step(gamma_tw: float, lam: float) -> float:
    """Step length solving Gamma(t_w)*(e^{lam*dt}-1)/lam = ln 2.

    Returns math.inf when no finite step exists: the interaction vanished
    (Gamma <= 0), or the logarithm argument 1 + lam*ln2/Gamma is non-positive
    (decaying interaction that can never accumulate ln 2).
    """
    if gamma_tw <= 0.0:
        return math.inf
    u = lam * LN2 / gamma_tw
    if abs(u) < 1e-9:
        return LN2 / gamma_tw * (1.0 - u / 2.0)
    if 1.0 + u <= 0.0:
        return math.inf
    return math.log1p(u) / lam


def build_schedule(h: pham.PermExpHamiltonian, t_total: float,
                   eps: float, mode: str = MODE_EXACT) -> Schedule:
    """Partition [0, T] by iterating the step rule from t=0, and attach the
    truncation order Q for |s - 2| <= eps/r.

    The final step is clamped to T - t_w whenever the rule overshoots T or
    finds no finite step.  The steps do not depend on eps, which is checked
    before the first step.
    """
    if not (t_total > 0.0 and math.isfinite(t_total)):
        raise ValueError("total time must be positive and finite")
    _check_eps(eps)
    gamma = pham.gamma_bound_fn(h, mode)
    lam = pham.lambda_max(h)
    steps: list[tuple[float, float]] = []
    gammas: list[float] = []
    clamped = False
    t = 0.0
    while t < t_total:
        if len(steps) == MAX_STEPS:
            raise ScheduleTooLongError(
                f"the schedule to T = {t_total!r} took {len(steps)} steps and reached only "
                f"t = {t!r}; the interaction grows too fast to partition")
        g = gamma(t)
        dt = next_step(g, lam)
        if not math.isfinite(dt) or t + dt > t_total:
            steps.append((t, t_total - t))
            gammas.append(g)
            clamped = True
            break
        steps.append((t, dt))
        gammas.append(g)
        t += dt

    r = len(steps)
    l1 = sum(g * _dt_tilde(dt, lam) for (_, dt), g in zip(steps, gammas))
    return Schedule(steps=tuple(steps), gammas=tuple(gammas), r=r, lam=lam,
                    final_step_clamped=clamped, l1_like=l1, mode=mode,
                    Q=truncation_order(r, eps))


def _check_eps(eps: float) -> None:
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, not {eps!r}")


def s_tail(q_order: int) -> float:
    """Residual 2 - sum_{q<=Q} (ln2)^q / q! of the truncated expansion of 2."""
    partial = 0.0
    term = 1.0
    for q in range(q_order + 1):
        partial += term
        term *= LN2 / (q + 1)
    return 2.0 - partial


def truncation_order_lambert(r: int, eps: float) -> int | None:
    """Closed-form sufficient order ceil(ln(2r/eps)/W(ln(2r/eps)/(e ln2)) - 1)."""
    arg = math.log(2.0 * r / eps)
    if arg <= 0.0:
        return None
    w = float(lambertw(arg / (math.e * LN2)).real)
    return math.ceil(arg / w - 1.0)


def truncation_order(r: int, eps: float) -> int:
    """Smallest Q with 2 - sum_{q<=Q} (ln2)^q/q! <= eps/r.

    The Lambert-W closed form is evaluated as a cross-check upper bound.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError("r must be a positive integer")
    _check_eps(eps)
    target = eps / r
    q_order = 0
    while s_tail(q_order) > target:
        q_order += 1
        if q_order > 200:
            raise ValueError(f"eps/r = {target} below achievable truncation residual")
    upper = truncation_order_lambert(r, eps)
    if upper is not None and q_order > upper:
        raise AssertionError(
            f"searched order {q_order} exceeds closed-form bound {upper} (r={r}, eps={eps})")
    return q_order
