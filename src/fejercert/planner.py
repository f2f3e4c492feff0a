"""Depth and shot certification: ratio parameter, regimes, sufficient depth,
certification curves, normalization policy, and order-reduction tradeoffs.

Everything here is closed-form arithmetic in the single control parameter

    x = (p+1)^2 sin^2(delta/2) C_beta,

which governs the ratio-form success bound x/(1+x) and the shot budget
(1 + 1/x) ln(1/epsilon).  ``ratio_bounds`` is the one implementation of the
success bound, for every command and for the depth formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .fejer import _check_order


class Regime(Enum):
    R1 = "R1"  # small product, x << 1
    R2 = "R2"  # threshold band around x = 1
    R3 = "R3"  # large product, x >> 1


class RatioBounds(NamedTuple):
    tight: float
    simple: float


class OrderReduction(NamedTuple):
    x_reduced: float
    shots: float
    epsilon: float


@dataclass(frozen=True)
class RegimeReport:
    regime: Regime
    eta: float
    # Guarantee q0 >= (1-eta)/(2-eta), only meaningful inside the band.
    threshold_guarantee: float | None = None


@dataclass(frozen=True)
class Certificate:
    """Report bundle for one (p, C_beta, delta) certification."""

    p: int
    c_beta: float
    delta: float
    x: float
    q0_bound: float
    shots: float
    regime: Regime
    epsilon: float
    q0_simple: float = 0.0
    eta: float = 0.5
    depth_for_target: int | None = None
    q0_exact: float | None = None


def ratio_parameter(p: int, delta: float, c_beta: float) -> float:
    """x = (p+1)^2 sin^2(delta/2) C_beta."""
    _check_order(p)
    if not 0.0 <= c_beta <= 1.0:
        raise ValueError("envelope mass must lie in [0, 1]")
    if not 0.0 <= delta <= math.pi:
        raise ValueError("delta must lie in [0, pi]")
    return (p + 1) ** 2 * math.sin(delta / 2.0) ** 2 * c_beta


def ratio_bounds(x: float, c_beta: float) -> RatioBounds:
    """Ratio forms of the success bound: tight = x/((1-C)+x), simple = x/(1+x)."""
    if x < 0:
        raise ValueError("ratio parameter must be nonnegative")
    if not 0.0 <= c_beta <= 1.0:
        raise ValueError("envelope mass must lie in [0, 1]")
    if x == 0.0:
        return RatioBounds(0.0, 0.0)
    return RatioBounds(x / ((1.0 - c_beta) + x), x / (1.0 + x))


def shot_budget(x: float, epsilon: float) -> float:
    """Shots sufficient for failure probability epsilon: (1 + 1/x) ln(1/eps).

    Returns inf when x = 0 (the bound is vacuous there).
    """
    _check_epsilon(epsilon)
    if x < 0:
        raise ValueError("ratio parameter must be nonnegative")
    if x == 0.0:
        return math.inf
    return (1.0 + 1.0 / x) * math.log(1.0 / epsilon)


def classify_regime(x: float, eta: float = 0.5) -> RegimeReport:
    """R1 below the threshold band [1-eta, 1+eta], R2 inside it, R3 above."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if x < 0:
        raise ValueError("ratio parameter must be nonnegative")
    if x < 1.0 - eta:
        return RegimeReport(Regime.R1, eta)
    if x > 1.0 + eta:
        return RegimeReport(Regime.R3, eta)
    return RegimeReport(Regime.R2, eta, threshold_guarantee=(1.0 - eta) / (2.0 - eta))


def depth_for_target(epsilon: float, c_beta: float, delta: float) -> int:
    """Smallest certified order peaking at the optimum with failure <= epsilon:

        p = max(0, ceil(sqrt((1-eps)/eps * (1-C)/C) * csc(delta/2)) - 1),

    with the postcondition that the certificate's bound
    ratio_bounds(ratio_parameter(p, delta, C), C).tight is at least 1 - eps,
    enforced against floating-point boundary jitter.
    """
    _check_epsilon(epsilon)
    if not 0.0 < c_beta <= 1.0:
        raise ValueError("envelope mass must lie in (0, 1]")
    if not 0.0 < delta <= math.pi:
        raise ValueError("delta must lie in (0, pi]")
    radicand = (1.0 - epsilon) / epsilon * (1.0 - c_beta) / c_beta
    half_sin = math.sin(delta / 2.0)
    # positive conditions, so that NaN fails them: with sin^2(delta/2)
    # underflowed x is 0 at every order, and above 2**53 an order is not exact
    if not (half_sin**2 > 0.0 and (value := math.sqrt(radicand) / half_sin) <= 2**53):
        raise ValueError(f"depth for target overflows: no order up to 2**53 meets it "
                         f"at C_beta={c_beta!r}, delta={delta!r}")
    # The 1e-9 slack keeps exact integer boundaries from rounding one order
    # up; the bump loop then restores the postcondition if the slack ever
    # undershot, with 1e-12 headroom so boundary rounding noise cannot push
    # past the minimal order.
    p = max(0, math.ceil(value - 1e-9) - 1)
    while ratio_bounds(ratio_parameter(p, delta, c_beta), c_beta).tight < 1.0 - epsilon - 1e-12:
        p += 1
    return p


def cmin_curve(delta_grid: Sequence[float], epsilon: float, p: int) -> np.ndarray:
    """Envelope-mass threshold C_min(delta) = 1/(1 + eps/(1-eps) (p+1)^2 sin^2(delta/2))
    above which order p certifies success >= 1 - epsilon."""
    _check_epsilon(epsilon)
    _check_order(p)
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ValueError("delta grid must be nonempty")
    if np.any(deltas <= 0) or np.any(deltas > math.pi):
        raise ValueError("delta grid must lie in (0, pi]")
    scale = epsilon / (1.0 - epsilon) * (p + 1) ** 2
    return 1.0 / (1.0 + scale * np.sin(deltas / 2.0) ** 2)


def gamma_safe(p: int, r_op: float) -> float:
    """Anti-aliasing base angle pi/(p * R_op); the p = 0 case is a
    single application, pi/R_op."""
    if r_op <= 0:
        raise ValueError("operator range proxy must be positive")
    _check_order(p)
    if p == 0:
        return math.pi / r_op
    return math.pi / (p * r_op)


def main_lobe_constant(c: float) -> float:
    """kappa_c = (sin(c/2)/(c/2))^2: for |offset| <= c/(p+1) the kernel
    retains at least kappa_c * (p+1)."""
    if not 0.0 < c <= math.pi:
        raise ValueError("c must lie in (0, pi]")
    half = c / 2.0
    return (math.sin(half) / half) ** 2


def order_reduction(
    x0: float, p: int, p_prime: int, c_prime: float, epsilon: float
) -> OrderReduction:
    """Conservative ratio parameter and shot budget after reducing the filter
    order from p to p_prime, assuming the coarser schedule preserves a
    fraction c_prime of the original x."""
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    if not 1 <= p_prime <= p:
        raise ValueError("require 1 <= p_prime <= p")
    if not 0.0 < c_prime <= 1.0:
        raise ValueError("c_prime must lie in (0, 1]")
    _check_epsilon(epsilon)
    x_reduced = c_prime * x0 * ((p_prime + 1) / (p + 1)) ** 2
    return OrderReduction(x_reduced, shot_budget(x_reduced, epsilon), epsilon)


def lipschitz_envelope_bound(p_prime: int, h_m_norm: float) -> float:
    """Lipschitz constant 2 * p' * ||H_M|| of the envelope in the mixer
    angles (sup norm over the schedule)."""
    _check_order(p_prime)
    if h_m_norm <= 0:
        raise ValueError("mixer norm must be positive")
    return 2.0 * p_prime * h_m_norm


def build_certificate(
    p: int,
    c_beta: float,
    delta: float,
    epsilon: float,
    eta: float = 0.5,
    q0_exact: float | None = None,
) -> Certificate:
    """Assemble the full report bundle for given (p, C_beta, delta).

    A collided phase model (delta = 0) yields a vacuous certificate: x = 0,
    zero bounds, infinite shots, and no target depth.
    """
    x = ratio_parameter(p, delta, c_beta)
    bounds = ratio_bounds(x, c_beta)
    regime = classify_regime(x, eta)
    certifiable = delta > 0.0 and c_beta > 0.0
    return Certificate(
        p=p,
        c_beta=c_beta,
        delta=delta,
        x=x,
        q0_bound=bounds.tight,
        q0_simple=bounds.simple,
        shots=shot_budget(x, epsilon),
        regime=regime.regime,
        epsilon=epsilon,
        eta=eta,
        depth_for_target=depth_for_target(epsilon, c_beta, delta) if certifiable else None,
        q0_exact=q0_exact,
    )


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")

