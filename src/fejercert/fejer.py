"""Fejér kernel evaluation, the filtered measurement law, and success bounds.

The order-p kernel

    F_p(theta) = (1/(p+1)) * (sin((p+1)theta/2) / sin(theta/2))^2

is the squared, normalized Dirichlet sum: nonnegative, 2pi-periodic, peak
value p+1 at theta = 0, unit mean over a period, and first zero at
2pi/(p+1).  Reweighting an envelope by F_p evaluated at wrapped phase
offsets concentrates probability on the target phase; the off-peak tail
bound 1/((p+1) sin^2(delta/2)) turns a phase gap delta into the
dimension-free success guarantee implemented here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .instance import TWO_PI, PhaseModel, wrap_angle
from .mixer import Envelope, _subset_indices

# Below this |sin(theta/2)| the ratio form is catastrophically cancelled and
# the sinc form on the offset reduced mod 2pi is used instead (exactly p+1 at
# the removable singularity).
_SINGULARITY_GUARD = 1e-6


def fejer_kernel(p: int, theta):
    """Evaluate F_p pointwise on a scalar or an array of any shape, which
    the result keeps.

    Near zeros of sin(theta/2), F_p = (p+1) (sinc((p+1)r/2) / sinc(r/2))^2
    on r = theta reduced mod 2pi, which is exactly p+1 at theta = 0 (mod
    2pi).  Every (p+1) * theta must be finite.
    """
    _check_order(p)
    arr = np.asarray(theta, dtype=float)
    # a positive condition, so that a NaN argument fails it
    if not float(np.abs(arr).max(initial=0.0)) * (p + 1) < math.inf:
        raise ValueError(f"Fejér kernel argument (p+1)*theta is not finite at order {p}")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    half_sin = np.sin(arr / 2.0)
    out = np.empty_like(arr)
    near = np.abs(half_sin) < _SINGULARITY_GUARD
    if np.any(~near):
        num = np.sin((p + 1) * arr[~near] / 2.0)
        # numerator values at kernel zeros are pure cancellation noise; snap
        # them so the zeros are exact
        num = np.where(np.abs(num) < 1e-15, 0.0, num)
        out[~near] = (num / half_sin[~near]) ** 2 / (p + 1)
    if np.any(near):
        # np.sinc(x) = sin(pi x)/(pi x), with its limit 1 at x = 0
        r = wrap_angle(arr[near]) / TWO_PI
        out[near] = (p + 1) * (np.sinc((p + 1) * r) / np.sinc(r)) ** 2
    return float(out[0]) if scalar else out


def fejer_coefficients(p: int) -> np.ndarray:
    """Fourier coefficients a_m = (p+1-|m|)/(p+1) for m = -p..p."""
    ms = np.abs(np.arange(-p, p + 1))
    return (p + 1 - ms) / (p + 1)


def offpeak_bound(p: int, delta: float) -> float:
    """Analytic off-peak bound: F_p(theta) <= 1/((p+1) sin^2(delta/2)) for
    |theta| >= delta, delta in (0, pi]."""
    _check_delta(delta)
    denominator = (p + 1) * math.sin(delta / 2.0) ** 2
    # a positive condition, so that an underflowed sin^2(delta/2) fails it
    # and the bound stays finite
    if not denominator > 1.0 / sys.float_info.max:
        raise ValueError(f"off-peak bound overflows: sin^2(delta/2) underflows at delta={delta!r}")
    return 1.0 / denominator


def offpeak_bound_loose(p: int, delta: float) -> float:
    """The looser chain bound pi^2 / ((p+1) delta^2)."""
    _check_delta(delta)
    return math.pi**2 / ((p + 1) * delta**2)


def _check_delta(delta: float) -> None:
    if not 0.0 < delta <= math.pi:
        raise ValueError("delta must lie in (0, pi]")


@dataclass(frozen=True)
class FilteredLaw:
    """Normalized filtered distribution, the per-string Fejér weight
    F_p(theta(z) - theta_star), and the pre-normalization mass."""

    probs: np.ndarray
    kernel: np.ndarray
    denominator: float


def filtered_distribution(env: Envelope, pm: PhaseModel, p: int) -> FilteredLaw:
    """The factorized reference law: probs(z) proportional to
    W(z) * F_p(theta(z) - theta_star)."""
    if env.size != pm.theta.size:
        raise ValueError("envelope and phase model sizes differ")
    kernel = fejer_kernel(p, pm.offsets())
    weights = env.probs * kernel
    denominator = float(weights.sum())
    # a positive condition, so that a NaN denominator fails it
    if not 0.0 < denominator < math.inf:
        raise ValueError(f"filter denominator {denominator} is zero or not finite")
    return FilteredLaw(probs=weights / denominator, kernel=kernel, denominator=denominator)


def success_probability(law: FilteredLaw, omega_star) -> float:
    """Mass of the filtered law on the optimal set."""
    return float(law.probs[_subset_indices(law.probs.size, omega_star)].sum())


def success_lower_bound(p: int, c_beta: float, delta: float) -> float:
    """Dimension-free success bound
    (p+1)C / ((p+1)C + M_p(delta)(1-C)) with the analytic M_p."""
    _check_c(c_beta)
    _check_delta(delta)
    m_p = offpeak_bound(p, delta)
    num = (p + 1) * c_beta
    return num / (num + m_p * (1.0 - c_beta))


def denominator_bound(p: int, c_beta: float, delta: float) -> float:
    """Upper bound (p+1)C + M_p(delta)(1-C) on the filter denominator of any
    law with matching envelope mass and phase gap."""
    _check_c(c_beta)
    _check_delta(delta)
    return (p + 1) * c_beta + offpeak_bound(p, delta) * (1.0 - c_beta)


def _check_c(c_beta: float) -> None:
    if not 0.0 < c_beta <= 1.0:
        raise ValueError("envelope mass must lie in (0, 1]")


def _check_order(p: int) -> None:
    # up to 2**53, p is exact as a float and (p+1)^2 stays far from overflow
    if not 0 <= p <= 2**53:
        raise ValueError(f"order {p} must lie in [0, 2**53]")
