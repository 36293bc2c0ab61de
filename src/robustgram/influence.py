"""Bounded influence function, its smoothed envelope, and shared constants.

The estimators in this package cap the effect of outliers by replacing the
identity with a bounded, odd, non-decreasing function ``psi``.  The concave
envelope ``chi`` is a quadratic smoothing of ``psi`` above the point where
``psi'' = -1/4``; it is what the bound calculators in :mod:`robustgram.bounds`
are derived from.  Everything here is pure and array-friendly.

``psi_and_prime_into`` is the inner loop of every scale solve and the one
kernel body: one pass fills buffers it is given with psi and psi', each by
one formula on c = min(|t|, 1) evaluated in place, with no saturation
branch, sharing c and c/2.  ``psi_and_prime`` runs it on fresh arrays, and
``psi`` and ``psi_prime`` are its first and second outputs.
Two identities in float64 make that exact: at the cap c = 1 the body
c (c/2 - 1) is -1/2 and -log1p(-1/2) == log(2) to the last bit, and
(1 - c) / ((1 - c) + (c/2) c) is 0 / (1/2) = 0.

The scale solver also uses a bound on the curvature: on [0, 1)
psi''(t) = (t^2/2 - t) / (1 - t + t^2/2)^2, psi'' is odd and 0 beyond +-1,
so |psi''| <= 2, reached only as t -> 1 from below.  With it a Taylor bound
proves, from the values a Newton step already has, that the evaluation at
the step would stop the row, and the solver skips that kernel pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)

# Universal constants, stored as literals; tests recompute them from the
# defining formulas below and require agreement to 1e-12.
#   c       = 15 / (8 log(2) (sqrt(2)-1)) * exp((1 + 2 sqrt(2)) / 2)
#   z1      = 1 - sqrt(4 sqrt(2) - 5)        (psi''(z1) = -1/4)
#   p1      = sqrt(4 sqrt(2) - 5) / (2 (sqrt(2)-1))   (= psi'(z1))
#   sup_chi = -log(2 (sqrt(2)-1)) + (1 + 2 sqrt(2)) / 2
C_UNIVERSAL = 44.28777720541279
Z1 = 0.18953454762563715
P1 = 0.9783183434785161
SUP_CHI = 2.1024399688326927


@dataclass(frozen=True)
class PsiConstants:
    """The scalar constants attached to the influence function."""

    c: float = C_UNIVERSAL
    z1: float = Z1
    p1: float = P1
    sup_chi: float = SUP_CHI


CONSTANTS = PsiConstants()


def _maybe_scalar(out, t):
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


def psi(t):
    """Bounded odd influence function.

    Equals -log(1 - t + t^2/2) on [0, 1], saturates at log(2) beyond, and is
    extended by psi(-t) = -psi(t).  Accepts scalars or arrays.  It is the
    first output of ``psi_and_prime``.
    """
    return psi_and_prime(t)[0]


def psi_prime(t):
    """Derivative of ``psi``; even, in [0, 1], and 0 outside (-1, 1).

    At t = +/-1 the interior one-sided value 0 is used, which coincides with
    the flat exterior branch, so the function is continuous.  It is the
    second output of ``psi_and_prime``.
    """
    return psi_and_prime(t)[1]


def psi_and_prime(t):
    """(``psi(t)``, ``psi_prime(t)``) from one pass over t, in fresh arrays
    (``psi_and_prime_into``)."""
    arr = np.asarray(t, dtype=float)
    # 0-d arrays for scalar input: a ufunc without ``out`` turns 0-d input into a scalar
    value, prime = psi_and_prime_into(arr, *(np.empty(arr.shape) for _ in range(3)))
    return _maybe_scalar(value, t), _maybe_scalar(prime, t)


def psi_and_prime_into(t, value, prime, scratch):
    """Fill ``value`` with psi(t) and ``prime`` with psi_prime(t); return them.

    ``value``, ``prime`` and ``scratch`` are float arrays of t's shape, none
    of them t, and ``scratch`` is overwritten.  Both formulas read
    c = min(|t|, 1) and c/2, computed once.  The value is
    -log(1 - c + c^2/2) = -log1p(c (c/2 - 1)) with the sign of t; the slope
    is (1 - c) / ((1 - c) + (c/2) c).
    """
    c = np.abs(t, out=prime)
    np.minimum(c, 1.0, out=c)
    half = np.multiply(c, 0.5, out=value)
    den = np.multiply(half, c, out=scratch)
    # c (c/2 - 1) = (1 - c + c^2/2) - 1 lies in [-1/2, 0]; it is -1/2 at the cap
    half -= 1.0
    half *= c
    np.log1p(half, out=half)
    # the log1p is <= 0, so its magnitude with the sign of t is sign(t) * (-log1p)
    np.copysign(half, t, out=half)
    np.subtract(1.0, c, out=c)
    den += c
    np.divide(c, den, out=c)
    return value, prime


def chi(z):
    """Smoothed upper envelope of ``psi``.

    Coincides with psi below z1, continues as the tangent parabola
    psi(z1) + p1 (z - z1) - (z - z1)^2 / 8 up to z1 + 4 p1, and is constant
    (equal to ``SUP_CHI``) beyond.  Satisfies psi <= chi <= log(1 + z + z^2/2).
    """
    z_arr = np.asarray(z, dtype=float)
    psi_z1 = SUP_CHI - 2.0 * P1 * P1
    dz = z_arr - Z1
    parabola = psi_z1 + P1 * dz - dz * dz / 8.0
    out = np.where(
        z_arr <= Z1,
        psi(z_arr),
        np.where(z_arr >= Z1 + 4.0 * P1, SUP_CHI, parabola),
    )
    return _maybe_scalar(out, z)
