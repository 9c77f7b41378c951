"""Smooth plateau function with exact derivatives of every order.

The building block is the classical mollifier pair

    f(t)  = exp(-1/t) for t > 0, 0 otherwise
    S(u)  = f(u) / (f(u) + f(1 - u))        (smooth step, 0 -> 1 on [0, 1])
    zeta(t) = 1 on |t| <= 1/4, 0 on |t| >= 1/2, S(2 - 4|t|) in between.

Derivatives are computed analytically:

* d^n/dt^n exp(-1/t) = P_n(1/t) exp(-1/t) with P_0 = 1 and the recurrence
  P_{n+1}(y) = y^2 (P_n(y) - P_n'(y));
* derivatives of the quotient S via the standard recurrence
  Q^{(q)} = (N^{(q)} - sum_{j<q} C(q,j) Q^{(j)} D^{(q-j)}) / D.

All evaluators are vectorized over the input points; each stacks the
function value and derivatives along its leading axis.  zeta is exactly
1.0 (derivatives exactly 0.0) on the inner plateau, which is what makes
interpolation at cell centers exact rather than approximate.

``bump_factors`` is the one table of the interpolant's bump: its products
over coordinates are the bumps that ``holder.HolderInterpolant`` evaluates
and whose sup norms give the class constant c2 (``holder.BumpBasis``).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

# Below this argument exp(-1/t) is far under the double-precision floor;
# treat it (and all derivatives) as exactly zero to avoid inf * 0.
_UNDERFLOW_ARG = 1e-6


@lru_cache(maxsize=None)
def _exp_inv_poly(n: int) -> tuple[float, ...]:
    """Coefficients (ascending powers) of P_n with f^(n)(t) = P_n(1/t) f(t)."""
    if n == 0:
        return (1.0,)
    prev = _exp_inv_poly(n - 1)
    deriv = tuple(prev[j] * j for j in range(1, len(prev)))
    diff = [0.0] * max(len(prev), len(deriv))
    for j, c in enumerate(prev):
        diff[j] += c
    for j, c in enumerate(deriv):
        diff[j] -= c
    return (0.0, 0.0, *diff)


def _exp_inv_derivs(t: np.ndarray, order: int) -> np.ndarray:
    """Stack of d^j/dt^j exp(-1/t), j = 0..order, elementwise over t."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((order + 1, t.size))
    flat = t.reshape(-1)
    pos = flat > _UNDERFLOW_ARG
    if np.any(pos):
        tp = flat[pos]
        y = 1.0 / tp
        base = np.exp(-y)
        for j in range(order + 1):
            coeffs = _exp_inv_poly(j)
            out[j, pos] = np.polynomial.polynomial.polyval(y, np.asarray(coeffs)) * base
    return out


def smoothstep_derivs(u: np.ndarray, order: int) -> np.ndarray:
    """Stack of S^{(j)}(u), j = 0..order, with S = f(u)/(f(u) + f(1-u))."""
    u = np.asarray(u, dtype=float).reshape(-1)
    out = np.zeros((order + 1, u.size))
    hi = u >= 1.0
    out[0, hi] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        um = u[mid]
        fu = _exp_inv_derivs(um, order)
        fv = _exp_inv_derivs(1.0 - um, order)
        den = np.empty_like(fu)
        for j in range(order + 1):
            den[j] = fu[j] + ((-1.0) ** j) * fv[j]
        q = np.empty_like(fu)
        q[0] = fu[0] / den[0]
        for j in range(1, order + 1):
            acc = fu[j].copy()
            for i in range(j):
                acc -= comb(j, i) * q[i] * den[j - i]
            q[j] = acc / den[0]
        out[:, mid] = q
    return out


def plateau_derivs(t: np.ndarray, order: int) -> np.ndarray:
    """Stack of zeta^{(j)}(t), j = 0..order.

    zeta is even, identically 1 on [-1/4, 1/4] and identically 0 outside
    (-1/2, 1/2); on the shoulders it is S(2 - 4|t|) composed through the
    chain rule, so the j-th derivative picks up a factor (-+4)^j.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.zeros((order + 1, t.size))
    inner = np.abs(t) <= 0.25
    out[0, inner] = 1.0
    shoulder = (np.abs(t) > 0.25) & (np.abs(t) < 0.5)
    if np.any(shoulder):
        ts = t[shoulder]
        s = smoothstep_derivs(2.0 - 4.0 * np.abs(ts), order)
        sign = np.where(ts > 0.0, -1.0, 1.0)
        for j in range(order + 1):
            out[j, shoulder] = s[j] * (4.0 * sign) ** j
    return out


def plateau_sq_derivs(t: np.ndarray, order: int) -> np.ndarray:
    """Stack of (zeta^2)^{(j)}(t) via the Leibniz rule on zeta * zeta.

    No library code calls this; the interpolant's bump is ``bump_factors``.
    The benchmark traces it, as ``tests/test_trace_targets.py`` requires,
    and it goes with the benchmark's move off it (ROADMAP item 5).
    """
    z = plateau_derivs(t, order)
    out = np.zeros_like(z)
    for q in range(order + 1):
        acc = np.zeros(z.shape[1])
        for j in range(q + 1):
            acc += comb(q, j) * z[j] * z[q - j]
        out[q] = acc
    return out


def bump_factors(u: np.ndarray, r0: int, order: int) -> np.ndarray:
    """The one-dimensional bump factors F[e, q](u) = d^q/du^q [u^e / e! zeta(u)].

    Shape (r0 + 1, order + 1, npts), for e = 0..r0 and q = 0..order.  By
    the Leibniz rule F[e, q] = sum_{j <= min(q, e)} C(q, j) u^(e-j) / (e-j)!
    zeta^(q-j)(u).  Since zeta is flat on |u| <= 1/4, F[e, q] there is the
    q-th derivative of u^e / e!, so F[e, q](0) is 1 if q == e and 0
    otherwise; F is exactly 0 for |u| >= 1/2.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    zeta = plateau_derivs(u, order)
    powers = np.ones((r0 + 1, u.size))  # powers[j] = u^j / j!
    for j in range(1, r0 + 1):
        powers[j] = powers[j - 1] * u / j
    out = np.zeros((r0 + 1, order + 1, u.size))
    for e in range(r0 + 1):
        for q in range(order + 1):
            for j in range(min(q, e) + 1):
                out[e, q] += comb(q, j) * powers[e - j] * zeta[q - j]
    return out
