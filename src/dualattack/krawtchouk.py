"""Binary Krawtchouk polynomials, exact and in the exponent.

K_w over length n evaluated at t is the signed count
sum_j (-1)^j C(t, j) C(n - t, w - j), an integer.  Its normalized
log-magnitude converges to kappa_tilde of the ratio pair (t/n, w/n).
"""

import math
from math import comb

import numpy as np

from .errors import BudgetExceeded, DomainError


def krawtchouk_exact(n, w, t):
    """Exact integer value of K_w over length n at point t."""
    if n < 0 or n > 4096:
        raise DomainError("length capped at 4096")
    if not (0 <= w <= n and 0 <= t <= n):
        raise DomainError("need 0 <= w, t <= n")
    acc = 0
    for j in range(w + 1):
        term = comb(t, j) * comb(n - t, w - j)
        acc += -term if j & 1 else term
    return acc


class KrawtchoukTable:
    """All values K_w(t), t = 0..n, for one (n, w), exact ints."""

    def __init__(self, n, w):
        self.n = n
        self.w = w
        self.values = tuple(krawtchouk_exact(n, w, t) for t in range(n + 1))

    def value(self, t):
        return self.values[t]

    def as_float(self):
        return np.array(self.values, dtype=np.float64)


def character_sum_oracle(x, w):
    """sum over |y| = w of (-1)^<x, y>, by brute enumeration.

    Independent of the polynomial formula; equals K_w(|x|).  Words longer
    than 18 bits are refused."""
    x = np.asarray(x, dtype=np.uint8).reshape(-1)
    m = x.size
    if m > 18:
        raise BudgetExceeded("character sum capped at 18 bits")
    if not (0 <= w <= m):
        raise DomainError("need 0 <= w <= len(x)")
    import itertools

    xmask = 0
    for i in range(m):
        if x[i]:
            xmask |= 1 << i
    acc = 0
    for support in itertools.combinations(range(m), w):
        ymask = 0
        for i in support:
            ymask |= 1 << i
        acc += -1 if bin(xmask & ymask).count("1") & 1 else 1
    return acc


def h2(p):
    """Binary entropy, log base 2, with h2(0) = h2(1) = 0."""
    if p < 0 or p > 1:
        raise DomainError("entropy argument outside [0, 1]")
    if p == 0 or p == 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def h2_inv(v):
    """Inverse of h2 on [0, 1/2], by bisection to 1e-12."""
    if v < 0 or v > 1:
        raise DomainError("entropy value outside [0, 1]")
    if v == 0:
        return 0.0
    if v == 1:
        return 0.5
    # h2 inlined: mid stays inside (0, 1/2), so its checks never fire
    log2 = math.log2
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if -mid * log2(mid) - (1 - mid) * log2(1 - mid) < v:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _omega_perp(omega):
    return 0.5 - math.sqrt(omega * (1 - omega))


def kappa_tilde(tau, omega):
    """Normalized exponent of |K_{omega n}(tau n)| for large n.

    Monotone branch on tau <= omega_perp = 1/2 - sqrt(omega (1 - omega))
    (closed on the left); oscillatory envelope (1 - h2(tau) + h2(omega)) / 2
    beyond.  Both branches meet continuously at omega_perp.  Points past 1/2
    are mirrored: the magnitude at n - t equals the magnitude at t."""
    if not (0 <= tau <= 1):
        raise DomainError("tau outside [0, 1]")
    if not (0 <= omega <= 0.5):
        raise DomainError("omega outside [0, 1/2]")
    if tau > 0.5:
        tau = 1.0 - tau
    if omega == 0:
        return 0.0
    if tau <= _omega_perp(omega):
        disc = (1 - 2 * tau) ** 2 - 4 * omega * (1 - omega)
        disc = max(disc, 0.0)
        z = (1 - 2 * tau - math.sqrt(disc)) / (2 * (1 - omega))
        val = (1 - tau) * math.log2(1 + z) - omega * math.log2(z)
        if tau > 0:
            val += tau * math.log2(1 - z)
        return val
    return (1 - h2(tau) + h2(omega)) / 2


def _h2v(x):
    # vector entropy; nan outside [0, 1] so callers can mask invalid cells
    x = np.asarray(x, dtype=np.float64)
    q = 1.0 - x
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -x * np.log2(x) - q * np.log2(q)
    # x q vanishes exactly at x = 0 and x = 1
    return np.where(x * q == 0.0, 0.0, out)


def _kappa_grid(t, omega, h2_omega, omega_perp, h2_t):
    # kappa_tilde on t in [0, 1/2] for omega > 0, with h2_t the entropy of
    # t; omega and its entropy and branch point broadcast against t, so
    # several omegas share one pass.  Both branches are evaluated
    # everywhere and then selected: cheaper than masked gathers on the
    # small grids the optimizer passes
    with np.errstate(divide="ignore", invalid="ignore"):
        u = 1 - 2 * t
        disc = np.maximum(u ** 2 - 4 * omega * (1 - omega), 0.0)
        z = (u - np.sqrt(disc)) / (2 * (1 - omega))
        val = (1 - t) * np.log2(1 + z) - omega * np.log2(z)
        val = np.where(t > 0, val + t * np.log2(1 - z), val)
    return np.where(t <= omega_perp, val, (1 - h2_t + h2_omega) / 2)
