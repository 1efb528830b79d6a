"""Complexity exponents of generic decoders in the large-length limit.

Every cost here is a base-2 runtime exponent normalized by block length:
alpha means time 2^(alpha n (1 + o(1))) at rate R = k/n and relative
decoding distance tau = t/n.  Each decoder's cost is written once, over
its cells (_prange_cost, _dumer_cells, the closure in _bjmm_min), and
the Dumer and two-level parity-check searches share one nested-grid
engine, _zoom_min.  The dual-attack exponent couples a bet on the error
split with parity-check production, an FFT over the auxiliary quotient,
candidate filtering and two inner syndrome-decoding stages; it is
minimized by penalized Nelder-Mead from many starts, and every reported
point is re-verified against the full constraint list.  Its two inner
Dumer searches run only where the ISD term can bind: a row whose ISD
term, with each search replaced by a certified upper bound (Prange's
cost, the search's own cell at lam = 0), stays below the other terms
gets alpha from those terms alone, the same float the full maximum gives.
The candidate term scans its grid by rows: a row's admissible columns are
a prefix of the columns by falling kappa, so its best cell comes from a
binary search and a running maximum instead of a pass over every cell.

The Nelder-Mead here is a numpy port of scipy's, step for step, that
advances all starts of a search phase together and evaluates the points
they ask for in one batched objective call, so scipy.optimize is not
needed.  The starts never interact, so on a machine with two or more
cores each phase splits them into two fixed groups through _split, the
one two-process split the package has (the lattice score model's strata
and the Poisson survival model's blocks use it too): a worker process forked once per exponent point runs half
of the 24 cells, then four of the eight refinements, while the calling
process runs the other cells, then the other refinements; the results
are put back in start order.  Every reported point is the same, bit for
bit, as with both groups run in one process.
"""

import math
import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .krawtchouk import _h2v, _kappa_grid, _omega_perp, h2, h2_inv, kappa_tilde

INF = math.inf

ALGORITHMS = ("prange", "dumer", "bjmm-eq", "double-rlpn")

RESIDUAL_LABELS = (
    "sigma_cap",
    "mu_lower",
    "mu_upper",
    "omega_cap",
    "sigma_nonneg",
    "R_aux_nonneg",
    "tau_aux_nonneg",
    "omega_nonneg",
    "mu_nonneg",
    "sample_bias",
    "list_capacity",
    "aux_capacity",
)


@dataclass(frozen=True)
class AsymParams:
    """Relative parameters of one dual-attack configuration.

    sigma is the fraction of positions carrying the sparse secret, R_aux
    the auxiliary rate, tau_aux its decoding radius, omega the relative
    parity-check weight on the complement, mu the relative error weight
    bet on the complement.  N_aux counts independent auxiliary codes."""

    sigma: float
    R_aux: float
    tau_aux: float
    omega: float
    mu: float
    N_aux: int = 1


@dataclass(frozen=True)
class ExponentPoint:
    R: float
    tau: float
    alpha: float
    argmin: AsymParams | None
    feasible: bool
    constraint_residuals: list
    algorithm: str


def _ch2(c, x):
    # c * h2(x/c), the exponent of binomial(c n, x n); continuous 0 at c = 0
    if c <= 1e-15:
        return 0.0
    r = x / c
    if r <= 0.0 or r >= 1.0:
        return 0.0
    return c * h2(r)


def _ch2v(c, x):
    # c * h2(x/c), 0 where the ratio leaves (0, 1); cells outside get the
    # ratio 1/2, which keeps log2 off its slow path for 0 and negatives
    # (in place, few buffers: -r log2 r is -(r log2 r) and c y is y c)
    c = np.asarray(c, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    m = (c > 1e-15) & (x > 0.0) & (x < c)
    r = np.divide(x, c, out=np.full(m.shape, 0.5), where=m)
    q = 1.0 - r
    out = np.log2(r)
    out *= r
    np.negative(out, out=out)
    out -= np.multiply(q, np.log2(q, out=r), out=q)
    out *= c
    np.copyto(out, 0.0, where=~m)
    return out


def _prange_cost(R, tau):
    # Prange's iteration exponent at (R, tau), and Dumer's cost at its cell
    # lam = 0, omega' = max(R + tau - 1, 0), where the list terms cancel
    return h2(tau) - _ch2(1.0 - R, tau - max(R + tau - 1.0, 0.0))


def prange_exponent(R):
    """Information-set decoding exponent at Gilbert-Varshamov distance."""
    if not 0 < R < 1:
        raise DomainError("rate outside (0, 1)")
    return _prange_cost(R, h2_inv(1.0 - R))


def _linspace(lo, hi, num):
    # np.linspace(lo, hi, num) bit for bit, one row per endpoint pair of
    # the 1-d arrays lo and hi, without its dispatch overhead
    ramp = np.arange(num, dtype=np.float64)
    lo, hi = lo[:, None], hi[:, None]
    step = (hi - lo) / (num - 1)
    # numpy scales by the span instead where the step underflows to zero
    y = ramp * step if step.all() else np.where(step == 0, ramp / (num - 1) * (hi - lo), ramp * step)
    y += lo
    y[:, -1] = hi[:, 0]
    return y


def _zoom_min(cost, top, levels, pts):
    # nested grid refinement of many problems at once: cost(a, b) is INF
    # where a cell is infeasible, a (problems, pts, 1), b (problems, 1, pts).
    # Windows start at [0, top] (a bounds, then b bounds) and zoom to the
    # best cell +- 2.5 steps, until a level where no problem has a finite
    # cell.  Returns rows of value, a and b: each problem's earliest lowest
    m = top.size // 2
    lo, hi, rows = np.zeros(2 * m), top, np.arange(2 * m)
    found = []  # per level: the best cells' values, then their a and b
    for _ in range(levels):
        ab = _linspace(lo, hi, pts)
        v = cost(ab[:m, :, None], ab[m:, None, :]).reshape(m, pts * pts)
        k = v.argmin(axis=1)
        c = ab[rows, np.concatenate(np.divmod(k, pts))]
        found.append(np.concatenate([v[rows[:m], k], c]))
        if not np.isfinite(found[-1][:m]).any():
            break
        d = 2.5 * ((hi - lo) / (pts - 1))
        lo, hi = np.maximum(0.0, c - d), np.minimum(top, c + d)
    found = np.array(found)
    return found[np.argmin(found[:, :m], axis=0), np.arange(3 * m).reshape(3, m)]


def _dumer_cells(R, tau, h_tau, lam, s):
    # Dumer's (cost, list exponent, omega') at the cells (lam, s), s the
    # position of omega' in its lam-dependent box; problems on the first axis
    rl = R + lam
    wlo = np.maximum(rl + tau - 1.0, 0.0)
    whi = np.minimum(tau, rl)
    # both binomial exponents in one call: the lists, then the complement
    w = np.empty((2,) + np.broadcast_shapes(wlo.shape, s.shape))
    wp = np.add(wlo, s * np.maximum(whi - wlo, 0.0), out=w[0])
    np.subtract(tau, wp, out=w[1])
    ch = _ch2v(np.stack([rl, 1.0 - R - lam]), w)
    half = ch[0] / 2.0
    twice = 2.0 * half
    pi = h_tau - ch[1] - twice
    cost = pi + np.maximum(half, twice - lam)
    return np.where(whi + 1e-15 < wlo, INF, cost), half, wp


def _dumer_grids(problems, levels=4, pts=65):
    # Dumer's search for every (R, tau) of problems: arrays of cost, lam
    # and s.  At tau = 0 every cell costs 0, and the cell (0, 0) is taken
    R, tau, h_tau = np.array([(r, t, h2(t)) for r, t in problems]).reshape(-1, 3).T[:, :, None, None]
    top = np.concatenate([1.0 - R[:, 0, 0], np.ones(len(problems))])
    cost, lam, s = _zoom_min(lambda lam, s: _dumer_cells(R, tau, h_tau, lam, s)[0], top, levels, pts)
    # rounding can leave a cost of order -1e-17 for a tiny positive tau
    return np.maximum(cost, 0.0), lam, s


def dumer_exponent(R, tau):
    """Exponent of collision decoding that lists all solutions at tau.

    Minimizes over the memory parameter lam and the split weight omega'
    the iteration exponent plus the larger of list size and collision
    work.  Returns (alpha, beta, nu_sol, argmin) where beta is the space
    exponent (the size of one stored list) and nu_sol the exponent of the
    solution count."""
    if not 0 < R < 1:
        raise DomainError("rate outside (0, 1)")
    if not 0 <= tau <= 0.5:
        raise DomainError("tau outside [0, 1/2]")
    alpha, lam, s = _dumer_grids([(R, tau)])
    _, beta, wp = _dumer_cells(R, tau, h2(tau), lam, s)
    nu_sol = max(h2(tau) - (1.0 - R), 0.0)
    return alpha.item(), beta.item(), nu_sol, {"lam": lam.item(), "omega_prime": wp.item()}


def _bjmm_min(lam, omega, pts=65):
    # grid over (a, b) in [0,1]^2 with pi2 = omega/2 (1+a), pi1 = pi2/2 (1+b),
    # zoomed 3 levels for every (lam, omega) of the two 1-d arrays at once;
    # a problem with omega = 0 costs nothing
    m, lam, omega = omega.size, lam[:, None, None], omega[:, None, None]
    half_om, co_om, lam_tol = omega / 2.0, 1.0 - omega, lam + 1e-12

    def cost(a, b):
        pi2 = half_om * (1.0 + a)
        half2, rest2 = pi2 / 2.0, 1.0 - pi2
        # every entropy in one call: [representation ratio, weight] of the
        # first level over (a, b), then of the second level over a alone
        arg = np.empty((m, 2, pts * (pts + 1)))
        top = arg[:, :, pts:].reshape(m, 2, pts, pts)
        pi1 = np.multiply(half2, 1.0 + b, out=top[:, 1])
        np.divide(pi1 - half2, rest2, out=top[:, 0])
        np.divide(pi2[:, :, 0] - half_om[:, 0], co_om[:, 0], out=arg[:, 0, :pts])
        arg[:, 1, :pts] = pi2[:, :, 0]
        h = _h2v(arg)
        h_top = h[:, :, pts:].reshape(m, 2, pts, pts)
        lam1 = pi2 + rest2 * h_top[:, 0]
        lam2 = omega + co_om * h[:, 0, :pts, None]
        h1 = h_top[:, 1]
        nu1 = h1 - lam1
        nu2 = h[:, 1, :pts, None] - lam2
        g = np.maximum(h1 / 2.0, nu1)
        g = np.maximum(g, np.maximum(nu1, 2 * nu1 - (lam2 - lam1)))
        g = np.maximum(g, np.maximum(nu2, 2 * nu2 - (lam - lam2)))
        feas = (lam1 <= lam2 + 1e-12) & (lam2 <= lam_tol) & np.isfinite(g)
        return np.where(feas, g, INF)

    return np.where(omega[:, 0, 0] <= 0.0, 0.0, _zoom_min(cost, np.ones(2 * m), 3, pts)[0])


def bjmm_eq_exponent(Rprime, omega):
    """Exponent of producing all weight-omega parity checks of a rate-Rprime code.

    Two merge levels with representations; the two list-size equalities
    are substituted away so the search runs over the split weights alone.
    Empty feasible region reports +inf."""
    if not 0 <= Rprime <= 1:
        raise DomainError("rate outside [0, 1]")
    if not 0 <= omega <= 1:
        raise DomainError("omega outside [0, 1]")
    return float(_bjmm_min(np.array([float(Rprime)]), np.array([float(omega)]))[0])


_HALF_GRID = np.linspace(0.0, 0.5, 129)
# level 0 of the candidate scan, both sides on one grid, and its entropies
_HALF_T = np.stack([_HALF_GRID, _HALF_GRID])[None]
_HALF_H2 = _h2v(_HALF_T)
_HALF_ZOOM = 2 * ((_HALF_GRID[-1] - _HALF_GRID[0]) / (_HALF_GRID.size - 1))


def _candidate_exponent(R, sigma, anchor, om, h_om, perp):
    # best admissible weight-pair population per problem: cells whose
    # Krawtchouk product magnitude reaches the planted cell's (anchor)
    # cannot be thresholded away, and each contributes binomial(s,j)
    # binomial(n-s,i) / 2^(n-k).  om, h_om, perp are (problems, 2): the
    # kappa weight, its entropy and its branch point for the secret side
    # (tau_bar) and the complement (omega_bar); a zero weight gives kappa 0
    m = sigma.size
    p = np.arange(m)[:, None]
    thr = (anchor - 1e-12)[:, None]
    zero, om, h_om, perp = om[:, :, None] == 0, om[:, :, None], h_om[:, :, None], perp[:, :, None]
    sig, cosig = sigma[:, None], (1.0 - sigma)[:, None]
    # level 0 shares one grid; each level's grid stays inside [0, 1/2],
    # where min(t, 1 - t) is t
    grid, h = _HALF_T, _HALF_H2
    for level, n in enumerate((129, 33)):
        kk = np.where(zero, 0.0, _kappa_grid(grid, om, h_om, perp, h))
        ka, kb = sig * kk[:, 0], cosig * kk[:, 1]
        a, b = sig * h[:, 0], cosig * h[:, 1]
        # a rounded sum is monotone in each term, so row i's admissible
        # columns are the first t by falling kb, and its best cell is its
        # term plus the largest column term among them.  Each problem's
        # row of the two tables holds, at t, kb of the t-th such column and
        # the largest b of the first t, with -INF at 0 and past n; at, the
        # flat index of each row's t, is found by a fixed-step binary search
        bits = n.bit_length()
        order = np.argsort(-kb, axis=1) + p * n
        tab = np.full((2, m, 1 << bits), -INF)
        tab[0, :, 1 : n + 1] = kb.take(order)
        np.maximum.accumulate(b.take(order), axis=1, out=tab[1, :, 1 : n + 1])
        skb, top = tab.reshape(2, -1)
        at = (p << bits).repeat(ka.shape[1], axis=1)
        for e in range(bits - 1, -1, -1):
            np.add(at, 1 << e, out=at, where=ka + skb[1 << e :].take(at) >= thr)
        rv = (a + top.take(at)) - (1.0 - R)
        v = rv.max(axis=1)
        if level:
            # a problem without an admissible cell at level 0 stops there
            return np.where(alive & (v > best), v, best)
        best, alive = np.where(v > 0.0, v, 0.0), v > -INF
        # zoom on the full scan's first best cell in grid order: the first
        # best row, and its first admissible column reaching the value
        i = rv.argmax(axis=1)[:, None]
        j = ((ka[p, i] + kb >= thr) & ((a[p, i] + b) - (1.0 - R) == v[:, None])).argmax(axis=1)
        c = _HALF_GRID[np.hstack([i, j[:, None]])].ravel()
        lo, hi = np.maximum(0.0, c - _HALF_ZOOM), np.minimum(0.5, c + _HALF_ZOOM)
        grid = _linspace(lo, hi, 33).reshape(m, 2, 33)
        h = _h2v(grid)


def _drlpn_rows(R, tau, rows, N_aux):
    # (alpha, residuals as RESIDUAL_LABELS, positive if violated) of each
    # (sigma, R_aux, tau_aux, omega, mu) row.  Per-row terms stay in math,
    # whose log2 can differ from np.log2 in the last bit; the three grid
    # minimizations run once over all rows.  A row whose ISD term cannot
    # bind, even with each Dumer search at its cell (0, 0) plus 1e-9 for
    # rounding, skips the Dumer grids: by monotony alpha is then pi +
    # max(eq, nu_samples, R_aux), the same float the full max gives
    h_tau = h2(tau)
    glue, eps, probs = [], [], []
    for sigma, R_aux, tau_aux, omega, mu in rows:
        omega_bar = omega / (1.0 - sigma)
        tau_bar = tau_aux / sigma
        d1 = min((tau - mu) / sigma, 1.0)
        d2 = min(mu / (1.0 - sigma), 1.0)
        k1, k2 = kappa_tilde(d1, tau_bar), kappa_tilde(d2, omega_bar)
        h_tb, h_ob = h2(tau_bar), h2(omega_bar)
        Rp = (R - sigma) / (1.0 - sigma)
        glue.append((tau_bar, omega_bar, h_tb, h_ob, _omega_perp(tau_bar), _omega_perp(omega_bar),
                     sigma, Rp, sigma * k1 + (1.0 - sigma) * k2))
        eps.append(sigma * (k1 - h_tb) + (1.0 - sigma) * (k2 - h_ob))
        probs.append(((max(1.0 - N_aux * R_aux / sigma, 0.0), min(d1, 0.5)), (max(Rp, 0.0), min(d2, 0.5))))
    # columns: the two kappa weights, their entropies and branch points,
    # then sigma, Rp and the planted cell's kappa
    g = np.array(glue)
    bjmm = _bjmm_min(g[:, 7], g[:, 1], pts=33).tolist()
    cand = _candidate_exponent(R, g[:, 6], g[:, 8], g[:, 0:2], g[:, 2:4], g[:, 4:6]).tolist()
    alphas, resids, need = [], [], []
    for i, (sigma, R_aux, tau_aux, omega, mu) in enumerate(rows):
        eps_bias, h_ob = eps[i], glue[i][3]
        bet, aux = _ch2(sigma, tau - mu), _ch2(sigma, tau_aux)
        checks = _ch2(1.0 - sigma, omega) + aux
        pi = h_tau - bet - _ch2(1.0 - sigma, mu)
        eq = (1.0 - sigma) * min(bjmm[i], h_ob)
        nu_samples = checks - (R - R_aux)
        nu_isd = max(bet - N_aux * R_aux, 0.0)
        rest = max(eq, nu_samples, R_aux)
        (pa, pb), isd = probs[i], N_aux * cand[i]
        cap_a, cap_b = _prange_cost(*pa) + 1e-9, _prange_cost(*pb) + 1e-9
        if not isd + max(sigma * cap_a, nu_isd + (1.0 - sigma) * cap_b) < rest:
            need.append((i, sigma, pi, rest, isd, nu_isd))
        alphas.append(pi + rest)
        resids.append([sigma - R, (tau - sigma) - mu, mu - tau, omega - (1.0 - sigma), -sigma, -R_aux, -tau_aux,
                       -omega, -mu, (-2.0 * eps_bias) - nu_samples, checks - R, aux - (sigma - R_aux)])
    if need:
        grids = iter(_dumer_grids([p for i, *_ in need for p in probs[i]], levels=3, pts=33)[0].tolist())
    for i, sigma, pi, rest, isd, nu_isd in need:
        isd_a = sigma * next(grids)
        isd_b = nu_isd + (1.0 - sigma) * next(grids)
        alphas[i] = pi + max(rest, isd + max(isd_a, isd_b))
    return list(zip(alphas, resids))


def double_rlpn_objective(R, tau, params):
    """Evaluate the dual-attack exponent at explicit parameters.

    tau=None decodes at the Gilbert-Varshamov distance for rate R.
    Returns (alpha, residuals); the residual list follows
    RESIDUAL_LABELS with positive entries marking violated constraints.
    Lets callers certify feasible points independently of the optimizer."""
    if not 0 < R < 1:
        raise DomainError("rate outside (0, 1)")
    if tau is None:
        tau = h2_inv(1.0 - R)
    if not 0 <= tau <= 0.5:
        raise DomainError("tau outside [0, 1/2]")
    if not 0 < params.sigma < 1:
        raise DomainError("sigma outside (0, 1)")
    if not 0 < params.R_aux <= params.sigma:
        raise DomainError("R_aux outside (0, sigma]")
    if not 0 <= params.omega <= (1.0 - params.sigma) / 2.0:
        raise DomainError("omega outside [0, (1 - sigma)/2]")
    if not 0 <= params.mu <= min(tau, 1.0 - params.sigma):
        raise DomainError("mu outside [0, tau]")
    if tau - params.mu > params.sigma:
        raise DomainError("bet weight exceeds secret side")
    if params.tau_aux < 0 or params.tau_aux > params.sigma / 2.0:
        raise DomainError("tau_aux outside [0, sigma/2]")
    row = (params.sigma, params.R_aux, params.tau_aux, params.omega, params.mu)
    return _drlpn_rows(R, tau, [row], params.N_aux)[0]


def _gv_tau_aux(sigma, R_aux):
    return sigma * h2_inv(min(max(1.0 - R_aux / sigma, 0.0), 1.0))


def _clip_box(x, R, tau):
    # (sigma, R_aux, tau_aux, omega, mu) of x clipped into the box, tau_aux on its GV bound
    sigma = min(max(x[0], 1e-4), min(R, 1.0 - 1e-4))
    R_aux = min(max(x[1], 1e-6), sigma * (1.0 - 1e-9))
    omega = min(max(x[2], 0.0), (1.0 - sigma) / 2.0)
    mu = min(max(x[3], max(0.0, tau - sigma)), min(tau, 1.0 - sigma))
    return sigma, R_aux, _gv_tau_aux(sigma, R_aux), omega, mu


def _penalized(R, tau, N_aux, X):
    # the search objective at each row x of X: alpha at the clipped point
    # plus penalties for violated constraints, for d1 past 1/2 and for the
    # distance clipping moved x
    X = X.tolist()
    rows = [_clip_box(x, R, tau) for x in X]
    drift = [abs(x[0] - v[0]) + abs(x[1] - v[1]) + abs(x[2] - v[3]) + abs(x[3] - v[4])
             for x, v in zip(X, rows)]
    vals = []
    for (alpha, residuals), (sigma, _, _, _, mu), d in zip(_drlpn_rows(R, tau, rows, N_aux), rows, drift):
        pen = sum(max(0.0, r + 1e-7) for r in residuals)
        guard = max(0.0, (tau - mu) / sigma - 0.5)
        vals.append(alpha + 80.0 * (pen + guard) + 100.0 * d)
    return np.array(vals)


def _simplex(x0):
    # scipy's default initial simplex around each row of x0: vertex k + 1
    # scales coordinate k by 1.05, or sets it to 0.00025 where it is 0
    sim, k = np.repeat(x0[:, None, :], x0.shape[1] + 1, axis=1), np.arange(x0.shape[1])
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    return sim


def _nelder_mead_chain(sim, maxfev, xatol, fatol, adaptive):
    # scipy 1.17's _minimize_neldermead line for line as a coroutine that
    # yields each point it evaluates, is sent its value, and returns
    # (simplex, values, nfev).  Where scipy's maxfev cut raises out of an
    # iteration it ends here, so a cut shrink keeps one stale value
    n = sim.shape[1]
    rho, chi, psi, sigma = (1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n) if adaptive else (1, 2, 0.5, 0.5)
    fsim = np.full((n + 1,), INF)
    nfev = 0
    for k in range(min(n + 1, maxfev)):
        fsim[k] = yield sim[k]
        nfev += 1
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while nfev < maxfev:
        if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol:
            if np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = yield xr
        nfev += 1
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = yield xe
                nfev += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < maxfev:
            outside = fxr < fsim[-1]
            xc = (1 + psi * rho) * xbar - psi * rho * sim[-1] if outside else (1 - psi) * xbar + psi * sim[-1]
            fxc = yield xc
            nfev += 1
            if fxc <= fxr if outside else fxc < fsim[-1]:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    if nfev >= maxfev:
                        break
                    fsim[j] = yield sim[j]
                    nfev += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim, fsim, nfev


def _nelder_mead(f, chains):
    """Run Nelder-Mead chains (_nelder_mead_chain coroutines) in lockstep:
    each round sends every point the live chains ask for to one call
    f(points, chain) -> values, chain[i] naming the chain of points[i].
    Returns each chain's (simplex sorted by value, values, nfev); row 0
    of the simplex is the chain's x."""
    asks = {i: next(c) for i, c in enumerate(chains)}
    done = [None] * len(chains)
    while asks:
        ids, pts = list(asks), list(asks.values())
        vals = f(np.array(pts), np.array(ids))
        asks = {}
        for i, v in zip(ids, vals):
            try:
                asks[i] = chains[i].send(v)
            except StopIteration as end:
                done[i] = end.value
    return done


def _run_chains(R, tau, N_aux, specs):
    # Nelder-Mead chains, one per (simplex, maxfev, xatol, fatol, adaptive,
    # lead) of specs, stepped together on the penalized objective; lead
    # holds the fixed leading coordinates of the chain's search vector
    lead = np.array([spec[5] for spec in specs])
    return _nelder_mead(lambda Y, chain: _penalized(R, tau, N_aux, np.hstack([lead[chain], Y])),
                        [_nelder_mead_chain(*spec[:5]) for spec in specs])


def _cores():
    # CPUs this process may run on; 1 where the system cannot say
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker():
    # a one-process pool forked from this process, or a context yielding
    # None where there is no second core, no fork, another thread (which
    # a fork could copy while it holds a lock) or a daemonic process
    # (which may not have children)
    if _cores() < 2 or threading.active_count() > 1:
        return nullcontext()
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
        return nullcontext()
    return ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))


def _split(pool, run, jobs, cut):
    # run(jobs), a list in the order of jobs, with the pool's worker, if
    # any, running jobs[:cut] while this process runs jobs[cut:]
    if pool is None:
        return run(jobs)
    far = pool.submit(run, jobs[:cut])
    near = run(jobs[cut:])
    return far.result() + near


def double_rlpn_exponent(R, N_aux=1):
    """Minimize the dual-attack exponent at rate R, decoding at the
    Gilbert-Varshamov distance.

    The auxiliary radius is tied to its own code's Gilbert-Varshamov
    bound throughout, so the search runs over (sigma, R_aux, omega, mu)
    with constraint penalties: a fixed lattice of (sigma, R_aux) cells,
    its best eight refined, and the best feasible end drilled into.
    Candidates are re-verified exactly and only certified points are
    reported feasible.  The point is a function of (R, N_aux) alone; no
    random number is drawn."""
    if not 0 < R < 1:
        raise DomainError("rate outside (0, 1)")
    if N_aux < 1:
        raise DomainError("N_aux below 1")
    tau = h2_inv(1.0 - R)
    run = partial(_run_chains, R, tau, N_aux)

    # competing local basins differ mostly in (sigma, R_aux): sweep a fixed
    # lattice there with a cheap inner search over (omega, mu)
    cells = []
    for fs in (0.3, 0.42, 0.54, 0.66, 0.78, 0.9):
        sig = min(max(fs * R, 1e-4), min(R, 1.0 - 1e-4))
        ob = h2_inv(min(max((R - sig) / (1.0 - sig), 0.0), 1.0))
        for fr in (0.2, 0.4, 0.6, 0.8):
            cells.append(np.array([sig, fr * sig, 0.7 * ob * (1.0 - sig), (1.0 - sig) * tau]))
    cells = np.array(cells)
    with _worker() as pool:
        ends = _split(pool, run, [(s, 110, 1e-7, 1e-10, False, c[:2])
                                  for s, c in zip(_simplex(cells[:, 2:]), cells)], len(cells) // 2)
        ranked = sorted(((fs.min(), np.concatenate([c[:2], s[0]])) for c, (s, fs, _) in zip(cells, ends)),
                        key=lambda r: r[0])

        # refine the best cells in 4-d, half of them on each side
        top = _simplex(np.array([x0 for _, x0 in ranked[:8]]))
        specs = [(s, 1400, 1e-10, 1e-13, True, ()) for s in top]
        ends = _split(pool, run, specs, len(specs) // 2)

    best_feas = None
    best_any = None

    def consider(xs):
        # the exact check of each search vector x of xs in one objective
        # call, at its box-clipped parameters
        nonlocal best_feas, best_any
        vecs = [_clip_box(x, R, tau) for x in xs]
        for x, vec, (alpha, residuals) in zip(xs, vecs, _drlpn_rows(R, tau, vecs, N_aux)):
            if best_any is None or alpha < best_any[0]:
                best_any = (alpha, residuals, vec)
            if max(residuals) <= 1e-9 and (best_feas is None or alpha < best_feas[0]):
                best_feas = (alpha, residuals, vec, np.asarray(x, dtype=np.float64))

    consider([sim[0] for sim, _, _ in ends])

    # drill into the best basin with shrinking simplexes
    if best_feas is not None:
        for radius in (2e-3, 1e-4):
            x0 = best_feas[3]
            simplex = np.vstack([x0] + [x0 + radius * e for e in np.eye(4)])
            consider([run([(simplex, 800, 1e-11, 1e-14, True, ())])[0][0][0]])

    alpha, residuals, vec = (best_feas or best_any)[:3]
    return ExponentPoint(
        R, tau, alpha, AsymParams(*vec, N_aux), best_feas is not None, residuals, "double-rlpn"
    )


def exponent_curve(algorithms, R_grid, seed=None, N_aux=1):
    """Exponent points for each named algorithm along a rate grid.

    Points come back algorithm-major in the given orders.  Each point is
    computed on its own: a double-RLPN point equals
    double_rlpn_exponent(R, N_aux=N_aux), whatever other rates the grid
    holds and in whatever order.  seed is unused: no point draws a random
    number, and the keyword stays only for callers that still pass it."""
    for a in algorithms:
        if a not in ALGORITHMS:
            raise DomainError("unknown algorithm " + repr(a))
    grid = [float(r) for r in R_grid]
    for r in grid:
        if not 0 < r < 1:
            raise DomainError("rate outside (0, 1)")
    out = []
    for alg in algorithms:
        for r in grid:
            if alg == "double-rlpn":
                out.append(double_rlpn_exponent(r, N_aux=N_aux))
                continue
            tau = h2_inv(r if alg == "bjmm-eq" else 1.0 - r)
            if alg == "prange":
                alpha = prange_exponent(r)
            elif alg == "dumer":
                alpha = dumer_exponent(r, tau)[0]
            else:
                alpha = bjmm_eq_exponent(r, tau)
            out.append(ExponentPoint(r, tau, alpha, None, math.isfinite(alpha), [], alg))
    return out
