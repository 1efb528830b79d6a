"""Complexity exponents of generic decoders in the large-length limit.

Every cost here is a base-2 runtime exponent normalized by block length:
alpha means time 2^(alpha n (1 + o(1))) at rate R = k/n and relative
decoding distance tau = t/n.  Baselines (Prange, Dumer, the two-level
parity-check search) reduce to low-dimensional minimizations solved by
nested grid refinement.  The dual-attack exponent couples a bet on the
error split with parity-check production, an FFT over the auxiliary
quotient, candidate filtering and two inner syndrome-decoding stages; it
is minimized by penalized Nelder-Mead from many starts, and every
reported point is re-verified against the full constraint list.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError
from .krawtchouk import _kappa_grid, _omega_perp, h2, h2_inv, kappa_tilde

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
    constraint_residuals: list = field(default_factory=list)
    algorithm: str = ""


def _h2v(x):
    # vector entropy; nan outside [0, 1] so callers can mask invalid cells
    x = np.asarray(x, dtype=np.float64)
    q = 1.0 - x
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -x * np.log2(x) - q * np.log2(q)
    # x q vanishes exactly at x = 0 and x = 1
    return np.where(x * q == 0.0, 0.0, out)


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
    c = np.asarray(c, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    m = (c > 1e-15) & (x > 0.0) & (x < c)
    r = np.divide(x, c, out=np.full(m.shape, 0.5), where=m)
    q = 1.0 - r
    out = c * (-r * np.log2(r) - q * np.log2(q))
    return np.where(m, out, 0.0)


def prange_exponent(R):
    """Information-set decoding exponent at Gilbert-Varshamov distance."""
    if not 0 < R < 1:
        raise DomainError("rate outside (0, 1)")
    tau = h2_inv(1.0 - R)
    return h2(tau) - (1.0 - R) * h2(tau / (1.0 - R))


def _linspace(lo, hi, num):
    # np.linspace(lo, hi, num) bit for bit, one row per endpoint pair when
    # lo and hi are 1-d arrays, without its dispatch overhead
    ramp = np.arange(num, dtype=np.float64)
    if not isinstance(lo, np.ndarray):
        step = (hi - lo) / (num - 1)
        y = ramp * step if step != 0 else ramp / (num - 1) * (hi - lo)
        y += lo
        y[-1] = hi
        return y
    lo, hi = lo[:, None], hi[:, None]
    step = (hi - lo) / (num - 1)
    # numpy scales by the span instead where the step underflows to zero
    y = ramp * step if step.all() else np.where(step == 0, ramp / (num - 1) * (hi - lo), ramp * step)
    y += lo
    y[:, -1] = hi[:, 0]
    return y


def _dumer_grids(problems, levels=4, pts=65):
    # nested grid refinement over (lam, s) with s the position of omega'
    # inside its lam-dependent box, for every (R, tau) of problems in one
    # stacked sweep; returns one (alpha, beta, lam, omega') per problem
    out = [(0.0, 0.0, 0.0, 0.0)] * len(problems)
    live = [i for i, (_, tau) in enumerate(problems) if tau > 0.0]
    if not live:
        return out
    m = len(live)
    rows = np.arange(m)
    R = np.array([problems[i][0] for i in live])[:, None, None]
    tau = np.array([problems[i][1] for i in live])[:, None, None]
    h_tau = np.array([h2(problems[i][1]) for i in live])[:, None, None]
    lam_lo, lam_hi = np.zeros(m), 1.0 - R[:, 0, 0]
    s_lo, s_hi = np.zeros(m), np.ones(m)
    best = [(INF, 0.0, 0.0, 0.0)] * m
    for _ in range(levels):
        lam = _linspace(lam_lo, lam_hi, pts)[:, :, None]
        s = _linspace(s_lo, s_hi, pts)[:, None, :]
        rl = R + lam
        wlo = np.maximum(rl + tau - 1.0, 0.0)
        whi = np.minimum(tau, rl)
        # both binomial exponents in one call: problems [0, m) the lists,
        # [m, 2m) the complement
        w = np.empty((2 * m, pts, pts))
        wp = np.add(wlo, s * np.maximum(whi - wlo, 0.0), out=w[:m])
        np.subtract(tau, wp, out=w[m:])
        ch = _ch2v(np.concatenate([rl, 1.0 - R - lam]), w)
        half = ch[:m] / 2.0
        twice = 2.0 * half
        pi = h_tau - ch[m:] - twice
        cost = pi + np.maximum(half, twice - lam)
        cost = np.where(whi + 1e-15 < wlo, INF, cost)
        k = np.argmin(cost.reshape(m, -1), axis=1)
        li, si = np.divmod(k, pts)
        at = k + rows * (pts * pts)
        cl, cs = lam.take(rows * pts + li), s.take(rows * pts + si)
        for p, (c, hb, lb, wb) in enumerate(zip(cost.take(at), half.take(at), cl, wp.take(at))):
            if c < best[p][0]:
                best[p] = (float(c), float(hb), float(lb), float(wb))
        span_l = (lam_hi - lam_lo) / (pts - 1)
        span_s = (s_hi - s_lo) / (pts - 1)
        lam_lo, lam_hi = np.maximum(0.0, cl - 2.5 * span_l), np.minimum(1.0 - R[:, 0, 0], cl + 2.5 * span_l)
        s_lo, s_hi = np.maximum(0.0, cs - 2.5 * span_s), np.minimum(1.0, cs + 2.5 * span_s)
    for i, b in zip(live, best):
        # rounding can leave a cost of order -1e-17 for a tiny positive tau
        out[i] = (max(b[0], 0.0),) + b[1:]
    return out


def _dumer_min(R, tau):
    # relaxed-domain Dumer minimizer; accepts R in [0, 1)
    if tau <= 0.0:
        return 0.0, 0.0, max(h2(max(tau, 0.0)) - (1.0 - R), 0.0), {"lam": 0.0, "omega_prime": 0.0}
    nu_sol = max(h2(tau) - (1.0 - R), 0.0)
    alpha, beta, lam, wp = _dumer_grids([(R, tau)])[0]
    return alpha, beta, nu_sol, {"lam": lam, "omega_prime": wp}


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
    return _dumer_min(R, tau)


def _bjmm_gamma(pi1, pi2, lam, omega):
    """One evaluation of the two-level representation cost stack.

    Returns (gamma, lam1, lam2, ok); ok is membership of the point in
    the feasible region."""
    if not (0 <= pi2 < 1 and 0 <= pi1 <= 1 and 0 <= omega < 1):
        return INF, 0.0, 0.0, False
    a1 = (pi1 - pi2 / 2.0) / (1.0 - pi2)
    a2 = (pi2 - omega / 2.0) / (1.0 - omega)
    if a1 < -1e-12 or a1 > 1 or a2 < -1e-12 or a2 > 1:
        return INF, 0.0, 0.0, False
    lam1 = pi2 + (1.0 - pi2) * h2(min(max(a1, 0.0), 1.0))
    lam2 = omega + (1.0 - omega) * h2(min(max(a2, 0.0), 1.0))
    nu0 = h2(pi1) / 2.0
    nu1 = h2(pi1) - lam1
    nu2 = h2(pi2) - lam2
    gamma = max(nu0, 2 * nu0 - lam1, nu1, 2 * nu1 - (lam2 - lam1), nu2, 2 * nu2 - (lam - lam2))
    ok = (
        pi2 / 2.0 - 1e-12 <= pi1 <= pi2 + 1e-12
        and omega / 2.0 - 1e-12 <= pi2 <= omega + 1e-12
        and lam1 <= lam2 + 1e-12
        and lam2 <= lam + 1e-12
    )
    return gamma, lam1, lam2, ok


def _bjmm_min(lam, omega, levels=3, pts=65):
    # grid over (a, b) in [0,1]^2 with pi2 = omega/2 (1+a), pi1 = pi2/2 (1+b)
    if omega <= 0.0:
        return 0.0
    a_win = (0.0, 1.0)
    b_win = (0.0, 1.0)
    best = INF
    for _ in range(levels):
        a = _linspace(a_win[0], a_win[1], pts)[:, None]
        b = _linspace(b_win[0], b_win[1], pts)[None, :]
        pi2 = omega / 2.0 * (1.0 + a)
        half2, rest2 = pi2 / 2.0, 1.0 - pi2
        # entropies two at a time: [representation ratio, weight] per level
        top = np.empty((2, pts, pts))
        pi1 = np.multiply(half2, 1.0 + b, out=top[1])
        np.divide(pi1 - half2, rest2, out=top[0])
        h_top = _h2v(top)
        h_low = _h2v(np.stack([(pi2 - omega / 2.0) / (1.0 - omega), pi2]))
        lam1 = pi2 + rest2 * h_top[0]
        lam2 = omega + (1.0 - omega) * h_low[0]
        h1 = h_top[1]
        nu1 = h1 - lam1
        nu2 = h_low[1] - lam2
        g = np.maximum(h1 / 2.0, nu1)
        g = np.maximum(g, np.maximum(nu1, 2 * nu1 - (lam2 - lam1)))
        g = np.maximum(g, np.maximum(nu2, 2 * nu2 - (lam - lam2)))
        feas = (lam1 <= lam2 + 1e-12) & (lam2 <= lam + 1e-12) & np.isfinite(g)
        g = np.where(feas, g, INF)
        ij = np.unravel_index(np.argmin(g), g.shape)
        if not np.isfinite(g[ij]):
            return best
        best = min(best, float(g[ij]))
        ca, cb = float(a[ij[0], 0]), float(b[0, ij[1]])
        span_a = (a_win[1] - a_win[0]) / (pts - 1)
        span_b = (b_win[1] - b_win[0]) / (pts - 1)
        a_win = (max(0.0, ca - 2.5 * span_a), min(1.0, ca + 2.5 * span_a))
        b_win = (max(0.0, cb - 2.5 * span_b), min(1.0, cb + 2.5 * span_b))
    return best


def bjmm_eq_exponent(Rprime, omega):
    """Exponent of producing all weight-omega parity checks of a rate-Rprime code.

    Two merge levels with representations; the two list-size equalities
    are substituted away so the search runs over the split weights alone.
    Empty feasible region reports +inf."""
    if not 0 <= Rprime <= 1:
        raise DomainError("rate outside [0, 1]")
    if not 0 <= omega <= 1:
        raise DomainError("omega outside [0, 1]")
    return _bjmm_min(Rprime, omega)


def bjmm_output_exponent(Rprime, omega):
    """Exponent of the number of parity checks the search writes out."""
    return h2(omega) - Rprime


_HALF_GRID = np.linspace(0.0, 0.5, 129)
_HALF_H2 = _h2v(_HALF_GRID)


def _candidate_exponent(R, sigma, tau, mu, omega_bar, tau_bar):
    # best admissible weight-pair population: cells whose Krawtchouk
    # product magnitude reaches the planted cell's cannot be thresholded
    # away, and each contributes binomial(s,j) binomial(n-s,i) / 2^(n-k)
    d1 = min((tau - mu) / sigma, 1.0)
    d2 = min(mu / (1.0 - sigma), 1.0)
    anchor = sigma * kappa_tilde(d1, tau_bar) + (1.0 - sigma) * kappa_tilde(d2, omega_bar)
    # one kappa pass per level: row 0 the secret side at tau_bar, row 1
    # the complement at omega_bar; a zero weight ratio gives kappa 0
    om = np.array([[tau_bar], [omega_bar]])
    h_om = np.array([[h2(tau_bar)], [h2(omega_bar)]])
    perp = np.array([[_omega_perp(tau_bar)], [_omega_perp(omega_bar)]])
    thr = anchor - 1e-12
    zg, eg = _HALF_GRID, _HALF_GRID
    best = 0.0
    for level in range(2):
        t = np.stack([zg, eg])
        kk = np.where(om == 0, 0.0, _kappa_grid(np.minimum(t, 1.0 - t), om, h_om, perp))
        ka = sigma * kk[0]
        kb = (1.0 - sigma) * kk[1]
        # a rounded sum is monotone in each term, so row i holds an
        # admissible cell iff it does at the largest kb, and likewise for
        # columns: only admissible rows and columns are scanned
        rows = np.flatnonzero(ka + kb.max() >= thr)
        if rows.size == 0:
            break
        cols = np.flatnonzero(ka.max() + kb >= thr)
        hz = _h2v(zg[rows]) if level else _HALF_H2[rows]
        he = _h2v(eg[cols]) if level else _HALF_H2[cols]
        obj = sigma * hz[:, None] + (1.0 - sigma) * he[None, :] - (1.0 - R)
        vals = np.where(ka[rows][:, None] + kb[cols][None, :] >= thr, obj, -INF)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = max(best, float(vals[i, j]))
        sz = (zg[-1] - zg[0]) / (len(zg) - 1)
        se = (eg[-1] - eg[0]) / (len(eg) - 1)
        cz, ce = float(zg[rows[i]]), float(eg[cols[j]])
        zg = _linspace(max(0.0, cz - 2 * sz), min(0.5, cz + 2 * sz), 33)
        eg = _linspace(max(0.0, ce - 2 * se), min(0.5, ce + 2 * se), 33)
    return max(best, 0.0)


def _drlpn_pieces(R, tau, sigma, R_aux, tau_aux, omega, mu, N_aux):
    # alpha plus the residual list (positive entries are violations),
    # ordered as RESIDUAL_LABELS
    omega_bar = omega / (1.0 - sigma)
    tau_bar = tau_aux / sigma
    d1 = min((tau - mu) / sigma, 1.0)
    d2 = min(mu / (1.0 - sigma), 1.0)

    pi = h2(tau) - _ch2(sigma, tau - mu) - _ch2(1.0 - sigma, mu)

    Rp = (R - sigma) / (1.0 - sigma)
    eq = (1.0 - sigma) * min(_bjmm_min(Rp, omega_bar, pts=33), h2(omega_bar))

    nu_samples = _ch2(1.0 - sigma, omega) + _ch2(sigma, tau_aux) - (R - R_aux)
    eps_bias = sigma * (kappa_tilde(d1, tau_bar) - h2(tau_bar)) + (1.0 - sigma) * (
        kappa_tilde(d2, omega_bar) - h2(omega_bar)
    )
    nu_cand = _candidate_exponent(R, sigma, tau, mu, omega_bar, tau_bar)

    grid_a, grid_b = _dumer_grids(
        [(max(1.0 - N_aux * R_aux / sigma, 0.0), min(d1, 0.5)), (max(Rp, 0.0), min(d2, 0.5))],
        levels=3, pts=33,
    )
    isd_a = sigma * grid_a[0]
    nu_isd = max(_ch2(sigma, tau - mu) - N_aux * R_aux, 0.0)
    isd_b = nu_isd + (1.0 - sigma) * grid_b[0]

    alpha = pi + max(eq, nu_samples, R_aux, N_aux * nu_cand + max(isd_a, isd_b))

    residuals = [
        sigma - R,
        (tau - sigma) - mu,
        mu - tau,
        omega - (1.0 - sigma),
        -sigma,
        -R_aux,
        -tau_aux,
        -omega,
        -mu,
        (-2.0 * eps_bias) - nu_samples,
        (_ch2(1.0 - sigma, omega) + _ch2(sigma, tau_aux)) - R,
        _ch2(sigma, tau_aux) - (sigma - R_aux),
    ]
    parts = {
        "pi": pi,
        "eq": eq,
        "nu_samples": nu_samples,
        "eps_bias": eps_bias,
        "nu_cand": nu_cand,
        "isd": max(isd_a, isd_b),
    }
    return alpha, residuals, parts


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
    alpha, residuals, _ = _drlpn_pieces(
        R, tau, params.sigma, params.R_aux, params.tau_aux, params.omega, params.mu, params.N_aux
    )
    return alpha, residuals


def _gv_tau_aux(sigma, R_aux):
    return sigma * h2_inv(min(max(1.0 - R_aux / sigma, 0.0), 1.0))


def _clip_box(x, R, tau):
    sigma = min(max(x[0], 1e-4), min(R, 1.0 - 1e-4))
    R_aux = min(max(x[1], 1e-6), sigma * (1.0 - 1e-9))
    omega = min(max(x[2], 0.0), (1.0 - sigma) / 2.0)
    mu = min(max(x[3], max(0.0, tau - sigma)), min(tau, 1.0 - sigma))
    return sigma, R_aux, omega, mu


def double_rlpn_exponent(R, tau=None, N_aux=1, restarts=64, seed=0, warm=None):
    """Minimize the dual-attack exponent at rate R and distance tau.

    tau defaults to the Gilbert-Varshamov distance.  The auxiliary radius
    is tied to its own code's Gilbert-Varshamov bound throughout, so the
    search runs over (sigma, R_aux, omega, mu) with constraint penalties;
    candidates are re-verified exactly and only certified points are
    reported feasible.  warm optionally seeds extra start vectors."""
    if not 0 < R < 1:
        raise DomainError("rate outside (0, 1)")
    if tau is None:
        tau = h2_inv(1.0 - R)
    if not 0 <= tau <= 0.5:
        raise DomainError("tau outside [0, 1/2]")
    if N_aux < 1:
        raise DomainError("N_aux below 1")

    def exact(x):
        sigma, R_aux, omega, mu = _clip_box(x, R, tau)
        tau_aux = _gv_tau_aux(sigma, R_aux)
        alpha, residuals, _ = _drlpn_pieces(R, tau, sigma, R_aux, tau_aux, omega, mu, N_aux)
        return alpha, residuals, (sigma, R_aux, tau_aux, omega, mu)

    def penalized(x):
        sigma, R_aux, omega, mu = _clip_box(x, R, tau)
        drift = abs(x[0] - sigma) + abs(x[1] - R_aux) + abs(x[2] - omega) + abs(x[3] - mu)
        tau_aux = _gv_tau_aux(sigma, R_aux)
        alpha, residuals, _ = _drlpn_pieces(R, tau, sigma, R_aux, tau_aux, omega, mu, N_aux)
        pen = sum(max(0.0, r + 1e-7) for r in residuals)
        guard = max(0.0, (tau - mu) / sigma - 0.5)
        return alpha + 80.0 * (pen + guard) + 100.0 * drift

    def start_at(sig, R_aux_frac):
        sig = min(max(sig, 1e-4), min(R, 1.0 - 1e-4))
        ob = h2_inv(min(max((R - sig) / (1.0 - sig), 0.0), 1.0))
        return np.array(
            [sig, R_aux_frac * sig, 0.7 * ob * (1.0 - sig), (1.0 - sig) * tau]
        )

    # competing local basins differ mostly in (sigma, R_aux): sweep a fixed
    # lattice there with a cheap inner search over (omega, mu) so the basin
    # ranking never depends on the seed
    cells = []
    if warm:
        for w in warm:
            w = np.asarray(w, dtype=np.float64)
            for fs in (0.92, 1.0, 1.08):
                for fr in (0.85, 1.0, 1.18):
                    cells.append(np.array([w[0] * fs, w[1] * fr, w[2], w[3]]))
    if not warm or restarts >= 30:
        for fs in (0.3, 0.42, 0.54, 0.66, 0.78, 0.9):
            for fr in (0.2, 0.4, 0.6, 0.8):
                cells.append(start_at(fs * R, fr))

    ranked = []
    for c in cells:
        fixed = c[:2].copy()

        def pen2(y):
            return penalized(np.array([fixed[0], fixed[1], y[0], y[1]]))

        r2 = minimize(
            pen2,
            c[2:].copy(),
            method="Nelder-Mead",
            options={"maxfev": 110, "xatol": 1e-7, "fatol": 1e-10},
        )
        ranked.append((float(r2.fun), np.array([fixed[0], fixed[1], r2.x[0], r2.x[1]])))
    ranked.sort(key=lambda t: t[0])

    best_feas = None
    best_any = None

    def consider(x):
        nonlocal best_feas, best_any
        alpha, residuals, vec = exact(x)
        worst = max(residuals)
        if best_any is None or alpha < best_any[0]:
            best_any = (alpha, residuals, vec)
        if worst > 1e-9:
            _, alpha, residuals, vec, worst = _repair(x, R, tau, exact)
        if worst <= 1e-9 and (best_feas is None or alpha < best_feas[0]):
            best_feas = (alpha, residuals, vec, np.asarray(x, dtype=np.float64))

    for _, x0 in ranked[: min(4, max(restarts, 2))]:
        res = minimize(
            penalized,
            x0,
            method="Nelder-Mead",
            options={"maxfev": 1400, "xatol": 1e-10, "fatol": 1e-13, "adaptive": True},
        )
        consider(res.x)

    rng = np.random.default_rng([seed, int(round(R * 1e9)), int(round(tau * 1e9)), N_aux])
    for _ in range(max(0, restarts - len(cells) - 4)):
        sig = R * (0.35 + 0.63 * rng.random())
        R_aux = sig * (0.1 + 0.8 * rng.random())
        omega = (1.0 - sig) / 2.0 * 0.6 * rng.random() ** 1.5
        lo = max(0.0, tau - sig)
        mu = lo + (tau - lo) * (0.3 + 0.7 * rng.random())
        res = minimize(
            penalized,
            np.array([sig, R_aux, omega, mu]),
            method="Nelder-Mead",
            options={"maxfev": 200, "xatol": 1e-8, "fatol": 1e-11},
        )
        consider(res.x)

    # drill into the best basin with shrinking simplexes
    if best_feas is not None:
        for radius in (2e-3, 1e-4):
            x0 = best_feas[3]
            simplex = np.vstack([x0] + [x0 + radius * e for e in np.eye(4)])
            res = minimize(
                penalized,
                x0,
                method="Nelder-Mead",
                options={
                    "maxfev": 800,
                    "xatol": 1e-11,
                    "fatol": 1e-14,
                    "initial_simplex": simplex,
                    "adaptive": True,
                },
            )
            consider(res.x)

    if best_feas is not None:
        alpha, residuals, (sigma, R_aux, tau_aux, omega, mu), _ = best_feas
        return ExponentPoint(
            R, tau, alpha, AsymParams(sigma, R_aux, tau_aux, omega, mu, N_aux), True, residuals,
            "double-rlpn",
        )
    alpha, residuals, (sigma, R_aux, tau_aux, omega, mu) = best_any
    return ExponentPoint(
        R, tau, alpha, AsymParams(sigma, R_aux, tau_aux, omega, mu, N_aux), False, residuals,
        "double-rlpn",
    )


def _repair(x, R, tau, exact):
    # pull a near-feasible optimizer output strictly inside: the sample
    # constraint loosens as mu shrinks, the capacity ones as omega shrinks
    x = np.array(x, dtype=np.float64)
    alpha, residuals, vec = exact(x)
    sample_r = residuals[RESIDUAL_LABELS.index("sample_bias")]
    if 0.0 < sample_r < 5e-3:
        lo = max(0.0, tau - x[0])
        hi = x[3]
        for _ in range(50):
            mid = (lo + hi) / 2.0
            trial = np.array([x[0], x[1], x[2], mid])
            _, r, _ = exact(trial)
            if r[RESIDUAL_LABELS.index("sample_bias")] <= -1e-12:
                lo = mid
            else:
                hi = mid
        x[3] = lo
        alpha, residuals, vec = exact(x)
    cap_r = residuals[RESIDUAL_LABELS.index("list_capacity")]
    if 0.0 < cap_r < 5e-3:
        lo, hi = 0.0, x[2]
        for _ in range(50):
            mid = (lo + hi) / 2.0
            trial = np.array([x[0], x[1], mid, x[3]])
            _, r, _ = exact(trial)
            if r[RESIDUAL_LABELS.index("list_capacity")] <= -1e-12:
                lo = mid
            else:
                hi = mid
        x[2] = lo
        alpha, residuals, vec = exact(x)
    return x, alpha, residuals, vec, max(residuals)


def exponent_curve(algorithms, R_grid, seed=0, N_aux=1):
    """Exponent points for each named algorithm along a rate grid.

    Points come back algorithm-major in the given orders.  The dual
    attack is warm-started from the previous grid point and repaired
    wherever adjacent values jump by more than optimizer noise."""
    for a in algorithms:
        if a not in ALGORITHMS:
            raise DomainError("unknown algorithm " + repr(a))
    grid = [float(r) for r in R_grid]
    for r in grid:
        if not 0 < r < 1:
            raise DomainError("rate outside (0, 1)")
    out = []
    for alg in algorithms:
        if alg == "prange":
            for r in grid:
                tau = h2_inv(1.0 - r)
                out.append(ExponentPoint(r, tau, prange_exponent(r), None, True, [], alg))
        elif alg == "dumer":
            for r in grid:
                tau = h2_inv(1.0 - r)
                alpha = dumer_exponent(r, tau)[0]
                out.append(ExponentPoint(r, tau, alpha, None, True, [], alg))
        elif alg == "bjmm-eq":
            for r in grid:
                w = h2_inv(r)
                alpha = bjmm_eq_exponent(r, w)
                out.append(ExponentPoint(r, w, alpha, None, math.isfinite(alpha), [], alg))
        else:
            pts = []
            prev = None
            for r in grid:
                warm = None
                n_starts = 64 if prev is None else 20
                if prev is not None and prev.argmin is not None:
                    p = prev.argmin
                    warm = [np.array([p.sigma, p.R_aux, p.omega, p.mu])]
                pt = double_rlpn_exponent(r, N_aux=N_aux, restarts=n_starts, seed=seed, warm=warm)
                pts.append(pt)
                prev = pt
            pts = _smooth_curve(pts, seed, N_aux)
            out.extend(pts)
    return out


def _smooth_curve(pts, seed, N_aux):
    # re-run any point sitting above a neighbor by more than local slope
    # allows, warm-started from that neighbor
    for _ in range(2):
        changed = False
        for i in range(len(pts)):
            for j in (i - 1, i + 1):
                if not 0 <= j < len(pts):
                    continue
                a, b = pts[i], pts[j]
                if not (a.feasible and b.feasible):
                    continue
                if a.alpha - b.alpha <= 0.005:
                    continue
                p = b.argmin
                warm = [np.array([p.sigma, p.R_aux, p.omega, p.mu])]
                redo = double_rlpn_exponent(
                    a.R, tau=a.tau, N_aux=N_aux, restarts=8, seed=seed + 1, warm=warm
                )
                if redo.feasible and redo.alpha < a.alpha:
                    pts[i] = redo
                    changed = True
        if not changed:
            break
    return pts
