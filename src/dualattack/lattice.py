"""Score-distribution model for lattice dual attacks.

The score of a target point is a sum of N cosines over short dual
vectors of norm about w.  Its bulk is Gaussian, but targets unusually
close to the lattice add a heavy-tailed term driven by the closest
lattice distance through a Bessel transform.  Everything here is
predicted from sieve statistics (N, w) and the lattice volume alone;
no sieve is ever run.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .asymptotics import _split, _worker
from .errors import BudgetExceeded, DomainError

MODELS = ("refined", "floor", "independence")
PRESETS = ("fig3-left", "fig3-right")


def log_ball_volume(n):
    """log Vol of the unit Euclidean ball in dimension n, exact Gamma form."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


@dataclass(frozen=True)
class LatticeScoreParams:
    """Sieve statistics and lattice volume driving the score model.

    log_volume is the natural log of the lattice covolume."""

    n: int
    log_volume: float
    N: int
    w: float

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise DomainError("dimension must be even and >= 2")
        if self.N < 1:
            raise DomainError("need at least one dual vector")
        if not 0 < self.w < math.inf:
            raise DomainError("dual norm scale must be positive and finite")
        if not math.isfinite(self.log_volume):
            raise DomainError("log-volume must be finite")


def preset_params(name):
    """Published sieve statistics for the two reference experiments.

    The lattice volume is not printed alongside them, so it is inferred
    from (N, w) through the Gaussian heuristic on the dual: the volume
    is set so that exactly N dual vectors are expected at norm w."""
    if name == "fig3-left":
        n, N, w = 60, 5040, 0.0320
    elif name == "fig3-right":
        n, N, w = 80, 89494, 0.0376
    else:
        raise DomainError("unknown preset " + repr(name))
    log_dual_volume = log_ball_volume(n) + n * math.log(w) - math.log(N)
    return LatticeScoreParams(n, -log_dual_volume, N, w)


def log_gamma_rate(params):
    # rate of the shortest-length law: |Λ ∩ B_z| has mean theta z^n with
    # theta = Vol(B_1)/V, kept in log form
    return log_ball_volume(params.n) - params.log_volume


def log_bessel_j(k, xs):
    """Bessel function J_k of integer order over an array of arguments,
    as (sign, log of magnitude) arrays.

    Ascending series where cancellation is provably mild, downward
    recurrence with sum normalization otherwise.  The log form survives
    orders where the value itself under- or overflows a float."""
    xs = np.asarray(xs, dtype=np.float64)
    if k < 0 or not float(k).is_integer() or not np.all((xs >= 0) & (xs < np.inf)):
        raise DomainError("need an integer order k >= 0 and finite x >= 0")
    k = int(k)
    sign = np.zeros(xs.shape)
    logm = np.full(xs.shape, -np.inf)
    if k == 0:
        sign[xs == 0] = 1.0
        logm[xs == 0] = 0.0
    cut = max(0.85 * k, 2.0)
    ser = (xs > 0) & (xs <= cut)
    if ser.any():
        x = xs[ser]
        hh = 0.25 * x * x
        hmax = float(np.max(hh))
        s = np.zeros_like(x)
        c = np.ones_like(x)
        for m in range(160):
            s += c
            c *= -hh / ((m + 1.0) * (m + 1.0 + k))
            # stop where the 160-term sum is already reached: once
            # (m+2)(m+2+k) > max hh every later multiplier rounds to at most
            # 1 in magnitude, so no pending term exceeds |c|, and |c| below
            # |s| 2^-55 is under half the spacing of floats on either side
            # of s, so adding any of them rounds back to s
            if (m + 2.0) * (m + 2.0 + k) > hmax and np.all(np.abs(c) < np.abs(s) * 2.0 ** -55):
                break
        nz = s != 0.0
        sg = np.where(s > 0, 1.0, np.where(s < 0, -1.0, 0.0))
        lg = np.where(nz, k * np.log(0.5 * x) - math.lgamma(k + 1.0)
                      + np.log(np.abs(np.where(nz, s, 1.0))), -np.inf)
        sign[ser] = sg
        logm[ser] = lg
    rec = xs > cut
    if rec.any():
        x = xs[rec]
        xm = float(np.max(x))
        top = max(k, int(xm)) + int(math.sqrt(40.0 * max(k, int(xm), 1))) + 2
        if top % 2:
            top += 1
        # three buffers rotate: each step computes fm into the one fp
        # frees, which then holds 2 f for the norm until the next step
        fp = np.zeros_like(x)
        f = np.full_like(x, 1e-290)
        fm = np.empty_like(x)
        norm = 2.0 * f
        val = np.zeros_like(x)
        # a point far below the largest x can overflow between two rescale
        # checks, and its val or norm then stays inf or NaN to the end; such
        # points are redone in a call of their own.  The largest x sets the
        # start order and never overflows, so each such call has fewer
        # points than the last, and the other points keep their bits
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(top, 0, -1):
                np.divide(2.0 * m, x, out=fm)
                fm *= f
                fm -= fp
                fp, f, fm = f, fm, fp
                idx = m - 1
                if idx == k:
                    val = f.copy()
                if idx % 2 == 0:
                    norm += f if idx == 0 else np.multiply(2.0, f, out=fm)
                if m % 16 == 0:
                    big = np.abs(f) > 1e250
                    if big.any():
                        sc = np.where(big, 1e-250, 1.0)
                        fp *= sc
                        f *= sc
                        norm *= sc
                        val *= sc
            nz = val != 0.0
            sg = np.where(nz, np.sign(val / norm), 0.0)
            lg = np.where(nz, np.log(np.abs(np.where(nz, val, 1.0))) - np.log(np.abs(norm)), -np.inf)
        bad = ~(np.isfinite(val) & np.isfinite(norm))
        if bad.any():
            sg[bad], lg[bad] = log_bessel_j(k, x[bad])
        sign[rec] = sg
        logm[rec] = lg
    return sign, logm


def floor_value(params, j):
    """Dominant-term score G(j) when the closest lattice point sits at
    distance j, as (sign, log of magnitude): N sqrt(n pi)/e times
    (n/(2 pi e w j))^{n/2-1} J_{n/2-1}(2 pi w j)."""
    if not j > 0:
        raise DomainError("distance must be positive")
    n, w = params.n, params.w
    k = n // 2 - 1
    sign, lj = log_bessel_j(k, [2.0 * math.pi * w * j])
    lead = (math.log(params.N) + 0.5 * math.log(n * math.pi) - 1.0
            + k * (math.log(n) - math.log(2.0 * math.pi * math.e * w * j)))
    return float(sign[0]), lead + float(lj[0])


def _floor_scores(params, log_j):
    # plain-float G over an array of log-distances; magnitudes are at
    # most about N here so the exp cannot overflow, and underflow to 0
    # is the right reading of a vanishing Bessel tail
    n, w = params.n, params.w
    k = n // 2 - 1
    x = np.exp(math.log(2.0 * math.pi * w) + log_j)
    sign, lj = log_bessel_j(k, x)
    lead = (math.log(params.N) + 0.5 * math.log(n * math.pi) - 1.0
            + k * (math.log(n) - math.log(2.0 * math.pi * math.e * w) - log_j))
    return sign * np.exp(np.minimum(lead + lj, 700.0))


@dataclass(frozen=True)
class SurvivalCurve:
    thresholds: np.ndarray
    survival: dict
    ci_low: dict
    ci_high: dict
    meta: dict


def _strata():
    # u = theta j_0^n is a unit exponential; half-decade strata down to
    # 1e-18 resolve floor probabilities far below plain MC reach
    edges = np.concatenate(([0.0], 10.0 ** np.arange(-18.0, 2.001, 0.5)))
    pairs = list(zip(edges[:-1], edges[1:]))
    pairs.append((float(edges[-1]), math.inf))
    return pairs


def _walk(params, t, key, base, terms, strata):
    # the strata of survival_refined in the range strata, each as (scale,
    # mean and variance of the refined crossing probability, mean and
    # variance of the floor hit) over its base draws.  The generator is
    # rebuilt from key and every stratum below the range's end is drawn in
    # order, so each process that runs a range sees the draws the
    # one-process loop would; one threshold table per process, and its hit
    # table, are reused across strata
    from scipy.special import erfc

    rng = np.random.default_rng(key)
    log_theta = log_gamma_rate(params)
    c = math.sqrt(0.5 * params.N) * math.sqrt(2.0)  # sigma sqrt(2)
    buf = np.empty((base, len(t)))
    hit = np.empty(buf.shape, dtype=bool)
    out = []
    for i, (a, b) in enumerate(_strata()[:strata.stop]):
        if math.isinf(b):
            u = a + rng.exponential(1.0, base)
            scale = math.exp(-a)
        else:
            # exact stratum mass with inverse-CDF conditional draws, so
            # the stratum weights sum to one with no sampling noise
            span = -math.expm1(a - b)
            u = a - np.log1p(-rng.uniform(0.0, 1.0, base) * span)
            scale = math.exp(-a) * span
        if i < strata.start:
            for _ in range(terms - 1):
                rng.exponential(1.0, base)
            continue
        u = np.maximum(u, 1e-300)
        x_floor = _floor_scores(params, (np.log(u) - log_theta) / params.n)
        for _ in range(terms - 1):
            u = u + rng.exponential(1.0, base)
            x_floor = x_floor + _floor_scores(params, (np.log(u) - log_theta) / params.n)

        np.subtract(t[None, :], x_floor[:, None], out=buf)
        buf /= c
        erfc(buf, out=buf)
        buf *= 0.5
        # numpy's mean and var, whose axis-0 sums add rows in order, with
        # the variance's deviations squared in place
        qm = buf.sum(axis=0) / base
        buf -= qm
        np.square(buf, out=buf)
        qv = buf.sum(axis=0) / base
        # a hit, as a float, deviates from its mean hm by 1 - hm or by -hm
        np.greater_equal(x_floor[:, None], t[None, :], out=hit)
        hm = np.count_nonzero(hit, axis=0) / base
        np.copyto(buf, hm * hm)
        np.copyto(buf, (1.0 - hm) * (1.0 - hm), where=hit)
        out.append((scale, qm, qv, hm, buf.sum(axis=0) / base))
    return out


def survival_refined(params, grid, mc_trials=200000, seed=0, shortest_terms=1):
    """Monte-Carlo survival curves of the dual-attack score.

    Draws the closest-vector contribution by stratified sampling of the
    exponential arrival variable, adds the Gaussian bulk of N cosines in
    closed form per sample, and reports three curves: the convolution
    ("refined"), the closest-vector part alone ("floor"), and the
    independence-assumption Gaussian alone ("independence"), each with a
    95% band.  shortest_terms > 1 adds later arrivals to the floor sum.

    On a machine with two or more cores and fork, a forked worker process
    runs the first half of the strata while this process runs the rest,
    through the exponent search's split (asymptotics._split); each draws
    its own strata from the same seed, and the curves are the same bit for
    bit as in one process.  The table cap holds per
    process: at the peak each of the two processes holds one
    (trials per stratum) x (thresholds) float64 table and a boolean hit
    table of the same shape.  Tables over 2^25 cells (256 MiB plus
    32 MiB, so about 0.3 GB per process at the peak) raise
    BudgetExceeded before anything is drawn or forked."""
    from scipy.special import erfc

    if mc_trials < 10 ** 5:
        raise DomainError("need at least 1e5 trials")
    if shortest_terms < 1:
        raise DomainError("shortest_terms must be >= 1")
    t = np.asarray(grid, dtype=np.float64)
    if t.ndim != 1 or len(t) == 0 or not np.all(np.isfinite(t)):
        raise DomainError("threshold grid must be 1-d and finite")
    if len(t) > 1 and not np.all(np.diff(t) > 0):
        raise DomainError("threshold grid must be strictly increasing")

    log_theta = log_gamma_rate(params)
    sigma = math.sqrt(0.5 * params.N)
    n_strata = len(_strata())
    base = mc_trials // n_strata
    if base * len(t) > 1 << 25:
        raise BudgetExceeded(f"{base} trials per stratum x {len(t)} thresholds exceeds 2^25 cells")

    key = [seed, params.n, params.N, shortest_terms]
    with _worker() as pool:
        strata = _split(pool, partial(_walk, params, t, key, base, shortest_terms),
                        range(n_strata), n_strata // 2)

    ref = np.zeros(len(t))
    ref_var = np.zeros(len(t))
    flo = np.zeros(len(t))
    flo_var = np.zeros(len(t))
    for scale, qm, qv, hm, hv in strata:
        ref += scale * qm
        ref_var += scale * scale * qv / base
        flo += scale * hm
        flo_var += scale * scale * hv / base

    curves = {
        "refined": np.clip(ref, 0.0, 1.0),
        "floor": np.clip(flo, 0.0, 1.0),
        "independence": 0.5 * erfc(t / math.sqrt(params.N)),
    }
    half = {
        "refined": 1.96 * np.sqrt(ref_var),
        "floor": 1.96 * np.sqrt(flo_var),
        "independence": np.zeros(len(t)),
    }
    lo = {m: np.clip(curves[m] - half[m], 0.0, 1.0) for m in MODELS}
    hi = {m: np.clip(curves[m] + half[m], 0.0, 1.0) for m in MODELS}
    meta = {
        "seed": seed,
        "mc_trials": base * n_strata,
        "shortest_terms": shortest_terms,
        "threshold_units": "raw score",
        "log_theta": log_theta,
        "sigma": sigma,
    }
    return SurvivalCurve(t, curves, lo, hi, meta)
