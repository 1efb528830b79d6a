"""Brute-force verification of the score identity and the survival
models for wrong-candidate counts.

Everything here enumerates small product sets exactly or simulates the
counting model; nothing is asymptotic.  The score identity equates the
empirical bias of a candidate x over the full pair set with a
Krawtchouk-weighted sum over the joint weight counts N_{i,j}; it holds
with exact rational arithmetic on every instance, which makes it the
strongest oracle in the repository.
"""

from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from math import comb

import numpy as np

from ._kernels import pack_rows, popcount_rows, xor_closure
from .asymptotics import _split, _worker
from .codes import as_bits, draw_partition, gf2_matmul, systematic_form
from .decoder import DoubleRlpnParams
from .errors import BudgetExceeded, DomainError, EmptySamples
from .fourier import bits_to_index, build_f, wht
from .krawtchouk import KrawtchoukTable
from .samples import AuxCode, build_sample_set, expected_pair_count

CURVE_LABELS = ("experimental", "poisson", "independence")

_CHUNK = 4096
_SLICE = 1024
MIN_POISSON_TRIALS = 10 ** 4
# the statistics take 256 MiB at the cap, twice that while their blocks
# are joined
MAX_POISSON_TRIALS = 1 << 25


class ModelParams:
    """Numeric context for the survival models: code dimensions plus the
    decoder parameters the score statistic depends on."""

    def __init__(self, n, k, t, s, u, w, k_aux, t_aux):
        self.n = int(n)
        self.k = int(k)
        self.t = int(t)
        self.s = int(s)
        self.u = int(u)
        self.w = int(w)
        self.k_aux = int(k_aux)
        self.t_aux = int(t_aux)
        if not (0 < self.k <= self.n):
            raise DomainError("need 0 < k <= n")
        if not (0 <= self.t <= self.n):
            raise DomainError("need 0 <= t <= n")
        DoubleRlpnParams(s=self.s, u=self.u, w=self.w, k_aux=self.k_aux,
                         t_aux=self.t_aux).validate(self.n, self.k, self.t)

    def expected_pairs(self):
        return expected_pair_count(self.n, self.k, self.s, self.w,
                                   self.t_aux, self.k_aux)


def check_joint_budget(k, s, k_aux):
    """Raise BudgetExceeded unless the exhaustive joint weight count fits
    its budget on the parameters alone: 2^(s - k_aux) coset words with
    s - k_aux <= 12, and 2^(k - s) codewords with k - s <= 14."""
    if s - k_aux > 12 or k - s > 14:
        raise BudgetExceeded(f"joint weight enumeration needs s - k_aux <= 12 "
                             f"and k - s <= 14, got {s - k_aux} and {k - s}")


def joint_weight_counts(code, aux, part, e, x):
    """Exhaustive N_{i,j} over (x + dual aux code) x (large-side code),
    as an int64 matrix: i is the weight on the large side after the
    linear shift, j the weight of the coset word on the small side."""
    n, k, s = code.n, code.k, part.s
    check_joint_budget(k, s, aux.k_aux)
    e = as_bits(e).reshape(-1)
    x = as_bits(x).reshape(-1)
    if e.size != n or x.size != s:
        raise DomainError("e lives on the full support, x on the P side")
    sf = systematic_form(code, part)
    ep, en = part.split(e)
    coset = xor_closure(aux.code.parity) ^ x
    jw = coset.sum(axis=1).astype(np.int64)
    shifted = gf2_matmul(coset ^ ep, sf.r) ^ en
    cn = xor_closure(sf.rprime)
    cn_words = pack_rows(cn)
    counts = np.zeros((n - s + 1, s + 1), np.int64)
    for row, j in zip(pack_rows(shifted), jw):
        iw = popcount_rows(cn_words ^ row)
        counts[:, j] += np.bincount(iw, minlength=n - s + 1)
    return counts


def duality_check(code, aux, part, e, y, x, w):
    """Both sides of the score identity as exact rationals.

    The left side averages the sign of <y,h> + <x, c_aux> over every
    pair at weight w; the right side is the Krawtchouk-weighted count
    sum divided by 2^(k - k_aux).  They must agree exactly whenever
    y - e is a codeword.
    """
    n, k, s = code.n, code.k, part.s
    y = as_bits(y).reshape(-1)
    e = as_bits(e).reshape(-1)
    x = as_bits(x).reshape(-1)
    if not code.contains(y ^ e):
        raise DomainError("y - e must be a codeword")
    ss = build_sample_set(code, part, w, aux)
    if ss.count == 0:
        raise EmptySamples("no pairs at this weight")
    yp, yn = part.split(y)
    par = (gf2_matmul(ss.hn, yn.reshape(-1, 1))
           ^ gf2_matmul(ss.hp, yp.reshape(-1, 1))
           ^ gf2_matmul(ss.caux, x.reshape(-1, 1)))[:, 0]
    lhs = Fraction(int(ss.count) - 2 * int(par.sum()), ss.count)
    counts = joint_weight_counts(code, aux, part, e, x)
    kw = KrawtchoukTable(n - s, w)
    kt = KrawtchoukTable(s, ss.t_aux)
    ksum = 0
    for i in range(n - s + 1):
        row = counts[i]
        if not row.any():
            continue
        kwi = kw.value(i)
        for j in range(s + 1):
            c = int(row[j])
            if c:
                ksum += c * kwi * kt.value(j)
    rhs = Fraction(ksum, (1 << (k - aux.k_aux)) * ss.count)
    return lhs, rhs


class SurvivalCurve:
    """Threshold grid with expected (or observed) counts of candidates
    scoring at or above each threshold, plus 95% Wilson bands."""

    def __init__(self, label, thresholds, counts, ci_low=None, ci_high=None,
                 meta=None):
        if label not in CURVE_LABELS:
            raise DomainError("unknown curve label %r" % (label,))
        self.label = label
        self.thresholds = [float(t) for t in thresholds]
        self.counts = [float(c) for c in counts]
        self.ci_low = list(self.counts) if ci_low is None else \
            [float(c) for c in ci_low]
        self.ci_high = list(self.counts) if ci_high is None else \
            [float(c) for c in ci_high]
        self.meta = dict(meta or {})
        if sorted(self.thresholds) != self.thresholds:
            raise DomainError("thresholds must ascend")
        for a, b in zip(self.counts, self.counts[1:]):
            if b > a + 1e-9 * max(1.0, abs(a)):
                raise DomainError("survival counts must not increase")

    def __len__(self):
        return len(self.thresholds)

    def rows(self):
        for t, c, lo, hi in zip(self.thresholds, self.counts,
                                self.ci_low, self.ci_high):
            yield self.label, t, c, lo, hi


def wilson_interval(hits, trials):
    """95% score interval for a binomial proportion, elementwise over an
    array of hit counts."""
    z = 1.959963984540054
    if trials <= 0:
        raise DomainError("need at least one trial")
    p = np.asarray(hits) / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials
                                 + z * z / (4 * trials * trials))
    return np.maximum(0.0, center - half), np.minimum(1.0, center + half)


def _threshold_grid(values, grid):
    # at most 512 natural thresholds, taken at quantiles of the distinct
    # values.  Both callers sort values first, so the distinct ones are
    # those unequal to their predecessor: a mask, not np.unique's copy
    if grid is not None:
        return np.asarray(grid, dtype=np.float64)
    keep = np.empty(values.size, bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    uniq = values[keep]
    if uniq.size <= 512:
        return uniq
    qs = np.linspace(0.0, 1.0, 512)
    return np.unique(np.quantile(uniq, qs, method="nearest"))


def model_intensities(nparams):
    """Poisson intensities of the counting model: the small-side weight
    classes at C(s,j)/2^k_aux, and the per-coset-word large-side factor
    C(n-s,i)/2^(n-k)."""
    lam_j = np.array([comb(nparams.s, j) for j in range(nparams.s + 1)],
                     dtype=np.float64) / 2.0 ** nparams.k_aux
    lam_i = np.array([comb(nparams.n - nparams.s, i)
                      for i in range(nparams.n - nparams.s + 1)],
                     dtype=np.float64) / 2.0 ** (nparams.n - nparams.k)
    return lam_j, lam_i


def _weight_classes(coef, lam):
    # weights grouped by Krawtchouk value, intensities summed, value 0 dropped
    vals, cls = np.unique(coef, return_inverse=True)
    keep = vals != 0
    return vals[keep], np.bincount(cls, lam)[keep]


def _poisson_blocks(lam_j, lam_i, kw, kt, seed, trials, blocks):
    # the raw statistics of the blocks in range blocks, one array each: block
    # b holds trials b _CHUNK on and draws from its own generator [seed, b, 1].
    # A zero mean draws nothing, so rows with nj = 0 are skipped, and the
    # rows' cells are drawn _SLICE rows at a time, which keeps the stream
    # order; the cell sums are integers below 2^53, exact in any order
    out = []
    for b in blocks:
        m = min(_CHUNK, trials - b * _CHUNK)
        rng = np.random.default_rng([seed, b, 1])
        nj = rng.poisson(lam=np.broadcast_to(lam_j, (m, lam_j.size)))
        trial, j = np.nonzero(nj)
        cells = np.empty(trial.size, np.float64)
        for lo in range(0, trial.size, _SLICE):
            rows = nj[trial[lo:lo + _SLICE], j[lo:lo + _SLICE]]
            cells[lo:lo + _SLICE] = rng.poisson(lam=rows[:, None] * lam_i[None, :]) @ kw
        out.append(np.bincount(trial, cells * kt[j], m))
    return out


def poisson_statistics(nparams, trials, seed=0, n_samples=None):
    """Monte-Carlo draws of the wrong-candidate score under the Poisson
    counting model, on the raw-score axis.

    Cell counts N_{i,j} are Poisson with a Poisson-mixed row intensity;
    the statistic is the Krawtchouk-weighted cell sum over 2^(k-k_aux).
    When n_samples is given the score is rescaled by
    n_samples / E[pairs], putting a subsampled experiment on the same
    axis.  Weight classes that share a Krawtchouk value (j and s - j for
    t_aux = 2) are drawn as one Poisson of their summed intensity, which
    is exact in law, and classes of value 0 are not drawn at all.

    The trials are drawn in blocks of _CHUNK, block b from its own
    generator default_rng([seed, b, 1]), which no other draw of a survival
    run uses, so each block's draws depend only on
    the parameters, the seed, b and the block's length.  On a machine with
    two or more cores and fork, a forked worker draws the first half of
    the blocks while this process draws the rest, through the exponent
    search's split (asymptotics._split); the output is the same bit for
    bit with any number of cores.  More than MAX_POISSON_TRIALS trials
    raise BudgetExceeded before anything is drawn or forked.
    """
    if trials > MAX_POISSON_TRIALS:
        raise BudgetExceeded(f"{trials} Poisson trials exceed {MAX_POISSON_TRIALS}")
    np_ = nparams
    lam_j, lam_i = model_intensities(nparams)
    kt, lam_j = _weight_classes(KrawtchoukTable(np_.s, np_.t_aux).as_float(), lam_j)
    kw, lam_i = _weight_classes(KrawtchoukTable(np_.n - np_.s, np_.w).as_float(), lam_i)
    scale = 1.0 / 2.0 ** (np_.k - np_.k_aux)
    if n_samples is not None:
        scale *= float(n_samples) / float(np_.expected_pairs())
    nb = -(-trials // _CHUNK)
    with _worker() if nb > 1 else nullcontext() as pool:
        blocks = _split(pool, partial(_poisson_blocks, lam_j, lam_i, kw, kt, seed, trials),
                        range(nb), nb // 2)
    stats = np.concatenate([np.empty(0), *blocks])
    stats *= scale
    return stats


def poisson_survival(nparams, trials=10 ** 5, seed=0, n_samples=None,
                     grid=None):
    """Survival curve of the Poisson counting model, scaled to the
    expected number of candidates out of 2^k_aux."""
    if trials < MIN_POISSON_TRIALS:
        raise DomainError(f"need at least {MIN_POISSON_TRIALS} trials")
    stats = poisson_statistics(nparams, trials, seed=seed, n_samples=n_samples)
    stats.sort()
    meta = {
        "axis": "score",
        "pair_expectation": float(nparams.expected_pairs()),
        "samples": (float(nparams.expected_pairs())
                    if n_samples is None else float(n_samples)),
        "trials": int(trials),
    }
    thresholds = _threshold_grid(stats, grid)
    hits = trials - np.searchsorted(stats, thresholds, side="left")
    lo, hi = wilson_interval(hits, trials)
    scale = 2.0 ** nparams.k_aux
    return SurvivalCurve("poisson", thresholds, scale * hits / trials,
                         scale * lo, scale * hi, meta)


def independence_survival(nparams, n_samples, grid):
    """Survival curve when scores are sums of n_samples fair signs: the
    exact binomial tail, through the regularized incomplete beta, at
    every sample count.

    P[Bin(n, 1/2) > k] is betainc(k + 1, n - k, 1/2) for 0 <= k < n, 1
    below and 0 from n on: the values and edges of scipy.stats.binom.sf,
    bit for bit on scipy 1.17.1, without importing scipy.stats."""
    from scipy.special import betainc

    n_samples = int(n_samples)
    if n_samples < 1:
        raise DomainError("need n_samples >= 1")
    thresholds = np.asarray(grid, dtype=np.float64)
    k = np.ceil((thresholds + n_samples) / 2.0) - 1
    tail = (k < 0).astype(np.float64)
    inside = (k >= 0) & (k < n_samples)
    tail[inside] = betainc(k[inside] + 1, n_samples - k[inside], 0.5)
    counts = 2.0 ** nparams.k_aux * tail
    meta = {"axis": "score", "samples": float(n_samples)}
    return SurvivalCurve("independence", thresholds, counts, meta=meta)


def experimental_survival(instance, params, num_x="all", seed=0, grid=None):
    """Observed wrong-candidate survival on one planted instance.

    Draws partitions until the planted split matches the bet (try i from
    default_rng([seed, i, 2]), a key family no other draw of a survival
    run uses), builds one auxiliary code and sample set (honouring
    params.sample_budget), runs the transform, and counts candidates at
    or above each threshold with the planted secret excluded.  With no
    pairs every candidate scores 0.
    """
    code, y, t = instance.code, instance.y, instance.t
    if instance.planted_e is None:
        raise DomainError("experimental curve needs the planted error")
    params.validate(code.n, code.k, t)
    e = as_bits(instance.planted_e).reshape(-1)
    part, sf = draw_partition(
        code, params.s,
        (np.random.default_rng([seed, tries, 2]) for tries in range(10000)),
        accept=lambda cand: int(cand.split(e)[1].sum()) == params.u)
    if part is None:
        raise DomainError("no partition matches the planted split")
    aux = AuxCode.random(params.s, params.k_aux, params.t_aux, [seed, 1])
    ss = build_sample_set(code, part, params.w, aux,
                          budget=params.sample_budget, seed=[seed, 2], sf=sf)
    meta = {
        "axis": "score",
        "samples": float(ss.count),
        "complete": bool(ss.complete),
        "pair_expectation": float(expected_pair_count(
            code.n, code.k, params.s, params.w, params.t_aux, params.k_aux)),
    }
    ep, _ = part.split(e)
    true_idx = bits_to_index(gf2_matmul(ep.reshape(1, -1),
                                        aux.code.generator.T)[0])
    # the pairs go once the table is built and the table once the wrong
    # candidates' scores are copied out; those are sorted in place below
    table = build_f(y, ss, aux.code.generator)
    del ss
    wrong = np.delete(wht(table).values, true_idx)
    del table
    if num_x != "all":
        num_x = int(num_x)
        if not (1 <= num_x <= wrong.size):
            raise DomainError("num_x out of range")
        sub = np.random.default_rng([seed, 3]).choice(
            wrong.size, size=num_x, replace=False)
        sample = wrong[np.sort(sub)]
        scale = wrong.size / num_x
    else:
        sample = wrong
        scale = 1.0
    sample.sort()
    thresholds = _threshold_grid(sample, grid)
    hits = sample.size - np.searchsorted(sample, thresholds, side="left")
    # an exhaustive scan counts exactly, so its band is the count itself
    lo = hi = None
    if scale != 1.0:
        lo, hi = wilson_interval(hits, sample.size)
        lo, hi = scale * sample.size * lo, scale * sample.size * hi
    meta["num_x"] = "all" if scale == 1.0 else int(sample.size)
    return SurvivalCurve("experimental", thresholds, scale * hits, lo, hi,
                         meta)
