"""Output checks, computed apart from the program.

Each check takes one operation's output and returns a list of problems;
an empty list means the output passed.  The GF(2) algebra, binomials,
entropy and erfc used here are written out in this file rather than
taken from dualattack, so a fault in the program cannot also hide in
its own check.  `self_check` feeds each checker a deliberately
corrupted copy of a real output and fails when the checker accepts it.
"""

import dataclasses
import math
from fractions import Fraction
from math import comb

import numpy as np


# ---------------------------------------------------------------------------
# GF(2) algebra on rows packed into Python integers

def _row_ints(bits):
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    return [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little")
            for r in bits]


def gf2_rank(rows):
    """Rank of a list of integer bit rows, by elimination on leading bits."""
    basis = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(basis)


def in_row_space(generator, word):
    rows = _row_ints(generator)
    return gf2_rank(rows + _row_ints(word)) == gf2_rank(rows)


def right_inverse(g):
    """(pivot columns, inverse) with g[:, pivots] @ inverse = I over GF(2),
    for a full-row-rank 0/1 matrix g."""
    g = np.asarray(g, dtype=np.uint8) & 1
    k, n = g.shape
    work = g.copy()
    pivots = []
    row = 0
    for col in range(n):
        nz = np.nonzero(work[row:, col])[0]
        if nz.size == 0:
            continue
        p = row + nz[0]
        work[[row, p]] = work[[p, row]]
        for r in range(k):
            if r != row and work[r, col]:
                work[r] ^= work[row]
        pivots.append(col)
        row += 1
        if row == k:
            break
    if row < k:
        raise ValueError("generator rows are dependent")
    aug = np.concatenate([g[:, pivots], np.eye(k, dtype=np.uint8)], axis=1)
    for c in range(k):
        p = c + int(np.nonzero(aug[c:, c])[0][0])
        aug[[c, p]] = aug[[p, c]]
        for r in range(k):
            if r != c and aug[r, c]:
                aug[r] ^= aug[c]
    return pivots, aug[:, k:]


def _h2(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _h2_inv(v):
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _h2(mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# decode-batch

def p_succ(n, s, t, u):
    """Chance that a random (n-s)-side holds exactly u of t error positions."""
    return Fraction(comb(t, u) * comb(n - t, n - s - u), comb(n, n - s))


def check_decode(out, cfg):
    """out: generator, y, e (or None) and trials_used of one decode."""
    problems = []
    n, t = cfg["n"], cfg["t"]
    limit = math.ceil(Fraction(8) / p_succ(n, cfg["s"], t, cfg["u"]))
    if not 1 <= out["trials_used"] <= min(limit, cfg["N_iter"]):
        problems.append("trials_used %d outside [1, min(ceil(8/p_succ)=%d, N_iter)]"
                        % (out["trials_used"], limit))
    e = out["e"]
    if e is not None:
        e = np.asarray(e, dtype=np.uint8)
        if int(e.sum()) != t:
            problems.append("decoded e has weight %d, not %d" % (int(e.sum()), t))
        if not in_row_space(out["generator"], np.asarray(out["y"]) ^ e):
            problems.append("y xor e is not a codeword")
    return problems


def check_decode_run(found, trials, cfg):
    """A working decoder finds the error on at least a quarter of the
    trials whose split bet is right; far fewer means it is broken."""
    floor = float(p_succ(cfg["n"], cfg["s"], cfg["t"], cfg["u"])) / 4.0
    if trials and found < floor * trials:
        return ["found %d errors in %d trials, below p_succ/4" % (found, trials)]
    return []


# ---------------------------------------------------------------------------
# survival-desk

def check_survival(out, cfg):
    """out: experimental, poisson and independence counts on one grid."""
    problems = []
    exp, poi, ind = (np.asarray(out[k], dtype=np.float64)
                     for k in ("experimental", "poisson", "independence"))
    for label, counts in (("experimental", exp), ("poisson", poi),
                          ("independence", ind)):
        if np.any(np.diff(counts) > 0):
            problems.append(label + " counts increase")
    if exp.size == 0 or exp[0] != 2 ** cfg["k_aux"] - 1:
        problems.append("count at the lowest threshold is not 2^k_aux - 1")
    if out["samples"] != cfg["sample_budget"]:
        problems.append("%r samples, not %d" % (out["samples"], cfg["sample_budget"]))
    both = (exp >= 3) & (poi >= 3)
    if not both.any():
        problems.append("no threshold where both curves hold 3 candidates")
    else:
        ratio = poi[both] / exp[both]
        if ratio.min() < 0.1 or ratio.max() > 10.0:
            problems.append("poisson/experimental ratio leaves [0.1, 10]: [%.3g, %.3g]"
                            % (ratio.min(), ratio.max()))
    return problems


def check_pairs(code, part, aux, samples, y, scores, cfg, rng):
    """Traced run only: every pair is a dual word of weight w on N with
    h_P within t_aux of its auxiliary codeword, and a few transformed
    scores equal the direct sign sum over the pairs."""
    problems = []
    hn = np.asarray(samples.hn, dtype=np.uint8)
    hp = np.asarray(samples.hp, dtype=np.uint8)
    caux = np.asarray(samples.caux, dtype=np.uint8)
    if hn.shape[0] != cfg["sample_budget"]:
        problems.append("%d pairs, not %d" % (hn.shape[0], cfg["sample_budget"]))
    h = np.zeros((hn.shape[0], code.n), np.uint8)
    h[:, part.npos] = hn
    h[:, part.ppos] = hp
    g = np.asarray(code.generator, dtype=np.int64)
    if np.any((h.astype(np.int64) @ g.T) & 1):
        problems.append("a pair's h is not orthogonal to the code")
    if np.any(hn.sum(axis=1) != cfg["w"]):
        problems.append("a pair has |h_N| != w")
    if np.any((hp ^ caux).sum(axis=1) != cfg["t_aux"]):
        problems.append("a pair has |h_P + c_aux| != t_aux")
    gaux = np.asarray(aux.code.generator, dtype=np.uint8)
    pivots, inv = right_inverse(gaux)
    msgs = (caux[:, pivots].astype(np.int64) @ inv.astype(np.int64)) & 1
    if np.any(((msgs @ gaux.astype(np.int64)) & 1) != caux):
        problems.append("a c_aux lies outside the auxiliary code")
    yv = np.asarray(y, dtype=np.int64)
    label = (h.astype(np.int64) @ yv) & 1
    k_aux = gaux.shape[0]
    picks = [int(np.argmax(scores))] + [int(x) for x in rng.integers(0, 1 << k_aux, 3)]
    for x in picks:
        xbits = (x >> np.arange(k_aux)) & 1
        direct = int(np.sum(1 - 2 * ((label + msgs @ xbits) & 1)))
        if direct != int(scores[x]):
            problems.append("score of candidate %d is %d, direct sum %d"
                            % (x, int(scores[x]), direct))
    return problems


# ---------------------------------------------------------------------------
# exponent-point

def check_exponent(out, cfg, objective):
    """out: the four ExponentPoints at rate R; objective is the program's
    public double_rlpn_objective, re-evaluated at the reported argmin."""
    problems = []
    R = cfg["R"]
    pts = {p.algorithm: p for p in out["points"]}
    dr, du, pr = pts["double-rlpn"], pts["dumer"], pts["prange"]
    tau = _h2_inv(1.0 - R)
    prange = _h2(tau) - (1.0 - R) * _h2(tau / (1.0 - R))
    if not dr.feasible or dr.argmin is None:
        problems.append("double-rlpn point is not feasible")
        return problems
    if abs(dr.tau - tau) > 1e-9:
        problems.append("tau %.12g is not the GV distance %.12g" % (dr.tau, tau))
    if max(dr.constraint_residuals) > 1e-9:
        problems.append("reported residual %.3g > 1e-9" % max(dr.constraint_residuals))
    alpha, residuals = objective(R, dr.tau, dr.argmin)
    if alpha != dr.alpha:
        problems.append("re-evaluated alpha %.17g != %.17g" % (alpha, dr.alpha))
    if max(residuals) > 1e-9:
        problems.append("re-evaluated residual %.3g > 1e-9" % max(residuals))
    if abs(pr.alpha - prange) > 1e-9:
        problems.append("prange %.12g != closed form %.12g" % (pr.alpha, prange))
    if not dr.alpha < du.alpha < prange:
        problems.append("ordering alpha < dumer < prange fails: %.6g, %.6g, %.6g"
                        % (dr.alpha, du.alpha, prange))
    return problems


# ---------------------------------------------------------------------------
# lattice-fig3

def check_lattice(out):
    """out: one SurvivalCurve of survival_refined and the preset's N."""
    problems = []
    curve = out["curve"]
    t = np.asarray(curve.thresholds, dtype=np.float64)
    for model, vals in curve.survival.items():
        v = np.asarray(vals, dtype=np.float64)
        lo = np.asarray(curve.ci_low[model])
        hi = np.asarray(curve.ci_high[model])
        if np.any(v < 0.0) or np.any(v > 1.0):
            problems.append(model + " leaves [0, 1]")
        if np.any(np.diff(v) > 1e-12):
            problems.append(model + " increases")
        if np.any(lo > v) or np.any(v > hi):
            problems.append(model + " lies outside its band")
    N = out["N"]
    ind = np.array([0.5 * math.erfc(x / math.sqrt(N)) for x in t])
    got = np.asarray(curve.survival["independence"])
    if np.any(np.abs(got - ind) > 1e-13 + 1e-9 * ind):
        problems.append("independence curve differs from erfc(t/sqrt(N))/2")
    # criterion 8: the refined curve follows the Gaussian at one sigma,
    # then stays decades above it at the largest threshold
    ref = np.asarray(curve.survival["refined"])
    near = int(np.searchsorted(t, math.sqrt(0.5 * N)))
    if not 0.5 <= ref[near] / ind[near] <= 2.0:
        problems.append("refined/independence at sigma is %.3g" % (ref[near] / ind[near]))
    if not ref[-1] >= 10.0 * ind[-1]:
        problems.append("no floor: refined %.3g < 10 x independence %.3g"
                        % (ref[-1], ind[-1]))
    return problems


# ---------------------------------------------------------------------------
# the checks must reject corrupted outputs

def _corrupt_decode(outs):
    # a decoded e when the batch has one, else an all-zero word
    i = next((i for i, out in enumerate(outs) if out["e"] is not None), 0)
    e = outs[i]["e"]
    bad = list(outs)
    bad[i] = dict(outs[i], e=np.zeros(len(outs[i]["y"]), np.uint8) if e is None
                  else np.asarray(e, dtype=np.uint8).copy())
    bad[i]["e"][0] ^= 1
    return bad


def _corrupt_survival(out):
    bad = dict(out)
    exp = list(out["experimental"])
    i = 1 + len(exp) // 2
    exp[i] = exp[i - 1] + 1.0
    bad["experimental"] = exp
    return bad


def _corrupt_exponent(out):
    bad = dict(out)
    pts = []
    for p in out["points"]:
        if p.algorithm == "double-rlpn":
            res = list(p.constraint_residuals)
            res[0] = 1e-3
            p = dataclasses.replace(p, constraint_residuals=res)
        pts.append(p)
    bad["points"] = pts
    return bad


def _corrupt_lattice(out):
    bad = dict(out)
    curve = out["curve"]
    surv = {m: np.array(v, dtype=np.float64) for m, v in curve.survival.items()}
    surv["refined"][0] = 1.0 + 1e-6
    bad["curve"] = type(curve)(curve.thresholds, surv, curve.ci_low,
                               curve.ci_high, curve.meta)
    return bad


CORRUPT = {
    "decode-batch": _corrupt_decode,
    "survival-desk": _corrupt_survival,
    "exponent-point": _corrupt_exponent,
    "lattice-fig3": _corrupt_lattice,
}


def self_check(workload, check, out):
    """Problems found in the real output, or the checker's failure to
    reject its corrupted copy."""
    problems = check(out)
    if problems:
        return problems
    if not check(CORRUPT[workload](out)):
        return ["the %s check accepted a corrupted output" % workload]
    return []
