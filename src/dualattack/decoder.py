"""The double-RLPN decoder: bet on the error split, collect LPN samples,
score auxiliary secrets by Walsh transform, rebuild the P-side error by
stacked syndrome decoding, finish the N side in the shortened code.

Partition trials are independent; each derives its RNG stream from
(seed, trial_index), so results do not depend on execution order.
"""

import itertools
from fractions import Fraction
from math import ceil, comb

import numpy as np

from ._kernels import comb_xor_search, pack_rows
from .codes import Partition, as_bits, gf2_matmul, systematic_form
from .errors import BudgetExceeded, DomainError, RankDeficient
from .fourier import fft_decode, index_to_bits
from .krawtchouk import krawtchouk_exact
from .samples import AuxCode, build_sample_set, expected_pair_count


class DoubleRlpnParams:
    """Desk-scale parameter block for one decoding run."""

    def __init__(self, s, u, w, k_aux, t_aux, N_aux=1, N_iter=None,
                 sample_budget=None, seed=0):
        self.s = int(s)
        self.u = int(u)
        self.w = int(w)
        self.k_aux = int(k_aux)
        self.t_aux = int(t_aux)
        self.N_aux = int(N_aux)
        self.N_iter = None if N_iter is None else int(N_iter)
        self.sample_budget = None if sample_budget is None else int(sample_budget)
        self.seed = int(seed)
        if self.N_aux < 1:
            raise DomainError("need N_aux >= 1")
        if self.N_iter is not None and self.N_iter < 1:
            raise DomainError("need N_iter >= 1")
        if self.sample_budget is not None and self.sample_budget < 1:
            raise DomainError("need sample_budget >= 1")
        if min(self.s, self.u, self.w, self.k_aux, self.t_aux) < 0:
            raise DomainError("negative parameter")
        if self.s < 1 or self.k_aux < 1:
            raise DomainError("need s >= 1 and k_aux >= 1")

    def validate(self, n, k, t):
        if not (0 < self.s <= k):
            raise DomainError("need 0 < s <= k")
        if not (0 <= self.u <= t):
            raise DomainError("need 0 <= u <= t")
        if t - self.u > self.s:
            raise DomainError("need t - u <= s")
        if self.w > n - self.s:
            raise DomainError("need w <= n - s")
        if self.t_aux > self.s:
            raise DomainError("need t_aux <= s")
        if self.k_aux > self.s:
            raise DomainError("need k_aux <= s")


class BiasEstimate:
    """Exact bias of the LPN noise and the expected pair count."""

    def __init__(self, delta, htilde_expected):
        self.delta = Fraction(delta)
        self.htilde_expected = Fraction(htilde_expected)

    def constraint_report(self, n, alpha):
        """Whether the expected pair count reaches n^alpha / delta^2,
        compared in log2 to tolerate fractional alpha."""
        import math

        if self.delta == 0:
            return {"satisfied": False, "log2_pairs": None, "log2_required": None}
        log2_pairs = math.log2(self.htilde_expected)
        log2_required = alpha * math.log2(n) - 2 * math.log2(abs(self.delta))
        return {
            "satisfied": log2_pairs >= log2_required,
            "log2_pairs": log2_pairs,
            "log2_required": log2_required,
        }


def delta(params, n, k, t):
    """Bias K_w(u) K_t_aux(t-u) over the binomials, sign kept, and the
    expected pair count C(n-s, w) C(s, t_aux) / 2^(k - k_aux)."""
    params.validate(n, k, t)
    s, u, w, t_aux = params.s, params.u, params.w, params.t_aux
    d = (Fraction(krawtchouk_exact(n - s, w, u), comb(n - s, w))
         * Fraction(krawtchouk_exact(s, t_aux, t - u), comb(s, t_aux)))
    return BiasEstimate(d, expected_pair_count(n, k, s, w, t_aux,
                                               params.k_aux))


def p_succ(n, s, t, u):
    """Probability that a uniform size-(n-s) side holds exactly u of the
    t error positions, as an exact fraction (0 when impossible)."""
    if u < 0 or u > t or n - u - s < 0 or n - u - s > n - t:
        return Fraction(0)
    return Fraction(comb(t, u) * comb(n - t, n - u - s), comb(n, n - s))


def default_n_iter(p):
    """ceil(8 / p_succ); the bet holds in one of these with good odds."""
    if p <= 0:
        raise DomainError("success probability must be positive")
    return int(ceil(Fraction(8) / Fraction(p)))


def syndrome_decode_all(parity, syndrome, t, max_hits=1 << 22):
    """Every word e with parity e^T = syndrome and |e| = t, in canonical
    support order, by the subset-xor kernel over the parity columns."""
    parity = as_bits(np.atleast_2d(parity))
    syndrome = as_bits(syndrome).reshape(-1)
    nrows, ncols = parity.shape
    if syndrome.size != nrows:
        raise DomainError("syndrome length differs from parity rows")
    if t < 0 or t > ncols:
        return []
    idx = comb_xor_search(pack_rows(parity.T), pack_rows(syndrome)[0], t,
                          max_hits=max_hits)
    out = np.zeros((idx.shape[0], ncols), np.uint8)
    out[np.arange(idx.shape[0])[:, None], idx] = 1
    return list(out)


def solve_subproblem(code, part, y, v, u, sf=None):
    """Decode y_N - (y_P - v) R at exact distance u in the shortened code
    generated by Rprime; returns e_N or None."""
    if sf is None:
        sf = systematic_form(code, part)
    y = as_bits(y).reshape(-1)
    v = as_bits(v).reshape(-1)
    if v.size != part.s:
        raise DomainError("v must live on the P side")
    yp, yn = part.split(y)
    shift = gf2_matmul(((yp ^ v)).reshape(1, -1), sf.r)[0]
    yprime = yn ^ shift
    hn = sf.shortened_parity
    synd = gf2_matmul(yprime.reshape(1, -1), hn.T)[0]
    sols = syndrome_decode_all(hn, synd, u)
    if not sols:
        return None
    return sols[0]


def recover_e(candidate_sets, g_aux_list, part, y, code, t, u,
              sf=None, max_tuples=1 << 20):
    """Walk candidate tuples best-score first, decode each stacked
    syndrome to weight t-u on the P side, finish each survivor on the N
    side; return the first verified error word."""
    n_aux = len(candidate_sets)
    if len(g_aux_list) != n_aux:
        raise DomainError("one generator per candidate set")
    if any(len(cs) == 0 for cs in candidate_sets):
        return None
    total = 1
    for cs in candidate_sets:
        total *= len(cs)
    if total > max_tuples:
        raise BudgetExceeded("candidate tuple count %d exceeds budget" % total)
    if sf is None:
        sf = systematic_form(code, part)
    stacked = np.concatenate([as_bits(np.atleast_2d(g)) for g in g_aux_list])
    k_auxes = [np.atleast_2d(g).shape[0] for g in g_aux_list]
    y = as_bits(y).reshape(-1)
    for tup in itertools.product(*[cs.indices() for cs in candidate_sets]):
        synd = np.concatenate([index_to_bits(ui, ka)
                               for ui, ka in zip(tup, k_auxes)])
        for v in syndrome_decode_all(stacked, synd, t - u):
            e_n = solve_subproblem(code, part, y, v, u, sf=sf)
            if e_n is None:
                continue
            e = part.merge(v, e_n)
            if int(e.sum()) == t and code.contains(y ^ e):
                return e
    return None


def double_rlpn(instance, params, stats=None):
    """Run up to N_iter partition trials; return a verified weight-t
    error word or None.  A stats dict, when given, receives trials_used."""
    code, y, t = instance.code, instance.y, instance.t
    n, k = code.n, code.k
    params.validate(n, k, t)
    y = as_bits(y).reshape(-1)
    if stats is not None:
        stats["trials_used"] = 0
    if t == 0:
        return np.zeros(n, np.uint8) if code.contains(y) else None
    be = delta(params, n, k, t)
    if be.delta <= 0:
        raise DomainError("bias must be positive for threshold decoding")
    n_iter = params.N_iter
    if n_iter is None:
        n_iter = default_n_iter(p_succ(n, params.s, t, params.u))
    for trial in range(n_iter):
        if stats is not None:
            stats["trials_used"] = trial + 1
        rng = np.random.default_rng([params.seed, trial])
        sf = None
        for _ in range(200):
            part = Partition.random(n, params.s, rng)
            try:
                sf = systematic_form(code, part)
                break
            except RankDeficient:
                continue
        if sf is None:
            continue
        cand_sets, g_list = [], []
        for j in range(params.N_aux):
            aux = AuxCode.random(params.s, params.k_aux, params.t_aux,
                                 [params.seed, trial, j])
            ss = build_sample_set(code, part, params.w, aux,
                                  budget=params.sample_budget,
                                  seed=[params.seed, trial, j, 1], sf=sf)
            cs = fft_decode(y, ss, aux.code.generator, be.delta,
                            be.htilde_expected)
            if len(cs) == 0:
                break
            cand_sets.append(cs)
            g_list.append(aux.code.generator)
        if len(cand_sets) < params.N_aux:
            continue
        try:
            e = recover_e(cand_sets, g_list, part, y, code, t, params.u,
                          sf=sf)
        except BudgetExceeded:
            continue
        if e is not None:
            assert int(e.sum()) == t and code.contains(y ^ e)
            return e
    return None
