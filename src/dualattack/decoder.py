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

from ._kernels import comb_search_fits, comb_xor_search_many, pack_rows
from .codes import as_bits, draw_partition, gf2_matmul
from .errors import BudgetExceeded, DomainError
from .fourier import MAX_SCORE_BITS, fft_decode, index_to_bits
from .krawtchouk import krawtchouk_exact
from .samples import (MAX_SYNDROME_PATTERNS, AuxCode, build_sample_set,
                      expected_pair_count)


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

    def tables_over_budget(self, n, t, searches=True):
        """Names of the tables whose size depends on the parameters alone
        and exceeds its budget, in the order a trial builds them: the
        dual enumeration's subset tables, with searches those of both
        syndrome searches of recover_e, the score table and the auxiliary
        syndrome table."""
        s, u = self.s, self.u
        tables = (
            ("enumeration", comb_search_fits(n - s, self.w)),
            ("P-side", not searches or comb_search_fits(s, t - u)),
            ("N-side", not searches or comb_search_fits(n - s, u)),
            ("score", self.k_aux <= MAX_SCORE_BITS),
            ("syndrome", comb(s, self.t_aux) <= MAX_SYNDROME_PATTERNS))
        return [name + " table" for name, fits in tables if not fits]


class BiasEstimate:
    """Exact bias of the LPN noise and the expected pair count."""

    def __init__(self, delta, htilde_expected):
        self.delta = Fraction(delta)
        self.htilde_expected = Fraction(htilde_expected)


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


def syndrome_decode_all(parity, syndromes, t):
    """Every word e with parity e^T = syndromes[i] and |e| = t, for each
    row i of the (T, nrows) syndromes (or one syndrome vector), by the
    multi-target subset-xor kernel over the parity columns.  Returns
    (owner, words): words[r] solves syndrome owner[r], sorted by owner and
    then in canonical support order."""
    parity = as_bits(np.atleast_2d(parity))
    syndromes = as_bits(np.atleast_2d(syndromes))
    nrows, ncols = parity.shape
    if syndromes.shape[1] != nrows:
        raise DomainError("syndrome length differs from parity rows")
    owner, idx = comb_xor_search_many(pack_rows(parity.T),
                                      pack_rows(syndromes), t)
    out = np.zeros((idx.shape[0], ncols), np.uint8)
    out[np.arange(idx.shape[0])[:, None], idx] = 1
    return owner, out


def solve_subproblem(code, part, y, vs, u, sf):
    """Decode y_N - (y_P - v) R at exact distance u in the shortened code
    generated by Rprime, for each row v of vs (or one v); returns
    (owner, e_ns) as syndrome_decode_all does.  sf is the systematic form
    of code against part."""
    y = as_bits(y).reshape(-1)
    vs = as_bits(np.atleast_2d(vs))
    if vs.shape[1] != part.s:
        raise DomainError("v must live on the P side")
    yp, yn = part.split(y)
    yprime = yn ^ gf2_matmul(yp ^ vs, sf.r)
    hn = sf.shortened_parity
    return syndrome_decode_all(hn, gf2_matmul(yprime, hn.T), u)


# largest tuple product recover_e walks
MAX_TUPLES = 1 << 20


def _first_word(decode, count, finish):
    """finish(owner, words) of decode(count), which solves targets 0 to
    count - 1 as (owner, words): the first word finish makes of the
    solutions, or None.  When target j has too many solutions, the
    targets before it are tried alone, and the error stands only when
    none of them gives a word, as a walk one target at a time would."""
    if not count:
        return None
    try:
        owner, words = decode(count)
    except BudgetExceeded as err:
        e = _first_word(decode, err.owner or 0, finish)
        if e is None:
            raise
        return e
    return finish(owner, words)


def recover_e(candidate_sets, g_aux_list, part, y, code, t, u, sf):
    """Walk candidate tuples best-score first (itertools.product order of
    the score-sorted sets), decode each stacked syndrome to weight t-u on
    the P side, finish each solution v on the N side; return the first
    verified error word.  sf is the systematic form of code against part.

    One syndrome_decode_all call decodes the stacked syndromes of all the
    tuples, and one solve_subproblem call decodes the shortened-code
    syndromes of all their v at weight u; the kernel bounds the memory of
    each.  The v's are taken in (tuple, support) order, each with its
    first N-side solution, so this returns the word a walk one tuple at a
    time would.  Raises BudgetExceeded when there are more than
    MAX_TUPLES tuples."""
    n_aux = len(candidate_sets)
    if len(g_aux_list) != n_aux:
        raise DomainError("one generator per candidate set")
    if any(len(cs) == 0 for cs in candidate_sets):
        return None
    total = 1
    for cs in candidate_sets:
        total *= len(cs)
    if total > MAX_TUPLES:
        raise BudgetExceeded("candidate tuple count %d exceeds budget" % total)
    stacked = np.concatenate([as_bits(np.atleast_2d(g)) for g in g_aux_list])
    members = [np.array(cs.indices(), np.int64) for cs in candidate_sets]
    # C-order digits of r are the positions of tuple r of the product
    digits = np.unravel_index(np.arange(total), [m.size for m in members])
    synd = np.concatenate([index_to_bits(m[d], np.atleast_2d(g).shape[0])
                           for m, d, g in zip(members, digits, g_aux_list)],
                          axis=1)
    y = as_bits(y).reshape(-1)

    def finish_p(_, vs):
        def finish_n(owner, e_ns):
            rows, first = np.unique(owner, return_index=True)
            for j, r in zip(rows.tolist(), first.tolist()):
                e = part.merge(vs[j], e_ns[r])
                if int(e.sum()) == t and code.contains(y ^ e):
                    return e
            return None

        return _first_word(
            lambda b: solve_subproblem(code, part, y, vs[:b], u, sf),
            vs.shape[0], finish_n)

    return _first_word(
        lambda b: syndrome_decode_all(stacked, synd[:b], t - u), total,
        finish_p)


def double_rlpn(instance, params, stats=None):
    """Run up to N_iter partition trials; return a verified weight-t
    error word or None.  A stats dict, when given, receives trials_used.

    A budget that depends on the parameters alone (the subset tables of
    the dual enumeration and of both searches of recover_e, the score
    table, the auxiliary syndrome table) raises BudgetExceeded naming its
    tables before the first trial; a trial that goes over a budget of its
    own data (MAX_TUPLES, a target's max_hits) is skipped."""
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
    over = params.tables_over_budget(n, t)
    if over:
        raise BudgetExceeded(", ".join(over) + " over budget before the first trial")
    for trial in range(n_iter):
        if stats is not None:
            stats["trials_used"] = trial + 1
        rng = np.random.default_rng([params.seed, trial])
        part, sf = draw_partition(code, params.s, itertools.repeat(rng, 200))
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
