"""LPN sample construction.

A sample pair is a dual word h with light N-projection together with an
auxiliary codeword c_aux close to h_P.  The auxiliary code is decoded at
exact radius t_aux through a precomputed syndrome table.
"""

import itertools
from fractions import Fraction
from math import comb

import numpy as np

from ._kernels import (_sort_pairs, comb_search_fits, comb_xor_search,
                       gray_low_weight, pack_rows, row_ints, unpack_rows)
from .codes import as_bits, gf2_matmul, random_code, systematic_form
from .errors import BudgetExceeded, DomainError


def build_syndrome_table(code, t_aux):
    """Bucket every weight-t_aux error pattern by its syndrome, refusing
    more than 10^7 patterns.

    Keys are syndrome integers (bit i of the key is syndrome coordinate i),
    values are (m, n) uint8 arrays in lexicographic support order."""
    n = code.n
    if comb(n, t_aux) > 10**7:
        raise BudgetExceeded("too many weight-%d patterns" % t_aux)
    buckets = {}
    for support in itertools.combinations(range(n), t_aux):
        e = np.zeros(n, np.uint8)
        e[list(support)] = 1
        buckets.setdefault(row_ints(code.syndrome(e))[0], []).append(e)
    return {k: np.array(v, np.uint8) for k, v in buckets.items()}


class AuxCode:
    """An [s, k_aux] code dedicated to re-encoding the P-side, decoded at
    exact radius t_aux through its syndrome table."""

    def __init__(self, s, k_aux, t_aux, code):
        if code.n != s or code.k != k_aux:
            raise DomainError("auxiliary code has the wrong parameters")
        if not (0 <= t_aux <= s):
            raise DomainError("need 0 <= t_aux <= s")
        self.s = s
        self.k_aux = k_aux
        self.t_aux = t_aux
        self.code = code
        self.syndrome_table = build_syndrome_table(code, t_aux)

    @classmethod
    def random(cls, s, k_aux, t_aux, seed):
        return cls(s, k_aux, t_aux, random_code(s, k_aux, seed))


def aux_decode(aux, z):
    """All auxiliary codewords at distance exactly t_aux from z, as a
    (m, s) uint8 array (m may be zero)."""
    z = as_bits(z).reshape(-1)
    if z.size != aux.s:
        raise DomainError("word length differs from s")
    pats = aux.syndrome_table.get(row_ints(aux.code.syndrome(z))[0])
    if pats is None:
        return np.zeros((0, aux.s), np.uint8)
    return (z[None, :] ^ pats).astype(np.uint8)


def enumerate_dual_low_weight(code, part, w, max_hits=1 << 24, sf=None):
    """All dual words h with |h_N| = w, as (h_n, h_p) uint8 arrays in
    canonical packed order.  sf is the systematic form of code against
    part, computed here when not given.

    Meets in the middle over the weight split of h_N against the
    shortened-code parity condition h_N Rprime^T = 0, then sets
    h_P = h_N R^T, whenever comb_xor_search can build its subset tables;
    otherwise sweeps the 2^(n-k) dual words in Gray order (n - k <= 34)."""
    s = part.s
    nn = code.n - s
    if not comb_search_fits(nn, w):
        if code.n - code.k > 34:
            raise BudgetExceeded("gray sweep capped at 2^34 dual words")
        hn, hp = gray_low_weight(pack_rows(code.parity[:, part.npos]),
                                 pack_rows(code.parity[:, part.ppos]),
                                 w, max_hits=max_hits)
        return unpack_rows(hn, nn), unpack_rows(hp, s)
    if sf is None:
        sf = systematic_form(code, part)
    idx = comb_xor_search(pack_rows(sf.rprime.T), 0, w, max_hits=max_hits)
    # h_N is the xor of the unit words at idx, h_P that of the rows of R^T
    units = pack_rows(np.eye(nn, dtype=np.uint8))
    hn = np.bitwise_xor.reduce(units[idx], axis=1)
    hp = np.bitwise_xor.reduce(pack_rows(sf.r.T)[idx], axis=1)
    hn, hp = _sort_pairs(hn, hp)
    return unpack_rows(hn, nn), unpack_rows(hp, s)


class SampleSet:
    """Pairs (h, c_aux) with |h_N| = w and |h_P + c_aux| = t_aux."""

    def __init__(self, part, w, t_aux, hn, hp, caux, complete, n=None):
        self.part = part
        self.w = w
        self.t_aux = t_aux
        self.hn = as_bits(hn)
        self.hp = as_bits(hp)
        self.caux = as_bits(caux)
        self.complete = complete
        self.n = part.n if n is None else n

    @property
    def count(self):
        return int(self.hn.shape[0])

    def h_full(self):
        """Dual words back in original column order, (count, n)."""
        out = np.zeros((self.count, self.n), np.uint8)
        out[:, self.part.ppos] = self.hp
        out[:, self.part.npos] = self.hn
        return out


def _pair_rows(hn, hp, aux):
    # one batched syndrome computation instead of a decode per row
    synd = gf2_matmul(hp, aux.code.parity.T)
    idx, pats = [], []
    for i, key in enumerate(row_ints(synd)):
        p = aux.syndrome_table.get(key)
        if p is not None:
            idx.append(np.full(p.shape[0], i, np.int64))
            pats.append(p)
    if not idx:
        return None
    rep = np.concatenate(idx)
    hp2 = hp[rep]
    return hn[rep], hp2, hp2 ^ np.concatenate(pats)


def build_sample_set(code, part, w, aux, budget=None, seed=0, sf=None):
    """Enumerate the full pair set; subsample uniformly without
    replacement when budget is smaller than the full count.  sf, the
    systematic form of code against part, is passed to the enumeration."""
    hn, hp = enumerate_dual_low_weight(code, part, w, sf=sf)
    got = _pair_rows(hn, hp, aux)
    if got is None:
        hn2 = np.zeros((0, code.n - part.s), np.uint8)
        hp2 = np.zeros((0, part.s), np.uint8)
        ca2 = np.zeros((0, part.s), np.uint8)
    else:
        hn2, hp2, ca2 = got
    complete = True
    if budget is not None and budget < hn2.shape[0]:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(hn2.shape[0], size=budget, replace=False))
        hn2, hp2, ca2 = hn2[keep], hp2[keep], ca2[keep]
        complete = False
    return SampleSet(part, w, aux.t_aux, hn2, hp2, ca2, complete, n=code.n)


def expected_pair_count(n, k, s, w, t_aux, k_aux):
    """Average number of pairs over random codes, C(n-s, w) C(s, t_aux)
    / 2^(k - k_aux), as an exact fraction."""
    return Fraction(comb(n - s, w) * comb(s, t_aux), 1 << (k - k_aux))
