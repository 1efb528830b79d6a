"""LPN sample construction.

A sample pair is a dual word h with light N-projection together with an
auxiliary codeword c_aux close to h_P.  The auxiliary code is decoded at
exact radius t_aux through a precomputed syndrome table: every weight-t_aux
pattern in lexicographic order, sorted stably by packed syndrome
(`_kernels.KeyTable`, the sort-and-search core the meet-in-the-middle
search also uses).  All of a sample set's h_P rows are looked up in one
searchsorted, so pairs come out by dual word and then by the lexicographic
order of the error support.  Dual words come in canonical packed order,
sorted on one integer key when (h_N, h_P) fits in 64 bits.
"""

from fractions import Fraction
from math import comb

import numpy as np

from ._kernels import (KeyTable, _sort_pairs, _subsets, comb_xor_search,
                       pack_rows, unpack_rows, xor_rows)
from .codes import as_bits, random_code, systematic_form
from .errors import BudgetExceeded, DomainError

# weight-t_aux patterns one syndrome table may hold
MAX_SYNDROME_PATTERNS = 10 ** 7


def build_syndrome_table(code, t_aux):
    """Every weight-t_aux error pattern keyed by its packed syndrome,
    refusing more than MAX_SYNDROME_PATTERNS.  Returns (table, supports):
    supports lists the patterns' positions in lexicographic order, and
    table is a KeyTable over their syndromes, so equal syndromes keep that
    order."""
    if comb(code.n, t_aux) > MAX_SYNDROME_PATTERNS:
        raise BudgetExceeded("too many weight-%d patterns" % t_aux)
    supports = _subsets(0, code.n, t_aux)
    cols = pack_rows(code.parity.T)
    return KeyTable(np.bitwise_xor.reduce(cols[supports], axis=1)), supports


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
        self.syndrome_table, self.supports = build_syndrome_table(code,
                                                                  t_aux)

    @classmethod
    def random(cls, s, k_aux, t_aux, seed):
        return cls(s, k_aux, t_aux, random_code(s, k_aux, seed))


def _decode_rows(aux, z):
    """(rows, caux): every auxiliary codeword at distance exactly t_aux
    from each row of the (m, s) z, by row and then by the lexicographic
    order of the error support, found with one syndrome-table lookup."""
    table = aux.syndrome_table
    rows, pat = table.pairs(*table.counts(
        xor_rows(z, pack_rows(aux.code.parity.T))))
    caux = z[rows]
    caux[np.arange(rows.size)[:, None], aux.supports[pat]] ^= 1
    return rows, caux


# dual words one enumerate_dual_low_weight call may return
MAX_DUAL_WORDS = 1 << 24


def enumerate_dual_low_weight(code, part, w, sf=None):
    """All dual words h with |h_N| = w, as (h_n, h_p) uint8 arrays in
    canonical packed order, refusing more than MAX_DUAL_WORDS.  sf is the
    systematic form of code against part, computed here when not given.

    Meets in the middle over the weight split of h_N against the
    shortened-code parity condition h_N Rprime^T = 0, then sets
    h_P = h_N R^T; comb_xor_search raises BudgetExceeded when its subset
    tables exceed MITM_HALF_CAP."""
    s = part.s
    nn = code.n - s
    if sf is None:
        sf = systematic_form(code, part)
    idx = comb_xor_search(pack_rows(sf.rprime.T), 0, w, max_hits=MAX_DUAL_WORDS)
    # h_N is the xor of the unit words at idx, h_P that of the rows of R^T
    units = pack_rows(np.eye(nn, dtype=np.uint8))
    hn = np.bitwise_xor.reduce(units[idx], axis=1)
    hp = np.bitwise_xor.reduce(pack_rows(sf.r.T)[idx], axis=1)
    hn, hp = _sort_pairs(hn, hp)
    return unpack_rows(hn, nn), unpack_rows(hp, s)


class SampleSet:
    """Pairs (h, c_aux) with |h_N| = w and |h_P + c_aux| = t_aux."""

    def __init__(self, part, w, t_aux, hn, hp, caux, complete):
        self.part = part
        self.w = w
        self.t_aux = t_aux
        self.hn = as_bits(hn)
        self.hp = as_bits(hp)
        self.caux = as_bits(caux)
        self.complete = complete

    @property
    def count(self):
        return int(self.hn.shape[0])


def build_sample_set(code, part, w, aux, budget=None, seed=0, sf=None):
    """Enumerate the full pair set; subsample uniformly without
    replacement when budget is smaller than the full count.  sf, the
    systematic form of code against part, is passed to the enumeration."""
    hn, hp = enumerate_dual_low_weight(code, part, w, sf=sf)
    rows, ca2 = _decode_rows(aux, hp)
    hn2, hp2 = hn[rows], hp[rows]
    complete = True
    if budget is not None and budget < hn2.shape[0]:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(hn2.shape[0], size=budget, replace=False))
        hn2, hp2, ca2 = hn2[keep], hp2[keep], ca2[keep]
        complete = False
    return SampleSet(part, w, aux.t_aux, hn2, hp2, ca2, complete)


def expected_pair_count(n, k, s, w, t_aux, k_aux):
    """Average number of pairs over random codes, C(n-s, w) C(s, t_aux)
    / 2^(k - k_aux), as an exact fraction."""
    return Fraction(comb(n - s, w) * comb(s, t_aux), 1 << (k - k_aux))
