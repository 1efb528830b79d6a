"""Sample statistics over the auxiliary message space.

f counts signed label agreements per auxiliary message; its Walsh
transform scores every candidate secret at once.  Tables hold exact
signed integers end to end.
"""

from fractions import Fraction

import numpy as np

from ._kernels import (dot_parity, pack_rows, row_ints, unpack_rows,
                       wht_inplace, xor_rows)
from .codes import as_bits, gf2_rref
from .errors import BudgetExceeded, DomainError, InconsistentAux


# largest k_aux a score table serves: 2^26 int64 entries are 512 MiB
MAX_SCORE_BITS = 26


class FourierTable:
    """Signed integer table over the 2^k_aux auxiliary messages, at most
    2^MAX_SCORE_BITS of them.

    Index bit j is coordinate j of the message vector."""

    def __init__(self, k_aux):
        if k_aux > MAX_SCORE_BITS:
            raise BudgetExceeded("score table capped at 2^%d entries"
                                 % MAX_SCORE_BITS)
        self.k_aux = k_aux
        self.values = np.zeros(1 << k_aux, np.int64)


class CandidateSet:
    """Candidates passing a score threshold, scores attached.

    members are (message_index, score), sorted by descending score and
    then by the message bits; threshold is the exact rational cutoff."""

    def __init__(self, k_aux, threshold, members):
        self.k_aux = k_aux
        self.threshold = Fraction(threshold)
        idx, score = np.array(members, np.int64).reshape(-1, 2).T
        # index bit j weighs 2^(k_aux - 1 - j): ascending keys follow the
        # message bits lexicographically
        rev = index_to_bits(idx, k_aux) @ (1 << np.arange(k_aux - 1, -1, -1))
        self.members = [members[i] for i in np.lexsort((rev, -score)).tolist()]

    def __len__(self):
        return len(self.members)

    def indices(self):
        return [m for m, _ in self.members]


def index_to_bits(idx, k):
    """Message index to its uint8 coordinate vector, or an array of
    indices to one such row each."""
    return ((np.asarray(idx, np.int64)[..., None] >> np.arange(k)) & 1
            ).astype(np.uint8)


def bits_to_index(bits):
    """Coordinate vector to its message index."""
    return row_ints(np.ravel(bits))[0]


def message_decompose(caux, g_aux):
    """Solve m g_aux = c_aux for every row; raises InconsistentAux when a
    row is outside the row space.

    One reduction of [g_aux | I] gives both: its pivots lie in g_aux
    exactly when the rows are independent, and it is then [E g_aux | E]
    for the inverse E of g_aux on the pivot columns.  So one product of
    each row's pivot bits with it, on packed words, gives the row's
    message m (the right block) and m g_aux (the left block), which must
    be the row itself."""
    g_aux = as_bits(np.atleast_2d(g_aux))
    caux = as_bits(np.atleast_2d(caux))
    k_aux, s = g_aux.shape
    r, pivots = gf2_rref(np.concatenate([g_aux, np.eye(k_aux, dtype=np.uint8)],
                                        axis=1))
    if any(p >= s for p in pivots):
        raise DomainError("auxiliary generator rows are dependent")
    both = unpack_rows(xor_rows(caux[:, pivots], pack_rows(r)), s + k_aux)
    if np.any(both[:, :s] != caux):
        raise InconsistentAux("codeword outside the generator row space")
    return both[:, s:]


def build_f(y, samples, g_aux):
    """Accumulate the signed label counts of every pair into a table
    indexed by the auxiliary message."""
    y = as_bits(y).reshape(-1)
    if y.size != samples.part.n:
        raise DomainError("received word length differs from n")
    g_aux = as_bits(np.atleast_2d(g_aux))
    k_aux = g_aux.shape[0]
    if samples.count == 0:
        return FourierTable(k_aux)
    yp, yn = samples.part.split(y)
    labels = dot_parity(pack_rows(samples.hn), pack_rows(yn)[0]) \
        ^ dot_parity(pack_rows(samples.hp), pack_rows(yp)[0])
    idx = pack_rows(message_decompose(samples.caux, g_aux))[:, 0].view(np.int64)
    # allocated once the decomposition's buffers are gone; it refuses
    # k_aux above MAX_SCORE_BITS, so the first word holds every index
    table = FourierTable(k_aux)
    # +1 per agreeing label, -1 per other; labels are uint8, so cast
    # before subtracting
    np.add.at(table.values, idx, 1 - 2 * labels.astype(np.int64))
    return table


def wht(table):
    """Walsh transform of the table, in place; applying it twice scales
    by 2^k_aux.  Returns the same object."""
    wht_inplace(table.values)
    return table


def fft_decode(y, samples, g_aux, delta, htilde_expected):
    """Score all candidates and keep those with f_hat strictly above
    (delta / 2) times the expected pair count (full enumeration) or the
    realized pair count (subsampled set)."""
    table = wht(build_f(y, samples, g_aux))
    if samples.complete:
        base = Fraction(htilde_expected)
    else:
        base = Fraction(samples.count)
    thr = Fraction(delta) * base / 2
    # scores are integers, so v > thr is v > floor(thr)
    info = np.iinfo(np.int64)
    cut = min(max(thr.numerator // thr.denominator, info.min), info.max)
    idx = np.flatnonzero(table.values > cut)
    members = list(zip(idx.tolist(), table.values[idx].tolist()))
    return CandidateSet(table.k_aux, thr, members)
