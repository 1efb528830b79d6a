"""Binary linear codes as dense 0/1 numpy arrays.

A word is a 1-d uint8 array over {0,1} (BitVec), a matrix a 2-d one
(BitMatrix).  All index sets are 0-based.  Combinatorial quantities are
exact Python integers throughout.
"""

import functools

import numpy as np

from ._kernels import ints_to_rows, row_ints
from .errors import DomainError, RankDeficient

BitVec = np.ndarray
BitMatrix = np.ndarray


def as_bits(x):
    """Coerce to a uint8 0/1 array, validating the alphabet."""
    a = np.asarray(x, dtype=np.uint8)
    if a.size and a.max() > 1:
        raise DomainError("entries must be 0 or 1")
    return a


def gf2_matmul(a, b):
    """Matrix product over GF(2).  The integer sums come from a BLAS
    product in float32, exact for inner dimensions below 2^24, or in
    float64 past that."""
    k = np.shape(a)[-1]
    ft = np.float32 if k < 1 << 24 else np.float64
    c = np.asarray(a, ft) @ np.asarray(b, ft)
    # sums above 255 would wrap in a direct cast to uint8
    return (c.astype(np.uint8 if k < 256 else np.int64) & 1).astype(np.uint8)


def gf2_rref(a):
    """Row-reduced echelon form.  Returns (rref, pivot_columns).

    Eliminates on rows held as Python ints (bit j is column j).  Each row
    is reduced against the pivot rows found so far; a row left nonzero
    pivots on its lowest set bit and clears that column from the others,
    so the pivot rows stay fully reduced and, sorted, are the unique
    reduced form."""
    a = as_bits(a)
    m, n = a.shape
    piv = {}
    for r in row_ints(a):
        for c, row in piv.items():
            if r >> c & 1:
                r ^= row
        if not r:
            continue
        c = (r & -r).bit_length() - 1
        for pc, row in piv.items():
            if row >> c & 1:
                piv[pc] = row ^ r
        piv[c] = r
    pivots = sorted(piv)
    rows = [piv[c] for c in pivots] + [0] * (m - len(pivots))
    return ints_to_rows(rows, n), pivots


def gf2_nullspace(a):
    """Basis of {x : a x^T = 0}, one vector per row (may be empty): row i
    is the free column free[i] plus the pivot columns whose rref rows
    hold it."""
    a = as_bits(np.atleast_2d(a))
    n = a.shape[1]
    r, pivots = gf2_rref(a)
    free = np.ones(n, bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, n), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = r[:len(pivots), free].T
    return basis


class LinearCode:
    """An [n, k] binary code given by a full-rank generator matrix."""

    def __init__(self, generator):
        g = as_bits(np.atleast_2d(generator))
        self.k, self.n = g.shape
        self.generator = g
        # the nullspace has n - rank rows, so it also checks the rank
        self.parity = gf2_nullspace(g)
        if self.parity.shape[0] != self.n - self.k:
            raise RankDeficient("generator rows are dependent")

    def syndrome(self, y):
        return gf2_matmul(as_bits(y).reshape(1, -1), self.parity.T)[0]

    def contains(self, y):
        return not np.any(self.syndrome(y))

    def encode(self, m):
        return gf2_matmul(as_bits(m).reshape(1, -1), self.generator)[0]

    def __repr__(self):
        return "LinearCode(n=%d, k=%d)" % (self.n, self.k)


class Partition:
    """A split of {0..n-1} into a bet side of size s and its complement."""

    def __init__(self, n, ppos):
        ppos = np.asarray(ppos, dtype=np.int64)
        if ppos.size != np.unique(ppos).size:
            raise DomainError("duplicate positions")
        if ppos.size and (ppos.min() < 0 or ppos.max() >= n):
            raise DomainError("position out of range")
        self.n = n
        self.ppos = np.sort(ppos)
        mask = np.ones(n, dtype=bool)
        mask[self.ppos] = False
        self.npos = np.nonzero(mask)[0]

    @property
    def s(self):
        return int(self.ppos.size)

    @classmethod
    def random(cls, n, s, rng):
        return cls(n, rng.choice(n, size=s, replace=False))

    def split(self, y):
        y = as_bits(y)
        return y[self.ppos], y[self.npos]

    def merge(self, yp, yn):
        y = np.zeros(self.n, dtype=np.uint8)
        y[self.ppos] = yp
        y[self.npos] = yn
        return y


class SystematicForm:
    """Row-reduced generator [[I_s, R], [0, Rprime]] in (P | N) column order.

    R maps N-projections of dual words back to P: h_P = h_N R^T.  Rprime
    generates the shortened code on the N positions.
    """

    def __init__(self, part, r, rprime):
        self.part = part
        self.r = r
        self.rprime = rprime

    @functools.cached_property
    def shortened_parity(self):
        """Parity-check matrix of the shortened code (the nullspace of
        Rprime), computed on first use and shared by later callers."""
        return gf2_nullspace(self.rprime)


def systematic_form(code, part):
    """Reduce the generator against the partition.  Raises RankDeficient
    when the P-columns of the code do not have full rank s (caller should
    resample the partition)."""
    s = part.s
    gperm = np.concatenate([code.generator[:, part.ppos],
                            code.generator[:, part.npos]], axis=1)
    r, pivots = gf2_rref(gperm)
    if pivots[:s] != list(range(s)):
        raise RankDeficient("P-columns have rank < s")
    return SystematicForm(part, r[:s, s:].copy(), r[s:, s:].copy())


def draw_partition(code, s, rngs, accept=None):
    """Draw one partition from each generator in rngs until one passes
    accept (when given) and has P-columns of full rank s.  Returns the
    partition and its systematic form, or (None, None) when rngs runs
    out."""
    for rng in rngs:
        part = Partition.random(code.n, s, rng)
        if accept is not None and not accept(part):
            continue
        try:
            return part, systematic_form(code, part)
        except RankDeficient:
            continue
    return None, None


def random_code(n, k, seed):
    """Uniform [n, k] code with a full-rank generator, by rejection."""
    if not (0 < k <= n):
        raise DomainError("need 0 < k <= n")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        try:
            return LinearCode(rng.integers(0, 2, size=(k, n), dtype=np.uint8))
        except RankDeficient:
            continue
    raise RankDeficient("no full-rank generator in 100 draws")


class DecodingInstance:
    """A received word at exact distance t from the code."""

    def __init__(self, code, y, t):
        self.code = code
        self.y = as_bits(y)
        self.t = t
        self.planted_e = None

    @classmethod
    def plant(cls, code, t, seed):
        """Random codeword plus a random weight-t error.  The planted error
        is kept on the instance for test harnesses only; the decoder never
        reads it."""
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        e = np.zeros(code.n, dtype=np.uint8)
        e[rng.choice(code.n, size=t, replace=False)] = 1
        inst = cls(code, (code.encode(m) + e) % 2, t)
        inst.planted_e = e
        return inst
