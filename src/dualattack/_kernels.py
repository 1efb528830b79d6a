"""Bit-packed enumeration kernels.

Words are packed little-endian: bit j of word w holds position 64*w + j.
The Gray sweep, the Walsh-Hadamard butterfly and the coset histogram carry
a numba fast path and a numpy fallback; set DUALATTACK_BACKEND=numpy to
force the fallback, =numba to require the fast path.  comb_xor_search has
one numpy path on every backend.  Kernels never draw random numbers and
both backends return identical arrays, so results do not depend on the
backend choice.
"""

import functools
import os
from math import comb

import numpy as np

from .errors import BudgetExceeded

_env = os.environ.get("DUALATTACK_BACKEND", "").strip().lower()
if _env not in ("", "numba", "numpy"):
    raise ValueError("DUALATTACK_BACKEND must be 'numba' or 'numpy', got %r" % _env)

HAS_NUMBA = False
if _env != "numpy":
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        if _env == "numba":
            raise

BACKEND = "numba" if HAS_NUMBA else "numpy"

# SWAR popcount constants, kept as uint64 so numba never promotes to float
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_U1 = np.uint64(1)
_U2 = np.uint64(2)
_U4 = np.uint64(4)
_U56 = np.uint64(56)


def pack_rows(bits):
    """Pack a (m, n) or (n,) 0/1 uint8 array into uint64 words per row."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    m, n = bits.shape
    nw = max(1, (n + 63) // 64)
    padded = np.zeros((m, nw * 64), dtype=np.uint8)
    padded[:, :n] = bits
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def unpack_rows(words, n):
    """Inverse of pack_rows; returns a (m, n) uint8 array."""
    words = np.atleast_2d(words)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, :n])


def popcount_rows(words):
    """Total set-bit count per row of a (m, W) uint64 array, as int64."""
    words = np.atleast_2d(words)
    return np.bitwise_count(words).astype(np.int64).sum(axis=1)


def dot_parity(words, yword):
    """Per-row parity of <row, y> for packed rows against one packed word."""
    words = np.atleast_2d(words)
    return (np.bitwise_count(words & yword).astype(np.int64).sum(axis=1) & 1).astype(np.uint8)


def xor_closure(rows):
    """All 2^m xor combinations of the given (m, W) packed rows, in
    subset-counter order (index i combines rows at the set bits of i)."""
    rows = np.atleast_2d(rows)
    tab = np.zeros((1, rows.shape[1]), dtype=np.uint64)
    for r in rows:
        tab = np.concatenate([tab, tab ^ r])
    return tab


if HAS_NUMBA:

    @njit(cache=True, inline="always")
    def _popcount64(x):
        x = x - ((x >> _U1) & _M1)
        x = (x & _M2) + ((x >> _U2) & _M2)
        x = (x + (x >> _U4)) & _M4
        return (x * _H01) >> _U56

    @njit(cache=True)
    def _gray_low_weight_numba(bn, bp, w, out_n, out_p):
        """Sweep all xor combinations of (bn, bp) rows in Gray-code order,
        recording pairs whose bn-part has popcount w.  Returns the true hit
        count; only the first out_n.shape[0] hits are stored."""
        m = bn.shape[0]
        cap = out_n.shape[0]
        acc_n = np.uint64(0)
        acc_p = np.uint64(0)
        cnt = 0
        if w == 0:
            if cap > 0:
                out_n[0] = acc_n
                out_p[0] = acc_p
            cnt = 1
        total = np.int64(1) << m
        ww = np.uint64(w)
        for i in range(1, total):
            ii = i
            b = 0
            while ii & 1 == 0:
                ii >>= 1
                b += 1
            acc_n ^= bn[b]
            acc_p ^= bp[b]
            if _popcount64(acc_n) == ww:
                if cnt < cap:
                    out_n[cnt] = acc_n
                    out_p[cnt] = acc_p
                cnt += 1
        return cnt

    @njit(cache=True)
    def _wht_numba(a):
        n = a.shape[0]
        h = 1
        while h < n:
            for i in range(0, n, 2 * h):
                for j in range(i, i + h):
                    x = a[j]
                    y = a[j + h]
                    a[j] = x + y
                    a[j + h] = x - y
            h *= 2

    @njit(cache=True)
    def _coset_hist_numba(basis, x, hist):
        k = basis.shape[0]
        acc = x
        hist[_popcount64(acc)] += 1
        total = np.int64(1) << k
        for i in range(1, total):
            ii = i
            b = 0
            while ii & 1 == 0:
                ii >>= 1
                b += 1
            acc ^= basis[b]
            hist[_popcount64(acc)] += 1


def _split_lo(m):
    # 2^18 row table is ~2 MB per word column, a good block size
    return min(m, 18)


def _gray_low_weight_numpy(bn, bp, w, max_hits):
    m = bn.shape[0]
    lo = _split_lo(m)
    lo_n = xor_closure(bn[:lo])
    lo_p = xor_closure(bp[:lo])
    hi_n = xor_closure(bn[lo:])
    hi_p = xor_closure(bp[lo:])
    wide = bn.shape[1] > 1
    hits_n = []
    hits_p = []
    cnt = 0
    for j in range(hi_n.shape[0]):
        v = lo_n ^ hi_n[j]
        if wide:
            wt = np.bitwise_count(v).astype(np.int64).sum(axis=1)
        else:
            wt = np.bitwise_count(v[:, 0])
        mask = wt == w
        nhit = int(np.count_nonzero(mask))
        if nhit:
            cnt += nhit
            if cnt > max_hits:
                raise BudgetExceeded(
                    "low-weight hit count exceeds max_hits=%d" % max_hits
                )
            hits_n.append(v[mask])
            hits_p.append(lo_p[mask] ^ hi_p[j])
    if not hits_n:
        wn, wp = bn.shape[1], bp.shape[1]
        return np.empty((0, wn), np.uint64), np.empty((0, wp), np.uint64)
    return np.concatenate(hits_n), np.concatenate(hits_p)


def _sort_pairs(hn, hp):
    # canonical order so both backends and strategies agree bit for bit
    if hn.shape[0] <= 1:
        return hn, hp
    keys = tuple(hp[:, c] for c in range(hp.shape[1] - 1, -1, -1)) + tuple(
        hn[:, c] for c in range(hn.shape[1] - 1, -1, -1)
    )
    order = np.lexsort(keys)
    return hn[order], hp[order]


def gray_low_weight(bn, bp, w, max_hits=1 << 24):
    """All xor combinations of the packed (bn | bp) basis whose bn-part has
    weight exactly w, canonically sorted.  Raises BudgetExceeded when more
    than max_hits combinations qualify."""
    bn = np.ascontiguousarray(np.atleast_2d(bn))
    bp = np.ascontiguousarray(np.atleast_2d(bp))
    m = bn.shape[0]
    if m != bp.shape[0]:
        raise ValueError("basis halves disagree on row count")
    if m == 0:
        if w == 0:
            return (np.zeros((1, bn.shape[1]), np.uint64),
                    np.zeros((1, bp.shape[1]), np.uint64))
        return (np.empty((0, bn.shape[1]), np.uint64),
                np.empty((0, bp.shape[1]), np.uint64))
    if HAS_NUMBA and bn.shape[1] == 1 and bp.shape[1] == 1:
        cap = 1024
        while True:
            out_n = np.empty((cap, 1), np.uint64)
            out_p = np.empty((cap, 1), np.uint64)
            cnt = _gray_low_weight_numba(bn[:, 0], bp[:, 0], w,
                                         out_n[:, 0], out_p[:, 0])
            if cnt <= cap:
                hn, hp = out_n[:cnt], out_p[:cnt]
                break
            if cnt > max_hits:
                raise BudgetExceeded(
                    "low-weight hit count %d exceeds max_hits=%d" % (cnt, max_hits)
                )
            cap = cnt
    else:
        hn, hp = _gray_low_weight_numpy(bn, bp, w, max_hits)
    return _sort_pairs(hn, hp)


def _wht_numpy(a):
    n = a.shape[0]
    h = 1
    while h < n:
        b = a.reshape(-1, 2 * h)
        x = b[:, :h].copy()
        y = b[:, h:].copy()
        b[:, :h] = x + y
        b[:, h:] = x - y
        h *= 2


def wht_inplace(a):
    """In-place Walsh-Hadamard butterfly on an int64 array of length 2^m."""
    if a.dtype != np.int64 or a.ndim != 1:
        raise ValueError("wht_inplace needs a 1-d int64 array")
    n = a.shape[0]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    if not a.flags.c_contiguous:
        raise ValueError("array must be contiguous")
    if HAS_NUMBA:
        _wht_numba(a)
    else:
        _wht_numpy(a)
    return a


def _coset_hist_numpy(basis, x, n):
    m = basis.shape[0]
    lo = _split_lo(m)
    lo_t = xor_closure(basis[:lo])
    hi_t = xor_closure(basis[lo:]) ^ x
    wide = basis.shape[1] > 1
    hist = np.zeros(n + 1, np.int64)
    for j in range(hi_t.shape[0]):
        v = lo_t ^ hi_t[j]
        if wide:
            wt = np.bitwise_count(v).astype(np.int64).sum(axis=1)
        else:
            wt = np.bitwise_count(v[:, 0]).astype(np.int64)
        hist += np.bincount(wt, minlength=n + 1)
    return hist


def coset_weight_hist(basis, x, n):
    """Weight histogram of {x + c : c in span(basis)} over words of n bits."""
    basis = np.ascontiguousarray(np.atleast_2d(basis))
    x = np.ascontiguousarray(x).reshape(-1)
    if basis.shape[0] == 0:
        hist = np.zeros(n + 1, np.int64)
        hist[int(popcount_rows(x[None, :])[0])] = 1
        return hist
    if HAS_NUMBA and basis.shape[1] == 1:
        hist = np.zeros(n + 1, np.int64)
        _coset_hist_numba(basis[:, 0], x[0], hist)
        return hist
    return _coset_hist_numpy(basis, x, n)


# largest total size of the subset tables of one search, summed over splits
MITM_HALF_CAP = 5 * 10**7
# searches whose tables total at most this many rows keep them cached
_CACHE_ROWS = 1 << 16


def _subsets(lo, hi, t):
    """All t-subsets of range(lo, hi) as a read-only (C(hi - lo, t), t)
    int64 array in lexicographic order, built column by column."""
    idx = np.zeros((1, 0), np.int64)
    for d in range(t):
        start = idx[:, -1] + 1 if d else np.full(1, lo, np.int64)
        # leave room for the t - d - 1 entries still to come
        cnt = np.maximum(hi - (t - d - 1) - start, 0)
        first = np.cumsum(cnt) - cnt
        rows = np.repeat(np.arange(idx.shape[0]), cnt)
        step = np.arange(rows.size) - np.repeat(first, cnt)
        idx = np.column_stack([idx[rows], start[rows] + step])
    idx.setflags(write=False)
    return idx


_cached_subsets = functools.lru_cache(maxsize=64)(_subsets)


def _weight_splits(n, t):
    # left weights of the t-subsets split at n // 2, and the table entries
    # the two halves take over all of them
    half = n // 2
    tas = range(max(0, t - (n - half)), min(t, half) + 1)
    return tas, sum(comb(half, ta) + comb(n - half, t - ta) for ta in tas)


def comb_search_fits(n, t):
    """Whether comb_xor_search can run on n columns at weight t, i.e. its
    subset tables stay within MITM_HALF_CAP entries."""
    return _weight_splits(n, t)[1] <= MITM_HALF_CAP


def comb_xor_search(cols, target, t, max_hits=1 << 22):
    """Index tuples of all t-subsets of the packed cols xoring to target,
    in lexicographic order.

    cols is a (n,) uint64 array or the (n, W) output of pack_rows; target
    is one packed word or W of them (missing high words are zero).  Meets
    in the middle: the columns split at n // 2, and for each weight split
    the xors of the right part's subsets are sorted and the left part's
    xors with target looked up in them.  Words wider than 64 bits are
    matched by their rank among the distinct xors of both parts.  Raises
    BudgetExceeded when the tables exceed MITM_HALF_CAP entries or more
    than max_hits tuples qualify."""
    cols = np.asarray(cols, dtype=np.uint64)
    if cols.ndim == 1:
        cols = cols[:, None]
    n, nw = cols.shape
    target = np.asarray(target, dtype=np.uint64).reshape(-1)
    if target.size > nw:
        raise ValueError("target is wider than the columns")
    tgt = np.zeros(nw, np.uint64)
    tgt[:target.size] = target
    if t < 0 or t > n:
        return np.empty((0, max(t, 0)), np.int64)
    half = n // 2
    tas, size = _weight_splits(n, t)
    if size > MITM_HALF_CAP:
        raise BudgetExceeded("subset tables of %d entries exceed %d"
                             % (size, MITM_HALF_CAP))
    subsets = _cached_subsets if size <= _CACHE_ROWS else _subsets
    found = []
    hits = 0
    for ta in tas:
        left = subsets(0, half, ta)
        right = subsets(half, n, t - ta)
        lx = np.bitwise_xor.reduce(cols[left], axis=1) ^ tgt
        rx = np.bitwise_xor.reduce(cols[right], axis=1)
        if nw == 1:
            lx, rx = lx[:, 0], rx[:, 0]
        else:
            _, rank = np.unique(np.concatenate([lx, rx]), axis=0,
                                return_inverse=True)
            rank = rank.reshape(-1)
            lx, rx = rank[:left.shape[0]], rank[left.shape[0]:]
        order = np.argsort(rx, kind="stable")
        rs = rx[order]
        lo = np.searchsorted(rs, lx, "left")
        cnt = np.searchsorted(rs, lx, "right") - lo
        nhit = int(cnt.sum())
        if not nhit:
            continue
        hits += nhit
        if hits > max_hits:
            raise BudgetExceeded("solution count exceeds max_hits=%d"
                                 % max_hits)
        li = np.repeat(np.arange(lx.size), cnt)
        step = np.arange(nhit) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ri = order[lo[li] + step]
        found.append(np.concatenate([left[li], right[ri]], axis=1))
    if not found:
        return np.empty((0, t), np.int64)
    out = np.concatenate(found)
    if out.shape[0] > 1:
        out = out[np.lexsort(out.T[::-1])]
    return out
