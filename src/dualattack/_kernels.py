"""Bit-packed enumeration kernels, one numpy path each.

Words are packed little-endian: bit j of word w holds position 64*w + j.
Kernels never draw random numbers.
"""

import functools
from math import comb

import numpy as np

from .errors import BudgetExceeded


def pack_rows(bits):
    """Pack a (m, n) or (n,) 0/1 uint8 array into uint64 words per row."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    m, n = bits.shape
    nw = max(1, (n + 63) // 64)
    padded = np.zeros((m, nw * 64), dtype=np.uint8)
    padded[:, :n] = bits
    # one flat run packs faster than packbits along the short row axis
    return np.packbits(padded.reshape(-1),
                       bitorder="little").view(np.uint64).reshape(m, nw)


def unpack_rows(words, n):
    """Inverse of pack_rows; returns a (m, n) uint8 array."""
    return np.unpackbits(np.atleast_2d(words).view(np.uint8), axis=1,
                         count=n, bitorder="little")


def row_ints(bits):
    """Each row of a (m, n) or (n,) 0/1 array as a Python int whose bit j
    is position j, at any width."""
    words = pack_rows(bits)
    ints = words[:, -1].tolist()
    for c in range(words.shape[1] - 2, -1, -1):
        ints = [(v << 64) | x for v, x in zip(ints, words[:, c].tolist())]
    return ints


def ints_to_rows(ints, n):
    """Inverse of row_ints: a sequence of m Python ints below 2^n as a
    (m, n) uint8 array."""
    nb = 8 * max(1, (n + 63) // 64)
    buf = b"".join(v.to_bytes(nb, "little") for v in ints)
    return unpack_rows(np.frombuffer(buf, np.uint8).reshape(-1, nb), n)


def popcount_rows(words):
    """Total set-bit count per row of a (m, W) uint64 array, as int64."""
    words = np.atleast_2d(words)
    return np.bitwise_count(words).astype(np.int64).sum(axis=1)


def dot_parity(words, yword):
    """Per-row parity of <row, y> for packed rows against one packed word."""
    words = np.atleast_2d(words)
    return (np.bitwise_count(words & yword).astype(np.int64).sum(axis=1) & 1).astype(np.uint8)


def xor_rows(bits, words):
    """The GF(2) product of the (m, r) 0/1 bits with the r packed rows of
    the (r, W) words: row i of the (m, W) uint64 result is the xor of
    words[j] over the set bits j of bits[i]."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    out = np.zeros((bits.shape[0], words.shape[1]), np.uint64)
    for j in range(bits.shape[1]):
        out ^= bits[:, j, None] * words[j]
    return out


def xor_closure(rows):
    """All 2^m xor combinations of the given (m, W) packed rows, in
    subset-counter order (index i combines rows at the set bits of i)."""
    rows = np.atleast_2d(rows)
    tab = np.zeros((1, rows.shape[1]), dtype=np.uint64)
    for r in rows:
        tab = np.concatenate([tab, tab ^ r])
    return tab


# rows in the low part of a block sweep: a 2^18-row block table is ~2 MB
# per word column
_BLOCK_ROWS = 18


def _split_closures(rows):
    return xor_closure(rows[:_BLOCK_ROWS]), xor_closure(rows[_BLOCK_ROWS:])


def _block_sweep(rows, shift=None):
    """Sweep the span of the packed (m, W) rows, shifted by one packed word
    when given, one block per combination of the rows past _BLOCK_ROWS.
    Yields (j, v, wt): the block's words v = low closure ^ j-th high
    combination, and their weights (uint8 for single words, else int64)."""
    lo_t, hi_t = _split_closures(rows)
    if shift is not None:
        hi_t ^= shift
    wide = rows.shape[1] > 1
    for j in range(hi_t.shape[0]):
        v = lo_t ^ hi_t[j]
        if wide:
            wt = np.bitwise_count(v).astype(np.int64).sum(axis=1)
        else:
            wt = np.bitwise_count(v[:, 0])
        yield j, v, wt


def _sort_pairs(hn, hp):
    # canonical order so that every enumeration strategy agrees bit for bit:
    # by the words of hn, then those of hp, low word first
    if hn.shape[0] <= 1:
        return hn, hp
    shift = int(hp.max()).bit_length()
    if hn.shape[1] == hp.shape[1] == 1 and \
            int(hn.max()).bit_length() + shift <= 64:
        order = np.argsort((hn[:, 0] << shift) | hp[:, 0])
    else:
        keys = tuple(hp[:, c] for c in range(hp.shape[1] - 1, -1, -1)) + \
            tuple(hn[:, c] for c in range(hn.shape[1] - 1, -1, -1))
        order = np.lexsort(keys)
    return hn[order], hp[order]


def gray_low_weight(bn, bp, w):
    """All xor combinations of the packed (bn | bp) basis whose bn-part has
    weight exactly w, canonically sorted: a sweep of all 2^m combinations,
    the reference the meet-in-the-middle enumeration is tested against."""
    bn = np.ascontiguousarray(np.atleast_2d(bn))
    bp = np.ascontiguousarray(np.atleast_2d(bp))
    if bn.shape[0] != bp.shape[0]:
        raise ValueError("basis halves disagree on row count")
    lo_p, hi_p = _split_closures(bp)
    hits_n = [np.empty((0, bn.shape[1]), np.uint64)]
    hits_p = [np.empty((0, bp.shape[1]), np.uint64)]
    for j, v, wt in _block_sweep(bn):
        mask = wt == w
        hits_n.append(v[mask])
        hits_p.append(lo_p[mask] ^ hi_p[j])
    return _sort_pairs(np.concatenate(hits_n), np.concatenate(hits_p))


def wht_inplace(a):
    """In-place Walsh-Hadamard butterfly on an int64 array of length 2^m."""
    if a.dtype != np.int64 or a.ndim != 1:
        raise ValueError("wht_inplace needs a 1-d int64 array")
    n = a.shape[0]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    if not a.flags.c_contiguous:
        raise ValueError("array must be contiguous")
    # (x, y) -> (x + y, x - y) in place on the halves' views; int64
    # arithmetic wraps mod 2^64, so the result is x + y and x - y on
    # every input
    h = 1
    while h < n:
        b = a.reshape(-1, 2 * h)
        x, y = b[:, :h], b[:, h:]
        x += y
        y *= -2
        y += x
        h *= 2
    return a


def coset_weight_hist(basis, x, n):
    """Weight histogram of {x + c : c in span(basis)} over words of n bits."""
    basis = np.ascontiguousarray(np.atleast_2d(basis))
    x = np.ascontiguousarray(x).reshape(-1)
    hist = np.zeros(n + 1, np.int64)
    for _, _, wt in _block_sweep(basis, x):
        hist += np.bincount(wt, minlength=n + 1)
    return hist


class KeyTable:
    """Packed (P, W) uint64 keys, sorted once and matched row by row
    against (Q, W) queries.  The sort is stable, so equal keys keep their
    input order.  Keys wider than one word are sorted first word first,
    and matched through their rank among the distinct rows of the keys
    and the queries together."""

    def __init__(self, keys):
        if keys.shape[1] == 1:
            self.order = np.argsort(keys[:, 0], kind="stable")
        else:
            self.order = np.lexsort(keys.T[::-1])
        self.keys = keys[self.order]

    def counts(self, queries):
        """(lo, cnt): for each query row, the first sorted position of
        its equal keys and how many there are."""
        if self.keys.shape[1] == 1:
            ks, qs = self.keys[:, 0], queries[:, 0]
        else:
            _, rank = np.unique(np.concatenate([self.keys, queries]),
                                axis=0, return_inverse=True)
            rank = rank.reshape(-1)
            ks, qs = rank[:self.keys.shape[0]], rank[self.keys.shape[0]:]
        lo = np.searchsorted(ks, qs, "left")
        return lo, np.searchsorted(ks, qs, "right") - lo

    def pairs(self, lo, cnt):
        """(qi, ki): every query row qi with each input row ki of an equal
        key, by query and then by input order, from counts(queries)."""
        qi = np.repeat(np.arange(cnt.size), cnt)
        step = np.arange(qi.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        return qi, self.order[lo[qi] + step]


# largest total size of the subset tables of one search, summed over splits
MITM_HALF_CAP = 5 * 10**7
# searches whose tables total at most this many rows keep them cached
_CACHE_ROWS = 1 << 16
# targets x left-table rows one lookup of comb_xor_search_many holds at
# once, which bounds its memory for any number of targets
CHUNK_CELLS = 1 << 18


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
    in lexicographic order: comb_xor_search_many for the one target."""
    target = np.asarray(target, dtype=np.uint64).reshape(1, -1)
    return comb_xor_search_many(cols, target, t, max_hits)[1]


def comb_xor_search_many(cols, targets, t, max_hits=1 << 22):
    """Index tuples of all t-subsets of the packed cols xoring to each of
    the targets, as (owner, idx): row i of idx solves target owner[i], and
    the rows are sorted by owner and then lexicographically.

    cols is a (n,) uint64 array or the (n, W) output of pack_rows; targets
    is a (T, W) stack of packed words, or (T,) single words (missing high
    words are zero).  Meets in the middle: the columns split at n // 2,
    and for each weight split the xors of the right part's subsets are
    sorted once and the left part's xors with the targets looked up in
    them, in chunks of at most CHUNK_CELLS target x left-row cells.  Words
    wider than 64 bits are matched by their rank among the distinct xors
    of both parts.  Raises BudgetExceeded when the tables exceed
    MITM_HALF_CAP entries, or when more than max_hits tuples solve any
    one target; the cap holds per target, not for the stack."""
    cols = np.asarray(cols, dtype=np.uint64)
    if cols.ndim == 1:
        cols = cols[:, None]
    n, nw = cols.shape
    targets = np.asarray(targets, dtype=np.uint64)
    if targets.ndim == 1:
        targets = targets[:, None]
    ntg = targets.shape[0]
    if targets.shape[1] > nw:
        raise ValueError("target is wider than the columns")
    tgt = np.zeros((ntg, 1, nw), np.uint64)
    tgt[:, 0, :targets.shape[1]] = targets
    if t < 0 or t > n or not ntg:
        return np.empty(0, np.int64), np.empty((0, max(t, 0)), np.int64)
    half = n // 2
    tas, size = _weight_splits(n, t)
    if size > MITM_HALF_CAP:
        raise BudgetExceeded("subset tables of %d entries exceed %d"
                             % (size, MITM_HALF_CAP))
    subsets = _cached_subsets if size <= _CACHE_ROWS else _subsets
    owners, found = [], []
    hits = np.zeros(ntg, np.int64)
    for ta in tas:
        left = subsets(0, half, ta)
        right = subsets(half, n, t - ta)
        nl = left.shape[0]
        lx = np.bitwise_xor.reduce(cols[left], axis=1)
        table = KeyTable(np.bitwise_xor.reduce(cols[right], axis=1))
        step = max(1, CHUNK_CELLS // nl)
        for a in range(0, ntg, step):
            # row j * nl + i is left subset i against target a + j
            lo, cnt = table.counts((lx ^ tgt[a:a + step]).reshape(-1, nw))
            if not cnt.any():
                continue
            chunk = hits[a:a + step]
            chunk += cnt.reshape(-1, nl).sum(axis=1)
            if chunk.max() > max_hits:
                raise BudgetExceeded("solution count exceeds max_hits=%d"
                                     % max_hits)
            li, ri = table.pairs(lo, cnt)
            owner, li = np.divmod(li, nl)
            owners.append(owner + a)
            found.append(np.concatenate([left[li], right[ri]], axis=1))
    if not found:
        return np.empty(0, np.int64), np.empty((0, t), np.int64)
    owner = np.concatenate(owners)
    out = np.concatenate(found)
    if out.shape[0] > 1:
        order = lex_order(owner, out, n)
        owner, out = owner[order], out[order]
    return owner, out


def lex_order(owner, idx, n):
    """The order of the rows of the (m, t) idx, whose entries lie in
    [0, n), by owner and then lexicographically: one argsort of the
    base-n key owner n^t + sum_c idx[:, c] n^(t-1-c) when it fits in
    int64, else np.lexsort over the t + 1 columns."""
    t = idx.shape[1]
    if (int(owner.max(initial=0)) + 1) * n ** t <= np.iinfo(np.int64).max:
        key = owner.astype(np.int64)
        for c in range(t):
            key = key * n + idx[:, c]
        return np.argsort(key)
    return np.lexsort(tuple(idx.T[::-1]) + (owner,))
