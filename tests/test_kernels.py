import os
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualattack import _kernels as K
from dualattack.errors import BudgetExceeded


@given(st.integers(0, 6), st.integers(0, 150), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pack_unpack_roundtrip(m, n, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    # the flat packing against packbits along each zero-padded row
    padded = np.zeros((m, 64 * max(1, -(-n // 64))), np.uint8)
    padded[:, :n] = bits
    want = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
    got = K.pack_rows(bits)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.array_equal(K.unpack_rows(K.pack_rows(bits), n), bits)
    assert np.array_equal(K.ints_to_rows(K.row_ints(bits), n), bits)


def _brute_low_weight(basis_n, basis_p, w):
    m = basis_n.shape[0]
    out = []
    for mask in range(1 << m):
        vn = np.zeros(basis_n.shape[1], np.uint8)
        vp = np.zeros(basis_p.shape[1], np.uint8)
        for b in range(m):
            if (mask >> b) & 1:
                vn ^= basis_n[b]
                vp ^= basis_p[b]
        if int(vn.sum()) == w:
            out.append((int(K.pack_rows(vn)[0, 0]), int(K.pack_rows(vp)[0, 0])))
    return sorted(out)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("w", [0, 1, 2, 3, 5])
def test_gray_low_weight_matches_brute_force(seed, w):
    rng = np.random.default_rng(seed)
    m, ln, lp = 9, 13, 6
    rows = rng.integers(0, 2, size=(m, ln + lp), dtype=np.uint8)
    bn, bp = rows[:, :ln], rows[:, ln:]
    got_n, got_p = K.gray_low_weight(K.pack_rows(bn), K.pack_rows(bp), w)
    got = sorted(zip(got_n[:, 0].tolist(), got_p[:, 0].tolist()))
    assert got == _brute_low_weight(bn, bp, w)


def test_gray_low_weight_empty_basis():
    bn = np.empty((0, 1), np.uint64)
    bp = np.empty((0, 1), np.uint64)
    hn, hp = K.gray_low_weight(bn, bp, 0)
    assert hn.shape == (1, 1) and int(hn[0, 0]) == 0
    hn, hp = K.gray_low_weight(bn, bp, 1)
    assert hn.shape == (0, 1)


def test_gray_low_weight_multiword():
    # 70-bit N side exercises the generic two-word path
    rng = np.random.default_rng(11)
    bn = rng.integers(0, 2, size=(10, 70), dtype=np.uint8)
    bp = rng.integers(0, 2, size=(10, 3), dtype=np.uint8)
    got_n, got_p = K.gray_low_weight(K.pack_rows(bn), K.pack_rows(bp), 30)
    wt = K.popcount_rows(got_n)
    assert np.all(wt == 30)
    cnt = 0
    for mask in range(1 << 10):
        v = np.zeros(70, np.uint8)
        for b in range(10):
            if (mask >> b) & 1:
                v ^= bn[b]
        cnt += int(v.sum()) == 30
    assert got_n.shape[0] == cnt


@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_wht_self_inverse(logn, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-100, 100, size=1 << logn).astype(np.int64)
    b = a.copy()
    K.wht_inplace(b)
    K.wht_inplace(b)
    assert np.array_equal(b, a << logn)


def test_wht_matches_definition():
    rng = np.random.default_rng(5)
    m = 6
    f = rng.integers(-20, 20, size=1 << m).astype(np.int64)
    fh = f.copy()
    K.wht_inplace(fh)
    for x in range(1 << m):
        acc = sum(int(f[a]) * (-1 if bin(x & a).count("1") & 1 else 1)
                  for a in range(1 << m))
        assert acc == fh[x]


def _copy_butterfly(a):
    # the butterfly wht_inplace replaced: both halves copied out, their
    # sum and difference written back
    n, h = a.shape[0], 1
    while h < n:
        b = a.reshape(-1, 2 * h)
        x = b[:, :h].copy()
        y = b[:, h:].copy()
        b[:, :h] = x + y
        b[:, h:] = x - y
        h *= 2
    return a


@pytest.mark.parametrize("logn", [0, 1, 2, 3, 8, 13, 20])
def test_wht_inplace_matches_copy_butterfly(logn):
    # bit for bit, also on entries whose sums wrap around 2^64
    rng = np.random.default_rng(logn)
    for bound in (2 ** 40, 2 ** 63):
        a = rng.integers(-bound, bound, size=1 << logn)
        assert np.array_equal(K.wht_inplace(a.copy()), _copy_butterfly(a.copy()))


@given(st.integers(0, 40), st.integers(0, 70), st.integers(0, 130),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_xor_rows_is_the_gf2_product(m, r, n, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(m, r), dtype=np.uint8)
    mat = rng.integers(0, 2, size=(r, n), dtype=np.uint8)
    got = K.xor_rows(bits, K.pack_rows(mat))
    want = K.pack_rows((bits.astype(np.int64) @ mat) & 1)
    assert got.dtype == np.uint64 and np.array_equal(got, want)


def test_wht_rejects_bad_input():
    with pytest.raises(ValueError):
        K.wht_inplace(np.zeros(3, np.int64))
    with pytest.raises(ValueError):
        K.wht_inplace(np.zeros(4, np.float64))


@pytest.mark.parametrize("seed", range(4))
def test_coset_hist_matches_brute(seed):
    rng = np.random.default_rng(seed)
    k, n = 7, 19
    basis = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    hist = K.coset_weight_hist(K.pack_rows(basis), K.pack_rows(x)[0], n)
    ref = np.zeros(n + 1, np.int64)
    for mask in range(1 << k):
        v = x.copy()
        for b in range(k):
            if (mask >> b) & 1:
                v ^= basis[b]
        ref[int(v.sum())] += 1
    assert np.array_equal(hist, ref)
    assert int(hist.sum()) == 1 << k


def test_coset_hist_multi_block():
    # 21 rows: the sweep runs 2^3 blocks of 2^18 words
    rng = np.random.default_rng(19)
    basis = K.pack_rows(rng.integers(0, 2, size=(21, 40), dtype=np.uint8))
    x = K.pack_rows(rng.integers(0, 2, size=40, dtype=np.uint8))[0]
    ref = np.bincount(K.popcount_rows(K.xor_closure(basis) ^ x),
                      minlength=41)
    assert np.array_equal(K.coset_weight_hist(basis, x, 40), ref)


def _brute_comb(cols, target, t):
    import itertools

    # a 2-d cols row or a target array is one integer, word 0 lowest
    def value(words):
        words = np.asarray(words, np.uint64).reshape(-1)
        return sum(int(x) << (64 * j) for j, x in enumerate(words))

    vals = [value(c) for c in cols]
    ref = []
    for combo in itertools.combinations(range(len(vals)), t):
        acc = 0
        for c in combo:
            acc ^= vals[c]
        if acc == value(target):
            ref.append(combo)
    return ref


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_comb_xor_search_matches_brute(t):
    rng = np.random.default_rng(17)
    cols = rng.integers(0, 1 << 12, size=18, dtype=np.uint64)
    target = np.uint64(0)
    for c in cols[[2, 5]]:
        target ^= c
    got = [tuple(row) for row in K.comb_xor_search(cols, target, t)]
    assert got == _brute_comb(cols, target, t)
    if t == 2:
        assert (2, 5) in got


def test_comb_xor_search_planted_triple_matches_brute():
    rng = np.random.default_rng(23)
    cols = rng.integers(0, 1 << 10, size=15, dtype=np.uint64)
    target = cols[0] ^ cols[3] ^ cols[9]
    got = [tuple(r) for r in K.comb_xor_search(cols, target, 3)]
    assert got == _brute_comb(cols, target, 3)
    assert (0, 3, 9) in got


def test_comb_xor_search_split_matches_brute():
    # 8-bit columns: many right-half xors repeat, so one left-half lookup
    # matches several of them
    rng = np.random.default_rng(29)
    cols = rng.integers(0, 1 << 8, size=30, dtype=np.uint64)
    target = cols[1] ^ cols[14] ^ cols[15] ^ cols[28]
    got = [tuple(r) for r in K.comb_xor_search(cols, target, 4)]
    assert got == _brute_comb(cols, target, 4)
    assert len(got) > 50 and (1, 14, 15, 28) in got


def test_comb_xor_search_budget():
    # every pair of zero columns xors to 0: 45 solutions against a cap of 3
    with pytest.raises(BudgetExceeded):
        K.comb_xor_search(np.zeros(10, np.uint64), 0, 2, max_hits=3)
    # halves of C(100, 6) subsets each exceed the table cap
    assert not K.comb_search_fits(200, 6)
    with pytest.raises(BudgetExceeded):
        K.comb_xor_search(np.zeros(200, np.uint64), 0, 6)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_comb_xor_search_wide_words_match_brute(t):
    # two-word columns whose low words collide often: a match must hold on
    # the high word too
    rng = np.random.default_rng(31)
    cols = np.column_stack([rng.integers(0, 4, size=24, dtype=np.uint64),
                            rng.integers(0, 1 << 5, size=24,
                                         dtype=np.uint64)])
    target = np.bitwise_xor.reduce(cols[[3, 11, 17, 20][:t]], axis=0)
    got = [tuple(r) for r in K.comb_xor_search(cols, target, t)]
    assert got == _brute_comb(cols, target, t)
    assert (3, 11, 17, 20)[:t] in got
    low = [tuple(r) for r in K.comb_xor_search(cols[:, 0], target[0], t)]
    assert len(low) > len(got)


def _many_cases(wide):
    # 12 columns whose low words collide often; targets: planted xors,
    # a repeated one, zero and a random word
    rng = np.random.default_rng(37 if wide else 41)
    if wide:
        cols = np.column_stack([rng.integers(0, 4, size=12, dtype=np.uint64),
                                rng.integers(0, 1 << 4, size=12,
                                             dtype=np.uint64)])
    else:
        cols = rng.integers(0, 1 << 5, size=12, dtype=np.uint64)
    planted = [np.bitwise_xor.reduce(cols[list(c)], axis=0)
               for c in [(1, 7), (0, 4, 9), (2, 3, 10)]]
    zero = np.zeros_like(planted[0])
    rand = rng.integers(0, 1 << 5, size=zero.shape, dtype=np.uint64)
    return cols, np.array(planted + [planted[0], zero, rand])


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("t", [0, 1, 2, 3, 13])
def test_comb_xor_search_many_matches_separate_and_brute(wide, t):
    cols, targets = _many_cases(wide)
    for ntg in (0, 1, 2, targets.shape[0]):
        owner, idx = K.comb_xor_search_many(cols, targets[:ntg], t)
        assert idx.shape[1] == t and owner.shape == (idx.shape[0],)
        got = [(int(o), tuple(r)) for o, r in zip(owner, idx)]
        brute = [(j, c) for j in range(ntg)
                 for c in _brute_comb(cols, targets[j], t)]
        one_by_one = [(j, tuple(r)) for j in range(ntg)
                      for r in K.comb_xor_search(cols, targets[j], t)]
        assert got == brute == one_by_one
    if t == 2:
        # the repeated target gets the same solutions under its own row
        assert (0, (1, 7)) in got and (3, (1, 7)) in got
    if t == 0:
        assert got == [(4, ())]


def test_comb_xor_search_many_budget_per_target():
    # five zero columns: target 0 has C(5, 2) = 10 weight-2 solutions,
    # targets 1 ^ 2 and 8 ^ 16 one each, and target 1 five
    cols = np.array([0, 0, 0, 0, 0, 1, 2, 4, 8, 16], np.uint64)
    targets = np.array([3, 24, 0, 1], np.uint64)
    counts = [len(_brute_comb(cols, x, 2)) for x in targets]
    assert counts == [1, 1, 10, 5]
    with pytest.raises(BudgetExceeded) as err:
        K.comb_xor_search_many(cols, targets, 2, max_hits=5)
    assert err.value.owner == 2
    # the cap holds per target: 5 + 5 solutions pass a cap of 5
    owner, _ = K.comb_xor_search_many(cols, targets[[3, 3, 0]], 2,
                                      max_hits=5)
    assert owner.tolist() == [0] * 5 + [1] * 5 + [2]
    owner, _ = K.comb_xor_search_many(cols, targets[[0, 1]], 2, max_hits=1)
    assert owner.tolist() == [0, 1]
    with pytest.raises(BudgetExceeded) as err:
        K.comb_xor_search(cols, 0, 2, max_hits=9)
    assert err.value.owner == 0


def _search_outcome(cols, targets, t, max_hits=1 << 22):
    try:
        owner, idx = K.comb_xor_search_many(cols, targets, t, max_hits)
    except BudgetExceeded as err:
        return "over", err.owner
    return owner.tobytes(), idx.tobytes(), idx.shape


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_comb_xor_search_many_chunks_keep_output(monkeypatch, wide, t):
    # an absent target (bit 40 is in no column), then 40 drawn from the
    # planted, repeated, zero and random ones
    cols, targets = _many_cases(wide)
    absent = np.zeros_like(targets[:1])
    absent.reshape(-1)[0] = 1 << 40
    targets = np.concatenate([absent, targets[
        np.random.default_rng(t).integers(0, targets.shape[0], size=40)]])
    owner, _ = K.comb_xor_search_many(cols, targets, t)
    cap = int(np.bincount(owner).max()) - 1
    # one target per chunk, one per chunk of the split at left weight 1,
    # and all in one chunk
    got = []
    for cells in (1, comb(6, 1), K.CHUNK_CELLS):
        monkeypatch.setattr(K, "CHUNK_CELLS", cells)
        got.append([_search_outcome(cols, targets, t, max_hits)
                    for max_hits in (1 << 22, cap)])
    assert got[0] == got[1] == got[2]
    # a target past the first chunk goes over the cap, and keeps its row
    assert got[0][1][0] == "over" and got[0][1][1] > 0


@pytest.mark.parametrize("n, t, ntg, fits", [
    (24, 5, 1, True), (24, 5, 300, True), (16, 0, 4, True),
    (1000, 6, 9, True), (1000, 6, 10, False), (1000, 7, 1, False),
    (2**20, 3, 2**5, False)])
def test_lex_order_matches_lexsort(monkeypatch, n, t, ntg, fits):
    # distinct rows of entries below n in random order; past 2^63 - 1 the
    # base-n key owner n^t + ... no longer fits and np.lexsort runs
    rng = np.random.default_rng([n, t, ntg])
    owner = rng.integers(0, ntg, size=400)
    owner[0] = ntg - 1
    idx = rng.integers(0, n, size=(400, t))
    idx[:, :1] = rng.integers(0, min(n, 3), size=(400, min(t, 1)))
    _, keep = np.unique(np.column_stack([owner, idx]), axis=0,
                        return_index=True)
    keep = rng.permutation(keep)
    owner, idx = owner[keep], idx[keep]
    assert (ntg * n ** t <= np.iinfo(np.int64).max) == fits
    ref = np.lexsort(tuple(idx.T[::-1]) + (owner,))
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort",
                        lambda keys: calls.append(1) or lexsort(keys))
    order = K.lex_order(owner, idx, n)
    assert np.array_equal(order, ref)
    assert not np.array_equal(order, np.arange(order.size))
    assert calls == ([] if fits else [1])


def test_sort_pairs_one_key_matches_lexsort():
    # single words whose bits fit 64 together take the one-key sort; wider
    # ones the lexsort; both give the order of (hn words, hp words)
    rng = np.random.default_rng(43)
    for nn, s in [(24, 16), (40, 24), (50, 20), (70, 10)]:
        hn = K.pack_rows(rng.integers(0, 2, size=(300, nn), dtype=np.uint8))
        hp = K.pack_rows(rng.integers(0, 2, size=(300, s), dtype=np.uint8))
        hn[::7] = hn[0]
        got_n, got_p = K._sort_pairs(hn, hp)
        keys = tuple(hp.T[::-1]) + tuple(hn.T[::-1])
        order = np.lexsort(keys)
        assert np.array_equal(got_n, hn[order])
        assert np.array_equal(got_p, hp[order])


@pytest.mark.parametrize("wide", [False, True])
def test_key_table_matches_scan(wide):
    rng = np.random.default_rng(47)
    nw = 2 if wide else 1
    keys = rng.integers(0, 4, size=(60, nw), dtype=np.uint64)
    queries = rng.integers(0, 5, size=(25, nw), dtype=np.uint64)
    table = K.KeyTable(keys)
    qi, ki = table.pairs(*table.counts(queries))
    ref = [(i, j) for i in range(25) for j in range(60)
           if np.array_equal(queries[i], keys[j])]
    assert list(zip(qi.tolist(), ki.tolist())) == ref
    assert len(ref) > 25


def test_dot_parity():
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 2, size=(50, 33), dtype=np.uint8)
    y = rng.integers(0, 2, size=33, dtype=np.uint8)
    got = K.dot_parity(K.pack_rows(rows), K.pack_rows(y)[0])
    ref = (rows @ y.astype(np.int64)) & 1
    assert np.array_equal(got, ref.astype(np.uint8))


def test_xor_closure_subset_order():
    rows = K.pack_rows(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], np.uint8))
    tab = K.xor_closure(rows)
    vals = tab[:, 0].tolist()
    assert vals == [0, 1, 2, 3, 4, 5, 6, 7]


def _kernel_outputs():
    rng = np.random.default_rng(13)
    a = rng.integers(-50, 50, size=1 << 8).astype(np.int64)
    bn = K.pack_rows(rng.integers(0, 2, size=(10, 20), dtype=np.uint8))
    bp = K.pack_rows(rng.integers(0, 2, size=(10, 7), dtype=np.uint8))
    basis = K.pack_rows(rng.integers(0, 2, size=(8, 30), dtype=np.uint8))
    x = K.pack_rows(rng.integers(0, 2, size=30, dtype=np.uint8))[0]
    hn, hp = K.gray_low_weight(bn, bp, 5)
    return [K.wht_inplace(a).tolist(), hn.tolist(), hp.tolist(),
            K.coset_weight_hist(basis, x, 30).tolist()]


def test_kernels_run_without_numba_or_backend_switch():
    # every kernel has one numpy path: importing numba fails and the old
    # DUALATTACK_BACKEND variable names a backend that never existed, yet
    # the package imports and returns the same arrays as in this process
    import json
    import subprocess
    import sys
    from pathlib import Path

    import dualattack

    probe = (
        "import importlib.abc, json, sys\n"
        "class NoNumba(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'numba':\n"
        "            raise ImportError('numba is blocked')\n"
        "sys.meta_path.insert(0, NoNumba())\n"
        "import test_kernels\n"
        "print(json.dumps(test_kernels._kernel_outputs()))\n")
    src = str(Path(dualattack.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).resolve().parent),
                            os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, DUALATTACK_BACKEND="cuda", PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == _kernel_outputs()
