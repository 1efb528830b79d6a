import hashlib
import itertools

import numpy as np
import pytest
from math import comb

from dualattack import _kernels as K
from dualattack import codes as C
from dualattack import samples as S
from dualattack._kernels import pack_rows, row_ints, unpack_rows, xor_closure
from dualattack.errors import BudgetExceeded, RankDeficient


def _all_words(code):
    return unpack_rows(xor_closure(pack_rows(code.generator)), code.n)


def _good_partition(code, s, seed):
    rng = np.random.default_rng(seed)
    while True:
        part = C.Partition.random(code.n, s, rng)
        try:
            C.systematic_form(code, part)
            return part
        except RankDeficient:
            continue


@pytest.mark.parametrize("seed", range(5))
def test_aux_decode_equals_exhaustive_scan(seed):
    aux = S.AuxCode.random(10, 4, 2, seed)
    words = _all_words(aux.code)
    rng = np.random.default_rng(seed + 50)
    for _ in range(15):
        z = rng.integers(0, 2, size=10, dtype=np.uint8)
        got = {tuple(r) for r in S._decode_rows(aux, z[None, :])[1]}
        ref = {tuple(c) for c in words if int(((z + c) % 2).sum()) == 2}
        assert got == ref


def test_syndrome_table_covers_all_patterns():
    aux = S.AuxCode.random(9, 3, 2, 4)
    table, supports = aux.syndrome_table, aux.supports
    assert supports.shape == (comb(9, 2), 2) == (table.keys.shape[0], 2)
    assert [tuple(r) for r in supports] == \
        list(itertools.combinations(range(9), 2))
    keys = [int(k) for k in table.keys[:, 0]]
    assert keys == sorted(keys)
    groups = {}
    for key, i in zip(keys, table.order):
        pat = np.zeros(9, np.uint8)
        pat[supports[i]] = 1
        assert pat.sum() == 2
        assert row_ints(aux.code.syndrome(pat)) == [key]
        groups.setdefault(key, []).append(tuple(supports[i]))
    # equal syndromes keep the lexicographic order of their supports
    assert max(len(g) for g in groups.values()) > 1
    for g in groups.values():
        assert g == sorted(g)


def test_sample_set_frozen_digest():
    # a t_aux = 2 sample set of the README shape, several patterns per
    # auxiliary syndrome; the digest was taken before the syndrome table
    # became a sorted array
    code = C.random_code(40, 20, seed=[5, 101])
    part, sf = C.draw_partition(
        code, 16, itertools.repeat(np.random.default_rng(3), 200))
    aux = S.AuxCode.random(16, 8, 2, seed=[5, 7])
    ss = S.build_sample_set(code, part, 5, aux, sf=sf)
    h = hashlib.sha256()
    for a in (ss.hn, ss.hp, ss.caux):
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    assert ss.count == 1268
    assert h.hexdigest() == \
        "35e7bdba858418bfa73afd0ce4b03e29778aaa2f315dc2891fc9cd55fb183c6a"


def _gray(code, part, w):
    # reference: sweep all 2^(n-k) dual words in Gray order
    hn, hp = K.gray_low_weight(pack_rows(code.parity[:, part.npos]),
                               pack_rows(code.parity[:, part.ppos]), w)
    return unpack_rows(hn, code.n - part.s), unpack_rows(hp, part.s)


def _mitm(code, part, w):
    assert K.comb_search_fits(code.n - part.s, w)
    return S.enumerate_dual_low_weight(code, part, w)


@pytest.mark.parametrize("w", [0, 1, 2, 3, 4])
def test_gray_and_mitm_agree(w):
    code = C.random_code(16, 7, 2)
    part = _good_partition(code, 6, 3)
    g_n, g_p = _gray(code, part, w)
    m_n, m_p = _mitm(code, part, w)
    assert np.array_equal(g_n, m_n)
    assert np.array_equal(g_p, m_p)


def test_gray_and_mitm_agree_at_decode_scale():
    # the README decode shape, where the kernel splits the 24 N-columns
    code = C.random_code(40, 20, 5)
    part = _good_partition(code, 16, 5)
    g_n, g_p = _gray(code, part, 5)
    m_n, m_p = _mitm(code, part, 5)
    assert g_n.shape[0] > 1000
    assert np.array_equal(g_n, m_n)
    assert np.array_equal(g_p, m_p)


def test_gray_and_mitm_agree_on_wide_shortened_code():
    # k - s = 72, so the shortened-code syndromes take two words; the dual
    # has 12 rows whose N-parts are disjoint pairs, so sums of j rows have
    # |h_N| = 2j
    n, r, s = 100, 12, 16
    rng = np.random.default_rng(8)
    h = np.zeros((r, n), np.uint8)
    h[:, :s] = rng.integers(0, 2, size=(r, s), dtype=np.uint8)
    for i in range(r):
        h[i, s + 2 * i:s + 2 * i + 2] = 1
    code = C.LinearCode(C.gf2_nullspace(h))
    part = C.Partition(n, np.arange(s))
    assert code.k - s > 64
    for w, count in [(2, r), (3, 0), (4, comb(r, 2))]:
        g_n, g_p = _gray(code, part, w)
        m_n, m_p = _mitm(code, part, w)
        assert g_n.shape[0] == count
        assert np.array_equal(g_n, m_n)
        assert np.array_equal(g_p, m_p)
    # no dual word at w = 3 gives an empty, complete pair set
    ss = S.build_sample_set(code, part, 3, S.AuxCode.random(s, 4, 1, 0))
    assert ss.count == 0 and ss.complete
    assert ss.hn.shape == (0, n - s) and ss.caux.shape == (0, s)


def test_enumerate_finds_every_dual_word(seed=6):
    code = C.random_code(14, 8, seed)
    part = _good_partition(code, 5, seed)
    duals = _all_words(C.LinearCode(code.parity))
    for w in range(10):
        hn, hp = S.enumerate_dual_low_weight(code, part, w)
        got = {tuple(np.concatenate([p, n_]))
               for p, n_ in zip(hp, hn)}
        ref = set()
        for h in duals:
            p_, n_ = part.split(h)
            if int(n_.sum()) == w:
                ref.add(tuple(np.concatenate([p_, n_])))
        assert got == ref


def test_enumerate_over_subset_table_cap_raises(monkeypatch):
    # with no room for the subset tables there is no other path: the
    # enumeration refuses, at any code size
    code = C.random_code(40, 20, 5)
    part = _good_partition(code, 16, 5)
    monkeypatch.setattr(K, "MITM_HALF_CAP", 0)
    assert not K.comb_search_fits(24, 5)
    with pytest.raises(BudgetExceeded, match="subset tables"):
        S.enumerate_dual_low_weight(code, part, 5)


def test_enumerate_budget(monkeypatch):
    small = C.random_code(16, 7, 2)
    spart = _good_partition(small, 6, 3)
    hn, _ = _mitm(small, spart, 3)
    assert hn.shape[0] > 2
    # the enumeration admits exactly MAX_DUAL_WORDS words
    monkeypatch.setattr(S, "MAX_DUAL_WORDS", hn.shape[0] - 1)
    with pytest.raises(BudgetExceeded):
        S.enumerate_dual_low_weight(small, spart, 3)
    monkeypatch.setattr(S, "MAX_DUAL_WORDS", hn.shape[0])
    assert S.enumerate_dual_low_weight(small, spart, 3)[0].shape[0] == hn.shape[0]


def test_pair_invariants_and_membership():
    code = C.random_code(16, 7, 2)
    part = _good_partition(code, 6, 3)
    aux = S.AuxCode.random(6, 3, 1, 11)
    ss = S.build_sample_set(code, part, 3, aux)
    assert ss.complete
    assert np.all(ss.hn.sum(axis=1) == 3)
    assert np.all(((ss.hp + ss.caux) % 2).sum(axis=1) == 1)
    dual = C.LinearCode(code.parity)
    # the dual words back in original column order
    h = np.zeros((ss.count, code.n), np.uint8)
    h[:, part.ppos] = ss.hp
    h[:, part.npos] = ss.hn
    for row in h:
        assert dual.contains(row)
    for c in ss.caux:
        assert aux.code.contains(c)


def test_pair_count_respects_aux_decode():
    # the pair multiset is exactly {(h, c) : c decodes h_P alone}
    code = C.random_code(12, 6, 9)
    part = _good_partition(code, 5, 1)
    aux = S.AuxCode.random(5, 2, 1, 3)
    ss = S.build_sample_set(code, part, 2, aux)
    hn, hp = S.enumerate_dual_low_weight(code, part, 2)
    want = 0
    for i in range(hn.shape[0]):
        want += S._decode_rows(aux, hp[i][None, :])[1].shape[0]
    assert ss.count == want


def test_pair_paths_agree_on_wide_aux_syndromes():
    # s - k_aux = 68: each auxiliary syndrome takes two 64-bit words, and
    # every h_P lies at distance 1 from an auxiliary codeword
    aux = S.AuxCode.random(70, 2, 1, 3)
    rng = np.random.default_rng(5)
    hp = _all_words(aux.code)[rng.integers(0, 4, size=40)]
    hp[np.arange(40), rng.integers(0, 70, size=40)] ^= 1
    hn = rng.integers(0, 2, size=(40, 9), dtype=np.uint8)
    rows, caux = S._decode_rows(aux, hp)
    got = hn[rows], hp[rows], caux
    # reference: each row decoded alone, pairs in row order
    rows = [(hn[i], hp[i], c) for i in range(40) for c in S._decode_rows(aux, hp[i][None, :])[1]]
    want = [np.array(col, np.uint8) for col in zip(*rows)]
    assert got[0].shape[0] == want[0].shape[0] == 40
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_mean_pair_count_tracks_expectation():
    # sample mean over 30 fresh draws vs the random-code expectation
    n, k, s, w, k_aux, t_aux = 16, 8, 6, 3, 3, 1
    expect = float(S.expected_pair_count(n, k, s, w, t_aux, k_aux))
    counts = []
    for seed in range(30):
        code = C.random_code(n, k, seed)
        part = _good_partition(code, s, seed + 1000)
        aux = S.AuxCode.random(s, k_aux, t_aux, seed + 2000)
        counts.append(S.build_sample_set(code, part, w, aux).count)
    counts = np.array(counts, float)
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - expect) <= 3 * se


def test_subsample_budget_and_determinism():
    code = C.random_code(16, 7, 2)
    part = _good_partition(code, 6, 3)
    aux = S.AuxCode.random(6, 3, 1, 11)
    full = S.build_sample_set(code, part, 3, aux)
    budget = max(1, full.count // 2)
    a = S.build_sample_set(code, part, 3, aux, budget=budget, seed=5)
    b = S.build_sample_set(code, part, 3, aux, budget=budget, seed=5)
    assert a.count == budget and not a.complete
    assert np.array_equal(a.hn, b.hn) and np.array_equal(a.caux, b.caux)
    # a subsample is a subset of the full multiset
    full_rows = {tuple(np.concatenate([x, y, z]))
                 for x, y, z in zip(full.hn, full.hp, full.caux)}
    for x, y, z in zip(a.hn, a.hp, a.caux):
        assert tuple(np.concatenate([x, y, z])) in full_rows
