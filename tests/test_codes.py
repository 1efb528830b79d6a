import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import comb

from dualattack import codes as C
from dualattack.errors import BudgetExceeded, DomainError, RankDeficient


def test_gv_distance_frozen_values():
    # ball sizes checked against explicit integer sums below
    assert C.gv_distance(60, 30) == 7
    assert C.gv_distance(40, 20) == 5
    assert C.gv_distance(7, 4) == 0


def test_gv_distance_definition():
    assert sum(comb(60, i) for i in range(8)) == 442255978 < 2**30
    assert sum(comb(60, i) for i in range(9)) >= 2**30
    assert sum(comb(40, i) for i in range(6)) == 760099 < 2**20
    assert sum(comb(40, i) for i in range(7)) >= 2**20


@pytest.mark.parametrize("seed", range(8))
def test_random_code_generator_parity_orthogonal(seed):
    code = C.random_code(20, 9, seed)
    assert code.generator.shape == (9, 20)
    assert code.parity.shape == (11, 20)
    assert not np.any(C.gf2_matmul(code.generator, code.parity.T))
    assert len(C.gf2_rref(code.generator)[1]) == 9
    assert len(C.gf2_rref(code.parity)[1]) == 11


def test_random_code_deterministic():
    a = C.random_code(15, 7, 123)
    b = C.random_code(15, 7, 123)
    assert np.array_equal(a.generator, b.generator)


@given(st.integers(1, 8), st.integers(1, 16), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_nullspace_is_orthogonal_complement(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    ns = C.gf2_nullspace(a)
    assert ns.shape[0] == n - len(C.gf2_rref(a)[1])
    if ns.shape[0]:
        assert not np.any(C.gf2_matmul(a, ns.T))


def _rref_reference(a):
    # plain column-by-column elimination over GF(2) on a uint8 copy
    r = np.array(a, np.uint8)
    m, n = r.shape
    pivots, row = [], 0
    for col in range(n):
        hit = [i for i in range(row, m) if r[i, col]]
        if not hit:
            continue
        r[[row, hit[0]]] = r[[hit[0], row]]
        for i in range(m):
            if i != row and r[i, col]:
                r[i] ^= r[row]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return r, pivots


def _rref_cases():
    rng = np.random.default_rng(19)
    cases = [np.zeros((0, 5), np.uint8), np.zeros((4, 0), np.uint8),
             np.zeros((0, 0), np.uint8), np.zeros((3, 7), np.uint8)]
    for m, n in [(1, 1), (5, 9), (12, 6), (20, 40), (9, 70), (30, 130)]:
        cases.append(rng.integers(0, 2, size=(m, n), dtype=np.uint8))
    # repeated and zero rows among random ones, wider than one word
    a = rng.integers(0, 2, size=(6, 80), dtype=np.uint8)
    cases.append(np.concatenate([a, a[:3], np.zeros((2, 80), np.uint8)]))
    # sparse columns: pivots skip many columns
    cases.append((rng.random((15, 100)) < 0.05).astype(np.uint8))
    return cases


@pytest.mark.parametrize("a", _rref_cases(), ids=lambda a: "x".join(map(str, a.shape)))
def test_gf2_rref_matches_plain_elimination(a):
    r, pivots = C.gf2_rref(a)
    ref, ref_pivots = _rref_reference(a)
    assert r.dtype == np.uint8 and r.shape == a.shape
    assert np.array_equal(r, ref)
    assert pivots == ref_pivots


def test_gf2_nullspace_matches_loop_fill():
    # reference: the free column plus the pivot columns whose rref row
    # holds it, one entry at a time
    rng = np.random.default_rng(23)
    for m, n in [(4, 9), (9, 4), (7, 70), (0, 3)]:
        a = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        r, pivots = _rref_reference(a)
        free = [c for c in range(n) if c not in pivots]
        ref = np.zeros((len(free), n), np.uint8)
        for i, fc in enumerate(free):
            ref[i, fc] = 1
            for row, pc in enumerate(pivots):
                ref[i, pc] = r[row, fc]
        assert np.array_equal(C.gf2_nullspace(a), ref)


@pytest.mark.parametrize("k", [0, 1, 37, 255, 256, 300, 1000])
def test_gf2_matmul_matches_int64(k):
    # all-ones rows give sums of k, past the uint8 range from k = 256 on
    rng = np.random.default_rng(k)
    a = rng.integers(0, 2, size=(7, k), dtype=np.uint8)
    b = rng.integers(0, 2, size=(k, 5), dtype=np.uint8)
    a[0] = 1
    b[:, 0] = 1
    got = C.gf2_matmul(a, b)
    ref = ((a.astype(np.int64) @ b.astype(np.int64)) & 1).astype(np.uint8)
    assert got.dtype == np.uint8 and np.array_equal(got, ref)
    assert got[0, 0] == k & 1


def test_random_code_rejects_dependent_draws():
    # k = n draws need luck to be full rank; the first full-rank draw of
    # the stream is kept, and the code is the one LinearCode builds
    rng = np.random.default_rng(4)
    draws = 0
    while True:
        draws += 1
        g = rng.integers(0, 2, size=(6, 6), dtype=np.uint8)
        if len(C.gf2_rref(g)[1]) == 6:
            break
    assert draws > 1
    code = C.random_code(6, 6, 4)
    assert np.array_equal(code.generator, g)
    assert code.parity.shape == (0, 6)
    with pytest.raises(RankDeficient):
        C.LinearCode(np.ones((2, 5), np.uint8))


def test_hamming_coset_enumerator():
    g = np.array([[1, 0, 0, 0, 0, 1, 1],
                  [0, 1, 0, 0, 1, 0, 1],
                  [0, 0, 1, 0, 1, 1, 0],
                  [0, 0, 0, 1, 1, 1, 1]], np.uint8)
    ham = C.LinearCode(g)
    assert C.coset_weight_enumerator(ham, np.zeros(7, np.uint8)) == \
        [1, 0, 0, 7, 7, 0, 0, 1]


@pytest.mark.parametrize("seed", range(5))
def test_coset_enumerator_invariants(seed):
    code = C.random_code(13, 6, seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.integers(0, 2, size=13, dtype=np.uint8)
    hist = C.coset_weight_enumerator(code, x)
    assert sum(hist) == 2**6
    assert hist[0] == (1 if code.contains(x) else 0)
    # shifting the representative by a codeword keeps the histogram
    shift = (x + code.encode(rng.integers(0, 2, size=6, dtype=np.uint8))) % 2
    assert C.coset_weight_enumerator(code, shift) == hist


def test_coset_enumerator_budget():
    rng = np.random.default_rng(0)
    while True:
        g = rng.integers(0, 2, size=(27, 40), dtype=np.uint8)
        if len(C.gf2_rref(g)[1]) == 27:
            break
    code = C.LinearCode(g)
    with pytest.raises(BudgetExceeded):
        C.coset_weight_enumerator(code, np.zeros(40, np.uint8))


def _code_words(code):
    from dualattack._kernels import pack_rows, unpack_rows, xor_closure

    tab = xor_closure(pack_rows(code.generator))
    return {tuple(r) for r in unpack_rows(tab, code.n)}


@pytest.mark.parametrize("n,k,keep_size,seed",
                         [(10, 5, 6, 0), (12, 6, 7, 1), (14, 7, 8, 2),
                          (14, 6, 9, 3), (11, 4, 8, 4)])
def test_shorten_dual_is_punctured_dual(n, k, keep_size, seed):
    # Rprime generates C shortened to the N side, so the words of its
    # parity matrix equal the projections of dual words onto N, checked
    # as explicit sets
    code = C.random_code(n, k, seed)
    rng = np.random.default_rng(seed + 9)
    part, sf = C.draw_partition(code, n - keep_size,
                                itertools.repeat(rng, 200))
    lhs = _code_words(C.LinearCode(sf.shortened_parity))
    rhs = {tuple(part.split(h)[1]) for h in _code_words(C.LinearCode(code.parity))}
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(10))
def test_systematic_form_dual_projection(seed):
    # h_P = h_N R^T for every dual word, and the reduced rows still
    # generate the code
    code = C.random_code(14, 7, seed)
    rng = np.random.default_rng(seed)
    sf = None
    while sf is None:
        part = C.Partition.random(14, 5, rng)
        try:
            sf = C.systematic_form(code, part)
        except RankDeficient:
            continue
    from dualattack._kernels import pack_rows, unpack_rows, xor_closure

    dual_words = unpack_rows(xor_closure(pack_rows(code.parity)), 14)
    for h in dual_words:
        hp, hn = part.split(h)
        assert np.array_equal(C.gf2_matmul(hn.reshape(1, -1), sf.r.T)[0], hp)
    # reassemble generator rows in original column order and test membership
    s = part.s
    top = np.concatenate([np.eye(s, dtype=np.uint8), sf.r], axis=1)
    bot = np.concatenate([np.zeros((7 - s, s), np.uint8), sf.rprime], axis=1)
    for row in np.concatenate([top, bot]):
        y = np.zeros(14, np.uint8)
        y[np.concatenate([part.ppos, part.npos])] = row
        assert code.contains(y)


def test_systematic_form_rank_deficient():
    g = np.array([[1, 1, 0, 0, 0],
                  [0, 0, 1, 0, 1],
                  [0, 0, 0, 1, 1]], np.uint8)
    code = C.LinearCode(g)
    # columns 0 and 1 are equal, so P = {0, 1} has rank 1 < 2
    with pytest.raises(RankDeficient):
        C.systematic_form(code, C.Partition(5, [0, 1]))


def test_partition_validation():
    with pytest.raises(DomainError):
        C.Partition(8, [1, 1, 2])
    with pytest.raises(DomainError):
        C.Partition(8, [7, 8])
    p = C.Partition(8, [6, 0, 3])
    assert p.s == 3
    assert p.ppos.tolist() == [0, 3, 6]
    assert p.npos.tolist() == [1, 2, 4, 5, 7]


@given(st.integers(2, 16), st.data())
@settings(max_examples=40, deadline=None)
def test_partition_split_merge_roundtrip(n, data):
    s = data.draw(st.integers(0, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    part = C.Partition.random(n, s, rng)
    y = rng.integers(0, 2, size=n, dtype=np.uint8)
    yp, yn = part.split(y)
    assert np.array_equal(part.merge(yp, yn), y)


@pytest.mark.parametrize("seed", range(5))
def test_plant_instance(seed):
    code = C.random_code(16, 8, seed)
    inst = C.DecodingInstance.plant(code, 3, seed)
    assert int(inst.planted_e.sum()) == 3
    assert code.contains((inst.y + inst.planted_e) % 2)
    again = C.DecodingInstance.plant(code, 3, seed)
    assert np.array_equal(inst.y, again.y)


def test_draw_partition_takes_first_accepted_full_rank_draw():
    # columns 0 and 1 are equal, so P = {0, 1} is the one rank-deficient
    # pair; accept asks for position 0 on the P side.  Seeds 0, 30, 25
    # and 3 draw {3, 4} (not accepted), {0, 1} (rank-deficient), {0, 2}
    # and {0, 3}
    code = C.LinearCode(np.array([[1, 1, 0, 0, 0],
                                  [0, 0, 1, 0, 1],
                                  [0, 0, 0, 1, 1]], np.uint8))
    used = []

    def rngs():
        for seed in (0, 30, 25, 3):
            used.append(seed)
            yield np.random.default_rng(seed)

    part, sf = C.draw_partition(code, 2, rngs(), accept=lambda p: 0 in p.ppos)
    assert part.ppos.tolist() == [0, 2]
    assert used == [0, 30, 25]
    ref = C.systematic_form(code, part)
    assert np.array_equal(sf.r, ref.r)
    assert np.array_equal(sf.rprime, ref.rprime)
    # one generator shared by every draw, as the decoder passes it: seed 3
    # draws {0, 3}, {0, 4}, {2, 3}, {0, 1}, ...
    rng = np.random.default_rng(3)
    part, _ = C.draw_partition(code, 2, itertools.repeat(rng, 200),
                               accept=lambda p: 3 not in p.ppos)
    assert part.ppos.tolist() == [0, 4]
    assert C.draw_partition(code, 2, []) == (None, None)
    assert C.draw_partition(code, 2, rngs(),
                            accept=lambda p: False) == (None, None)


def test_as_bits_rejects_alphabet():
    with pytest.raises(DomainError):
        C.as_bits(np.array([0, 1, 2]))
