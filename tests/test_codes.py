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
    assert C.gf2_rank(code.generator) == 9
    assert C.gf2_rank(code.parity) == 11


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
    assert ns.shape[0] == n - C.gf2_rank(a)
    if ns.shape[0]:
        assert not np.any(C.gf2_matmul(a, ns.T))


@given(st.integers(2, 7), st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gf2_solve_roundtrip(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    x0 = rng.integers(0, 2, size=m, dtype=np.uint8)
    b = C.gf2_matmul(x0.reshape(1, -1), a)[0]
    x = C.gf2_solve(a, b)
    assert x is not None
    assert np.array_equal(C.gf2_matmul(x.reshape(1, -1), a)[0], b)


def test_gf2_solve_inconsistent():
    a = np.array([[1, 0, 0], [0, 1, 0]], np.uint8)
    assert C.gf2_solve(a, np.array([0, 0, 1], np.uint8)) is None


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
        if C.gf2_rank(g) == 27:
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
    rhs = {tuple(part.split(h)[1]) for h in _code_words(code.dual())}
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
        y[sf.column_order] = row
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
