from types import SimpleNamespace

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from dualattack import codes as C
from dualattack import fourier as F
from dualattack import samples as S
from dualattack.errors import BudgetExceeded, DomainError, InconsistentAux


def _setup(seed=2):
    code = C.random_code(12, 6, seed)
    rng = np.random.default_rng(seed + 7)
    from dualattack.errors import RankDeficient

    while True:
        part = C.Partition.random(12, 5, rng)
        try:
            C.systematic_form(code, part)
            break
        except RankDeficient:
            continue
    aux = S.AuxCode.random(5, 2, 1, seed + 3)
    ss = S.build_sample_set(code, part, 2, aux)
    y = rng.integers(0, 2, size=12, dtype=np.uint8)
    return code, part, aux, ss, y


def gf2_solve(a, b):
    """One solution x of x a = b (row-vector convention), or None: the
    reference that puts a point in each fiber of the score table."""
    a = C.as_bits(np.atleast_2d(a))
    b = C.as_bits(b).reshape(-1)
    m = a.shape[0]
    r, pivots = C.gf2_rref(np.concatenate([a.T, b.reshape(-1, 1)], axis=1))
    x = np.zeros(m, dtype=np.uint8)
    for row, pc in enumerate(pivots):
        if pc == m:
            return None
        x[pc] = r[row, m]
    if np.any(C.gf2_matmul(x.reshape(1, -1), a)[0] != b):
        return None
    return x


@given(st.integers(2, 7), st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gf2_solve_roundtrip(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    x0 = rng.integers(0, 2, size=m, dtype=np.uint8)
    b = C.gf2_matmul(x0.reshape(1, -1), a)[0]
    x = gf2_solve(a, b)
    assert x is not None
    assert np.array_equal(C.gf2_matmul(x.reshape(1, -1), a)[0], b)


def test_gf2_solve_inconsistent():
    a = np.array([[1, 0, 0], [0, 1, 0]], np.uint8)
    assert gf2_solve(a, np.array([0, 0, 1], np.uint8)) is None


def _fhat_brute(y, ss, x):
    """Direct signed sum over pairs at a secret guess x in F2^s."""
    acc = 0
    # the dual words back in original column order
    h = np.zeros((ss.count, ss.part.n), np.uint8)
    h[:, ss.part.ppos] = ss.hp
    h[:, ss.part.npos] = ss.hn
    for i in range(ss.count):
        e1 = int(np.dot(y.astype(int), h[i].astype(int))) & 1
        e2 = int(np.dot(x.astype(int), ss.caux[i].astype(int))) & 1
        acc += -1 if (e1 ^ e2) else 1
    return acc


def test_build_f_total_and_parseval():
    _, _, aux, ss, y = _setup()
    table = F.build_f(y, ss, aux.code.generator)
    assert int(np.abs(table.values).sum()) <= ss.count
    f2 = int((table.values.astype(object) ** 2).sum())
    fh = F.FourierTable(table.k_aux)
    fh.values[:] = table.values
    F.wht(fh)
    fh2 = int((fh.values.astype(object) ** 2).sum())
    assert fh2 == (1 << table.k_aux) * f2


def test_fhat_matches_brute_definition_on_fibers():
    _, _, aux, ss, y = _setup()
    g = aux.code.generator
    table = F.wht(F.build_f(y, ss, g))
    # fiber of u: any x with g x^T = u, shifted by the kernel of g
    for u in range(1 << aux.k_aux):
        ub = F.index_to_bits(u, aux.k_aux)
        x = gf2_solve(g.T, ub)
        assert x is not None
        assert _fhat_brute(y, ss, x) == int(table.values[u])
        ker = C.gf2_nullspace(g)
        for kv in ker:
            assert _fhat_brute(y, ss, (x + kv) % 2) == int(table.values[u])


def test_wht_self_inverse_on_table():
    _, _, aux, ss, y = _setup(seed=4)
    t0 = F.build_f(y, ss, aux.code.generator)
    t = F.FourierTable(t0.k_aux)
    t.values[:] = t0.values
    F.wht(t)
    F.wht(t)
    assert np.array_equal(t.values, t0.values << t0.k_aux)


def test_message_decompose_inconsistent():
    g = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], np.uint8)
    ok = np.array([[1, 1, 0, 0]], np.uint8)
    assert np.array_equal(F.message_decompose(ok, g), np.array([[1, 1]], np.uint8))
    bad = np.array([[0, 0, 1, 0]], np.uint8)
    with pytest.raises(InconsistentAux):
        F.message_decompose(bad, g)
    with pytest.raises(DomainError):
        F.message_decompose(ok, np.array([[1, 1, 0, 0], [1, 1, 0, 0]],
                                         np.uint8))


@pytest.mark.parametrize("seed", range(6))
def test_message_decompose_recovers_messages(seed):
    # full-rank generators whose pivots skip columns: a zero first column
    # and a repeated one
    rng = np.random.default_rng(seed)
    k = 1 + seed % 4
    g = np.zeros((k, 9), np.uint8)
    while len(C.gf2_rref(g)[1]) < k:
        g = rng.integers(0, 2, size=(k, 9), dtype=np.uint8)
        g[:, 0] = 0
        g[:, 3] = g[:, 2]
    msgs = rng.integers(0, 2, size=(20, k), dtype=np.uint8)
    got = F.message_decompose(C.gf2_matmul(msgs, g), g)
    assert np.array_equal(got, msgs)


def _matmul_decompose(caux, g):
    # the float BLAS form message_decompose replaced: (messages, whether
    # some row is outside the row space)
    k, s = g.shape
    r, pivots = C.gf2_rref(np.concatenate([g, np.eye(k, dtype=np.uint8)],
                                          axis=1))
    msgs = C.gf2_matmul(caux[:, pivots], r[:, s:])
    return msgs, bool(np.any(C.gf2_matmul(msgs, g) != caux))


@pytest.mark.parametrize("k, s", [(1, 3), (4, 9), (8, 16), (20, 28), (30, 70),
                                  (66, 70)])
def test_message_decompose_matches_matmul_form(k, s):
    # bit for bit on codewords, messages and rows past one 64-bit word,
    # and the same refusal once one row leaves the row space
    rng = np.random.default_rng([k, s])
    g = np.zeros((k, s), np.uint8)
    while len(C.gf2_rref(g)[1]) < k:
        g = rng.integers(0, 2, size=(k, s), dtype=np.uint8)
    caux = C.gf2_matmul(rng.integers(0, 2, size=(300, k), dtype=np.uint8), g)
    want, outside = _matmul_decompose(caux, g)
    assert not outside
    got = F.message_decompose(caux, g)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    bad = caux.copy()
    bad[137] ^= C.gf2_nullspace(g)[0]
    assert _matmul_decompose(bad, g)[1]
    with pytest.raises(InconsistentAux):
        F.message_decompose(bad, g)


@pytest.mark.parametrize("k_aux,count", [(1, 300), (8, 3000), (20, 65536),
                                         (8, 0)])
def test_build_f_matches_bincount_table(k_aux, count):
    # the float64 bincount fill that the integer fill replaced, on a
    # synthetic sample set whose auxiliary messages are drawn directly
    rng = np.random.default_rng([k_aux, count])
    n, s = 40, 24
    part = C.Partition.random(n, s, rng)
    g_aux = C.random_code(s, k_aux, seed=k_aux).generator
    msgs = rng.integers(0, 2, size=(count, k_aux), dtype=np.uint8)
    ss = SimpleNamespace(
        part=part, count=count, caux=C.gf2_matmul(msgs, g_aux),
        hp=rng.integers(0, 2, size=(count, s), dtype=np.uint8),
        hn=rng.integers(0, 2, size=(count, n - s), dtype=np.uint8))
    y = rng.integers(0, 2, size=n, dtype=np.uint8)
    yp, yn = part.split(y)
    labels = (C.gf2_matmul(ss.hn, yn.reshape(-1, 1))
              ^ C.gf2_matmul(ss.hp, yp.reshape(-1, 1)))[:, 0]
    idx = msgs.astype(np.int64) @ (1 << np.arange(k_aux))
    ref = np.bincount(idx, weights=1.0 - 2.0 * labels,
                      minlength=1 << k_aux).astype(np.int64)
    table = F.build_f(y, ss, g_aux)
    assert table.values.dtype == np.int64
    assert np.array_equal(table.values, ref)


def test_build_f_rejects_foreign_codewords():
    code, part, aux, ss, y = _setup()
    other = np.array([[1, 0, 0, 0, 1], [0, 1, 0, 0, 1]], np.uint8)
    if ss.count == 0:
        pytest.skip("no pairs at this draw")
    with pytest.raises(InconsistentAux):
        F.build_f(y, ss, other)


def test_fft_decode_strict_threshold():
    _, _, aux, ss, y = _setup(seed=9)
    g = aux.code.generator
    fh = F.wht(F.build_f(y, ss, g))
    # pick a threshold sitting exactly on the maximum score
    top = int(fh.values.max())
    delta = Fraction(2 * top, ss.count)
    cand = F.fft_decode(y, ss, g, delta, Fraction(ss.count))
    # strict inequality: the top scorer itself is excluded, and nothing
    # scores higher, so the set is empty
    assert len(cand) == 0
    # just below: the top scorer is included
    cand2 = F.fft_decode(y, ss, g, delta - Fraction(1, ss.count), Fraction(ss.count))
    assert top in [s for _, s in cand2.members]


def test_fft_decode_matches_fraction_scan():
    # the integer cut keeps exactly the scores above the rational
    # threshold, at integer, fractional, negative and out-of-range values
    _, _, aux, ss, y = _setup(seed=9)
    g = aux.code.generator
    scores = F.wht(F.build_f(y, ss, g)).values.tolist()
    for thr in [Fraction(0), Fraction(-7, 3), Fraction(5, 2), Fraction(3),
                Fraction(max(scores)), Fraction(-(10**30)),
                Fraction(10**30, 7)]:
        cand = F.fft_decode(y, ss, g, thr * 2 / ss.count, Fraction(ss.count))
        assert cand.threshold == thr
        want = F.CandidateSet(aux.k_aux, thr, [
            (u, v) for u, v in enumerate(scores) if v > thr])
        assert cand.members == want.members


def test_fft_decode_threshold_base_switches_when_subsampled():
    code, part, aux, ss, y = _setup(seed=12)
    g = aux.code.generator
    if ss.count < 4:
        pytest.skip("too few pairs at this draw")
    sub = S.build_sample_set(code, part, ss.w, aux, budget=ss.count - 2, seed=3)
    assert not sub.complete
    delta = Fraction(1, 2)
    # full set thresholds against the expectation handed in
    c_full = F.fft_decode(y, ss, g, delta, Fraction(10**9))
    assert len(c_full) == 0
    # subsampled set ignores the handed-in expectation
    c_sub = F.fft_decode(y, sub, g, delta, Fraction(10**9))
    assert c_sub.threshold == delta * sub.count / 2


def test_candidate_set_ordering():
    cs = F.CandidateSet(2, 0, [(2, 5), (1, 7), (3, 5), (0, 1)])
    assert cs.members[0] == (1, 7)
    assert [m for m, _ in cs.members] == [1, 2, 3, 0]
    assert cs.indices() == [1, 2, 3, 0]
    # ties go by the message bits, coordinate 0 first, which is not the
    # order of the indices: (0, 0, 1) < (0, 1, 0) < (0, 1, 1) < (1, 0, 0)
    members = [(1, 5), (3, 5), (6, 5), (2, 5), (4, 5), (5, 9), (0, -2), (7, -2)]
    cs = F.CandidateSet(3, 0, members)
    assert cs.indices() == [5, 4, 2, 6, 1, 3, 0, 7]
    assert cs.members == sorted(members, key=lambda ms: (-ms[1], [(ms[0] >> j) & 1 for j in range(3)]))
    assert len(F.CandidateSet(3, 0, [])) == 0


def test_table_validation():
    t = F.FourierTable(3)
    assert t.values.shape == (8,)
    # refused before the 2^27-entry table is allocated
    with pytest.raises(BudgetExceeded):
        F.FourierTable(27)


def test_bits_index_roundtrip():
    for k in (1, 3, 5):
        for idx in range(1 << k):
            assert F.bits_to_index(F.index_to_bits(idx, k)) == idx
        # an array of indices gives one coordinate row each
        rows = F.index_to_bits(np.arange(1 << k), k)
        assert [F.bits_to_index(r) for r in rows] == list(range(1 << k))
