"""Decoder-layer tests: bias/expected-count formulas, the success bet,
syndrome decoding against full scans, and the assembled double-RLPN loop
on planted instances."""

import functools
import hashlib
import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualattack import _kernels as K
from dualattack import codes as C
from dualattack import decoder as D
from dualattack import fourier as F
from dualattack.errors import BudgetExceeded, DomainError, EmptySamples
from dualattack.fourier import CandidateSet, bits_to_index
from dualattack.samples import AuxCode
from oracles import coset_weight_enumerator


def _good_partition(code, s, rng):
    for _ in range(200):
        part = C.Partition.random(code.n, s, rng)
        try:
            return part, C.systematic_form(code, part)
        except C.RankDeficient:
            continue
    raise AssertionError("no full-rank partition found")


def test_p_succ_frozen():
    assert D.p_succ(60, 28, 8, 8) == Fraction(comb(52, 24), comb(60, 32))
    # all error positions on P forces u = t and a size constraint
    assert D.p_succ(10, 10, 3, 0) == 1
    assert D.p_succ(10, 4, 3, 5) == 0        # u > t
    assert D.p_succ(10, 2, 6, 1) == 0        # t - u does not fit in s


@given(st.integers(2, 14).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n - 1), st.integers(0, n))))
@settings(max_examples=60, deadline=None)
def test_p_succ_total_mass(nst):
    # |e_N| is hypergeometric, so the exact masses sum to one
    n, s, t = nst
    assert sum(D.p_succ(n, s, t, u) for u in range(t + 1)) == 1


def test_delta_frozen_point():
    p = D.DoubleRlpnParams(s=28, u=8, w=5, k_aux=20, t_aux=2)
    be = D.delta(p, 60, 30, 8)
    assert be.delta == Fraction(336, 201376)
    assert be.htilde_expected == Fraction(comb(32, 5) * comb(28, 2), 2 ** 10)


def test_delta_no_noise_is_one():
    p = D.DoubleRlpnParams(s=4, u=0, w=3, k_aux=2, t_aux=0)
    be = D.delta(p, 12, 6, 0)
    assert be.delta == 1
    assert be.htilde_expected == Fraction(comb(8, 3), 2 ** 4)


def test_delta_sign_kept():
    # K_2^(10)(5) = 10 - 25 + 10 = -5, so the bias is -5/45
    p = D.DoubleRlpnParams(s=10, u=5, w=2, k_aux=1, t_aux=0)
    be = D.delta(p, 20, 10, 5)
    assert be.delta == Fraction(-1, 9)
    code = C.random_code(20, 10, seed=3)
    inst = C.DecodingInstance.plant(code, 5, seed=3)
    with pytest.raises(DomainError):
        D.double_rlpn(inst, p)


def test_params_validation():
    with pytest.raises(DomainError):
        D.DoubleRlpnParams(s=0, u=1, w=2, k_aux=1, t_aux=1)
    p = D.DoubleRlpnParams(s=8, u=2, w=3, k_aux=4, t_aux=1)
    p.validate(20, 10, 4)
    for n, k, t in [(20, 6, 4),   # s > k
                    (20, 10, 1),  # u > t
                    (9, 9, 2),    # w > n - s
                    (20, 10, 12)]:  # t - u > s fails the split
        with pytest.raises(DomainError):
            p.validate(n, k, t)
    with pytest.raises(DomainError):
        D.DoubleRlpnParams(s=4, u=1, w=2, k_aux=5, t_aux=1).validate(20, 10, 2)
    with pytest.raises(DomainError):
        D.DoubleRlpnParams(s=4, u=1, w=2, k_aux=2, t_aux=5).validate(20, 10, 2)


def test_default_n_iter():
    assert D.default_n_iter(Fraction(1, 3)) == 24
    assert D.default_n_iter(1) == 8
    assert D.default_n_iter(0.369) == 22
    with pytest.raises(DomainError):
        D.default_n_iter(0)


def _scan_decode(parity, syndrome, t):
    nrows, ncols = parity.shape
    out = []
    for sup in itertools.combinations(range(ncols), t):
        e = np.zeros(ncols, np.uint8)
        e[list(sup)] = 1
        if np.array_equal(C.gf2_matmul(e.reshape(1, -1), parity.T)[0],
                          syndrome):
            out.append(e)
    return out


def _decode_each(parity, syndromes, t):
    """syndrome_decode_all's words, split by the syndrome they solve."""
    owner, words = D.syndrome_decode_all(parity, syndromes, t)
    assert np.all(np.diff(owner) >= 0)
    return [list(words[owner == i]) for i in range(len(syndromes))]


def test_syndrome_decode_weight_zero():
    h = np.eye(4, dtype=np.uint8)
    owner, sols = D.syndrome_decode_all(h, np.zeros(4, np.uint8), 0)
    assert owner.tolist() == [0] and not sols.any()
    owner, sols = D.syndrome_decode_all(h, np.array([1, 0, 0, 0], np.uint8), 0)
    assert len(owner) == 0 and sols.shape == (0, 4)


def test_syndrome_decode_identity_parity():
    # with H = Id the syndrome itself is the only candidate
    h = np.eye(6, dtype=np.uint8)
    s = np.array([1, 0, 1, 1, 0, 0], np.uint8)
    owner, sols = D.syndrome_decode_all(h, s, 3)
    assert owner.tolist() == [0] and np.array_equal(sols[0], s)
    assert len(D.syndrome_decode_all(h, s, 2)[1]) == 0


def test_syndrome_decode_matches_scan():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        parity = rng.integers(0, 2, size=(8, 12), dtype=np.uint8)
        # one random syndrome, one repeated and one of a planted word
        syndromes = rng.integers(0, 2, size=(3, 8), dtype=np.uint8)
        syndromes[1] = syndromes[0]
        syndromes[2] = parity[:, :3].sum(axis=1) % 2
        for t in range(5):
            got = _decode_each(parity, syndromes, t)
            for synd, words in zip(syndromes, got):
                want = _scan_decode(parity, synd, t)
                assert len(words) == len(want)
                for a, b in zip(words, want):
                    assert np.array_equal(a, b)


def test_syndrome_decode_matches_scan_wide():
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        parity = rng.integers(0, 2, size=(9, 15), dtype=np.uint8)
        syndromes = rng.integers(0, 2, size=(2, 9), dtype=np.uint8)
        for t in range(5):
            got = _decode_each(parity, syndromes, t)
            for synd, a in zip(syndromes, got):
                b = _scan_decode(parity, synd, t)
                assert len(a) == len(b)
                for x, y in zip(a, b):
                    assert np.array_equal(x, y)


def test_syndrome_decode_rejects_bad_lengths():
    h = np.eye(4, dtype=np.uint8)
    with pytest.raises(DomainError):
        D.syndrome_decode_all(h, np.zeros(3, np.uint8), 1)
    with pytest.raises(DomainError):
        D.syndrome_decode_all(h, np.zeros((2, 5), np.uint8), 1)
    owner, words = D.syndrome_decode_all(h, np.zeros(4, np.uint8), 9)
    assert len(owner) == 0 and words.shape == (0, 4)


def _planted_split(n, k, s, u, t, seed):
    """Code, partition and a planted y whose error puts exactly u
    positions on the N side."""
    rng = np.random.default_rng(seed)
    code = C.random_code(n, k, seed=seed)
    part, sf = _good_partition(code, s, rng)
    e = np.zeros(n, np.uint8)
    pp = rng.choice(part.ppos, size=t - u, replace=False)
    np_ = rng.choice(part.npos, size=u, replace=False)
    e[pp] = 1
    e[np_] = 1
    msg = rng.integers(0, 2, size=k, dtype=np.uint8)
    y = code.encode(msg) ^ e
    return code, part, sf, e, y


def test_solve_subproblem_planted():
    for seed in range(5):
        code, part, sf, e, y = _planted_split(24, 12, 10, 2, 3, seed)
        ep, en = part.split(e)
        owner, sols = D.solve_subproblem(part, y, ep, 2, sf=sf)
        assert owner.size and not owner.any()
        got = sols[0]
        assert int(got.sum()) == 2
        # any returned word must solve the same shortened-code equations
        yp, yn = part.split(y)
        shift = C.gf2_matmul((yp ^ ep).reshape(1, -1), sf.r)[0]
        hn = C.gf2_nullspace(sf.rprime)
        resid = C.gf2_matmul((yn ^ shift ^ sols).reshape(len(sols), -1),
                             hn.T)
        assert not resid.any()


def test_solve_subproblem_weight_zero():
    code, part, sf, e, y = _planted_split(18, 9, 8, 0, 2, 11)
    ep, _ = part.split(e)
    owner, got = D.solve_subproblem(part, y, ep, 0, sf=sf)
    assert owner.tolist() == [0] and not got.any()
    # flip one N-side bit of y so y' leaves the shortened code
    bad = y.copy()
    bad[part.npos[0]] ^= 1
    assert len(D.solve_subproblem(part, bad, ep, 0, sf=sf)[0]) == 0
    with pytest.raises(DomainError):
        D.solve_subproblem(part, y, np.zeros((1, 7), np.uint8), 0,
                           sf=sf)


def test_solve_subproblem_random_v_mostly_absent():
    code, part, sf, e, y = _planted_split(24, 12, 10, 2, 3, 17)
    rng = np.random.default_rng(99)
    vs = rng.integers(0, 2, size=(200, part.s), dtype=np.uint8)
    owner, sols = D.solve_subproblem(part, y, vs, 2, sf=sf)
    # one batch equals one call per v
    for j in (0, 1, 57, 199):
        o1, s1 = D.solve_subproblem(part, y, vs[j], 2, sf=sf)
        assert np.array_equal(sols[owner == j], s1) and not o1.any()
    # about C(14,2) 2^(12-24) of the v draws should decode
    assert len(set(owner.tolist())) < 20


def _true_candidate(aux, e, part):
    ep, _ = part.split(e)
    x = C.gf2_matmul(ep.reshape(1, -1), aux.code.generator.T)[0]
    return bits_to_index(x)


def test_recover_e_planted():
    for seed in range(5):
        code, part, sf, e, y = _planted_split(24, 12, 10, 2, 3, 40 + seed)
        aux = AuxCode.random(10, 5, 1, seed=40 + seed)
        idx = _true_candidate(aux, e, part)
        cs = CandidateSet(5, 0.0, [(idx, 1.0)])
        got = D.recover_e([cs], [aux.code.generator], part, y, code, 3, 2,
                          sf=sf)
        assert got is not None
        assert int(got.sum()) == 3 and code.contains(y ^ got)


def test_recover_e_empty_and_false():
    code, part, sf, e, y = _planted_split(24, 12, 10, 2, 3, 77)
    aux = AuxCode.random(10, 5, 1, seed=77)
    assert D.recover_e([CandidateSet(5, 0.0, [])], [aux.code.generator],
                       part, y, code, 3, 2, sf=sf) is None
    idx = _true_candidate(aux, e, part)
    wrong = (idx + 1) % 32
    cs = CandidateSet(5, 0.0, [(wrong, 1.0)])
    got = D.recover_e([cs], [aux.code.generator], part, y, code, 3, 2, sf=sf)
    if got is not None:
        # a false candidate can still stumble on a valid coset word;
        # the contract only promises a verified answer
        assert int(got.sum()) == 3 and code.contains(y ^ got)


def test_recover_e_tuple_budget(monkeypatch):
    code, part, sf, e, y = _planted_split(24, 12, 10, 2, 3, 78)
    aux = AuxCode.random(10, 5, 1, seed=78)
    cs = CandidateSet(5, 0.0, [(i, 1.0) for i in range(32)])
    monkeypatch.setattr(D, "MAX_TUPLES", 1000)
    with pytest.raises(BudgetExceeded):
        D.recover_e([cs, cs, cs, cs], [aux.code.generator] * 4, part, y,
                    code, 3, 2, sf=sf)


def _recover_e_reference(candidate_sets, g_aux_list, part, y, code, t, u,
                         sf, max_hits=1 << 22):
    """recover_e as one search per candidate tuple and one per P-side
    solution v, in (tuple, support) order: (outcome, early), where the
    outcome is the first verified word, None, or "budget" when any of the
    searches goes over max_hits, and early says whether a verified word
    comes before the first search that goes over."""
    stacked = np.concatenate(g_aux_list)
    p_cols = K.pack_rows(stacked.T)
    hn = sf.shortened_parity
    n_cols = K.pack_rows(hn.T)
    yp, yn = part.split(y)
    first = None
    try:
        for tup in itertools.product(*[cs.indices() for cs in candidate_sets]):
            synd = [(ui >> j) & 1 for ui, g in zip(tup, g_aux_list)
                    for j in range(g.shape[0])]
            idx = K.comb_xor_search(p_cols, K.pack_rows(synd)[0], t - u,
                                    max_hits)
            for sup in idx:
                v = np.zeros(part.s, np.uint8)
                v[sup] = 1
                yprime = yn ^ C.gf2_matmul((yp ^ v).reshape(1, -1), sf.r)[0]
                synd_n = C.gf2_matmul(yprime.reshape(1, -1), hn.T)[0]
                sols = K.comb_xor_search(n_cols, K.pack_rows(synd_n)[0], u,
                                         max_hits)
                if first is not None or not len(sols):
                    continue
                e_n = np.zeros(code.n - part.s, np.uint8)
                e_n[sols[0]] = 1
                e = part.merge(v, e_n)
                if int(e.sum()) == t and code.contains(y ^ e):
                    first = e.tobytes()
    except BudgetExceeded:
        return "budget", first is not None
    return first, first is not None


def _outcome(fn):
    try:
        e = fn()
    except BudgetExceeded:
        return "budget"
    return None if e is None else e.tobytes()


def test_recover_e_matches_one_search_per_candidate(monkeypatch):
    """240 random instances: N_aux 1 and 2, planted and wrong candidates,
    kernel chunks of one to a few targets, and a per-target hit cap of 5,
    which skips the trial even when a verified word comes before the
    search that goes over it."""
    seen = {"found": 0, "none": 0, "budget": 0, "budget_past_word": 0,
            "v_without_n_side": 0}
    for i in range(240):
        rng = np.random.default_rng([900, i])
        n_aux, u = 1 + i % 2, 1 + (i // 2) % 2
        k_aux = int(rng.integers(2, 5))
        code, part, sf, e, y = _planted_split(22, 11, 9, u, 3, 900 + i)
        auxes = [AuxCode.random(9, k_aux, 1, seed=[900, i, j])
                 for j in range(n_aux)]
        gens = [a.code.generator for a in auxes]
        sets = []
        for aux in auxes:
            idx = rng.permutation(1 << k_aux)[:int(rng.integers(1, 7))]
            if i % 3:
                # the true candidate, at a random score rank
                true = _true_candidate(aux, e, part)
                idx = np.append(idx[idx != true], true)
            scores = rng.integers(0, 4, size=idx.size)
            sets.append(CandidateSet(k_aux, 0, list(zip(idx.tolist(),
                                                        scores.tolist()))))
        cap = 5 if i % 4 < 2 else 1 << 22
        ref, early = _recover_e_reference(sets, gens, part, y, code, 3, u, sf,
                                          max_hits=cap)
        with monkeypatch.context() as m:
            m.setattr(D, "comb_xor_search_many", functools.partial(
                K.comb_xor_search_many, max_hits=cap))
            if i % 6 < 3:
                # kernel chunks of one target to a few, on both sides
                m.setattr(K, "CHUNK_CELLS", int(rng.integers(1, 40)))
            got = _outcome(lambda: D.recover_e(sets, gens, part, y, code, 3,
                                               u, sf=sf))
        assert got == ref, i
        seen["budget" if ref == "budget" else
             "none" if ref is None else "found"] += 1
        # a walk that stopped at its first verified word would return one
        # here, but a later search goes over the cap
        if ref == "budget" and early:
            seen["budget_past_word"] += 1
        synd = [np.concatenate([F.index_to_bits(x, k_aux) for x in tup])
                for tup in itertools.product(*[c.indices() for c in sets])]
        _, vs = D.syndrome_decode_all(np.concatenate(gens), synd, 3 - u)
        if len(vs) > len(set(D.solve_subproblem(part, y, vs, u,
                                                sf=sf)[0].tolist())):
            seen["v_without_n_side"] += 1
    assert min(seen.values()) >= 5, seen


def test_double_rlpn_weight_zero():
    code = C.random_code(16, 8, seed=5)
    p = D.DoubleRlpnParams(s=6, u=0, w=2, k_aux=3, t_aux=1)
    y = code.encode(np.ones(8, np.uint8))
    inst = C.DecodingInstance(code, y, 0)
    out = D.double_rlpn(inst, p)
    assert out is not None and not out.any()
    bad = y.copy()
    bad[0] ^= 1
    assert D.double_rlpn(C.DecodingInstance(code, bad, 0), p) is None


def test_double_rlpn_planted():
    p = D.DoubleRlpnParams(s=10, u=2, w=4, k_aux=5, t_aux=1, seed=7)
    found = 0
    for seed in range(6):
        code = C.random_code(24, 12, seed=300 + seed)
        inst = C.DecodingInstance.plant(code, 3, seed=300 + seed)
        e = D.double_rlpn(inst, p)
        if e is not None:
            found += 1
            assert int(e.sum()) == 3
            assert code.contains(inst.y ^ e)
    assert found >= 4


def test_double_rlpn_frozen_one_trial_decodes():
    # (e, trials_used) of 40 one-trial README-config decodes, digested
    # before the sample-set construction worked on whole arrays
    h = hashlib.sha256()
    found = 0
    for s in range(40):
        code = C.random_code(40, 20, seed=[s, 101])
        inst = C.DecodingInstance.plant(code, 5, seed=[s, 102])
        p = D.DoubleRlpnParams(s=16, u=3, w=5, k_aux=8, t_aux=1, N_iter=1,
                               seed=s)
        stats = {}
        e = D.double_rlpn(inst, p, stats)
        found += e is not None
        h.update(b"none" if e is None else e.tobytes())
        h.update(str(stats["trials_used"]).encode())
    assert 0 < found < 40
    assert h.hexdigest() == \
        "070657d97f6a89088196c887cbcc10c8e6a48cb037946b0e37a97e9b8e4c58f7"


def _readme_decode(n_iter=None):
    # the README decode config, seed 7
    code = C.random_code(40, 20, seed=[7, 101])
    inst = C.DecodingInstance.plant(code, 5, seed=[7, 102])
    return inst, D.DoubleRlpnParams(s=16, u=3, w=5, k_aux=8, t_aux=1,
                                    N_iter=n_iter, seed=7)


def _refuse_partition(*args, **kwargs):
    raise AssertionError("a partition was drawn")


def test_double_rlpn_refuses_oversized_tables_before_any_trial(monkeypatch):
    # the N-side search (24 columns, weight 3) needs 598 table entries and
    # the P-side one (16 columns, weight 2) 74; both depend only on the
    # parameters, so no trial is run
    inst, p = _readme_decode()
    monkeypatch.setattr(K, "MITM_HALF_CAP", 500)
    stats = {}
    with pytest.raises(BudgetExceeded):
        D.double_rlpn(inst, p, stats)
    assert stats["trials_used"] == 0


@pytest.mark.parametrize("cap, tables", [
    (1000, ["enumeration"]),
    (50, ["enumeration", "P-side", "N-side"]),
])
def test_double_rlpn_refuses_subset_tables_by_name(cap, tables, monkeypatch):
    # the README config: the enumeration (24 columns, weight 5) needs
    # 3,172 subset-table entries besides the two searches' 598 and 74;
    # each table over the cap is named, before any partition is drawn
    inst, p = _readme_decode()
    monkeypatch.setattr(K, "MITM_HALF_CAP", cap)
    monkeypatch.setattr(D, "draw_partition", _refuse_partition)
    stats = {}
    with pytest.raises(BudgetExceeded) as err:
        D.double_rlpn(inst, p, stats)
    assert str(err.value) == (", ".join(name + " table" for name in tables)
                              + " over budget before the first trial")
    assert stats["trials_used"] == 0


@pytest.mark.parametrize("params, table", [
    # a 2^40-entry score table
    (dict(s=42, u=0, w=1, k_aux=40, t_aux=1), "score"),
    # C(40, 7) = 18,643,560 weight-7 auxiliary syndrome patterns
    (dict(s=40, u=0, w=1, k_aux=4, t_aux=7), "syndrome"),
])
def test_double_rlpn_refuses_table_budgets_before_any_trial(params, table,
                                                            monkeypatch):
    code = C.random_code(48, 44, seed=[3, 101])
    inst = C.DecodingInstance.plant(code, 1, seed=[3, 102])
    monkeypatch.setattr(D, "draw_partition", _refuse_partition)
    stats = {}
    with pytest.raises(BudgetExceeded,
                       match="^%s table over budget" % table):
        D.double_rlpn(inst, D.DoubleRlpnParams(**params, seed=3), stats)
    assert stats["trials_used"] == 0


def test_double_rlpn_skips_trials_over_data_budgets(monkeypatch):
    # six trials find the word; with no tuple allowed, or no solution to
    # any syndrome of recover_e's searches, every trial that reaches
    # recover_e goes over its own budget and is skipped, the one that
    # found the word too
    inst, p = _readme_decode(n_iter=6)
    assert D.double_rlpn(inst, p) is not None
    recover_e = D.recover_e
    for name, value in (("MAX_TUPLES", 0), ("comb_xor_search_many",
                        functools.partial(K.comb_xor_search_many,
                                          max_hits=0))):
        skipped = []

        def counting(*args, **kwargs):
            try:
                return recover_e(*args, **kwargs)
            except BudgetExceeded:
                skipped.append(1)
                raise

        with monkeypatch.context() as m:
            m.setattr(D, "recover_e", counting)
            m.setattr(D, name, value)
            stats = {}
            assert D.double_rlpn(inst, p, stats) is None, name
        assert stats["trials_used"] == 6 and skipped, name


def test_double_rlpn_soundness_no_solution():
    # choose a y whose coset holds no weight-2 word at all, then demand None
    code = C.random_code(12, 5, seed=21)
    hist = None
    y = None
    for trial in range(300):
        rng = np.random.default_rng([500, trial])
        cand = rng.integers(0, 2, size=12, dtype=np.uint8)
        hist = coset_weight_enumerator(code, cand)
        if hist[2] == 0 and hist[0] == 0 and hist[1] == 0:
            y = cand
            break
    assert y is not None, "no suitable coset in 300 draws"
    p = D.DoubleRlpnParams(s=4, u=1, w=2, k_aux=2, t_aux=1, seed=9)
    inst = C.DecodingInstance(code, y, 2)
    assert D.double_rlpn(inst, p) is None


def test_trial_count_geometric():
    """Mean trials-to-success should track 1/p_succ within a factor two."""
    p = D.DoubleRlpnParams(s=10, u=2, w=4, k_aux=5, t_aux=1, seed=13)
    ps = float(D.p_succ(24, 10, 3, 2))
    used = []
    for seed in range(50):
        code = C.random_code(24, 12, seed=600 + seed)
        inst = C.DecodingInstance.plant(code, 3, seed=600 + seed)
        stats = {}
        e = D.double_rlpn(inst, p, stats=stats)
        if e is not None:
            used.append(stats["trials_used"])
    assert len(used) >= 40
    mean = sum(used) / len(used)
    assert 0.5 / ps <= mean <= 2.0 / ps


def test_stacked_false_decode_rate():
    """Random stacked aux syndromes decode at weight t-u about
    C(s, t-u) / 2^(N_aux k_aux) times."""
    s, k_aux, tu = 12, 4, 2
    for n_aux in (1, 2):
        rng = np.random.default_rng([42, n_aux])
        counts = []
        for trial in range(300):
            gens = [AuxCode.random(s, k_aux, 1, seed=[7, n_aux, trial, j])
                    .code.generator for j in range(n_aux)]
            stacked = np.concatenate(gens)
            synd = rng.integers(0, 2, size=n_aux * k_aux, dtype=np.uint8)
            counts.append(len(D.syndrome_decode_all(stacked, synd, tu)[0]))
        expect = comb(s, tu) / 2 ** (n_aux * k_aux)
        mean = sum(counts) / len(counts)
        assert expect / 8 <= mean <= expect * 8
