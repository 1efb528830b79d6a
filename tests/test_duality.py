"""Duality-layer tests.  The score identity is checked in exact
rational arithmetic on batches of random instances; the survival models
are pinned to their defining formulas and to each other."""

import hashlib
import math
import multiprocessing
import os
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import pytest

from dualattack import asymptotics as A
from dualattack import codes as C
from dualattack import duality as DU
from dualattack.decoder import DoubleRlpnParams, delta
from dualattack.errors import BudgetExceeded, DomainError, EmptySamples
from dualattack.krawtchouk import KrawtchoukTable
from dualattack.samples import AuxCode, expected_pair_count
from oracles import admissible_region, candidate_bound


def _instance(seed, n=12, k=6, s=5, k_aux=2, t_aux=1):
    rng = np.random.default_rng([10, seed])
    code = C.random_code(n, k, seed=100 + seed)
    for _ in range(200):
        part = C.Partition.random(n, s, rng)
        try:
            C.systematic_form(code, part)
            break
        except C.RankDeficient:
            continue
    aux = AuxCode.random(s, k_aux, t_aux, seed=200 + seed)
    e = rng.integers(0, 2, size=n, dtype=np.uint8)
    y = code.encode(rng.integers(0, 2, size=k, dtype=np.uint8)) ^ e
    x = rng.integers(0, 2, size=s, dtype=np.uint8)
    return code, part, aux, e, y, x


def test_duality_exact_on_random_instances():
    checked = 0
    for seed in range(30):
        code, part, aux, e, y, x = _instance(seed)
        w = 1 + seed % 3
        try:
            lhs, rhs = DU.duality_check(code, aux, part, e, y, x, w)
        except EmptySamples:
            continue
        assert lhs == rhs
        checked += 1
    assert checked >= 20


def test_duality_coset_invariance():
    code, part, aux, e, y, x = _instance(3)
    base = DU.duality_check(code, aux, part, e, y, x, 2)
    for drow in aux.code.parity:
        again = DU.duality_check(code, aux, part, e, y, x ^ drow, 2)
        assert again == base


def test_duality_codeword_shift_of_y():
    code, part, aux, e, y, x = _instance(4)
    lhs, rhs = DU.duality_check(code, aux, part, e, y, x, 2)
    shift = code.encode(np.ones(code.k, np.uint8))
    lhs2, rhs2 = DU.duality_check(code, aux, part, e, y ^ shift, x, 2)
    assert (lhs, rhs) == (lhs2, rhs2)


def test_duality_rejects_non_codeword_offset():
    code, part, aux, e, y, x = _instance(5)
    bad = e.copy()
    bad[0] ^= 1
    with pytest.raises(DomainError):
        DU.duality_check(code, aux, part, bad, y, x, 2)


def test_duality_empty_pair_set():
    raised = False
    for seed in range(50):
        code, part, aux, e, y, x = _instance(seed)
        try:
            DU.duality_check(code, aux, part, e, y, x, 1)
        except EmptySamples:
            raised = True
            break
    assert raised


def test_joint_counts_full_space():
    gen = np.eye(10, dtype=np.uint8)
    full = C.LinearCode(gen)
    rng = np.random.default_rng(5)
    part = C.Partition.random(10, 4, rng)
    aux = AuxCode.random(4, 4, 1, seed=3)
    e = rng.integers(0, 2, size=10, dtype=np.uint8)
    x = np.array([1, 0, 1, 1], np.uint8)
    counts = DU.joint_weight_counts(full, aux, part, e, x)
    for i in range(7):
        for j in range(5):
            want = comb(6, i) if j == int(x.sum()) else 0
            assert counts[i, j] == want


def test_joint_counts_planted_cell_and_total():
    code = C.random_code(14, 7, seed=9)
    rng = np.random.default_rng(11)
    for _ in range(200):
        part = C.Partition.random(14, 6, rng)
        try:
            C.systematic_form(code, part)
            break
        except C.RankDeficient:
            continue
    aux = AuxCode.random(6, 3, 1, seed=12)
    e = np.zeros(14, np.uint8)
    e[part.ppos[:2]] = 1
    e[part.npos[0]] = 1
    ep, _ = part.split(e)
    counts = DU.joint_weight_counts(code, aux, part, e, ep)
    # the pair (e_P, 0) always lands in the planted cell
    assert counts.dtype == np.int64
    assert counts[1, 2] >= 1
    assert int(counts.sum()) == 2 ** (6 - 3 + 7 - 6)
    assert counts.shape == (14 - 6 + 1, 6 + 1)


def test_joint_counts_budgets():
    code = C.random_code(16, 15, seed=2)
    rng = np.random.default_rng(2)
    part = C.Partition.random(16, 14, rng)
    aux = AuxCode.random(14, 1, 1, seed=2)
    with pytest.raises(BudgetExceeded):
        DU.joint_weight_counts(code, aux, part, np.zeros(16, np.uint8),
                               np.zeros(14, np.uint8))


def test_joint_marginal_means():
    """Empirical means of both weight marginals against the model
    intensities, three standard errors wide.

    The matrix counts pairs, so the per-coset means divide out the
    opposite factor's size."""
    n, k, s, k_aux = 13, 7, 5, 2
    nj_all, ni_all = [], []
    for seed in range(200):
        code, part, aux, e, y, x = _instance(seed, n=n, k=k, s=s,
                                             k_aux=k_aux)
        counts = DU.joint_weight_counts(code, aux, part, e, x)
        nj_all.append(counts.sum(axis=0) / 2.0 ** (k - s))
        ni_all.append(counts.sum(axis=1) / 2.0 ** (s - k_aux))
    nj = np.array(nj_all, dtype=np.float64)
    ni = np.array(ni_all, dtype=np.float64)
    for j in range(s + 1):
        want = comb(s, j) / 2.0 ** k_aux
        se = nj[:, j].std(ddof=1) / np.sqrt(nj.shape[0])
        assert abs(nj[:, j].mean() - want) <= 3 * se + 1e-12
    for i in range(n - s + 1):
        want = comb(n - s, i) / 2.0 ** (n - k)
        se = ni[:, i].std(ddof=1) / np.sqrt(ni.shape[0])
        assert abs(ni[:, i].mean() - want) <= 3 * se + 1e-12


def test_model_intensities_frozen():
    mp = DU.ModelParams(n=60, k=30, t=8, s=28, u=8, w=5, k_aux=20, t_aux=2)
    lam_j, lam_i = DU.model_intensities(mp)
    assert lam_j.shape == (29,) and lam_i.shape == (33,)
    assert lam_j[14] == comb(28, 14) / 2.0 ** 20
    assert lam_i[16] == comb(32, 16) / 2.0 ** 30
    assert lam_j[0] == 2.0 ** -20


def test_poisson_survival_shape():
    mp = DU.ModelParams(n=24, k=12, t=3, s=10, u=2, w=4, k_aux=5, t_aux=1)
    with pytest.raises(DomainError):
        DU.poisson_survival(mp, trials=100)
    curve = DU.poisson_survival(mp, trials=10 ** 4, seed=2)
    assert curve.label == "poisson"
    assert curve.counts == sorted(curve.counts, reverse=True)
    assert curve.counts[0] == 2.0 ** 5
    assert all(lo <= c <= hi + 1e-9 for lo, c, hi in
               zip(curve.ci_low, curve.counts, curve.ci_high))


def test_poisson_statistic_centered():
    # Krawtchouk orthogonality kills the mean of the model statistic
    mp = DU.ModelParams(n=24, k=12, t=3, s=10, u=2, w=4, k_aux=5, t_aux=1)
    stats = DU.poisson_statistics(mp, 40000, seed=5)
    se = stats.std(ddof=1) / np.sqrt(stats.size)
    assert abs(stats.mean()) <= 4 * se


SMALL = dict(n=24, k=12, t=3, s=10, u=2, w=4, k_aux=5, t_aux=1)
DESK = dict(n=60, k=30, t=8, s=28, u=8, w=5, k_aux=20, t_aux=2)
README = dict(n=40, k=20, t=5, s=16, u=3, w=5, k_aux=8, t_aux=1)
EVEN = dict(n=30, k=15, t=4, s=12, u=2, w=4, k_aux=6, t_aux=2)


@pytest.mark.parametrize("model, trials", [(SMALL, 4 * 10 ** 4), (DESK, 2 * 10 ** 4),
                                           (README, 4 * 10 ** 4)])
def test_poisson_statistic_variance_matches_closed_form(model, trials):
    # given N_j, the row's Krawtchouk sum has mean 0 and variance
    # N_j sum_i kw_i^2 lam_i, and the rows are independent, so the statistic
    # has variance scale^2 (sum_j kt_j^2 lam_j) (sum_i kw_i^2 lam_i); with
    # the mean known to be 0, the mean of x^2 must lie within 4 standard
    # errors of it, the error taken from the sample's own fourth moment
    mp = DU.ModelParams(**model)
    lam_j, lam_i = DU.model_intensities(mp)
    kw = KrawtchoukTable(mp.n - mp.s, mp.w).as_float()
    kt = KrawtchoukTable(mp.s, mp.t_aux).as_float()
    want = (kt * kt) @ lam_j * ((kw * kw) @ lam_i) / 4.0 ** (mp.k - mp.k_aux)
    x2 = DU.poisson_statistics(mp, trials, seed=5) ** 2
    assert abs(x2.mean() - want) <= 4 * math.sqrt(x2.var() / trials)


def _dense(nparams, trials, kt, lam_j, kw, lam_i, key):
    # the model drawn over every cell of every row, block b from the
    # generator key(b)
    out = []
    for b, done in enumerate(range(0, trials, DU._CHUNK)):
        m = min(DU._CHUNK, trials - done)
        rng = np.random.default_rng(key(b))
        nj = rng.poisson(lam=np.broadcast_to(lam_j, (m, lam_j.size)))
        nij = rng.poisson(lam=nj[:, :, None] * lam_i[None, None, :])
        out.append((nij * kt[None, :, None] * kw[None, None, :]).sum(axis=(1, 2)))
    return np.concatenate(out) / 2.0 ** (nparams.k - nparams.k_aux)


def _classes(values, lam):
    # the weights grouped by Krawtchouk value, in ascending value, with
    # their intensities summed in ascending weight; the value 0 dropped
    vals = sorted({v for v in values if v != 0})
    sums = [0.0] * len(vals)
    for v, x in zip(values, lam):
        if v != 0:
            sums[vals.index(v)] += x
    return np.array(vals, dtype=np.float64), np.array(sums)


def _poisson_dense(nparams, trials, seed):
    # the per-weight reference: a cell for every weight pair (i, j), block b
    # from the generator [seed, b]
    lam_j, lam_i = DU.model_intensities(nparams)
    kt = np.array(KrawtchoukTable(nparams.s, nparams.t_aux).values, dtype=np.float64)
    kw = np.array(KrawtchoukTable(nparams.n - nparams.s, nparams.w).values, dtype=np.float64)
    return _dense(nparams, trials, kt, lam_j, kw, lam_i, lambda b: [seed, b])


def _poisson_dense_merged(nparams, trials, seed):
    # a cell for every pair of merged classes, block b from the generator
    # [seed, b, 1]
    lam_j, lam_i = DU.model_intensities(nparams)
    return _dense(nparams, trials,
                  *_classes(KrawtchoukTable(nparams.s, nparams.t_aux).values, lam_j),
                  *_classes(KrawtchoukTable(nparams.n - nparams.s, nparams.w).values, lam_i),
                  lambda b: [seed, b, 1])


def test_poisson_statistics_match_dense_draws():
    # merging the weight classes, skipping rows with no pairs and drawing
    # the rest in slices leaves the random stream and the sums of the dense
    # draws over the merged classes as they are: a zero mean draws nothing,
    # and the sums are exact integers
    small, desk = DU.ModelParams(**SMALL), DU.ModelParams(**DESK)
    for mp, trials in ((small, DU._CHUNK + 900), (desk, 1500)):
        for seed in (0, 5, 11):
            assert np.array_equal(DU.poisson_statistics(mp, trials, seed=seed),
                                  _poisson_dense_merged(mp, trials, seed))


def test_poisson_statistics_frozen_stream():
    # pins the per-block streams, over three full blocks and a partial one
    x = DU.poisson_statistics(DU.ModelParams(**DESK), 3 * DU._CHUNK + 5, seed=11)
    assert hashlib.sha256(x.tobytes()).hexdigest() == \
        "8b2bdd764555c177dfe30e81a103f07653d5933950a9e85cc5f9511d6cf437fe"


def _ks_distance(a, b):
    # the two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|, with ties
    a, b = np.sort(a), np.sort(b)
    v = np.concatenate([a, b])
    return np.abs(np.searchsorted(a, v, "right") / a.size
                  - np.searchsorted(b, v, "right") / b.size).max()


@pytest.mark.parametrize("model", [SMALL, DESK, README, EVEN])
def test_poisson_statistics_match_per_weight_draws_in_law(model):
    # merged classes against the per-weight reference at 5 10^4 trials a
    # side, on keys that share no state: the two-sample KS statistic must
    # stay below its alpha = 10^-3 critical value
    # sqrt(-ln(alpha / 2) / 2) sqrt(2 / n) = 1.9495 sqrt(2 / n), which is
    # conservative for these discrete laws
    mp, n = DU.ModelParams(**model), 5 * 10 ** 4
    d = _ks_distance(DU.poisson_statistics(mp, n, seed=0), _poisson_dense(mp, n, seed=0))
    assert d < math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / n)


@pytest.mark.parametrize("model", [SMALL, DESK, README, EVEN])
def test_weight_classes_keep_the_cumulant_generating_function(model):
    # the raw statistic's log E[exp(theta X)] is
    # sum_j lam_j expm1(sum_i lam_i expm1(theta kt_j kw_i)); it must be the
    # same over the weights and over the merged classes, at theta of both
    # signs with |theta kt kw| <= 1
    mp = DU.ModelParams(**model)
    lam_j, lam_i = DU.model_intensities(mp)
    kt = KrawtchoukTable(mp.s, mp.t_aux).as_float()
    kw = KrawtchoukTable(mp.n - mp.s, mp.w).as_float()
    kt_g, lam_g = DU._weight_classes(kt, lam_j)
    kw_h, lam_h = DU._weight_classes(kw, lam_i)
    assert kt_g.size < kt.size and kw_h.size < kw.size
    assert np.all(kt_g != 0) and np.all(kw_h != 0)
    top = np.abs(kt).max() * np.abs(kw).max()

    def cgf(theta, kt, lam_j, kw, lam_i):
        inner = np.expm1(theta * kt[:, None] * kw[None, :]) @ lam_i
        return math.fsum(lam_j * np.expm1(inner))

    for c in (1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.1, -0.1):
        want = cgf(c / top, kt, lam_j, kw, lam_i)
        assert cgf(c / top, kt_g, lam_g, kw_h, lam_h) == pytest.approx(want, rel=1e-12)


class _CountingRng:
    # a generator that counts the Poisson variates of positive mean it
    # draws: a zero mean draws nothing from the stream
    def __init__(self, rng, tally):
        self.rng, self.tally = rng, tally

    def poisson(self, lam):
        self.tally.append(int(np.count_nonzero(np.asarray(lam) > 0)))
        return self.rng.poisson(lam=lam)


def test_poisson_statistics_draw_at_most_six_tenths_of_the_per_weight_variates(monkeypatch):
    # at DESK over 3 blocks the merged classes draw 3.57 M variates against
    # the per-weight reference's 6.47 M
    monkeypatch.setattr(A, "_cores", lambda: 1)
    make = np.random.default_rng
    merged, per_weight = [], []
    mp, trials = DU.ModelParams(**DESK), 3 * DU._CHUNK
    monkeypatch.setattr(DU.np.random, "default_rng", lambda key: _CountingRng(make(key), merged))
    DU.poisson_statistics(mp, trials, seed=0)
    monkeypatch.setattr(DU.np.random, "default_rng", lambda key: _CountingRng(make(key), per_weight))
    _poisson_dense(mp, trials, seed=0)
    assert 0 < sum(merged) <= 0.6 * sum(per_weight)


@pytest.mark.parametrize("trials", [1000, 3 * DU._CHUNK, 3 * DU._CHUNK + 5])
def test_poisson_statistics_same_on_one_or_two_cores(monkeypatch, trials):
    # a worker is forked for two or more blocks and sent the first half
    from concurrent.futures import ProcessPoolExecutor

    sent, submit = [], ProcessPoolExecutor.submit

    def sending(pool, fn, *args):
        sent.append(args)
        return submit(pool, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", sending)
    mp = DU.ModelParams(**DESK)
    monkeypatch.setattr(A, "_cores", lambda: 2)
    split = DU.poisson_statistics(mp, trials, seed=11)
    blocks = -(-trials // DU._CHUNK)
    assert sent == ([(range(0, blocks // 2),)] if blocks > 1 else [])
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(A, "_cores", lambda: 1)
    assert split.tobytes() == DU.poisson_statistics(mp, trials, seed=11).tobytes()


def test_poisson_statistics_same_with_any_slice(monkeypatch):
    mp = DU.ModelParams(**SMALL)
    want = DU.poisson_statistics(mp, DU._CHUNK + 900, seed=5).tobytes()
    for size in (1, 7):
        monkeypatch.setattr(DU, "_SLICE", size)
        assert DU.poisson_statistics(mp, DU._CHUNK + 900, seed=5).tobytes() == want


_CALLER = os.getpid()
_BLOCKS = DU._poisson_blocks


def _blocks_failing_in_worker(*args):
    if os.getpid() != _CALLER:
        raise FloatingPointError("block failed")
    return _BLOCKS(*args)


def test_poisson_split_leaves_no_process_when_a_block_raises(monkeypatch):
    # the worker's error reaches the caller, and the worker is joined
    monkeypatch.setattr(A, "_cores", lambda: 2)
    monkeypatch.setattr(DU, "_poisson_blocks", _blocks_failing_in_worker)
    with pytest.raises(FloatingPointError, match="block failed"):
        DU.poisson_statistics(DU.ModelParams(**SMALL), 2 * DU._CHUNK, seed=1)
    assert multiprocessing.active_children() == []


def test_poisson_trials_cap_refuses_before_any_draw_or_fork(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew or forked")

    monkeypatch.setattr(DU, "_worker", refuse)
    monkeypatch.setattr(DU, "_poisson_blocks", refuse)
    mp = DU.ModelParams(**SMALL)
    for trials in (DU.MAX_POISSON_TRIALS + 1, 10 ** 12):
        with pytest.raises(BudgetExceeded, match="exceed"):
            DU.poisson_statistics(mp, trials)
        with pytest.raises(BudgetExceeded, match="exceed"):
            DU.poisson_survival(mp, trials)


def test_poisson_subsample_axis():
    mp = DU.ModelParams(n=24, k=12, t=3, s=10, u=2, w=4, k_aux=5, t_aux=1)
    a = DU.poisson_statistics(mp, 2000, seed=9)
    b = DU.poisson_statistics(mp, 2000, seed=9,
                              n_samples=float(mp.expected_pairs()) / 2)
    assert np.allclose(a / 2, b)


def test_independence_survival_values():
    mp = DU.ModelParams(n=60, k=30, t=8, s=28, u=8, w=5, k_aux=20, t_aux=2)
    curve = DU.independence_survival(mp, 65536,
                                     grid=[-65536.0, 0.0, 65537.0])
    assert curve.counts[0] == 2.0 ** 20
    assert curve.counts[2] == 0.0
    assert curve.counts[1] == pytest.approx(2.0 ** 19, rel=5e-3)
    with pytest.raises(DomainError):
        DU.independence_survival(mp, 0, grid=[0.0])


def _binomial_tail(n, kmin):
    # P[Bin(n, 1/2) >= kmin] as a 30-digit sum of its terms, each from
    # the last by C(n, k + 1) = C(n, k) (n - k) / (k + 1), stopped once a
    # term no longer moves the sum
    with mpmath.workdps(30):
        term = mpmath.binomial(n, kmin) / mpmath.mpf(2) ** n
        total, k = mpmath.mpf(0), kmin
        while k <= n and term > total * mpmath.mpf(10) ** -28:
            total += term
            term = term * (n - k) / (k + 1)
            k += 1
        return float(total)


@pytest.mark.parametrize("n_samples", [1, 2, 7, 64, 10 ** 5 + 1, 2 * 10 ** 5])
def test_independence_survival_is_the_exact_tail(n_samples):
    # small sample counts at every k = ceil((T + n) / 2) - 1 from -2 to
    # n + 1, both edges included; large ones 3 to 6 standard deviations
    # out, where a normal tail is off by 6.6e-5 to 1.1e-3 relative
    mp = DU.ModelParams(n=60, k=30, t=8, s=28, u=8, w=5, k_aux=20, t_aux=2)
    if n_samples < 100:
        grid = [2.0 * k + 2 - n_samples for k in range(-2, n_samples + 2)]
    else:
        grid = [z * math.sqrt(n_samples) for z in (3.0, 4.0, 5.0, 6.0)]
    curve = DU.independence_survival(mp, n_samples, grid=grid)
    assert curve.meta == {"axis": "score", "samples": float(n_samples)}
    for t, count in zip(grid, curve.counts):
        kmin = math.ceil((t + n_samples) / 2.0)
        if kmin <= 0:
            assert count == 2.0 ** 20
        elif kmin > n_samples:
            assert count == 0.0
        else:
            ref = 2.0 ** 20 * _binomial_tail(n_samples, kmin)
            assert count == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_experimental_survival_planted():
    code = C.random_code(24, 12, seed=7)
    inst = C.DecodingInstance.plant(code, 3, seed=7)
    p = DoubleRlpnParams(s=10, u=2, w=4, k_aux=5, t_aux=1)
    curve = DU.experimental_survival(inst, p, seed=3)
    assert curve.label == "experimental"
    assert curve.counts == sorted(curve.counts, reverse=True)
    assert curve.counts[0] <= 2 ** 5 - 1
    assert curve.meta["complete"] is True
    assert curve.ci_low == curve.counts


def test_experimental_survival_subset_scaling():
    code = C.random_code(24, 12, seed=8)
    inst = C.DecodingInstance.plant(code, 3, seed=8)
    p = DoubleRlpnParams(s=10, u=2, w=4, k_aux=5, t_aux=1)
    full = DU.experimental_survival(inst, p, seed=4, grid=[0.0])
    part = DU.experimental_survival(inst, p, num_x=16, seed=4, grid=[0.0])
    # the subsampled estimate's band should cover the full count
    assert part.ci_low[0] - 1e-9 <= full.counts[0] <= part.ci_high[0] + 1e-9
    assert part.counts[0] == pytest.approx(full.counts[0], abs=12)


def test_experimental_survival_requires_plant():
    code = C.random_code(24, 12, seed=9)
    y = np.zeros(24, np.uint8)
    inst = C.DecodingInstance(code, y, 3)
    p = DoubleRlpnParams(s=10, u=2, w=4, k_aux=5, t_aux=1)
    with pytest.raises(DomainError):
        DU.experimental_survival(inst, p)


def test_experimental_survival_empty_pairs():
    # with no pairs every wrong candidate scores 0: all 2^k_aux - 1 of
    # them are at or above a threshold <= 0, and none above 0
    hit = False
    for seed in range(40):
        code = C.random_code(18, 9, seed=seed)
        inst = C.DecodingInstance.plant(code, 2, seed=seed)
        p = DoubleRlpnParams(s=6, u=1, w=1, k_aux=3, t_aux=1)
        curve = DU.experimental_survival(inst, p, seed=seed)
        if curve.meta["samples"] == 0.0:
            assert list(curve.thresholds) == [0.0] and list(curve.counts) == [7.0]
            curve = DU.experimental_survival(inst, p, seed=seed, grid=[-1.0, 0.0, 0.5, 3.0])
            assert list(curve.counts) == [7.0, 7.0, 0.0, 0.0]
            curve = DU.experimental_survival(inst, p, seed=seed, num_x=3)
            assert list(curve.counts) == [7.0]
            hit = True
            break
    assert hit


def test_admissible_region_and_bound():
    mp = DU.ModelParams(n=60, k=30, t=8, s=28, u=8, w=5, k_aux=20, t_aux=2)
    reg = admissible_region(mp)
    assert (mp.u, mp.t - mp.u) in reg
    kw = KrawtchoukTable(32, 5)
    kt = KrawtchoukTable(28, 2)
    anchor = abs(kw.value(8) * kt.value(0))
    # independent recomputation of the region membership rule
    for i, j in [(0, 0), (16, 14), (5, 3), (31, 27), (2, 1)]:
        val = kw.value(i) * kt.value(j)
        if val == 0:
            assert (i, j) not in reg
            continue
        ratio = float(Fraction(anchor, abs(val)))
        if abs(np.log(ratio) - 3.2 * np.log(60.0)) < 1e-6:
            continue   # too close to the cut to compare in floats
        assert ((i, j) in reg) == (ratio <= 60.0 ** 3.2)
    best = max(comb(28, j) * comb(32, i) for i, j in reg.pairs) / 2.0 ** 30
    assert candidate_bound(mp) == pytest.approx(best + 1.0, rel=1e-9)
    assert candidate_bound(mp, exponent=1.0) <= \
        candidate_bound(mp, exponent=6.0) + 1e-9


def test_admissible_region_bias_vanishes():
    # odd-degree Krawtchouk vanishes at the midpoint
    mp = DU.ModelParams(n=16, k=8, t=4, s=8, u=4, w=1, k_aux=2, t_aux=0)
    with pytest.raises(DomainError):
        admissible_region(mp)


def test_survival_curve_type():
    for label in ("bogus", "refined"):
        with pytest.raises(DomainError):
            DU.SurvivalCurve(label, [0.0], [1.0])
    with pytest.raises(DomainError):
        DU.SurvivalCurve("poisson", [1.0, 0.0], [2.0, 1.0])
    with pytest.raises(DomainError):
        DU.SurvivalCurve("poisson", [0.0, 1.0], [1.0, 2.0])
    curve = DU.SurvivalCurve("independence", [0.0, 1.0], [2.0, 1.0])
    rows = list(curve.rows())
    assert rows[0] == ("independence", 0.0, 2.0, 2.0, 2.0)


def test_wilson_interval():
    lo, hi = DU.wilson_interval(50, 100)
    assert lo < 0.5 < hi and hi - 0.5 == pytest.approx(0.5 - lo, abs=1e-12)
    assert DU.wilson_interval(0, 50)[0] == 0.0
    assert DU.wilson_interval(50, 50)[1] == 1.0
    with pytest.raises(DomainError):
        DU.wilson_interval(1, 0)


def test_model_params_validation():
    with pytest.raises(DomainError):
        DU.ModelParams(n=10, k=0, t=1, s=2, u=1, w=1, k_aux=1, t_aux=0)
    with pytest.raises(DomainError):
        DU.ModelParams(n=10, k=5, t=11, s=2, u=1, w=1, k_aux=1, t_aux=0)
    mp = DU.ModelParams(n=60, k=30, t=8, s=28, u=8, w=5, k_aux=20, t_aux=2)
    dp = DoubleRlpnParams(s=28, u=8, w=5, k_aux=20, t_aux=2)
    assert delta(dp, 60, 30, 8).delta == Fraction(336, 201376)
    assert mp.expected_pairs() == Fraction(comb(32, 5) * comb(28, 2), 2 ** 10)
    want = expected_pair_count(60, 30, 28, 5, 2, 20)
    assert mp.expected_pairs() == delta(dp, 60, 30, 8).htilde_expected == want


# The per-threshold loops the array passes replaced, kept as the
# reference: every float of a curve must come out bit for bit the same.

def _wilson_scalar(hits, trials):
    z = 1.959963984540054
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _grid_loop(values, grid):
    if grid is not None:
        return [float(t) for t in grid]
    uniq = np.unique(values)
    if uniq.size <= 512:
        return uniq.tolist()
    qs = np.linspace(0.0, 1.0, 512)
    return np.unique(np.quantile(uniq, qs, method="nearest")).tolist()


def _experimental_loop(sample, grid, scale):
    thresholds = _grid_loop(sample, grid)
    counts, lo, hi = [], [], []
    for thr in thresholds:
        hits = sample.size - int(np.searchsorted(sample, thr, side="left"))
        counts.append(scale * hits)
        if scale == 1.0:
            lo.append(float(hits))
            hi.append(float(hits))
        else:
            a, b = _wilson_scalar(hits, sample.size)
            lo.append(scale * sample.size * a)
            hi.append(scale * sample.size * b)
    return thresholds, counts, lo, hi


def _poisson_loop(stats, grid, scale):
    trials = stats.size
    thresholds = _grid_loop(stats, grid)
    counts, lo, hi = [], [], []
    for t in thresholds:
        hits = trials - int(np.searchsorted(stats, t, side="left"))
        counts.append(scale * hits / trials)
        a, b = _wilson_scalar(hits, trials)
        lo.append(scale * a)
        hi.append(scale * b)
    return thresholds, counts, lo, hi


def _independence_loop(scale, n_samples, grid):
    from scipy.stats import binom

    thresholds = [float(t) for t in grid]
    counts = []
    for t in thresholds:
        if t > n_samples:
            counts.append(0.0)
            continue
        kmin = math.ceil((t + n_samples) / 2.0)
        if kmin <= 0:
            counts.append(scale)
            continue
        counts.append(scale * float(binom.sf(kmin - 1, n_samples, 0.5)))
    return thresholds, counts, counts, counts


def _bits(xs):
    return np.asarray(xs, dtype=np.float64).tobytes()


def _assert_same_curve(curve, ref):
    got = (curve.thresholds, curve.counts, curve.ci_low, curve.ci_high)
    for field, a, b in zip(("thresholds", "counts", "ci_low", "ci_high"),
                           got, ref):
        assert len(a) == len(b) and _bits(a) == _bits(b), field


@pytest.fixture
def grid_values(monkeypatch):
    # the sorted values each curve counts, as handed to the grid builder
    seen = []
    grid = DU._threshold_grid

    def spy(values, g):
        seen.append(np.array(values))
        return grid(values, g)

    monkeypatch.setattr(DU, "_threshold_grid", spy)
    return seen


@pytest.mark.parametrize("num_x", ["all", 1, 16, 31])
@pytest.mark.parametrize("natural", [True, False])
def test_experimental_survival_matches_threshold_loop(num_x, natural,
                                                      grid_values):
    code = C.random_code(24, 12, seed=8)
    inst = C.DecodingInstance.plant(code, 3, seed=8)
    p = DoubleRlpnParams(s=10, u=2, w=4, k_aux=5, t_aux=1)
    pairs = DU.experimental_survival(inst, p, seed=4).meta["samples"]
    grid = None if natural else [-pairs - 1, -3.5, 0.0, 2.5, 7.0, pairs + 1]
    grid_values.clear()
    curve = DU.experimental_survival(inst, p, num_x=num_x, seed=4, grid=grid)
    (sample,) = grid_values
    scale = 1.0 if num_x == "all" else 31 / num_x
    _assert_same_curve(curve, _experimental_loop(sample, grid, scale))


@pytest.mark.parametrize("n_samples", [None, 40])
@pytest.mark.parametrize("natural", [True, False])
def test_poisson_survival_matches_threshold_loop(n_samples, natural,
                                                 grid_values):
    mp = DU.ModelParams(n=24, k=12, t=3, s=10, u=2, w=4, k_aux=5, t_aux=1)
    grid = None if natural else [-1e9, -41.0, -2.5, 0.0, 0.5, 3.0, 41.0, 1e9]
    curve = DU.poisson_survival(mp, trials=10 ** 4, seed=6,
                                n_samples=n_samples, grid=grid)
    (stats,) = grid_values
    assert np.array_equal(stats, np.sort(DU.poisson_statistics(
        mp, 10 ** 4, seed=6, n_samples=n_samples)))
    if natural:
        assert stats.size > 512   # the quantile grid is the one in use
    _assert_same_curve(curve, _poisson_loop(stats, grid, 2.0 ** 5))


@pytest.mark.parametrize("n_samples", [1, 7, 65536, 10 ** 5, 10 ** 5 + 1,
                                       2 * 10 ** 5])
def test_independence_survival_matches_threshold_loop(n_samples):
    mp = DU.ModelParams(n=60, k=30, t=8, s=28, u=8, w=5, k_aux=20, t_aux=2)
    root = math.sqrt(n_samples)
    grid = sorted({-n_samples - 1.0, -n_samples, -n_samples + 0.5, -1.0,
                   0.0, 0.5, 1.0, 2.0 * root, 4.7 * root, n_samples - 1.0,
                   float(n_samples), n_samples + 0.5, n_samples + 1.0})
    curve = DU.independence_survival(mp, n_samples, grid=grid)
    _assert_same_curve(curve, _independence_loop(2.0 ** 20, n_samples, grid))
    assert curve.counts[0] == 2.0 ** 20 and curve.counts[-1] == 0.0


@pytest.mark.parametrize("n_samples", [1, 2, 7, 64, 10 ** 5 + 1, 2 * 10 ** 5])
def test_independence_tail_matches_binom_sf_bitwise(n_samples):
    # betainc against scipy.stats.binom.sf, imported here only, at every
    # k from -2 to n_samples + 1: the threshold 2k + 2 - n_samples asks
    # for P[Bin > k], 1 for k < 0 and 0 for k >= n_samples
    from scipy.stats import binom

    mp = DU.ModelParams(n=60, k=30, t=8, s=28, u=8, w=5, k_aux=20, t_aux=2)
    ks = np.arange(-2, n_samples + 2)
    curve = DU.independence_survival(mp, n_samples, grid=2.0 * ks + 2 - n_samples)
    want = 2.0 ** 20 * binom.sf(ks, n_samples, 0.5)
    assert _bits(curve.counts) == _bits(want)
    assert curve.counts[:2] == [2.0 ** 20] * 2 and curve.counts[-2:] == [0.0] * 2


@pytest.mark.parametrize("size, spread", [(0, 1), (1, 1), (2, 1), (2, 2),
                                          (600, 40), (600, 10 ** 6),
                                          (5000, 511), (5000, 512),
                                          (5000, 513)])
def test_threshold_grid_distinct_values_match_unique(size, spread):
    # the mask over sorted values against np.unique, on integer scores
    # and float statistics, below, at and above the 512-value cut
    rng = np.random.default_rng([size, spread])
    ints = rng.integers(-spread, spread, size=size)
    for values in (ints, ints * 0.37):
        uniq = np.unique(values)
        if uniq.size > 512:
            uniq = np.unique(np.quantile(uniq, np.linspace(0.0, 1.0, 512),
                                         method="nearest"))
        got = DU._threshold_grid(np.sort(values), None)
        assert got.dtype == uniq.dtype and got.tobytes() == uniq.tobytes()


def test_experimental_survival_memory_guard():
    # tracemalloc counts numpy's buffers exactly, where the resident set
    # also counts the allocator's pages.  The criterion-3 experiment
    # (2^20 scores, 65536 pairs) holds at most the score table and the
    # wrong candidates' scores at once, and peaks below three tables
    import tracemalloc

    code = C.random_code(60, 30, seed=[11, 101])
    inst = C.DecodingInstance.plant(code, 8, seed=[11, 102])
    p = DoubleRlpnParams(s=28, u=8, w=5, k_aux=20, t_aux=2, sample_budget=65536)
    tracemalloc.start()
    try:
        curve = DU.experimental_survival(inst, p, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.meta["samples"] == 65536.0
    assert peak < 3 * 8 * 2 ** 20


@pytest.mark.parametrize("trials", [1, 7, 50, 65536, 10 ** 5])
def test_wilson_interval_matches_scalar_form(trials):
    hits = np.arange(trials + 1)
    lo, hi = DU.wilson_interval(hits, trials)
    ref = [_wilson_scalar(h, trials) for h in hits.tolist()]
    assert _bits(lo) == _bits([a for a, _ in ref])
    assert _bits(hi) == _bits([b for _, b in ref])
    # the ends are clipped to [0, 1], and may round just inside it
    assert 0.0 <= lo[0] <= 1e-15 and 1.0 - 1e-15 <= hi[-1] <= 1.0
