"""Acceptance suite.

Each test covers one release criterion end to end at its stated
tolerance and prints a single summary line; run with `-v` (or `-s`) to
see one pass/fail line per criterion.  The suite only uses public
entry points, so every criterion is runnable standalone.
"""

import time
from math import comb, exp, log

import numpy as np
from scipy.special import gammaincc

from dualattack import codes as C
from dualattack import duality as DU
from dualattack import lattice as L
from dualattack.asymptotics import exponent_curve, prange_exponent
from dualattack.decoder import (DoubleRlpnParams, default_n_iter, delta,
                                double_rlpn, p_succ)
from dualattack.errors import EmptySamples
from dualattack.krawtchouk import character_sum_oracle, krawtchouk_exact
from dualattack.samples import AuxCode

DESK_SCALE = dict(n=60, k=30, t=8, s=28, u=8, w=5, k_aux=20, t_aux=2)


def _report(name, detail):
    print(f"acceptance {name}: {detail}")


def _random_check_instance(attempt, tag):
    n = (10, 12, 14)[attempt % 3]
    k = n // 2
    s = (4, 5, 6)[attempt % 3]
    k_aux = (2, 3, 4)[attempt % 3]
    rng = np.random.default_rng([tag, attempt])
    code = C.random_code(n, k, seed=[tag, attempt, 1])
    part = None
    for _ in range(200):
        cand = C.Partition.random(n, s, rng)
        try:
            C.systematic_form(code, cand)
            part = cand
            break
        except C.RankDeficient:
            continue
    aux = AuxCode.random(s, k_aux, 1, seed=[tag, attempt, 2])
    e = rng.integers(0, 2, size=n, dtype=np.uint8)
    y = code.encode(rng.integers(0, 2, size=k, dtype=np.uint8)) ^ e
    x = rng.integers(0, 2, size=s, dtype=np.uint8)
    return code, part, aux, e, y, x


def test_criterion_1_duality_identity_exact():
    t0 = time.monotonic()
    done = 0
    attempt = 0
    while done < 200:
        assert attempt < 2000, "instance generation stalled"
        code, part, aux, e, y, x = _random_check_instance(attempt, 31)
        w = 1 + attempt % 3
        attempt += 1
        if part is None:
            continue
        try:
            lhs, rhs = DU.duality_check(code, aux, part, e, y, x, w)
        except EmptySamples:
            continue
        assert lhs == rhs, f"identity broke on attempt {attempt - 1}"
        done += 1
    wall = time.monotonic() - t0
    _report("criterion 1", f"{done}/200 exact in {wall:.1f} s")
    assert wall < 60.0


def test_criterion_2_krawtchouk_identity_suite():
    t0 = time.monotonic()
    for n in range(1, 33):
        table = [[krawtchouk_exact(n, w, t) for t in range(n + 1)]
                 for w in range(n + 1)]
        binom = [comb(n, i) for i in range(n + 1)]
        for w in range(n + 1):
            assert table[w][0] == binom[w]
            assert sum(b * v for b, v in zip(binom, table[w])) == (
                2 ** n if w == 0 else 0)
            for t in range(n + 1):
                assert binom[t] * table[w][t] == binom[w] * table[t][w]
            for v in range(w, n + 1):
                dot = sum(binom[i] * table[w][i] * table[v][i]
                          for i in range(n + 1))
                assert dot == (2 ** n * binom[w] if w == v else 0)
    checked = 0
    for n in range(1, 15):
        for t in range(n + 1):
            x = np.zeros(n, np.uint8)
            x[:t] = 1
            for w in range(n + 1):
                assert character_sum_oracle(x, w) == krawtchouk_exact(n, w, t)
                checked += 1
    wall = time.monotonic() - t0
    _report("criterion 2",
            f"identities exact for n <= 32, oracle match on {checked} "
            f"points, {wall:.1f} s")
    assert wall < 120.0


def test_criterion_3_survival_models_track_experiment():
    t0 = time.monotonic()
    nparams = DU.ModelParams(**DESK_SCALE)
    dparams = DoubleRlpnParams(s=28, u=8, w=5, k_aux=20, t_aux=2,
                               sample_budget=65536)
    code = C.random_code(60, 30, seed=[11, 101])
    inst = C.DecodingInstance.plant(code, 8, seed=[11, 102])
    exp_curve = DU.experimental_survival(inst, dparams, seed=11)
    n_samples = int(exp_curve.meta["samples"])
    assert n_samples == 65536
    poi = DU.poisson_survival(nparams, trials=10 ** 6, seed=11,
                              n_samples=n_samples,
                              grid=exp_curve.thresholds)
    ind = DU.independence_survival(nparams, n_samples,
                                   grid=exp_curve.thresholds)
    exp_c = np.asarray(exp_curve.counts)
    poi_c = np.asarray(poi.counts)
    ind_c = np.asarray(ind.counts)
    both = (exp_c >= 3) & (poi_c >= 3)
    assert both.sum() >= 100
    ratio = exp_c[both] / poi_c[both]
    assert ratio.max() <= 10.0 and ratio.min() >= 0.1
    # the independence model must miss the floor by a decade or more at
    # the largest thresholds that still hold a few observed candidates
    tail = np.where(exp_c >= 3)[0][-5:]
    assert np.all(exp_c[tail] >= 10.0 * ind_c[tail])
    wall = time.monotonic() - t0
    _report("criterion 3",
            f"poisson/experimental ratio in "
            f"[{ratio.min():.2f}, {ratio.max():.2f}] on "
            f"{int(both.sum())} thresholds, independence off by >= 10x "
            f"at the tail, {wall:.0f} s")
    assert wall < 1800.0


def test_criterion_4_decoder_end_to_end():
    t0 = time.monotonic()
    t = C.gv_distance(40, 20)
    assert t == 5
    ps = p_succ(40, 16, t, 3)
    n_iter = default_n_iter(ps)
    # ceil(8 / p) with p an exact rational
    assert n_iter == -((-8 * ps.denominator) // ps.numerator)
    wins = 0
    for seed in range(20):
        code = C.random_code(40, 20, seed=[seed, 201])
        inst = C.DecodingInstance.plant(code, t, seed=[seed, 202])
        params = DoubleRlpnParams(s=16, u=3, w=5, k_aux=8, t_aux=1,
                                  seed=seed)
        stats = {}
        e = double_rlpn(inst, params, stats)
        assert stats["trials_used"] <= n_iter
        if e is None:
            continue
        # soundness: every returned word is a true weight-t solution
        assert int(e.sum()) == t
        assert code.contains((inst.y + e) % 2)
        wins += 1
    wall = time.monotonic() - t0
    _report("criterion 4",
            f"success {wins}/20, soundness 100%, N_iter={n_iter}, "
            f"{wall:.1f} s")
    assert wins >= 14


def test_criterion_5_candidate_count_bound():
    t0 = time.monotonic()
    nparams = DU.ModelParams(**DESK_SCALE)
    dparams = DoubleRlpnParams(s=28, u=8, w=5, k_aux=20, t_aux=2,
                               sample_budget=65536)
    bound = DU.candidate_bound(nparams)
    half_bias = 0.5 * float(delta(dparams, 60, 30, 8).delta)
    slack = bound * 60.0 ** 4
    ok = 0
    for seed in range(30):
        code = C.random_code(60, 30, seed=[seed, 101])
        inst = C.DecodingInstance.plant(code, 8, seed=[seed, 102])
        curve = DU.experimental_survival(inst, dparams, seed=seed)
        threshold = half_bias * curve.meta["samples"]
        # counts are non-increasing, so the count at the last grid value
        # below the threshold upper-bounds the true survivor count
        idx = np.searchsorted(curve.thresholds, threshold, side="right") - 1
        observed = curve.counts[max(idx, 0)] + 1.0
        ok += observed <= slack
    wall = time.monotonic() - t0
    _report("criterion 5",
            f"{ok}/30 seeds below bound*n^4 = {slack:.3g}, {wall:.0f} s")
    assert ok >= 29


def test_criterion_6a_double_rlpn_below_dumer():
    t0 = time.monotonic()
    grid = [round(0.05 * i, 2) for i in range(1, 9)]
    points = exponent_curve(["double-rlpn", "dumer"], grid)
    dr = {p.R: p.alpha for p in points if p.algorithm == "double-rlpn"}
    du = {p.R: p.alpha for p in points if p.algorithm == "dumer"}
    gaps = {r: du[r] - dr[r] for r in grid}
    assert all(g > 0 for g in gaps.values()), gaps
    wall = time.monotonic() - t0
    _report("criterion 6a",
            f"double-rlpn beats dumer at all 8 rates, min gap "
            f"{min(gaps.values()):.4f}, {wall:.0f} s")
    assert wall < 600.0


def test_criterion_6b_crossover_with_best_baseline():
    # the best ISD baseline in this repository is dumer, and the
    # double-rlpn curve stays strictly below it at every rate, so no
    # sign change exists in the stated band; the assertion documents
    # the discrepancy rather than hiding it
    t0 = time.monotonic()
    grid = [round(0.38 + 0.02 * i, 2) for i in range(5)]
    points = exponent_curve(["double-rlpn", "dumer"], grid)
    dr = [p.alpha for p in points if p.algorithm == "double-rlpn"]
    du = [p.alpha for p in points if p.algorithm == "dumer"]
    diff = [a - b for a, b in zip(dr, du)]
    wall = time.monotonic() - t0
    crossings = [i for i in range(len(diff) - 1)
                 if diff[i] == 0 or diff[i] * diff[i + 1] < 0]
    _report("criterion 6b",
            f"sign pattern of (double-rlpn - dumer) on {grid}: "
            f"{['%+.4f' % d for d in diff]}, {wall:.0f} s")
    assert wall < 600.0
    assert crossings, (
        "no crossover in [0.38, 0.46]: double-rlpn stays below dumer "
        f"everywhere, diffs {diff}")


def test_criterion_6c_prange_peak():
    t0 = time.monotonic()
    rs = np.linspace(0.30, 0.60, 301)
    vals = [prange_exponent(float(r)) for r in rs]
    best = int(np.argmax(vals))
    peak_r, peak = float(rs[best]), vals[best]
    wall = time.monotonic() - t0
    _report("criterion 6c",
            f"prange max {peak:.6f} at R = {peak_r:.3f}, {wall:.1f} s")
    assert 0.118 <= peak <= 0.123
    assert abs(peak_r - 0.45) <= 0.02
    assert wall < 600.0


def test_criterion_7_poisson_gamma_oracles():
    t0 = time.monotonic()
    # coset weight-count means against the model intensities
    n, k, s, k_aux = 13, 7, 5, 2
    nj_all, ni_all = [], []
    attempt = 0
    while len(nj_all) < 200:
        assert attempt < 1000
        rng = np.random.default_rng([47, attempt])
        code = C.random_code(n, k, seed=[47, attempt, 1])
        part = None
        for _ in range(200):
            cand = C.Partition.random(n, s, rng)
            try:
                C.systematic_form(code, cand)
                part = cand
                break
            except C.RankDeficient:
                continue
        attempt += 1
        if part is None:
            continue
        aux = AuxCode.random(s, k_aux, 1, seed=[47, attempt, 2])
        e = rng.integers(0, 2, size=n, dtype=np.uint8)
        x = rng.integers(0, 2, size=s, dtype=np.uint8)
        counts = DU.joint_weight_counts(code, aux, part, e, x)
        nj_all.append(counts.sum(axis=0) / 2.0 ** (k - s))
        ni_all.append(counts.sum(axis=1) / 2.0 ** (s - k_aux))
    nj = np.array(nj_all, np.float64)
    ni = np.array(ni_all, np.float64)
    worst = 0.0
    for j in range(s + 1):
        want = comb(s, j) / 2.0 ** k_aux
        se = nj[:, j].std(ddof=1) / np.sqrt(nj.shape[0])
        pull = abs(nj[:, j].mean() - want) / max(se, 1e-12)
        worst = max(worst, pull if se > 1e-12 else 0.0)
        assert abs(nj[:, j].mean() - want) <= 3 * se + 1e-12
    for i in range(n - s + 1):
        want = comb(n - s, i) / 2.0 ** (n - k)
        se = ni[:, i].std(ddof=1) / np.sqrt(ni.shape[0])
        pull = abs(ni[:, i].mean() - want) / max(se, 1e-12)
        worst = max(worst, pull if se > 1e-12 else 0.0)
        assert abs(ni[:, i].mean() - want) <= 3 * se + 1e-12
    # closest-point survival against a direct point-process simulation
    trials = 10 ** 6
    rng = np.random.default_rng([47, 999])
    for kk, theta, alpha in ((0, 1.0, 0.7), (2, 1.0, 2.0), (1, 3.5, 0.4)):
        arrivals = rng.exponential(1.0 / theta,
                                   (trials, kk + 1)).cumsum(axis=1)
        frac = float((arrivals[:, kk] >= alpha).mean())
        # the (kk+1)-th arrival passes alpha when at most kk points
        # fall in [0, alpha): a Poisson(theta alpha) lower tail
        want = gammaincc(kk + 1, theta * alpha)
        se = np.sqrt(want * (1.0 - want) / trials)
        assert abs(frac - want) <= 3 * se, (kk, theta, alpha, frac, want)
    wall = time.monotonic() - t0
    _report("criterion 7",
            f"count means within 3 s.e. (worst pull {worst:.2f}), "
            f"gamma survival within 3 s.e. at 1e6 trials, {wall:.0f} s")


def test_criterion_8_lattice_score_shape():
    t0 = time.monotonic()
    params = L.preset_params("fig3-left")
    grid = np.linspace(0.0, 600.0, 61)
    curve = L.survival_refined(params, grid, mc_trials=2 * 10 ** 5, seed=8)
    ref = np.asarray(curve.survival["refined"])
    flo = np.asarray(curve.survival["floor"])
    ind = np.asarray(curve.survival["independence"])
    # waterfall: the refined curve hugs the pure-Gaussian tail at small
    # thresholds, then leaves it for a floor decades above
    sigma = curve.meta["sigma"]
    near = int(np.searchsorted(grid, sigma))
    assert 0.5 <= ref[near] / ind[near] <= 2.0
    assert ref[-1] >= 10.0 * ind[-1]
    assert np.all(np.diff(ref) <= 1e-12)
    # internal consistency: at the threshold where the floor overtakes
    # the Gaussian, the floor survival must match the closest-point law
    # at the preimage radius of the score transform.  The floor curve
    # starts near one (the closest-point score is almost surely
    # positive), dives under the Gaussian through the waterfall, and
    # re-crosses it at the onset; the onset is that re-crossing.
    below = np.where(flo < ind)[0]
    assert below.size > 0
    onset = int(below[-1]) + 1
    assert onset < grid.size and flo[onset] > ind[onset] > 0
    t_onset = float(grid[onset])
    theta = exp(curve.meta["log_theta"])

    def logg(j):
        sign, lg = L.floor_value(params, j)
        assert sign > 0
        return lg

    lo, hi = 1.0, 170.0
    assert logg(lo) > log(t_onset) > logg(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if logg(mid) > log(t_onset):
            lo = mid
        else:
            hi = mid
    pre = 0.5 * (lo + hi)
    predicted = 1.0 - gammaincc(1, theta * pre ** params.n)
    ratio = flo[onset] / predicted
    wall = time.monotonic() - t0
    _report("criterion 8",
            f"floor onset at t = {t_onset:.0f}, preimage radius "
            f"{pre:.1f}, floor/predicted = {ratio:.2f}, {wall:.1f} s")
    assert 0.1 <= ratio <= 10.0
    assert wall < 120.0
