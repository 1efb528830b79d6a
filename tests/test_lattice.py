import dataclasses
import math
import multiprocessing
import os
import threading
import warnings
from contextlib import nullcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from dualattack import asymptotics as A
from dualattack import lattice as L
from dualattack.errors import BudgetExceeded, DomainError
from oracles import floor_value

mpmath.mp.prec = 256


def test_log_ball_volume():
    assert abs(L.log_ball_volume(2) - math.log(math.pi)) < 1e-12
    assert abs(L.log_ball_volume(3) - math.log(4.0 * math.pi / 3.0)) < 1e-12
    assert abs(L.log_ball_volume(1) - math.log(2.0)) < 1e-12
    with pytest.raises(DomainError):
        L.log_ball_volume(0)


def test_preset_params():
    p = L.preset_params("fig3-left")
    assert (p.n, p.N, p.w) == (60, 5040, 0.0320)
    assert abs(p.log_volume - 255.363) < 0.01
    r = L.preset_params("fig3-right")
    assert (r.n, r.N, r.w) == (80, 89494, 0.0376)
    assert abs(r.log_volume - 338.400) < 0.01
    with pytest.raises(DomainError):
        L.preset_params("unknown-preset")


def test_preset_volume_matches_dual_count():
    # the inferred volume makes the expected dual-vector count at norm w
    # come out to exactly N
    for name in L.PRESETS:
        p = L.preset_params(name)
        log_count = L.log_ball_volume(p.n) + p.n * math.log(p.w) - (-p.log_volume)
        assert abs(log_count - math.log(p.N)) < 1e-9


def test_params_validation():
    with pytest.raises(DomainError):
        L.LatticeScoreParams(59, 1.0, 10, 0.1)
    with pytest.raises(DomainError):
        L.LatticeScoreParams(0, 1.0, 10, 0.1)
    with pytest.raises(DomainError):
        L.LatticeScoreParams(60, 1.0, 0, 0.1)
    with pytest.raises(DomainError):
        L.LatticeScoreParams(60, 1.0, 10, 0.0)
    with pytest.raises(DomainError):
        L.LatticeScoreParams(60, math.inf, 10, 0.1)
    # an infinite scale would overflow in log_bessel_j
    for w in (math.inf, math.nan, -math.inf):
        with pytest.raises(DomainError, match="positive and finite"):
            L.LatticeScoreParams(60, 1.0, 10, w)


def _bessel(k, x):
    # (sign, log) of J_k at one point
    sign, lg = L.log_bessel_j(k, [x])
    return float(sign[0]), float(lg[0])


def test_bessel_trivial_points():
    assert _bessel(0, 0.0) == (1.0, 0.0)
    sign, lg = _bessel(3, 0.0)
    assert sign == 0.0 and lg == -math.inf
    sign, lg = L.log_bessel_j(0, np.array([0.0, 0.0]))
    assert list(sign) == [1.0, 1.0] and list(lg) == [0.0, 0.0]
    for k, x in [(-1, 2.0), (2, -1.0), (0.5, 2.0), (4.5, 40.0)]:
        with pytest.raises(DomainError):
            L.log_bessel_j(k, [x])
    # a non-finite argument is refused, not read as a zero of J or
    # overflowed in sizing the recurrence
    for xs in ([math.nan, 1.0], [math.inf], [1.0, -math.inf]):
        with pytest.raises(DomainError, match="finite x"):
            L.log_bessel_j(3, xs)
    for k in (math.inf, math.nan):
        with pytest.raises(DomainError):
            L.log_bessel_j(k, [1.0])


def _bessel_reference(k, xs, rescaled):
    # log_bessel_j with a fixed 160-term series and a recurrence that
    # allocates at each step; appends to rescaled each step m that rescales
    xs = np.asarray(xs, dtype=np.float64)
    sign = np.zeros(xs.shape)
    logm = np.full(xs.shape, -np.inf)
    if k == 0:
        sign[xs == 0] = 1.0
        logm[xs == 0] = 0.0
    cut = max(0.85 * k, 2.0)
    ser = (xs > 0) & (xs <= cut)
    if ser.any():
        x = xs[ser]
        hh = 0.25 * x * x
        s = np.zeros_like(x)
        c = np.ones_like(x)
        for m in range(160):
            s += c
            c *= -hh / ((m + 1.0) * (m + 1.0 + k))
        nz = s != 0.0
        sg = np.where(s > 0, 1.0, np.where(s < 0, -1.0, 0.0))
        lg = np.where(nz, k * np.log(0.5 * x) - math.lgamma(k + 1.0)
                      + np.log(np.abs(np.where(nz, s, 1.0))), -np.inf)
        sign[ser] = sg
        logm[ser] = lg
    rec = xs > cut
    if rec.any():
        x = xs[rec]
        xm = float(np.max(x))
        top = max(k, int(xm)) + int(math.sqrt(40.0 * max(k, int(xm), 1))) + 2
        if top % 2:
            top += 1
        fp = np.zeros_like(x)
        f = np.full_like(x, 1e-290)
        norm = 2.0 * f
        val = np.zeros_like(x)
        for m in range(top, 0, -1):
            fm = (2.0 * m / x) * f - fp
            fp, f = f, fm
            idx = m - 1
            if idx == k:
                val = fm.copy()
            if idx % 2 == 0:
                norm = norm + (fm if idx == 0 else 2.0 * fm)
            if m % 16 == 0:
                big = np.abs(f) > 1e250
                if big.any():
                    rescaled.append(m)
                    sc = np.where(big, 1e-250, 1.0)
                    fp *= sc
                    f *= sc
                    norm *= sc
                    val *= sc
        nz = val != 0.0
        sign[rec] = np.where(nz, np.sign(val / norm), 0.0)
        logm[rec] = np.where(nz, np.log(np.abs(np.where(nz, val, 1.0)))
                             - np.log(np.abs(norm)), -np.inf)
    return sign, logm


@pytest.mark.parametrize("k", [0, 1, 7, 29, 39])
def test_bessel_matches_full_series_and_allocating_recurrence(k):
    # the series' early stop and the in-place recurrence give the bits of
    # the full series and the allocating steps, point by point (where one
    # point alone sets the stop) and over arrays mixing both paths
    cut = max(0.85 * k, 2.0)
    below = np.concatenate((np.logspace(-300.0, math.log10(cut), 121),
                            np.linspace(0.0, cut, 49)[1:]))
    above = cut * np.linspace(1.0, 4.0, 25)[1:]
    cases = [[x] for x in below] + [[x] for x in above[:4]]
    cases += [below, np.concatenate((above, below)), np.concatenate((below[::-1], above))]
    for xs in cases:
        got = L.log_bessel_j(k, xs)
        ref = _bessel_reference(k, xs, [])
        assert got[0].tobytes() == ref[0].tobytes(), (k, xs)
        assert got[1].tobytes() == ref[1].tobytes(), (k, xs)


def test_bessel_in_place_recurrence_through_a_rescale():
    # points just above the cut grow past 1e250 on the way down from a
    # far larger argument's starting order, so the rescale step runs
    xs = np.array([34.0, 34.5, 60.0, 1500.0])
    rescaled = []
    ref = _bessel_reference(39, xs, rescaled)
    assert rescaled and np.all(np.isfinite(ref[1]))
    got = L.log_bessel_j(39, xs)
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()


def test_bessel_point_beside_a_far_larger_argument():
    # a point just above the cut overflows on the way down from a far
    # larger argument's starting order; it is redone on its own, with no
    # warning, and each point equals the point computed alone.  Points up
    # to 60 beside partners up to 1e5 match the library
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = L.log_bessel_j(0, [2.1, 20000.0])
        alone = [L.log_bessel_j(0, [x]) for x in (2.1, 20000.0)]
        for k in (0, 1, 3, 29, 39):
            xs = np.concatenate((np.linspace(max(0.85 * k, 2.0), 60.0, 41)[1:], [1e3, 3e4, 1e5]))
            signs, lgs = L.log_bessel_j(k, xs)
            for x, sign, lg in zip(xs, signs, lgs):
                ref = float(jv(k, x))
                if abs(ref) > 1e-10:
                    assert sign == math.copysign(1.0, ref), (k, x)
                    assert abs(math.exp(lg - math.log(abs(ref))) - 1.0) < 1e-8, (k, x)
    assert got[0][0] == 1.0 and abs(got[1][0] + 1.7921) < 1e-4
    for i in range(2):
        assert [got[0][i], got[1][i]] == [alone[i][0][0], alone[i][1][0]]


def test_floor_score_at_vanishing_distance():
    # n = 2 puts J_0 in the floor, and a tiny volume sends x = 2 pi w j
    # to 0, where J_0 is 1 and the score is the floor's lead term
    p = L.LatticeScoreParams(2, -2000.0, 10, 0.05)
    got = L._floor_scores(p, np.array([-1000.0]))
    lead = math.log(p.N) + 0.5 * math.log(2.0 * math.pi) - 1.0
    assert got[0] == pytest.approx(math.exp(lead), rel=1e-12)
    sign, lg = floor_value(p, 1e-300)
    assert sign == 1.0 and lg == pytest.approx(lead, rel=1e-12)


@pytest.mark.parametrize("nu,x", [
    (0, 0.5), (1, 3.7), (7, 5.0), (29, 12.0), (29, 24.0), (29, 30.0),
    (30, 35.0), (39, 33.0), (39, 39.0), (2, 700.0), (5, 1e-3),
    (0, 20000.0), (30, 172.0), (29, 100.0),
])
def test_bessel_against_256bit_oracle(nu, x):
    sign, lg = _bessel(nu, x)
    ref = mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x))
    assert sign == (1.0 if ref > 0 else -1.0)
    rel = abs(math.exp(lg - float(mpmath.log(abs(ref)))) - 1.0)
    assert rel < 1e-8


def test_bessel_against_library_grid():
    xs = np.linspace(0.1, 60.0, 89)
    for nu in (0, 1, 7, 29, 30):
        signs, lgs = L.log_bessel_j(nu, xs)
        for x, sign, lg in zip(xs, signs, lgs):
            ref = float(jv(nu, float(x)))
            if ref == 0.0 or abs(ref) < 1e-200:
                continue
            if abs(ref) < 1e-10:
                continue  # library noise near zeros dominates the ratio
            assert sign == math.copysign(1.0, ref)
            assert abs(math.exp(lg - math.log(abs(ref))) - 1.0) < 1e-8


def test_bessel_against_256bit_grid():
    # both fig3 presets evaluate the floor at orders 29 and 39 up to
    # x = 2 pi w j of about 95, so the series/recurrence split must hold
    # over all of (0, 100]
    xs = np.linspace(0.0, 100.0, 201)[1:]
    for k in (0, 1, 7, 14, 29, 30, 39):
        signs, lgs = L.log_bessel_j(k, xs)
        for x, sign, lg in zip(xs, signs, lgs):
            ref = mpmath.besselj(k, mpmath.mpf(float(x)))
            assert sign == (1.0 if ref > 0 else -1.0), (k, x)
            rel = abs(math.exp(lg - float(mpmath.log(abs(ref)))) - 1.0)
            assert rel < 1e-8, (k, x)


def test_bessel_derivative_identity():
    # d/dx [x^nu J_nu(x)] = x^nu J_{nu-1}(x): the identity behind
    # collapsing a thin two-sided norm band to a single-order term
    nu = 30.0
    for x in (10.0, 20.0, 33.0):
        d = 0.01

        def g(y):
            s, lg = _bessel(nu, y)
            return s * math.exp(nu * math.log(y) + lg)

        lhs = (g(x + d) - g(x - d)) / (2.0 * d)
        s, lg = _bessel(nu - 1.0, x)
        rhs = s * math.exp(nu * math.log(x) + lg)
        assert abs(lhs / rhs - 1.0) < 1e-3


def test_floor_linear_in_scan_count():
    p = L.preset_params("fig3-left")
    p2 = dataclasses.replace(p, N=2 * p.N)
    for j in (2.0, 50.0, 120.0, 200.0):
        s1, l1 = floor_value(p, j)
        s2, l2 = floor_value(p2, j)
        assert s1 == s2
        assert abs((l2 - l1) - math.log(2.0)) < 1e-12


def test_floor_sign_follows_bessel():
    p = L.preset_params("fig3-left")
    for j in np.linspace(150.0, 400.0, 40):
        ref = float(jv(p.n // 2 - 1, 2.0 * math.pi * p.w * j))
        if abs(ref) < 1e-12:
            continue
        sign, _ = floor_value(p, float(j))
        assert sign == math.copysign(1.0, ref)


def test_floor_saturation_and_monotone_branch():
    p = L.preset_params("fig3-left")

    def g(j):
        s, lg = floor_value(p, j)
        return s * math.exp(min(lg, 700.0))

    assert 0.95 * p.N < g(1e-3) <= p.N
    vals = [g(j) for j in np.arange(1.0, 161.0, 5.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        floor_value(p, 0.0)


def test_survival_validation():
    p = L.preset_params("fig3-left")
    with pytest.raises(DomainError):
        L.survival_refined(p, [0.0, 1.0], mc_trials=99999)
    with pytest.raises(DomainError):
        L.survival_refined(p, [1.0, 0.5])
    with pytest.raises(DomainError):
        L.survival_refined(p, [])
    with pytest.raises(DomainError):
        L.survival_refined(p, [0.0, 1.0], shortest_terms=0)


def test_survival_deterministic_and_seed_sensitive():
    p = L.preset_params("fig3-left")
    grid = np.linspace(0.0, 500.0, 11)
    a = L.survival_refined(p, grid, mc_trials=10 ** 5, seed=9)
    b = L.survival_refined(p, grid, mc_trials=10 ** 5, seed=9)
    c = L.survival_refined(p, grid, mc_trials=10 ** 5, seed=10)
    for m in L.MODELS:
        assert np.array_equal(a.survival[m], b.survival[m])
    assert not np.array_equal(a.survival["refined"], c.survival["refined"])
    assert a.meta["mc_trials"] >= 97000
    assert a.meta["threshold_units"] == "raw score"


def test_survival_curves_monotone():
    p = L.preset_params("fig3-left")
    grid = np.linspace(0.0, 700.0, 36)
    c = L.survival_refined(p, grid, mc_trials=10 ** 5, seed=2)
    for m in L.MODELS:
        s = c.survival[m]
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(c.ci_low[m] <= s) and np.all(s <= c.ci_high[m])


def test_survival_refined_dominance():
    p = L.preset_params("fig3-left")
    grid = np.linspace(0.0, 600.0, 25)
    c = L.survival_refined(p, grid, mc_trials=2 * 10 ** 5, seed=4)
    ref, flo, ind = (c.survival[m] for m in ("refined", "floor", "independence"))
    assert np.all(ref >= 0.45 * flo - 1e-15)
    assert np.all(ref >= 0.97 * ind - 1e-15)
    tail = flo <= 0.1
    assert np.all(ref[tail] >= 0.8 * flo[tail] - 1e-16)


def test_survival_gaussian_limit_when_floor_far():
    # push the volume up so the closest lattice point is far out and its
    # score contribution vanishes: refined collapses onto independence
    p = L.LatticeScoreParams(60, 400.0, 5040, 0.0320)
    grid = np.linspace(0.0, 250.0, 11)
    c = L.survival_refined(p, grid, mc_trials=10 ** 5, seed=1)
    ref, ind = c.survival["refined"], c.survival["independence"]
    keep = ind > 1e-9
    assert np.all(np.abs(ref[keep] / ind[keep] - 1.0) < 1e-6)


def test_survival_extra_shortest_terms():
    p = L.preset_params("fig3-left")
    grid = np.array([0.0, 420.0, 480.0])
    one = L.survival_refined(p, grid, mc_trials=10 ** 5, seed=8)
    two = L.survival_refined(p, grid, mc_trials=10 ** 5, seed=8, shortest_terms=2)
    assert two.meta["shortest_terms"] == 2
    # the second-closest point only adds nonnegative score here, so the
    # deep floor cannot shrink by more than band noise
    assert two.survival["floor"][1] >= 0.5 * one.survival["floor"][1]
    assert two.survival["floor"][2] >= 0.5 * one.survival["floor"][2]


def test_waterfall_floor_shape_left_preset():
    # the acceptance-scale shape probe: Gaussian at small thresholds, a
    # floor decades above the Gaussian tail at large ones
    p = L.preset_params("fig3-left")
    grid = np.array([100.0, 500.0])
    c = L.survival_refined(p, grid, mc_trials=10 ** 5, seed=12)
    ref, ind = c.survival["refined"], c.survival["independence"]
    # the typical closest-vector term sits a few units above zero here, which
    # multiplies the small Gaussian crossing probability by a bounded factor
    assert 0.8 < ref[0] / ind[0] < 1.5
    assert ref[1] > 100.0 * ind[1]
    assert ref[1] > 1e-15


def _fig3_curve(preset, terms):
    # survival_refined on the lattice-score default grid and trial count
    p = L.preset_params(preset)
    grid = np.linspace(0.0, float(np.ceil(10.0 * np.sqrt(p.N / 2.0))), 51)
    return L.survival_refined(p, grid, seed=3, shortest_terms=terms)


def _curve_fields(c):
    # every output of a curve as exact bytes, with its repr
    bands = {m: (c.survival[m].tobytes(), c.ci_low[m].tobytes(), c.ci_high[m].tobytes())
             for m in L.MODELS}
    return c.thresholds.tobytes(), bands, c.meta, repr(c)


def _scored_here(monkeypatch):
    # counts the _floor_scores calls made in this process: one per stratum
    # and shortest term that this process computes
    calls = []
    scores = L._floor_scores

    def counting(params, log_j):
        calls.append(os.getpid())
        return scores(params, log_j)

    monkeypatch.setattr(L, "_floor_scores", counting)
    return calls


def _small_curve_scores():
    # the _floor_scores calls this process makes for one small curve
    with pytest.MonkeyPatch.context() as mp:
        calls = _scored_here(mp)
        L.survival_refined(L.preset_params("fig3-left"), [0.0, 400.0], mc_trials=10 ** 5)
    return len(calls)


def test_survival_budget_follows_the_strata(monkeypatch):
    # the 2^25-cell cap per stratum table, with the trials split over
    # every stratum: one point past it is refused before any draw or fork
    base = 200000 // len(L._strata())
    limit = (1 << 25) // base
    assert (len(L._strata()), base, limit) == (42, 4761, 7047)
    events = []

    class Reached(Exception):
        pass

    def walk(*args):
        events.append("draw")
        raise Reached

    monkeypatch.setattr(L, "_walk", walk)
    monkeypatch.setattr(L, "_worker", lambda: events.append("fork") or nullcontext())
    p = L.preset_params("fig3-left")
    with pytest.raises(BudgetExceeded):
        L.survival_refined(p, np.arange(limit + 1.0))
    assert events == []
    with pytest.raises(Reached):
        L.survival_refined(p, np.arange(float(limit)))
    assert events == ["fork", "draw"]


@pytest.mark.parametrize("terms", [1, 3])
@pytest.mark.parametrize("preset", L.PRESETS)
def test_stratum_statistics_match_numpy_mean_and_var(monkeypatch, preset, terms):
    # each stratum's four statistics equal numpy's mean and var of the
    # refined table and of the hit table as floats, bit for bit, on a grid
    # past both ends of the floor scores: every sample hits the first
    # column and none the last
    from scipy.special import erfc

    floors = []
    scores = L._floor_scores

    def recording(params, log_j):
        floors.append(scores(params, log_j))
        return floors[-1]

    monkeypatch.setattr(L, "_floor_scores", recording)
    p = L.preset_params(preset)
    t = np.concatenate(([-1e12], np.linspace(0.0, float(np.ceil(10.0 * np.sqrt(p.N / 2.0))), 51), [1e12]))
    base = 200000 // len(L._strata())
    strata = L._walk(p, t, [5, p.n, p.N, terms], base, terms, range(len(L._strata())))
    assert len(strata) == len(L._strata()) and len(floors) == len(strata) * terms
    c = math.sqrt(0.5 * p.N) * math.sqrt(2.0)
    full, partial = [], 0
    for i, (scale, qm, qv, hm, hv) in enumerate(strata):
        x_floor = floors[i * terms]
        for more in floors[i * terms + 1:(i + 1) * terms]:
            x_floor = x_floor + more
        q = 0.5 * erfc((t[None, :] - x_floor[:, None]) / c)
        hit = x_floor[:, None] >= t[None, :]
        want = (q.mean(axis=0), q.var(axis=0), hit.mean(axis=0), hit.astype(np.float64).var(axis=0))
        for got, ref in zip((qm, qv, hm, hv), want):
            assert got.tobytes() == ref.tobytes(), i
        assert hm[0] == 1.0 and hm[-1] == 0.0 and hv[0] == hv[-1] == 0.0
        full.append(np.count_nonzero(hm == 1.0))
        partial += np.count_nonzero((hm > 0.0) & (hm < 1.0))
    # the nearest strata hit on every sample all the way up the default
    # grid, and some columns hit on part of the samples
    assert max(full) == len(t) - 1 and partial > 0


@pytest.mark.parametrize("terms", [1, 3])
@pytest.mark.parametrize("preset", L.PRESETS)
def test_survival_split_matches_in_process(monkeypatch, preset, terms):
    # the forked two-process split gives every output of the in-process
    # run, bit for bit; the worker is sent the first 21 strata
    from concurrent.futures import ProcessPoolExecutor

    calls = _scored_here(monkeypatch)
    sent, submit = [], ProcessPoolExecutor.submit

    def sending(pool, fn, *args):
        sent.append(args)
        return submit(pool, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", sending)
    monkeypatch.setattr(A, "_cores", lambda: 2)
    split = _fig3_curve(preset, terms)
    assert len(calls) == 21 * terms and sent == [(range(0, 21),)]
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(A, "_cores", lambda: 1)
    alone = _fig3_curve(preset, terms)
    assert len(calls) == (21 + 42) * terms
    assert _curve_fields(split) == _curve_fields(alone)


@pytest.mark.parametrize("where", ["both", "worker"])
def test_survival_split_leaves_no_process_when_scores_raise(monkeypatch, where):
    # the fork carries the patched floor scores into the worker; its error,
    # or the caller's own, reaches the caller and the worker is joined
    caller = os.getpid()
    scores = L._floor_scores

    def failing(params, log_j):
        if where == "both" or os.getpid() != caller:
            raise FloatingPointError("floor scores failed")
        return scores(params, log_j)

    monkeypatch.setattr(A, "_cores", lambda: 2)
    monkeypatch.setattr(L, "_floor_scores", failing)
    with pytest.raises(FloatingPointError, match="floor scores failed"):
        _fig3_curve("fig3-left", 1)
    assert multiprocessing.active_children() == []


def test_survival_stays_in_process_beside_threads_and_in_daemons(monkeypatch):
    # a second running thread, or a daemonic caller, computes every
    # stratum in-process
    monkeypatch.setattr(A, "_cores", lambda: 2)
    assert _small_curve_scores() == 21
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _small_curve_scores() == 42
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_small_curve_scores) == 42
    assert multiprocessing.active_children() == []
