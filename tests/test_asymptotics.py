import math
import multiprocessing
import os
import threading
from contextlib import contextmanager, nullcontext
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualattack import asymptotics as A
from dualattack.errors import DomainError
from dualattack.krawtchouk import _omega_perp, h2, h2_inv, kappa_tilde


@contextmanager
def _cores(n):
    # n = 2 forces the two-process split whatever the machine, n = 1 the
    # in-process run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(A, "_cores", lambda: n)
        yield


def _forks_here():
    with A._worker() as pool:
        return pool is not None


@pytest.fixture(scope="module")
def drlpn_point():
    with _cores(2):
        return A.double_rlpn_exponent(0.2)


@pytest.fixture(scope="module")
def extremes():
    with _cores(2):
        return [A.double_rlpn_exponent(r) for r in (0.02, 0.98)]


@pytest.fixture(scope="module")
def drlpn_042_run():
    # the point at R = 0.42, with the objective rows this process
    # evaluated for it
    rows = []
    objective = A._drlpn_rows

    def recording(R, tau, batch, N_aux):
        rows.extend(batch)
        return objective(R, tau, batch, N_aux)

    with _cores(2), pytest.MonkeyPatch.context() as mp:
        mp.setattr(A, "_drlpn_rows", recording)
        return A.double_rlpn_exponent(0.42), rows


@pytest.fixture(scope="module")
def drlpn_042(drlpn_042_run):
    return drlpn_042_run[0]


def test_prange_max_location():
    grid = np.arange(0.30, 0.601, 0.005)
    vals = [A.prange_exponent(r) for r in grid]
    best = int(np.argmax(vals))
    assert 0.118 <= vals[best] <= 0.123
    assert 0.43 <= grid[best] <= 0.48
    assert abs(A.prange_exponent(0.455) - 0.120702) < 1e-5


def test_prange_frozen_endpoints():
    assert abs(A.prange_exponent(0.02) - 0.015776) < 1e-5
    assert abs(A.prange_exponent(0.98) - 0.010910) < 1e-5


def _prange_closed_form(R):
    # reference for prange_exponent: (1 - R) h2(tau / (1 - R)) written out
    tau = h2_inv(1.0 - R)
    return h2(tau) - (1.0 - R) * h2(tau / (1.0 - R))


def test_prange_matches_closed_form_bitwise():
    for R in np.linspace(0.0005, 0.9995, 2000).tolist():
        assert A.prange_exponent(R).hex() == _prange_closed_form(R).hex(), R


def test_prange_domain():
    for r in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            A.prange_exponent(r)


def test_dumer_zero_distance_is_free():
    alpha, beta, nu_sol, arg = A.dumer_exponent(0.3, 0.0)
    assert alpha == 0.0 and beta == 0.0 and nu_sol == 0.0


def test_dumer_frozen_half_rate():
    alpha, beta, nu_sol, arg = A.dumer_exponent(0.5, h2_inv(0.5))
    assert abs(alpha - 0.115157) < 2e-4
    assert abs(beta - 0.035654) < 2e-4
    assert nu_sol <= 1e-9


def test_dumer_argmin_recomputes():
    # the returned (lam, omega') must reproduce alpha through the cost
    # formula: permutations + max(list size, filtered merge)
    for R, tau in [(0.5, h2_inv(0.5)), (0.2, h2_inv(0.8)), (0.8, 0.02)]:
        alpha, beta, _, arg = A.dumer_exponent(R, tau)
        lam, wp = arg["lam"], arg["omega_prime"]
        perms = h2(tau) - A._ch2(R + lam, wp) - A._ch2(1.0 - R - lam, tau - wp)
        lists = A._ch2((R + lam) / 2.0, wp / 2.0)
        assert abs(beta - lists) < 1e-9
        assert abs(alpha - (perms + max(lists, 2.0 * lists - lam))) < 1e-9
        assert beta <= alpha + 1e-12


def test_linspace_matches_numpy_bitwise():
    def one(lo, hi, num):
        return A._linspace(np.array([lo]), np.array([hi]), num)[0]

    rng = np.random.default_rng(4)
    for _ in range(200):
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
        num = int(rng.integers(2, 130))
        assert one(lo, hi, num).tobytes() == np.linspace(lo, hi, num).tobytes()
        assert one(lo, lo, num).tobytes() == np.linspace(lo, lo, num).tobytes()
    # a span so small that the step underflows to zero
    assert one(0.0, 5e-324, 65).tobytes() == np.linspace(0.0, 5e-324, 65).tobytes()
    los = np.array([0.0, 0.1, 0.3, 0.0])
    his = np.array([0.5, 0.1, 0.9, 5e-324])
    for row, lo, hi in zip(A._linspace(los, his, 33), los, his):
        assert row.tobytes() == np.linspace(lo, hi, 33).tobytes()


def test_dumer_grids_problems_do_not_interact():
    # rows of cost, lam and s; at tau = 0 every cell costs 0 and (0, 0) wins
    probs = [(0.5, 0.11), (0.3, 0.0), (0.2, 0.25), (0.7, 0.05), (1e-9, 0.3)]
    together = np.array(A._dumer_grids(probs, levels=3, pts=33))
    alone = np.hstack([A._dumer_grids([p], levels=3, pts=33) for p in probs])
    assert together.tobytes() == alone.tobytes()
    assert together[0].tolist() == [_dumer_scalar(*p) for p in probs]
    assert together[:, 1].tolist() == [0.0, 0.0, 0.0]


def _kappa_many(t, omega):
    # kappa_tilde over the grid t in [0, 1/2], as the optimizer evaluates it
    if omega == 0:
        return np.zeros_like(t)
    return A._kappa_grid(t, omega, h2(omega), _omega_perp(omega), A._h2v(t))


def _candidate_full_scan(R, sigma, tau, mu, omega_bar, tau_bar):
    # reference for _candidate_exponent: the same zoom, scanning every cell
    d1 = min((tau - mu) / sigma, 1.0)
    d2 = min(mu / (1.0 - sigma), 1.0)
    anchor = sigma * kappa_tilde(d1, tau_bar) + (1.0 - sigma) * kappa_tilde(d2, omega_bar)
    zg = eg = np.linspace(0.0, 0.5, 129)
    best = 0.0
    for _ in range(2):
        ka = sigma * _kappa_many(zg, tau_bar)
        kb = (1.0 - sigma) * _kappa_many(eg, omega_bar)
        obj = sigma * A._h2v(zg)[:, None] + (1.0 - sigma) * A._h2v(eg)[None, :] - (1.0 - R)
        mask = ka[:, None] + kb[None, :] >= anchor - 1e-12
        if not mask.any():
            break
        vals = np.where(mask, obj, -np.inf)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = max(best, float(vals[i, j]))
        sz = (zg[-1] - zg[0]) / (len(zg) - 1)
        se = (eg[-1] - eg[0]) / (len(eg) - 1)
        cz, ce = float(zg[i]), float(eg[j])
        zg = np.linspace(max(0.0, cz - 2 * sz), min(0.5, cz + 2 * sz), 33)
        eg = np.linspace(max(0.0, ce - 2 * se), min(0.5, ce + 2 * se), 33)
    return max(best, 0.0)


def _candidate_inputs(problems):
    # the batched scan's arguments for (R, sigma, tau, mu, omega_bar, tau_bar)
    # problems sharing R
    sig, anchor, om, h_om, perp = [], [], [], [], []
    for R, sigma, tau, mu, omega_bar, tau_bar in problems:
        d1 = min((tau - mu) / sigma, 1.0)
        d2 = min(mu / (1.0 - sigma), 1.0)
        sig.append(sigma)
        anchor.append(sigma * kappa_tilde(d1, tau_bar) + (1.0 - sigma) * kappa_tilde(d2, omega_bar))
        om.append((tau_bar, omega_bar))
        h_om.append((h2(tau_bar), h2(omega_bar)))
        perp.append((_omega_perp(tau_bar), _omega_perp(omega_bar)))
    return problems[0][0], np.array(sig), np.array(anchor), np.array(om), np.array(h_om), np.array(perp)


def test_candidate_scan_matches_full_grid():
    # scanning each row's admissible prefix of sorted columns, many
    # problems at once, must give the bits of the full scan of each alone
    rng = np.random.default_rng(11)
    for batch in range(30):
        R = rng.uniform(0.05, 0.95)
        tau = h2_inv(1.0 - R)
        problems = []
        for i in range(10):
            checked = 10 * batch + i
            sigma = R * rng.uniform(0.05, 1.0)
            mu = rng.uniform(max(0.0, tau - sigma), min(tau, 1.0 - sigma))
            omega_bar = rng.uniform(0.0, 0.5) if checked % 10 else 0.0
            tau_bar = rng.uniform(0.0, 0.5) if checked % 7 else 0.0
            problems.append((R, sigma, tau, mu, omega_bar, tau_bar))
        got = A._candidate_exponent(*_candidate_inputs(problems))
        assert got.tolist() == [_candidate_full_scan(*p) for p in problems], problems


def _random_candidate_problems(rng, R, count):
    # (R, sigma, tau, mu, omega_bar, tau_bar) at the GV distance of R
    tau = h2_inv(1.0 - R)
    problems = []
    for _ in range(count):
        sigma = R * rng.uniform(0.05, 1.0)
        mu = rng.uniform(max(0.0, tau - sigma), min(tau, 1.0 - sigma))
        problems.append((R, sigma, tau, mu, rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)))
    return problems


def test_candidate_scan_without_admissible_cells():
    # an anchor above every cell's kappa sum leaves a problem no admissible
    # cell and the value 0, alone or beside problems that have some
    problems = _random_candidate_problems(np.random.default_rng(3), 0.9, 10)
    R, sig, anchor, om, h_om, perp = _candidate_inputs(problems)
    live = A._candidate_exponent(R, sig, anchor, om, h_om, perp)
    assert live.tolist() == [_candidate_full_scan(*p) for p in problems]
    assert (live[::2] > 0.0).sum() >= 2 and (live[1::2] > 0.0).sum() >= 2
    dead = A._candidate_exponent(R, sig, anchor + 2.0, om, h_om, perp)
    assert dead.tobytes() == np.zeros(10).tobytes()
    odd = np.arange(10) % 2 == 1
    mixed = A._candidate_exponent(R, sig, np.where(odd, anchor, anchor + 2.0), om, h_om, perp)
    assert mixed.tobytes() == np.where(odd, live, 0.0).tobytes()


def _anchor(sigma, tau, mu, omega_bar, tau_bar):
    # the planted cell's kappa sum, as _candidate_full_scan computes it
    d1 = min((tau - mu) / sigma, 1.0)
    d2 = min(mu / (1.0 - sigma), 1.0)
    return sigma * kappa_tilde(d1, tau_bar) + (1.0 - sigma) * kappa_tilde(d2, omega_bar)


def test_candidate_scan_anchor_at_the_best_cell():
    # a cell is admissible iff its kappa sum reaches anchor - 1e-12.  Take
    # the best level-0 cell at some anchor, and move the anchor (by
    # bisecting tau, which it falls with) onto that cell's kappa sum and
    # onto the sum plus 1e-12, where the last bit decides admissibility
    rng = np.random.default_rng(17)
    R, grid = 0.42, np.linspace(0.0, 0.5, 129)
    h = A._h2v(grid)
    problems, gaps, edge = [], [], []
    while len(problems) < 48:
        sigma = R * rng.uniform(0.2, 1.0)
        mu = (1.0 - sigma) * rng.uniform(0.0, 0.3)
        omega_bar, tau_bar = rng.uniform(0.01, 0.5, 2)
        kappa = sigma * _kappa_many(grid, tau_bar)[:, None] + (1.0 - sigma) * _kappa_many(grid, omega_bar)[None, :]
        start = _anchor(sigma, mu + sigma * rng.uniform(0.0, 0.5), mu, omega_bar, tau_bar)
        vals = np.where(kappa >= start - 1e-12, sigma * h[:, None] + (1.0 - sigma) * h[None, :], -np.inf)
        best = kappa.flat[np.argmax(vals)]
        # the anchor at or above the cell's sum, then the cell inadmissible
        for on_edge, above in enumerate((lambda x: x >= best, lambda x: x - 1e-12 > best)):
            at = partial(_anchor, sigma, mu=mu, omega_bar=omega_bar, tau_bar=tau_bar)
            lo, hi = mu, mu + sigma / 2.0
            if not above(at(lo)) or above(at(hi)):
                continue
            while lo < (lo + hi) / 2.0 < hi:
                mid = (lo + hi) / 2.0
                lo, hi = (mid, hi) if above(at(mid)) else (lo, mid)
            for side, tau in enumerate((lo, hi)):
                anchor = at(tau)
                problems.append((R, sigma, tau, mu, omega_bar, tau_bar))
                gaps.append(anchor - best)
                edge.append((on_edge, side, bool(best >= anchor - 1e-12)))
    assert max(abs(g) for g in gaps) < 1e-12 + 1e-14
    # the cell is admissible at its own kappa sum, and each edge pair
    # falls on both sides of the test
    assert {(on_edge, side) for on_edge, side, _ in edge} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(admissible == (not on_edge or side == 1) for on_edge, side, admissible in edge)
    got = A._candidate_exponent(*_candidate_inputs(problems))
    assert got.tolist() == [_candidate_full_scan(*p) for p in problems]
    alone = [A._candidate_exponent(*_candidate_inputs([p])) for p in problems]
    assert got.tobytes() == np.concatenate(alone).tobytes()


def test_candidate_scan_on_recorded_rows(drlpn_042_run):
    # objective rows this process evaluated for double_rlpn_exponent(0.42):
    # batches of 40 and 4 carry the bits of each row alone, and of the
    # full scan
    R, tau = 0.42, h2_inv(1.0 - 0.42)
    rows = sorted(set(drlpn_042_run[1]))[::18][:400]
    assert len(rows) == 400
    problems = [(R, sigma, tau, mu, omega / (1.0 - sigma), tau_aux / sigma)
                for sigma, R_aux, tau_aux, omega, mu in rows]
    got = {size: np.concatenate([A._candidate_exponent(*_candidate_inputs(problems[i : i + size]))
                                 for i in range(0, len(problems), size)])
           for size in (1, 4, 40)}
    assert got[40].tobytes() == got[4].tobytes() == got[1].tobytes()
    assert got[1].tolist() == [_candidate_full_scan(*p) for p in problems]


def test_split_cuts(monkeypatch):
    # the worker runs 12 of the 24 cells, then 4 of the 8 refinements;
    # this process runs the other 12 cells, the other 4 refinements, then
    # both drill-downs.  Only the cells carry fixed (sigma, R_aux)
    # coordinates
    ran = []

    def chains(R, tau, N_aux, specs):
        # every chain ends where it starts, a 4-d one at a feasible row so
        # that the drill-downs run
        ran.append(({len(spec[5]) for spec in specs}, [spec[1] for spec in specs]))
        return [(spec[0] if len(spec[5]) else np.vstack([_ARGMIN_042, spec[0][1:]]), np.zeros(len(spec[0])), 0)
                for spec in specs]

    class Pool:
        submitted = []

        def submit(self, fn, jobs):
            self.submitted.append([spec[1] for spec in jobs])
            done = fn(jobs)
            return SimpleNamespace(result=lambda: done)

    monkeypatch.setattr(A, "_run_chains", chains)
    monkeypatch.setattr(A, "_worker", lambda: nullcontext(Pool()))
    A.double_rlpn_exponent(0.42)
    assert Pool.submitted == [[110] * 12, [1400] * 4]
    assert ran[:4] == [({2}, [110] * 12), ({2}, [110] * 12), ({0}, [1400] * 4), ({0}, [1400] * 4)]
    assert ran[4:] == [({0}, [800])] * 2


def test_dumer_never_above_prange():
    for R in np.arange(0.05, 0.951, 0.05):
        tau = h2_inv(1.0 - R)
        assert A.dumer_exponent(R, tau)[0] <= A.prange_exponent(R) + 1e-9


def test_dumer_solution_count():
    # below GV the expected solution count is O(1); above it grows
    assert A.dumer_exponent(0.5, 0.05)[2] == 0.0
    nu = A.dumer_exponent(0.5, 0.2)[2]
    assert abs(nu - (h2(0.2) - 0.5)) < 1e-12


def test_dumer_domain():
    with pytest.raises(DomainError):
        A.dumer_exponent(0.0, 0.1)
    with pytest.raises(DomainError):
        A.dumer_exponent(0.5, 0.6)
    with pytest.raises(DomainError):
        A.dumer_exponent(0.5, -0.01)


@given(st.floats(0.05, 0.95), st.floats(0.0, 1.0))
@example(R=0.5, frac=2.22e-16)
@settings(max_examples=40, deadline=None)
def test_dumer_cost_sane(R, frac):
    tau = frac * h2_inv(1.0 - R)
    alpha, beta, nu_sol, _ = A.dumer_exponent(R, tau)
    assert 0.0 <= alpha <= 1.0
    assert 0.0 <= beta <= alpha + 1e-12
    assert nu_sol <= 1e-9


def test_bjmm_zero_weight():
    assert A.bjmm_eq_exponent(0.3, 0.0) == 0.0


def test_bjmm_infeasible_weight():
    # weight above what the redundancy supports: no split survives
    assert math.isinf(A.bjmm_eq_exponent(0.1, 0.3))


def test_bjmm_frozen_values():
    assert abs(A.bjmm_eq_exponent(0.3, 0.05) - 0.08697) < 2e-4
    want = [0.03443, 0.09029, 0.13439, 0.17717, 0.22677]
    for r, w in zip([0.1, 0.3, 0.5, 0.7, 0.9], want):
        assert abs(A.bjmm_eq_exponent(r, h2_inv(r)) - w) < 2e-4


def test_bjmm_domain():
    with pytest.raises(DomainError):
        A.bjmm_eq_exponent(-0.1, 0.1)
    with pytest.raises(DomainError):
        A.bjmm_eq_exponent(0.5, 1.1)


def test_bjmm_output_floor():
    # the merge tree cannot emit its output list faster than it writes it
    rng = np.random.default_rng(7)
    for _ in range(25):
        rp = rng.uniform(0.15, 0.9)
        om = rng.uniform(0.005, 0.25)
        g = A.bjmm_eq_exponent(rp, om)
        if math.isinf(g):
            continue
        assert g >= h2(om) - rp - 1e-9
        assert g >= 0.0


def test_bjmm_monotone_in_syndrome_length():
    assert A.bjmm_eq_exponent(0.5, 0.1) <= A.bjmm_eq_exponent(0.3, 0.1) + 1e-12


def test_drlpn_frozen_point(drlpn_point):
    pt = drlpn_point
    assert pt.feasible
    assert pt.algorithm == "double-rlpn"
    assert max(pt.constraint_residuals) <= 1e-9
    assert abs(pt.alpha - 0.065384) < 5e-5
    assert pt.alpha < A.dumer_exponent(0.2, pt.tau)[0]
    assert abs(pt.tau - h2_inv(0.8)) < 1e-12


def test_drlpn_objective_roundtrip(drlpn_point):
    pt = drlpn_point
    alpha, residuals = A.double_rlpn_objective(0.2, None, pt.argmin)
    assert alpha == pt.alpha
    assert len(residuals) == len(A.RESIDUAL_LABELS)
    assert max(residuals) <= 1e-9


def test_drlpn_objective_certifies_upper_bound(drlpn_point):
    # a hand-built point with no bet (mu = tau) and mid-rate auxiliary
    # code is feasible but pays more than the optimized parameters
    tau = h2_inv(0.8)
    params = A.AsymParams(
        sigma=0.2,
        R_aux=0.12,
        tau_aux=A._gv_tau_aux(0.2, 0.12),
        omega=0.016,
        mu=tau,
    )
    alpha, residuals = A.double_rlpn_objective(0.2, tau, params)
    assert max(residuals) <= 1e-9
    assert alpha > drlpn_point.alpha


def test_drlpn_objective_domain():
    tau = h2_inv(0.8)
    good = A.AsymParams(0.2, 0.12, 0.015, 0.016, tau)
    with pytest.raises(DomainError):
        A.double_rlpn_objective(1.2, tau, good)
    with pytest.raises(DomainError):
        A.double_rlpn_objective(0.2, 0.7, good)
    with pytest.raises(DomainError):
        A.double_rlpn_objective(0.2, tau, A.AsymParams(0.0, 0.1, 0.01, 0.01, tau))
    with pytest.raises(DomainError):
        A.double_rlpn_objective(0.2, tau, A.AsymParams(0.2, 0.3, 0.01, 0.01, tau))
    with pytest.raises(DomainError):
        A.double_rlpn_objective(0.2, tau, A.AsymParams(0.2, 0.12, 0.01, 0.6, tau))
    with pytest.raises(DomainError):
        A.double_rlpn_objective(0.2, tau, A.AsymParams(0.2, 0.12, 0.01, 0.01, 0.5))
    with pytest.raises(DomainError):
        A.double_rlpn_objective(0.2, 0.45, A.AsymParams(0.2, 0.12, 0.01, 0.01, 0.0))
    with pytest.raises(DomainError):
        A.double_rlpn_objective(0.2, tau, A.AsymParams(0.2, 0.12, 0.15, 0.01, tau))


def test_drlpn_exponent_domain():
    with pytest.raises(DomainError):
        A.double_rlpn_exponent(0.0)
    with pytest.raises(DomainError):
        A.double_rlpn_exponent(0.2, N_aux=0)


def test_drlpn_small_at_rate_extremes(extremes):
    lo, hi = extremes
    assert lo.feasible and lo.alpha <= 0.03
    assert hi.feasible and hi.alpha <= 0.012
    assert hi.alpha < A.prange_exponent(0.98)


def test_split_matches_in_process(drlpn_point, extremes, drlpn_042):
    # every point of the forked two-process split equals the in-process
    # run field for field
    with _cores(2):
        assert _forks_here()
    split = [*extremes, drlpn_point, drlpn_042]
    assert multiprocessing.active_children() == []
    with _cores(1):
        alone = [A.double_rlpn_exponent(r) for r in (0.02, 0.98, 0.2, 0.42)]
    assert split == alone
    assert [repr(p) for p in split] == [repr(p) for p in alone]


def test_curve_point_is_independent_of_grid(drlpn_042):
    # a curve's double-RLPN point is the direct call at its rate, whatever
    # rate comes before it
    pts = A.exponent_curve(["double-rlpn"], [0.44, 0.42])
    assert [p.R for p in pts] == [0.44, 0.42]
    assert pts[1] == drlpn_042
    assert repr(pts[1]) == repr(drlpn_042)
    # the point at 0.44 beats 0.0958359, the 64-start seeded search's at
    # seed 0; refining only the best 4 cells gives 0.0959518
    assert pts[0].feasible and pts[0].alpha < 0.0958359


@pytest.mark.parametrize("where", ["both", "worker"])
def test_split_leaves_no_process_when_objective_raises(monkeypatch, where):
    # the fork carries the patched objective into the worker; its error,
    # or the caller's own, reaches the caller and the worker is joined
    caller = os.getpid()

    def failing(*args):
        if where == "both" or os.getpid() != caller:
            raise FloatingPointError("objective failed")
        return rows(*args)

    rows = A._drlpn_rows
    monkeypatch.setattr(A, "_cores", lambda: 2)
    monkeypatch.setattr(A, "_drlpn_rows", failing)
    with pytest.raises(FloatingPointError, match="objective failed"):
        A.double_rlpn_exponent(0.42)
    assert multiprocessing.active_children() == []


def test_split_stays_in_process_beside_threads_and_in_daemons(monkeypatch):
    # a fork would copy another thread's locks, and a daemonic process
    # may not have children: both run every chain in-process
    monkeypatch.setattr(A, "_cores", lambda: 2)
    assert _forks_here()
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert not _forks_here()
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_forks_here) is False
    assert multiprocessing.active_children() == []


def test_exponent_curve_baselines():
    pts = A.exponent_curve(("prange", "dumer", "bjmm-eq"), [0.3, 0.5])
    assert len(pts) == 6
    assert [p.algorithm for p in pts] == ["prange"] * 2 + ["dumer"] * 2 + ["bjmm-eq"] * 2
    for p in pts[:4]:
        assert abs(p.tau - h2_inv(1.0 - p.R)) < 1e-12
        assert p.argmin is None and p.feasible and p.constraint_residuals == []
    for p in pts[4:]:
        assert abs(p.tau - h2_inv(p.R)) < 1e-12
    assert pts[2].alpha <= pts[0].alpha
    assert pts[3].alpha <= pts[1].alpha


def test_exponent_curve_validates():
    with pytest.raises(DomainError):
        A.exponent_curve(("prange", "stern"), [0.3])
    with pytest.raises(DomainError):
        A.exponent_curve(("prange",), [0.0])


def test_drlpn_curve_continuity():
    pts = A.exponent_curve(("double-rlpn",), [0.10, 0.12, 0.14])
    assert all(p.feasible for p in pts)
    assert all(max(p.constraint_residuals) <= 1e-9 for p in pts)
    alphas = [p.alpha for p in pts]
    assert alphas == sorted(alphas)
    for a, b in zip(alphas, alphas[1:]):
        assert b - a <= 0.01
    for p in pts:
        alpha, residuals = A.double_rlpn_objective(p.R, p.tau, p.argmin)
        assert alpha == p.alpha


def _bjmm_scalar(lam, omega, levels=3, pts=65):
    # reference for _bjmm_min: the one-problem zoom over (a, b)
    if omega <= 0.0:
        return 0.0
    a_win = b_win = (0.0, 1.0)
    best = math.inf
    for _ in range(levels):
        a = np.linspace(a_win[0], a_win[1], pts)[:, None]
        b = np.linspace(b_win[0], b_win[1], pts)[None, :]
        pi2 = omega / 2.0 * (1.0 + a)
        pi1 = pi2 / 2.0 * (1.0 + b)
        lam1 = pi2 + (1.0 - pi2) * A._h2v((pi1 - pi2 / 2.0) / (1.0 - pi2))
        lam2 = omega + (1.0 - omega) * A._h2v((pi2 - omega / 2.0) / (1.0 - omega))
        h1 = A._h2v(pi1)
        nu1 = h1 - lam1
        nu2 = A._h2v(pi2) - lam2
        g = np.maximum(h1 / 2.0, nu1)
        g = np.maximum(g, np.maximum(nu1, 2 * nu1 - (lam2 - lam1)))
        g = np.maximum(g, np.maximum(nu2, 2 * nu2 - (lam - lam2)))
        feas = (lam1 <= lam2 + 1e-12) & (lam2 <= lam + 1e-12) & np.isfinite(g)
        g = np.where(feas, g, math.inf)
        i, j = np.unravel_index(np.argmin(g), g.shape)
        if not np.isfinite(g[i, j]):
            return best
        best = min(best, float(g[i, j]))
        sa = (a_win[1] - a_win[0]) / (pts - 1)
        sb = (b_win[1] - b_win[0]) / (pts - 1)
        ca, cb = float(a[i, 0]), float(b[0, j])
        a_win = (max(0.0, ca - 2.5 * sa), min(1.0, ca + 2.5 * sa))
        b_win = (max(0.0, cb - 2.5 * sb), min(1.0, cb + 2.5 * sb))
    return best


def test_bjmm_min_problems_do_not_interact():
    # problems searched together carry the bits of each searched alone and
    # of the one-problem reference, which stops a problem at its first
    # level without a feasible cell: omega = 0, problems with no feasible
    # cell at level 0 (omega > lam, as at (0.1, 0.3)), and a batch where
    # every problem is infeasible, which ends the zoom after one level
    rng = np.random.default_rng(41)
    lam = rng.uniform(0.0, 1.0, 210)
    omega = rng.uniform(0.0, 0.6, 210)
    omega[::17] = 0.0
    lam[5::23] = rng.uniform(0.0, 0.05, lam[5::23].size)
    lam[0], omega[0] = 0.1, 0.3
    infeasible = [(0.1, 0.3), (0.0, 0.2), (0.05, 0.5)]
    for pts in (33, 65):
        want = [_bjmm_scalar(a, b, pts=pts) for a, b in zip(lam, omega)]
        assert sum(map(math.isinf, want)) >= 20 and want.count(0.0) >= 10
        assert A._bjmm_min(lam, omega, pts=pts).tolist() == want
        alone = [A._bjmm_min(lam[i:i + 1], omega[i:i + 1], pts=pts)[0] for i in range(lam.size)]
        assert alone == want
        levels, linspace = [], A._linspace
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(A, "_linspace", lambda *args: levels.append(1) or linspace(*args))
            got = A._bjmm_min(*np.array(infeasible).T, pts=pts)
        assert got.tolist() == [_bjmm_scalar(a, b, pts=pts) for a, b in infeasible] == [math.inf] * 3
        assert len(levels) == 1


def _ch2v_reference(c, x):
    # c h2(x/c), 0 where x/c leaves (0, 1), as one expression
    m = (c > 1e-15) & (x > 0.0) & (x < c)
    r = np.divide(x, c, out=np.full(m.shape, 0.5), where=m)
    return np.where(m, c * (-r * np.log2(r) - (1.0 - r) * np.log2(1.0 - r)), 0.0)


def test_ch2v_matches_reference_bitwise():
    # cells on and past the edges of (0, 1) included: x = 0, x = c, c = 0
    rng = np.random.default_rng(2)
    c = rng.uniform(-0.1, 1.0, (50, 33, 1))
    x = rng.uniform(-0.1, 1.0, (50, 33, 33))
    c[0, :4, 0] = 0.0
    x[1, :, :5] = 0.0
    x[2] = np.broadcast_to(c[2], (33, 33))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert A._ch2v(c, x).tobytes() == _ch2v_reference(c, x).tobytes()


def _dumer_scalar(R, tau, levels=3, pts=33):
    # reference for the cost of _dumer_grids: one problem's zoom over
    # (lam, s), with s the position of omega' inside its box
    if tau <= 0.0:
        return 0.0
    lam_win, s_win = (0.0, 1.0 - R), (0.0, 1.0)
    best = math.inf
    for _ in range(levels):
        lam = np.linspace(lam_win[0], lam_win[1], pts)[:, None]
        s = np.linspace(s_win[0], s_win[1], pts)[None, :]
        rl = R + lam
        wlo = np.maximum(rl + tau - 1.0, 0.0)
        whi = np.minimum(tau, rl)
        wp = wlo + s * np.maximum(whi - wlo, 0.0)
        half = _ch2v_reference(rl, wp) / 2.0
        pi = h2(tau) - _ch2v_reference(1.0 - R - lam, tau - wp) - 2.0 * half
        cost = np.where(whi + 1e-15 < wlo, math.inf, pi + np.maximum(half, 2.0 * half - lam))
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        best = min(best, float(cost[i, j]))
        sl = (lam_win[1] - lam_win[0]) / (pts - 1)
        ss = (s_win[1] - s_win[0]) / (pts - 1)
        cl, cs = float(lam[i, 0]), float(s[0, j])
        lam_win = (max(0.0, cl - 2.5 * sl), min(1.0 - R, cl + 2.5 * sl))
        s_win = (max(0.0, cs - 2.5 * ss), min(1.0, cs + 2.5 * ss))
    return max(best, 0.0)


def _drlpn_terms(R, tau, sigma, R_aux, tau_aux, omega, mu, N_aux, dumer=_dumer_scalar):
    # reference for the terms of _drlpn_rows at one parameter row, every
    # kappa value, grid search and sum taken on its own: pi, the terms of
    # alpha's max with the ISD term last, and the residuals.  dumer(R', tau')
    # is the cost of each inner Dumer search
    omega_bar = omega / (1.0 - sigma)
    tau_bar = tau_aux / sigma
    d1 = min((tau - mu) / sigma, 1.0)
    d2 = min(mu / (1.0 - sigma), 1.0)
    pi = h2(tau) - A._ch2(sigma, tau - mu) - A._ch2(1.0 - sigma, mu)
    Rp = (R - sigma) / (1.0 - sigma)
    eq = (1.0 - sigma) * min(_bjmm_scalar(Rp, omega_bar, pts=33), h2(omega_bar))
    nu_samples = A._ch2(1.0 - sigma, omega) + A._ch2(sigma, tau_aux) - (R - R_aux)
    eps_bias = sigma * (kappa_tilde(d1, tau_bar) - h2(tau_bar)) + (1.0 - sigma) * (
        kappa_tilde(d2, omega_bar) - h2(omega_bar)
    )
    nu_cand = _candidate_full_scan(R, sigma, tau, mu, omega_bar, tau_bar)
    isd_a = sigma * dumer(max(1.0 - N_aux * R_aux / sigma, 0.0), min(d1, 0.5))
    nu_isd = max(A._ch2(sigma, tau - mu) - N_aux * R_aux, 0.0)
    isd_b = nu_isd + (1.0 - sigma) * dumer(max(Rp, 0.0), min(d2, 0.5))
    terms = [eq, nu_samples, R_aux, N_aux * nu_cand + max(isd_a, isd_b)]
    residuals = [
        sigma - R,
        (tau - sigma) - mu,
        mu - tau,
        omega - (1.0 - sigma),
        -sigma,
        -R_aux,
        -tau_aux,
        -omega,
        -mu,
        (-2.0 * eps_bias) - nu_samples,
        (A._ch2(1.0 - sigma, omega) + A._ch2(sigma, tau_aux)) - R,
        A._ch2(sigma, tau_aux) - (sigma - R_aux),
    ]
    return pi, terms, residuals


def _drlpn_scalar(R, tau, *row):
    # reference for _drlpn_rows: alpha and residuals of one parameter row
    pi, terms, residuals = _drlpn_terms(R, tau, *row)
    return pi + max(terms), residuals


def _dumer_cap(Rp, taup):
    # the skip's bound on a Dumer search: Prange's cost plus the rounding
    return A._prange_cost(Rp, taup) + 1e-9


def _skip_margin(R, tau, row, N_aux):
    # the ISD term with both Dumer searches at their cap, minus the largest
    # other term: _drlpn_rows runs the Dumer grids for a row iff this is
    # not negative
    _, terms, _ = _drlpn_terms(R, tau, *row, N_aux, dumer=_dumer_cap)
    return terms[3] - max(terms[:3])


# a frozen (sigma, R_aux, omega, mu) row near the double-RLPN optimum at
# R = 0.42, where the ISD term is below the others; no search returns it
_ARGMIN_042 = np.array([0.2701094808311346, 0.0882999450378294, 0.04337759867749123, 0.11494171650930196])


def _skip_edge_rows():
    # rows on both sides of the Dumer skip at R = 0.42: the frozen argmin,
    # where the ISD term is below the others, moved by bisection along
    # each direction to where its cap meets them.  The directions are ones
    # along which the margin has no jump there: moving sigma or omega
    # alone, it jumps across zero by 1e-5 or more
    R = 0.42
    tau = h2_inv(1.0 - R)
    margin = lambda x: _skip_margin(R, tau, A._clip_box(x, R, tau), 1)  # noqa: E731
    rows = []
    for step in ([0, -0.01, 0, 0], [0, 0, 0, -0.01], [-0.01, -0.01, 0, 0], [0, -0.01, -0.005, 0],
                 [0, 0, -0.005, -0.005], [-0.01, 0, 0, -0.005], [0.01, -0.02, 0, 0]):
        lo, hi = _ARGMIN_042, _ARGMIN_042 + np.array(step)
        assert margin(lo) < 0.0 <= margin(hi), step
        for _ in range(40):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if margin(mid) < 0.0 else (lo, mid)
        rows += [A._clip_box(lo, R, tau), A._clip_box(hi, R, tau)]
    return R, tau, rows


def test_batched_objective_matches_scalar_reference():
    # rows evaluated together must carry the bits of each row alone,
    # including omega = 0, BJMM searches with no feasible cell and the
    # d1 > 1/2 region the optimizer's guard penalizes
    rng = np.random.default_rng(23)
    seen = {"omega0": 0, "bjmm_inf": 0, "d1_high": 0}
    checked = 0
    for batch, size in enumerate([1, 2, 3, 7, 16, 40] * 6):
        R = rng.uniform(0.05, 0.95)
        tau = h2_inv(1.0 - R) if batch % 3 else rng.uniform(0.0, 0.5)
        N_aux = 1 + batch % 2
        rows = []
        for i in range(size):
            k = checked + i
            sigma = R * (rng.uniform(0.9, 1.0) if k % 5 == 0 else rng.uniform(0.02, 1.0))
            R_aux = sigma * rng.uniform(1e-3, 1.0)
            tau_aux = A._gv_tau_aux(sigma, R_aux) if k % 4 else sigma / 2.0 * rng.uniform()
            omega = 0.0 if k % 6 == 0 else (1.0 - sigma) / 2.0 * rng.uniform()
            lo, hi = max(0.0, tau - sigma), min(tau, 1.0 - sigma)
            mu = lo if k % 8 == 0 else rng.uniform(lo, hi)
            rows.append((sigma, R_aux, tau_aux, omega, mu))
            seen["omega0"] += omega == 0.0
            seen["d1_high"] += (tau - mu) / sigma > 0.5
            seen["bjmm_inf"] += math.isinf(_bjmm_scalar((R - sigma) / (1.0 - sigma), omega / (1.0 - sigma), pts=33))
        got = A._drlpn_rows(R, tau, rows, N_aux)
        for row, (alpha, residuals) in zip(rows, got):
            want = _drlpn_scalar(R, tau, *row, N_aux)
            assert (alpha, residuals) == want, (R, tau, row, N_aux)
        checked += size
    assert checked >= 300
    assert min(seen.values()) >= 10, seen
    # rows within 1e-6 of the skip, on both sides, alone and together
    R, tau, rows = _skip_edge_rows()
    margins = [_skip_margin(R, tau, row, 1) for row in rows]
    assert [m < 0.0 for m in margins] == [True, False] * 7
    assert max(map(abs, margins)) < 1e-6, margins
    want = [_drlpn_scalar(R, tau, *row, 1) for row in rows]
    assert A._drlpn_rows(R, tau, rows, 1) == want
    assert [A._drlpn_rows(R, tau, [row], 1)[0] for row in rows] == want


def test_dumer_cap_bounds_the_grids():
    # the skip's bound is never below the search it stands for: random
    # problems, tau' = 0, R' = 0 (N_aux R_aux >= sigma), omega' > 0 at
    # lam = 0 (tau' > 1 - R'), tau' = 1/2 and R' near 1.  Prange's cost is
    # the search's own cell (lam, s) = (0, 0), up to rounding
    rng = np.random.default_rng(31)
    probs = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)) for _ in range(300)]
    probs += [(0.3, 0.0), (0.0, 0.0), (0.0, 0.11), (0.0, 0.5), (0.7, 0.4), (0.9, 0.2), (0.6, 0.5),
              (0.5, 0.5), (1.0, 0.3), (1.0 - 1e-12, 0.25), (1e-12, 1e-12)]
    assert sum(r + t > 1.0 for r, t in probs) >= 20
    got = A._dumer_grids(probs, levels=3, pts=33)[0]
    corner = np.zeros(1)
    for (r, t), cost in zip(probs, got.tolist()):
        assert cost <= _dumer_cap(r, t), (r, t)
        cell = A._dumer_cells(r, t, h2(t), corner, corner)[0].item()
        assert abs(A._prange_cost(r, t) - cell) <= 1e-12, (r, t)
    assert _dumer_cap(0.3, 0.0) == 1e-9


def test_dumer_grids_skipped_near_the_optimum(monkeypatch):
    # rows around the R = 0.42 argmin, as the drill-downs visit them: most
    # must skip the Dumer grids, alone and in batches, or the skip has
    # silently stopped working
    R = 0.42
    tau = h2_inv(1.0 - R)
    sent = []
    grids = A._dumer_grids

    def spy(problems, **kw):
        sent.append(len(problems))
        return grids(problems, **kw)

    monkeypatch.setattr(A, "_dumer_grids", spy)
    rng = np.random.default_rng(5)
    rows = [A._clip_box(_ARGMIN_042 * (1.0 + rng.uniform(-2e-3, 2e-3, 4)), R, tau) for _ in range(40)]
    A._drlpn_rows(R, tau, rows, 1)
    assert sum(sent) < 2 * len(rows)
    sent.clear()
    for row in rows[:10]:
        A._drlpn_rows(R, tau, [row], 1)
    assert sum(sent) < 2 * 10


def _rosen(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _plateaus(x):
    # flat steps: ties between vertices and frequent shrinks
    return float(np.floor(6.0 * np.abs(x - 0.3).sum()))


def _stairs(x):
    # steps wide against the simplex: an expansion often lands on the
    # reflection's step, a tie scipy settles for the reflection
    return float(np.floor(-20.0 * x[0]) + np.floor(5.0 * abs(x[1])))


def _constant(x):
    # every contraction fails, so every iteration shrinks: with n
    # coordinates, maxfev = n + 3 + j stops a shrink after j vertices
    return 1.0


def _batched(f):
    return lambda X, chain: np.array([f(x) for x in X])


def _run_nm(f, sim, maxfev, xatol, fatol, adaptive=False):
    # one chain per initial simplex of sim, all run in lockstep; returns
    # the final simplexes, their values and the evaluation counts
    ends = A._nelder_mead(f, [A._nelder_mead_chain(s, maxfev, xatol, fatol, adaptive) for s in sim])
    return [np.array(v) for v in zip(*ends)]


def _assert_same_runs(f, sim, ours, **options):
    # each chain of ours against scipy started from the same simplex: the
    # final simplex and its values, which fix x and fun, and nfev
    from scipy.optimize import minimize

    for i, (end, fend, nfev) in enumerate(zip(*ours)):
        r = minimize(f, sim[i, 0], method="Nelder-Mead", options=dict(options, initial_simplex=sim[i]))
        assert end.tobytes() == r.final_simplex[0].tobytes(), (i, options)
        assert fend.tobytes() == r.final_simplex[1].tobytes(), (i, options)
        assert (r.x.tobytes(), r.fun, r.nfev) == (end[0].tobytes(), fend.min(), nfev), (i, options)


def test_nelder_mead_matches_scipy():
    from scipy.optimize import minimize

    for f in (_rosen, _plateaus, _stairs, _constant):
        for n in (2, 4):
            x0 = np.random.default_rng([1, n]).normal(size=(3, n))
            x0[0, 1] = 0.0
            # the default simplex, which puts 0.00025 where x0 is 0
            for sim, x in zip(A._simplex(x0), x0):
                r = minimize(f, x, method="Nelder-Mead", options={"maxfev": n + 1})
                assert sorted(map(tuple, r.final_simplex[0])) == sorted(map(tuple, sim))
            for adaptive in (False, True):
                for maxfev in list(range(1, 3 * n + 8)) + [40, 200]:
                    sim = A._simplex(x0)
                    ours = _run_nm(_batched(f), sim, maxfev, 1e-8, 1e-10, adaptive)
                    _assert_same_runs(f, sim, ours, maxfev=maxfev, xatol=1e-8, fatol=1e-10, adaptive=adaptive)


def test_nelder_mead_matches_scipy_on_penalized_objective():
    # the optimizer's own phases: a 2-d cell search with (sigma, R_aux)
    # fixed, adaptive 4-d searches, and a drill-down from a small simplex
    R = 0.3
    tau = h2_inv(1.0 - R)
    x0 = np.array([[0.2, 0.1, 0.02, 0.06], [0.12, 0.05, 0.05, 0.08], [0.25, 0.2, 0.0, 0.04]])

    def scalar(x):
        return float(A._penalized(R, tau, 1, x[None])[0])

    sim = A._simplex(x0[:, 2:])
    ours = _run_nm(lambda Y, chain: A._penalized(R, tau, 1, np.hstack([x0[chain, :2], Y])), sim, 60, 1e-7, 1e-10)
    for i, fixed in enumerate(x0[:, :2]):
        cell = lambda y: scalar(np.concatenate([fixed, y]))  # noqa: E731
        _assert_same_runs(cell, sim[i : i + 1], [v[i : i + 1] for v in ours], maxfev=60, xatol=1e-7, fatol=1e-10)
    penalized = lambda X, chain: A._penalized(R, tau, 1, X)  # noqa: E731
    sim = A._simplex(x0)
    for maxfev in (7, 9, 50):
        ours = _run_nm(penalized, sim, maxfev, 1e-10, 1e-13, adaptive=True)
        _assert_same_runs(scalar, sim, ours, maxfev=maxfev, xatol=1e-10, fatol=1e-13, adaptive=True)
    sim = np.array([np.vstack([x] + [x + 1e-4 * e for e in np.eye(4)]) for x in x0])
    ours = _run_nm(penalized, sim, 40, 1e-11, 1e-14, adaptive=True)
    _assert_same_runs(scalar, sim, ours, maxfev=40, xatol=1e-11, fatol=1e-14, adaptive=True)


def test_nelder_mead_chains_do_not_interact():
    # chains stepped together end where each ends stepped alone
    rng = np.random.default_rng(9)
    for f in (_rosen, _plateaus):
        sim = A._simplex(rng.normal(size=(6, 4)))
        for adaptive in (False, True):
            together = _run_nm(_batched(f), sim, 150, 1e-8, 1e-10, adaptive)
            for i in range(len(sim)):
                alone = _run_nm(_batched(f), sim[i : i + 1], 150, 1e-8, 1e-10, adaptive)
                assert [v[i].tobytes() for v in together] == [v[0].tobytes() for v in alone]
    # chains with other options share the rounds
    other = A._simplex(np.ones((2, 4)))
    mixed = [A._nelder_mead_chain(s, 90, 1e-8, 1e-10, True) for s in sim]
    mixed += [A._nelder_mead_chain(s, 40, 1e-6, 1e-9, False) for s in other]
    ends = [np.array(v) for v in zip(*A._nelder_mead(_batched(_rosen), mixed))]
    alone = [np.concatenate(v) for v in zip(_run_nm(_batched(_rosen), sim, 90, 1e-8, 1e-10, True),
                                            _run_nm(_batched(_rosen), other, 40, 1e-6, 1e-9))]
    assert [v.tobytes() for v in ends] == [v.tobytes() for v in alone]
    assert A._nelder_mead(_batched(_rosen), []) == []


def test_cli_import_leaves_out_scipy_optimize():
    import subprocess
    import sys
    from pathlib import Path

    import dualattack

    src = str(Path(dualattack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # scipy.special loads on first use and the worker pool of the
    # exponent optimizer on its first exponent point; the program never
    # imports scipy.stats (test_cli runs a whole survival command
    # without it)
    heavy = ("scipy.optimize", "scipy.special", "scipy.stats", "multiprocessing", "concurrent.futures")
    probe = "import sys, dualattack.cli; print(sorted(set(%r) & set(sys.modules)))" % (heavy,)
    res = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_drill_down_starts_at_a_checked_feasible_end(monkeypatch):
    # each one-chain drill-down (maxfev 800) starts at the x of a chain end
    # that the point checked and found feasible: a phase-2 end or the
    # first drill-down's end
    R, tau = 0.2, h2_inv(1.0 - 0.2)
    run_chains = A._run_chains
    ends, starts = [], []

    def recording(R_, tau_, N_aux, specs):
        if len(specs) == 1 and specs[0][1] == 800:
            x0 = specs[0][0][0]
            assert any(x0.tobytes() == e.tobytes() for e in ends)
            starts.append(x0)
        got = run_chains(R_, tau_, N_aux, specs)
        if all(len(spec[5]) == 0 for spec in specs):
            ends.extend(sim[0] for sim, _, _ in got)
        return got

    monkeypatch.setattr(A, "_run_chains", recording)
    with _cores(1):
        p = A.double_rlpn_exponent(R)
    assert p.feasible and len(starts) == 2
    for x0 in starts:
        assert max(A.double_rlpn_objective(R, tau, A.AsymParams(*A._clip_box(x0, R, tau)))[1]) <= 1e-9
