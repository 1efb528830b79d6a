import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualattack import asymptotics as A
from dualattack.errors import DomainError
from dualattack.krawtchouk import h2, h2_inv, kappa_tilde, kappa_tilde_many


@pytest.fixture(scope="module")
def drlpn_point():
    return A.double_rlpn_exponent(0.2, restarts=20, seed=0)


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
    rng = np.random.default_rng(4)
    for _ in range(200):
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
        num = int(rng.integers(2, 130))
        assert A._linspace(lo, hi, num).tobytes() == np.linspace(lo, hi, num).tobytes()
        assert A._linspace(lo, lo, num).tobytes() == np.linspace(lo, lo, num).tobytes()
    # a span so small that the step underflows to zero
    assert A._linspace(0.0, 5e-324, 65).tobytes() == np.linspace(0.0, 5e-324, 65).tobytes()
    los = np.array([0.0, 0.1, 0.3, 0.0])
    his = np.array([0.5, 0.1, 0.9, 5e-324])
    for row, lo, hi in zip(A._linspace(los, his, 33), los, his):
        assert row.tobytes() == np.linspace(lo, hi, 33).tobytes()


def test_dumer_grids_problems_do_not_interact():
    probs = [(0.5, 0.11), (0.3, 0.0), (0.2, 0.25), (0.7, 0.05), (1e-9, 0.3)]
    together = A._dumer_grids(probs, levels=3, pts=33)
    alone = [A._dumer_grids([p], levels=3, pts=33)[0] for p in probs]
    assert together == alone
    assert together[1] == (0.0, 0.0, 0.0, 0.0)


def _candidate_full_scan(R, sigma, tau, mu, omega_bar, tau_bar):
    # reference for _candidate_exponent: the same zoom, scanning every cell
    d1 = min((tau - mu) / sigma, 1.0)
    d2 = min(mu / (1.0 - sigma), 1.0)
    anchor = sigma * kappa_tilde(d1, tau_bar) + (1.0 - sigma) * kappa_tilde(d2, omega_bar)
    zg = eg = np.linspace(0.0, 0.5, 129)
    best = 0.0
    for _ in range(2):
        ka = sigma * kappa_tilde_many(zg, tau_bar)
        kb = (1.0 - sigma) * kappa_tilde_many(eg, omega_bar)
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


def test_candidate_scan_matches_full_grid():
    # scanning only admissible rows and columns must give the same bits
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 300:
        R = rng.uniform(0.05, 0.95)
        tau = h2_inv(1.0 - R)
        sigma = R * rng.uniform(0.05, 1.0)
        mu = rng.uniform(max(0.0, tau - sigma), min(tau, 1.0 - sigma))
        omega_bar = rng.uniform(0.0, 0.5) if checked % 10 else 0.0
        tau_bar = rng.uniform(0.0, 0.5) if checked % 7 else 0.0
        args = (R, sigma, tau, mu, omega_bar, tau_bar)
        assert A._candidate_exponent(*args) == _candidate_full_scan(*args), args
        checked += 1


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
        assert g >= A.bjmm_output_exponent(rp, om) - 1e-9
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


def test_drlpn_restart_stability(drlpn_point):
    other = A.double_rlpn_exponent(0.2, restarts=20, seed=3)
    assert abs(other.alpha - drlpn_point.alpha) <= 1e-4


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
        A.double_rlpn_exponent(0.2, tau=0.7)
    with pytest.raises(DomainError):
        A.double_rlpn_exponent(0.2, N_aux=0)


def test_drlpn_small_at_rate_extremes():
    lo = A.double_rlpn_exponent(0.02, restarts=12, seed=0)
    hi = A.double_rlpn_exponent(0.98, restarts=12, seed=0)
    assert lo.feasible and lo.alpha <= 0.03
    assert hi.feasible and hi.alpha <= 0.012
    assert hi.alpha < A.prange_exponent(0.98)


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
    pts = A.exponent_curve(("double-rlpn",), [0.10, 0.12, 0.14], seed=0)
    assert all(p.feasible for p in pts)
    assert all(max(p.constraint_residuals) <= 1e-9 for p in pts)
    alphas = [p.alpha for p in pts]
    assert alphas == sorted(alphas)
    for a, b in zip(alphas, alphas[1:]):
        assert b - a <= 0.01
    for p in pts:
        alpha, residuals = A.double_rlpn_objective(p.R, p.tau, p.argmin)
        assert alpha == p.alpha
