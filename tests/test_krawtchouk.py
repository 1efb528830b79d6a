import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualattack import krawtchouk as KR
from dualattack.errors import BudgetExceeded, DomainError


def test_frozen_values():
    # 42504 - 85008 + 56672 - 15456 + 1680 - 56
    assert KR.krawtchouk_exact(32, 5, 8) == 336
    assert KR.krawtchouk_exact(32, 5, 0) == comb(32, 5) == 201376
    assert KR.krawtchouk_exact(28, 2, 0) == comb(28, 2) == 378
    assert KR.krawtchouk_exact(7, 3, 1) == comb(6, 3) - comb(6, 2) == 5


def test_value_at_zero_is_binomial():
    for n in (8, 17, 32):
        for w in range(n + 1):
            assert KR.krawtchouk_exact(n, w, 0) == comb(n, w)


@pytest.mark.parametrize("n", [9, 16, 32, 64])
def test_reciprocity(n):
    for w in range(n + 1):
        for t in range(n + 1):
            assert comb(n, t) * KR.krawtchouk_exact(n, w, t) == \
                comb(n, w) * KR.krawtchouk_exact(n, t, w)


@pytest.mark.parametrize("n", [8, 15, 32])
def test_orthogonality(n):
    rows = [KR.KrawtchoukTable(n, w).values for w in range(n + 1)]
    bins = [comb(n, t) for t in range(n + 1)]
    for w in range(n + 1):
        for wp in range(w, n + 1):
            acc = sum(b * rows[w][t] * rows[wp][t] for t, b in enumerate(bins))
            want = (1 << n) * comb(n, w) if w == wp else 0
            assert acc == want


@pytest.mark.parametrize("n", [6, 19, 32])
def test_centering(n):
    for w in range(1, n + 1):
        assert sum(comb(n, i) * KR.krawtchouk_exact(n, w, i)
                   for i in range(n + 1)) == 0


@pytest.mark.parametrize("n", [4, 9, 14])
def test_character_sum_oracle_equals_exact(n):
    for t in range(n + 1):
        x = np.zeros(n, np.uint8)
        x[:t] = 1
        for w in range(n + 1):
            assert KR.character_sum_oracle(x, w) == KR.krawtchouk_exact(n, w, t)


def test_character_sum_oracle_position_invariant():
    # the sum depends only on |x|, not on which bits are set
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = np.zeros(12, np.uint8)
        x[rng.choice(12, size=5, replace=False)] = 1
        assert KR.character_sum_oracle(x, 4) == KR.krawtchouk_exact(12, 4, 5)


def test_oracle_budget_and_domain():
    with pytest.raises(BudgetExceeded):
        KR.character_sum_oracle(np.zeros(19, np.uint8), 2)
    with pytest.raises(DomainError):
        KR.character_sum_oracle(np.zeros(10, np.uint8), 11)
    with pytest.raises(DomainError):
        KR.krawtchouk_exact(5000, 2, 1)
    with pytest.raises(DomainError):
        KR.krawtchouk_exact(16, 17, 0)


def test_table_matches_exact():
    tab = KR.KrawtchoukTable(20, 6)
    for t in range(21):
        assert tab.value(t) == KR.krawtchouk_exact(20, 6, t)
    assert tab.as_float().dtype == np.float64


def test_h2_endpoints_and_symmetry():
    assert KR.h2(0) == 0.0
    assert KR.h2(1) == 0.0
    assert KR.h2(0.5) == 1.0
    for p in np.linspace(0.01, 0.49, 25):
        assert math.isclose(KR.h2(p), KR.h2(1 - p), rel_tol=1e-12)


@given(st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_h2_inv_roundtrip(v):
    p = KR.h2_inv(v)
    assert 0.0 <= p <= 0.5
    assert abs(KR.h2(p) - v) < 1e-9


def test_h2_inv_known_points():
    assert KR.h2_inv(1.0) == 0.5
    assert KR.h2_inv(0.0) == 0.0
    assert abs(KR.h2_inv(KR.h2(0.11)) - 0.11) < 1e-10


def _h2_inv_reference(v):
    # reference for h2_inv: the same bisection, calling h2 for the entropy
    if v == 0:
        return 0.0
    if v == 1:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if KR.h2(mid) < v:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_h2_inv_matches_reference_bitwise():
    rng = np.random.default_rng(8)
    vs = rng.uniform(0.0, 1.0, 5000).tolist()
    vs += [0.0, 1.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-16, KR.h2(0.11), KR.h2(0.25), KR.h2(0.5 - 1e-13)]
    assert [KR.h2_inv(v) for v in vs] == [_h2_inv_reference(v) for v in vs]


def test_kappa_at_zero_point_is_entropy():
    for om in [0.05, 0.1, 0.25, 0.4, 0.5]:
        assert abs(KR.kappa_tilde(0.0, om) - KR.h2(om)) < 1e-12


def test_kappa_branch_continuity():
    # both branch formulas agree at the boundary to 1e-9; just past it
    # the value is the oscillatory envelope itself
    for om in [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49]:
        wp = KR._omega_perp(om)
        mono = KR.kappa_tilde(wp, om)
        osc = (1 - KR.h2(wp) + KR.h2(om)) / 2
        assert abs(mono - osc) < 1e-9
        past = min(wp + 1e-12, 1.0)
        just_past = KR.kappa_tilde(past, om)
        assert just_past == (1 - KR.h2(past) + KR.h2(om)) / 2
        assert abs(just_past - mono) < 1e-9


def test_kappa_matches_finite_n_512():
    n = 512
    for w in [16, 32, 64, 128, 200, 256]:
        for t in [0, 8, 32, 64, 100, 128, 180, 256]:
            v = KR.krawtchouk_exact(n, w, t)
            if v == 0:
                continue
            lhs = math.log2(abs(v)) / n
            assert abs(lhs - KR.kappa_tilde(t / n, w / n)) < 0.02


def test_kappa_exponent_reciprocity():
    # h2(tau) + kappa(tau, omega) = h2(omega) + kappa(omega, tau)
    for om in [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]:
        for ta in [0.0, 0.05, 0.15, 0.3, 0.45, 0.5]:
            lhs = KR.h2(ta) + KR.kappa_tilde(ta, om)
            rhs = KR.h2(om) + KR.kappa_tilde(om, ta)
            assert abs(lhs - rhs) < 1e-9


def test_kappa_domain():
    with pytest.raises(DomainError):
        KR.kappa_tilde(-0.1, 0.2)
    with pytest.raises(DomainError):
        KR.kappa_tilde(0.2, 0.6)
    assert KR.kappa_tilde(0.3, 0.0) == 0.0


def test_kappa_mirror_past_half():
    for om in [0.05, 0.2, 0.4]:
        for ta in [0.55, 0.7, 0.9, 1.0]:
            assert KR.kappa_tilde(ta, om) == KR.kappa_tilde(1 - ta, om)
    assert abs(KR.kappa_tilde(1.0, 0.3) - KR.h2(0.3)) < 1e-12
    # finite-n check: |K_w(n-t)| = |K_w(t)|, so the exponent must climb
    # back toward h2(omega) on the far side
    n, w, t = 512, 32, 480
    lhs = math.log2(abs(KR.krawtchouk_exact(n, w, t))) / n
    assert abs(lhs - KR.kappa_tilde(t / n, w / n)) < 0.02


def _kappa_tilde_many(taus, omega):
    # kappa_tilde over an array of points in [0, 1] through the grid form
    # the optimizer evaluates, points past 1/2 mirrored
    t = np.asarray(taus, dtype=np.float64)
    t = np.minimum(t, 1.0 - t)
    if omega == 0:
        return np.zeros_like(t)
    return KR._kappa_grid(t, omega, KR.h2(omega), KR._omega_perp(omega), KR._h2v(t))


def test_kappa_tilde_many_matches_scalar():
    taus = np.linspace(0.0, 1.0, 101)
    for om in [0.0, 0.03, 0.17, 0.33, 0.5]:
        vec = _kappa_tilde_many(taus, om)
        for t, v in zip(taus, vec):
            assert abs(v - KR.kappa_tilde(float(t), om)) < 1e-12


def _kappa_grid_reference(t, omega):
    # kappa_tilde on t in [0, 1/2] as one formula, the entropy of t inline
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.maximum((1 - 2 * t) ** 2 - 4 * omega * (1 - omega), 0.0)
        z = (1 - 2 * t - np.sqrt(disc)) / (2 * (1 - omega))
        val = (1 - t) * np.log2(1 + z) - omega * np.log2(z)
        val = np.where(t > 0, val + t * np.log2(1 - z), val)
        hv = -t * np.log2(t) - (1 - t) * np.log2(1 - t)
    hv = np.where((t > 0) & (t < 1), hv, 0.0)
    return np.where(t <= KR._omega_perp(omega), val, (1 - hv + KR.h2(omega)) / 2)


def test_kappa_grid_matches_reference_bitwise():
    # the grid takes the entropy of t from its caller; the bits must not move
    rng = np.random.default_rng(3)
    t = np.concatenate([[0.0, 0.5, 5e-324], np.linspace(0.0, 0.5, 129), rng.uniform(0.0, 0.5, 400)])
    for omega in np.concatenate([[0.5, 1e-9], rng.uniform(0.0, 0.5, 40)]):
        got = KR._kappa_grid(t, omega, KR.h2(omega), KR._omega_perp(omega), KR._h2v(t))
        assert got.tobytes() == _kappa_grid_reference(t, omega).tobytes(), omega
