import re

import numpy as np
import pytest

from fbsde_lab.model_core import (
    BUMP_MEAN, AssumptionError, FeedbackFn, ModelSpec, _poly_bump, affine_model,
    effective_ell, heaviside_tc, linear_drift_model, mollify, nonlinear_model,
    phi_sides_arrays, smooth_ramp_tc, validate_assumptions,
)


def f0_sine(z):
    return z + 0.1 * np.sin(z)


def f0_sine_prime(z):
    return 1.0 + 0.1 * np.cos(z)


def test_affine_model_passes_all_assumptions():
    m = affine_model(alpha=1.0, gamma=1.0, sigma=1.0)
    rep = validate_assumptions(m)
    assert rep.all_passed
    assert rep.elliptic


def test_nonlinear_dy_band_matches_analytic_extrema():
    # f0'(z) = 1 + 0.1 cos z has extrema exactly 0.9 and 1.1
    m = nonlinear_model()
    rep = validate_assumptions(m)
    assert {c.name: c.passed for c in rep.checks}["A3_dy_band"]
    # dense sampling confirms the analytic extrema are attained (nearly)
    z = np.linspace(-10, 10, 20001)
    vals = f0_sine_prime(z)
    assert vals.min() == pytest.approx(0.9, abs=1e-6)
    assert vals.max() == pytest.approx(1.1, abs=1e-6)


def test_decreasing_feedback_fails_monotonicity():
    # f(p, y) = p - y has df/dy = -1
    fb = FeedbackFn(
        value=lambda p, y: np.asarray(p)[..., 0] - np.asarray(y),
        dy=lambda p, y: np.broadcast_to(-1.0, np.broadcast(np.asarray(p)[..., 0], y).shape),
        dp=lambda p, y: np.ones_like(np.asarray(p, dtype=float)),
    )
    m = ModelSpec(dim_p=1, drift=lambda p: 0.0 * p, sigma=np.ones((1, 1)),
                  feedback=fb, lipschitz_L=2.0, ell1=0.5, ell2=1.0,
                  holder_alpha=1.0, cap_lambda=0.0, horizon_T=1.0)
    rep = validate_assumptions(m)
    assert not {c.name: c.passed for c in rep.checks}["A2_monotonicity"]


def test_nonfinite_coefficient_reports_offending_point():
    fb = FeedbackFn(
        value=lambda p, y: np.where(np.asarray(p)[..., 0] > 1.5, np.nan, np.asarray(y)),
        dy=lambda p, y: np.ones(np.broadcast(np.asarray(p)[..., 0], y).shape),
        dp=lambda p, y: np.zeros_like(np.asarray(p, dtype=float)),
    )
    m = ModelSpec(dim_p=1, drift=lambda p: 0.0 * p, sigma=np.ones((1, 1)),
                  feedback=fb, lipschitz_L=2.0, ell1=0.5, ell2=1.0,
                  holder_alpha=1.0, cap_lambda=0.0, horizon_T=1.0)
    with pytest.raises(AssumptionError):
        validate_assumptions(m)


def test_model_constants_validated():
    with pytest.raises(ValueError):
        affine_model(alpha=1.0, gamma=1.0, lipschitz_L=0.5)  # ell outside [1/L, L]


# ---------------------------------------------------------------------------
# terminal conditions
# ---------------------------------------------------------------------------

def test_phi_sides_heaviside_at_cap():
    lo, hi = phi_sides_arrays(heaviside_tc(0.0), np.array([0.0, -1.0, 0.5]))
    assert lo.tolist() == [0.0, 0.0, 1.0]
    assert hi.tolist() == [1.0, 0.0, 1.0]


def test_phi_sides_continuous_kinds_coincide():
    tc = smooth_ramp_tc(0.0, width=0.5)
    x = np.array([-0.3, 0.0, 0.1])
    lo, hi = phi_sides_arrays(tc, x)
    assert np.array_equal(lo, hi)
    assert np.array_equal(lo, tc(x))


def test_heaviside_value_at_threshold_is_one():
    tc = heaviside_tc(0.3)
    assert float(tc(np.asarray(0.3))) == 1.0


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

def test_default_bump_normalized_with_mean_half():
    t = np.linspace(0, 1, 200001)
    assert np.trapezoid(_poly_bump(t), t) == pytest.approx(1.0, abs=1e-8)
    assert np.trapezoid(t * _poly_bump(t), t) == pytest.approx(BUMP_MEAN, abs=1e-8)
    assert BUMP_MEAN == 0.5


def test_mollified_pair_brackets_phi_on_dense_grid():
    tc = heaviside_tc(0.0)
    up, lo = mollify(tc, 10, "upper"), mollify(tc, 10, "lower")
    x = np.linspace(-1.0, 1.0, 10001)
    assert np.all(up(x) >= tc(x) - 1e-12)
    assert np.all(lo(x) <= tc(x) + 1e-12)
    assert np.all(np.diff(up(x)) >= -1e-12)
    assert np.all((up(x) >= 0) & (up(x) <= 1))


def test_heaviside_l1_gap_equals_mean_over_n():
    # integral of (upper mollified - heaviside) is the bump mean / n exactly
    tc = heaviside_tc(0.0)
    up = mollify(tc, 10, "upper")
    x = np.linspace(-0.2, 0.1, 300001)
    gap = np.trapezoid(up(x) - tc(x), x)
    assert gap == pytest.approx(0.05, abs=1e-6)


def test_mollified_converges_at_continuity_points():
    tc = heaviside_tc(0.0)
    for x in (-0.4, 0.7):
        vals = [float(mollify(tc, n, "upper")(np.asarray(x)))
                for n in (4, 16, 64)]
        errs = [abs(v - float(tc(np.asarray(x)))) for v in vals]
        assert errs[-1] <= 1e-12
        assert errs == sorted(errs, reverse=True)


def test_ramp_mollification_transport_bound():
    # slope-1 clamp ramp: sup distance bounded by (support max)/n
    tc = smooth_ramp_tc(0.0, width=1.0)
    for n in (5, 20):
        up = mollify(tc, n, "upper")
        x = np.linspace(-2, 2, 20001)
        assert np.max(np.abs(up(x) - tc(x))) <= 1.0 / n + 1e-12


def test_mollify_rejects_bad_side_and_order():
    tc = heaviside_tc(0.0)
    with pytest.raises(ValueError, match="side"):
        mollify(tc, 4, "sideways")
    with pytest.raises(ValueError, match=re.escape("mollifier order n = 0 must be >= 1")):
        mollify(tc, 0, "upper")


# ---------------------------------------------------------------------------
# effective slope
# ---------------------------------------------------------------------------

def test_effective_ell_affine_is_gamma():
    m = affine_model(alpha=0.3, gamma=1.7, lipschitz_L=2.0)
    assert effective_ell(m, [0.4], 0.77) == pytest.approx(1.7, abs=1e-12)


def test_effective_ell_nonlinear_closed_form():
    # integral of f0'(p - lam*v) over lam equals [f0(0) - f0(-v)] / v at p=0
    m = nonlinear_model()
    v = 0.5
    expect = (f0_sine(0.0) - f0_sine(-v)) / v
    assert effective_ell(m, [0.0], v) == pytest.approx(expect, abs=1e-8)


def test_effective_ell_zero_value_limit():
    m = nonlinear_model()
    assert effective_ell(m, [0.7], 0.0) == pytest.approx(f0_sine_prime(0.7), abs=1e-12)


def test_effective_ell_identity_on_grid():
    # v * ell = f(p, v) - f(p, 0) to 1e-8 over a (p, v) grid
    m = nonlinear_model()
    rng = np.random.Generator(np.random.Philox(key=5))
    p = rng.uniform(-2, 2, size=(1000, 1))
    v = rng.uniform(0.0, 1.0, size=1000)
    ell = effective_ell(m, p, v)
    assert np.all((ell >= 0.9 - 1e-12) & (ell <= 1.1 + 1e-12))
    lhs = v * ell
    rhs = m.feedback.value(p, v) - m.feedback.value(p, 0.0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


@pytest.mark.parametrize("lead", [(), (1,), (7,), (3, 5), (0,)])
@pytest.mark.parametrize("dim", [1, 2])
def test_affine_coefficients_match_their_reference_forms(lead, dim):
    # the fast forms must give tensordot's and broadcast_to's bits exactly
    from fbsde_lab.model_core import _dot_last
    rng = np.random.default_rng(11)
    alpha = rng.normal(size=dim)
    m = affine_model(alpha=alpha, gamma=1.3, sigma=0.7, b=rng.normal(size=dim))
    p = rng.normal(size=lead + (dim,))
    p.flat[:1] = -0.0
    pairs = [
        (_dot_last(p, alpha), np.tensordot(p, alpha, axes=([-1], [0]))),
        (m.drift(p), np.broadcast_to(m.family_params["b"], p.shape).copy()),
        (m.sigma, 0.7 * np.eye(dim)),
    ]
    for fast, ref in pairs:
        assert fast.shape == ref.shape and fast.dtype == ref.dtype
        assert fast.tobytes() == ref.tobytes()
