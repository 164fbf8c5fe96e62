import re

import numpy as np
import pytest

from fbsde_lab.burgers_ref import (BurgersProfile, WEvaluator, burgers_gap,
                                   characteristic, gaussian_control_fractions, psi,
                                   trap_probability, _STRIP_SWITCH, _strip_images,
                                   _strip_modes)
from fbsde_lab.model_core import affine_model, heaviside_tc, linear_drift_model, nonlinear_model
from fbsde_lab.value_pde import Grid, e_nodes_for, solve_reduced_1d


def test_psi_pointwise():
    assert psi(0.5) == 0.5
    assert psi(-3.0) == 0.0
    assert psi(7.0) == 1.0


def test_psi_monotone_lipschitz_fixes_unit_interval():
    x = np.linspace(-3, 3, 4001)
    v = psi(x)
    assert np.all(np.diff(v) >= 0)
    assert np.max(np.abs(np.diff(v))) <= (x[1] - x[0]) + 1e-15
    inside = (x >= 0) & (x <= 1)
    assert np.allclose(v[inside], x[inside])


def test_characteristics_three_branches():
    prof = BurgersProfile(ell=1.0, cap_lambda=0.0, horizon_T=1.0)
    # below the cap: frozen
    assert characteristic(-0.5, 0.7, prof) == -0.5
    # above the cone: uniform unit speed
    assert characteristic(1.5, 0.7, prof) == pytest.approx(1.5 - 0.7)
    # inside the cone: hits the cap exactly at T
    assert characteristic(0.5, 1.0, prof) == pytest.approx(0.0, abs=1e-15)
    mid = characteristic(0.5, 0.5, prof)
    assert mid == pytest.approx(0.5 - 0.5 * 0.5)


def test_profile_refuses_a_horizon_not_above_0():
    # characteristics run from t = 0 to the horizon
    for T in (0.0, -0.1):
        with pytest.raises(ValueError, match="horizon_T must be positive"):
            BurgersProfile(ell=1.0, cap_lambda=0.0, horizon_T=T)


def test_characteristics_monotone_and_collapse():
    prof = BurgersProfile(ell=1.3, cap_lambda=0.2, horizon_T=0.8)
    e0 = np.linspace(-1.0, 2.0, 301)
    for t in (0.3, 0.8):
        out = characteristic(e0, t, prof)
        assert np.all(np.diff(out) >= -1e-14)
    at_T = characteristic(e0, 0.8, prof)
    cone = (e0 >= 0.2) & (e0 <= 0.2 + 1.3 * 0.8)
    assert np.allclose(at_T[cone], 0.2, atol=1e-14)


# ---------------------------------------------------------------------------
# the compensator
# ---------------------------------------------------------------------------

def test_affine_closed_form_value():
    # withdraw at T-t = 0.5 from p = 1 with alpha = 2, b = 0: w = 0.5*2*1
    m = affine_model(alpha=2.0, gamma=1.0, sigma=1.0, horizon_T=0.5,
                     lipschitz_L=2.0)
    we = WEvaluator(m)
    assert we.evaluate(0.0, np.array([1.0])) == pytest.approx(1.0)
    assert we.evaluate(0.5, np.array([1.0])) == pytest.approx(0.0)


def test_affine_closed_form_vs_mc_quadrature():
    m = affine_model(alpha=2.0, gamma=1.0, sigma=1.0, horizon_T=0.5,
                     lipschitz_L=2.0)
    cf = WEvaluator(m)
    val, se = WEvaluator(m)._mc(0.1, np.array([0.7]))
    assert abs(val - float(cf.evaluate(0.1, np.array([0.7])))) <= 3 * se + 1e-12


def test_linear_drift_gradient_matches_growth_formula():
    m = linear_drift_model(lam=-1.0, alpha=1.0, gamma=1.0, sigma=1.0,
                           horizon_T=0.3)
    we = WEvaluator(m)
    t = 0.1
    h = 1e-5
    fd = (we.evaluate(t, np.array([1.0 + h])) - we.evaluate(t, np.array([1.0 - h]))) / (2 * h)
    expect = (np.exp(-1.0 * 0.2) - 1.0) / (-1.0)
    assert fd == pytest.approx(expect, abs=1e-3)
    assert float(we.dp_w(t)[0]) == pytest.approx(expect, rel=1e-12)


def test_mc_agrees_with_closed_form_on_random_points():
    m = affine_model(alpha=1.0, gamma=1.0, sigma=1.0, horizon_T=0.4)
    cf = WEvaluator(m)
    mc = WEvaluator(m)
    rng = np.random.Generator(np.random.Philox(key=3))
    hits3, n = 0, 40
    for _ in range(n):
        t = rng.uniform(0, 0.35)
        p = rng.uniform(-2, 2, size=1)
        val, se = mc._mc(t, p)
        err = abs(val - float(cf.evaluate(t, p)))
        assert err <= 4 * se + 1e-4
        hits3 += err <= 3 * se + 1e-4
    assert hits3 >= 0.9 * n


def test_w_lipschitz_in_p_degrades_linearly_in_time_to_go():
    m = affine_model(alpha=1.5, gamma=1.0, sigma=1.0, horizon_T=0.5,
                     lipschitz_L=2.0)
    we = WEvaluator(m)
    rng = np.random.Generator(np.random.Philox(key=9))
    for t in (0.1, 0.3, 0.45):
        p1 = rng.uniform(-2, 2, size=(50, 1))
        p2 = rng.uniform(-2, 2, size=(50, 1))
        ratio = np.abs(we.evaluate(t, p1) - we.evaluate(t, p2)) \
            / np.abs(p1 - p2)[:, 0]
        assert np.max(ratio) <= 1.5 * (0.5 - t) + 1e-12


def test_monte_carlo_compensator_refuses_a_batch_of_points():
    # its Philox key hashes the one point; at the horizon w is 0 on any batch
    m = nonlinear_model(lambda z: z + 0.1 * np.sin(z),
                        lambda z: 1.0 + 0.1 * np.cos(z), ell1=0.9, ell2=1.1)
    we = WEvaluator(m)
    with pytest.raises(ValueError, match=re.escape("not p of shape (3, 1)")):
        we.evaluate(0.0, np.zeros((3, 1)))
    with pytest.raises(ValueError, match=re.escape("not p of shape (1, 1)")):
        we.evaluate(0.0, np.zeros((1, 1)))
    assert we.evaluate(m.horizon_T, np.zeros((3, 1))) == 0.0


def test_mode_family_consistency():
    assert WEvaluator(affine_model(alpha=1.0, gamma=1.0)).mode == "closed_form_affine"
    m = linear_drift_model(lam=-1.0, alpha=1.0, gamma=1.0)
    assert WEvaluator(m).mode == "closed_form_linear_drift"
    m = nonlinear_model(lambda z: z + 0.1 * np.sin(z),
                        lambda z: 1.0 + 0.1 * np.cos(z), ell1=0.9, ell2=1.1)
    assert WEvaluator(m).mode == "monte_carlo"


# ---------------------------------------------------------------------------
# bridge-trap probability
# ---------------------------------------------------------------------------

def test_trap_probability_is_one_without_noise():
    model = affine_model(alpha=0.0, gamma=1.0, sigma=1.0, horizon_T=0.1)
    assert WEvaluator(model).noise_energy(0.0, 0.1, 2) == 0.0
    assert trap_probability(model) == 1.0
    # so is the Gaussian control's fraction at every delta: V = 0
    assert gaussian_control_fractions(model, [1e-3, 1e-4, 1e-5]).tolist() == [1.0] * 3


@pytest.mark.parametrize("x", [_STRIP_SWITCH * 0.9, _STRIP_SWITCH, _STRIP_SWITCH * 1.1])
def test_the_two_strip_series_agree_where_they_meet(x):
    assert abs(_strip_images(x) - _strip_modes(x)) <= 1e-12


@pytest.mark.parametrize("lam", [-1.0, 1e-5, 0.0, 3.0])
def test_linear_drift_bridge_clock_matches_quad(lam):
    from scipy.integrate import quad
    m = linear_drift_model(lam=lam, alpha=1.0, gamma=1.0, sigma=0.5, horizon_T=0.2)
    we = WEvaluator(m)
    # the clock tau = int_0^T |sigma^T dp_w(t)|^2 / (T - t)^2 dt, over the
    # time t, from the evaluator's own gradient
    integrand = lambda t: (0.5 * float(we.dp_w(t)[0])) ** 2 / (0.2 - t) ** 2
    expect, _ = quad(integrand, 0.0, 0.2, epsabs=0.0, epsrel=1e-13)
    assert we.noise_energy(0.0, 0.2, 2) == pytest.approx(expect, rel=1e-12)


# |sigma^T dp_w|^2 at time to go s, written out per family
_NOISE_MODELS = {
    "affine_dim1": (affine_model(alpha=0.8, gamma=1.0, sigma=0.7, horizon_T=0.2),
                    lambda s: (0.7 * 0.8 * s) ** 2),
    "affine_dim2": (affine_model(alpha=[0.3, -0.5], gamma=1.0, sigma=0.7, horizon_T=0.2),
                    lambda s: 0.7**2 * (0.3**2 + 0.5**2) * s**2),
    **{f"linear_drift_{lam}": (
        linear_drift_model(lam=lam, alpha=0.8, gamma=1.0, sigma=0.7, horizon_T=0.2),
        lambda s, lam=lam: (0.7 * 0.8 * (np.expm1(lam * s) / lam if lam else s)) ** 2)
       for lam in (-1.0, 1e-5, 0.0, 3.0, 40.0)},
}


@pytest.mark.parametrize("power", [0, 2])
@pytest.mark.parametrize("name", list(_NOISE_MODELS))
def test_noise_energy_matches_quad(name, power):
    from scipy.integrate import quad
    m, energy = _NOISE_MODELS[name]
    we = WEvaluator(m)
    # the tail spans of a reduced field's slices, where a closed form of
    # differences of O(1/lam) terms was off by 2e-4 and 1e-6 relative
    for a, b in [(0.0, 0.2), (0.1, 0.1001), (0.0, 1e-4), (1e-3, 1.07e-3), (0.05, 0.2)]:
        expect, _ = quad(lambda s: energy(s) / s**power, a, b, epsabs=0.0, epsrel=1e-13)
        assert we.noise_energy(a, b, power) == pytest.approx(expect, rel=1e-12, abs=0)


def test_bridge_clock_is_refused_without_a_closed_form_compensator():
    m = nonlinear_model(lambda z: z + 0.1 * np.sin(z),
                        lambda z: 1.0 + 0.1 * np.cos(z), ell1=0.9, ell2=1.1)
    with pytest.raises(ValueError, match="nonlinear_1d family lacks"):
        trap_probability(m)
    with pytest.raises(ValueError, match="nonlinear_1d family lacks"):
        gaussian_control_fractions(m, [1e-2, 1e-4])
    with pytest.raises(ValueError, match="nonlinear_1d family lacks"):
        WEvaluator(m).dp_w(0.0)


def test_gaussian_control_is_the_normal_law():
    from scipy.stats import norm
    m = affine_model(alpha=0.1, gamma=1.0, sigma=1.0, horizon_T=0.1)
    deltas = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4]) * 0.1
    sd = 0.1 * np.sqrt(0.1**3 / 3.0)   # sigma alpha sqrt(T^3 / 3)
    expect = norm.cdf(deltas / sd) - norm.cdf(-deltas / sd)
    np.testing.assert_allclose(gaussian_control_fractions(m, deltas), expect,
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# gap metric
# ---------------------------------------------------------------------------

def test_gap_on_noiseless_model_is_pure_discretization():
    # alpha = 0: the reduced field equals the rarefaction up to scheme error,
    # dominated by the first-order corner rounding of width ~ sqrt(de * s)
    m = affine_model(alpha=0.0, gamma=1.0, sigma=1.0, horizon_T=0.2)
    tc = heaviside_tc(0.0)
    t_list = [0.0, 0.08, 0.16]
    sups = {}
    for de in (4e-4, 1e-4):
        grid = Grid(t_nodes=np.linspace(0.0, 0.2, 51),
                    e_nodes=e_nodes_for(m, de))
        field = solve_reduced_1d(m, grid, tc)
        table = burgers_gap(field, m, t_list)
        sups[de] = table.sup_gap
        for t, gap in zip(t_list, table.sup_gap):
            s = 0.2 - t
            assert gap <= 2 * de / s + 1.5 * np.sqrt(de * s) / s
    # refinement by 4 shrinks the corner error by about 2
    assert np.all(sups[1e-4] <= 0.65 * sups[4e-4])


def test_gap_rows_expose_running_beta():
    m = affine_model(alpha=0.0, gamma=1.0, sigma=1.0, horizon_T=0.2)
    tc = heaviside_tc(0.0)
    grid = Grid(t_nodes=np.linspace(0.0, 0.2, 51),
                e_nodes=e_nodes_for(m, 5e-4))
    field = solve_reduced_1d(m, grid, tc)
    table = burgers_gap(field, m, [0.0, 0.08, 0.16])
    rows = table.rows()
    assert len(rows) == 3
    assert np.isnan(rows[0][2])
    assert rows[-1][2] == pytest.approx(table.beta_hat)
