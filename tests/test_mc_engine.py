import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import norm

from fbsde_lab.burgers_ref import BurgersProfile, WEvaluator, characteristic, psi
from fbsde_lab.mc_engine import (SimConfig, conditional_support, dirac_scan,
                                 feynman_kac_grad_p, flow_squeeze_check,
                                 gaussian_control_terminal, path_normals,
                                 prefactor_report, simulate_forward,
                                 terminal_sandwich_check, transmission_scan,
                                 trap_diagnostic, variance_scan,
                                 _jackknife_var_se)
from fbsde_lab.model_core import affine_model, heaviside_tc, smooth_ramp_tc
from fbsde_lab.value_pde import (Grid, e_nodes_for, gradient_fields,
                                 solve_reduced_1d, time_nodes_with_tail,
                                 uniform_time_nodes)


def degenerate_setup(n_paths=500, e0_frac=0.5, T=0.1):
    model = affine_model(alpha=0.0, gamma=1.0, sigma=1.0, horizon_T=T)
    tc = heaviside_tc(0.0)
    t_nodes = time_nodes_with_tail(0.0, T, 400, s_min=4e-5, ratio=1.07,
                                   s_switch=0.02, coarse_ratio=1.25)
    grid = Grid(t_nodes=t_nodes, e_nodes=e_nodes_for(model, 2e-5))
    field = solve_reduced_1d(model, grid, tc)
    we = WEvaluator(mode="closed_form_affine", model=model)
    cfg = SimConfig(n_paths=n_paths, n_steps=400, t0=0.0, p0=np.zeros(1),
                    e0=e0_frac * T, seed=11)
    return model, field, we, cfg


def noisy_setup(n_paths=4000, alpha=0.5, T=0.1, seed=11, snapshots=()):
    model = affine_model(alpha=alpha, gamma=1.0, sigma=1.0, horizon_T=T)
    tc = heaviside_tc(0.0)
    t_nodes = time_nodes_with_tail(0.0, T, 400, s_min=4e-5, ratio=1.07,
                                   s_switch=0.02, coarse_ratio=1.25)
    grid = Grid(t_nodes=t_nodes, e_nodes=e_nodes_for(model, 2e-5))
    field = solve_reduced_1d(model, grid, tc)
    we = WEvaluator(mode="closed_form_affine", model=model)
    cfg = SimConfig(n_paths=n_paths, n_steps=400, t0=0.0, p0=np.zeros(1),
                    e0=0.5 * T, seed=seed, t_snapshots=snapshots)
    return model, field, we, cfg


def test_same_seed_reproduces_terminal_arrays():
    model, field, we, cfg = noisy_setup(n_paths=800)
    a = simulate_forward(model, field, we, cfg)
    b = simulate_forward(model, field, we, cfg)
    assert np.array_equal(a.terminal_E, b.terminal_E)
    assert np.array_equal(a.terminal_Y, b.terminal_Y)


@functools.lru_cache(maxsize=1)
def _noisy_field():
    return noisy_setup(n_paths=1)


@functools.lru_cache(maxsize=1)
def _noisy_derivs():
    return gradient_fields(_noisy_field()[1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # one path: se is nan
@settings(max_examples=8, deadline=None)
@given(n_paths=st.integers(1, 40), batch_size=st.integers(1, 60))
@example(n_paths=700, batch_size=128)   # several full batches and a tail
@example(n_paths=9, batch_size=1)       # one path per batch
@example(n_paths=30, batch_size=7)      # a size that does not divide n_paths
@example(n_paths=5, batch_size=64)      # one batch larger than n_paths
def test_batch_size_does_not_change_results(n_paths, batch_size):
    model, field, we, cfg = _noisy_field()
    whole = dataclasses.replace(cfg, n_paths=n_paths)
    split = dataclasses.replace(whole, batch_size=batch_size)
    a = simulate_forward(model, field, we, whole)
    b = simulate_forward(model, field, we, split)
    for name in ("terminal_E", "terminal_Y", "terminal_Ebar", "escaped"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    # the other stepper callers; repr spells every float exactly
    assert repr(trap_diagnostic(model, we, whole)) \
        == repr(trap_diagnostic(model, we, split))
    derivs = _noisy_derivs()
    assert repr(feynman_kac_grad_p(model, field, derivs, whole, we=we)) \
        == repr(feynman_kac_grad_p(model, field, derivs, split, we=we))


@pytest.mark.parametrize("dim_p, start, message", [
    (1, {"p0": np.zeros(2)}, "p0 has shape (2,); the model needs (1,)"),
    (2, {"p0": np.zeros(1)}, "p0 has shape (1,); the model needs (2,)"),
    (1, {"t0": 0.1}, "t0 = 0.1 is not before the horizon T = 0.1"),
    (1, {"t0": 0.15}, "t0 = 0.15 is not before the horizon T = 0.1"),
])
def test_stepper_refuses_a_start_the_model_cannot_take(dim_p, start, message):
    _, field, _, cfg = _noisy_field()
    model = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1,
                         dim_p=dim_p)
    we = WEvaluator(mode="closed_form_affine", model=model)
    cfg = dataclasses.replace(cfg, n_paths=3, **start)
    # the refusal comes before any path is drawn or the field is read
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_forward(model, field, we, cfg)
    with pytest.raises(ValueError, match=re.escape(message)):
        trap_diagnostic(model, we, cfg)


def test_field_simulators_refuse_a_field_of_another_model():
    _, field, _, cfg = _noisy_field()
    model = affine_model(alpha=0.4, gamma=1.0, sigma=1.0, horizon_T=0.1)
    we = WEvaluator(mode="closed_form_affine", model=model)
    cfg = dataclasses.replace(cfg, n_paths=3)
    hashes = [field.provenance["model_hash"], model.model_hash()]
    assert hashes[0] != hashes[1]
    runs = [lambda: simulate_forward(model, field, we, cfg),
            lambda: flow_squeeze_check(model, field, we, cfg, [(0.05, 0.03)], [0.05]),
            # refused before the derivative fields are read
            lambda: feynman_kac_grad_p(model, field, None, cfg, we=we)]
    for run in runs:
        with pytest.raises(ValueError) as info:
            run()
        assert all(h in str(info.value) for h in hashes), info.value


@pytest.mark.parametrize("t_list, outside", [([0.05, 0.2], "[0.2]"),
                                             ([0.0], "[0.0]")])
def test_flow_squeeze_refuses_times_outside_the_run(t_list, outside):
    model, field, we, cfg = _noisy_field()
    with pytest.raises(ValueError, match=re.escape(f"t_list entries {outside}")):
        flow_squeeze_check(model, field, we, cfg, [(0.05, 0.03)], t_list)


@pytest.mark.parametrize("first", [0, 16_384])
@pytest.mark.parametrize("d", [1, 2])
def test_path_normals_match_one_generator_per_path(first, d):
    ref = np.stack([
        np.random.Generator(np.random.Philox(key=11, counter=[0, 0, 0, first + i]))
        .standard_normal((30, d)) for i in range(5)])
    assert np.array_equal(path_normals(11, first, 5, 30, d), ref)


def test_degenerate_paths_hit_cap_within_tolerance():
    model, field, we, cfg = degenerate_setup()
    ens = simulate_forward(model, field, we, cfg)
    assert np.max(np.abs(ens.terminal_E - 0.0)) <= 1e-3
    assert float(np.ptp(ens.terminal_E)) == 0.0   # noiseless: identical paths


def test_e_monotone_when_feedback_nonnegative():
    # alpha = 0 keeps f = gamma * y >= 0 along paths
    model, field, we, cfg = degenerate_setup(e0_frac=0.5)
    import dataclasses
    cfg = dataclasses.replace(cfg, t_snapshots=(0.025, 0.05, 0.075))
    ens = simulate_forward(model, field, we, cfg)
    traj = [ens.snapshots[round(t, 12)]["E"] for t in (0.025, 0.05, 0.075)]
    assert np.all(traj[0] >= traj[1] - 1e-15)
    assert np.all(traj[1] >= traj[2] - 1e-15)


def test_ebar_terminal_equals_e_terminal():
    model, field, we, cfg = noisy_setup(n_paths=500)
    ens = simulate_forward(model, field, we, cfg)
    assert np.max(np.abs(ens.terminal_Ebar - ens.terminal_E)) <= 1e-9


def test_terminal_y_in_unit_interval():
    model, field, we, cfg = noisy_setup(n_paths=500)
    ens = simulate_forward(model, field, we, cfg)
    assert np.all((ens.terminal_Y >= 0) & (ens.terminal_Y <= 1))


# ---------------------------------------------------------------------------
# atom detection
# ---------------------------------------------------------------------------

def test_dirac_scan_curve_monotone_and_plateau():
    model, field, we, cfg = noisy_setup(n_paths=4000, alpha=0.1)
    ens = simulate_forward(model, field, we, cfg)
    deltas = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4]) * 0.1
    curve = dirac_scan(ens, deltas)
    assert np.all(np.diff(curve.fractions) <= 0)
    assert curve.plateau_defined
    assert curve.plateau >= 0.8


def test_dirac_scan_ladder_validation():
    with pytest.raises(ValueError):
        dirac_scan(np.zeros(10), [1e-3, 1e-2])
    with pytest.raises(ValueError):
        dirac_scan(np.zeros(10), [1e-2, 5e-3, 2e-3])


def test_gaussian_control_matches_closed_form_cdf():
    model, field, we, cfg = noisy_setup(n_paths=40000, alpha=0.1)
    term = gaussian_control_terminal(model, we, cfg)
    sig = 0.1 * np.sqrt(0.1**3 / 3.0)   # sigma*alpha * sqrt(h^3/3)
    deltas = np.array([1e-2, 1e-3, 1e-4]) * 0.1
    curve = dirac_scan(term, deltas, cap_lambda=0.0)
    for d, fr, se in zip(curve.deltas, curve.fractions, curve.std_errors):
        expect = 2 * norm.cdf(d / sig) - 1
        assert abs(fr - expect) <= 3 * se + 2e-3
    assert curve.plateau <= 0.05


def test_zero_hits_flags_plateau_undefined():
    curve = dirac_scan(np.full(100, 5.0), [1e-1, 1e-2, 1e-3])
    assert not curve.plateau_defined


# ---------------------------------------------------------------------------
# conditional support and sandwich
# ---------------------------------------------------------------------------

def test_degenerate_conditional_support_is_single_bin():
    # deterministic characteristics: Y_T concentrates at the cone coordinate
    model, field, we, cfg = degenerate_setup(n_paths=300, e0_frac=0.4)
    ens = simulate_forward(model, field, we, cfg)
    hist = conditional_support(ens, delta=1e-3, n_bins=10)
    assert (hist.counts > 0).sum() == 1
    assert hist.counts.argmax() == 4   # psi(0.4) = 0.4 falls in bin [0.4, 0.5)


def test_conditional_support_empty_event_raises():
    model, field, we, cfg = degenerate_setup(n_paths=100, e0_frac=0.5)
    ens = simulate_forward(model, field, we, cfg)
    ens.terminal_E[:] = 5.0
    with pytest.raises(ValueError):
        conditional_support(ens, delta=1e-6)


def test_sandwich_full_slack_never_violates():
    model, field, we, cfg = noisy_setup(n_paths=400)
    ens = simulate_forward(model, field, we, cfg)
    assert terminal_sandwich_check(ens, heaviside_tc(0.0), eta=1.0) == 0.0


def test_sandwich_smooth_ramp_small_violation():
    model = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    tc = smooth_ramp_tc(0.0, 0.1)
    t_nodes = time_nodes_with_tail(0.0, 0.1, 400, s_min=4e-5, ratio=1.07,
                                   s_switch=0.02, coarse_ratio=1.25)
    grid = Grid(t_nodes=t_nodes, e_nodes=e_nodes_for(model, 1e-4))
    field = solve_reduced_1d(model, grid, tc)
    we = WEvaluator(mode="closed_form_affine", model=model)
    cfg = SimConfig(n_paths=4000, n_steps=400, t0=0.0, p0=np.zeros(1),
                    e0=0.05, seed=11)
    ens = simulate_forward(model, field, we, cfg)
    assert terminal_sandwich_check(ens, tc, eta=0.05) <= 0.01


# ---------------------------------------------------------------------------
# flow and variance
# ---------------------------------------------------------------------------

def test_flow_identical_starts_have_zero_difference():
    model, field, we, cfg = noisy_setup(n_paths=300)
    rep = flow_squeeze_check(model, field, we, cfg,
                             e_pairs=[(0.05, 0.05)], t_list=[0.05])
    assert rep.frac_ok == 1.0
    assert abs(rep.worst_lower_margin) <= 1e-12


def test_flow_ordering_and_envelope():
    model, field, we, cfg = noisy_setup(n_paths=2000)
    pairs = [(0.055, 0.03), (0.03, 0.01)]
    rep = flow_squeeze_check(model, field, we, cfg, pairs,
                             t_list=[0.025, 0.05, 0.075])
    assert rep.frac_ok >= 0.999
    # common noise preserves the ordering pathwise at every recorded time
    assert rep.min_ordering_margin >= -1e-12


def test_jackknife_matches_bruteforce_leave_one_out():
    rng = np.random.Generator(np.random.Philox(key=21))
    x = rng.standard_normal(80)
    n = len(x)
    vs = np.array([np.var(np.delete(x, i), ddof=1) for i in range(n)])
    brute = np.sqrt((n - 1) / n * np.sum((vs - vs.mean()) ** 2))
    assert _jackknife_var_se(x) == pytest.approx(brute, rel=1e-10)


def test_variance_scan_degenerate_is_zero_and_flagged():
    model, field, we, cfg = degenerate_setup(n_paths=300)
    scan = variance_scan(model, field, we, cfg, t_list=[0.02, 0.04])
    assert np.all(scan.variances <= 1e-30)   # identical paths up to FP dust
    assert scan.below_resolution


def test_variance_scan_rejects_late_times():
    model, field, we, cfg = noisy_setup(n_paths=300)
    with pytest.raises(ValueError):
        variance_scan(model, field, we, cfg, t_list=[0.09])


def test_prefactor_report_verdicts():
    h = [0.4, 0.2, 0.1]
    rep = prefactor_report(h, [x**2 for x in h])
    assert rep.verdict == "power_like"
    rep = prefactor_report(h, [np.exp(-1.0 / x) for x in h])
    assert rep.verdict == "superpolynomial"
    rep = prefactor_report(h, [1.0, 2.0, 3.0])
    assert rep.verdict == "not_decreasing"


# ---------------------------------------------------------------------------
# transmission, pathwise gradient, trap
# ---------------------------------------------------------------------------

def test_transmission_zero_alpha_profile_vanishes():
    model, field, we, cfg = degenerate_setup(n_paths=100)
    derivs = gradient_fields(field)
    e_grid = np.linspace(-0.05, 0.15, 101)
    prof = transmission_scan(field, derivs, model, 0.0, [0.0], e_grid, we=we)
    assert np.max(np.abs(prof.profiles["alpha_minus_gamma_dpv"])) <= 1e-6


def test_feynman_kac_constant_sigma_weight_is_one():
    model = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.2)
    tc = smooth_ramp_tc(0.0, 0.15)
    grid = Grid(t_nodes=uniform_time_nodes(0.0, 0.2, 200),
                e_nodes=e_nodes_for(model, 2e-4))
    field = solve_reduced_1d(model, grid, tc)
    we = WEvaluator(mode="closed_form_affine", model=model)
    derivs = gradient_fields(field)
    cfg = SimConfig(n_paths=4000, n_steps=200, t0=0.0, p0=np.zeros(1),
                    e0=0.06, seed=11)
    est = feynman_kac_grad_p(model, field, derivs, cfg, we=we)
    assert est.ess_fraction == pytest.approx(1.0)
    assert not est.degenerate
    h = 1e-3
    pde = float(np.asarray(
        field.eval(0.0, np.array([h]), np.array([0.06]), we=we)
        - field.eval(0.0, np.array([-h]), np.array([0.06]), we=we)).reshape(-1)[0]) / (2 * h)
    # the flat-ramp interior makes the statistical error tiny; allow the
    # first-order discretization bias of this coarse unit-test setup
    assert abs(est.estimate - float(pde)) <= 3 * est.std_error + 5e-4


def test_feynman_kac_sign_of_integrand():
    # dp_f <= 0 and de_v >= 0 force a non-negative estimate
    model = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.2)
    tc = smooth_ramp_tc(0.0, 0.15)
    grid = Grid(t_nodes=uniform_time_nodes(0.0, 0.2, 200),
                e_nodes=e_nodes_for(model, 5e-4))
    field = solve_reduced_1d(model, grid, tc)
    we = WEvaluator(mode="closed_form_affine", model=model)
    cfg = SimConfig(n_paths=2000, n_steps=200, t0=0.0, p0=np.zeros(1),
                    e0=0.0, seed=13)
    est = feynman_kac_grad_p(model, field, gradient_fields(field), cfg, we=we)
    assert est.estimate >= -3 * est.std_error


def test_trap_bridge_pinned_at_cap():
    model = affine_model(alpha=0.1, gamma=1.0, sigma=1.0, horizon_T=0.1)
    we = WEvaluator(mode="closed_form_affine", model=model)
    cfg = SimConfig(n_paths=2000, n_steps=200, t0=0.0, p0=np.zeros(1),
                    e0=0.05, seed=11)
    rep = trap_diagnostic(model, we, cfg)
    assert rep.p_hat_F > 0.5
    assert rep.zbar_terminal_dev <= 1e-12
    assert rep.zbar_near_terminal_dev <= 1e-3


def test_trap_probability_increases_toward_horizon():
    p_hats = []
    for T in (0.4, 0.1):
        model = affine_model(alpha=0.1, gamma=1.0, sigma=1.0, horizon_T=T)
        we = WEvaluator(mode="closed_form_affine", model=model)
        cfg = SimConfig(n_paths=2000, n_steps=200, t0=0.0, p0=np.zeros(1),
                        e0=0.5 * T, seed=11)
        p_hats.append(trap_diagnostic(model, we, cfg).p_hat_F)
    assert p_hats[1] > p_hats[0]


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(n_paths=10, n_steps=50, t0=0.0, p0=np.zeros(1), e0=0.0, seed=1)
    for bad in ({"n_paths": 0}, {"batch_size": 0}):
        with pytest.raises(ValueError, match="must be >= 1"):
            SimConfig(**{"n_paths": 10, "n_steps": 200, "t0": 0.0,
                         "p0": np.zeros(1), "e0": 0.0, "seed": 1, **bad})
