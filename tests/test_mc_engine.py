import dataclasses
import functools
import hashlib
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fbsde_lab import mc_engine, value_pde
from fbsde_lab.burgers_ref import (BurgersProfile, WEvaluator, characteristic,
                                   gaussian_control_fractions, psi, trap_probability,
                                   _STRIP_SWITCH, _strip_images, _strip_modes)
from fbsde_lab.experiments import scenario_field, scenario_model, scenario_sim
from fbsde_lab.mc_engine import (PathEnsemble, SimConfig, conditional_support,
                                 default_delta_ladder, dirac_scan, euler_paths,
                                 feynman_kac_grad_p, flow_squeeze_check, path_normals,
                                 prefactor_report, sim_time_grid, simulate_forward,
                                 terminal_sandwich_check, transmission_scan,
                                 variance_scan,
                                 _BLOCK, _jackknife_var_se)
from fbsde_lab.model_core import affine_model, heaviside_tc, smooth_ramp_tc
from fbsde_lab.scenarios import build_model, registry_list, scenario_config
from fbsde_lab.value_pde import (Grid, ValueField, e_nodes_for, reduced_aligned_field,
                                 solve_mollified, solve_reduced_1d, time_nodes_with_tail)


def degenerate_setup(n_paths=500, e0_frac=0.5, T=0.1):
    model = affine_model(alpha=0.0, gamma=1.0, sigma=1.0, horizon_T=T)
    tc = heaviside_tc(0.0)
    t_nodes = np.union1d(np.linspace(0.0, T, 401), time_nodes_with_tail(T, 4e-5, 0.02))
    grid = Grid(t_nodes=t_nodes, e_nodes=e_nodes_for(model, 2e-5))
    field = solve_reduced_1d(model, grid, tc)
    cfg = SimConfig(n_paths=n_paths, n_steps=400, p0=np.zeros(1),
                    e0=e0_frac * T, seed=11)
    return model, field, cfg


def noisy_setup(n_paths=4000, alpha=0.5, T=0.1, seed=11, snapshots=()):
    model = affine_model(alpha=alpha, gamma=1.0, sigma=1.0, horizon_T=T)
    tc = heaviside_tc(0.0)
    t_nodes = np.union1d(np.linspace(0.0, T, 401), time_nodes_with_tail(T, 4e-5, 0.02))
    grid = Grid(t_nodes=t_nodes, e_nodes=e_nodes_for(model, 2e-5))
    field = solve_reduced_1d(model, grid, tc)
    cfg = SimConfig(n_paths=n_paths, n_steps=400, p0=np.zeros(1),
                    e0=0.5 * T, seed=seed, t_snapshots=snapshots)
    return model, field, cfg


def test_same_seed_reproduces_terminal_arrays():
    model, field, cfg = noisy_setup(n_paths=800)
    a = simulate_forward(model, field, cfg)
    b = simulate_forward(model, field, cfg)
    assert np.array_equal(a.terminal_E, b.terminal_E)
    assert np.array_equal(a.terminal_Y, b.terminal_Y)


@functools.lru_cache(maxsize=1)
def _noisy_field():
    return noisy_setup(n_paths=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # one path: se is nan
@settings(max_examples=8, deadline=None)
@given(n_paths=st.integers(1, 40), batch_size=st.integers(1, 60))
@example(n_paths=700, batch_size=128)   # several full batches and a tail
@example(n_paths=9, batch_size=1)       # one path per batch
@example(n_paths=30, batch_size=7)      # a size that does not divide n_paths
@example(n_paths=5, batch_size=64)      # one batch larger than n_paths
def test_batch_size_does_not_change_results(n_paths, batch_size):
    model, field, cfg = _noisy_field()
    cfg = dataclasses.replace(cfg, n_paths=n_paths)

    def run():   # repr spells every float exactly
        ens = simulate_forward(model, field, cfg)
        return ([getattr(ens, name) for name in ("terminal_E", "terminal_Y",
                                                 "terminal_Ebar", "escaped")],
                # the other stepper caller
                repr(feynman_kac_grad_p(model, field, cfg)))

    whole = run()
    # hypothesis refuses function-scoped fixtures such as monkeypatch
    with mock.patch.object(mc_engine, "_BATCH_PATHS", batch_size):
        split = run()
    for a, b in zip(whole[0], split[0]):
        assert np.array_equal(a, b)
    assert whole[1:] == split[1:]


@pytest.mark.parametrize("dim_p, start, message", [
    (1, {"p0": np.zeros(2)}, "p0 has shape (2,); the model needs (1,)"),
    (2, {"p0": np.zeros(1)}, "p0 has shape (1,); the model needs (2,)"),
])
def test_stepper_refuses_a_start_the_model_cannot_take(dim_p, start, message):
    _, field, cfg = _noisy_field()
    model = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1,
                         dim_p=dim_p)
    cfg = dataclasses.replace(cfg, n_paths=3, **start)
    # the refusal comes before any path is drawn or the field is read
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_forward(model, field, cfg)


@pytest.mark.parametrize("t", [0.0, 0.2])
def test_simulate_forward_refuses_a_snapshot_time_no_step_reaches(t):
    model, field, cfg = _noisy_field()
    cfg = dataclasses.replace(cfg, n_paths=3, t_snapshots=(0.05, t))
    with pytest.raises(ValueError, match=re.escape(
            f"record times [{t}] lie outside (0, T] = (0, 0.1]")):
        simulate_forward(model, field, cfg)


def test_a_snapshot_at_the_horizon_is_the_terminal_e():
    model, field, cfg = _noisy_field()
    ens = simulate_forward(model, field, dataclasses.replace(
        cfg, n_paths=20, t_snapshots=(0.1,)))
    assert np.array_equal(ens.snapshots[0.1], ens.terminal_E)


def test_field_simulators_refuse_a_field_of_another_model():
    _, field, cfg = _noisy_field()
    model = affine_model(alpha=0.4, gamma=1.0, sigma=1.0, horizon_T=0.1)
    cfg = dataclasses.replace(cfg, n_paths=3)
    hashes = [field.provenance["model_hash"], model.model_hash()]
    assert hashes[0] != hashes[1]
    runs = [lambda: simulate_forward(model, field, cfg),
            lambda: flow_squeeze_check(model, field, cfg, [(0.05, 0.03)], [0.05]),
            lambda: feynman_kac_grad_p(model, field, cfg),
            lambda: transmission_scan(field, model, [0.05]),
            # a reduced field reads w from the model it is given
            lambda: field.eval(0.0, np.zeros(1), np.array([0.05]), model)]
    for run in runs:
        with pytest.raises(ValueError) as info:
            run()
        assert all(h in str(info.value) for h in hashes), info.value


def test_a_reduced_field_is_refused_without_a_closed_form_compensator():
    # the reader adds w(t, p) to e on a reduced field, and reads w only in
    # closed form; no solve makes such a field, so this one is built by hand
    model = build_model(scenario_config("nonlinear_1d")["model"])
    grid = Grid(t_nodes=np.array([0.0, model.horizon_T]), e_nodes=e_nodes_for(model, 0.05))
    field = ValueField(grid=grid, values=np.zeros((2,) + grid.space_shape()),
                       provenance={"model_hash": model.model_hash()})
    cfg = SimConfig(n_paths=3, n_steps=100, p0=np.zeros(1), e0=0.0, seed=1)
    for run in (lambda: simulate_forward(model, field, cfg),
                lambda: field.eval(0.0, np.zeros(1), np.array([0.0]), model)):
        with pytest.raises(ValueError, match="closed-form compensator, which the "
                                             "nonlinear_1d family lacks"):
            run()


@pytest.mark.parametrize("t_list, outside", [([0.05, 0.2], "[0.2]"),
                                             ([0.0], "[0.0]")])
def test_flow_squeeze_refuses_times_outside_the_run(t_list, outside):
    model, field, cfg = _noisy_field()
    with pytest.raises(ValueError, match=re.escape(f"t_list entries {outside}")):
        flow_squeeze_check(model, field, cfg, [(0.05, 0.03)], t_list)


@pytest.mark.parametrize("first", [0, 16_384])
@pytest.mark.parametrize("d", [1, 2])
def test_path_normals_match_one_generator_per_path(first, d):
    # 2 * _BLOCK + 3 paths span both worker threads and several blocks each
    for count in (5, 2 * _BLOCK + 3):
        ref = np.stack([
            np.random.Generator(np.random.Philox(key=11, counter=[0, 0, 0, first + i]))
            .standard_normal((30, d)) for i in range(count)], axis=1)
        assert np.array_equal(path_normals(11, first, count, 30, d), ref)


def test_path_normals_under_thread_stress(monkeypatch):
    # more workers than cores, and a thread switch every microsecond
    monkeypatch.setattr(mc_engine, "_WORKERS", 5)
    count = 5 * _BLOCK + 7
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = path_normals(11, 3, count, 30, 2)
    finally:
        sys.setswitchinterval(interval)
    ref = np.stack([
        np.random.Generator(np.random.Philox(key=11, counter=[0, 0, 0, 3 + i]))
        .standard_normal((30, 2)) for i in range(count)], axis=1)
    assert np.array_equal(got, ref)


def test_degenerate_paths_hit_cap_within_tolerance():
    model, field, cfg = degenerate_setup()
    ens = simulate_forward(model, field, cfg)
    assert np.max(np.abs(ens.terminal_E - 0.0)) <= 1e-3
    assert float(np.ptp(ens.terminal_E)) == 0.0   # noiseless: identical paths


def test_e_monotone_when_feedback_nonnegative():
    # alpha = 0 keeps f = gamma * y >= 0 along paths
    model, field, cfg = degenerate_setup(e0_frac=0.5)
    import dataclasses
    cfg = dataclasses.replace(cfg, t_snapshots=(0.025, 0.05, 0.075))
    ens = simulate_forward(model, field, cfg)
    traj = [ens.snapshots[round(t, 12)] for t in (0.025, 0.05, 0.075)]
    assert np.all(traj[0] >= traj[1] - 1e-15)
    assert np.all(traj[1] >= traj[2] - 1e-15)


def test_ebar_terminal_equals_e_terminal():
    model, field, cfg = noisy_setup(n_paths=500)
    ens = simulate_forward(model, field, cfg)
    assert np.max(np.abs(ens.terminal_Ebar - ens.terminal_E)) <= 1e-9


def test_terminal_y_in_unit_interval():
    model, field, cfg = noisy_setup(n_paths=500)
    ens = simulate_forward(model, field, cfg)
    assert np.all((ens.terminal_Y >= 0) & (ens.terminal_Y <= 1))


# ---------------------------------------------------------------------------
# atom detection
# ---------------------------------------------------------------------------

def test_dirac_scan_curve_monotone_and_plateau():
    model, field, cfg = noisy_setup(n_paths=4000, alpha=0.1)
    ens = simulate_forward(model, field, cfg)
    deltas = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4]) * 0.1
    curve = dirac_scan(ens, deltas)
    assert np.all(np.diff(curve.fractions) <= 0)
    assert curve.plateau_defined
    assert curve.plateau >= 0.8


def test_path_statistics_read_the_cap_of_the_model():
    # a field built by hand records no cap; the statistics of its paths
    # must still measure the distance to the model's cap, here 0.05
    T, cap = 0.1, 0.05
    model = affine_model(alpha=0.0, gamma=1.0, sigma=1.0, cap_lambda=cap, horizon_T=T)
    tc = heaviside_tc(cap)
    t_nodes = np.union1d(np.linspace(0.0, T, 101), time_nodes_with_tail(T, 2e-4, 0.02))
    grid = Grid(t_nodes=t_nodes, e_nodes=e_nodes_for(model, 1e-4))
    solved = solve_reduced_1d(model, grid, tc)
    by_hand = ValueField(grid=solved.grid, values=solved.values,
                         provenance={"model_hash": model.model_hash()})
    cfg = SimConfig(n_paths=20, n_steps=100, p0=np.zeros(1), e0=cap + 0.5 * T, seed=3)
    runs = [simulate_forward(model, field, cfg) for field in (solved, by_hand)]
    fractions = [dirac_scan(ens, default_delta_ladder(T)).fractions.tolist() for ens in runs]
    assert fractions == [[1.0, 1.0, 0.0, 0.0, 0.0]] * 2
    counts = [conditional_support(ens, 1e-3).counts.tolist() for ens in runs]
    assert counts[0] == counts[1]
    assert len({terminal_sandwich_check(ens, tc, min_cap_distance=1e-3) for ens in runs}) == 1


def _terminal_ensemble(terminal_E):
    """A path ensemble that ends at ``terminal_E`` with the cap at 0, no
    path escaped."""
    E = np.asarray(terminal_E, dtype=float)
    return PathEnsemble(terminal_E=E, terminal_Y=np.full_like(E, np.nan),
                        terminal_Ebar=E, snapshots={},
                        escaped=np.zeros(E.shape, dtype=bool),
                        provenance={"cap_lambda": 0.0})


def test_dirac_scan_ladder_validation():
    with pytest.raises(ValueError):
        dirac_scan(_terminal_ensemble(np.zeros(10)), [1e-3, 1e-2])
    with pytest.raises(ValueError):
        dirac_scan(_terminal_ensemble(np.zeros(10)), [1e-2, 5e-3, 2e-3])


def _sampled_gaussian_control(model, cfg):
    """cap + N(0, V) drawn from Philox(seed ^ 0xC0FFEE), V from a 64-node
    Gauss-Legendre rule over |sigma^T dp_w(t)|^2 on [0, T]: the control by
    sampling, an oracle for its exact law."""
    T = model.horizon_T
    x, w = np.polynomial.legendre.leggauss(64)
    we = WEvaluator(model)
    sig = model.family_params["sigma"]
    var = sum(0.5 * T * w_k * float(np.sum((sig * we.dp_w(0.5 * T * (x_k + 1.0))) ** 2))
              for x_k, w_k in zip(x, w))
    rng = np.random.Generator(np.random.Philox(key=cfg.seed ^ 0xC0FFEE))
    return model.cap_lambda + np.sqrt(var) * rng.standard_normal(cfg.n_paths)


def test_gaussian_control_matches_closed_form_cdf():
    model = affine_model(alpha=0.1, gamma=1.0, sigma=1.0, horizon_T=0.1)
    cfg = SimConfig(n_paths=40000, n_steps=400, p0=np.zeros(1), e0=0.05, seed=11)
    deltas = np.array([1e-2, 1e-3, 1e-4]) * 0.1
    exact = gaussian_control_fractions(model, deltas)
    curve = dirac_scan(_terminal_ensemble(_sampled_gaussian_control(model, cfg)), deltas)
    assert np.all(np.abs(curve.fractions - exact) <= 3 * curve.std_errors)
    assert exact[-1] / exact[0] <= 0.05


def test_zero_hits_flags_plateau_undefined():
    curve = dirac_scan(_terminal_ensemble(np.full(100, 5.0)), [1e-1, 1e-2, 1e-3])
    assert not curve.plateau_defined


# ---------------------------------------------------------------------------
# conditional support and sandwich
# ---------------------------------------------------------------------------

def test_degenerate_conditional_support_is_single_bin():
    # deterministic characteristics: Y_T concentrates at the cone coordinate
    model, field, cfg = degenerate_setup(n_paths=300, e0_frac=0.4)
    ens = simulate_forward(model, field, cfg)
    hist = conditional_support(ens, delta=1e-3)
    assert (hist.counts > 0).sum() == 1
    assert hist.counts.argmax() == 4   # psi(0.4) = 0.4 falls in bin [0.4, 0.5)


def test_conditional_support_empty_event_raises():
    model, field, cfg = degenerate_setup(n_paths=100, e0_frac=0.5)
    ens = simulate_forward(model, field, cfg)
    ens.terminal_E[:] = 5.0
    with pytest.raises(ValueError):
        conditional_support(ens, delta=1e-6)


def test_sandwich_smooth_ramp_small_violation():
    model = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    tc = smooth_ramp_tc(0.0, 0.1)
    t_nodes = np.union1d(np.linspace(0.0, 0.1, 401),
                         time_nodes_with_tail(0.1, 4e-5, 0.02))
    grid = Grid(t_nodes=t_nodes, e_nodes=e_nodes_for(model, 1e-4))
    field = solve_reduced_1d(model, grid, tc)
    cfg = SimConfig(n_paths=4000, n_steps=400, p0=np.zeros(1),
                    e0=0.05, seed=11)
    ens = simulate_forward(model, field, cfg)
    assert terminal_sandwich_check(ens, tc) <= 0.01


# ---------------------------------------------------------------------------
# flow and variance
# ---------------------------------------------------------------------------

def test_flow_identical_starts_have_zero_difference():
    model, field, cfg = noisy_setup(n_paths=300)
    rep = flow_squeeze_check(model, field, cfg,
                             e_pairs=[(0.05, 0.05)], t_list=[0.05])
    assert rep.frac_ok == 1.0
    assert abs(rep.worst_lower_margin) <= 1e-12


def test_flow_ordering_and_envelope():
    model, field, cfg = noisy_setup(n_paths=2000)
    pairs = [(0.055, 0.03), (0.03, 0.01)]
    rep = flow_squeeze_check(model, field, cfg, pairs,
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
    model, field, cfg = degenerate_setup(n_paths=300)
    scan = variance_scan(model, field, cfg, t_list=[0.02, 0.04])
    assert np.all(scan.variances <= 1e-30)   # identical paths up to FP dust
    assert scan.below_resolution


def test_variance_scan_rejects_late_times():
    model, field, cfg = noisy_setup(n_paths=300)
    with pytest.raises(ValueError):
        variance_scan(model, field, cfg, t_list=[0.09])


def test_variance_scan_steps_on_uniform_nodes_and_requested_times(monkeypatch):
    # the Euler grid's refinement near T starts within two uniform steps of T,
    # so a scan stopping at or before T/2 never steps on it
    model = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    t_list = 0.05 * np.geomspace(0.05, 1.0, 8)   # as check_variance asks at T = 0.1
    field = reduced_aligned_field(model, heaviside_tc(0.0), 1e-4, 200,
                                  t_extra=t_list, t_stop=float(t_list[-1]))
    cfg = SimConfig(n_paths=50, n_steps=200, p0=np.zeros(1), e0=0.05, seed=3)
    grids, stepper = [], mc_engine.euler_paths
    monkeypatch.setattr(mc_engine, "euler_paths", lambda m, c, tgrid:
                        grids.append(tgrid) or stepper(m, c, tgrid))
    variance_scan(model, field, cfg, t_list)
    allowed = np.union1d(np.linspace(0.0, 0.1, 201), t_list)
    allowed = allowed[allowed <= t_list[-1] + 1e-15]
    (tgrid,) = grids

    def gaps(a, b):   # distance from each node of a to the nearest node of b
        return np.min(np.abs(a[:, None] - b[None, :]), axis=1)
    assert np.all(gaps(tgrid, allowed) <= 1e-12)
    assert np.all(gaps(allowed, tgrid) <= 1e-12)


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
    model, field, cfg = degenerate_setup(n_paths=100)
    e_grid = np.linspace(-0.05, 0.15, 101)
    prof = transmission_scan(field, model, e_grid)
    assert np.max(np.abs(prof.profiles["alpha_minus_gamma_dpv"])) <= 1e-6


def test_transmission_scan_refuses_a_full_field():
    model = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    grid = Grid(t_nodes=np.linspace(0.0, 0.1, 5),
                e_nodes=e_nodes_for(model, 4e-3), p_nodes=(np.linspace(-1, 1, 5),))
    field = solve_mollified(model, grid, heaviside_tc(0.0))
    with pytest.raises(ValueError, match=r"reduced \(dim 0\) field"):
        transmission_scan(field, model, np.linspace(-0.05, 0.15, 11))


def test_feynman_kac_constant_sigma_weight_is_one():
    model = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.2)
    tc = smooth_ramp_tc(0.0, 0.15)
    grid = Grid(t_nodes=np.linspace(0.0, 0.2, 201),
                e_nodes=e_nodes_for(model, 2e-4))
    field = solve_reduced_1d(model, grid, tc)
    cfg = SimConfig(n_paths=4000, n_steps=200, p0=np.zeros(1),
                    e0=0.06, seed=11)
    est = feynman_kac_grad_p(model, field, cfg)
    assert est.ess_fraction == pytest.approx(1.0)
    assert not est.degenerate
    h = 1e-3
    pde = float(np.asarray(
        field.eval(0.0, np.array([h]), np.array([0.06]), model)
        - field.eval(0.0, np.array([-h]), np.array([0.06]), model)).reshape(-1)[0]) / (2 * h)
    # the flat-ramp interior makes the statistical error tiny; allow the
    # first-order discretization bias of this coarse unit-test setup
    assert abs(est.estimate - float(pde)) <= 3 * est.std_error + 5e-4


def test_feynman_kac_sign_of_integrand():
    # dp_f <= 0 and de_v >= 0 force a non-negative estimate
    model = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.2)
    tc = smooth_ramp_tc(0.0, 0.15)
    grid = Grid(t_nodes=np.linspace(0.0, 0.2, 201),
                e_nodes=e_nodes_for(model, 5e-4))
    field = solve_reduced_1d(model, grid, tc)
    cfg = SimConfig(n_paths=2000, n_steps=200, p0=np.zeros(1),
                    e0=0.0, seed=13)
    est = feynman_kac_grad_p(model, field, cfg)
    assert est.estimate >= -3 * est.std_error


def _grid_monitored_trap(model, sim):
    """The fraction of paths on which |M| stays below ell1/16 at the times of
    a uniform ``sim.n_steps`` grid, and its standard error: M_t =
    int_0^t <sigma^T dp_w, dW> / (T - s), stepped on ``euler_paths``
    increments (a trap test by path loop, watching M at grid times only)."""
    T = model.horizon_T
    sig, we = model.family_params["sigma"], WEvaluator(model)
    on_F = []
    for _, count, steps in euler_paths(model, sim, np.linspace(0.0, T, sim.n_steps + 1)):
        M, sup = np.zeros(count), np.zeros(count)
        for _, t, _, P, _, dW in steps:
            M += dW @ (sig * we.dp_w(t)) / (T - t)   # <sigma^T dp_w, dW>
            sup = np.maximum(sup, np.abs(M))
        on_F.append(sup < model.ell1 / 16.0)
    p_hat = float(np.mean(np.concatenate(on_F)))
    return p_hat, np.sqrt(p_hat * (1 - p_hat) / sim.n_paths)


@pytest.mark.parametrize("horizon", [0.4, 0.1])
def test_trap_probability_matches_the_strip_series(horizon):
    # affine family: M_t = sigma |alpha| W_t, so F is a Brownian strip event
    # over tau = sigma^2 |alpha|^2 T; a path loop sees the sup only at its
    # grid times, which the barrier shift of Broadie, Glasserman and Kou
    # (0.5826 sigma |alpha| sqrt(dt)) corrects for
    cfg = scenario_config("affine_dirac")
    model = build_model(cfg["model"], horizon=horizon)
    n_steps = 500
    sim = SimConfig(n_paths=20_000, n_steps=n_steps, p0=np.zeros(1),
                    e0=0.0, seed=8)
    p_hat, se = _grid_monitored_trap(model, sim)
    scale = model.family_params["sigma"] * float(np.linalg.norm(model.family_params["alpha"]))
    a = model.ell1 / 16 + 0.5826 * scale * np.sqrt(horizon / n_steps)
    x = WEvaluator(model).noise_energy(0.0, horizon, 2) / a**2
    shifted = (_strip_images if x < _STRIP_SWITCH else _strip_modes)(x)
    assert abs(p_hat - shifted) <= 3 * se, (p_hat, shifted)


def test_trap_probability_increases_toward_horizon():
    p_F = [trap_probability(affine_model(alpha=0.1, gamma=1.0, sigma=1.0, horizon_T=T))
           for T in (0.4, 0.1)]
    assert p_F[1] > p_F[0]


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(n_paths=10, n_steps=50, p0=np.zeros(1), e0=0.0, seed=1)
    with pytest.raises(ValueError, match=re.escape("n_paths (0) must be >= 1")):
        SimConfig(n_paths=0, n_steps=200, p0=np.zeros(1), e0=0.0, seed=1)
    for seed in (-1, 2**64, 7.0, True, "7"):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            SimConfig(n_paths=10, n_steps=200, p0=np.zeros(1), e0=0.0,
                      seed=seed)
    SimConfig(n_paths=10, n_steps=200, p0=np.zeros(1), e0=0.0,
              seed=2**64 - 1)


@pytest.mark.parametrize("name", [entry["name"] for entry in registry_list()])
def test_batch_normals_stay_within_budget(monkeypatch, name):
    # every scenario's checks include the path-reading sandwich; the field is
    # the scenario's own grid with unsolved (zero) values, which is all the
    # time grid reads, and the batches are listed but never stepped
    def unsolved(model, grid, tc):
        return ValueField(grid=grid, values=np.zeros((len(grid.t_nodes),) + grid.space_shape()))
    monkeypatch.setattr(value_pde, "solve_reduced_1d", unsolved)
    monkeypatch.setattr(value_pde, "solve_mollified", unsolved)
    cfg = scenario_config(name)
    model, tc = scenario_model(cfg)
    sim = scenario_sim(cfg, model)
    tgrid = sim_time_grid(sim, scenario_field(cfg, model, tc))
    largest = max(count for _, count, _ in euler_paths(model, sim, tgrid))
    assert largest * (len(tgrid) - 1) * model.dim_p * 8 <= 40e6


# ---------------------------------------------------------------------------
# the bytes of every path read
# ---------------------------------------------------------------------------

def _feed(h, x):
    """Feed ``x`` into the hash ``h``: arrays by dtype, shape and bytes, records
    field by field (a field's provenance left out), other values by repr."""
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            if f.name != "provenance":
                _feed(h, getattr(x, f.name))
    elif isinstance(x, dict):
        for key in sorted(x):
            h.update(repr(key).encode())
            _feed(h, x[key])
    elif isinstance(x, (list, tuple)):
        for item in x:
            _feed(h, item)
    elif isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    else:
        h.update(repr(x).encode())


def _light_full_field(alpha, tc, T=0.1):
    model = affine_model(alpha=alpha, gamma=1.0, sigma=1.0, horizon_T=T)
    dim = model.dim_p
    grid = Grid(t_nodes=np.linspace(0.0, T, 11), e_nodes=e_nodes_for(model, 4e-3),
                p_nodes=(np.linspace(-1.5, 1.5, 9),) * dim)
    return model, solve_mollified(model, grid, tc)


def test_path_reads_are_pinned():
    # every function that reads a field along paths, on every kind of field
    # (reduced with noise, one and two p-dimensions); the digests were taken
    # before the readers were merged into one, and a change that moves
    # numbers on purpose updates them and says so in CHANGES.md
    model, field, cfg = _noisy_field()
    cfg = dataclasses.replace(cfg, n_paths=300, t_snapshots=(0.03, 0.07))
    m1, f1 = _light_full_field(0.5, heaviside_tc(0.0))
    m2, f2 = _light_full_field([0.5, 0.3], heaviside_tc(0.0))
    cfg2 = dataclasses.replace(cfg, p0=np.zeros(2))
    ramp = smooth_ramp_tc(0.0, 0.15)
    mr = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.2)
    fr = solve_reduced_1d(mr, Grid(t_nodes=np.linspace(0.0, 0.2, 201),
                                   e_nodes=e_nodes_for(mr, 2e-4)), ramp)
    mr1, fr1 = _light_full_field(0.5, ramp, T=0.2)
    cfg_fk = SimConfig(n_paths=200, n_steps=200, p0=np.zeros(1), e0=0.06, seed=13)
    e_pts = np.linspace(-0.05, 0.15, 7)
    p_pts = np.linspace(-0.4, 0.4, 7)
    probes = {
        "forward_dim0": lambda: simulate_forward(model, field, cfg),
        "forward_dim1": lambda: simulate_forward(m1, f1, cfg),
        "forward_dim2": lambda: simulate_forward(m2, f2, cfg2),
        "flow": lambda: flow_squeeze_check(model, field, cfg,
                                           [(0.06, 0.04), (0.07, 0.03)], [0.03, 0.06]),
        "grad_p_dim0": lambda: feynman_kac_grad_p(mr, fr, cfg_fk),
        "grad_p_dim1": lambda: feynman_kac_grad_p(mr1, fr1, cfg_fk),
        "transmission": lambda: transmission_scan(field, model,
                                                  np.linspace(-0.05, 0.15, 101)),
        "eval": lambda: [field.eval(0.03, p_pts[:, None], e_pts, model),
                         f1.eval(0.05, p_pts[:, None], e_pts, m1),
                         f2.eval(0.05, np.stack([p_pts, -p_pts], axis=1), e_pts, m2)],
        "variance": lambda: variance_scan(model, field, cfg, [0.01, 0.02, 0.04]),
    }
    digests = {}
    for name, probe in probes.items():
        h = hashlib.sha256()
        _feed(h, probe())
        digests[name] = h.hexdigest()[:16]
    assert digests == {
        "forward_dim0": "6587f6160abbfb27",
        "forward_dim1": "19b57d94f04222a1",
        "forward_dim2": "ed3f740883fc5cf7",
        "flow": "935daee0a352ca7e",
        "grad_p_dim0": "d037603fcf0c7357",
        "grad_p_dim1": "8e88f57c9cdad2cb",
        "transmission": "81571a758874935b",
        "eval": "0df0653f3bbb80c5",
        "variance": "7eb874296223094d",
    }
