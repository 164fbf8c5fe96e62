import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from fbsde_lab.burgers_ref import WEvaluator, psi
from fbsde_lab import value_pde
from fbsde_lab.model_core import (affine_model, default_mollifier, heaviside_tc,
                                  linear_drift_model, mollify, smooth_ramp_tc)
from fbsde_lab.scenarios import build_model
from fbsde_lab.value_pde import (CFLError, Grid, _thomas_factors, _thomas_sweep,
                                 _tridiag, _upwind_transport, conservation_gap,
                                 e_nodes_for, extract_limit, gradient_fields,
                                 gradient_band_violation, reduced_diffusion_integral,
                                 solve_mollified, solve_reduced_1d,
                                 time_nodes_with_tail, uniform_time_nodes)


def small_model(alpha=0.5, gamma=1.0, sigma=1.0, T=0.2):
    return affine_model(alpha=alpha, gamma=gamma, sigma=sigma, horizon_T=T)


def small_grid(model, de=2e-3, n_t=40, n_p=21, p_half=2.0, pad=0.0):
    return Grid(t_nodes=uniform_time_nodes(0.0, model.horizon_T, n_t),
                e_nodes=e_nodes_for(model, de, pad=pad),
                p_nodes=(np.linspace(-p_half, p_half, n_p),))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(t_nodes=np.array([0.0, 0.0, 1.0]), e_nodes=np.linspace(0, 1, 11))
    with pytest.raises(ValueError):
        Grid(t_nodes=np.array([0.0, 1.0]), e_nodes=np.array([0.0, 0.1, 0.3, 0.35]))
    with pytest.raises(ValueError):
        Grid(t_nodes=np.array([0.0, 1.0]), e_nodes=np.linspace(0, 1, 11),
             p_nodes=(np.linspace(0, 1, 5),) * 3)


def test_terminal_slice_matches_tc_exactly():
    m = small_model()
    tc = heaviside_tc(0.0)
    g = small_grid(m)
    vf = solve_mollified(m, g, tc)
    expect = np.broadcast_to(tc(g.e_nodes), vf.values[-1].shape).copy()
    expect[..., 0], expect[..., -1] = 0.0, 1.0
    assert np.array_equal(vf.values[-1], expect)


def test_values_in_unit_interval_and_monotone_in_e():
    m = small_model()
    for tc, eps in [(heaviside_tc(0.0), 0.0),
                    (smooth_ramp_tc(0.0, 0.2), 0.0),
                    (heaviside_tc(0.0), 0.1)]:
        vf = solve_mollified(m, small_grid(m), tc, epsilon=eps)
        assert vf.values.min() >= 0.0
        assert vf.values.max() <= 1.0
        de = vf.grid.de
        assert np.min(np.diff(vf.values, axis=-1)) >= -1e-6 * de


def test_discrete_comparison_principle():
    # ordered terminal conditions produce ordered fields
    m = small_model()
    g = small_grid(m)
    lo_tc = smooth_ramp_tc(0.05, 0.3)
    hi_tc = smooth_ramp_tc(-0.05, 0.3)   # shifted left => pointwise larger
    x = g.e_nodes
    assert np.all(hi_tc(x) >= lo_tc(x))
    v_hi = solve_mollified(m, g, hi_tc)
    v_lo = solve_mollified(m, g, lo_tc)
    assert np.max(v_lo.values - v_hi.values) <= 1e-6


def test_far_field_levels_for_modest_compensator():
    # small alpha so the compensator shift stays well inside the margin
    m = affine_model(alpha=0.25, gamma=1.0, sigma=1.0, horizon_T=0.2)
    vf = solve_mollified(m, small_grid(m, p_half=1.0), heaviside_tc(0.0))
    g = vf.grid
    for t in g.t_nodes[g.t_nodes >= 0.1]:
        if t == g.horizon:
            continue
        sl = vf.values_at(float(t))
        assert np.all(sl[:, -2] >= 0.95)
        assert np.all(sl[:, 1] <= 0.05)


def test_cfl_refusal_reports_required_step():
    m = small_model()
    with pytest.raises(CFLError):
        solve_mollified(m, small_grid(m), heaviside_tc(0.0),
                        max_internal_steps=3)


def test_domain_coverage_enforced():
    m = small_model()
    g = Grid(t_nodes=uniform_time_nodes(0.0, m.horizon_T, 10),
             e_nodes=np.linspace(-0.1, 0.1, 64),
             p_nodes=(np.linspace(-1, 1, 11),))
    with pytest.raises(ValueError):
        solve_mollified(m, g, heaviside_tc(0.0))


def test_divergence_guard_is_quiet_on_sane_runs():
    m = small_model()
    vf = solve_mollified(m, small_grid(m), heaviside_tc(0.0))
    assert vf.provenance["scheme_id"] == "upwind_semi_implicit_v1"
    assert vf.provenance["mollifier_n"] == "heaviside"


# ---------------------------------------------------------------------------
# reduced solver
# ---------------------------------------------------------------------------

def test_reduced_mirror_symmetry():
    m = affine_model(alpha=0.8, gamma=1.0, sigma=1.0, horizon_T=0.4)
    g = Grid(t_nodes=uniform_time_nodes(0.0, 0.4, 100),
             e_nodes=e_nodes_for(m, 2e-4))
    vr = solve_reduced_1d(m, g, heaviside_tc(0.0))
    worst = 0.0
    for t in vr.grid.t_nodes[vr.grid.t_nodes <= 0.35][::10]:
        s = 0.4 - float(t)
        eb = g.e_nodes
        keep = (eb > -0.3) & (eb < 1.0 * s + 0.3)
        refl = 1.0 * s - eb[keep]
        worst = max(worst, float(np.max(np.abs(
            vr.eval_bar(float(t), eb[keep]) + vr.eval_bar(float(t), refl) - 1.0))))
    assert worst <= 2e-2


def test_reduced_zero_noise_limit_is_rarefaction():
    m = affine_model(alpha=0.0, gamma=1.0, sigma=1.0, horizon_T=0.2)
    de = 2e-4
    g = Grid(t_nodes=uniform_time_nodes(0.0, 0.2, 50), e_nodes=e_nodes_for(m, de))
    vr = solve_reduced_1d(m, g, heaviside_tc(0.0))
    for t in (0.0, 0.1):
        s = 0.2 - t
        ref = psi(g.e_nodes / s)
        # linear error inside the fan, first-order corner rounding at its edges
        assert np.max(np.abs(vr.values_at(t) - ref)) \
            <= 2 * de / s + 1.5 * np.sqrt(de * s) / s


def test_reduced_requires_dim0_and_affine():
    m = small_model()
    with pytest.raises(ValueError):
        solve_reduced_1d(m, small_grid(m), heaviside_tc(0.0))


# ---------------------------------------------------------------------------
# derivative fields and reports
# ---------------------------------------------------------------------------

def test_gradient_band_holds_on_small_solve():
    m = small_model()
    vf = solve_mollified(m, small_grid(m), heaviside_tc(0.0))
    entry = gradient_band_violation(vf, gradient_fields(vf), m)
    assert entry.passed


def test_ramp_far_from_cap_has_flat_gradient():
    m = small_model()
    vf = solve_mollified(m, small_grid(m), smooth_ramp_tc(0.0, 0.1))
    dv = gradient_fields(vf)
    e = vf.grid.e_nodes
    far = (np.abs(e) > 0.35) & (np.abs(e) < 0.39)
    j_mid = len(vf.grid.t_nodes) // 2
    assert np.max(np.abs(dv.de_v[j_mid][:, far])) <= 1e-6


def test_dp_v_bound_stable_under_refinement():
    m = small_model(alpha=0.8)
    tc = heaviside_tc(0.0)
    tops = []
    for de, n_p in ((2e-3, 21), (1e-3, 41)):
        vf = solve_mollified(m, small_grid(m, de=de, n_p=n_p), tc)
        dv = gradient_fields(vf)
        j = len(vf.grid.t_nodes) // 2
        tops.append(float(np.max(np.abs(dv.dp_v[j]))))
    assert abs(tops[1] - tops[0]) <= 0.2 * max(tops)


def test_conservation_gap_basics():
    m = small_model()
    tc = heaviside_tc(0.0)
    g = small_grid(m, pad=0.3)
    mol = default_mollifier(8)
    up = solve_mollified(m, g, mollify(tc, mol, "upper"), mollifier_n=8)
    lo = solve_mollified(m, g, mollify(tc, mol, "lower"), mollifier_n=8)
    assert conservation_gap(up, up, m=0.2, t=0.1, p=[0.0]) == 0.0
    gap = conservation_gap(up, lo, m=0.2, t=0.1, p=[0.0])
    assert gap > 0
    with pytest.raises(ValueError):
        conservation_gap(up, lo, m=10.0, t=0.1, p=[0.0])


def test_terminal_window_gap_matches_quadrature():
    # at t = T the window integral of (upper - lower) is 2 * mean / n
    tc = heaviside_tc(0.0)
    for n in (4, 16):
        mol = default_mollifier(n)
        up, lo = mollify(tc, mol, "upper"), mollify(tc, mol, "lower")
        x = np.linspace(-2.0 / n, 2.0 / n, 40001)
        gap = np.trapezoid(up(x) - lo(x), x)
        assert gap == pytest.approx(2 * mol.bump_mean / n, rel=1e-3)


def test_extract_limit_identical_fields():
    m = small_model()
    vf = solve_mollified(m, small_grid(m), heaviside_tc(0.0))
    _, rep = extract_limit([vf, vf, vf])
    assert rep.gaps == (0.0, 0.0)
    assert not rep.flagged_non_convergent


def test_extract_limit_viscosity_sweep_decreasing():
    m = small_model()
    g = small_grid(m)
    tc = smooth_ramp_tc(0.0, 0.2)
    fields = [solve_mollified(m, g, tc, epsilon=eps) for eps in (0.2, 0.1, 0.05)]
    last, rep = extract_limit(fields)
    assert rep.decreasing
    assert last is fields[-1]


def test_extract_limit_mollifier_sequence_monotone():
    m = small_model()
    g = small_grid(m, pad=0.3)
    tc = heaviside_tc(0.0)
    fields = [solve_mollified(m, g, mollify(tc, default_mollifier(n), "upper"),
                              mollifier_n=n) for n in (4, 8, 16)]
    for a, b in zip(fields[:-1], fields[1:]):
        assert np.max(b.values - a.values) <= 1e-6
    _, rep = extract_limit(fields)
    assert isinstance(rep.gaps, tuple)


def test_extract_limit_flags_non_convergence():
    m = small_model()
    g = small_grid(m)
    tc = smooth_ramp_tc(0.0, 0.2)
    f1 = solve_mollified(m, g, tc, epsilon=0.05)
    f2 = solve_mollified(m, g, tc, epsilon=0.1)
    f3 = solve_mollified(m, g, tc, epsilon=0.3)
    _, rep = extract_limit([f1, f2, f3])
    assert rep.flagged_non_convergent


# ---------------------------------------------------------------------------
# two forward dimensions
# ---------------------------------------------------------------------------

def test_dim2_solve_matches_reduced_reconstruction():
    m = affine_model(alpha=[0.4, 0.2], gamma=1.0, sigma=1.0, horizon_T=0.15)
    g = Grid(t_nodes=uniform_time_nodes(0.0, 0.15, 30),
             e_nodes=e_nodes_for(m, 2e-3),
             p_nodes=(np.linspace(-1.5, 1.5, 17), np.linspace(-1.5, 1.5, 17)))
    vf = solve_mollified(m, g, heaviside_tc(0.0))
    assert vf.values.min() >= 0.0 and vf.values.max() <= 1.0
    assert np.min(np.diff(vf.values, axis=-1)) >= -1e-6 * g.de
    red = solve_reduced_1d(
        m, Grid(t_nodes=g.t_nodes, e_nodes=e_nodes_for(m, 5e-4)),
        heaviside_tc(0.0))
    we = WEvaluator(mode="closed_form_affine", model=m)
    worst = 0.0
    e = g.e_nodes
    keep_e = np.abs(e) <= 0.15
    for t in (0.0, 0.075):
        sl = vf.values_at(t)
        for i in (6, 8, 10):
            for j in (6, 8, 10):
                p = np.array([g.p_nodes[0][i], g.p_nodes[1][j]])
                eb = e[keep_e] + we.evaluate(t, p)
                worst = max(worst, float(np.max(np.abs(
                    sl[i, j][keep_e] - red.eval_bar(t, eb)))))
    assert worst <= 5e-2


def test_time_node_builders():
    t = time_nodes_with_tail(0.0, 1.0, 10, s_min=1e-3, ratio=1.2)
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(t) > 0)
    assert np.min(1.0 - t[t < 1.0]) == pytest.approx(1e-3)
    t2 = time_nodes_with_tail(0.0, 1.0, 0, s_min=1e-3)
    assert t2[0] == 0.0 and t2[-1] == 1.0


# ---------------------------------------------------------------------------
# allocation-free sub-steps against the plain formulas
# ---------------------------------------------------------------------------

def _transport_reference(u, speed, dt_over_de):
    """The allocating upwind step the scratch-buffer version replaces."""
    back = np.empty_like(u)
    back[..., 1:] = u[..., 1:] - u[..., :-1]
    back[..., 0] = 0.0
    fwd = np.empty_like(u)
    fwd[..., :-1] = u[..., 1:] - u[..., :-1]
    fwd[..., -1] = 0.0
    a_plus = np.maximum(speed, 0.0)
    a_minus = np.minimum(speed, 0.0)
    u -= dt_over_de * (a_plus * back + a_minus * fwd)


@pytest.mark.parametrize("p_shape", [(), (7,), (5, 6)])
def test_upwind_transport_is_bit_identical_to_formula(p_shape):
    rng = np.random.default_rng(len(p_shape))
    u = np.sort(rng.uniform(0.0, 1.0, p_shape + (50,)), axis=-1)
    speed = rng.uniform(-2.0, 2.0, u.shape)
    ref = u.copy()
    _transport_reference(ref, speed, 0.3)
    scratch = [np.full_like(u, np.nan) for _ in range(4)]
    for _ in range(2):          # stale scratch contents must not leak in
        v = u.copy()
        _upwind_transport(v, speed, 0.3, *scratch)
        assert np.array_equal(v, ref)


def _reduced_reference(model, grid, tc):
    """The reduced march with the allocating transport and inline matrix."""
    gamma, d_int, de = model.family_params["gamma"], reduced_diffusion_integral(model), grid.de
    dt_cfl = 0.85 * de / (2.0 * gamma)
    u = tc(grid.e_nodes).astype(float)
    u[0], u[-1] = 0.0, 1.0
    s = np.sort(grid.horizon - grid.t_nodes)
    out = [u.copy()]
    for s0, s1 in zip(s[:-1], s[1:]):
        n_sub = max(1, int(np.ceil((s1 - s0) / dt_cfl)))
        c = (s1 - s0) / n_sub * gamma / de
        for _ in range(n_sub):
            u[1:-1] -= c * u[1:-1] * (u[1:-1] - u[:-2])
            u[0], u[-1] = 0.0, 1.0
        r = d_int(s0, s1) / de**2
        if r > 0.0:
            ab = np.zeros((3, len(u)))
            ab[1, :] = 1.0 + 2.0 * r
            ab[0, 1:] = -r
            ab[2, :-1] = -r
            ab[1, 0] = ab[1, -1] = 1.0
            ab[0, 1] = 0.0
            ab[2, -2] = 0.0
            u = solve_banded((1, 1), ab, u)
        np.clip(u, 0.0, 1.0, out=u)        # the solver's roundoff snap
        out.append(u.copy())
    return np.array(out[::-1])


@pytest.mark.parametrize("alpha", [0.0, 0.8])
def test_reduced_solve_is_bit_identical_to_formula(alpha):
    m = affine_model(alpha=alpha, gamma=1.0, sigma=1.0, horizon_T=0.2)
    g = Grid(t_nodes=time_nodes_with_tail(0.0, 0.2, 10, s_min=2e-3),
             e_nodes=e_nodes_for(m, 1e-3))
    tc = heaviside_tc(0.0)
    assert np.array_equal(solve_reduced_1d(m, g, tc).values,
                          _reduced_reference(m, g, tc))


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["affine", "drift_up", "drift_down"]),
       alpha=st.floats(0.0, 0.9), ramp=st.one_of(st.none(), st.floats(0.01, 0.3)),
       T=st.floats(0.12, 0.3), n_t=st.integers(2, 3))
def test_windowed_reduced_solve_matches_full_grid_loop(family, alpha, ramp, T, n_t):
    if family == "affine":
        m = affine_model(alpha=alpha, gamma=1.0, sigma=1.0, horizon_T=T)
    else:
        lam = 1.0 if family == "drift_up" else -1.0
        m = linear_drift_model(lam=lam, alpha=alpha, gamma=1.0, horizon_T=T)
    de = 1e-3
    g = Grid(t_nodes=uniform_time_nodes(0.0, T, n_t), e_nodes=e_nodes_for(m, de))
    # every span takes several window blocks of substeps
    assert T / (n_t - 1) / (0.85 * de / 2.0) > 2 * value_pde._WINDOW_BLOCK
    tc = heaviside_tc(0.0) if ramp is None else smooth_ramp_tc(0.0, ramp)
    assert np.array_equal(solve_reduced_1d(m, g, tc).values,
                          _reduced_reference(m, g, tc))


def test_windowed_reduced_solve_skips_a_nonzero_prefix_and_reaches_the_edge(monkeypatch):
    m = affine_model(alpha=0.3, gamma=1.0, sigma=1.0, horizon_T=0.2)
    g = Grid(t_nodes=uniform_time_nodes(0.0, 0.2, 3), e_nodes=e_nodes_for(m, 1e-3))
    tc = heaviside_tc(0.0)
    ref = _reduced_reference(m, g, tc)
    assert np.any((ref > 0.0) & (ref < 2.0**-60))
    active_window, windows = value_pde._active_window, []

    def spy(u, k, scratch):
        a, b = active_window(u, k, scratch)
        windows.append((b, bool(np.any(u[1:a] != 0.0))))
        return a, b

    monkeypatch.setattr(value_pde, "_active_window", spy)
    assert np.array_equal(solve_reduced_1d(m, g, tc).values, ref)
    assert any(frozen_nonzero for _, frozen_nonzero in windows)
    assert any(b == len(g.e_nodes) - 1 for b, _ in windows)


@pytest.mark.parametrize("batch", [(), (4,)])
def test_thomas_sweep_matches_solve_banded(batch):
    rng = np.random.default_rng(3)
    n, ne = 11, 40
    r = rng.uniform(0.0, 5.0, (n,) + batch + (1,))
    q = rng.uniform(-3.0, 3.0, (n,) + batch + (1,))
    ab = _tridiag(r, q, n, True)
    # a Neumann M-matrix: non-positive off-diagonals, diagonally dominant
    assert np.all(ab[0] <= 0.0) and np.all(ab[2] <= 0.0)
    assert np.all(ab[1] >= -np.roll(ab[0], -1, axis=0) - np.roll(ab[2], 1, axis=0))
    x = rng.uniform(0.0, 1.0, (n,) + batch + (ne,))
    ref = np.empty_like(x)
    for idx in np.ndindex(batch):
        sub = (slice(None),) + idx
        ref[sub] = solve_banded((1, 1), ab[(slice(None),) + sub][..., 0], x[sub])
    _thomas_sweep(x, *_thomas_factors(ab), np.empty(x.shape[1:]))
    assert np.max(np.abs(x - ref)) <= 1e-14


# ---------------------------------------------------------------------------
# scheme invariants on random small problems
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["affine", "nonlinear", "reduced"]),
       coef=st.floats(0.0, 0.9), T=st.floats(0.05, 0.2),
       shift=st.floats(0.0, 0.1), width=st.floats(0.02, 0.3),
       n_p=st.integers(3, 9), n_t=st.integers(2, 8))
def test_scheme_invariants_on_random_grids(family, coef, T, shift, width, n_p, n_t):
    if family == "nonlinear":
        m = build_model({"family": "nonlinear_1d", "f0_amplitude": 0.2 * coef,
                         "sigma": 0.75, "horizon_T": T})
    else:
        m = affine_model(alpha=coef, gamma=1.0, sigma=1.0, horizon_T=T)
    e = e_nodes_for(m, 5e-3, pad=0.2)
    p = () if family == "reduced" else (np.linspace(-1.5, 1.5, n_p),)
    g = Grid(t_nodes=uniform_time_nodes(0.0, T, n_t), e_nodes=e, p_nodes=p)
    solve = solve_reduced_1d if family == "reduced" else solve_mollified
    hi = solve(m, g, smooth_ramp_tc(-shift, width)).values
    lo = solve(m, g, smooth_ramp_tc(shift, width)).values
    for v in (hi, lo):
        assert v.min() >= 0.0 and v.max() <= 1.0
        assert np.min(np.diff(v, axis=-1)) >= -1e-12
    assert np.max(lo - hi) <= 1e-12
