import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from fbsde_lab.burgers_ref import WEvaluator, psi
from fbsde_lab import value_pde
from fbsde_lab.model_core import (BUMP_MEAN, affine_model, heaviside_tc,
                                  linear_drift_model, mollify, smooth_ramp_tc)
from fbsde_lab.scenarios import build_model
from fbsde_lab.value_pde import (CFLError, Grid, ValueField, _e_solve, _thomas_factors,
                                 _thomas_sweep, _tridiag, _upwind_transport,
                                 conservation_gap, e_nodes_for, gradient_fields,
                                 gradient_band_violation, solve_mollified, solve_reduced_1d,
                                 time_nodes_with_tail)


def small_model(alpha=0.5, gamma=1.0, sigma=1.0, T=0.2):
    return affine_model(alpha=alpha, gamma=gamma, sigma=sigma, horizon_T=T)


def small_grid(model, de=2e-3, n_t=40, n_p=21, p_half=2.0, pad=0.0):
    return Grid(t_nodes=np.linspace(0.0, model.horizon_T, n_t + 1),
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


@pytest.mark.parametrize("axis", ["t_nodes", "e_nodes", "p_nodes[0]"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_refuses_a_node_that_is_not_finite(axis, bad):
    axes = {"t_nodes": np.array([0.0, 0.5, 1.0]), "e_nodes": np.linspace(0, 1, 11),
            "p_nodes[0]": np.linspace(-1, 1, 5)}
    axes[axis][-1] = bad
    with pytest.raises(ValueError, match=re.escape(f"'{axis}' must hold finite")):
        Grid(t_nodes=axes["t_nodes"], e_nodes=axes["e_nodes"],
             p_nodes=(axes["p_nodes[0]"],))


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
    for tc in (heaviside_tc(0.0), smooth_ramp_tc(0.0, 0.2)):
        vf = solve_mollified(m, small_grid(m), tc)
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


def test_cfl_refusal_reports_required_step(monkeypatch):
    monkeypatch.setattr(value_pde, "_MAX_INTERNAL_STEPS", 3)
    m = small_model()
    red = Grid(t_nodes=np.linspace(0.0, m.horizon_T, 11),
               e_nodes=e_nodes_for(m, 2e-3))
    for solve, grid in ((solve_mollified, small_grid(m)), (solve_reduced_1d, red)):
        with pytest.raises(CFLError, match=r"stability requires dt <= \S+ "
                                           r"\(\d+ steps > budget 3\)"):
            solve(m, grid, heaviside_tc(0.0))


def test_domain_coverage_enforced():
    m = small_model()
    g = Grid(t_nodes=np.linspace(0.0, m.horizon_T, 11),
             e_nodes=np.linspace(-0.1, 0.1, 64),
             p_nodes=(np.linspace(-1, 1, 11),))
    with pytest.raises(ValueError):
        solve_mollified(m, g, heaviside_tc(0.0))


def test_solvers_refuse_a_time_axis_that_does_not_start_at_0():
    # every path starts at t = 0, so every field holds the slice there
    m = small_model()
    late = np.linspace(0.06, m.horizon_T, 11)
    full = Grid(t_nodes=late, e_nodes=e_nodes_for(m, 2e-3),
                p_nodes=(np.linspace(-1, 1, 11),))
    red = Grid(t_nodes=late, e_nodes=e_nodes_for(m, 2e-3))
    for solve, grid in ((solve_mollified, full), (solve_reduced_1d, red)):
        with pytest.raises(ValueError, match=r"grid starts at t = 0\.06, not at 0"):
            solve(m, grid, heaviside_tc(0.0))


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
    g = Grid(t_nodes=np.linspace(0.0, 0.4, 101),
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
    g = Grid(t_nodes=np.linspace(0.0, 0.2, 51), e_nodes=e_nodes_for(m, de))
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
    entry = gradient_band_violation(vf, m)
    assert entry.passed


def test_ramp_far_from_cap_has_flat_gradient():
    m = small_model()
    vf = solve_mollified(m, small_grid(m), smooth_ramp_tc(0.0, 0.1))
    de_v = gradient_fields(vf)
    e = vf.grid.e_nodes
    far = (np.abs(e) > 0.35) & (np.abs(e) < 0.39)
    j_mid = len(vf.grid.t_nodes) // 2
    assert np.max(np.abs(de_v[j_mid][:, far])) <= 1e-6


def test_dp_v_bound_stable_under_refinement():
    m = small_model(alpha=0.8)
    tc = heaviside_tc(0.0)
    tops = []
    for de, n_p in ((2e-3, 21), (1e-3, 41)):
        vf = solve_mollified(m, small_grid(m, de=de, n_p=n_p), tc)
        j = len(vf.grid.t_nodes) // 2
        dp_v = np.gradient(vf.values[j], vf.grid.dp[0], axis=0)
        tops.append(float(np.max(np.abs(dp_v))))
    assert abs(tops[1] - tops[0]) <= 0.2 * max(tops)


def test_conservation_gap_basics():
    m = small_model()
    tc = heaviside_tc(0.0)
    g = small_grid(m, pad=0.3)
    up = solve_mollified(m, g, mollify(tc, 8, "upper"))
    lo = solve_mollified(m, g, mollify(tc, 8, "lower"))
    assert conservation_gap(up, up) == 0.0
    assert conservation_gap(up, lo) > 0


def test_conservation_gap_refuses_a_window_past_the_e_domain():
    # no solve makes an e-axis narrower than cap +- T/2, so this field is
    # built by hand: its e-axis reaches T/4 either side of the cap
    T = 0.2
    grid = Grid(t_nodes=np.linspace(0.0, T, 3), e_nodes=np.linspace(-0.05, 0.05, 11))
    field = ValueField(grid=grid, values=np.zeros((3, 11)),
                       provenance={"cap_lambda": 0.0})
    with pytest.raises(ValueError, match="integration window exceeds the e-domain"):
        conservation_gap(field, field)


def test_terminal_window_gap_matches_quadrature():
    # at t = T the window integral of (upper - lower) is 2 * mean / n
    tc = heaviside_tc(0.0)
    for n in (4, 16):
        up, lo = mollify(tc, n, "upper"), mollify(tc, n, "lower")
        x = np.linspace(-2.0 / n, 2.0 / n, 40001)
        gap = np.trapezoid(up(x) - lo(x), x)
        assert gap == pytest.approx(2 * BUMP_MEAN / n, rel=1e-3)


def _window_sup_gaps(fields, delta=0.05):
    """Sup-norm gaps between successive fields over the slices t <= T - delta."""
    keep = fields[0].grid.t_nodes <= fields[0].grid.horizon - delta
    return [float(np.max(np.abs(a.values[keep] - b.values[keep])))
            for a, b in zip(fields[:-1], fields[1:])]


def test_mollifier_sequence_monotone():
    m = small_model()
    g = small_grid(m, pad=0.3)
    tc = heaviside_tc(0.0)
    fields = [solve_mollified(m, g, mollify(tc, n, "upper"))
              for n in (4, 8, 16)]
    for a, b in zip(fields[:-1], fields[1:]):
        assert np.max(b.values - a.values) <= 1e-6
    assert all(gap > 0 for gap in _window_sup_gaps(fields))


# ---------------------------------------------------------------------------
# two forward dimensions
# ---------------------------------------------------------------------------

def test_dim2_solve_matches_reduced_reconstruction():
    m = affine_model(alpha=[0.4, 0.2], gamma=1.0, sigma=1.0, horizon_T=0.15)
    g = Grid(t_nodes=np.linspace(0.0, 0.15, 31),
             e_nodes=e_nodes_for(m, 2e-3),
             p_nodes=(np.linspace(-1.5, 1.5, 17), np.linspace(-1.5, 1.5, 17)))
    vf = solve_mollified(m, g, heaviside_tc(0.0))
    assert vf.values.min() >= 0.0 and vf.values.max() <= 1.0
    assert np.min(np.diff(vf.values, axis=-1)) >= -1e-6 * g.de
    red = solve_reduced_1d(
        m, Grid(t_nodes=g.t_nodes, e_nodes=e_nodes_for(m, 5e-4)),
        heaviside_tc(0.0))
    worst = 0.0
    e = g.e_nodes
    keep_e = np.abs(e) <= 0.15
    for t in (0.0, 0.075):
        sl = vf.values_at(t)
        for i in (6, 8, 10):
            for j in (6, 8, 10):
                p = np.array([g.p_nodes[0][i], g.p_nodes[1][j]])
                worst = max(worst, float(np.max(np.abs(
                    sl[i, j][keep_e] - red.eval(t, p, e[keep_e], m)))))
    assert worst <= 5e-2


def test_time_node_builders():
    t = np.union1d(np.linspace(0.0, 1.0, 11), time_nodes_with_tail(1.0, 1e-3))
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(t) > 0)
    assert np.min(1.0 - t[t < 1.0]) == pytest.approx(1e-3)
    t2 = time_nodes_with_tail(1.0, 1e-3)
    assert t2[0] == 0.0 and t2[-1] == 1.0


# ---------------------------------------------------------------------------
# allocation-free sub-steps against the plain formulas
# ---------------------------------------------------------------------------

def _transport_reference(u, speed, dt_over_de):
    """The allocating upwind step of the inner nodes that the scratch-buffer
    version replaces; ``speed`` is shaped like ``u[..., 1:-1]``."""
    back = u[..., 1:-1] - u[..., :-2]
    fwd = u[..., 2:] - u[..., 1:-1]
    a_plus = np.maximum(speed, 0.0)
    a_minus = np.minimum(speed, 0.0)
    u[..., 1:-1] -= dt_over_de * (a_plus * back + a_minus * fwd)


@pytest.mark.parametrize("p_shape", [(), (7,), (5, 6)])
def test_upwind_transport_is_bit_identical_to_formula(p_shape):
    rng = np.random.default_rng(len(p_shape))
    u = np.sort(rng.uniform(0.0, 1.0, p_shape + (50,)), axis=-1)
    speed = rng.uniform(-2.0, 2.0, p_shape + (48,))
    ref = u.copy()
    _transport_reference(ref, speed, 0.3)
    scratch = [np.full(p_shape + (49,), np.nan), np.full_like(speed, np.nan),
               np.full_like(speed, np.nan)]
    for _ in range(2):          # stale scratch contents must not leak in
        v = u.copy()
        _upwind_transport(v, speed, 0.3, *scratch)
        assert v.tobytes() == ref.tobytes()
        # the edge nodes are read, never written
        assert v[..., [0, -1]].tobytes() == u[..., [0, -1]].tobytes()


def _reduced_reference(model, grid, tc):
    """The reduced march with the allocating full-grid transport; the edges
    u[0] = 0 and u[-1] = 1 are data, and only the inner nodes move."""
    gamma, noise_energy, de = model.family_params["gamma"], WEvaluator(model).noise_energy, grid.de
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
        r = 0.5 * noise_energy(s0, s1) / de**2   # the reduced diffusion's integral
        if r > 0.0:
            _e_solve(u, r)
        np.clip(u, 0.0, 1.0, out=u)        # the solver's roundoff snap
        out.append(u.copy())
    return np.array(out[::-1])


@pytest.mark.parametrize("alpha", [0.0, 0.8])
def test_reduced_solve_is_bit_identical_to_formula(alpha):
    m = affine_model(alpha=alpha, gamma=1.0, sigma=1.0, horizon_T=0.2)
    t_nodes = np.union1d(np.linspace(0.0, 0.2, 11), time_nodes_with_tail(0.2, 2e-3))
    g = Grid(t_nodes=t_nodes, e_nodes=e_nodes_for(m, 1e-3))
    tc = heaviside_tc(0.0)
    assert np.array_equal(solve_reduced_1d(m, g, tc).values,
                          _reduced_reference(m, g, tc))


def test_reduced_edges_are_exact_where_the_e_solve_is_stiff():
    # r = (noise energy / 2) / de**2 reaches about 26 here; a solve of the whole
    # axis with identity edge rows pivots once r > 1 and left u[0] off 0 and
    # -0.0 nodes
    m = affine_model(alpha=0.1, gamma=1.0, sigma=1.0, horizon_T=0.1)
    field = value_pde.reduced_tail_field(m, heaviside_tc(0.0), {"de_reduced": 1e-4})
    s = np.sort(m.horizon_T - field.grid.t_nodes)
    energy = WEvaluator(m).noise_energy
    assert max(0.5 * energy(a, b) for a, b in zip(s[:-1], s[1:])) / field.grid.de**2 > 10.0
    v = field.values
    assert np.all(v[:, 0] == 0.0) and np.all(v[:, -1] == 1.0)
    assert not np.any(np.signbit(v))        # no -0.0 anywhere, u[0] included


def _sha256(values):
    return hashlib.sha256(values.tobytes()).hexdigest()


def test_light_full_solves_are_pinned():
    # affine feedback has no transcendental call, so these bytes do not
    # depend on the libm
    m = small_model()
    assert _sha256(solve_mollified(m, small_grid(m), heaviside_tc(0.0)).values) == (
        "9534c2a232c15d0b136105a40e243381dbe8aff61b7bcfb862c35ccad2c601e7")
    m2 = affine_model(alpha=[0.4, 0.2], gamma=1.0, sigma=1.0, horizon_T=0.15)
    g2 = Grid(t_nodes=np.linspace(0.0, 0.15, 31), e_nodes=e_nodes_for(m2, 2e-3),
              p_nodes=(np.linspace(-1.5, 1.5, 17),) * 2)
    assert _sha256(solve_mollified(m2, g2, smooth_ramp_tc(0.0, 0.1)).values) == (
        "dc1a425551c23834cafd6d14de417ee2fc35beeb1754b1d1984083ee2e1428d2")


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
    g = Grid(t_nodes=np.linspace(0.0, T, n_t + 1), e_nodes=e_nodes_for(m, de))
    # every span takes several window blocks of substeps
    assert T / (n_t - 1) / (0.85 * de / 2.0) > 2 * value_pde._WINDOW_BLOCK
    tc = heaviside_tc(0.0) if ramp is None else smooth_ramp_tc(0.0, ramp)
    values = solve_reduced_1d(m, g, tc).values
    assert values.tobytes() == _reduced_reference(m, g, tc).tobytes()


def _spy_windows(monkeypatch):
    """Record (u before the block, k, window) of every ``_active_window`` call."""
    active_window, calls = value_pde._active_window, []

    def spy(u, k):
        window = active_window(u, k)
        calls.append((u.copy(), k, window))
        return window

    monkeypatch.setattr(value_pde, "_active_window", spy)
    return calls


def test_windowed_reduced_solve_skips_a_nonzero_prefix_and_reaches_the_edge(monkeypatch):
    m = affine_model(alpha=0.3, gamma=1.0, sigma=1.0, horizon_T=0.2)
    g = Grid(t_nodes=np.linspace(0.0, 0.2, 4), e_nodes=e_nodes_for(m, 1e-3))
    tc = heaviside_tc(0.0)
    ref = _reduced_reference(m, g, tc)
    assert np.any((ref > 0.0) & (ref < 2.0**-60))
    calls = _spy_windows(monkeypatch)
    assert np.array_equal(solve_reduced_1d(m, g, tc).values, ref)
    # a frozen nonzero prefix is left out of every window ...
    assert any(np.any(u[1:lo] != 0.0) for u, _, (lo, _) in calls)
    # ... and a window still reaches the edge node's neighbour
    assert any(hi == len(g.e_nodes) - 1 for *_, (_, hi) in calls)


def test_reduced_window_stops_short_of_the_edge_on_the_plateau(monkeypatch):
    # the e-solve leaves the right part exactly 1 from the fan to the edge
    # node, so the window ends k nodes past the fan, far from the edge
    m = affine_model(alpha=0.1, gamma=1.0, sigma=1.0, horizon_T=0.1)
    calls = _spy_windows(monkeypatch)
    field = value_pde.reduced_tail_field(m, heaviside_tc(0.0),
                                         {"de_reduced": 2e-5, "tail_s_min": 1e-3})
    assert np.any(field.values[:-1, 1:-1] < 1.0)        # the e-solve acted
    window_updates = edge_updates = 0
    for u, k, (lo, hi) in calls:
        window_updates += k * (hi - lo)
        edge_updates += k * (len(u) - 1 - lo)
    assert window_updates < 0.5 * edge_updates


@pytest.mark.parametrize("batch", [(), (4,)])
def test_thomas_sweep_matches_solve_banded(batch):
    rng = np.random.default_rng(3)
    n, ne = 11, 40
    r = rng.uniform(0.0, 5.0, (n,) + batch + (1,))
    q = rng.uniform(-3.0, 3.0, (n,) + batch + (1,))
    ab = _tridiag(r, q, n)
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


def _thomas_longdouble(d, r):
    """(1 + 2r) x_i - r (x_{i-1} + x_{i+1}) = d_i by Thomas in extended precision."""
    d, r = np.asarray(d, dtype=np.longdouble), np.longdouble(r)
    up, x = np.empty_like(d), np.empty_like(d)
    up_prev = x_prev = np.longdouble(0.0)
    for i in range(len(d)):
        piv = 1 + 2 * r - r * up_prev
        up[i] = up_prev = r / piv
        x[i] = x_prev = (d[i] + r * x_prev) / piv
    for i in range(len(d) - 2, -1, -1):
        x[i] += up[i] * x[i + 1]
    return x


@settings(max_examples=80, deadline=None)
@given(m=st.one_of(st.integers(1, 3000),
                   st.sampled_from([2**k + j for k in range(1, 12) for j in (-1, 0)])),
       log_r=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_e_solve_matches_extended_precision_thomas(m, log_r, seed):
    # the reduced e-solve's system on m inner nodes: sorted data in [0, 1],
    # with a prefix of exact zeros as left of the cap, between the edges 0 and 1
    r = 10.0**log_r
    rng = np.random.default_rng(seed)
    u = np.concatenate([[0.0], np.sort(np.maximum(rng.uniform(-0.3, 1.0, m), 0.0)), [1.0]])
    d = u[1:-1].copy()
    d[-1] += r                      # the edge value 1, folded in
    ref = _thomas_longdouble(d, r)
    ab = np.zeros((3, m))
    ab[1], ab[0, 1:], ab[2, :-1] = 1.0 + 2.0 * r, -r, -r
    lapack = solve_banded((1, 1), ab, d)
    _e_solve(u, r)
    x = u[1:-1]
    assert float(np.max(np.abs(x - ref))) <= 1e-14
    assert float(np.max(np.abs(lapack - ref))) <= 1e-11     # LAPACK's own error
    assert not np.any(np.signbit(x))
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert u[0] == 0.0 and u[-1] == 1.0


@pytest.mark.parametrize("lam", [1e-9, -1e-9])
def test_linear_drift_closed_forms_at_small_lam_match_lam_zero(lam):
    # the plain closed forms subtract O(1/lam) terms: at lam = 1e-7 the
    # diffusion integral of sigma = alpha = 1 over [0, 0.2] read 93,132, not 1.33e-3
    kw = {"alpha": 0.8, "gamma": 1.0, "sigma": 0.7, "b0": 0.3, "horizon_T": 0.2}
    m, m0 = linear_drift_model(lam=lam, **kw), linear_drift_model(lam=0.0, **kw)
    we, we0 = WEvaluator(m), WEvaluator(m0)
    for a, b in [(0.0, 0.2), (0.1, 0.1001), (0.0, 1e-4), (0.19, 0.2)]:
        for power in (0, 2):
            assert we.noise_energy(a, b, power) == pytest.approx(
                we0.noise_energy(a, b, power), rel=1e-8, abs=0)
    t, p = np.linspace(0.0, 0.2, 9), np.linspace(-1.0, 1.0, 9)[:, None]
    np.testing.assert_allclose(we.evaluate(t, p), we0.evaluate(t, p), rtol=1e-8, atol=0)
    np.testing.assert_allclose(we.dp_w(t), we0.dp_w(t), rtol=1e-8, atol=0)


@pytest.mark.parametrize("lam", [1.0, -1.0, 40.0])
def test_linear_drift_closed_forms_match_high_order_quadrature(lam):
    from scipy.integrate import quad
    kw = {"alpha": 0.8, "gamma": 1.0, "sigma": 0.7, "b0": 0.3, "horizon_T": 0.2}
    m = linear_drift_model(lam=lam, **kw)
    growth = lambda s: np.expm1(lam * s) / lam
    we = WEvaluator(m)   # the noise energy is held to quad in test_burgers_ref
    for t in (0.0, 0.1, 0.19):
        s = 0.2 - t
        drifted = quad(growth, 0.0, s, epsabs=0, epsrel=1e-13)[0]
        expect = 0.8 * (0.5 * growth(s) + 0.3 * drifted)
        assert float(we.evaluate(t, np.array([0.5]))) == pytest.approx(expect, rel=1e-12, abs=0)
        assert float(we.dp_w(t)[0]) == pytest.approx(0.8 * growth(s), rel=1e-14, abs=0)


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
    g = Grid(t_nodes=np.linspace(0.0, T, n_t + 1), e_nodes=e, p_nodes=p)
    solve = solve_reduced_1d if family == "reduced" else solve_mollified
    hi = solve(m, g, smooth_ramp_tc(-shift, width)).values
    lo = solve(m, g, smooth_ramp_tc(shift, width)).values
    for v in (hi, lo):
        assert v.min() >= 0.0 and v.max() <= 1.0
        assert np.min(np.diff(v, axis=-1)) >= -1e-12
    assert np.max(lo - hi) <= 1e-12


# ---------------------------------------------------------------------------
# the full solver's window of inner columns
# ---------------------------------------------------------------------------

def _full_reference(model, grid, tc, dt_cfl):
    """The full march with every inner node updated on every substep, by the
    allocating transport; the substep bound ``dt_cfl`` is the solver's."""
    p = np.stack(np.meshgrid(*grid.p_nodes, indexing="ij"), axis=-1)
    flat = p.reshape(-1, grid.dim)
    sig = np.broadcast_to(model.sigma, (len(flat),) + model.sigma.shape)
    a_diag = np.einsum("nii->ni", np.einsum("nij,nkj->nik", sig, sig)).reshape(p.shape)
    b = model.drift(flat).reshape(p.shape)
    u = np.broadcast_to(tc(grid.e_nodes), grid.space_shape()).astype(float).copy()
    u[..., 0], u[..., -1] = 0.0, 1.0
    out = [u.copy()]
    for j in range(len(grid.t_nodes) - 2, -1, -1):
        span = float(grid.t_nodes[j + 1] - grid.t_nodes[j])
        n_sub = max(1, int(np.ceil(span / dt_cfl)))
        dt = span / n_sub
        factors = [_thomas_factors(_tridiag(
            dt * np.moveaxis(0.5 * a_diag[..., k], k, 0)[..., None] / dx**2,
            dt * np.moveaxis(b[..., k], k, 0)[..., None] / dx, len(nodes)))
            for k, (nodes, dx) in enumerate(zip(grid.p_nodes, grid.dp))]
        for _ in range(n_sub):
            _transport_reference(u, model.feedback.value(p[..., None, :], u[..., 1:-1]),
                                 dt / grid.de)
            for k, fac in enumerate(factors):
                x = np.moveaxis(u[..., 1:-1], k, 0)
                _thomas_sweep(x, *fac, np.empty(x.shape[1:]))
        value_pde._snap_unit(u, "reference")
        out.append(u.copy())
    return np.array(out[::-1])


def _window_case(family, coef, T, n_p, n_t):
    if family == "nonlinear":
        m = build_model({"family": "nonlinear_1d", "f0_amplitude": 0.2 * coef,
                         "sigma": 0.75, "horizon_T": T})
    else:
        alpha = [coef, 0.5 * coef] if family == "dim2" else coef
        m = affine_model(alpha=alpha, gamma=1.0, sigma=1.0, horizon_T=T)
    p = tuple(np.linspace(-1.5, 1.5, n_p) for _ in range(m.dim_p))
    return m, Grid(t_nodes=np.linspace(0.0, T, n_t + 1), e_nodes=e_nodes_for(m, 2e-3),
                   p_nodes=p)


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(["nonlinear", "affine", "dim2"]),
       coef=st.floats(0.0, 0.9), ramp=st.one_of(st.none(), st.floats(0.01, 0.3)),
       T=st.floats(0.3, 0.45), n_p=st.integers(3, 6), n_t=st.integers(1, 2))
def test_windowed_full_solve_matches_full_grid_loop(family, coef, ramp, T, n_p, n_t):
    m, g = _window_case(family, coef, T, n_p, n_t)
    tc = heaviside_tc(0.0) if ramp is None else smooth_ramp_tc(0.0, ramp)
    field = solve_mollified(m, g, tc)
    dt_cfl = field.provenance["internal_dt"]
    # every span takes several window blocks of substeps
    assert T / n_t / dt_cfl > 2 * value_pde._WINDOW_BLOCK
    # bytes, not array_equal: a -0.0 in place of 0.0 would show
    assert field.values.tobytes() == _full_reference(m, g, tc, dt_cfl).tobytes()


def test_full_window_skips_zero_columns_and_no_nonzero_one(monkeypatch):
    m, g = _window_case("nonlinear", 0.5, 0.3, 5, 2)
    transport, starts = value_pde._upwind_transport, []

    def spy(near, *args):
        u = near.base                   # the solver's field, whose view ``near`` is
        lo = u.shape[-1] - near.shape[-1] + 1
        starts.append(lo)
        # every column left of the window is +0.0, before and after the step
        assert not np.any(u[..., :lo]) and not np.any(np.signbit(u[..., :lo]))
        transport(near, *args)
        assert not np.any(u[..., :lo]) and not np.any(np.signbit(u[..., :lo]))

    monkeypatch.setattr(value_pde, "_upwind_transport", spy)
    tc = heaviside_tc(0.0)
    field = solve_mollified(m, g, tc)
    assert max(starts) > 1                 # some block skips a column
    assert field.values.tobytes() == _full_reference(
        m, g, tc, field.provenance["internal_dt"]).tobytes()


_EDGE_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5, 1e-300, -1e-300]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(-3, 3), max_size=70),
       stride=st.integers(1, 2),
       bounds=st.tuples(st.sampled_from(_EDGE_FLOATS[:2] + [-0.5, 0.25]),
                        st.sampled_from(_EDGE_FLOATS[:2] + [1.0, 0.5])))
def test_clamp_is_np_clip_bit_for_bit(values, stride, bounds):
    # signed zeros and NaN included: the argument order of minimum/maximum
    # decides which zero comes back, on the scalar and the SIMD loops alike
    lo, hi = sorted(bounds)
    x = np.array(values * stride, dtype=float)[::stride]
    assert value_pde._clamp(x, lo, hi).tobytes() == np.clip(x, lo, hi).tobytes()
    idx = np.arange(-3, len(values))
    assert np.array_equal(value_pde._clamp(idx, 0, 5), np.clip(idx, 0, 5))


def _lin_weights_by_truncation(nodes, x):
    # reference: the weights by integer truncation of the position
    x = value_pde._clamp(np.asarray(x, dtype=float), nodes[0], nodes[-1])
    pos = (x - nodes[0]) / (nodes[1] - nodes[0])
    with np.errstate(invalid="ignore"):     # NaN cast to int64
        idx = value_pde._clamp(pos.astype(np.int64), 0, len(nodes) - 2)
    return idx, value_pde._clamp(pos - idx, 0.0, 1.0)


@pytest.mark.parametrize("nodes", [
    e_nodes_for(small_model(), 2e-3),                  # e-axis, cap 1 (pad-free)
    e_nodes_for(small_model(alpha=0.0, T=0.1), 1e-5),  # long e-axis
    np.linspace(-2.0, 2.0, 21),                        # p-axes
    np.linspace(-1.5, 2.5, 61),
    np.linspace(0.0, 1.0, 2),                          # a single cell
])
def test_lin_weights_match_truncation_bit_for_bit(nodes):
    rng = np.random.default_rng(5)
    lo, hi = nodes[0], nodes[-1]
    x = np.concatenate([
        nodes,                                            # exact nodes, both ends
        rng.uniform(lo, hi, 2000),
        rng.uniform(lo - 1.0, lo, 50), rng.uniform(hi, hi + 1.0, 50),   # outside
        [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), -np.inf, np.inf,
         np.nan, -0.0, 0.0, 1e300, -1e300],
    ])
    idx, w = value_pde._lin_weights(nodes, x)
    ref_idx, ref_w = _lin_weights_by_truncation(nodes, x)
    assert idx.min() >= 0 and idx.max() <= len(nodes) - 2   # NaN included
    nan = np.isnan(ref_w)
    assert np.array_equal(nan, np.isnan(w)) and nan.sum() == 1
    assert np.array_equal(idx[~nan], ref_idx[~nan])
    assert w[~nan].tobytes() == ref_w[~nan].tobytes()


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-2.0, 2.0), step=st.floats(1e-6, 0.5), n=st.integers(2, 3000),
       linspace=st.booleans(), picks=st.lists(st.integers(0, 2999), max_size=20),
       inside=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_lin_weights_need_no_lower_bound_on_the_weight(lo, step, n, linspace, picks, inside):
    # the position is non-negative, so pos - low is too: the old weight
    # clamp(pos - low, 0, 1) and min(1, pos - low) agree bit for bit; the
    # upper bound stays, since the axis end can round past n - 1
    nodes = np.linspace(lo, lo + step * (n - 1), n) if linspace else lo + step * np.arange(n)
    x = np.concatenate([
        _EDGE_FLOATS, nodes[[i % n for i in picks]], nodes[[0, -1]],   # nodes, axis ends
        np.nextafter(nodes[[0, 0, -1, -1]], [-np.inf, np.inf] * 2),
        nodes[0] + np.asarray(inside) * (nodes[-1] - nodes[0]),
    ])
    xc = value_pde._clamp(x, nodes[0], nodes[-1])
    pos = (xc - nodes[0]) / (nodes[1] - nodes[0])
    low = np.fmin(np.floor(pos), n - 2)
    idx, w = value_pde._lin_weights(nodes, x)
    assert np.array_equal(idx, low.astype(np.intp))
    assert w.tobytes() == value_pde._clamp(pos - low, 0.0, 1.0).tobytes()


def test_lin_weights_only_change_the_sign_of_a_zero_weight():
    # -0.0 at an axis starting at +0.0: truncation keeps the weight -0.0, the
    # floor form gives +0.0; equal values, and the blend (1 - w) a + w b only
    # differs if the slice holds -0.0 at that node
    nodes = np.linspace(0.0, 1.0, 11)
    (i, w), (ref_i, ref_w) = (f(nodes, np.array([-0.0]))
                              for f in (value_pde._lin_weights, _lin_weights_by_truncation))
    assert i[0] == ref_i[0] == 0 and w[0] == ref_w[0] == 0.0
    assert (np.signbit(w[0]), np.signbit(ref_w[0])) == (False, True)


@pytest.mark.parametrize("dim", [0, 1, 2])
def test_interp_space_nan_and_outside_points(dim):
    # points outside the grid read the edge values; NaN reads NaN, as it did
    rng = np.random.default_rng(3)
    e = np.linspace(0.5, 1.5, 41)
    p_nodes = tuple(np.linspace(-1.0, 1.0, 9) for _ in range(dim))
    grid = Grid(t_nodes=np.array([0.0, 0.1]), e_nodes=e, p_nodes=p_nodes)
    sl = rng.uniform(0.0, 1.0, grid.space_shape())
    pe = np.array([np.nan, -5.0, 5.0, 0.5, 1.5, 1.0])
    p = np.zeros((len(pe), dim))
    out = value_pde._interp_space(grid, sl, p if dim else None, pe)
    edge = sl[(len(p_nodes[0]) // 2,) * dim] if dim else sl
    assert np.isnan(out[0])
    assert np.allclose(out[1:], [edge[0], edge[-1], edge[0], edge[-1], edge[20]],
                       rtol=0, atol=1e-12)
    if dim:
        p[-1, 0] = np.nan
        assert np.isnan(value_pde._interp_space(grid, sl, p, pe)[-1])
