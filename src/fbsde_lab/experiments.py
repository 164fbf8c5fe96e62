"""Check implementations, scenario runner, records and plot-data export.

Every check returns a three-valued verdict: ``pass`` / ``fail`` /
``flagged`` (statistically inconclusive, e.g. below Monte Carlo
resolution), together with its measured statistics and CSV-ready tables.
Identical configs reproduce identical statistics bit for bit.

The checks that read the scenario's own field and paths share one build per
process (``_main_ensemble``), keyed by the canonical JSON of the config's
``model``, ``tc``, ``grid`` and ``sim`` blocks.  At most two builds are held
(least recently used out), and their arrays are read-only, so a hit cannot
change the numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import fieldio
from .burgers_ref import WEvaluator, burgers_gap, characteristic, BurgersProfile
from .mc_engine import (SimConfig, conditional_support, default_delta_ladder,
                        dirac_scan, feynman_kac_grad_p, flow_squeeze_check,
                        gaussian_control_terminal, prefactor_report,
                        simulate_forward, terminal_sandwich_check,
                        transmission_scan, trap_diagnostic, variance_scan)
from .model_core import (affine_model, default_mollifier, heaviside_tc, mollify,
                         validate_assumptions)
from .scenarios import build_model, build_tc, config_hash, scenario_config
from .value_pde import (Grid, bound_report, conservation_gap, e_nodes_for,
                        gradient_fields, gradient_band_violation,
                        solve_mollified, solve_reduced_1d, time_nodes_with_tail,
                        uniform_time_nodes)


@dataclass
class CheckOutcome:
    name: str
    verdict: str                  # pass / fail / flagged
    stats: dict = dc_field(default_factory=dict)
    tables: dict = dc_field(default_factory=dict)   # name -> (header, rows)


@dataclass
class ExperimentRecord:
    scenario: str
    config: dict
    config_hash: str
    verdicts: dict
    stats: dict
    manifest: list
    timings: dict
    cache: dict

    @property
    def all_passed(self) -> bool:
        return all(v != "fail" for v in self.verdicts.values())

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True,
                          default=_jsonable)


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    return str(x)


# ---------------------------------------------------------------------------
# field builders
# ---------------------------------------------------------------------------

def reduced_tail_field(model, tc, gcfg, n_uniform=1000):
    """Reduced field with geometric slice tail accumulating at the horizon."""
    t_nodes = time_nodes_with_tail(
        0.0, model.horizon_T, 0,
        s_min=gcfg.get("tail_s_min", 2.0 * gcfg["de_reduced"] / model.ell1),
        ratio=gcfg.get("tail_ratio", 1.07),
        s_switch=gcfg.get("tail_switch"),
        coarse_ratio=gcfg.get("tail_coarse", 1.25))
    e = e_nodes_for(model, gcfg["de_reduced"])
    return solve_reduced_1d(model, Grid(t_nodes=t_nodes, e_nodes=e), tc)


def reduced_aligned_field(model, tc, de, n_steps, t_extra=(), t_stop=None):
    """Reduced field whose slices coincide with the simulation time grid.

    Alignment removes the slice-staleness bias in the drift response, which
    would otherwise act like a spurious transmission of order the slice
    spacing ratio.  Above ``t_stop`` the slices thin out (unused by sims
    that stop there).
    """
    T = model.horizon_T
    base = np.linspace(0.0, T, n_steps + 1)
    if t_stop is not None:
        keep = base[base <= t_stop + 1e-15]
        tail = np.linspace(float(keep[-1]), T, 21)
        t_nodes = np.union1d(np.union1d(keep, np.asarray(t_extra)), tail)
    else:
        t_nodes = np.union1d(base, np.asarray(t_extra))
    e = e_nodes_for(model, de)
    return solve_reduced_1d(model, Grid(t_nodes=t_nodes, e_nodes=e), tc)


def _grid_full(model, gcfg, pad=0.0, t_extra=()):
    return Grid(
        t_nodes=np.union1d(
            uniform_time_nodes(0.0, model.horizon_T, gcfg.get("n_t", 100)),
            np.asarray(t_extra, dtype=float)),
        e_nodes=e_nodes_for(model, gcfg["de_full"], pad=pad),
        p_nodes=tuple(np.linspace(-gcfg.get("p_half", 3.0),
                                  gcfg.get("p_half", 3.0), gcfg.get("n_p", 51))
                      for _ in range(model.dim_p)))


def full_field(model, tc, gcfg, mollifier_n=None, pad=0.0, t_extra=()):
    return solve_mollified(model, _grid_full(model, gcfg, pad, t_extra), tc,
                           mollifier_n=mollifier_n)


def scenario_model(cfg, horizon=None):
    """The scenario's model (at ``horizon`` if given) and terminal condition."""
    model = build_model(cfg["model"], horizon)
    return model, build_tc(cfg.get("tc", {}), model.cap_lambda)


def scenario_field(cfg, model, tc):
    """The scenario's own field: the reduced tail field when its grid names
    ``de_reduced``, else the full (t, p, e) solve."""
    g = cfg.get("grid", {})
    if "de_reduced" in g:
        return reduced_tail_field(model, tc, g)
    return full_field(model, tc, g)


def scenario_sim(cfg, model, **over) -> SimConfig:
    """Path settings from ``cfg["sim"]``, started at t = 0, p = 0 and the cone
    fraction ``e0_cone`` (default 1/2); ``over`` replaces any field."""
    scfg = cfg["sim"]
    return SimConfig(**{"n_paths": scfg["n_paths"], "n_steps": scfg["n_steps"],
                        "t0": 0.0, "p0": np.zeros(model.dim_p),
                        "e0": cone_start(model, scfg.get("e0_cone", 0.5)),
                        "seed": scfg["seed"], **over})


def _ensemble_key(cfg) -> str:
    """Canonical JSON of the config blocks the scenario ensemble depends on."""
    return json.dumps({k: cfg.get(k, {}) for k in ("model", "tc", "grid", "sim")},
                      sort_keys=True)


@functools.lru_cache(maxsize=2)
def _main_ensemble(key: str):
    """(field, we, sim, paths) of the scenario blocks in ``key``; memoised."""
    cfg = json.loads(key)
    model, tc = scenario_model(cfg)
    field = scenario_field(cfg, model, tc)
    we = make_we(model)
    sim = scenario_sim(cfg, model)
    ens = simulate_forward(model, field, we, sim)
    for arr in (field.values, ens.terminal_E, ens.terminal_Y,
                ens.terminal_Ebar, ens.escaped):
        arr.flags.writeable = False
    return field, we, sim, ens


def make_we(model, **kw) -> WEvaluator:
    mode = {"affine_constant": "closed_form_affine",
            "linear_drift": "closed_form_linear_drift"}.get(
                model.family, "monte_carlo")
    return WEvaluator(mode=mode, model=model, **kw)


def cone_start(model, frac: float) -> float:
    """E start with ebar - cap = frac * gamma * T, from p = 0 (w(t0,0)=0 here)."""
    gamma = model.family_params.get("gamma", model.ell1)
    return model.cap_lambda + frac * gamma * model.horizon_T


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_validate(cfg) -> CheckOutcome:
    model = build_model(cfg["model"])
    rep = validate_assumptions(model, ((-2.0, 2.0), (0.0, 1.0)), 400)
    stats = {c.name: c.worst_margin for c in rep.checks}
    stats["elliptic"] = rep.elliptic
    return CheckOutcome("validate", "pass" if rep.all_passed else "fail", stats)


def check_gradient_band(cfg, n_e=400, n_t=200, n_p=50) -> CheckOutcome:
    """Gradient band on the fixed acceptance grid (400 e, 200 t, 50 p)."""
    model, tc = scenario_model(cfg)
    half = 2.0 * model.lipschitz_L * model.horizon_T
    de = 2.0 * half / n_e
    grid = Grid(t_nodes=uniform_time_nodes(0.0, model.horizon_T, n_t),
                e_nodes=e_nodes_for(model, de),
                p_nodes=(np.linspace(-2.5, 2.5, n_p),))
    t0 = time.time()
    vf = solve_mollified(model, grid, tc)
    entry = gradient_band_violation(vf, gradient_fields(vf), model)
    return CheckOutcome("gradient_band", "pass" if entry.passed else "fail",
                        {"worst_violation": entry.worst,
                         "solve_seconds": time.time() - t0})


def check_comparison_mollified(cfg) -> CheckOutcome:
    """Ordered mollified pairs stay ordered; window gap shrinks with n."""
    model = build_model(cfg["model"])
    tc = heaviside_tc(model.cap_lambda)
    g = cfg.get("grid", {})
    gcfg = {"de_full": 2e-3, "p_half": g.get("p_half", 3.0), "n_p": 41,
            "n_t": 50}
    ns = cfg.get("sweeps", {}).get("mollifier_n", [4, 8, 16])
    order_slack = 1e-6
    worst_order = -np.inf
    gaps, uppers = [], []
    t_probe = 0.5 * model.horizon_T
    grid = _grid_full(model, gcfg, pad=1.0 / min(ns))
    for n in ns:
        mol = default_mollifier(n)
        up = solve_mollified(model, grid, mollify(tc, mol, "upper"), mollifier_n=n)
        lo = solve_mollified(model, grid, mollify(tc, mol, "lower"), mollifier_n=n)
        worst_order = max(worst_order, float(np.max(lo.values - up.values)))
        gaps.append(conservation_gap(up, lo, m=0.5 * model.horizon_T,
                                     t=t_probe, p=[0.0]))
        uppers.append(up)
    mono_n = all(np.all(a.values >= b.values - order_slack)
                 for a, b in zip(uppers[:-1], uppers[1:]))
    dec = all(g2 < g1 for g1, g2 in zip(gaps[:-1], gaps[1:]))
    ok = worst_order <= order_slack and dec and mono_n
    return CheckOutcome(
        "comparison_mollified", "pass" if ok else "fail",
        {"worst_order_violation": worst_order,
         "window_gaps": gaps, "gap_decreasing": dec,
         "upper_sequence_non_increasing": mono_n},
        {"conservation_gap": (["mollifier_n", "window_gap"],
                              list(zip(ns, gaps)))})


def check_conservation_gap(cfg) -> CheckOutcome:
    """Terminal window gap equals twice bump_mean/n; decreasing in n at t < T."""
    model = build_model(cfg["model"])
    tc = heaviside_tc(model.cap_lambda)
    ns = cfg.get("sweeps", {}).get("mollifier_n", [4, 8, 16])
    rows = []
    ok = True
    for n in ns:
        mol = default_mollifier(n)
        up = mollify(tc, mol, "upper")
        lo = mollify(tc, mol, "lower")
        x = np.linspace(model.cap_lambda - 2.0 / n, model.cap_lambda + 2.0 / n,
                        20001)
        gap = float(np.trapezoid(up(x) - lo(x), x))
        expect = 2.0 * mol.bump_mean / n
        rows.append((n, gap, expect))
        ok = ok and abs(gap - expect) <= 0.01 * expect
    return CheckOutcome("conservation_gap", "pass" if ok else "fail",
                        {"rows": rows},
                        {"terminal_gap": (["n", "gap", "expected"], rows)})


def check_burgers_gap(cfg) -> CheckOutcome:
    """Sup gap to the rescaled profile decreasing toward the horizon."""
    model, tc = scenario_model(cfg)
    horizons = cfg.get("sweeps", {}).get("gap_horizons", [0.4, 0.2, 0.1, 0.05])
    t_list = [model.horizon_T - h for h in horizons]
    g = cfg.get("grid", {})
    if model.family == "affine_constant":
        de = g.get("de_reduced", 2e-4)
        field = reduced_aligned_field(model, tc, de, 200, t_extra=t_list)
        we = make_we(model)
    else:
        field = full_field(model, tc, g, t_extra=t_list)
        we = make_we(model, n_paths=10_000, n_steps=300)
    table = burgers_gap(field, we, model, t_list, boundary_skip=2)
    dec = bool(np.all(np.diff(table.sup_gap) < 0))
    ok = dec and table.beta_hat > 0
    return CheckOutcome("burgers_gap", "pass" if ok else "fail",
                        {"sup_gaps": table.sup_gap.tolist(),
                         "beta_hat": table.beta_hat, "decreasing": dec},
                        {"burgers_gap": (["t", "sup_gap", "beta_so_far"],
                                         table.rows())})


def check_equivalence(cfg) -> CheckOutcome:
    """Full-solver field against the reconstructed reduced field."""
    model, tc = scenario_model(cfg)
    g = cfg.get("grid", {})
    vf = full_field(model, tc, g)
    red = reduced_aligned_field(model, tc, g.get("de_reduced", 2e-4),
                                g.get("n_t", 100))
    we = make_we(model)
    T = model.horizon_T
    pv = vf.grid.p_nodes[0]
    keep_p = np.abs(pv) <= 1.0
    e = vf.grid.e_nodes
    keep_e = np.abs(e - model.cap_lambda) <= model.lipschitz_L * T
    worst = 0.0
    for t in vf.grid.t_nodes[vf.grid.t_nodes <= T - 0.1 + 1e-12]:
        sl = vf.values_at(t)[keep_p][:, keep_e]
        for i, p in enumerate(pv[keep_p]):
            eb = e[keep_e] + we.evaluate(float(t), np.array([p]))
            worst = max(worst, float(np.max(np.abs(sl[i] - red.eval_bar(float(t), eb)))))
    ok = worst <= 3e-2
    return CheckOutcome("equivalence", "pass" if ok else "fail",
                        {"sup_difference": worst, "tolerance": 3e-2})


def check_mirror_symmetry(cfg) -> CheckOutcome:
    model = build_model(cfg["model"])
    tc = heaviside_tc(model.cap_lambda)
    g = cfg.get("grid", {})
    red = reduced_aligned_field(model, tc, g.get("de_reduced", 2e-4),
                                g.get("n_t", 100))
    gamma = model.family_params["gamma"]
    lam = model.cap_lambda
    T = model.horizon_T
    worst = 0.0
    stored = red.grid.t_nodes[red.grid.t_nodes <= T - 0.05 + 1e-12]
    for t in stored[:: max(1, len(stored) // 8)]:
        s = T - float(t)
        eb = red.grid.e_nodes
        keep = (eb > lam - 0.5 * model.lipschitz_L * T) & \
               (eb < lam + gamma * s + 0.5 * model.lipschitz_L * T)
        refl = 2 * lam + gamma * s - eb[keep]
        worst = max(worst, float(np.max(np.abs(
            red.eval_bar(float(t), eb[keep]) + red.eval_bar(float(t), refl) - 1.0))))
    ok = worst <= 2e-2
    return CheckOutcome("mirror_symmetry", "pass" if ok else "fail",
                        {"worst_asymmetry": worst, "tolerance": 2e-2})


def check_flow_squeeze(cfg) -> CheckOutcome:
    model, tc = scenario_model(cfg)
    g = cfg.get("grid", {})
    field = reduced_tail_field(model, tc,
                               {"de_reduced": g.get("de_reduced", 2e-4),
                                "tail_ratio": 1.07, "tail_switch": 0.02})
    we = make_we(model)
    T = model.horizon_T
    sim = scenario_sim(cfg, model, e0=cone_start(model, 0.5),
                       n_paths=cfg["sim"].get("n_paths_flow", 20_000))
    pairs = [(cone_start(model, 0.55), cone_start(model, 0.30)),
             (cone_start(model, 0.30), cone_start(model, 0.10))]
    t_list = [0.25 * T, 0.5 * T, 0.75 * T]
    rep = flow_squeeze_check(model, field, we, sim, pairs, t_list)
    ok = rep.frac_ok >= 0.999 and \
        rep.coalescence_fraction - 3 * rep.coalescence_se >= 0.1
    return CheckOutcome(
        "flow_squeeze", "pass" if ok else "fail",
        {"frac_ok": rep.frac_ok,
         "per_pair": rep.per_pair_frac.tolist(),
         "coalescence_fraction": rep.coalescence_fraction,
         "coalescence_se": rep.coalescence_se,
         "worst_lower_margin": rep.worst_lower_margin,
         "min_ordering_margin": rep.min_ordering_margin},
        {"flow": (["pair", "frac_ok"],
                  [(str(p), f) for p, f in zip(rep.pairs, rep.per_pair_frac)])})


def check_variance(cfg) -> CheckOutcome:
    """Cube-law time slope per horizon plus the horizon-prefactor verdict."""
    lam_drift = cfg["model"].get("lam", 0.0) \
        if cfg["model"]["family"] == "linear_drift" else 0.0
    horizons = cfg.get("sweeps", {}).get("variance_horizons", [0.4, 0.2, 0.1])
    g = cfg.get("grid", {})
    scfg = cfg["sim"]
    de = g.get("de_reduced", 1e-4) if lam_drift != 0 else 2e-5
    slopes, prefs, rows = [], [], []
    flagged = False
    for h in horizons:
        model, tc = scenario_model(cfg, h)
        t_list = 0.5 * h * np.geomspace(0.05, 1.0, 8)
        field = reduced_aligned_field(model, tc, de, scfg["n_steps"],
                                      t_extra=t_list, t_stop=float(t_list[-1]))
        we = make_we(model)
        sim = scenario_sim(cfg, model, e0=cone_start(model, 0.5),
                           terminal_refine=False)
        scan = variance_scan(model, field, we, sim, t_list)
        slopes.append(scan.time_slope)
        prefs.append(scan.prefactor)
        flagged = flagged or scan.below_resolution
        for dt_, v_, se_ in zip(scan.t_offsets, scan.variances, scan.jackknife_se):
            rows.append((h, dt_, v_, se_))
    pref_rep = prefactor_report(horizons, prefs)
    slopes_ok = all(abs(s - 3.0) <= 0.3 for s in slopes)
    if lam_drift < 0:
        pref_ok = abs(pref_rep.overall_slope - 2.0) <= 0.5
        target = "horizon prefactor slope 2 +- 0.5"
    else:
        pref_ok = pref_rep.verdict == "superpolynomial"
        target = "superpolynomial prefactor decay"
    verdict = "flagged" if flagged else ("pass" if slopes_ok and pref_ok else "fail")
    return CheckOutcome(
        "variance", verdict,
        {"time_slopes": slopes, "prefactors": prefs,
         "prefactor_slope": pref_rep.overall_slope,
         "pairwise_slopes": pref_rep.pairwise_slopes.tolist(),
         "prefactor_verdict": pref_rep.verdict, "target": target},
        {"variance": (["horizon", "t_minus_t0", "var", "jackknife_se"], rows)})


def _transmission_profile(model, field):
    """Transmission profiles at t = 0, p = 0 across the horizon's cone."""
    gamma, h = model.family_params["gamma"], model.horizon_T
    e_grid = model.cap_lambda + gamma * h * np.linspace(-1.0, 2.5, 701)
    return transmission_scan(field, gradient_fields(field), model, 0.0,
                             np.zeros(model.dim_p), e_grid, we=make_we(model))


def check_transmission(cfg) -> CheckOutcome:
    """In-cone/off-cone transmission ratio at a short horizon (no-drift case)."""
    h = cfg.get("sweeps", {}).get("transmission_horizon", 0.05)
    model, tc = scenario_model(cfg, h)
    prof = _transmission_profile(model, reduced_aligned_field(model, tc, 2e-5, 400))
    ok = prof.ratio <= 0.1
    return CheckOutcome(
        "transmission", "pass" if ok else "fail",
        {"in_cone_level": prof.in_cone_level,
         "off_cone_level": prof.off_cone_level, "ratio": prof.ratio},
        {"transmission": (["e", "alpha_minus_gamma_dpv"],
                          list(zip(prof.e_grid,
                                   prof.profiles["alpha_minus_gamma_dpv"])))})


def check_transmission_sign_change(cfg) -> CheckOutcome:
    model, tc = scenario_model(cfg)
    prof = _transmission_profile(model, reduced_aligned_field(
        model, tc, cfg["grid"].get("de_reduced", 5e-5), 400))
    n_changes = {k: len(v) for k, v in prof.sign_changes.items()}
    ok = all(n >= 1 for n in n_changes.values())
    return CheckOutcome(
        "transmission_sign_change", "pass" if ok else "fail",
        {"sign_changes": {k: v for k, v in prof.sign_changes.items()},
         "in_cone_level": prof.in_cone_level,
         "off_cone_level": prof.off_cone_level},
        {"transmission": (["e", "alpha_minus_gamma_dpv", "alpha_minus_dpv"],
                          list(zip(prof.e_grid,
                                   prof.profiles["alpha_minus_gamma_dpv"],
                                   prof.profiles["alpha_minus_dpv"])))})


def check_dirac_atom(cfg) -> CheckOutcome:
    model = build_model(cfg["model"])
    _, we, sim, ens = _main_ensemble(_ensemble_key(cfg))
    if ens.escape_fraction > 1e-3:
        return CheckOutcome("dirac_atom", "fail",
                            {"escape_fraction": ens.escape_fraction})
    ladder = default_delta_ladder(model.horizon_T)
    curve = dirac_scan(ens, ladder)
    ctrl = dirac_scan(gaussian_control_terminal(model, we, sim), ladder,
                      cap_lambda=model.cap_lambda)
    deterministic = float(np.ravel(model.family_params.get("alpha", 1.0))[0]) == 0.0
    if deterministic:
        ok = bool(np.all(curve.fractions >= 1.0 - 1e-12))
        stats = {"fractions": curve.fractions.tolist(), "all_trapped": ok}
    else:
        ok = (curve.plateau_defined and curve.plateau >= 0.8
              and ctrl.plateau_defined and ctrl.plateau <= 0.05)
        stats = {"plateau": curve.plateau, "control_plateau": ctrl.plateau,
                 "fractions": curve.fractions.tolist(),
                 "three_sigma": (3 * curve.std_errors).tolist(),
                 "escape_fraction": ens.escape_fraction}
    rows = list(zip(curve.deltas, curve.fractions, curve.std_errors,
                    ctrl.fractions))
    return CheckOutcome("dirac_atom", "pass" if ok else "fail", stats,
                        {"atom_curve": (["delta", "fraction", "se",
                                         "control_fraction"], rows)})


def check_trap(cfg) -> CheckOutcome:
    scfg = cfg["sim"]
    horizons = [0.4, 0.2, 0.1, 0.05]
    p_hats, rows = [], []
    z_dev_worst = 0.0
    for h in horizons:
        model = build_model(cfg["model"], horizon=h)
        we = make_we(model)
        sim = scenario_sim(cfg, model, n_paths=20_000,
                           n_steps=max(200, scfg["n_steps"] // 2),
                           seed=scfg["seed"] + 1)
        rep = trap_diagnostic(model, we, sim)
        p_hats.append(rep.p_hat_F)
        z_dev_worst = max(z_dev_worst, rep.zbar_terminal_dev)
        rows.append((h, rep.p_hat_F, rep.std_error, rep.zbar_terminal_dev,
                     rep.zbar_near_terminal_dev))
    increasing = all(b >= a - 1e-9 for a, b in zip(p_hats[:-1], p_hats[1:]))
    ok = increasing and z_dev_worst <= 1e-9
    stats = {"horizons": horizons, "p_hat_F": p_hats,
             "zbar_terminal_dev": z_dev_worst, "increasing": increasing}
    # event inclusion: the atom fraction dominates P(F) at the matched horizon
    model = build_model(cfg["model"])
    *_, ens = _main_ensemble(_ensemble_key(cfg))
    curve = dirac_scan(ens, default_delta_ladder(model.horizon_T))
    j = horizons.index(model.horizon_T) if model.horizon_T in horizons else None
    if j is not None:
        se_comb = 3 * (curve.std_errors[-1] + rows[j][2])
        ok = ok and curve.fractions[-1] >= p_hats[j] - se_comb
        stats["atom_minus_pF"] = float(curve.fractions[-1] - p_hats[j])
    return CheckOutcome("trap", "pass" if ok else "fail", stats,
                        {"trap": (["horizon", "p_hat_F", "se",
                                   "zbar_term_dev", "zbar_near_dev"], rows)})


def check_sandwich(cfg) -> CheckOutcome:
    model, tc = scenario_model(cfg)
    field, _, _, ens = _main_ensemble(_ensemble_key(cfg))
    smear = field.provenance.get("smoothing_width", field.grid.de)
    frac = terminal_sandwich_check(ens, tc, eta=0.05,
                                   min_cap_distance=10 * smear)
    ok = frac <= 0.01 and ens.escape_fraction <= 1e-3
    return CheckOutcome("sandwich", "pass" if ok else "fail",
                        {"violation_fraction": frac,
                         "escape_fraction": ens.escape_fraction})


def check_characteristics(cfg) -> CheckOutcome:
    """Deterministic paths against the closed-form characteristics."""
    model, tc = scenario_model(cfg)
    we = make_we(model)
    T = model.horizon_T
    gamma = model.family_params["gamma"]
    t_probe = [0.25 * T, 0.5 * T, 0.9 * T]
    field = reduced_aligned_field(model, tc, 5e-5, cfg["sim"]["n_steps"],
                                  t_extra=t_probe)
    prof = BurgersProfile(ell=gamma, cap_lambda=model.cap_lambda, horizon_T=T)
    fans = np.array([model.cap_lambda + x * gamma * T
                     for x in (-0.5, 0.15, 0.35, 0.5, 0.75, 1.3)])
    worst = 0.0
    rows = []
    for e0 in fans:
        sim = scenario_sim(cfg, model, n_paths=101, e0=float(e0),
                           t_snapshots=tuple(t_probe))
        ens = simulate_forward(model, field, we, sim)
        for t in t_probe:
            sim_e = float(ens.snapshots[round(t, 12)]["E"][0])
            ref = float(characteristic(e0, 0.0, t, prof))
            worst = max(worst, abs(sim_e - ref))
            rows.append((float(e0), t, sim_e, ref))
        rows.append((float(e0), T, float(ens.terminal_E[0]),
                     float(characteristic(e0, 0.0, T, prof))))
        worst = max(worst, abs(float(ens.terminal_E[0])
                               - float(characteristic(e0, 0.0, T, prof))))
        spread = float(np.ptp(ens.terminal_E))
        worst = max(worst, spread)   # all paths identical in the noiseless model
    ok = worst <= 1e-3
    return CheckOutcome("characteristics", "pass" if ok else "fail",
                        {"worst_error": worst},
                        {"characteristics": (["e0", "t", "E_sim", "E_exact"],
                                             rows)})


def check_variance_zero(cfg) -> CheckOutcome:
    model = build_model(cfg["model"])
    field, we, _, _ = _main_ensemble(_ensemble_key(cfg))
    T = model.horizon_T
    t_list = [0.25 * T, 0.5 * T]
    sim = scenario_sim(cfg, model, n_paths=5000, e0=cone_start(model, 0.5),
                       t_snapshots=tuple(t_list))
    ens = simulate_forward(model, field, we, sim)
    worst = max(float(np.var(ens.snapshots[round(t, 12)]["E"])) for t in t_list)
    return CheckOutcome("variance_zero", "pass" if worst <= 1e-20 else "fail",
                        {"max_variance": worst})


def check_conditional_support(cfg) -> CheckOutcome:
    model = build_model(cfg["model"])
    *_, ens = _main_ensemble(_ensemble_key(cfg))
    delta = 1e-2 * model.horizon_T
    hist = conditional_support(ens, delta, n_bins=10)
    ok = hist.coverage == 1.0 and hist.n_conditioned >= 1000
    return CheckOutcome(
        "conditional_support", "pass" if ok else "fail",
        {"coverage": hist.coverage, "n_conditioned": hist.n_conditioned,
         "counts": hist.counts.tolist(), "delta": delta},
        {"support_hist": (["bin_left", "count"],
                          list(zip(hist.edges[:-1], hist.counts)))})


def check_mass_near_start(cfg) -> CheckOutcome:
    """Mass near the started value over a short horizon stays above 1/2."""
    h = cfg.get("sweeps", {}).get("mass_check_horizon", 0.01)
    model, tc = scenario_model(cfg, h)
    # fine grid with the terminal-value slice well resolved (fan of ~40 cells
    # at the reading slice), so the recorded Y keeps its martingale meaning
    g = dict(cfg.get("grid", {}))
    g["de_reduced"] = h / 1000
    g["tail_s_min"] = h / 25
    field = reduced_tail_field(model, tc, g)
    we = make_we(model)
    e0 = cone_start(model, 0.5)
    sim = scenario_sim(cfg, model, n_paths=cfg["sim"]["n_paths"] // 2, e0=e0)
    y0 = float(field.eval(0.0, sim.p0, e0, we=we))
    ens = simulate_forward(model, field, we, sim)
    eps = 0.1
    mass = float(np.mean(np.abs(ens.terminal_Y[ens.ok()] - y0) < 2 * eps))
    se = np.sqrt(mass * (1 - mass) / max(ens.ok().sum(), 1))
    ok = mass >= 0.5 - 3 * se
    return CheckOutcome("mass_near_start", "pass" if ok else "fail",
                        {"mass": mass, "se": float(se), "y0": y0, "eps": eps})


def check_feynman_kac(cfg) -> CheckOutcome:
    """Pathwise gradient representation against direct p-differencing.

    Both routes read the same solved equation (as the identity itself does);
    the comparison value is a central p-difference of the reconstructed
    value, the estimator an importance-weighted path integral of de_v.
    """
    model, tc = scenario_model(cfg)
    field = reduced_aligned_field(model, tc, 1e-4, cfg["sim"]["n_steps"])
    derivs = gradient_fields(field)
    we = make_we(model)
    e0 = model.cap_lambda + 0.3 * model.horizon_T
    sim = scenario_sim(cfg, model, e0=e0)
    est = feynman_kac_grad_p(model, field, derivs, sim, we=we)
    h_fd = 1e-3
    diff = np.asarray(field.eval(0.0, sim.p0 + h_fd, np.array([e0]), we=we)
                      - field.eval(0.0, sim.p0 - h_fd, np.array([e0]), we=we))
    pde_val = float(diff.reshape(-1)[0]) / (2 * h_fd)
    ok = (not est.degenerate) and abs(est.estimate - pde_val) <= 3 * est.std_error
    verdict = "flagged" if est.degenerate else ("pass" if ok else "fail")
    return CheckOutcome("feynman_kac", verdict,
                        {"estimate": est.estimate, "std_error": est.std_error,
                         "pde_value": pde_val, "ess_fraction": est.ess_fraction})


def check_bound_report(cfg) -> CheckOutcome:
    """Far-field and gradient-band entries on the scenario field; the
    off-cone decay ratio is measured on a one-sided mollified step (the
    class the square-law statement addresses), just above the cone edge."""
    model, tc = scenario_model(cfg)
    vf = full_field(model, tc, cfg["grid"])
    derivs = gradient_fields(vf)
    we = make_we(model)
    rep = bound_report(vf, derivs, model, we)
    far = rep.entry("far_field")
    band = rep.entry("gradient_band")

    mol = default_mollifier(8)
    tc_up = mollify(heaviside_tc(model.cap_lambda), mol, "upper")
    m_cal = affine_model(alpha=1.0, gamma=1.0, sigma=1.0,
                         cap_lambda=model.cap_lambda, horizon_T=0.4)
    we_cal = make_we(m_cal)
    vf_up = full_field(m_cal, tc_up, {"de_full": 2e-3, "p_half": 3.0,
                                      "n_p": 61, "n_t": 100},
                       mollifier_n=8, pad=0.25, t_extra=[0.2, 0.3])
    rep_up = bound_report(vf_up, gradient_fields(vf_up), m_cal, we_cal,
                          c_off=1.5, horizons=(0.2, 0.1))
    decay = rep_up.entry("off_cone_decay")

    ok = far.passed and band.passed
    verdict = "pass" if ok and decay.passed else ("flagged" if ok else "fail")
    return CheckOutcome("bound_report", verdict,
                        {"far_field_worst": far.worst,
                         "gradient_band_worst": band.worst,
                         "off_cone_ratio": decay.worst,
                         "off_cone_detail": decay.detail})


_CHECKS = {
    "validate": check_validate,
    "gradient_band": check_gradient_band,
    "comparison_mollified": check_comparison_mollified,
    "conservation_gap": check_conservation_gap,
    "burgers_gap": check_burgers_gap,
    "equivalence": check_equivalence,
    "mirror_symmetry": check_mirror_symmetry,
    "flow_squeeze": check_flow_squeeze,
    "variance": check_variance,
    "transmission": check_transmission,
    "transmission_sign_change": check_transmission_sign_change,
    "dirac_atom": check_dirac_atom,
    "trap": check_trap,
    "sandwich": check_sandwich,
    "characteristics": check_characteristics,
    "variance_zero": check_variance_zero,
    "conditional_support": check_conditional_support,
    "mass_near_start": check_mass_near_start,
    "feynman_kac": check_feynman_kac,
    "bound_report": check_bound_report,
}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def check_names(names) -> list:
    """``names`` as a list, after refusing any name that is not a check."""
    unknown = [name for name in names if name not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown check(s) {', '.join(map(repr, unknown))}; "
                         f"known checks: {', '.join(sorted(_CHECKS))}")
    return list(names)


def run_scenario(name_or_cfg, output_root=None, overrides=None,
                 checks=None) -> ExperimentRecord:
    """Execute a scenario pipeline and persist tables plus the record.

    Validation failure refuses the remaining pipeline; the record is still
    written with the failing verdict.
    """
    cfg = (scenario_config(name_or_cfg, overrides)
           if isinstance(name_or_cfg, str) else dict(name_or_cfg))
    todo = check_names(checks if checks is not None else cfg["checks"])
    out_dir = None
    if output_root is not None:
        out_dir = Path(output_root) / cfg["name"]
        out_dir.mkdir(parents=True, exist_ok=True)

    verdicts, stats, manifest, timings = {}, {}, [], {}
    cache0 = _main_ensemble.cache_info()
    for check_name in todo:
        fn = _CHECKS[check_name]
        t0 = time.time()
        outcome = fn(cfg)
        timings[check_name] = round(time.time() - t0, 3)
        verdicts[check_name] = outcome.verdict
        stats[check_name] = outcome.stats
        if out_dir is not None:
            for tname, (header, rows) in outcome.tables.items():
                path = out_dir / f"{check_name}__{tname}.csv"
                fieldio.write_csv(path, header, rows)
                manifest.append(str(path))
        if check_name == "validate" and outcome.verdict == "fail":
            break

    cache1 = _main_ensemble.cache_info()
    record = ExperimentRecord(
        scenario=cfg["name"], config=cfg, config_hash=config_hash(cfg),
        verdicts=verdicts, stats=stats, manifest=manifest, timings=timings,
        cache={"hits": cache1.hits - cache0.hits,
               "misses": cache1.misses - cache0.misses})
    if out_dir is not None:
        (out_dir / "record.json").write_text(record.to_json())
        manifest.append(str(out_dir / "record.json"))
    return record


def emit_plot_data(record_dir, which: str, out_path=None) -> Path:
    """Copy the named check's table into a plot-ready CSV."""
    record_dir = Path(record_dir)
    matches = sorted(record_dir.glob(f"{which}__*.csv"))
    if not matches:
        raise FileNotFoundError(
            f"check {which!r} has no table under {record_dir}")
    src = matches[0]
    dst = Path(out_path) if out_path else record_dir / f"plot_{which}.csv"
    dst.write_text(src.read_text())
    return dst
