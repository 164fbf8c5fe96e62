"""Check implementations, scenario runner, records and plot-data export.

Every check returns a three-valued verdict: ``pass`` / ``fail`` /
``flagged`` (statistically inconclusive, e.g. below Monte Carlo
resolution), together with its measured statistics and CSV-ready tables.
Identical configs reproduce identical statistics bit for bit.

The checks that read the scenario's own field and paths share one build per
process (``_main_ensemble``), keyed by the canonical JSON of the config's
``model``, ``tc``, ``grid`` and ``sim`` blocks and ``sweeps.gap_horizons``.
The field is solved with the build and the paths on a check's first read, so
a run of field-only checks simulates none.  At most three builds are held (least
recently used out), and their arrays are read-only, so a hit cannot change
the numbers.
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
from .burgers_ref import (BurgersProfile, WEvaluator, burgers_gap, characteristic,
                          gaussian_control_fractions, trap_probability)
from .mc_engine import (SimConfig, SupportHistogram, conditional_support,
                        default_delta_ladder, dirac_scan, feynman_kac_grad_p,
                        flow_squeeze_check, prefactor_report, simulate_forward,
                        terminal_sandwich_check, transmission_scan, variance_scan)
from .model_core import (BUMP_MEAN, affine_model, heaviside_tc, mollify,
                         validate_assumptions)
from .scenarios import build_model, build_tc, config_hash
from .value_pde import (conservation_gap, far_field_violation, full_field,
                        gradient_band_violation, off_cone_decay,
                        reduced_aligned_field, reduced_tail_field)


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
# scenario artefacts
# ---------------------------------------------------------------------------

def scenario_model(cfg, horizon=None):
    """The scenario's model (at ``horizon`` if given) and terminal condition."""
    model = build_model(cfg["model"], horizon)
    return model, build_tc(cfg.get("tc", {}), model.cap_lambda)


def scenario_field(cfg, model, tc):
    """The scenario's own field: the reduced tail field when its grid names
    ``de_reduced``, else the full (t, p, e) solve; either holds a slice at
    T - h for each of the ``sweeps.gap_horizons`` h that ``burgers_gap`` reads."""
    g = cfg.get("grid", {})
    t_gap = [model.horizon_T - h for h in cfg.get("sweeps", {}).get("gap_horizons", [])]
    if "de_reduced" in g:
        return reduced_tail_field(model, tc, g, t_extra=t_gap)
    return full_field(model, tc, g, t_extra=t_gap)


def scenario_sim(cfg, model, **over) -> SimConfig:
    """Path settings from ``cfg["sim"]``, started at t = 0, p = 0 and the cone
    midpoint; ``over`` replaces any field."""
    scfg = cfg["sim"]
    return SimConfig(**{"n_paths": scfg["n_paths"], "n_steps": scfg["n_steps"],
                        "p0": np.zeros(model.dim_p),
                        "e0": cone_start(model, 0.5),
                        "seed": scfg["seed"], **over})


def _ensemble_key(cfg) -> str:
    """Canonical JSON of the config values the scenario ensemble depends on."""
    gap = {"gap_horizons": cfg.get("sweeps", {}).get("gap_horizons", [])}
    return json.dumps({**{k: cfg.get(k, {}) for k in ("model", "tc", "grid", "sim")},
                       "sweeps": gap}, sort_keys=True)


@functools.lru_cache(maxsize=3)
def _main_ensemble(key: str):
    """(model, tc, field, sim, paths) of the config values in ``key``, where
    ``paths()`` simulates the path ensemble on its first call; memoised."""
    cfg = json.loads(key)
    model, tc = scenario_model(cfg)
    field = scenario_field(cfg, model, tc)
    field.values.flags.writeable = False
    sim = scenario_sim(cfg, model)

    @functools.cache
    def paths():
        ens = simulate_forward(model, field, sim)
        for arr in (ens.terminal_E, ens.terminal_Y, ens.terminal_Ebar, ens.escaped):
            arr.flags.writeable = False
        return ens
    return model, tc, field, sim, paths


def cone_start(model, frac: float) -> float:
    """E start with ebar - cap = frac * gamma * T, from p = 0 (w(0, 0) = 0 here)."""
    gamma = model.family_params.get("gamma", model.ell1)
    return model.cap_lambda + frac * gamma * model.horizon_T


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_validate(cfg) -> CheckOutcome:
    model = build_model(cfg["model"])
    rep = validate_assumptions(model)
    stats = {c.name: c.worst_margin for c in rep.checks}
    stats["elliptic"] = rep.elliptic
    return CheckOutcome("validate", "pass" if rep.all_passed else "fail", stats)


# the fixed grid of the gradient-band check: e-cells, stored slices, p-nodes
_BAND_N_E, _BAND_N_T, _BAND_N_P = 400, 200, 50
# the mollifier orders of the comparison and conservation-gap checks
_MOLLIFIER_NS = (4, 8, 16)


def check_gradient_band(cfg) -> CheckOutcome:
    """Gradient band on the fixed acceptance grid (400 e, 200 t, 50 p)."""
    model, tc = scenario_model(cfg)
    half = 2.0 * model.lipschitz_L * model.horizon_T
    vf = full_field(model, tc, {"de_full": 2.0 * half / _BAND_N_E, "n_t": _BAND_N_T,
                                "p_half": 2.5, "n_p": _BAND_N_P})
    entry = gradient_band_violation(vf, model)
    return CheckOutcome("gradient_band", "pass" if entry.passed else "fail",
                        {"worst_violation": entry.worst})


def check_comparison_mollified(cfg) -> CheckOutcome:
    """Ordered mollified pairs stay ordered; window gap shrinks with n."""
    model = build_model(cfg["model"])
    tc = heaviside_tc(model.cap_lambda)
    g = cfg.get("grid", {})
    gcfg = {"de_full": 2e-3, "p_half": g.get("p_half", 3.0), "n_p": 41,
            "n_t": 50}
    order_slack = 1e-6
    worst_order = -np.inf
    gaps, uppers = [], []
    pad = 1.0 / min(_MOLLIFIER_NS)
    for n in _MOLLIFIER_NS:
        up = full_field(model, mollify(tc, n, "upper"), gcfg, pad=pad)
        lo = full_field(model, mollify(tc, n, "lower"), gcfg, pad=pad)
        worst_order = max(worst_order, float(np.max(lo.values - up.values)))
        gaps.append(conservation_gap(up, lo))
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
                              list(zip(_MOLLIFIER_NS, gaps)))})


def check_conservation_gap(cfg) -> CheckOutcome:
    """Terminal window gap equals twice the bump mean over n."""
    model = build_model(cfg["model"])
    tc = heaviside_tc(model.cap_lambda)
    rows = []
    ok = True
    for n in _MOLLIFIER_NS:
        up = mollify(tc, n, "upper")
        lo = mollify(tc, n, "lower")
        x = np.linspace(model.cap_lambda - 2.0 / n, model.cap_lambda + 2.0 / n,
                        20001)
        gap = float(np.trapezoid(up(x) - lo(x), x))
        expect = 2.0 * BUMP_MEAN / n
        rows.append((n, gap, expect))
        ok = ok and abs(gap - expect) <= 0.01 * expect
    return CheckOutcome("conservation_gap", "pass" if ok else "fail",
                        {"rows": rows},
                        {"terminal_gap": (["n", "gap", "expected"], rows)})


def check_burgers_gap(cfg) -> CheckOutcome:
    """Sup gap to the rescaled profile decreasing toward the horizon, on the
    scenario's own field at its slices T - h, h in ``sweeps.gap_horizons``."""
    model, _, field, _, _ = _main_ensemble(_ensemble_key(cfg))
    t_list = [model.horizon_T - h for h in cfg["sweeps"]["gap_horizons"]]
    table = burgers_gap(field, model, t_list)
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
                                len(vf.grid.t_nodes) - 1)
    T = model.horizon_T
    pv = vf.grid.p_nodes[0]
    keep_p = np.abs(pv) <= 1.0
    e = vf.grid.e_nodes
    keep_e = np.abs(e - model.cap_lambda) <= model.lipschitz_L * T
    worst = 0.0
    for t in vf.grid.t_nodes[vf.grid.t_nodes <= T - 0.1 + 1e-12]:
        sl = vf.values_at(t)[keep_p][:, keep_e]
        for i, p in enumerate(pv[keep_p]):
            v = red.eval(float(t), np.array([p]), e[keep_e], model)
            worst = max(worst, float(np.max(np.abs(sl[i] - v))))
    ok = worst <= 3e-2
    return CheckOutcome("equivalence", "pass" if ok else "fail",
                        {"sup_difference": worst, "tolerance": 3e-2})


def check_mirror_symmetry(cfg) -> CheckOutcome:
    model = build_model(cfg["model"])
    tc = heaviside_tc(model.cap_lambda)
    g = cfg.get("grid", {})
    red = reduced_aligned_field(model, tc, g.get("de_reduced", 2e-4), 100)
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
                                "tail_switch": 0.02})
    T = model.horizon_T
    sim = scenario_sim(cfg, model, n_paths=20_000)
    pairs = [(cone_start(model, 0.55), cone_start(model, 0.30)),
             (cone_start(model, 0.30), cone_start(model, 0.10))]
    t_list = [0.25 * T, 0.5 * T, 0.75 * T]
    rep = flow_squeeze_check(model, field, sim, pairs, t_list)
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
        sim = scenario_sim(cfg, model)
        scan = variance_scan(model, field, sim, t_list)
        slopes.append(scan.time_slope)
        prefs.append(scan.prefactor)
        flagged = flagged or scan.below_resolution
        for t_, v_, se_ in zip(scan.times, scan.variances, scan.jackknife_se):
            rows.append((h, t_, v_, se_))
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
    return transmission_scan(field, model, e_grid)


def check_transmission(cfg) -> CheckOutcome:
    """In-cone/off-cone transmission ratio at a short horizon (no-drift case)."""
    model, tc = scenario_model(cfg, 0.05)
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
    model, *_, paths = _main_ensemble(_ensemble_key(cfg))
    ens = paths()
    if ens.escape_fraction > 1e-3:
        return CheckOutcome("dirac_atom", "fail",
                            {"escape_fraction": ens.escape_fraction})
    ladder = default_delta_ladder(model.horizon_T)
    curve = dirac_scan(ens, ladder)
    ctrl = gaussian_control_fractions(model, ladder)
    ctrl_plateau = float(ctrl[-1] / ctrl[0])
    deterministic = not np.any(model.family_params.get("alpha", 1.0))   # no noise reaches E
    if deterministic:
        ok = bool(np.all(curve.fractions >= 1.0 - 1e-12))
        stats = {"fractions": curve.fractions.tolist(), "all_trapped": ok}
    else:
        ok = (curve.plateau_defined and curve.plateau >= 0.8
              and ctrl_plateau <= 0.05)
        stats = {"plateau": curve.plateau, "control_plateau": ctrl_plateau,
                 "fractions": curve.fractions.tolist(),
                 "three_sigma": (3 * curve.std_errors).tolist(),
                 "escape_fraction": ens.escape_fraction}
    rows = list(zip(curve.deltas, curve.fractions, curve.std_errors, ctrl))
    return CheckOutcome("dirac_atom", "pass" if ok else "fail", stats,
                        {"atom_curve": (["delta", "fraction", "se",
                                         "control_fraction"], rows)})


def check_trap(cfg) -> CheckOutcome:
    horizons = [0.4, 0.2, 0.1, 0.05]
    p_hats = [trap_probability(build_model(cfg["model"], horizon=h)) for h in horizons]
    increasing = all(b >= a - 1e-9 for a, b in zip(p_hats[:-1], p_hats[1:]))
    # event inclusion: the atom fraction dominates P(F) at the scenario's horizon
    model, *_, paths = _main_ensemble(_ensemble_key(cfg))
    curve = dirac_scan(paths(), default_delta_ladder(model.horizon_T))
    p_F = trap_probability(model)
    ok = increasing and curve.fractions[-1] >= p_F - 3 * curve.std_errors[-1]
    stats = {"horizons": horizons, "p_hat_F": p_hats, "increasing": increasing,
             "atom_minus_pF": float(curve.fractions[-1] - p_F)}
    return CheckOutcome("trap", "pass" if ok else "fail", stats,
                        {"trap": (["horizon", "p_hat_F"], list(zip(horizons, p_hats)))})


def check_sandwich(cfg) -> CheckOutcome:
    _, tc, field, _, paths = _main_ensemble(_ensemble_key(cfg))
    ens = paths()
    smear = field.provenance["smoothing_width"]
    frac = terminal_sandwich_check(ens, tc, min_cap_distance=10 * smear)
    ok = frac <= 0.01 and ens.escape_fraction <= 1e-3
    return CheckOutcome("sandwich", "pass" if ok else "fail",
                        {"violation_fraction": frac,
                         "escape_fraction": ens.escape_fraction})


def check_characteristics(cfg) -> CheckOutcome:
    """Deterministic paths against the closed-form characteristics."""
    model, tc = scenario_model(cfg)
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
        ens = simulate_forward(model, field, sim)
        for t in t_probe:
            sim_e = float(ens.snapshots[round(t, 12)][0])
            ref = float(characteristic(e0, t, prof))
            worst = max(worst, abs(sim_e - ref))
            rows.append((float(e0), t, sim_e, ref))
        rows.append((float(e0), T, float(ens.terminal_E[0]),
                     float(characteristic(e0, T, prof))))
        worst = max(worst, abs(float(ens.terminal_E[0])
                               - float(characteristic(e0, T, prof))))
        spread = float(np.ptp(ens.terminal_E))
        worst = max(worst, spread)   # all paths identical in the noiseless model
    ok = worst <= 1e-3
    return CheckOutcome("characteristics", "pass" if ok else "fail",
                        {"worst_error": worst},
                        {"characteristics": (["e0", "t", "E_sim", "E_exact"],
                                             rows)})


def check_variance_zero(cfg) -> CheckOutcome:
    model, _, field, _, _ = _main_ensemble(_ensemble_key(cfg))
    T = model.horizon_T
    t_list = [0.25 * T, 0.5 * T]
    sim = scenario_sim(cfg, model, n_paths=5000, t_snapshots=tuple(t_list))
    ens = simulate_forward(model, field, sim)
    worst = max(float(np.var(ens.snapshots[round(t, 12)])) for t in t_list)
    return CheckOutcome("variance_zero", "pass" if worst <= 1e-20 else "fail",
                        {"max_variance": worst})


def check_conditional_support(cfg) -> CheckOutcome:
    model, *_, paths = _main_ensemble(_ensemble_key(cfg))
    delta = 1e-2 * model.horizon_T
    ens = paths()
    try:
        hist = conditional_support(ens, delta)
    except ValueError:      # an empty conditioning event: nothing is covered
        hist = SupportHistogram(np.linspace(0.0, 1.0, 11), np.zeros(10, int), 0.0, 0)
    ok = hist.coverage == 1.0 and hist.n_conditioned >= 1000
    return CheckOutcome(
        "conditional_support", "pass" if ok else "fail",
        {"coverage": hist.coverage, "n_conditioned": hist.n_conditioned,
         "counts": hist.counts.tolist(), "delta": delta},
        {"support_hist": (["bin_left", "count"],
                          list(zip(hist.edges[:-1], hist.counts)))})


def check_mass_near_start(cfg) -> CheckOutcome:
    """Mass near the started value over a short horizon stays above 1/2."""
    h = 0.01
    model, tc = scenario_model(cfg, h)
    # fine grid with the terminal-value slice well resolved (fan of ~40 cells
    # at the reading slice), so the recorded Y keeps its martingale meaning
    g = dict(cfg.get("grid", {}))
    g["de_reduced"] = h / 1000
    g["tail_s_min"] = h / 25
    field = reduced_tail_field(model, tc, g)
    sim = scenario_sim(cfg, model, n_paths=max(1, cfg["sim"]["n_paths"] // 2))
    y0 = float(field.eval(0.0, sim.p0, sim.e0, model))
    ens = simulate_forward(model, field, sim)
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
    value, the estimator a path integral of de_v.
    """
    model, tc = scenario_model(cfg)
    field = reduced_aligned_field(model, tc, 1e-4, cfg["sim"]["n_steps"])
    e0 = model.cap_lambda + 0.3 * model.horizon_T
    sim = scenario_sim(cfg, model, e0=e0)
    est = feynman_kac_grad_p(model, field, sim)
    h_fd = 1e-3
    diff = np.asarray(field.eval(0.0, sim.p0 + h_fd, np.array([e0]), model)
                      - field.eval(0.0, sim.p0 - h_fd, np.array([e0]), model))
    pde_val = float(diff.reshape(-1)[0]) / (2 * h_fd)
    ok = abs(est.estimate - pde_val) <= 3 * est.std_error
    return CheckOutcome("feynman_kac", "pass" if ok else "fail",
                        {"estimate": est.estimate, "std_error": est.std_error,
                         "pde_value": pde_val})


def check_bound_report(cfg) -> CheckOutcome:
    """Far-field and gradient-band entries on the scenario field; the
    off-cone decay ratio is measured on a one-sided mollified step (the
    class the square-law statement addresses), just above the cone edge."""
    model, tc = scenario_model(cfg)
    vf = full_field(model, tc, cfg["grid"])
    far = far_field_violation(vf, model)
    band = gradient_band_violation(vf, model)

    tc_up = mollify(heaviside_tc(model.cap_lambda), 8, "upper")
    m_cal = affine_model(alpha=1.0, gamma=1.0, sigma=1.0,
                         cap_lambda=model.cap_lambda, horizon_T=0.4)
    vf_up = full_field(m_cal, tc_up, {"de_full": 2e-3, "p_half": 3.0,
                                      "n_p": 61, "n_t": 100},
                       pad=0.25, t_extra=[0.2, 0.3])
    decay = off_cone_decay(vf_up, m_cal)

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

# the checks making each solve not every scenario can serve: "reduced" reads
# gamma, "full" grid.de_full; "scenario" (the scenario's field) is reduced when
# the grid names de_reduced, else full
_SOLVES = {"full": "equivalence bound_report",
           "scenario": "burgers_gap dirac_atom trap sandwich variance_zero "
                       "conditional_support",
           "reduced": "equivalence mirror_symmetry flow_squeeze variance transmission "
                      "transmission_sign_change characteristics mass_near_start "
                      "feynman_kac"}
# the checks whose estimator needs a model with one forward dimension (the
# transmission profile reads the first axis of alpha and of dp_w only)
_ONE_DIM = "feynman_kac transmission transmission_sign_change"
# the checks that need a closed-form compensator, one affine in p: the trap
# probability is a strip series, and the control of the atom a Gaussian law,
# only where the compensator's noise sigma^T dp_w does not depend on P
_CLOSED_W = "trap dirac_atom"


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


def servable_checks(cfg, names=None, field=False) -> list:
    """``names`` (default: the config's checks) as a list, after refusing any
    that is not a check, needs a solve (``_SOLVES``) the scenario cannot serve,
    needs one forward dimension (``_ONE_DIM``) the model lacks, or needs a
    closed-form compensator (``_CLOSED_W``) the family lacks; also an
    e-step too coarse for 4 e-nodes, and with ``field`` a field it cannot solve."""
    todo = check_names(cfg["checks"] if names is None else names)
    grid, family = cfg.get("grid", {}), cfg["model"]["family"]
    model = build_model(cfg["model"])
    half = 2.0 * model.lipschitz_L * model.horizon_T      # as in e_nodes_for
    refused = [f"grid.{key} {grid[key]} leaves fewer than 4 nodes on the e-domain "
               f"[{model.cap_lambda - half}, {model.cap_lambda + half}]"
               for key in ("de_full", "de_reduced")
               if key in grid and np.ceil(2.0 * half / grid[key]) < 3]
    no_gamma = model.family_params.get("gamma") is None
    lacks = {"reduced": f"the {family} family has no gamma" if no_gamma else "",
             "full": "" if "de_full" in grid else "grid names no 'de_full'"}
    kind = {"scenario": "reduced" if "de_reduced" in grid else "full"}
    if "burgers_gap" in todo and "gap_horizons" not in cfg.get("sweeps", {}):
        refused.append("check 'burgers_gap' needs gap horizons, but sweeps "
                       "names no gap_horizons")
    for solve, users in _SOLVES.items():
        k = kind.get(solve, solve)
        refused += [f"check {name!r} needs a {k} solve, but {lacks[k]}"
                    for name in todo if name in users.split() and lacks[k]]
    k = kind["scenario"]
    if field and lacks[k]:
        refused.append(f"the scenario field needs a {k} solve, but {lacks[k]}")
    if model.dim_p != 1:
        refused += [f"check {name!r} needs a model with one forward dimension, "
                    f"but the model has {model.dim_p}"
                    for name in todo if name in _ONE_DIM.split()]
    if not WEvaluator(model).affine_in_p:
        refused += [f"check {name!r} needs a closed-form compensator, but the "
                    f"{family} family has none"
                    for name in todo if name in _CLOSED_W.split()]
    if refused:
        raise ValueError("; ".join(refused))
    return todo


def run_scenario(cfg, output_root=None, checks=None) -> ExperimentRecord:
    """Execute a scenario pipeline (``checks``, default the config's own; see
    ``servable_checks``) and persist tables plus the record.

    Validation failure refuses the remaining pipeline; the record is still
    written with the failing verdict.
    """
    todo = servable_checks(cfg, checks)
    out_dir = None
    if output_root is not None:
        out_dir = Path(output_root) / cfg["name"]
        out_dir.mkdir(parents=True, exist_ok=True)

    verdicts, stats, manifest, timings = {}, {}, [], {}
    cache0 = _main_ensemble.cache_info()
    for check_name in todo:
        fn = _CHECKS[check_name]
        t0 = time.perf_counter()
        outcome = fn(cfg)
        timings[check_name] = round(time.perf_counter() - t0, 3)
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
    """Copy the named check's table into a plot-ready CSV; ``which`` must
    name a check, and ``out_path`` a file in an existing directory."""
    check_names([which])
    record_dir = Path(record_dir)
    matches = sorted(record_dir.glob(f"{which}__*.csv"))
    if not matches:
        raise FileNotFoundError(
            f"check {which!r} has no table under {record_dir}")
    src = matches[0]
    dst = Path(out_path) if out_path else record_dir / f"plot_{which}.csv"
    if dst.is_dir():
        raise ValueError(f"cannot write {dst}: it is a directory")
    if not dst.parent.is_dir():
        raise ValueError(f"cannot write {dst}: its directory {dst.parent} "
                         "does not exist")
    dst.write_text(src.read_text())
    return dst
