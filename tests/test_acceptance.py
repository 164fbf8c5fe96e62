"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they complete; every test here carries the ``acceptance`` marker, so
``pytest -m "not acceptance"`` runs the rest of the suite alone.  Tolerances
are fixed here, not tuned at runtime; statistical checks use fixed seeds and
are exactly reproducible.
"""

import time

import numpy as np
import pytest

from fbsde_lab.scenarios import registry_list, scenario_config
from fbsde_lab import experiments as X

pytestmark = pytest.mark.acceptance


def _report(k, name, ok, detail):
    line = f"[ACCEPTANCE {k:>2}] {name}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_gradient_band_every_scenario():
    worst = {}
    for entry in registry_list():
        cfg = scenario_config(entry["name"])
        t0 = time.monotonic()
        out = X.check_gradient_band(cfg, n_e=400, n_t=200, n_p=50)
        elapsed = time.monotonic() - t0
        worst[entry["name"]] = (out.verdict, round(out.stats["worst_violation"], 8),
                                round(elapsed, 1))
        assert elapsed < 60.0, f"{entry['name']} gradient band took {elapsed:.0f}s"
    ok = all(v[0] == "pass" for v in worst.values())
    _report(1, "gradient band (400e x 200t x 50p)", ok, str(worst))


def test_criterion_02_comparison_and_conservation():
    cfg = scenario_config("affine_constant")
    t0 = time.monotonic()
    comp = X.check_comparison_mollified(cfg)
    gap = X.check_conservation_gap(cfg)
    elapsed = time.monotonic() - t0
    ok = comp.verdict == "pass" and gap.verdict == "pass" and elapsed < 120
    _report(2, "comparison principle + conservation gap", ok,
            f"order viol {comp.stats['worst_order_violation']:.2e}, "
            f"window gaps {np.round(comp.stats['window_gaps'], 4).tolist()}, "
            f"terminal gaps ok={gap.verdict}, {elapsed:.0f}s")


def test_criterion_03_burgers_convergence():
    details = []
    ok = True
    for name in ("affine_constant", "nonlinear_1d"):
        cfg = scenario_config(name)
        t0 = time.monotonic()
        out = X.check_burgers_gap(cfg)
        elapsed = time.monotonic() - t0
        ok = ok and out.verdict == "pass" and elapsed < 120
        details.append(f"{name}: gaps={np.round(out.stats['sup_gaps'], 4).tolist()} "
                       f"beta={out.stats['beta_hat']:.3f} ({elapsed:.0f}s)")
    _report(3, "profile convergence toward the horizon", ok, "; ".join(details))


def test_criterion_04_dirac_atom_with_control():
    cfg = scenario_config("affine_dirac")
    t0 = time.monotonic()
    out = X.check_dirac_atom(cfg)
    elapsed = time.monotonic() - t0
    ok = (out.verdict == "pass" and out.stats["plateau"] >= 0.8
          and out.stats["control_plateau"] <= 0.05 and elapsed < 180)
    _report(4, "terminal point mass vs Gaussian control", ok,
            f"plateau={out.stats['plateau']:.4f}, "
            f"control={out.stats['control_plateau']:.4f}, "
            f"3sigma={np.max(out.stats['three_sigma']):.2e}, {elapsed:.0f}s")


def test_criterion_05_conditional_support_and_mass():
    cfg = scenario_config("elliptic_support")
    t0 = time.monotonic()
    sup = X.check_conditional_support(cfg)
    mass = X.check_mass_near_start(cfg)
    elapsed = time.monotonic() - t0
    ok = (sup.verdict == "pass" and sup.stats["coverage"] == 1.0
          and sup.stats["n_conditioned"] >= 1000
          and mass.verdict == "pass" and elapsed < 300)
    _report(5, "conditional support of the terminal value", ok,
            f"deciles nonempty 10/10, n_cond={sup.stats['n_conditioned']}, "
            f"mass={mass.stats['mass']:.3f} >= 0.5-3se, {elapsed:.0f}s")


NOISY = ["affine_dirac", "affine_constant", "linear_drift_neg",
         "linear_drift_pos", "elliptic_support", "nonlinear_1d",
         "affine_smooth_ramp"]


def test_criterion_06_terminal_sandwich_all_noisy():
    worst = {}
    for name in NOISY:
        out = X.check_sandwich(scenario_config(name))
        worst[name] = (out.verdict, round(out.stats["violation_fraction"], 5))
    ok = all(v[0] == "pass" for v in worst.values())
    _report(6, "relaxed terminal condition (eta=0.05)", ok, str(worst))


def test_criterion_07_flow_squeeze_and_coalescence():
    cfg = scenario_config("affine_constant")
    out = X.check_flow_squeeze(cfg)
    s = out.stats
    ok = (out.verdict == "pass" and s["frac_ok"] >= 0.999
          and s["coalescence_fraction"] - 3 * s["coalescence_se"] >= 0.1)
    _report(7, "two-sided flow squeeze + coalescence", ok,
            f"frac_ok={s['frac_ok']:.5f}, "
            f"coalescence={s['coalescence_fraction']:.3f}"
            f"+-{s['coalescence_se']:.3f}")


def test_criterion_08_variance_exponents():
    details, ok = [], True
    for name, target in (("affine_constant", "superpolynomial"),
                         ("linear_drift_neg", "slope2")):
        cfg = scenario_config(name)
        t0 = time.monotonic()
        out = X.check_variance(cfg)
        elapsed = time.monotonic() - t0
        s = out.stats
        slopes_ok = all(abs(x - 3.0) <= 0.3 for x in s["time_slopes"])
        if target == "superpolynomial":
            fam_ok = s["prefactor_verdict"] == "superpolynomial"
        else:
            fam_ok = abs(s["prefactor_slope"] - 2.0) <= 0.5
        ok = ok and out.verdict == "pass" and slopes_ok and fam_ok and elapsed < 300
        details.append(f"{name}: time-slopes={np.round(s['time_slopes'], 3).tolist()}, "
                       f"pref-slope={s['prefactor_slope']:.2f}, "
                       f"verdict={s['prefactor_verdict']} ({elapsed:.0f}s)")
    _report(8, "variance scaling exponents", ok, "; ".join(details))


def test_criterion_09_transmission_coefficient():
    pos = X.check_transmission_sign_change(scenario_config("linear_drift_pos"))
    ratio = X.check_transmission(scenario_config("affine_constant"))
    n_changes = {k: len(v) for k, v in pos.stats["sign_changes"].items()}
    ok = (pos.verdict == "pass" and all(n >= 1 for n in n_changes.values())
          and ratio.verdict == "pass" and ratio.stats["ratio"] <= 0.1)
    _report(9, "transmission sign change + in-cone smallness", ok,
            f"sign changes {n_changes}, in/off ratio={ratio.stats['ratio']:.4f}")


def test_criterion_10_pathwise_gradient():
    out = X.check_feynman_kac(scenario_config("affine_smooth_ramp"))
    s = out.stats
    gap = abs(s["estimate"] - s["pde_value"])
    ok = out.verdict == "pass" and gap <= 3 * s["std_error"]
    _report(10, "pathwise gradient representation", ok,
            f"mc={s['estimate']:.6f}, pde={s['pde_value']:.6f}, "
            f"|diff|={gap:.2e} <= 3se={3 * s['std_error']:.2e}")


def test_criterion_11_reduced_full_equivalence_and_mirror():
    cfg = scenario_config("affine_constant")
    eq = X.check_equivalence(cfg)
    mir = X.check_mirror_symmetry(cfg)
    ok = (eq.verdict == "pass" and eq.stats["sup_difference"] <= 3e-2
          and mir.verdict == "pass" and mir.stats["worst_asymmetry"] <= 2e-2)
    _report(11, "reduced/full equivalence + mirror symmetry", ok,
            f"sup diff={eq.stats['sup_difference']:.4f} <= 0.03, "
            f"asymmetry={mir.stats['worst_asymmetry']:.4f} <= 0.02")
