"""Scenario catalog: named, fully-declarative experiment configurations.

Each scenario resolves to a model family, terminal condition, grid
parameters, simulation settings and a list of named checks.  Configs are
plain JSON-serializable dicts (schema version 1) so runs are diffable and
reproducible; the CLI can override individual fields.
"""

from __future__ import annotations

import copy
import hashlib
import json

import numpy as np

from .model_core import (ModelSpec, TerminalCondition, affine_model,
                         heaviside_tc, linear_drift_model, nonlinear_model,
                         smooth_ramp_tc)

SCHEMA_VERSION = 1


def build_model(mcfg: dict, horizon: float | None = None) -> ModelSpec:
    """Instantiate the ModelSpec described by a scenario's model block."""
    m = dict(mcfg)
    family = m.pop("family")
    if horizon is not None:
        m["horizon_T"] = horizon
    if family == "affine_constant":
        return affine_model(**m)
    if family == "linear_drift":
        return linear_drift_model(**m)
    if family == "nonlinear_1d":
        kind = m.pop("f0", "sine_perturbed")
        if kind != "sine_perturbed":
            raise ValueError(f"unknown nonlinear profile {kind!r}")
        amp = m.pop("f0_amplitude", 0.1)
        f0 = lambda z: z + amp * np.sin(z)
        f0p = lambda z: 1.0 + amp * np.cos(z)
        return nonlinear_model(f0, f0p, ell1=1.0 - amp, ell2=1.0 + amp, **m)
    raise ValueError(f"unknown family {family!r}; custom coefficients are "
                     "loadable only through registered scenarios")


def build_tc(tcfg: dict, cap_lambda: float) -> TerminalCondition:
    kind = tcfg.get("kind", "heaviside")
    if kind == "heaviside":
        return heaviside_tc(cap_lambda)
    if kind == "smooth_ramp":
        return smooth_ramp_tc(cap_lambda, tcfg["width"])
    raise ValueError(f"unknown terminal condition kind {kind!r}")


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _base(name, description, model, checks, **over):
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "description": description,
        "model": model,
        "tc": {"kind": "heaviside"},
        "sim": {"n_paths": 100_000, "n_steps": 1000, "seed": 7},
        "checks": checks,
    }
    cfg.update(over)
    return cfg


_REGISTRY = {}


def _register(builder):
    cfg = builder()
    _REGISTRY[cfg["name"]] = builder
    return builder


@_register
def affine_constant():
    return _base(
        "affine_constant",
        "constant-coefficient affine feedback; gradient band, comparison, "
        "rarefaction-profile convergence, reduced/full equivalence, mirror "
        "symmetry, flow squeeze, zero-drift variance scaling, transmission "
        "smallness, terminal sandwich",
        {"family": "affine_constant", "alpha": 0.8, "gamma": 1.0,
         "sigma": 1.0, "b": 0.0, "cap_lambda": 0.0, "horizon_T": 0.4},
        ["validate", "gradient_band", "comparison_mollified",
         "conservation_gap", "burgers_gap", "equivalence", "mirror_symmetry",
         "flow_squeeze", "variance", "transmission", "sandwich"],
        grid={"de_full": 5e-4, "p_half": 3.0, "n_p": 76, "n_t": 100,
              "de_reduced": 2e-4},
        sweeps={"mollifier_n": [4, 8, 16],
                "gap_horizons": [0.4, 0.2, 0.1, 0.05],
                "variance_horizons": [0.4, 0.2, 0.1],
                "transmission_horizon": 0.05},
    )


@_register
def affine_dirac():
    return _base(
        "affine_dirac",
        "small-noise affine model started at the cone midpoint; terminal "
        "point-mass plateau against a Gaussian control, bridge-trap "
        "diagnostic, terminal sandwich",
        {"family": "affine_constant", "alpha": 0.1, "gamma": 1.0,
         "sigma": 1.0, "b": 0.0, "cap_lambda": 0.0, "horizon_T": 0.1},
        ["validate", "dirac_atom", "trap", "sandwich"],
        grid={"de_reduced": 5e-6, "tail_s_min": 1e-5,
              "tail_ratio": 1.07, "tail_switch": 0.02, "tail_coarse": 1.25},
        sim={"n_paths": 100_000, "n_steps": 1000, "seed": 7,
             "e0_cone": 0.5},
    )


@_register
def degenerate_characteristics():
    return _base(
        "degenerate_characteristics",
        "feedback independent of p (alpha = 0): no noise reaches E; paths "
        "follow the inviscid characteristics exactly and the cone collapses "
        "onto the cap",
        {"family": "affine_constant", "alpha": 0.0, "gamma": 1.0,
         "sigma": 1.0, "b": 0.0, "cap_lambda": 0.0, "horizon_T": 0.1},
        ["validate", "characteristics", "dirac_atom", "variance_zero",
         "sandwich"],
        grid={"de_reduced": 5e-6, "tail_s_min": 1e-5,
              "tail_ratio": 1.07, "tail_switch": 0.02, "tail_coarse": 1.25},
        sim={"n_paths": 20_000, "n_steps": 1000, "seed": 7, "e0_cone": 0.5},
    )


@_register
def linear_drift_neg():
    return _base(
        "linear_drift_neg",
        "mean-reverting drift (lam = -1): polynomial noise transmission; "
        "cube-law time scaling with square-law horizon prefactor",
        {"family": "linear_drift", "lam": -1.0, "alpha": 1.0, "gamma": 1.0,
         "sigma": 1.0, "b0": 0.0, "cap_lambda": 0.0, "horizon_T": 0.2},
        ["validate", "variance", "sandwich"],
        grid={"de_reduced": 1e-4},
        sweeps={"variance_horizons": [0.2, 0.1, 0.05]},
    )


@_register
def linear_drift_pos():
    return _base(
        "linear_drift_pos",
        "expanding drift (lam = +1): the transmission coefficient changes "
        "sign along e near the horizon",
        {"family": "linear_drift", "lam": 1.0, "alpha": 1.0, "gamma": 1.0,
         "sigma": 0.5, "b0": 0.0, "cap_lambda": 0.0, "horizon_T": 0.1},
        ["validate", "transmission_sign_change", "sandwich"],
        grid={"de_reduced": 5e-5},
    )


@_register
def elliptic_support():
    return _base(
        "elliptic_support",
        "uniformly elliptic model with strong price sensitivity: terminal "
        "value spreads over the whole unit interval on the cap event",
        {"family": "affine_constant", "alpha": 1.0, "gamma": 1.0,
         "sigma": 1.0, "b": 0.0, "cap_lambda": 0.0, "horizon_T": 0.1},
        ["validate", "conditional_support", "mass_near_start", "sandwich"],
        grid={"de_reduced": 2e-5, "tail_s_min": 8e-4,
              "tail_ratio": 1.07, "tail_switch": 0.02, "tail_coarse": 1.25},
        sim={"n_paths": 100_000, "n_steps": 1000, "seed": 7, "e0_cone": 0.5},
        sweeps={"mass_check_horizon": 0.01},
    )


@_register
def nonlinear_1d():
    return _base(
        "nonlinear_1d",
        "nonlinear feedback f(p,y) = -(f0(mu p - y)) with f0 = z + 0.1 sin z; "
        "profile convergence with the state-dependent effective slope",
        {"family": "nonlinear_1d", "f0": "sine_perturbed", "f0_amplitude": 0.1,
         "mu": 1.0, "sigma": 0.75, "drift_slope": -0.5, "cap_lambda": 0.0,
         "horizon_T": 0.42},
        ["validate", "gradient_band", "burgers_gap", "sandwich"],
        grid={"de_full": 3e-4, "p_half": 2.0, "n_p": 37, "n_t": 100},
        sweeps={"gap_horizons": [0.4, 0.2, 0.1, 0.05]},
        sim={"n_paths": 20_000, "n_steps": 500, "seed": 7},
    )


@_register
def affine_smooth_ramp():
    return _base(
        "affine_smooth_ramp",
        "affine model with a wide Lipschitz ramp: pathwise gradient "
        "representation against finite differences, smooth-data bound report",
        {"family": "affine_constant", "alpha": 0.5, "gamma": 1.0,
         "sigma": 1.0, "b": 0.0, "cap_lambda": 0.0, "horizon_T": 0.4},
        ["validate", "feynman_kac", "bound_report", "sandwich"],
        tc={"kind": "smooth_ramp", "width": 0.2},
        grid={"de_full": 2e-3, "p_half": 3.0, "n_p": 61, "n_t": 100},
        sim={"n_paths": 50_000, "n_steps": 500, "seed": 7},
    )


def registry_list() -> list[dict]:
    """Sorted catalog of scenario name, description and check list."""
    out = []
    for name in sorted(_REGISTRY):
        cfg = _REGISTRY[name]()
        out.append({"name": name, "description": cfg["description"],
                    "checks": list(cfg["checks"])})
    return out


def scenario_config(name: str, overrides: dict | None = None) -> dict:
    if name not in _REGISTRY:
        raise KeyError(f"unknown scenario {name!r}")
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ValueError(f"a config must be a JSON object, not {overrides!r}")
    entries = [builder() for builder in _REGISTRY.values()]
    known = set().union(*entries)
    if set(overrides) - known:
        raise ValueError(f"unknown config key(s) {sorted(set(overrides) - known)};"
                         f" known keys: {sorted(known)}")
    blocks = {k for entry in entries for k, v in entry.items() if isinstance(v, dict)}
    for key in sorted(blocks & set(overrides)):
        if not isinstance(overrides[key], dict):
            raise ValueError(f"config block {key!r} must be a JSON object, "
                             f"not {overrides[key]!r}")
    if overrides.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValueError(f"schema_version {overrides['schema_version']!r} is "
                         f"not supported; this version reads {SCHEMA_VERSION}")
    cfg = copy.deepcopy(_REGISTRY[name]())
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg
