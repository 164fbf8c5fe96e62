"""Scenario catalog: named, fully-declarative experiment configurations.

Each scenario resolves to a model family, terminal condition, grid
parameters, simulation settings and a list of named checks.  Configs are
plain JSON-serializable dicts (schema version 1) so runs are diffable and
reproducible; the CLI can override individual fields.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json

from .model_core import (ModelSpec, TerminalCondition, affine_model,
                         heaviside_tc, linear_drift_model, nonlinear_model,
                         smooth_ramp_tc)

SCHEMA_VERSION = 1


# a model block holds "family" and keyword arguments of the family's constructor
_FAMILIES = {"affine_constant": affine_model, "linear_drift": linear_drift_model,
             "nonlinear_1d": nonlinear_model}


def build_model(mcfg: dict, horizon: float | None = None) -> ModelSpec:
    """Instantiate the ModelSpec described by a scenario's model block."""
    m = dict(mcfg)
    family = m.pop("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; custom coefficients are "
                         "loadable only through registered scenarios")
    known = set(inspect.signature(_FAMILIES[family]).parameters)
    if set(m) - known:
        raise ValueError(f"unknown {family} model key(s) {sorted(set(m) - known)}; "
                         f"known keys: {sorted(known)}")
    if horizon is not None:
        m["horizon_T"] = horizon
    return _FAMILIES[family](**m)


def build_tc(tcfg: dict, cap_lambda: float) -> TerminalCondition:
    kind = tcfg.get("kind", "heaviside")
    if kind == "heaviside":
        return heaviside_tc(cap_lambda)
    if kind == "smooth_ramp":
        if "width" not in tcfg:
            raise ValueError("the smooth_ramp terminal condition needs a 'width'")
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
        grid={"de_full": 5e-4, "p_half": 3.0, "n_p": 76, "de_reduced": 2e-4},
        sweeps={"gap_horizons": [0.4, 0.2, 0.1, 0.05],
                "variance_horizons": [0.4, 0.2, 0.1]},
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
        grid={"de_reduced": 5e-6, "tail_s_min": 1e-5, "tail_switch": 0.02},
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
        grid={"de_reduced": 5e-6, "tail_s_min": 1e-5, "tail_switch": 0.02},
        sim={"n_paths": 20_000, "n_steps": 1000, "seed": 7},
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
        grid={"de_reduced": 2e-5, "tail_s_min": 8e-4, "tail_switch": 0.02},
    )


@_register
def nonlinear_1d():
    return _base(
        "nonlinear_1d",
        "nonlinear feedback f(p,y) = -(f0(mu p - y)) with f0 = z + 0.1 sin z; "
        "profile convergence with the state-dependent effective slope",
        {"family": "nonlinear_1d", "f0_amplitude": 0.1,
         "mu": 1.0, "sigma": 0.75, "drift_slope": -0.5, "cap_lambda": 0.0,
         "horizon_T": 0.42},
        ["validate", "gradient_band", "burgers_gap", "sandwich"],
        grid={"de_full": 3e-4, "p_half": 2.0, "n_p": 37},
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
        grid={"de_full": 2e-3, "p_half": 3.0, "n_p": 61},
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


def _check_type(name: str, value, want: set):
    """Refuse ``value`` unless its type is in ``want``, the types of the
    registry's values; an int passes where a float is wanted, a bool never
    passes for a number."""
    if type(value) not in want | ({int} if float in want else set()):
        raise ValueError(f"{name} must be of type "
                         f"{' or '.join(sorted(t.__name__ for t in want))}, "
                         f"not {value!r}")


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
        if key == "model":   # keys depend on the family; build_model checks them
            continue
        known_keys = set().union(*(entry.get(key, {}) for entry in entries))
        if set(overrides[key]) - known_keys:
            raise ValueError(f"unknown {key} key(s) "
                             f"{sorted(set(overrides[key]) - known_keys)}; "
                             f"known keys: {sorted(known_keys)}")
        for sub, value in overrides[key].items():
            known = [entry[key][sub] for entry in entries if sub in entry.get(key, {})]
            _check_type(f"{key}.{sub}", value, {type(v) for v in known})
            for item in value if isinstance(value, list) else ():
                _check_type(f"{key}.{sub} entries", item,
                            {type(x) for v in known if isinstance(v, list) for x in v})
    if not isinstance(overrides.get("checks", []), list):
        raise ValueError(f"'checks' must be a JSON list of check names, "
                         f"not {overrides['checks']!r}")
    if overrides.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValueError(f"schema_version {overrides['schema_version']!r} is "
                         f"not supported; this version reads {SCHEMA_VERSION}")
    if overrides.get("name", name) != name:   # it names the output directory
        raise ValueError(f"name {overrides['name']!r} must be the scenario's "
                         f"own, {name!r}")
    cfg = copy.deepcopy(_REGISTRY[name]())
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    _check_grid(cfg.get("grid", {}), cfg["model"]["horizon_T"])
    _check_sweeps(cfg.get("sweeps", {}), cfg["model"]["horizon_T"])
    return cfg


def _check_grid(grid: dict, horizon: float):
    """Refuse an e-step or p-half-width not above 0, fewer than 3 p-nodes (the
    fewest a p-axis holds) and a time tail starting outside (0, horizon_T).
    Their types are checked with the other config values."""
    bad = [f"grid.{key} {grid[key]} must be above 0"
           for key in ("de_full", "de_reduced", "p_half")
           if key in grid and not grid[key] > 0]
    if grid.get("n_p", 3) < 3:
        bad.append(f"grid.n_p {grid['n_p']} must be at least 3")
    if "tail_s_min" in grid and not 0 < grid["tail_s_min"] < horizon:
        bad.append(f"grid.tail_s_min {grid['tail_s_min']} must lie in "
                   f"(0, horizon_T) = (0, {horizon})")
    if bad:
        raise ValueError("; ".join(bad))


def _check_sweeps(sweeps: dict, horizon: float):
    """Refuse horizon lists that a check fits a rate across with fewer than two
    distinct horizons, and horizons out of range: ``variance_horizons`` not
    above 0, ``gap_horizons`` outside (0, horizon_T].  Their types are checked
    with the other config values."""
    hs = sweeps.get("variance_horizons")
    if hs is not None and (len(set(hs)) < 2 or not all(h > 0 for h in hs)):
        raise ValueError(f"sweeps.variance_horizons {hs} must hold at least two "
                         "distinct horizons, all above 0; variance fits the "
                         "prefactor's decay across them")
    hs = sweeps.get("gap_horizons")
    outside = [h for h in hs or () if not 0 < h <= horizon]
    if outside:
        raise ValueError(f"gap_horizons {outside} lie outside "
                         f"(0, horizon_T] = (0, {horizon}]")
    if hs is not None and len(set(hs)) < 2:
        raise ValueError(f"gap_horizons {hs} name fewer than two distinct "
                         f"horizons; burgers_gap fits its rate across two or more")
