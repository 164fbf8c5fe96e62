"""Seeded path simulation and the statistical verification battery.

One Euler-Maruyama stepper, ``euler_paths``, draws the Brownian increments
and advances P for every path loop: the forward simulation, the pathwise
gradient estimator and the bridge-trap diagnostic keep only their own
accumulators.  The forward simulation drives (P, E, Ebar, Y) by a solved
value field: E by explicit Euler with the frozen-slice value lookup,
Y = v(t, P_t, E_t) through the field's interpolator, Ebar = E + w(t, P).
Randomness comes from a counter-based generator with one substream per path
index, so results are bit-identical for a given (seed, n_paths, n_steps)
regardless of batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model_core import ModelSpec, TerminalCondition, phi_sides_arrays
from .burgers_ref import WEvaluator
from .value_pde import (DerivativeFields, ValueField, _interp_space, _slice_index,
                        check_model)


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    n_steps: int
    t0: float
    p0: np.ndarray
    e0: float
    seed: int
    batch_size: int = 16384
    t_snapshots: tuple = ()
    terminal_refine: bool = True

    def __post_init__(self):
        object.__setattr__(self, "p0",
                           np.atleast_1d(np.asarray(self.p0, dtype=float)))
        if self.n_steps < 100:
            raise ValueError("n_steps must be >= 100")
        if self.n_paths < 1 or self.batch_size < 1:
            raise ValueError(f"n_paths ({self.n_paths}) and batch_size "
                             f"({self.batch_size}) must be >= 1")


@dataclass
class PathEnsemble:
    terminal_E: np.ndarray
    terminal_Y: np.ndarray
    terminal_Ebar: np.ndarray
    snapshots: dict
    escaped: np.ndarray
    config: SimConfig
    provenance: dict

    @property
    def escape_fraction(self) -> float:
        return float(np.mean(self.escaped))

    def ok(self) -> np.ndarray:
        return ~self.escaped


# ---------------------------------------------------------------------------
# time grid and random streams
# ---------------------------------------------------------------------------

def sim_time_grid(cfg: SimConfig, field: ValueField,
                  extra_times: Sequence[float] = ()) -> np.ndarray:
    """Uniform Euler grid, optionally refined geometrically near T.

    The refinement follows the field's last pre-terminal slice so the
    contraction toward the cap keeps resolving through the final instants;
    without it the last uniform step would overshoot the narrowing cone.
    """
    T = field.grid.horizon
    base = np.linspace(cfg.t0, T, cfg.n_steps + 1)
    pieces = [base, np.asarray(extra_times, dtype=float)]
    if cfg.terminal_refine:
        interior = field.grid.t_nodes[field.grid.t_nodes < T]
        s_field = T - float(interior[-1]) if len(interior) else T - cfg.t0
        dt_unif = (T - cfg.t0) / cfg.n_steps
        s = min(4.0 * s_field, 2.0 * dt_unif)
        tail = []
        while s > s_field / 4.0:
            tail.append(T - s)
            s *= 0.6
        pieces.append(np.asarray(tail))
    grid = np.union1d(np.union1d(pieces[0], pieces[1]),
                      pieces[2] if len(pieces) > 2 else np.array([]))
    grid = grid[(grid >= cfg.t0 - 1e-15) & (grid <= T + 1e-15)]
    # collapse near-duplicates that float unions can leave behind
    keep = np.diff(grid, prepend=-np.inf) > 1e-12 * max(1.0, T)
    return grid[keep]


def path_normals(seed: int, first: int, count: int, n_steps: int,
                 d: int) -> np.ndarray:
    """Standard normals (count, n_steps, d) of paths first, ..., first+count-1;
    path k reads Philox(key=seed) from counter [0, 0, 0, k]."""
    out = np.empty((count, n_steps, d))
    bits = np.random.Philox(key=seed)
    g = np.random.Generator(bits)
    state = bits.state   # fresh: empty buffer, no stored half-word
    for i in range(count):
        state["state"]["counter"][3] = first + i
        bits.state = state   # also resets buffer_pos, has_uint32, uinteger
        g.standard_normal((n_steps, d), out=out[i])
    return out


# ---------------------------------------------------------------------------
# the stepper and the forward simulation
# ---------------------------------------------------------------------------

def euler_paths(model: ModelSpec, cfg: SimConfig, tgrid: np.ndarray,
                field: Optional[ValueField] = None):
    """Euler-Maruyama paths of P over ``tgrid``, batch by batch.

    Yields ``(first, count, steps)`` for each batch of ``cfg.batch_size``
    paths; ``steps`` yields ``(k, t, dt, P, P_next, dW)`` for each interval
    [tgrid[k], tgrid[k + 1]]: the (count, d) state P at t, the increments dW
    (``path_normals`` scaled by sqrt(dt)) and P_next = P + b(P) dt +
    sigma(P) dW.  A start the model cannot take, or a ``field`` (the one the
    caller reads along the paths) solved for another model, is refused here,
    before any path is drawn.
    """
    d = model.dim_p
    if cfg.p0.shape != (d,):
        raise ValueError(f"p0 has shape {cfg.p0.shape}; the model needs ({d},)")
    if not cfg.t0 < model.horizon_T:
        raise ValueError(f"t0 = {cfg.t0} is not before the horizon "
                         f"T = {model.horizon_T}")
    if field is not None:
        check_model(model, field)

    def steps(first, count):
        dW_all = path_normals(cfg.seed, first, count, len(tgrid) - 1, d)
        P = np.broadcast_to(cfg.p0, (count, d)).copy()
        for k in range(len(tgrid) - 1):
            t = float(tgrid[k])
            dt = float(tgrid[k + 1]) - t
            dW = dW_all[:, k, :] * np.sqrt(dt)
            P_next = P + model.drift(P) * dt + np.einsum(
                "nij,nj->ni", model.diffusion(P), dW)
            yield k, t, dt, P, P_next, dW
            P = P_next

    def batches():
        for first in range(0, cfg.n_paths, cfg.batch_size):
            count = min(cfg.batch_size, cfg.n_paths - first)
            yield first, count, steps(first, count)

    return batches()


def _simulate_core(model: ModelSpec, field: ValueField, we: WEvaluator,
                   cfg: SimConfig, e_starts: np.ndarray,
                   record_times: Sequence[float], stop_time: Optional[float] = None):
    """Per-start terminal arrays and snapshots of (P, E, Ebar, Y).

    All starts share the same P-path and Brownian increments per path index
    (common-noise coupling for the flow checks).
    """
    T = field.grid.horizon
    if field.dim == 0 and we.mode == "monte_carlo":
        raise ValueError("reduced-field simulation needs a closed-form compensator")
    tgrid = sim_time_grid(cfg, field, extra_times=record_times)
    if stop_time is not None:
        tgrid = tgrid[tgrid <= stop_time + 1e-15]
    batches = euler_paths(model, cfg, tgrid, field)
    n_steps_grid = len(tgrid) - 1
    n = cfg.n_paths
    n_starts = len(e_starts)
    record_set = {round(float(t), 12) for t in record_times}
    # terminal Y is read at the last moment the path time matches a stored
    # slice; past it the slice freezes while E keeps contracting, which would
    # scramble the martingale limit the value is standing in for
    interior = field.grid.t_nodes[field.grid.t_nodes < T - 1e-15]
    t_y_term = float(interior[-1]) if len(interior) else float(tgrid[0])
    k_y = int(np.searchsorted(tgrid, t_y_term + 1e-15) - 1)
    k_y = max(0, min(k_y, n_steps_grid - 1))

    term_E = np.empty((n_starts, n))
    term_Y = np.empty((n_starts, n))
    escaped = np.zeros((n_starts, n), dtype=bool)
    snaps = {round(float(t), 12): {} for t in record_times}
    term_P = np.empty((n, model.dim_p))

    e_lo, e_hi = field.grid.e_nodes[0], field.grid.e_nodes[-1]

    for first, count, steps in batches:
        E = np.broadcast_to(e_starts[:, None], (n_starts, count)).copy()
        esc = np.zeros((n_starts, count), dtype=bool)
        y_term = np.full((n_starts, count), np.nan)
        for k, t, dt, P, P_next, _ in steps:
            j = int(_slice_index(field.grid.t_nodes, t))
            w_t = we.evaluate(t, P) if field.dim == 0 else None
            for a in range(n_starts):
                if field.dim == 0:
                    x = E[a] + w_t
                    esc[a] |= (x < e_lo) | (x > e_hi)
                    Y = _interp_space(field.grid, field.values[j], None, x)
                else:
                    esc[a] |= (E[a] < e_lo) | (E[a] > e_hi)
                    Y = _interp_space(field.grid, field.values[j], P, E[a])
                if k == k_y:
                    y_term[a] = Y
                E[a] = E[a] - model.feedback.value(P, Y) * dt
            tn = float(tgrid[k + 1])
            key = round(tn, 12)
            if key in record_set:
                for a in range(n_starts):
                    Yn = field.eval(tn, P_next, E[a], we=we)
                    ebar = E[a] + we.evaluate(tn, P_next)
                    snap = snaps[key].setdefault(a, {"P": [], "E": [], "Ebar": [], "Y": []})
                    snap["P"].append(P_next.copy())
                    snap["E"].append(E[a].copy())
                    snap["Ebar"].append(np.asarray(ebar).copy())
                    snap["Y"].append(np.asarray(Yn).copy())
        full_run = stop_time is None or stop_time >= T - 1e-15
        for a in range(n_starts):
            term_E[a, first:first + count] = E[a]
            term_Y[a, first:first + count] = y_term[a] if full_run else np.nan
        escaped[:, first:first + count] = esc
        term_P[first:first + count] = P_next   # P at the last grid time

    merged = {}
    for key, by_start in snaps.items():
        merged[key] = {
            a: {nm: np.concatenate(chunks) for nm, chunks in rec.items()}
            for a, rec in by_start.items()
        }
    return term_E, term_Y, term_P, escaped, merged


def simulate_forward(model: ModelSpec, field: ValueField, we: WEvaluator,
                     cfg: SimConfig) -> PathEnsemble:
    """Simulate (P, E, Ebar, Y) to the horizon under the given field.

    Escaped paths (those leaving the field's e-domain) are flagged and meant
    to be excluded from statistics; accepted runs require the escape
    fraction below 0.1%.
    """
    T = field.grid.horizon
    tE, tY, tP, esc, snaps = _simulate_core(
        model, field, we, cfg, np.array([cfg.e0]), cfg.t_snapshots)
    ebar_T = tE[0] + np.asarray(we.evaluate(T, tP))
    snapshots = {t: rec[0] for t, rec in snaps.items()}
    return PathEnsemble(
        terminal_E=tE[0], terminal_Y=tY[0], terminal_Ebar=ebar_T,
        snapshots=snapshots, escaped=esc[0], config=cfg,
        provenance=dict(field.provenance))


# ---------------------------------------------------------------------------
# atom detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomCurve:
    deltas: np.ndarray
    fractions: np.ndarray
    std_errors: np.ndarray
    plateau: float
    plateau_defined: bool
    n_used: int


def dirac_scan(ens_or_terminal, delta_list, cap_lambda: Optional[float] = None) -> AtomCurve:
    """Fraction of paths with |E_T - cap| <= delta over a decreasing ladder.

    The curve is monotone by construction (nested events); the plateau
    statistic is fraction(min delta) / fraction(max delta).  Needs a ladder
    spanning at least two decades.
    """
    deltas = np.asarray(list(delta_list), dtype=float)
    if np.any(np.diff(deltas) >= 0):
        raise ValueError("delta_list must be strictly decreasing")
    if deltas[0] / deltas[-1] < 100.0 * (1 - 1e-9):
        raise ValueError("delta ladder must span at least two decades")
    if isinstance(ens_or_terminal, PathEnsemble):
        lam = (cap_lambda if cap_lambda is not None
               else ens_or_terminal.provenance.get("cap_lambda", 0.0))
        data = ens_or_terminal.terminal_E[ens_or_terminal.ok()]
    else:
        lam = 0.0 if cap_lambda is None else cap_lambda
        data = np.asarray(ens_or_terminal, dtype=float)
    n = len(data)
    dist = np.abs(data - lam)
    fr = np.array([np.mean(dist <= d) for d in deltas])
    se = np.sqrt(np.maximum(fr * (1 - fr), 0.0) / max(n, 1))
    defined = fr[0] > 0
    plateau = float(fr[-1] / fr[0]) if defined else float("nan")
    return AtomCurve(deltas=deltas, fractions=fr, std_errors=se,
                     plateau=plateau, plateau_defined=bool(defined), n_used=n)


def default_delta_ladder(horizon: float) -> np.ndarray:
    return np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4]) * horizon


def gaussian_control_terminal(model: ModelSpec, we: WEvaluator,
                              cfg: SimConfig) -> np.ndarray:
    """Terminal sample of cap + int (T-s)-bridge noise, with no feedback.

    Matches the accumulated compensator noise of the FBSDE run; its atom
    curve decays linearly in delta (closed-form Gaussian law), which is the
    contrast establishing that a measured plateau is a genuine atom.
    """
    T = model.horizon_T
    x, w = leggauss(64)
    s_nodes = 0.5 * (T - cfg.t0) * x + 0.5 * (T + cfg.t0)
    w_nodes = 0.5 * (T - cfg.t0) * w
    var = 0.0
    for s_k, w_k in zip(s_nodes, w_nodes):
        g = we.noise_integrand(float(s_k), cfg.p0)
        var += w_k * float(np.sum(np.asarray(g) ** 2))
    sig_eff = np.sqrt(max(var, 0.0))
    rng = np.random.Generator(np.random.Philox(key=cfg.seed ^ 0xC0FFEE))
    return model.cap_lambda + sig_eff * rng.standard_normal(cfg.n_paths)


# ---------------------------------------------------------------------------
# conditional support and terminal sandwich
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportHistogram:
    edges: np.ndarray
    counts: np.ndarray
    coverage: float
    n_conditioned: int


def conditional_support(ens: PathEnsemble, delta: float,
                        n_bins: int = 10) -> SupportHistogram:
    """Histogram of Y_T over [0,1] on the conditioning event |E_T - cap| <= delta."""
    lam = ens.provenance.get("cap_lambda", 0.0)
    ok = ens.ok()
    mask = ok & (np.abs(ens.terminal_E - lam) <= delta)
    if not np.any(mask):
        raise ValueError("conditioning event is empty")
    y = ens.terminal_Y[mask]
    counts, edges = np.histogram(y, bins=n_bins, range=(0.0, 1.0))
    return SupportHistogram(edges=edges, counts=counts,
                            coverage=float(np.mean(counts > 0)),
                            n_conditioned=int(mask.sum()))


def terminal_sandwich_check(ens: PathEnsemble, tc: TerminalCondition,
                            eta: float, min_cap_distance: float = 0.0) -> float:
    """Fraction of paths with Y_T outside [phi_-(E_T) - eta, phi_+(E_T) + eta].

    ``min_cap_distance`` restricts the census to paths ending at least that
    far from the cap (used to separate the genuine squeeze from the
    interpolation smear right at the singularity).
    """
    ok = ens.ok()
    if min_cap_distance > 0:
        lam = ens.provenance.get("cap_lambda", tc.threshold)
        ok = ok & (np.abs(ens.terminal_E - lam) >= min_cap_distance)
    if not np.any(ok):
        return 0.0
    lo, hi = phi_sides_arrays(tc, ens.terminal_E[ok])
    y = ens.terminal_Y[ok]
    viol = (y < lo - eta) | (y > hi + eta)
    return float(np.mean(viol))


# ---------------------------------------------------------------------------
# flow squeeze
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowReport:
    pairs: tuple
    t_list: np.ndarray
    frac_ok: float
    per_pair_frac: np.ndarray
    worst_lower_margin: float
    min_ordering_margin: float
    coalescence_fraction: float
    coalescence_se: float


def flow_squeeze_check(model: ModelSpec, field: ValueField, we: WEvaluator,
                       cfg: SimConfig, e_pairs, t_list,
                       atom_delta: Optional[float] = None) -> FlowReport:
    """Two-sided flow inequality under common noise, plus terminal coalescence.

    For each pair e > e' and recorded t the difference must satisfy
    (e - e') >= E_t^e - E_t^{e'} >= ((T-t)/(T-t0))^{ell2/ell1} (e - e')
    within three times the declared integration-error bound.  Times must lie
    in (t0, T).
    """
    T = field.grid.horizon
    outside = [float(t) for t in t_list if not cfg.t0 < t < T]
    if outside:
        raise ValueError(f"t_list entries {outside} lie outside (t0, T) = "
                         f"({cfg.t0}, {T})")
    starts = sorted({float(x) for pair in e_pairs for x in pair})
    idx = {x: i for i, x in enumerate(starts)}
    dt_unif = (T - cfg.t0) / cfg.n_steps
    tE, _, _, esc, snaps = _simulate_core(
        model, field, we, cfg, np.asarray(starts), tuple(t_list))
    ratio = model.ell2 / model.ell1
    de_f = field.grid.de
    ok_total, n_total = 0, 0
    per_pair = []
    worst = np.inf
    min_order = np.inf
    for (e_a, e_b) in e_pairs:
        if e_a < e_b:
            e_a, e_b = e_b, e_a
        gap0 = e_a - e_b
        ok_pair, n_pair = 0, 0
        for t in t_list:
            key = round(float(t), 12)
            Ea = snaps[key][idx[e_a]]["E"]
            Eb = snaps[key][idx[e_b]]["E"]
            diff = Ea - Eb
            s = T - float(t)
            env = ((s / (T - cfg.t0)) ** ratio) * gap0
            tol = 3.0 * gap0 * (dt_unif / max(s, dt_unif)
                                + de_f / (model.ell1 * max(s, de_f / model.ell1)))
            good = (diff <= gap0 + tol) & (diff >= env - tol)
            ok_pair += int(np.sum(good))
            n_pair += len(diff)
            worst = min(worst, float(np.min(diff - env)))
            min_order = min(min_order, float(np.min(diff)))
        per_pair.append(ok_pair / n_pair)
        ok_total += ok_pair
        n_total += n_pair
    delta = atom_delta if atom_delta is not None else 1e-2 * (T - cfg.t0)
    lam = model.cap_lambda
    coals = []
    for (e_a, e_b) in e_pairs:
        both = (np.abs(tE[idx[float(max(e_a, e_b))]] - lam) <= delta) \
            & (np.abs(tE[idx[float(min(e_a, e_b))]] - lam) <= delta)
        coals.append(np.mean(both))
    co = float(np.mean(coals))
    co_se = float(np.sqrt(max(co * (1 - co), 0.0) / cfg.n_paths))
    return FlowReport(pairs=tuple(tuple(p) for p in e_pairs),
                      t_list=np.asarray(list(t_list), dtype=float),
                      frac_ok=ok_total / max(n_total, 1),
                      per_pair_frac=np.asarray(per_pair),
                      worst_lower_margin=worst,
                      min_ordering_margin=min_order,
                      coalescence_fraction=co, coalescence_se=co_se)


# ---------------------------------------------------------------------------
# variance scaling
# ---------------------------------------------------------------------------

def _jackknife_var_se(x: np.ndarray) -> float:
    n = len(x)
    s1, s2 = float(np.sum(x)), float(np.sum(x * x))
    mean_i = (s1 - x) / (n - 1)
    var_i = (s2 - x * x - (n - 1) * mean_i**2) / (n - 2)
    return float(np.sqrt((n - 1) / n * np.sum((var_i - np.mean(var_i)) ** 2)))


@dataclass(frozen=True)
class VarianceScan:
    t_offsets: np.ndarray
    variances: np.ndarray
    jackknife_se: np.ndarray
    time_slope: float
    prefactor: float
    below_resolution: bool


def variance_scan(model: ModelSpec, field: ValueField, we: WEvaluator,
                  cfg: SimConfig, t_list) -> VarianceScan:
    """Sample variance of E_t over the requested times with jackknife errors.

    Reports the regression slope of log var against log(t - t0) and the
    cube-law prefactor geomean(var / (t-t0)^3).  Times must lie in
    (t0, (T + t0)/2].
    """
    T = field.grid.horizon
    t_arr = np.sort(np.asarray(list(t_list), dtype=float))
    if t_arr[0] <= cfg.t0 or t_arr[-1] > 0.5 * (T + cfg.t0) + 1e-12:
        raise ValueError("t_list must lie in (t0, (T+t0)/2]")
    _, _, _, esc, snaps = _simulate_core(
        model, field, we, cfg, np.array([cfg.e0]), tuple(t_arr),
        stop_time=float(t_arr[-1]))
    ok = ~esc[0]
    vs, ses = [], []
    for t in t_arr:
        E = snaps[round(float(t), 12)][0]["E"][ok]
        vs.append(float(np.var(E)))
        ses.append(_jackknife_var_se(E))
    vs = np.asarray(vs)
    ses = np.asarray(ses)
    offs = t_arr - cfg.t0
    slope = float(np.polyfit(np.log(offs), np.log(np.maximum(vs, 1e-300)), 1)[0])
    pref = float(np.exp(np.mean(np.log(np.maximum(vs, 1e-300)) - 3 * np.log(offs))))
    below = bool(np.any(vs <= 0) or np.any(ses > 0.5 * np.maximum(vs, 1e-300)))
    return VarianceScan(t_offsets=offs, variances=vs, jackknife_se=ses,
                        time_slope=slope, prefactor=pref, below_resolution=below)


@dataclass(frozen=True)
class PrefactorReport:
    horizons: np.ndarray
    prefactors: np.ndarray
    overall_slope: float
    pairwise_slopes: np.ndarray
    strictly_decreasing: bool
    verdict: str


def prefactor_report(horizons, prefactors,
                     superpoly_slope: float = 3.0) -> PrefactorReport:
    """Classify the horizon decay of the cube-law prefactor.

    ``superpolynomial`` means strictly decreasing with overall log-log slope
    above ``superpoly_slope`` (i.e. faster than any power <= 3);
    ``power_like`` otherwise when decreasing; ``not_decreasing`` else.
    """
    h = np.asarray(list(horizons), dtype=float)
    p = np.asarray(list(prefactors), dtype=float)
    order = np.argsort(-h)
    h, p = h[order], p[order]
    lh, lp = np.log(h), np.log(np.maximum(p, 1e-300))
    overall = float(np.polyfit(lh, lp, 1)[0])
    pair = np.array([(lp[i] - lp[i + 1]) / (lh[i] - lh[i + 1])
                     for i in range(len(h) - 1)])
    dec = bool(np.all(np.diff(p) < 0))
    if dec and overall > superpoly_slope:
        verdict = "superpolynomial"
    elif dec:
        verdict = "power_like"
    else:
        verdict = "not_decreasing"
    return PrefactorReport(horizons=h, prefactors=p, overall_slope=overall,
                           pairwise_slopes=pair, strictly_decreasing=dec,
                           verdict=verdict)


# ---------------------------------------------------------------------------
# transmission coefficient
# ---------------------------------------------------------------------------

def closed_form_dpw_scalar(model: ModelSpec, t: float) -> float:
    """d=1 compensator gradient for the affine families."""
    s = model.horizon_T - t
    pr = model.family_params
    if model.family == "affine_constant":
        return float(pr["alpha"][0] * s) if np.ndim(pr["alpha"]) else float(pr["alpha"] * s)
    if model.family == "linear_drift":
        lam = pr["lam"]
        if lam == 0.0:
            return float(pr["alpha"] * s)
        return float(pr["alpha"] * (np.exp(lam * s) - 1.0) / lam)
    raise ValueError("no closed-form compensator gradient for this family")


@dataclass(frozen=True)
class TransmissionProfile:
    e_grid: np.ndarray
    profiles: dict
    sign_changes: dict
    in_cone_level: float
    off_cone_level: float
    ratio: float


def _brackets(e, vals):
    sgn = np.sign(vals)
    out = []
    for i in range(len(e) - 1):
        if sgn[i] != 0 and sgn[i + 1] != 0 and sgn[i] != sgn[i + 1]:
            out.append((float(e[i]), float(e[i + 1])))
    return out


def transmission_scan(field: ValueField, derivs: DerivativeFields,
                      model: ModelSpec, t0: float, p, e_grid,
                      we: Optional[WEvaluator] = None) -> TransmissionProfile:
    """Profile of the noise-transmission coefficient along e at fixed (t0, p).

    Affine families report both normalizations alpha - gamma*dp_v and
    alpha - dp_v; general models report -d/dp[f(p, v)].  The in-cone level
    is the maximum magnitude over the central cone band, the off-cone level
    the median magnitude outside a widened band.
    """
    e_grid = np.asarray(e_grid, dtype=float)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    T = model.horizon_T
    s = T - t0
    lam = model.cap_lambda
    affine = model.family in ("affine_constant", "linear_drift")
    gamma = model.family_params.get("gamma")

    if field.dim == 0:
        shift = float(we.evaluate(t0, p)) if we is not None else 0.0
        ebar = e_grid + shift
        j = int(_slice_index(field.grid.t_nodes, t0))
        dv = _interp_space(field.grid, derivs.de_v[j], None, ebar)
        dpw = closed_form_dpw_scalar(model, t0)
        dp_v = dv * dpw
    else:
        dp_v = derivs.dp_at(t0, np.broadcast_to(p, (len(e_grid), model.dim_p)),
                            e_grid, direction=0)
        shift = float(we.evaluate(t0, p)) if we is not None else 0.0
        ebar = e_grid + shift

    profiles = {}
    if affine:
        alpha = model.family_params["alpha"]
        a0 = float(np.atleast_1d(alpha)[0])
        profiles["alpha_minus_gamma_dpv"] = a0 - gamma * dp_v
        profiles["alpha_minus_dpv"] = a0 - dp_v
        main = profiles["alpha_minus_gamma_dpv"]
    else:
        j = int(_slice_index(field.grid.t_nodes, t0))
        v = _interp_space(field.grid, field.values[j],
                          np.broadcast_to(p, (len(e_grid), model.dim_p)), e_grid)
        pb = np.broadcast_to(p, (len(e_grid), model.dim_p))
        dfp = np.asarray(model.feedback.dp(pb, v))[..., 0]
        dfy = model.feedback.dy(pb, v)
        profiles["minus_dp_f_of_v"] = -(dfp + dfy * dp_v)
        main = profiles["minus_dp_f_of_v"]

    scale = (gamma if affine else model.ell2) * s
    x = (ebar - lam) / scale
    in_band = (x >= 3.0 / 8.0) & (x <= 5.0 / 8.0)
    off_band = (x >= 1.5) | (x <= -0.5)
    in_level = float(np.max(np.abs(main[in_band]))) if np.any(in_band) else float("nan")
    off_level = float(np.median(np.abs(main[off_band]))) if np.any(off_band) else float("nan")
    return TransmissionProfile(
        e_grid=e_grid, profiles=profiles,
        sign_changes={k: _brackets(e_grid, v) for k, v in profiles.items()},
        in_cone_level=in_level, off_cone_level=off_level,
        ratio=in_level / off_level if off_level else float("inf"))


# ---------------------------------------------------------------------------
# pathwise gradient representation
# ---------------------------------------------------------------------------

def _fd_scalar(fn, p, h):
    return (np.asarray(fn(p + h)) - np.asarray(fn(p - h))) / (2 * h)


@dataclass(frozen=True)
class GradPEstimate:
    estimate: float
    std_error: float
    ess_fraction: float
    degenerate: bool


def feynman_kac_grad_p(model: ModelSpec, field: ValueField,
                       derivs: DerivativeFields, cfg: SimConfig,
                       we: Optional[WEvaluator] = None) -> GradPEstimate:
    """Importance-weighted pathwise estimator of dv/dp at the start point.

    d = 1 with a smooth terminal condition: accumulates
    -de_v * dp_f * exp(int [-dy_f * de_v + dp_b]) along simulated paths
    under the measure tilted by the diffusion-derivative weight; with
    constant sigma the weight is identically 1.  Flags weight degeneracy
    when the effective sample size drops below 10%.
    """
    if model.dim_p != 1:
        raise ValueError("the pathwise representation is implemented for d = 1")
    batches = euler_paths(model, cfg, sim_time_grid(cfg, field), field)
    h_fd = 1e-5 * max(1.0, float(np.max(np.abs(cfg.p0))))
    dpb = lambda p: _fd_scalar(lambda q: model.drift(q)[..., 0], p, h_fd)
    dps = lambda p: _fd_scalar(lambda q: np.asarray(model.diffusion(q))[..., 0, 0], p, h_fd)

    total_wx = []
    total_w = []
    for _, count, steps in batches:
        E = np.full(count, cfg.e0)
        I = np.zeros(count)          # integral accumulator
        log_decay = np.zeros(count)  # exp weight inside the integrand
        log_G = np.zeros(count)      # Girsanov weight
        for _, t, dt, P, P_next, dW in steps:
            j = int(_slice_index(field.grid.t_nodes, t))
            if field.dim == 0:
                x = E + we.evaluate(t, P)
                Y = _interp_space(field.grid, field.values[j], None, x)
                dev = _interp_space(field.grid, derivs.de_v[j], None, x)
            else:
                Y = _interp_space(field.grid, field.values[j], P, E)
                dev = _interp_space(field.grid, derivs.de_v[j], P, E)
            dfp = np.asarray(model.feedback.dp(P, Y))[..., 0]
            dfy = model.feedback.dy(P, Y)
            I += dev * dfp * np.exp(log_decay) * dt
            log_decay += (-dfy * dev + dpb(P[:, 0])) * dt
            theta = dps(P[:, 0])
            log_G += theta * dW[:, 0] - 0.5 * theta**2 * dt
            E = E - model.feedback.value(P_next, Y) * dt
        G = np.exp(log_G)
        total_w.append(G)
        total_wx.append(G * (-I))
    w = np.concatenate(total_w)
    wx = np.concatenate(total_wx)
    est = float(np.mean(wx))
    se = float(np.std(wx, ddof=1) / np.sqrt(len(wx)))
    ess = float(np.sum(w) ** 2 / np.sum(w * w) / len(w))
    return GradPEstimate(estimate=est, std_error=se, ess_fraction=ess,
                         degenerate=ess < 0.10)


# ---------------------------------------------------------------------------
# bridge trap diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrapReport:
    p_hat_F: float
    std_error: float
    n_on_F: int
    zbar_terminal_dev: float
    zbar_near_terminal_dev: float
    c_prime: float
    beta: float


def trap_diagnostic(model: ModelSpec, we: WEvaluator, cfg: SimConfig,
                    beta: float = 0.25,
                    c_prime: Optional[float] = None) -> TrapReport:
    """Probability of the bridge trap event and the pinned bridge endpoints.

    Simulates the normalized martingale M_t = int (T-s)^{-1} <sigma^T dp_w, dW>
    along P-paths from (cfg.t0, cfg.p0); F is the event that sup |M| stays
    below ell1/16.  On F the explicitly integrated bridges, started at
    ebar = cfg.e0,
    Zbar_t = cap + (T-t) [ (ebar-cap)/(T-t0) +- C' int (T-s)^{beta-1} ds + M_t ]
    are pinned to the cap at the horizon.
    """
    T = model.horizon_T
    tgrid = np.linspace(cfg.t0, T, cfg.n_steps + 1)
    batches = euler_paths(model, cfg, tgrid)
    h = T - cfg.t0
    if c_prime is None:
        c_prime = model.ell1 * beta / (32.0 * h**beta)

    sup_M = np.zeros(cfg.n_paths)
    M_last = np.zeros(cfg.n_paths)
    lam = model.cap_lambda
    for first, count, steps in batches:
        M = np.zeros(count)
        sup = np.zeros(count)
        for _, t, _, P, _, dW in steps:
            integ = we.noise_integrand(t, P)
            M += np.einsum("ni,ni->n", np.atleast_2d(integ), dW) / (T - t)
            sup = np.maximum(sup, np.abs(M))
        sup_M[first:first + count] = sup
        M_last[first:first + count] = M

    on_F = sup_M < model.ell1 / 16.0
    p_hat = float(np.mean(on_F))
    se = float(np.sqrt(max(p_hat * (1 - p_hat), 0.0) / cfg.n_paths))
    # closed-form bridge at the horizon and just before it
    drift_int_full = c_prime * (h**beta) / beta
    z_term = lam + (T - T) * ((cfg.e0 - lam) / h + drift_int_full + M_last)
    t_near = float(tgrid[-2])
    s_near = T - t_near
    drift_int_near = c_prime * (h**beta - s_near**beta) / beta
    z_near = lam + s_near * ((cfg.e0 - lam) / h + drift_int_near + M_last)
    if np.any(on_F):
        term_dev = float(np.max(np.abs(z_term[on_F] - lam)))
        near_dev = float(np.max(np.abs(z_near[on_F] - lam)))
    else:
        term_dev = near_dev = float("nan")
    return TrapReport(p_hat_F=p_hat, std_error=se, n_on_F=int(on_F.sum()),
                      zbar_terminal_dev=term_dev, zbar_near_terminal_dev=near_dev,
                      c_prime=float(c_prime), beta=float(beta))
