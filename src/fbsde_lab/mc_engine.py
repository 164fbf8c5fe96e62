"""Seeded path simulation and the statistical verification battery.

One Euler-Maruyama stepper, ``euler_paths``, draws the Brownian increments
and advances P for every path loop: the forward simulation and the pathwise
gradient estimator keep only their own accumulators.  Every loop that reads
a field along its paths reads it through ``ValueField.reader``, the one
place where fields are read: the forward simulation drives (P, E, Ebar, Y)
by explicit Euler in E with Y = v(t, P_t, E_t) from the reader,
Ebar = E + w(t, P), and records E at the snapshot times.  The compensator w
and its gradient come from the model each function is given
(``WEvaluator(model)``), and a field solved for another model is refused.
Randomness comes from a counter-based generator with one substream per path
index, so results are bit-identical for a given (seed, n_paths, n_steps)
regardless of batching or of the thread that draws a path: ``path_normals``
fills a batch on ``_WORKERS`` threads and returns it step-major.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model_core import ModelSpec, TerminalCondition, phi_sides_arrays
from .burgers_ref import WEvaluator
from .value_pde import ValueField, gradient_fields


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    n_steps: int
    p0: np.ndarray
    e0: float
    seed: int
    t_snapshots: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "p0",
                           np.atleast_1d(np.asarray(self.p0, dtype=float)))
        if self.n_steps < 100:
            raise ValueError("n_steps must be >= 100")
        if self.n_paths < 1:
            raise ValueError(f"n_paths ({self.n_paths}) must be >= 1")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or not 0 <= self.seed < 2**64):   # Philox keys are non-negative
            raise ValueError(f"seed must be an integer in [0, 2**64), not {self.seed!r}")


@dataclass
class PathEnsemble:
    terminal_E: np.ndarray
    terminal_Y: np.ndarray
    terminal_Ebar: np.ndarray
    snapshots: dict
    escaped: np.ndarray
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
    """Uniform Euler grid on [0, T] plus ``extra_times``, refined
    geometrically near T.

    The refinement follows the field's last pre-terminal slice so the
    contraction toward the cap keeps resolving through the final instants;
    without it the last uniform step would overshoot the narrowing cone.
    Every refinement node lies within 2 uniform steps of T.
    """
    T = field.grid.horizon
    base = np.linspace(0.0, T, cfg.n_steps + 1)
    interior = field.grid.t_nodes[field.grid.t_nodes < T]
    s_field = T - float(interior[-1]) if len(interior) else T
    dt_unif = T / cfg.n_steps
    s = min(4.0 * s_field, 2.0 * dt_unif)
    tail = []
    while s > s_field / 4.0:
        tail.append(T - s)
        s *= 0.6
    grid = np.union1d(np.union1d(base, np.asarray(extra_times, dtype=float)), tail)
    grid = grid[(grid >= -1e-15) & (grid <= T + 1e-15)]
    # collapse near-duplicates that float unions can leave behind
    keep = np.diff(grid, prepend=-np.inf) > 1e-12 * max(1.0, T)
    return grid[keep]


_BATCH_PATHS = 4_096   # paths stepped together: a batch's normals stay near 32 MB at
                       # ~1,000 steps (results do not depend on it)
_BLOCK = 64     # paths drawn into one contiguous buffer before the transposed copy
_WORKERS = 2    # threads that draw the normals of one batch


def path_normals(seed: int, first: int, count: int, n_steps: int,
                 d: int) -> np.ndarray:
    """Standard normals (n_steps, count, d) of paths first, ..., first+count-1;
    path k reads Philox(key=seed) from counter [0, 0, 0, k].  Contiguous
    ranges of paths are drawn on ``_WORKERS`` threads (the generator releases
    the GIL), fewer than ``_WORKERS * _BLOCK`` paths on the calling thread."""
    out = np.empty((n_steps, count, d))

    def fill(lo, hi):   # paths first+lo, ..., first+hi-1, one generator per thread
        bits = np.random.Philox(key=seed)
        g = np.random.Generator(bits)
        state = bits.state   # fresh: empty buffer, no stored half-word
        block = np.empty((_BLOCK, n_steps, d))   # out= needs a contiguous target
        for b in range(lo, hi, _BLOCK):
            m = min(_BLOCK, hi - b)
            for i in range(m):
                state["state"]["counter"][3] = first + b + i
                bits.state = state   # also resets buffer_pos, has_uint32, uinteger
                g.standard_normal((n_steps, d), out=block[i])
            out[:, b:b + m] = block[:m].transpose(1, 0, 2)

    if count < _WORKERS * _BLOCK:
        fill(0, count)
    else:
        edges = [count * w // _WORKERS for w in range(_WORKERS + 1)]
        with ThreadPoolExecutor(_WORKERS) as pool:
            list(pool.map(fill, edges[:-1], edges[1:]))   # re-raises a worker's error
    return out


# ---------------------------------------------------------------------------
# the stepper and the forward simulation
# ---------------------------------------------------------------------------

def euler_paths(model: ModelSpec, cfg: SimConfig, tgrid: np.ndarray):
    """Euler-Maruyama paths of P over ``tgrid``, batch by batch.

    Yields ``(first, count, steps)`` for each of ceil(n_paths / _BATCH_PATHS)
    batches of near-equal size; ``steps`` yields ``(k, t, dt, P, P_next, dW)``
    for each interval [tgrid[k], tgrid[k + 1]]: the (count, d) state P at t,
    the increments dW (``path_normals`` scaled by sqrt(dt)) and
    P_next = P + b(P) dt + sigma(P) dW.  A ``p0`` the model cannot take is
    refused here, before any path is drawn.
    """
    d = model.dim_p
    if cfg.p0.shape != (d,):
        raise ValueError(f"p0 has shape {cfg.p0.shape}; the model needs ({d},)")

    def steps(first, count):
        dW_all = path_normals(cfg.seed, first, count, len(tgrid) - 1, d)
        P = np.broadcast_to(cfg.p0, (count, d)).copy()
        for k in range(len(tgrid) - 1):
            t = float(tgrid[k])
            dt = float(tgrid[k + 1]) - t
            dW = dW_all[k] * np.sqrt(dt)
            P_next = P + model.drift(P) * dt + np.einsum(
                "nij,nj->ni", model.diffusion(P), dW)
            yield k, t, dt, P, P_next, dW
            P = P_next

    def batches():
        n_batches = -(-cfg.n_paths // _BATCH_PATHS)
        edges = [cfg.n_paths * b // n_batches for b in range(n_batches + 1)]
        for first, end in zip(edges[:-1], edges[1:]):
            yield first, end - first, steps(first, end - first)

    return batches()


def _simulate_core(model: ModelSpec, field: ValueField,
                   cfg: SimConfig, e_starts: np.ndarray,
                   record_times: Sequence[float], stop_time: Optional[float] = None):
    """Terminal arrays and snapshots ``{t: E}`` of E, one row per start.

    The starts are the rows of one (n_starts, count) array per batch, which
    share the P-path and Brownian increments of each path index (common-noise
    coupling for the flow checks).  Record times outside (0, T] are refused.
    A run cut at ``stop_time`` has no horizon terminal values: callers read
    only its snapshots.
    """
    T = field.grid.horizon
    outside = [float(t) for t in record_times if not 0.0 < t <= T]
    if outside:
        raise ValueError(f"record times {outside} lie outside (0, T] = (0, {T}]")
    tgrid = sim_time_grid(cfg, field, extra_times=record_times)
    if stop_time is not None:
        tgrid = tgrid[tgrid <= stop_time + 1e-15]
    batches = euler_paths(model, cfg, tgrid)
    read = field.reader(model, tgrid[:-1])
    n_steps_grid = len(tgrid) - 1
    n = cfg.n_paths
    n_starts = len(e_starts)
    # terminal Y is read at the last moment the path time matches a stored
    # slice; past it the slice freezes while E keeps contracting, which would
    # scramble the martingale limit the value is standing in for
    interior = field.grid.t_nodes[field.grid.t_nodes < T - 1e-15]
    t_y_term = float(interior[-1]) if len(interior) else float(tgrid[0])
    k_y = int(np.searchsorted(tgrid, t_y_term + 1e-15) - 1)
    k_y = max(0, min(k_y, n_steps_grid - 1))

    term_E = np.repeat(e_starts[:, None], n, axis=1)
    term_Y = np.full((n_starts, n), np.nan)
    escaped = np.zeros((n_starts, n), dtype=bool)
    snaps = {round(float(t), 12): [] for t in record_times}
    term_P = np.empty((n, model.dim_p))

    e_lo, e_hi = field.grid.e_nodes[0], field.grid.e_nodes[-1]

    for first, count, steps in batches:
        cols = slice(first, first + count)
        E, esc = term_E[:, cols], escaped[:, cols]   # stepped in place
        for k, _, dt, P, P_next, _ in steps:
            x, Y = read(k, P, E)
            esc |= (x < e_lo) | (x > e_hi)
            if k == k_y:
                term_Y[:, cols] = Y
            E -= model.feedback.value(P, Y) * dt
            key = round(float(tgrid[k + 1]), 12)
            if key in snaps:
                snaps[key].append(E.copy())
        term_P[cols] = P_next   # P at the last grid time

    merged = {key: np.concatenate(chunks, axis=1) for key, chunks in snaps.items()}
    return term_E, term_Y, term_P, escaped, merged


def simulate_forward(model: ModelSpec, field: ValueField,
                     cfg: SimConfig) -> PathEnsemble:
    """Simulate (P, E, Ebar, Y) to the horizon under the given field; the
    ensemble keeps the terminal values and ``snapshots[t]``, the E of every
    path at each of ``cfg.t_snapshots``.

    Escaped paths (those leaving the field's e-domain) are flagged and meant
    to be excluded from statistics; accepted runs require the escape
    fraction below 0.1%.  The ensemble's provenance is the field's, with
    the model's cap, which the path statistics read.
    """
    T = field.grid.horizon
    tE, tY, tP, esc, snaps = _simulate_core(
        model, field, cfg, np.array([cfg.e0]), cfg.t_snapshots)
    ebar_T = tE[0] + np.asarray(WEvaluator(model).evaluate(T, tP))
    snapshots = {t: rec[0] for t, rec in snaps.items()}
    return PathEnsemble(
        terminal_E=tE[0], terminal_Y=tY[0], terminal_Ebar=ebar_T,
        snapshots=snapshots, escaped=esc[0],
        provenance={**field.provenance, "cap_lambda": model.cap_lambda})


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


def dirac_scan(ens: PathEnsemble, delta_list) -> AtomCurve:
    """Fraction of unescaped paths with |E_T - cap| <= delta over a
    decreasing ladder.

    The curve is monotone by construction (nested events); the plateau
    statistic is fraction(min delta) / fraction(max delta).  Needs a ladder
    spanning at least two decades.
    """
    deltas = np.asarray(list(delta_list), dtype=float)
    if np.any(np.diff(deltas) >= 0):
        raise ValueError("delta_list must be strictly decreasing")
    if deltas[0] / deltas[-1] < 100.0 * (1 - 1e-9):
        raise ValueError("delta ladder must span at least two decades")
    data = ens.terminal_E[ens.ok()]
    n = len(data)
    dist = np.abs(data - ens.provenance["cap_lambda"])
    fr = np.array([np.mean(dist <= d) for d in deltas])
    se = np.sqrt(np.maximum(fr * (1 - fr), 0.0) / max(n, 1))
    defined = fr[0] > 0
    plateau = float(fr[-1] / fr[0]) if defined else float("nan")
    return AtomCurve(deltas=deltas, fractions=fr, std_errors=se,
                     plateau=plateau, plateau_defined=bool(defined))


def default_delta_ladder(horizon: float) -> np.ndarray:
    return np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4]) * horizon


# ---------------------------------------------------------------------------
# conditional support and terminal sandwich
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportHistogram:
    edges: np.ndarray
    counts: np.ndarray
    coverage: float
    n_conditioned: int


def conditional_support(ens: PathEnsemble, delta: float) -> SupportHistogram:
    """Histogram of Y_T over ten equal bins of [0,1] on the conditioning event
    |E_T - cap| <= delta."""
    lam = ens.provenance["cap_lambda"]
    ok = ens.ok()
    mask = ok & (np.abs(ens.terminal_E - lam) <= delta)
    if not np.any(mask):
        raise ValueError("conditioning event is empty")
    y = ens.terminal_Y[mask]
    counts, edges = np.histogram(y, bins=10, range=(0.0, 1.0))
    return SupportHistogram(edges=edges, counts=counts,
                            coverage=float(np.mean(counts > 0)),
                            n_conditioned=int(mask.sum()))


_SANDWICH_ETA = 0.05   # the slack of the relaxed terminal condition (c6)


def terminal_sandwich_check(ens: PathEnsemble, tc: TerminalCondition,
                            min_cap_distance: float = 0.0) -> float:
    """Fraction of paths with Y_T outside [phi_-(E_T) - eta, phi_+(E_T) + eta],
    eta = ``_SANDWICH_ETA``.

    ``min_cap_distance`` restricts the census to paths ending at least that
    far from the cap (used to separate the genuine squeeze from the
    interpolation smear right at the singularity).
    """
    ok = ens.ok()
    if min_cap_distance > 0:
        lam = ens.provenance["cap_lambda"]
        ok = ok & (np.abs(ens.terminal_E - lam) >= min_cap_distance)
    if not np.any(ok):
        return 0.0
    lo, hi = phi_sides_arrays(tc, ens.terminal_E[ok])
    y = ens.terminal_Y[ok]
    viol = (y < lo - _SANDWICH_ETA) | (y > hi + _SANDWICH_ETA)
    return float(np.mean(viol))


# ---------------------------------------------------------------------------
# flow squeeze
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowReport:
    pairs: tuple
    frac_ok: float
    per_pair_frac: np.ndarray
    worst_lower_margin: float
    min_ordering_margin: float
    coalescence_fraction: float
    coalescence_se: float


def flow_squeeze_check(model: ModelSpec, field: ValueField,
                       cfg: SimConfig, e_pairs, t_list) -> FlowReport:
    """Two-sided flow inequality under common noise, plus terminal coalescence.

    For each pair e > e' and recorded t the difference must satisfy
    (e - e') >= E_t^e - E_t^{e'} >= ((T-t)/T)^{ell2/ell1} (e - e')
    within three times the declared integration-error bound.  Times must lie
    in (0, T).  A pair coalesces when both paths end within 1% of T of the
    cap.
    """
    T = field.grid.horizon
    outside = [float(t) for t in t_list if not 0.0 < t < T]
    if outside:
        raise ValueError(f"t_list entries {outside} lie outside (0, T) = (0, {T})")
    starts = sorted({float(x) for pair in e_pairs for x in pair})
    idx = {x: i for i, x in enumerate(starts)}
    dt_unif = T / cfg.n_steps
    tE, _, _, esc, snaps = _simulate_core(
        model, field, cfg, np.asarray(starts), tuple(t_list))
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
            diff = snaps[key][idx[e_a]] - snaps[key][idx[e_b]]
            s = T - float(t)
            env = ((s / T) ** ratio) * gap0
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
    delta = 1e-2 * T
    lam = model.cap_lambda
    coals = []
    for (e_a, e_b) in e_pairs:
        both = (np.abs(tE[idx[float(max(e_a, e_b))]] - lam) <= delta) \
            & (np.abs(tE[idx[float(min(e_a, e_b))]] - lam) <= delta)
        coals.append(np.mean(both))
    co = float(np.mean(coals))
    co_se = float(np.sqrt(max(co * (1 - co), 0.0) / cfg.n_paths))
    return FlowReport(pairs=tuple(tuple(p) for p in e_pairs),
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
    times: np.ndarray
    variances: np.ndarray
    jackknife_se: np.ndarray
    time_slope: float
    prefactor: float
    below_resolution: bool


def variance_scan(model: ModelSpec, field: ValueField,
                  cfg: SimConfig, t_list) -> VarianceScan:
    """Sample variance of E_t over the requested times with jackknife errors.

    Reports the regression slope of log var against log t and the cube-law
    prefactor geomean(var / t^3).  Times must lie in (0, T/2].
    """
    T = field.grid.horizon
    t_arr = np.sort(np.asarray(list(t_list), dtype=float))
    if t_arr[0] <= 0.0 or t_arr[-1] > 0.5 * T + 1e-12:
        raise ValueError("t_list must lie in (0, T/2]")
    _, _, _, esc, snaps = _simulate_core(
        model, field, cfg, np.array([cfg.e0]), tuple(t_arr),
        stop_time=float(t_arr[-1]))
    ok = ~esc[0]
    vs, ses = [], []
    for t in t_arr:
        E = snaps[round(float(t), 12)][0][ok]
        vs.append(float(np.var(E)))
        ses.append(_jackknife_var_se(E))
    vs = np.asarray(vs)
    ses = np.asarray(ses)
    slope = float(np.polyfit(np.log(t_arr), np.log(np.maximum(vs, 1e-300)), 1)[0])
    pref = float(np.exp(np.mean(np.log(np.maximum(vs, 1e-300)) - 3 * np.log(t_arr))))
    below = bool(np.any(vs <= 0) or np.any(ses > 0.5 * np.maximum(vs, 1e-300)))
    return VarianceScan(times=t_arr, variances=vs, jackknife_se=ses,
                        time_slope=slope, prefactor=pref, below_resolution=below)


@dataclass(frozen=True)
class PrefactorReport:
    overall_slope: float
    pairwise_slopes: np.ndarray
    verdict: str


def prefactor_report(horizons, prefactors) -> PrefactorReport:
    """Classify the horizon decay of the cube-law prefactor.

    ``superpolynomial`` means strictly decreasing with overall log-log slope
    above 3 (i.e. faster than any power <= 3);
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
    if dec and overall > 3.0:
        verdict = "superpolynomial"
    elif dec:
        verdict = "power_like"
    else:
        verdict = "not_decreasing"
    return PrefactorReport(overall_slope=overall, pairwise_slopes=pair,
                           verdict=verdict)


# ---------------------------------------------------------------------------
# transmission coefficient
# ---------------------------------------------------------------------------

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


def transmission_scan(field: ValueField, model: ModelSpec,
                      e_grid) -> TransmissionProfile:
    """Profile of the noise-transmission coefficient along e at (t, p) = (0, 0).

    Reads a reduced (dim 0) field, hence an affine-type model, and its
    e-gradient de_v; reports both normalizations alpha - gamma*dp_v and
    alpha - dp_v with dp_v = de_v(ebar) dp_w.  The in-cone level is the maximum magnitude
    of the first over the central cone band, the off-cone level the median
    magnitude outside a widened band.
    """
    field.require_reduced("transmission_scan")
    read = field.reader(model, [0.0])
    e_grid = np.asarray(e_grid, dtype=float)
    s = model.horizon_T
    lam = model.cap_lambda
    gamma = model.family_params["gamma"]

    ebar, de_v = read(0, np.zeros(model.dim_p), e_grid, (gradient_fields(field),))
    dp_v = de_v * WEvaluator(model).dp_w(0.0)[0]
    a0 = float(np.atleast_1d(model.family_params["alpha"])[0])
    profiles = {"alpha_minus_gamma_dpv": a0 - gamma * dp_v,
                "alpha_minus_dpv": a0 - dp_v}
    main = profiles["alpha_minus_gamma_dpv"]

    x = (ebar - lam) / (gamma * s)
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
                       cfg: SimConfig) -> GradPEstimate:
    """Importance-weighted pathwise estimator of dv/dp at the start point.

    d = 1 with a smooth terminal condition: accumulates
    -de_v * dp_f * exp(int [-dy_f * de_v + dp_b]) along simulated paths
    under the measure tilted by the diffusion-derivative weight; with
    constant sigma the weight is identically 1.  Flags weight degeneracy
    when the effective sample size drops below 10%.
    """
    if model.dim_p != 1:
        raise ValueError("the pathwise representation is implemented for d = 1")
    tgrid = sim_time_grid(cfg, field)
    batches = euler_paths(model, cfg, tgrid)
    read = field.reader(model, tgrid[:-1])
    de_v = gradient_fields(field)
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
        for k, _, dt, P, P_next, dW in steps:
            _, Y, dev = read(k, P, E, (field.values, de_v))
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
