"""Backward finite-difference solvers for the value function.

Two solvers share one monotone core: ``solve_mollified`` marches the full
(t, p, e) equation

    v_t + <b, v_p> + 1/2 Tr[sigma sigma^T v_pp] + (eps^2/2)(v_pp + v_ee)
        - f(p, v) v_e = 0,     v(T, p, e) = phi(e),

and ``solve_reduced_1d`` marches the one-dimensional equation satisfied by
the drift-compensated value ``vbar(t, ebar)`` of the affine families, whose
diffusion coefficient is the squared noise integrand of the compensator.

Scheme: explicit first-order upwind transport in e (upwind direction from
the sign of f at the previous slice), implicit tridiagonal diffusion-drift
sweeps in each p-direction, implicit e-diffusion when present.  Every
sub-step is monotone under the enforced step bound, so fields stay in [0,1],
stay non-decreasing in e and obey the discrete comparison principle.

Transport and p-sweeps allocate nothing per sub-step: the transport keeps
the plain formula's ufunc order (bit for bit) on scratch buffers made once per
solve, and each p-direction matrix is factored once per stored span (fixed
step) for an in-place, row-vectorised Thomas sweep.  ``_tridiag`` assembles
every tridiagonal M-matrix; the long e-axis systems go to ``solve_banded``.

The reduced transport updates only the nodes that can change: binary data
keep vbar exactly 1, or below 2**-60, outside a band around the cap, where
an update rounds to no change (see ``solve_reduced_1d``), so every output
stays bit for bit as the full-grid loop makes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .model_core import ModelSpec, TerminalCondition

_BOUND_SNAP = 1e-12   # FP-roundoff renormalization threshold, not a limiter
_WINDOW_BLOCK = 64    # reduced-transport substeps between window measurements
_FROZEN = 2.0**-60    # |u| below which a reduced-transport node cannot move


class CFLError(RuntimeError):
    """Stable time stepping would exceed the configured step budget."""


class SolveDivergenceError(RuntimeError):
    """Field values left [-0.01, 1.01] during the march."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Stored time slices and uniform space nodes.

    ``p_nodes`` is a tuple with one uniform axis per forward dimension;
    empty for the reduced one-dimensional equation (dim 0).  ``t_nodes``
    are the slices kept in the output field; the solvers take internal
    sub-steps between them as the stability bound requires.
    """

    t_nodes: np.ndarray
    e_nodes: np.ndarray
    p_nodes: tuple = ()

    def __post_init__(self):
        t = np.asarray(self.t_nodes, dtype=float)
        e = np.asarray(self.e_nodes, dtype=float)
        object.__setattr__(self, "t_nodes", t)
        object.__setattr__(self, "e_nodes", e)
        object.__setattr__(self, "p_nodes",
                           tuple(np.asarray(p, dtype=float) for p in self.p_nodes))
        if t.ndim != 1 or len(t) < 2 or np.any(np.diff(t) <= 0):
            raise ValueError("t_nodes must be strictly increasing with >= 2 entries")
        if e.ndim != 1 or len(e) < 4:
            raise ValueError("e_nodes must hold at least 4 nodes")
        de = np.diff(e)
        if np.any(de <= 0) or np.ptp(de) > 1e-8 * de[0]:
            raise ValueError("e_nodes must be uniform and increasing")
        if len(self.p_nodes) > 2:
            raise ValueError("p-grid dimension is capped at 2")
        for p in self.p_nodes:
            dp = np.diff(p)
            if len(p) < 3 or np.any(dp <= 0) or np.ptp(dp) > 1e-8 * dp[0]:
                raise ValueError("each p-axis must be uniform and increasing")

    @property
    def dim(self) -> int:
        return len(self.p_nodes)

    @property
    def de(self) -> float:
        return float(self.e_nodes[1] - self.e_nodes[0])

    @property
    def dp(self) -> tuple:
        return tuple(float(p[1] - p[0]) for p in self.p_nodes)

    @property
    def t0(self) -> float:
        return float(self.t_nodes[0])

    @property
    def horizon(self) -> float:
        return float(self.t_nodes[-1])

    def space_shape(self) -> tuple:
        return tuple(len(p) for p in self.p_nodes) + (len(self.e_nodes),)


def uniform_time_nodes(t0: float, T: float, n: int) -> np.ndarray:
    return np.linspace(t0, T, n + 1)


def time_nodes_with_tail(t0: float, T: float, n: int, s_min: float,
                         ratio: float = 1.07, s_switch: Optional[float] = None,
                         coarse_ratio: float = 1.25) -> np.ndarray:
    """Uniform slices plus a geometric tail accumulating at T.

    The tail runs from time-to-go ``s_min`` up by ``ratio`` (switching to
    ``coarse_ratio`` above ``s_switch``); it is what lets simulated paths
    keep contracting toward the cap through the final instants.
    """
    tail = [s_min]
    cap = T - t0
    while tail[-1] < cap:
        r = ratio if (s_switch is None or tail[-1] < s_switch) else coarse_ratio
        tail.append(min(tail[-1] * r, cap))
    uniform = np.linspace(t0, T, n + 1) if n >= 1 else np.array([t0, T])
    return np.union1d(uniform, T - np.asarray(tail))


def e_nodes_for(model: ModelSpec, de: float, pad: float = 0.0) -> np.ndarray:
    """Uniform e-axis covering [cap - 2LT - pad, cap + 2LT + pad]."""
    half = 2.0 * model.lipschitz_L * model.horizon_T + pad
    lo = model.cap_lambda - half
    n = int(np.ceil(2 * half / de))
    return lo + de * np.arange(n + 1)


def check_domain(model: ModelSpec, grid: Grid):
    """Raise ValueError unless the grid covers the model's e-domain and horizon."""
    half = 2.0 * model.lipschitz_L * model.horizon_T
    lo, hi = model.cap_lambda - half, model.cap_lambda + half
    tol = 1e-9 * max(1.0, abs(hi))
    if grid.e_nodes[0] > lo + tol or grid.e_nodes[-1] < hi - tol:
        raise ValueError(
            f"e-domain [{grid.e_nodes[0]}, {grid.e_nodes[-1]}] must contain "
            f"[{lo}, {hi}]")
    if abs(grid.horizon - model.horizon_T) > 1e-12 * max(1.0, model.horizon_T):
        raise ValueError(
            f"grid ends at {grid.horizon}, model horizon is {model.horizon_T}")


def check_model(model: ModelSpec, field: ValueField):
    """Raise ValueError unless ``field`` was solved for ``model``."""
    solved_for = field.provenance.get("model_hash")
    if solved_for != model.model_hash():
        raise ValueError(f"field solved for model {solved_for}, "
                         f"not for model {model.model_hash()}")


# ---------------------------------------------------------------------------
# value fields
# ---------------------------------------------------------------------------

def _slice_index(t_nodes: np.ndarray, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    eps = 1e-12 * max(1.0, abs(float(t_nodes[-1])))
    j = np.searchsorted(t_nodes, t + eps, side="right") - 1
    return np.clip(j, 0, len(t_nodes) - 1)


def _lin_weights(nodes: np.ndarray, x: np.ndarray):
    dx = nodes[1] - nodes[0]
    pos = (np.asarray(x, dtype=float) - nodes[0]) / dx
    idx = np.clip(pos.astype(np.int64), 0, len(nodes) - 2)
    w = np.clip(pos - idx, 0.0, 1.0)
    return idx, w


@dataclass(frozen=True)
class ValueField:
    """Sampled value function with nearest-lower time lookup and
    multilinear space interpolation.

    ``values`` has shape (n_t, *p_shape, n_e); for reduced fields (dim 0)
    the values are in the ebar variable and ``eval`` composes with a
    compensator evaluator.
    """

    grid: Grid
    values: np.ndarray
    provenance: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        expect = (len(self.grid.t_nodes),) + self.grid.space_shape()
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != {expect}")

    @property
    def dim(self) -> int:
        return self.grid.dim

    def values_at(self, t) -> np.ndarray:
        """Stored slice at the nearest-lower time node."""
        return self.values[int(_slice_index(self.grid.t_nodes, t))]

    def eval_bar(self, t, ebar) -> np.ndarray:
        if self.dim != 0:
            raise ValueError("eval_bar applies to reduced (dim 0) fields")
        return _interp_space(self.grid, self.values_at(t), None, ebar)

    def eval(self, t, p, e, we=None) -> np.ndarray:
        """v(t, p, e); reduced fields reconstruct via ebar = e + w(t, p)."""
        if self.dim == 0:
            if we is None:
                raise ValueError("reduced field evaluation needs a WEvaluator")
            return self.eval_bar(t, np.asarray(e, dtype=float) + we.evaluate(t, p))
        sl = self.values_at(t)
        return _interp_space(self.grid, sl, p, e)


def _interp_space(grid: Grid, sl: np.ndarray, p, e) -> np.ndarray:
    """Multilinear interpolation of one stored slice at points (p, e)."""
    e = np.clip(np.asarray(e, dtype=float), grid.e_nodes[0], grid.e_nodes[-1])
    ie, we_ = _lin_weights(grid.e_nodes, e)
    if grid.dim == 0:
        return (1.0 - we_) * sl[ie] + we_ * sl[ie + 1]
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    idxs, wts = [], []
    for k, nodes in enumerate(grid.p_nodes):
        pk = np.clip(p[..., k], nodes[0], nodes[-1])
        ik, wk = _lin_weights(nodes, pk)
        idxs.append(ik); wts.append(wk)
    if grid.dim == 1:
        i0, w0 = idxs[0], wts[0]
        out = ((1 - w0) * ((1 - we_) * sl[i0, ie] + we_ * sl[i0, ie + 1])
               + w0 * ((1 - we_) * sl[i0 + 1, ie] + we_ * sl[i0 + 1, ie + 1]))
        return out
    i0, w0, i1, w1 = idxs[0], wts[0], idxs[1], wts[1]
    out = np.zeros(np.broadcast(i0, i1, ie).shape)
    for a in (0, 1):
        for b in (0, 1):
            wa = w0 if a else (1 - w0)
            wb = w1 if b else (1 - w1)
            out += wa * wb * ((1 - we_) * sl[i0 + a, i1 + b, ie]
                              + we_ * sl[i0 + a, i1 + b, ie + 1])
    return out


@dataclass(frozen=True)
class DerivativeFields:
    """Central-difference gradients of a stored field (one-sided at edges)."""

    grid: Grid
    de_v: np.ndarray
    dp_v: Optional[np.ndarray]   # last axis = p-direction; None for dim 0

    def dp_at(self, t, p, e, direction: int = 0) -> np.ndarray:
        if self.dp_v is None:
            raise ValueError("reduced fields carry no dp_v")
        sl = self.dp_v[int(_slice_index(self.grid.t_nodes, t))][..., direction]
        return _interp_space(self.grid, sl, p, e)


# ---------------------------------------------------------------------------
# monotone core
# ---------------------------------------------------------------------------

def _snap_unit(u: np.ndarray, context: str):
    lo, hi = float(u.min()), float(u.max())
    if lo < -0.01 or hi > 1.01:
        raise SolveDivergenceError(
            f"{context}: values left [-0.01, 1.01] (min={lo}, max={hi})")
    if lo < 0.0 or hi > 1.0:
        if lo < -_BOUND_SNAP or hi > 1.0 + _BOUND_SNAP:
            raise SolveDivergenceError(
                f"{context}: bound excursion beyond roundoff (min={lo}, max={hi})")
        np.clip(u, 0.0, 1.0, out=u)


def _upwind_transport(u: np.ndarray, speed: np.ndarray, dt_over_de: float,
                      back, fwd, a_plus, a_minus):
    """In-place explicit upwind step of u_t + speed * u_e = 0 (last axis e),
    u -= dt_over_de * (a_plus * back + a_minus * fwd), on scratch buffers
    shaped like ``u``."""
    np.subtract(u[..., 1:], u[..., :-1], out=back[..., 1:])
    back[..., 0] = 0.0
    np.subtract(u[..., 1:], u[..., :-1], out=fwd[..., :-1])
    fwd[..., -1] = 0.0
    np.maximum(speed, 0.0, out=a_plus)
    np.minimum(speed, 0.0, out=a_minus)
    a_plus *= back
    a_minus *= fwd
    a_plus += a_minus
    a_plus *= dt_over_de
    u -= a_plus


def _tridiag(r, q, n: int, neumann: bool) -> np.ndarray:
    """Banded I - (r*D2 + q*D1) of order n (``solve_banded`` layout).

    r = dt*diff/dx^2 and q = dt*drift/dx (time-to-go, so drift > 0 upwinds to
    the right) are scalars or arrays with the system axis first; further axes
    batch systems.  Off-diagonals stay non-positive and the diagonal dominates
    (M-matrix), which keeps the sweep monotone.  Neumann edges fold the ghost
    node into the diagonal; otherwise the edge rows are Dirichlet identities.
    """
    # scalar coefficients broadcast only on assignment: no n-sized temporaries
    shape = (n,) + np.broadcast(r, q).shape[1:]
    qp, qm = np.maximum(q, 0.0), np.minimum(q, 0.0)
    ab = np.zeros((3,) + shape)
    ab[1] = 1.0 + 2.0 * r + qp - qm
    ab[0, 1:] = np.broadcast_to(-(r + qp), shape)[:-1]    # ab[0, j+1] = A[j, j+1]
    ab[2, :-1] = np.broadcast_to(-(r - qm), shape)[1:]    # ab[2, j]   = A[j+1, j]
    if neumann:
        r, qp, qm = (np.broadcast_to(x, shape) for x in (r, qp, qm))
        ab[1, 0] = 1.0 + r[0] + qp[0]
        ab[1, -1] = 1.0 + r[-1] - qm[-1]
    else:
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 1] = 0.0
        ab[2, -2] = 0.0
    return ab


def _solve_axis(u: np.ndarray, axis: int, ab: np.ndarray):
    """Solve along ``axis`` for every other index; ``ab`` is overwritten (in
    place, the long e-axis solves make no fresh allocations to re-fault)."""
    moved = np.moveaxis(u, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    sol = solve_banded((1, 1), ab, flat, overwrite_ab=True, overwrite_b=True)
    moved[...] = sol.reshape(moved.shape)


def _thomas_factors(ab: np.ndarray):
    """(multipliers, pivots, upper diagonal) of a ``_tridiag`` matrix; its
    diagonal dominance makes pivoting unnecessary."""
    piv = ab[1].copy()
    low = np.empty_like(piv[:-1])
    up = ab[0, 1:]
    for i in range(len(low)):
        low[i] = ab[2, i] / piv[i]
        piv[i + 1] = piv[i + 1] - low[i] * up[i]
    return low, piv, up


def _thomas_sweep(x: np.ndarray, low, piv, up, row: np.ndarray):
    """Solve in place along axis 0 of ``x``, a whole row ``x[i]`` per step;
    ``row`` is a scratch buffer shaped like ``x[0]``."""
    for i in range(len(low)):
        np.multiply(low[i], x[i], out=row)
        x[i + 1] -= row
    x[-1] /= piv[-1]
    for i in range(len(up) - 1, -1, -1):
        np.multiply(up[i], x[i + 1], out=row)
        x[i] -= row
        x[i] /= piv[i]


# ---------------------------------------------------------------------------
# full solver
# ---------------------------------------------------------------------------

def solve_mollified(model: ModelSpec, grid: Grid, tc: TerminalCondition,
                    epsilon: float = 0.0, mollifier_n=None,
                    cfl_safety: float = 0.85,
                    max_internal_steps: int = 2_000_000) -> ValueField:
    """March the full value-function equation backward on a (t, p, e) grid.

    Heaviside data may be supplied directly (the scheme's numerical
    viscosity then plays the role of the vanishing smoothing; recorded in
    provenance).  Boundary conditions: v = 0 / 1 at the e-edges, zero
    normal derivative in p.

    Raises ``CFLError`` when the stability bound would require more than
    ``max_internal_steps`` sub-steps, and ``SolveDivergenceError`` if values
    leave [-0.01, 1.01].
    """
    if grid.dim not in (1, 2):
        raise ValueError("solve_mollified needs a (t, p, e) grid of p-dim 1 or 2")
    check_domain(model, grid)
    de = grid.de
    eps2 = float(epsilon) ** 2

    p_axes = grid.p_nodes
    mesh = np.meshgrid(*p_axes, indexing="ij")
    p_stack = np.stack(mesh, axis=-1)                  # (*p_shape, d)
    p_flat = p_stack.reshape(-1, grid.dim)

    # stability bound for the explicit transport: speed + slope feedback
    f0 = model.feedback.value(p_flat, np.zeros(len(p_flat)))
    f1 = model.feedback.value(p_flat, np.ones(len(p_flat)))
    fmax = float(np.max(np.abs(np.concatenate([f0, f1]))))
    dt_cfl = cfl_safety * de / (fmax + model.ell2)

    total = float(grid.horizon - grid.t0)
    if int(np.ceil(total / dt_cfl)) > max_internal_steps:
        raise CFLError(
            f"stability requires dt <= {dt_cfl:.3e} "
            f"({int(np.ceil(total / dt_cfl))} steps > budget {max_internal_steps})")

    # diffusion/drift coefficients per p-axis (diagonal part of sigma sigma^T)
    sig = model.diffusion(p_flat)                      # (n, d, d)
    if sig.ndim == 2:
        sig = sig[..., None]
    a_full = np.einsum("nij,nkj->nik", sig, sig)
    if grid.dim == 2:
        off = a_full.copy()
        off[:, np.arange(2), np.arange(2)] = 0.0
        if np.max(np.abs(off)) > 1e-12:
            raise NotImplementedError(
                "dim-2 solves support diagonal sigma sigma^T only")
    a_diag = np.einsum("nii->ni", a_full).reshape(p_stack.shape[:-1] + (grid.dim,))
    b_val = model.drift(p_flat).reshape(p_stack.shape[:-1] + (grid.dim,))

    u = np.broadcast_to(tc(grid.e_nodes), grid.space_shape()).astype(float).copy()
    u[..., 0], u[..., -1] = 0.0, 1.0
    out = np.empty((len(grid.t_nodes),) + grid.space_shape())
    out[-1] = u

    t_nodes = grid.t_nodes
    eps_e = 0.5 * eps2 / de**2
    # p-sweep coefficients and views of u with the swept axis first; the
    # trailing unit axis broadcasts the factors over e
    p_coef = [(np.moveaxis(0.5 * (a_diag[..., k] + eps2), k, 0)[..., None],
               np.moveaxis(b_val[..., k], k, 0)[..., None], grid.dp[k])
              for k in range(grid.dim)]
    u_swept = [np.moveaxis(u, k, 0) for k in range(grid.dim)]
    rows = [np.empty(x.shape[1:]) for x in u_swept]
    scratch = [np.empty_like(u) for _ in range(4)]

    p_bcast = p_stack[..., None, :]          # broadcasts against (*p_shape, ne)
    for j in range(len(t_nodes) - 2, -1, -1):
        span = float(t_nodes[j + 1] - t_nodes[j])
        n_sub = max(1, int(np.ceil(span / dt_cfl)))
        dt = span / n_sub
        factors = [_thomas_factors(_tridiag(dt * diff / dx**2, dt * drift / dx,
                                            len(diff), True))
                   for diff, drift, dx in p_coef]
        for _ in range(n_sub):
            speed = model.feedback.value(p_bcast, u)
            _upwind_transport(u, speed, dt / de, *scratch)
            u[..., 0], u[..., -1] = 0.0, 1.0
            for x, row, fac in zip(u_swept, rows, factors):
                _thomas_sweep(x, *fac, row)
            if eps_e > 0.0:
                ab = _tridiag(dt * eps_e, 0.0, len(grid.e_nodes), False)
                _solve_axis(u, u.ndim - 1, ab)
            u[..., 0], u[..., -1] = 0.0, 1.0
        _snap_unit(u, f"slice t={t_nodes[j]:.6g}")
        out[j] = u

    s_last = grid.horizon - float(grid.t_nodes[-2])
    prov = {
        "epsilon": float(epsilon),
        "mollifier_n": ("heaviside" if (mollifier_n is None
                                        and tc.kind == "heaviside") else mollifier_n),
        "scheme_id": "upwind_semi_implicit_v1",
        "model_hash": model.model_hash(),
        "cap_lambda": model.cap_lambda,
        "tc_kind": tc.kind,
        "internal_dt": dt_cfl,
        "smoothing_width": max(de, model.ell2 * s_last),
    }
    return ValueField(grid=grid, values=out, provenance=prov)


# ---------------------------------------------------------------------------
# reduced solver
# ---------------------------------------------------------------------------

def _active_window(u: np.ndarray, k: int, scratch: np.ndarray):
    """Bounds [a, b) of the nodes that k reduced-transport substeps can
    change (argument in ``solve_reduced_1d``); ``scratch`` is a buffer of
    length len(u) - 2."""
    a = 1 + int(np.argmax(np.abs(u[1:-1], out=scratch) >= _FROZEN))
    last = len(u) - 1 - int(np.argmax(u[:0:-1] != u[-2::-1]))
    return a, min(last + k, len(u) - 1)


def reduced_diffusion_integral(model: ModelSpec) -> Callable[[float, float], float]:
    """Integral of the reduced diffusion coefficient over [s0, s1] (time-to-go).

    The coefficient is half the squared noise integrand of the compensator:
    affine family (sigma^T alpha)^2 s^2 / 2; linear-drift family
    (sigma alpha (e^{lam s}-1)/lam)^2 / 2.
    """
    pr = model.family_params
    if model.family == "affine_constant":
        alpha, sig = pr["alpha"], pr["sigma"]
        coef = 0.5 * float(sig**2 * (alpha @ alpha))
        return lambda a, b: coef * (b**3 - a**3) / 3.0
    if model.family == "linear_drift":
        lam, alpha, sig = pr["lam"], pr["alpha"], pr["sigma"]
        if lam == 0.0:
            coef = 0.5 * (sig * alpha) ** 2
            return lambda a, b: coef * (b**3 - a**3) / 3.0

        def integral(a, b):
            # int (e^{lam s} - 1)^2 ds in closed form
            def anti(s):
                return (np.exp(2 * lam * s) / (2 * lam)
                        - 2 * np.exp(lam * s) / lam + s)
            return 0.5 * (sig * alpha / lam) ** 2 * (anti(b) - anti(a))
        return integral
    raise ValueError("reduced solve supports the affine and linear-drift families")


def solve_reduced_1d(model: ModelSpec, grid: Grid, tc: TerminalCondition,
                     cfl_safety: float = 0.85,
                     max_internal_steps: int = 2_000_000) -> ValueField:
    """March the reduced equation for vbar(t, ebar) on a (t, ebar) grid.

    Requires an affine-type family (constant-coefficient or linear drift);
    the transport speed is gamma*vbar and the time-dependent diffusion
    comes from ``reduced_diffusion_integral``.  Reconstruction
    ``v(t, p, e) = vbar(t, e + w(t, p))`` is exposed by ``ValueField.eval``.

    The transport u_i -= c u_i (u_i - u_{i-1}), 0 < c <= 1, runs only on
    the nodes that can change, measured every ``_WINDOW_BLOCK`` substeps;
    the result is bit-identical to updating every node.  Left: where |u_i|
    and |u_{i-1}| are below 2**-60 the flux is below c |u_i| 2**-59
    (1 + 2**-53)**2, under half an ulp of u_i (or it underflows to 0), so
    u_i keeps its bits; a node reads only its left neighbour and u[0] is
    pinned at 0, so every node left of the first |u| >= 2**-60 stays frozen.
    Right: past the last u_i != u_{i-1} the slope is exactly 0, and the
    changed nodes spread by at most one per substep.
    """
    if grid.dim != 0:
        raise ValueError("solve_reduced_1d needs a dim-0 grid")
    check_domain(model, grid)
    gamma = model.family_params.get("gamma")
    if gamma is None:
        raise ValueError("reduced solve needs an affine-type family with gamma")
    d_int = reduced_diffusion_integral(model)

    e = grid.e_nodes
    de = grid.de
    ne = len(e)
    dt_cfl = cfl_safety * de / (2.0 * gamma)
    total = float(grid.horizon - grid.t0)
    if int(np.ceil(total / dt_cfl)) > max_internal_steps:
        raise CFLError(f"stability requires dt <= {dt_cfl:.3e}")

    u = tc(e).astype(float).copy()
    u[0], u[-1] = 0.0, 1.0
    # time-to-go of the stored slices, increasing from 0 (terminal slice)
    s_store = np.sort(grid.horizon - grid.t_nodes)
    out = np.empty((len(grid.t_nodes), ne))
    out[-1] = u

    # u[1:-1] -= c * u[1:-1] * (u[1:-1] - u[:-2]) on the active window only,
    # through views of two scratch buffers
    slope, flux = np.empty(ne - 2), np.empty(ne - 2)
    for j in range(1, len(s_store)):
        s0, s1 = float(s_store[j - 1]), float(s_store[j])
        n_sub = max(1, int(np.ceil((s1 - s0) / dt_cfl)))
        dt = (s1 - s0) / n_sub
        c = dt * gamma / de
        for done in range(0, n_sub, _WINDOW_BLOCK):
            k = min(_WINDOW_BLOCK, n_sub - done)
            a, b = _active_window(u, k, flux)
            mid, left, sl, fl = u[a:b], u[a - 1:b - 1], slope[:b - a], flux[:b - a]
            for _ in range(k):
                np.subtract(mid, left, out=sl)
                np.multiply(c, mid, out=fl)
                fl *= sl
                mid -= fl
                u[0], u[-1] = 0.0, 1.0
        r = d_int(s0, s1) / de**2
        if r > 0.0:
            _solve_axis(u, 0, _tridiag(r, 0.0, ne, False))
        _snap_unit(u, f"reduced slice s={s1:.6g}")
        out[len(s_store) - 1 - j] = u

    s_last = grid.horizon - float(grid.t_nodes[-2])
    prov = {
        "epsilon": 0.0,
        "mollifier_n": "heaviside" if tc.kind == "heaviside" else None,
        "scheme_id": "reduced_upwind_semi_implicit_v1",
        "model_hash": model.model_hash(),
        "cap_lambda": model.cap_lambda,
        "tc_kind": tc.kind,
        "internal_dt": dt_cfl,
        "smoothing_width": max(de, model.ell2 * s_last),
    }
    return ValueField(grid=grid, values=out, provenance=prov)


# ---------------------------------------------------------------------------
# derivative fields and diagnostics
# ---------------------------------------------------------------------------

def gradient_fields(field: ValueField) -> DerivativeFields:
    """Central differences inside, one-sided at the boundary nodes."""
    g = field.grid
    de_v = np.gradient(field.values, g.de, axis=-1)
    if g.dim == 0:
        return DerivativeFields(grid=g, de_v=de_v, dp_v=None)
    dp_v = np.stack([np.gradient(field.values, g.dp[k], axis=1 + k)
                     for k in range(g.dim)], axis=-1)
    return DerivativeFields(grid=g, de_v=de_v, dp_v=dp_v)


def conservation_gap(field_upper: ValueField, field_lower: ValueField,
                     m: float, t: float, p=None) -> float:
    """Trapezoidal integral of (upper - lower) over [cap - m, cap + m]."""
    gu, gl = field_upper.grid, field_lower.grid
    if gu.space_shape() != gl.space_shape() or len(gu.t_nodes) != len(gl.t_nodes):
        raise ValueError("fields must share a common grid")
    lam = field_upper.provenance.get("cap_lambda", 0.0)
    e = gu.e_nodes
    if lam - m < e[0] or lam + m > e[-1]:
        raise ValueError("integration window exceeds the e-domain")
    su = field_upper.values_at(t)
    slv = field_lower.values_at(t)
    if gu.dim >= 1:
        if p is None:
            raise ValueError("p node required for full fields")
        for k, nodes in enumerate(gu.p_nodes):
            i = int(np.argmin(np.abs(nodes - np.atleast_1d(p)[k])))
            su = su[i]
            slv = slv[i]
    mask = (e >= lam - m - 1e-12) & (e <= lam + m + 1e-12)
    return float(np.trapezoid(su[mask] - slv[mask], e[mask]))


@dataclass(frozen=True)
class ConvergenceReport:
    gaps: tuple
    decreasing: bool
    flagged_non_convergent: bool


def extract_limit(fields: Sequence[ValueField], delta: float = 0.05,
                  require: int = 3):
    """Successive sup-norm gaps over the compact window t <= T - delta.

    Returns the last field and a report; a non-decreasing gap sequence is
    flagged, not raised.
    """
    if len(fields) < require:
        raise ValueError(f"need at least {require} fields")
    shapes = {f.values.shape for f in fields}
    if len(shapes) != 1:
        raise ValueError("fields must share a common grid")
    T = fields[0].grid.horizon
    keep = fields[0].grid.t_nodes <= T - delta
    gaps = []
    for a, b in zip(fields[:-1], fields[1:]):
        gaps.append(float(np.max(np.abs(a.values[keep] - b.values[keep]))))
    dec = all(g2 <= g1 + 1e-15 for g1, g2 in zip(gaps[:-1], gaps[1:]))
    nontrivial = any(g > 0 for g in gaps)
    return fields[-1], ConvergenceReport(
        gaps=tuple(gaps), decreasing=dec,
        flagged_non_convergent=(nontrivial and not dec))


@dataclass(frozen=True)
class BoundEntry:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass(frozen=True)
class BoundReport:
    entries: tuple

    @property
    def all_passed(self):
        return all(e.passed for e in self.entries)

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def gradient_band_violation(field: ValueField, derivs: DerivativeFields,
                            model: ModelSpec) -> BoundEntry:
    """Worst violation of 0 <= de_v <= 1/(ell1 (T-t)) + tol over the field."""
    g = field.grid
    T = g.horizon
    dt_min = float(np.min(np.diff(g.t_nodes)))
    worst = -np.inf
    for j, t in enumerate(g.t_nodes):
        s = T - t
        if s < 2 * dt_min:
            continue
        sl = derivs.de_v[j]
        curv = np.abs(np.gradient(sl, g.de, axis=-1))
        tol = np.maximum(0.05 / (model.ell1 * s), 2.0 * g.de * curv)
        over = sl - (1.0 / (model.ell1 * s) + tol)
        under = -(sl + 1e-6)
        worst = max(worst, float(np.max(over)), float(np.max(under)))
    return BoundEntry("gradient_band", worst <= 0.0, worst,
                      "0 <= de_v <= 1/(ell1*(T-t)) with scheme slack")


def _p_points(grid: Grid) -> np.ndarray:
    if grid.dim == 0:
        return np.zeros((1, 1))
    mesh = np.meshgrid(*grid.p_nodes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def bound_report(field: ValueField, derivs: DerivativeFields, model: ModelSpec,
                 w_eval, far_factor: float = 10.0, c_off: float = 1.5,
                 horizons=(0.2, 0.1), ratio_band=(2.8, 5.7),
                 boundary_skip: int = 2, n_t_probe: int = 10) -> BoundReport:
    """Far-field level, off-cone gradient-decay ratio, and gradient band.

    (a) checks v >= 0.9 where ebar - cap >= far_factor * L * (T-t);
    (b) records max de_v over the off-cone region ebar - cap > c_off*(T-t)
        at two times-to-go and compares their ratio to the square law
        (target (h1/h2)^2 within the given band);
    (c) is the gradient band of ``gradient_band_violation``.

    The coordinate ebar = e + w(t, p) is computed per p-node; the last
    ``boundary_skip`` e-columns are excluded (artificial Dirichlet layer).
    """
    g = field.grid
    T = g.horizon
    lam = model.cap_lambda
    L = model.lipschitz_L
    entries = []
    p_pts = _p_points(g)
    e = g.e_nodes
    sl_e = slice(boundary_skip, len(e) - boundary_skip)

    probe = g.t_nodes[:: max(1, len(g.t_nodes) // n_t_probe)]
    worst_far = -np.inf
    for t in probe:
        s = T - float(t)
        if s < 4 * g.de / model.ell1:
            continue
        vt = field.values_at(t).reshape(len(p_pts), len(e))
        for i, pp in enumerate(p_pts):
            shift = float(w_eval(t, pp)) if (w_eval is not None and g.dim > 0) else 0.0
            ebar = e[sl_e] + shift
            mask = (ebar - lam) >= far_factor * L * s
            if np.any(mask):
                worst_far = max(worst_far, float(np.max(0.9 - vt[i, sl_e][mask])))
    entries.append(BoundEntry("far_field", worst_far <= 0.0,
                              worst_far if np.isfinite(worst_far) else 0.0,
                              f"v >= 0.9 beyond {far_factor}*L*(T-t)"))

    levels = []
    for h in horizons:
        t = T - h
        j = int(_slice_index(g.t_nodes, t))
        dv = derivs.de_v[j].reshape(len(p_pts), len(e))
        level = -np.inf
        for i, pp in enumerate(p_pts):
            shift = float(w_eval(g.t_nodes[j], pp)) if (w_eval is not None and g.dim > 0) else 0.0
            ebar = e[sl_e] + shift
            mask = (ebar - lam) > c_off * h
            if np.any(mask):
                level = max(level, float(np.max(dv[i, sl_e][mask])))
        levels.append(level)
    ratio = levels[0] / levels[1] if levels[1] > 0 else float("inf")
    target = (horizons[0] / horizons[1]) ** 2
    ok = np.isfinite(ratio) and ratio_band[0] <= ratio <= ratio_band[1]
    entries.append(BoundEntry("off_cone_decay", bool(ok), float(ratio),
                              f"levels={levels}, square-law target {target}"))

    entries.append(gradient_band_violation(field, derivs, model))
    return BoundReport(entries=tuple(entries))
