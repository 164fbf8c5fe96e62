"""Backward finite-difference solvers for the value function.

Two solvers share one monotone core: ``solve_mollified`` marches the full
(t, p, e) equation

    v_t + <b, v_p> + 1/2 Tr[sigma sigma^T v_pp] - f(p, v) v_e = 0,
        v(T, p, e) = phi(e),

and ``solve_reduced_1d`` marches the one-dimensional equation satisfied by
the drift-compensated value ``vbar(t, ebar)`` of the affine families, whose
diffusion coefficient is the squared noise integrand of the compensator.

Scheme: explicit first-order upwind transport in e (upwind direction from
the sign of f at the previous slice), implicit tridiagonal diffusion-drift
sweeps in each p-direction (E carries no noise: no e-diffusion).  Every
sub-step is monotone under the enforced step bound, so fields stay in [0,1],
stay non-decreasing in e and obey the discrete comparison principle.
The e-edges hold the data's limits 0 and 1 as Dirichlet values, written once
when the march starts; every sub-step updates only the inner nodes.

Transport and p-sweeps allocate nothing per sub-step: the transport keeps
the plain formula's ufunc order (bit for bit) on scratch buffers made once per
solve, and each p-direction matrix is factored once per stored span (fixed
step) for an in-place, row-vectorised Thomas sweep that ``_tridiag``
assembles.  The reduced solver's long e-axis system, the same Toeplitz
M-matrix at every node, goes to ``_cyclic_reduction``: whole-array numpy
steps that add only non-negative terms, so its output is non-negative and
free of -0.0 by construction.  The package needs numpy alone.

Both transports skip the nodes that a sub-step provably leaves as they
are, measured every ``_WINDOW_BLOCK`` substeps, so every output stays as
the full-grid loop makes it, bit for bit.  The full solver runs on the
calling thread alone, and its feedback, transport and p-sweeps act only on
the inner e-columns right of the leading all-zero columns, less one column
per substep of the block (see ``solve_mollified``).  The reduced
transport updates the window of live nodes of ``_active_window``: it skips
the frozen tail left of the cap and the exactly flat plateau at 1 that
binary data leave (see ``solve_reduced_1d``).

``ValueField.reader`` is the one place where fields are read along paths
(slice lookup, ebar = e + w(t, p) on reduced fields, interpolation):
``ValueField.eval`` and every path loop of ``mc_engine`` read through it.

``full_field``, ``reduced_tail_field`` and ``reduced_aligned_field`` are the
one way to build a field from a scenario's grid settings and extra slices
(``t_extra``), such as the scenario field's slice at each gap horizon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .burgers_ref import WEvaluator, _rows_by_p_node
from .model_core import ModelSpec, TerminalCondition

_BOUND_SNAP = 1e-12   # FP-roundoff renormalization threshold, not a limiter
_CFL_SAFETY = 0.85    # fraction of the explicit transport's stable step taken
_MAX_INTERNAL_STEPS = 2_000_000   # sub-step budget of one solve
_WINDOW_BLOCK = 64    # transport substeps between window measurements
_FROZEN = 2.0**-60    # |u| below which a reduced-transport node cannot move
_TAIL_RATIO = 1.07    # step ratio of the geometric time tail of stored slices
_TAIL_COARSE = 1.25   # its ratio above the switch time-to-go


class CFLError(RuntimeError):
    """Stable time stepping would exceed ``_MAX_INTERNAL_STEPS`` sub-steps."""


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
        # a NaN fails no comparison below, and an inf passes the order checks
        axes = {"t_nodes": t, "e_nodes": e,
                **{f"p_nodes[{k}]": p for k, p in enumerate(self.p_nodes)}}
        for name, nodes in axes.items():
            if not np.all(np.isfinite(nodes)):
                raise ValueError(f"{name!r} must hold finite nodes only, not "
                                 f"{nodes[~np.isfinite(nodes)][:3].tolist()}")
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
    def horizon(self) -> float:
        return float(self.t_nodes[-1])

    def space_shape(self) -> tuple:
        return tuple(len(p) for p in self.p_nodes) + (len(self.e_nodes),)


def time_nodes_with_tail(T: float, s_min: float,
                         s_switch: Optional[float] = None) -> np.ndarray:
    """0, T and a geometric tail of slices accumulating at T: time-to-go
    ``s_min`` up by ``_TAIL_RATIO`` (``_TAIL_COARSE`` above ``s_switch``).  The
    tail lets simulated paths keep contracting toward the cap to the end."""
    tail = [s_min]
    while tail[-1] < T:
        r = _TAIL_RATIO if (s_switch is None or tail[-1] < s_switch) else _TAIL_COARSE
        tail.append(min(tail[-1] * r, T))
    return np.union1d(np.array([0.0, T]), T - np.asarray(tail))


def e_nodes_for(model: ModelSpec, de: float, pad: float = 0.0) -> np.ndarray:
    """Uniform e-axis covering [cap - 2LT - pad, cap + 2LT + pad]."""
    half = 2.0 * model.lipschitz_L * model.horizon_T + pad
    lo = model.cap_lambda - half
    n = int(np.ceil(2 * half / de))
    return lo + de * np.arange(n + 1)


def check_domain(model: ModelSpec, grid: Grid):
    """Raise ValueError unless the grid covers the model's e-domain and its
    time axis runs from 0, where every path starts, to the model's horizon."""
    half = 2.0 * model.lipschitz_L * model.horizon_T
    lo, hi = model.cap_lambda - half, model.cap_lambda + half
    tol = 1e-9 * max(1.0, abs(hi))
    if grid.e_nodes[0] > lo + tol or grid.e_nodes[-1] < hi - tol:
        raise ValueError(
            f"e-domain [{grid.e_nodes[0]}, {grid.e_nodes[-1]}] must contain "
            f"[{lo}, {hi}]")
    if grid.t_nodes[0] != 0.0:
        raise ValueError(f"grid starts at t = {grid.t_nodes[0]}, not at 0")
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


def _clamp(x, lo, hi):
    """``np.clip(x, lo, hi)`` bit for bit, NaN and signed zeros included (in
    this argument order), at a fraction of its fixed cost on small arrays."""
    return np.minimum(hi, np.maximum(lo, x))


def _lin_weights(nodes: np.ndarray, x):
    """Lower node index and weight of the points ``x``, clamped to the axis.
    The position is non-negative after the clamp, so its floor is the
    truncation; ``fmin`` sends NaN to the last cell, whose weight stays NaN."""
    x = _clamp(np.asarray(x, dtype=float), nodes[0], nodes[-1])
    pos = (x - nodes[0]) / (nodes[1] - nodes[0])
    low = np.fmin(np.floor(pos), len(nodes) - 2)
    return low.astype(np.intp), _clamp(pos - low, 0.0, 1.0)


@dataclass(frozen=True)
class ValueField:
    """Sampled value function, read through ``reader``.  ``values`` has
    shape (n_t, *p_shape, n_e); reduced fields (dim 0) are in ebar."""

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

    def require_reduced(self, what: str):
        if self.dim != 0:
            raise ValueError(f"{what} needs a reduced (dim 0) field")

    def values_at(self, t) -> np.ndarray:
        """Stored slice at the nearest-lower time node."""
        return self.values[int(_slice_index(self.grid.t_nodes, t))]

    def eval_bar(self, t, ebar) -> np.ndarray:
        self.require_reduced("eval_bar")
        return _interp_space(self.grid, self.values_at(t), None, ebar)

    def reader(self, model: ModelSpec, times) -> Callable:
        """``read(k, p, e, arrays=(values,))`` along paths stepped at ``times``:
        the points' e-coordinate x, then each array shaped like ``values`` read
        at (p, x) on the slice at the nearest-lower node to ``times[k]``.  A
        full field reads at x = e, a reduced one at x = e + w(times[k], p) by
        the closed-form w of ``model`` (refused without one); a field solved
        for another model is refused."""
        check_model(model, self)
        times = np.asarray(times, dtype=float)
        slices = _slice_index(self.grid.t_nodes, times)
        we = WEvaluator(model)
        if self.dim == 0 and we.mode == "monte_carlo":
            raise ValueError("a reduced field is read through a closed-form "
                             f"compensator, which the {model.family} family lacks")
        w = we.evaluate if self.dim == 0 else None

        def read(k, p, e, arrays=(self.values,)):
            x = e if w is None else e + w(float(times[k]), p)
            return [x] + [_interp_space(self.grid, a[slices[k]], p, x) for a in arrays]
        return read

    def eval(self, t, p, e, model: ModelSpec) -> np.ndarray:
        """v(t, p, e) of a field solved for ``model``, through its reader."""
        return self.reader(model, [t])(0, p, np.asarray(e, dtype=float))[1]


def _interp_space(grid: Grid, sl: np.ndarray, p, e) -> np.ndarray:
    """Multilinear interpolation of one stored slice at points (p, e): the
    linear interpolant in e at each of the 2^d corners of the points' p-cells,
    weighted by the product of the corner's p-weights."""
    ie, we_ = _lin_weights(grid.e_nodes, e)
    if grid.dim == 0:
        return (1.0 - we_) * sl.take(ie) + we_ * sl.take(ie + 1)
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    cells = [_lin_weights(nodes, p[..., k]) for k, nodes in enumerate(grid.p_nodes)]
    we_low = 1 - we_
    out = None
    for corner in itertools.product((0, 1), repeat=grid.dim):
        at = tuple(i + c for (i, _), c in zip(cells, corner))
        wts = [w if c else 1 - w for (_, w), c in zip(cells, corner)]
        term = math.prod(wts[1:], start=wts[0]) * (we_low * sl[at + (ie,)]
                                                   + we_ * sl[at + (ie + 1,)])
        out = term if out is None else out + term
    return out


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
                      diff, a_plus, a_minus):
    """In-place explicit upwind step of u_t + speed * u_e = 0 (last axis e) on
    the inner nodes, u[..., 1:-1] -= dt_over_de * (a_plus * back + a_minus * fwd);
    the edges are read, never written.  ``diff`` is one node shorter than ``u``
    along e and takes its differences, back and fwd its two shifted views;
    ``speed``, ``a_plus`` and ``a_minus`` are shaped like ``u[..., 1:-1]``."""
    np.subtract(u[..., 1:], u[..., :-1], out=diff)
    np.maximum(speed, 0.0, out=a_plus)
    np.minimum(speed, 0.0, out=a_minus)
    a_plus *= diff[..., :-1]
    a_minus *= diff[..., 1:]
    a_plus += a_minus
    a_plus *= dt_over_de
    u[..., 1:-1] -= a_plus


def _tridiag(r, q, n: int) -> np.ndarray:
    """Banded I - (r*D2 + q*D1) of order n with Neumann edges, in LAPACK's
    banded layout (super-, main and sub-diagonal rows).

    r = dt*diff/dx^2 and q = dt*drift/dx (time-to-go, so drift > 0 upwinds to
    the right) are scalars or arrays with the system axis first; further axes
    batch systems.  Off-diagonals stay non-positive and the diagonal dominates
    (M-matrix), which keeps the sweep monotone.  The edges fold the ghost node
    into the diagonal."""
    # scalar coefficients broadcast only on assignment: no n-sized temporaries
    shape = (n,) + np.broadcast(r, q).shape[1:]
    qp, qm = np.maximum(q, 0.0), np.minimum(q, 0.0)
    ab = np.zeros((3,) + shape)
    ab[1] = 1.0 + 2.0 * r + qp - qm
    ab[0, 1:] = np.broadcast_to(-(r + qp), shape)[:-1]    # ab[0, j+1] = A[j, j+1]
    ab[2, :-1] = np.broadcast_to(-(r - qm), shape)[1:]    # ab[2, j]   = A[j+1, j]
    r, qp, qm = (np.broadcast_to(x, shape) for x in (r, qp, qm))
    ab[1, 0] = 1.0 + r[0] + qp[0]
    ab[1, -1] = 1.0 + r[-1] - qm[-1]
    return ab


def _cyclic_reduction(d: np.ndarray, r: float):
    """Solve (1 + 2r) x_i - r (x_{i-1} + x_{i+1}) = d_i, r > 0, in place along
    the last axis of ``d`` (leading axes batch right-hand sides), with zero
    outer neighbours x_{-1} = x_m = 0, by odd-even cyclic reduction.

    Each level eliminates the rows at even positions, which leaves a system of
    the same form on the odd ones, with coupling r' = r^2 / b.  A row's
    diagonal is stored as b = 2r + s, s its excess over its two couplings, and
    s' = s (4r + s) / b; the last row can lose a neighbour, so its excess is
    s + extra, extra >= 0.  Every step, reduction and back substitution, adds
    non-negative terms, so d >= 0 gives x >= 0 with no -0.0, and no pivoting
    argument is needed (the plain update b' = b - 2r^2/b cancels when r is
    large)."""
    levels = []
    v, s, extra = d, 1.0, 0.0
    while v.shape[-1] > 1:
        b = 2.0 * r + s
        b_last, f = b + extra, r / b
        levels.append((v, r, b, b_last))
        kept = v[..., 1::2]
        if v.shape[-1] % 2:     # the last row is eliminated into the new last row
            kept[..., :-1] += f * (v[..., 0:-3:2] + v[..., 2:-1:2])
            kept[..., -1] += f * v[..., -3] + (r / b_last) * v[..., -1]
            extra *= f * r / b_last
        else:                   # the last row is kept and loses its right neighbour
            kept[..., :-1] += f * (v[..., 0:-2:2] + v[..., 2::2])
            kept[..., -1] += f * v[..., -2]
            extra += f * r
        r, s, v = f * r, s * (4.0 * r + s) / b, kept
    v /= 2.0 * r + s + extra
    for v, r, b, b_last in reversed(levels):
        kept, gone = v[..., 1::2], v[..., ::2]
        gone[..., 1:kept.shape[-1]] += r * (kept[..., :-1] + kept[..., 1:])
        gone[..., 0] += r * kept[..., 0]
        if v.shape[-1] % 2:
            gone[..., -1] += r * kept[..., -1]
            gone[..., :-1] /= b
            gone[..., -1] /= b_last
        else:
            gone /= b


def _e_solve(u: np.ndarray, r: float):
    """One implicit step of the reduced e-diffusion, r = dt*diff/de^2 > 0:
    (1 + 2r) x_i - r (x_{i-1} + x_{i+1}) = u_i on the inner nodes, in place,
    with the edge values u[0] = 0 and u[-1] = 1 as data.

    ``_cyclic_reduction`` solves for x and, in the same calls, for the
    deficit 1 - x, whose data are 1 - u with the left edge's deficit 1; a
    node takes x where x <= 1/2 and 1 - (1 - x) above.  Each side is then
    exact to rounding near its own bound: x keeps the tiny values left of
    the cap, and a node whose deficit is below half an ulp of 1 is exactly
    1.  So the output lies in [0, 1], holds no -0.0, and keeps the exactly
    flat plateau at 1 that the reduced transport skips."""
    inner = u[1:-1]
    x, deficit = rhs = np.stack([inner, 1.0 - inner])
    x[-1] += r              # the edge value u[-1] = 1 (u[0] = 0 adds nothing)
    deficit[0] += r         # the edge deficit 1 - u[0] = 1
    _cyclic_reduction(rhs, r)
    np.subtract(1.0, deficit, out=inner)
    np.copyto(inner, x, where=x <= 0.5)


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


def _thomas_sweep(x, low, piv, up, row: np.ndarray):
    """Solve in place along axis 0 of ``x``, a whole row ``x[i]`` per step;
    ``row`` is a scratch buffer shaped like ``x[0]``.  Each of ``x``, ``low``,
    ``piv`` and ``up`` may be an array or a list of its rows (views made once,
    which spares the indexing of every step)."""
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

def _check_budget(total: float, dt_cfl: float):
    """Raise ``CFLError`` when a march over ``total`` at steps of at most
    ``dt_cfl`` needs more than ``_MAX_INTERNAL_STEPS`` sub-steps."""
    n = int(np.ceil(total / dt_cfl))
    if n > _MAX_INTERNAL_STEPS:
        raise CFLError(f"stability requires dt <= {dt_cfl:.3e} "
                       f"({n} steps > budget {_MAX_INTERNAL_STEPS})")


def _provenance(model: ModelSpec, grid: Grid, tc: TerminalCondition,
                scheme_id: str, dt_cfl: float) -> dict:
    """What a solve records; the viscosity entry stays 0 so field files keep their bytes."""
    s_last = grid.horizon - float(grid.t_nodes[-2])
    return {
        "epsilon": 0.0,
        "mollifier_n": "heaviside" if tc.kind == "heaviside" else None,
        "scheme_id": scheme_id,
        "model_hash": model.model_hash(),
        "cap_lambda": model.cap_lambda,
        "tc_kind": tc.kind,
        "internal_dt": dt_cfl,
        "smoothing_width": max(grid.de, model.ell2 * s_last),
    }


def solve_mollified(model: ModelSpec, grid: Grid, tc: TerminalCondition) -> ValueField:
    """March the full value-function equation backward on a (t, p, e) grid.

    Heaviside data may be supplied directly (the scheme's numerical
    viscosity then plays the role of the vanishing smoothing; recorded in
    provenance).  Boundary conditions: v = 0 / 1 at the e-edges, zero
    normal derivative in p.

    Raises ``CFLError`` when the stability bound would require more than
    ``_MAX_INTERNAL_STEPS`` sub-steps, and ``SolveDivergenceError`` if values
    leave [-0.01, 1.01].

    Every ``_WINDOW_BLOCK`` substeps the solve finds a, the first e-column
    with a nonzero value on any p-row, and for the next k substeps runs the
    feedback, the transport and the p-sweeps only on the inner columns
    [max(1, a - k), n_e - 1); the result is the full-grid loop's bit for
    bit.  A skipped column is +0.0 before and after each substep:
      - transport: at a zero node with zero neighbours both differences
        are +0.0 (0 - 0), so the flux is +-0.0 and 0 - (+-0.0) is +0.0;
      - p-sweep: the Thomas sweep acts column by column, and on a zero
        column every step is 0 - (+-0.0) or 0 / pivot, pivot > 0: +0.0.
    No node holds -0.0: the data and the edge values are +0.0 or positive,
    and both steps above make +0.0 from zeros.  Only the transport reads
    across columns, one neighbour each way, so the nonzero columns spread
    by at most one to the left per substep: in k substeps none left of
    a - k turns nonzero, and the leftmost window column reads a zero left
    neighbour.  The window may hold zero columns that stay zero; each gets
    the full-grid loop's update.
    """
    if grid.dim not in (1, 2):
        raise ValueError("solve_mollified needs a (t, p, e) grid of p-dim 1 or 2")
    check_domain(model, grid)
    de = grid.de

    p_axes = grid.p_nodes
    mesh = np.meshgrid(*p_axes, indexing="ij")
    p_stack = np.stack(mesh, axis=-1)                  # (*p_shape, d)
    p_flat = p_stack.reshape(-1, grid.dim)

    # stability bound for the explicit transport: speed + slope feedback
    f0 = model.feedback.value(p_flat, np.zeros(len(p_flat)))
    f1 = model.feedback.value(p_flat, np.ones(len(p_flat)))
    fmax = float(np.max(np.abs(np.concatenate([f0, f1]))))
    dt_cfl = _CFL_SAFETY * de / (fmax + model.ell2)

    _check_budget(grid.horizon, dt_cfl)

    # diffusion/drift coefficients per p-axis (diagonal part of sigma sigma^T)
    sig = model.diffusion(p_flat)                      # (n, d, d)
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
    # p-sweep coefficients; the trailing unit axis broadcasts the factors over e
    p_coef = [(np.moveaxis(0.5 * a_diag[..., k], k, 0)[..., None],
               np.moveaxis(b_val[..., k], k, 0)[..., None], grid.dp[k])
              for k in range(grid.dim)]
    p_bcast = p_stack[..., None, :]          # broadcasts against (*p_shape, ne)
    # scratch of the transport and of each p-sweep over all inner columns;
    # a block's window takes the views [..., lo - 1:] of them
    scratch = [np.empty_like(u[..., 1:]), np.empty_like(u[..., 1:-1]),
               np.empty_like(u[..., 1:-1])]
    rows = [np.empty(np.moveaxis(u[..., 1:-1], k, 0)[0].shape) for k in range(grid.dim)]
    columns = u.reshape(-1, u.shape[-1])

    for j in range(len(t_nodes) - 2, -1, -1):
        span = float(t_nodes[j + 1] - t_nodes[j])
        n_sub = max(1, int(np.ceil(span / dt_cfl)))
        dt = span / n_sub
        factors = [[list(f) for f in _thomas_factors(
                       _tridiag(dt * diff / dx**2, dt * drift / dx, len(diff)))]
                   for diff, drift, dx in p_coef]
        for done in range(0, n_sub, _WINDOW_BLOCK):
            k = min(_WINDOW_BLOCK, n_sub - done)
            lo = max(1, int(np.argmax(columns.any(axis=0))) - k)
            near = u[..., lo - 1:]           # the window and its two neighbours
            inner = near[..., 1:-1]
            buffers = [x[..., lo - 1:] for x in scratch]
            swept = [(list(np.moveaxis(inner, ax, 0)), row[..., lo - 1:], fac)
                     for ax, (row, fac) in enumerate(zip(rows, factors))]
            for _ in range(k):
                speed = model.feedback.value(p_bcast, inner)
                _upwind_transport(near, speed, dt / de, *buffers)
                for x, row, fac in swept:
                    _thomas_sweep(x, *fac, row)
        _snap_unit(u, f"slice t={t_nodes[j]:.6g}")
        out[j] = u

    return ValueField(grid=grid, values=out, provenance=_provenance(
        model, grid, tc, "upwind_semi_implicit_v1", dt_cfl))


# ---------------------------------------------------------------------------
# reduced solver
# ---------------------------------------------------------------------------

def _active_window(u: np.ndarray, k: int) -> tuple:
    """The window [lo, hi) of the nodes that the next k reduced-transport
    substeps can change (argument in ``solve_reduced_1d``); empty when none can.

    A node is live when it lies in [a, n - 2], a the first node with
    u >= 2**-60 (u >= 0 here: the data are, the e-solve's output is, and the
    transport keeps it), and its slope u_i - u_{i-1} is not 0.  The window
    runs from the first live node to k nodes past the last, clamped at the
    edge node n - 1.
    """
    a = 1 + int(np.argmax(u[1:-1] >= _FROZEN))
    live = np.flatnonzero(u[a:-1] != u[a - 1:-2])      # offsets from a
    if not len(live):
        return a, a
    return a + int(live[0]), min(a + int(live[-1]) + k, len(u) - 1)


def solve_reduced_1d(model: ModelSpec, grid: Grid, tc: TerminalCondition) -> ValueField:
    """March the reduced equation for vbar(t, ebar) on a (t, ebar) grid.

    Requires an affine-type family (constant-coefficient or linear drift);
    the transport speed is gamma*vbar and the time-dependent diffusion is
    half the compensator's squared noise |sigma^T dp_w|^2, so over each span
    it integrates to half of ``WEvaluator.noise_energy``.  Reconstruction
    ``v(t, p, e) = vbar(t, e + w(t, p))`` is exposed by ``ValueField.eval``.

    The transport u_i -= c u_i (u_i - u_{i-1}), 0 < c <= 1, updates only the
    window of ``_active_window``, measured every ``_WINDOW_BLOCK`` substeps,
    and the result is the full-grid loop's bit for bit.  A skipped node keeps
    its bits:
      - left tail: where |u_i| and |u_{i-1}| are below 2**-60 the flux is
        below c |u_i| 2**-59 (1 + 2**-53)**2, under half an ulp of u_i (or
        it underflows to 0); a node reads only its left neighbour and u[0]
        is 0, so every node left of the first |u| >= 2**-60 stays frozen;
      - zero slope: where u_i == u_{i-1} the flux c u_i 0 is +-0.0, and
        u_i - (+-0.0) is u_i.  Binary data leave the right part of u on
        such an exactly flat plateau at 1, and the e-solve keeps it (see
        ``_e_solve``); the slope of the edge node u[n-1] = 1 no update reads.
    Both rules would turn a -0.0 after a -0.0 into +0.0, but no node holds
    -0.0.  The data and the transport make none, and neither does the
    e-solve, whose cyclic reduction adds only non-negative terms.
    A node changes only where its slope is nonzero, so the changing nodes
    spread by at most one to the right per substep: k substeps change no
    node more than k - 1 past a live one.  The window may also hold nodes
    that cannot change; each gets the full-grid loop's update.
    """
    if grid.dim != 0:
        raise ValueError("solve_reduced_1d needs a dim-0 grid")
    check_domain(model, grid)
    gamma = model.family_params.get("gamma")
    if gamma is None:
        raise ValueError("reduced solve needs an affine-type family with gamma")
    noise_energy = WEvaluator(model).noise_energy

    e = grid.e_nodes
    de = grid.de
    ne = len(e)
    dt_cfl = _CFL_SAFETY * de / (2.0 * gamma)
    _check_budget(grid.horizon, dt_cfl)

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
            lo, hi = _active_window(u, k)
            mid, left, sl, fl = u[lo:hi], u[lo - 1:hi - 1], slope[:hi - lo], flux[:hi - lo]
            for _ in range(k):
                np.subtract(mid, left, out=sl)
                np.multiply(c, mid, out=fl)
                fl *= sl
                mid -= fl
        r = 0.5 * noise_energy(s0, s1) / de**2
        if r > 0.0:
            _e_solve(u, r)
        _snap_unit(u, f"reduced slice s={s1:.6g}")
        out[len(s_store) - 1 - j] = u

    return ValueField(grid=grid, values=out, provenance=_provenance(
        model, grid, tc, "reduced_upwind_semi_implicit_v1", dt_cfl))


# ---------------------------------------------------------------------------
# field builders: a scenario's grid block to a solved field
# ---------------------------------------------------------------------------

def full_field(model: ModelSpec, tc: TerminalCondition, gcfg: dict,
               pad: float = 0.0, t_extra=()) -> ValueField:
    """Full (t, p, e) field: ``n_t`` uniform slices (default 100) plus
    ``t_extra``, e-step ``de_full`` over the e-domain widened by ``pad``, and
    ``n_p`` nodes (default 51) on [-p_half, p_half] (default 3) per p-axis."""
    p_half = gcfg.get("p_half", 3.0)
    grid = Grid(
        t_nodes=np.union1d(
            np.linspace(0.0, model.horizon_T, gcfg.get("n_t", 100) + 1),
            np.asarray(t_extra, dtype=float)),
        e_nodes=e_nodes_for(model, gcfg["de_full"], pad=pad),
        p_nodes=tuple(np.linspace(-p_half, p_half, gcfg.get("n_p", 51))
                      for _ in range(model.dim_p)))
    return solve_mollified(model, grid, tc)


def reduced_tail_field(model: ModelSpec, tc: TerminalCondition,
                       gcfg: dict, t_extra=()) -> ValueField:
    """Reduced field on e-step ``de_reduced`` whose slices form a geometric
    tail accumulating at the horizon (``tail_s_min`` and ``tail_switch`` of
    ``gcfg``), plus ``t_extra``."""
    t_nodes = np.union1d(time_nodes_with_tail(
        model.horizon_T,
        gcfg.get("tail_s_min", 2.0 * gcfg["de_reduced"] / model.ell1),
        gcfg.get("tail_switch")), np.asarray(t_extra, dtype=float))
    e = e_nodes_for(model, gcfg["de_reduced"])
    return solve_reduced_1d(model, Grid(t_nodes=t_nodes, e_nodes=e), tc)


def reduced_aligned_field(model: ModelSpec, tc: TerminalCondition, de: float,
                          n_steps: int, t_extra=(), t_stop=None) -> ValueField:
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


# ---------------------------------------------------------------------------
# derivative fields and diagnostics
# ---------------------------------------------------------------------------

def gradient_fields(field: ValueField) -> np.ndarray:
    """de_v, the e-gradient of every stored slice (shaped like
    ``field.values``): central differences inside, one-sided at the edges."""
    return np.gradient(field.values, field.grid.de, axis=-1)


def conservation_gap(field_upper: ValueField, field_lower: ValueField) -> float:
    """Trapezoidal integral of (upper - lower) over [cap - T/2, cap + T/2]
    at t = T/2, on the p-row nearest p = 0 of a full field."""
    gu, gl = field_upper.grid, field_lower.grid
    if gu.space_shape() != gl.space_shape() or len(gu.t_nodes) != len(gl.t_nodes):
        raise ValueError("fields must share a common grid")
    lam = field_upper.provenance["cap_lambda"]
    half = 0.5 * gu.horizon
    e = gu.e_nodes
    if lam - half < e[0] or lam + half > e[-1]:
        raise ValueError("integration window exceeds the e-domain")
    su = field_upper.values_at(half)
    slv = field_lower.values_at(half)
    for nodes in gu.p_nodes:
        i = int(np.argmin(np.abs(nodes)))
        su = su[i]
        slv = slv[i]
    mask = (e >= lam - half - 1e-12) & (e <= lam + half + 1e-12)
    return float(np.trapezoid(su[mask] - slv[mask], e[mask]))


# settings of the far-field and off-cone-decay bound entries
_FAR_FACTOR = 10.0
_N_T_PROBE = 10
_C_OFF = 1.5
_DECAY_HORIZONS = (0.2, 0.1)
_RATIO_BAND = (2.8, 5.7)


@dataclass(frozen=True)
class BoundEntry:
    name: str
    passed: bool
    worst: float
    detail: str = ""


def gradient_band_violation(field: ValueField, model: ModelSpec) -> BoundEntry:
    """Worst violation of 0 <= de_v <= 1/(ell1 (T-t)) + tol over the field."""
    g = field.grid
    de_v = gradient_fields(field)
    T = g.horizon
    dt_min = float(np.min(np.diff(g.t_nodes)))
    worst = -np.inf
    for j, t in enumerate(g.t_nodes):
        s = T - t
        if s < 2 * dt_min:
            continue
        sl = de_v[j]
        curv = np.abs(np.gradient(sl, g.de, axis=-1))
        tol = np.maximum(0.05 / (model.ell1 * s), 2.0 * g.de * curv)
        over = sl - (1.0 / (model.ell1 * s) + tol)
        under = -(sl + 1e-6)
        worst = max(worst, float(np.max(over)), float(np.max(under)))
    return BoundEntry("gradient_band", worst <= 0.0, worst,
                      "0 <= de_v <= 1/(ell1*(T-t)) with scheme slack")


def far_field_violation(field: ValueField, model: ModelSpec) -> BoundEntry:
    """Worst 0.9 - v (the entry fails above 0) where ebar - cap >=
    _FAR_FACTOR * L * (T-t), on every ``len(t_nodes) // _N_T_PROBE``-th slice
    of a full field."""
    g = field.grid
    T = g.horizon
    worst = -np.inf
    for t in g.t_nodes[:: max(1, len(g.t_nodes) // _N_T_PROBE)]:
        s = T - float(t)
        if s < 4 * g.de / model.ell1:
            continue
        for _, ebar, v in _rows_by_p_node(field, field.values_at(t), model, t, 0.0):
            mask = (ebar - model.cap_lambda) >= _FAR_FACTOR * model.lipschitz_L * s
            if np.any(mask):
                worst = max(worst, float(np.max(0.9 - v[mask])))
    return BoundEntry("far_field", worst <= 0.0, worst if np.isfinite(worst) else 0.0,
                      f"v >= 0.9 beyond {_FAR_FACTOR}*L*(T-t)")


def off_cone_decay(field: ValueField, model: ModelSpec) -> BoundEntry:
    """Ratio of the off-cone gradient levels at the two times-to-go
    ``_DECAY_HORIZONS`` against the square law.

    A level is max de_v over ebar - cap > _C_OFF * (T-t) on a full field;
    the entry passes when the ratio of the two lies in ``_RATIO_BAND``
    around the target (h1/h2)^2.
    """
    g = field.grid
    de_v = gradient_fields(field)
    levels = []
    for h in _DECAY_HORIZONS:
        j = int(_slice_index(g.t_nodes, g.horizon - h))
        level = -np.inf
        for _, ebar, dv in _rows_by_p_node(field, de_v[j], model, g.t_nodes[j], 0.0):
            mask = (ebar - model.cap_lambda) > _C_OFF * h
            if np.any(mask):
                level = max(level, float(np.max(dv[mask])))
        levels.append(level)
    ratio = levels[0] / levels[1] if levels[1] > 0 else float("inf")
    target = (_DECAY_HORIZONS[0] / _DECAY_HORIZONS[1]) ** 2
    ok = np.isfinite(ratio) and _RATIO_BAND[0] <= ratio <= _RATIO_BAND[1]
    return BoundEntry("off_cone_decay", bool(ok), float(ratio),
                      f"levels={levels}, square-law target {target}")
