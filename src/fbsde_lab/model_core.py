"""Model coefficients, terminal conditions, mollifiers and assumption checks.

The forward-backward system under study is

    dP_t = b(P_t) dt + sigma dW_t
    dE_t = -f(P_t, Y_t) dt
    dY_t = <Z_t, dW_t>,        Y_T = phi(E_T),

with f strictly increasing in y (rate between ``ell1`` and ``ell2``) and a
monotone [0,1]-valued terminal condition phi, typically the indicator of
``[cap_lambda, +inf)``.  The paper's forward noise sigma(P_t) may depend on
the state; every family built here has a constant sigma, held as one
(dim_p, dim_p) matrix.  Everything in this module is immutable and free of
numerical state; the solvers and the Monte Carlo engine consume these objects.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss


class AssumptionError(ValueError):
    """A coefficient evaluated to a non-finite value during validation."""


# ---------------------------------------------------------------------------
# feedback function and model spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedbackFn:
    """The feedback coefficient f and its first derivatives.

    All callables are vectorized: ``value(p, y)`` accepts broadcastable
    arrays, ``dp`` returns an array whose last axis is the p-dimension.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dy: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dp: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModelSpec:
    """Coefficient set and structural constants for one model family.

    ``family`` is one of ``affine_constant``, ``linear_drift``,
    ``nonlinear_1d`` or ``custom``; ``family_params`` holds the named
    constants of that family (used by closed forms and by the reduced
    solver).  ``drift`` is vectorized over the last axis of p; ``sigma`` is
    the constant (dim_p, dim_p) diffusion matrix.
    """

    dim_p: int
    drift: Callable[[np.ndarray], np.ndarray]
    sigma: np.ndarray
    feedback: FeedbackFn
    lipschitz_L: float
    ell1: float
    ell2: float
    holder_alpha: float
    cap_lambda: float
    horizon_T: float
    family: str = "custom"
    family_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim_p < 1:
            raise ValueError("dim_p must be a positive integer")
        L = self.lipschitz_L
        if L < 1:
            raise ValueError("lipschitz_L must be >= 1")
        if not (1.0 / L <= self.ell1 <= self.ell2 <= L):
            raise ValueError(
                f"need 1/L <= ell1 <= ell2 <= L, got ell1={self.ell1}, "
                f"ell2={self.ell2}, L={L}"
            )
        if not (0 < self.holder_alpha <= 1):
            raise ValueError("holder_alpha must lie in (0, 1]")
        if self.horizon_T <= 0:
            raise ValueError("horizon_T must be positive")

    def model_hash(self) -> str:
        """Stable hex digest identifying family, constants and dimensions."""
        payload = {
            "family": self.family,
            "params": {k: repr(v) for k, v in sorted(self.family_params.items())},
            "dim_p": self.dim_p,
            "L": self.lipschitz_L,
            "ell": [self.ell1, self.ell2],
            "alpha": self.holder_alpha,
            "cap": self.cap_lambda,
            "T": self.horizon_T,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# model family constructors
# ---------------------------------------------------------------------------

def _dot_last(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.tensordot(p, v, axes=([-1], [0]))`` for a vector ``v``: the same
    ``np.dot`` call on the same reshaped operands, so the same bits, without
    tensordot's axis bookkeeping (a fixed cost of every Euler step)."""
    return np.dot(p.reshape(-1, v.size), v.reshape(v.size, 1)).reshape(p.shape[:-1])


def _filled(shape: tuple, v) -> np.ndarray:
    """``np.broadcast_to(v, shape).copy()`` of a float ``v``: the same array,
    without broadcast_to's set-up (a fixed cost of every Euler step)."""
    out = np.empty(shape)
    out[...] = v
    return out


def affine_model(alpha, gamma, sigma=1.0, b=0.0, cap_lambda=0.0, horizon_T=0.4,
                 lipschitz_L=None, dim_p=1) -> ModelSpec:
    """Constant-coefficient affine family: -f(p, y) = <alpha, p> - gamma*y.

    ``alpha`` may be a scalar (dim 1) or a vector; ``b`` and ``sigma`` are
    constants (sigma scalar = sigma * identity).
    """
    alpha_v = np.atleast_1d(np.asarray(alpha, dtype=float))
    dim_p = max(dim_p, alpha_v.size)
    if alpha_v.size == 1 and dim_p > 1:
        alpha_v = np.full(dim_p, float(alpha_v[0]))
    b_v = np.broadcast_to(np.atleast_1d(np.asarray(b, dtype=float)), (dim_p,)).copy()
    sig = float(sigma)
    gamma = float(gamma)

    def f_val(p, y):
        ap = _dot_last(np.asarray(p, dtype=float), alpha_v)
        return gamma * np.asarray(y, dtype=float) - ap

    fb = FeedbackFn(
        value=f_val,
        dy=lambda p, y: np.broadcast_to(gamma, np.broadcast(np.asarray(p)[..., 0], y).shape).copy(),
        dp=lambda p, y: np.broadcast_to(-alpha_v, np.asarray(p, dtype=float).shape).copy(),
    )
    if lipschitz_L is None:
        lipschitz_L = max(1.0, gamma, 1.0 / gamma, sig, 1.0 / sig,
                          float(np.linalg.norm(alpha_v)), float(np.linalg.norm(b_v)))
    return ModelSpec(
        dim_p=dim_p,
        drift=lambda p: _filled(np.shape(p), b_v),
        sigma=sig * np.eye(dim_p),
        feedback=fb,
        lipschitz_L=float(lipschitz_L),
        ell1=gamma, ell2=gamma, holder_alpha=1.0,
        cap_lambda=float(cap_lambda), horizon_T=float(horizon_T),
        family="affine_constant",
        family_params={"alpha": alpha_v, "gamma": gamma, "sigma": sig, "b": b_v},
    )


def linear_drift_model(lam, alpha, gamma, sigma=1.0, b0=0.0, cap_lambda=0.0,
                       horizon_T=0.2, lipschitz_L=None) -> ModelSpec:
    """One-dimensional family with drift b(p) = b0 + lam*p and affine feedback."""
    alpha = float(alpha); gamma = float(gamma); sig = float(sigma)
    lam = float(lam); b0 = float(b0)

    fb = FeedbackFn(
        value=lambda p, y: gamma * np.asarray(y, dtype=float)
        - alpha * np.asarray(p, dtype=float)[..., 0],
        dy=lambda p, y: np.broadcast_to(gamma, np.broadcast(np.asarray(p)[..., 0], y).shape).copy(),
        dp=lambda p, y: np.broadcast_to(-alpha, np.asarray(p, dtype=float).shape).copy(),
    )
    if lipschitz_L is None:
        # drift is unbounded; L covers the constants on the working box |p| <= 2
        lipschitz_L = max(1.0, gamma, 1.0 / gamma, sig, 1.0 / sig, alpha,
                          abs(b0) + 2.0 * abs(lam), abs(lam))
    return ModelSpec(
        dim_p=1,
        drift=lambda p: b0 + lam * np.asarray(p, dtype=float),
        sigma=np.full((1, 1), sig),
        feedback=fb,
        lipschitz_L=float(lipschitz_L),
        ell1=gamma, ell2=gamma, holder_alpha=1.0,
        cap_lambda=float(cap_lambda), horizon_T=float(horizon_T),
        family="linear_drift",
        family_params={"lam": lam, "alpha": alpha, "gamma": gamma,
                       "sigma": sig, "b0": b0},
    )


def nonlinear_model(f0_amplitude=0.1, mu=1.0, drift_slope=-0.5, sigma=1.0,
                    cap_lambda=0.0, horizon_T=0.45, lipschitz_L=None,
                    holder_alpha=1.0) -> ModelSpec:
    """One-dimensional nonlinear family f(p, y) = -f0(mu*p - y) with the sine
    profile f0(z) = z + a sin z of amplitude a = ``f0_amplitude``, so that
    f0' = 1 + a cos z spans [ell1, ell2] = [1 - a, 1 + a].
    """
    amp = float(f0_amplitude); mu = float(mu); sig = float(sigma)
    drift_slope = float(drift_slope)
    ell1, ell2 = 1.0 - amp, 1.0 + amp

    def arg(p, y):
        return mu * np.asarray(p, dtype=float)[..., 0] - np.asarray(y, dtype=float)

    def value(p, y):
        z = arg(p, y)
        return -(z + amp * np.sin(z))

    def dy(p, y):
        return 1.0 + amp * np.cos(arg(p, y))

    def dp(p, y):
        return (-mu * dy(p, y))[..., None]

    fb = FeedbackFn(value=value, dy=dy, dp=dp)
    if lipschitz_L is None:
        lipschitz_L = max(1.0, 1.0 / ell1, ell2, mu * ell2, sig,
                          abs(drift_slope) * 2.5)
    return ModelSpec(
        dim_p=1,
        drift=lambda p: drift_slope * np.asarray(p, dtype=float),
        sigma=np.full((1, 1), sig),
        feedback=fb,
        lipschitz_L=float(lipschitz_L),
        ell1=ell1, ell2=ell2, holder_alpha=float(holder_alpha),
        cap_lambda=float(cap_lambda), horizon_T=float(horizon_T),
        family="nonlinear_1d",
        family_params={"mu": mu, "sigma": sig, "drift_slope": drift_slope},
    )


# ---------------------------------------------------------------------------
# terminal conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TerminalCondition:
    """Monotone [0,1]-valued terminal condition phi.

    ``kind`` is ``heaviside`` (indicator of [threshold, inf), value 1 at the
    threshold), ``smooth_ramp`` (Lipschitz clamp ramp centred at the
    threshold) or ``custom_monotone``.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    kind: str
    threshold: float

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))


def heaviside_tc(cap_lambda: float) -> TerminalCondition:
    lam = float(cap_lambda)
    return TerminalCondition(
        eval=lambda x: (np.asarray(x, dtype=float) >= lam).astype(float),
        kind="heaviside", threshold=lam,
    )


def smooth_ramp_tc(cap_lambda: float, width: float) -> TerminalCondition:
    """Clamp ramp rising linearly from 0 to 1 over [lam - w/2, lam + w/2]."""
    lam, w = float(cap_lambda), float(width)
    if w <= 0:
        raise ValueError("ramp width must be positive")
    return TerminalCondition(
        eval=lambda x: np.clip((np.asarray(x, dtype=float) - lam) / w + 0.5, 0.0, 1.0),
        kind="smooth_ramp", threshold=lam,
    )


def phi_sides_arrays(tc: TerminalCondition, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized phi_- / phi_+ over an array of points."""
    x = np.asarray(x, dtype=float)
    if tc.kind == "heaviside":
        lam = tc.threshold
        return (x > lam).astype(float), (x >= lam).astype(float)
    if tc.kind == "smooth_ramp":
        v = tc.eval(x)
        return v, v
    h = 1e-9 * np.maximum(1.0, np.abs(x))
    return tc.eval(x - h), tc.eval(x + h)


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

def _poly_bump(t):
    # normalized C^1 bump 30 t^2 (1-t)^2 on [0,1]; mean exactly 1/2
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 30.0 * t**2 * (1.0 - t) ** 2, 0.0)


BUMP_MEAN = 0.5              # mean of ``_poly_bump``
_MOLLIFIER_QUAD_ORDER = 32   # Gauss-Legendre nodes on the bump support (0, 1)


def mollify(tc: TerminalCondition, n: int, side: str) -> TerminalCondition:
    """Smooth one-sided approximation of order ``n`` >= 1 of a monotone
    terminal condition.

    ``side='upper'`` averages phi_+(x + t/n) against ``_poly_bump`` (result
    >= phi), ``side='lower'`` averages phi_+(x - t/n) (result <= phi).  Both
    results are C^1, non-decreasing and [0,1]-valued; quadrature is
    fixed-order Gauss-Legendre on the bump support (0, 1).
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    if n < 1:
        raise ValueError(f"mollifier order n = {n} must be >= 1")
    x_gl, w_gl = leggauss(_MOLLIFIER_QUAD_ORDER)
    t = 0.5 * x_gl + 0.5
    wt = 0.5 * w_gl * _poly_bump(t)
    wt = wt / np.sum(wt)
    shift = t / n if side == "upper" else -t / n

    def phi_plus(x):
        _, plus = phi_sides_arrays(tc, x)
        return plus

    def smoothed(x):
        x = np.asarray(x, dtype=float)
        vals = phi_plus(x[..., None] + shift)
        return vals @ wt

    return TerminalCondition(eval=smoothed, kind="custom_monotone",
                             threshold=tc.threshold)


# ---------------------------------------------------------------------------
# effective slope of f in y
# ---------------------------------------------------------------------------

_ELL_X, _ELL_W = leggauss(16)
_ELL_NODES = 0.5 * (_ELL_X + 1.0)
_ELL_WEIGHTS = 0.5 * _ELL_W


def effective_ell(model: ModelSpec, p, v_value) -> float | np.ndarray:
    """y-averaged slope of f: integral of df/dy(p, lam*v) over lam in [0,1].

    Satisfies v * ell = f(p, v) - f(p, 0); the v = 0 limit is df/dy(p, 0).
    Quadrature is Gauss-Legendre of order 16.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    v = np.asarray(v_value, dtype=float)
    out = np.zeros(np.broadcast(p[..., 0], v).shape)
    for lam_k, w_k in zip(_ELL_NODES, _ELL_WEIGHTS):
        out = out + w_k * model.feedback.dy(p, lam_k * v)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    elliptic: bool

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _require_finite(name, arr, points):
    arr = np.asarray(arr, dtype=float)
    bad = ~np.isfinite(arr)
    if np.any(bad):
        idx = int(np.argmax(bad.reshape(-1)))
        raise AssumptionError(
            f"{name} evaluated to a non-finite value at sample point "
            f"{np.asarray(points).reshape(len(np.asarray(arr).reshape(-1)), -1)[idx]}")


# validate_assumptions draws _N_SAMPLES sample pairs from the box
# ((p_lo, p_hi), (y_lo, y_hi)), with the p-bounds on every coordinate
_SAMPLE_BOX = ((-2.0, 2.0), (0.0, 1.0))
_N_SAMPLES = 400


def validate_assumptions(model: ModelSpec) -> ValidationReport:
    """Sampling-based check of the structural assumptions on ``_SAMPLE_BOX``.

    Checks growth/Lipschitz bounds on b, sigma and f, the two-sided
    monotonicity of f in y, the Holder continuity of df/dy, boundedness,
    and uniform ellipticity of sigma sigma^T (reported as a flag).  Margins
    are the worst sampled slack: negative means the assumption failed at
    some sample pair; a check passes down to -1e-9.  The samples come from
    the Philox stream of key 0.
    """
    (p_lo, p_hi), (y_lo, y_hi) = _SAMPLE_BOX
    n, d = _N_SAMPLES, model.dim_p
    rng = np.random.Generator(np.random.Philox(key=0))
    P = p_lo + (p_hi - p_lo) * rng.random((n, d))
    P2 = p_lo + (p_hi - p_lo) * rng.random((n, d))
    Y = y_lo + (y_hi - y_lo) * rng.random(n)
    Y2 = y_lo + (y_hi - y_lo) * rng.random(n)
    L = model.lipschitz_L
    tol = 1e-9

    b1, b2 = model.drift(P), model.drift(P2)
    _require_finite("b", b1, P)
    if not np.all(np.isfinite(model.sigma)):
        raise AssumptionError(f"sigma is not finite: {model.sigma.tolist()}")
    norm = lambda a: np.linalg.norm(a.reshape(len(a), -1), axis=1)
    s_norm = norm(model.sigma[None])       # the norm of every sample's sigma
    checks = []

    growth = np.minimum(
        L * (1.0 + norm(P)) - norm(b1),
        L * (1.0 + norm(P)) - s_norm)
    dp_pair = norm(P - P2)
    lip_b = L * dp_pair - norm(b1 - b2)    # a constant sigma is Lipschitz
    m_a1 = float(np.min(np.concatenate([growth, lip_b])))
    checks.append(CheckResult("A1_drift_diffusion", m_a1 >= -tol, m_a1))

    f11 = model.feedback.value(P, Y)
    f21 = model.feedback.value(P2, Y)
    f12 = model.feedback.value(P, Y2)
    _require_finite("f", f11, P)
    growth_f = L * (1.0 + norm(P) + np.abs(Y)) - np.abs(f11)
    lip_fp = L * dp_pair - np.abs(f11 - f21)
    m_a2l = float(np.min(np.concatenate([growth_f, lip_fp])))
    checks.append(CheckResult("A2_f_p_regularity", m_a2l >= -tol, m_a2l))

    dy_gap = Y - Y2
    incr = dy_gap * (f11 - f12)
    lower = incr - model.ell1 * dy_gap**2
    upper = model.ell2 * dy_gap**2 - incr
    m_mono = float(np.min(np.concatenate([lower, upper])))
    checks.append(CheckResult("A2_monotonicity", m_mono >= -tol, m_mono))

    g1 = model.feedback.dy(P, Y)
    g2 = model.feedback.dy(P2, Y2)
    _require_finite("df/dy", g1, P)
    in_band = np.minimum(g1 - model.ell1, model.ell2 - g1)
    m_band = float(np.min(in_band))
    checks.append(CheckResult("A3_dy_band", m_band >= -tol, m_band))
    hol = L * (dp_pair**model.holder_alpha
               + np.abs(dy_gap)**model.holder_alpha) - np.abs(g1 - g2)
    m_hol = float(np.min(hol))
    checks.append(CheckResult("A3_dy_holder", m_hol >= -tol, m_hol))

    bounded = np.minimum(L - norm(b1), L - s_norm)
    m_a4 = float(np.min(bounded))
    checks.append(CheckResult("A4_boundedness", m_a4 >= -tol, m_a4))

    m_ell = float(np.linalg.eigvalsh(model.sigma @ model.sigma.T)[0] - 1.0 / L)
    elliptic = m_ell >= -tol

    return ValidationReport(checks=tuple(checks), elliptic=elliptic)
