"""Closed-form reference objects for the inviscid limit.

The rarefaction profile ``psi``, the exact characteristics of the first-order
conservation law, the drift-compensator ``w(t, p) = -E[int_t^T f(P_s, 0) ds]``
and the sup-norm gap between a computed value field and the rescaled profile.
The compensator depends on the forward coefficients only, so every caller
builds it from the model it already holds (``WEvaluator(model)``): closed
forms for ``affine_constant`` and ``linear_drift``, and for ``nonlinear_1d``
Gauss-Legendre in time over Gauss-Hermite expectations under the Gaussian
law of P.  In the closed forms ``WEvaluator.noise_energy`` integrates the
compensator's noise |sigma^T dp_w|^2 over the time to go, and the two laws
of that noise follow from it: the bridge-trap probability and the Gaussian
control's atom fractions.  ``_rows_by_p_node`` walks the p-rows of a full
field with ``ebar = e + w(t, p)``, for the gap here and the bound entries of
``value_pde``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .model_core import ModelSpec, _dot_last, effective_ell


def psi(x):
    """Rarefaction profile: identity on [0,1], clamped outside."""
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


@dataclass(frozen=True)
class BurgersProfile:
    ell: float
    cap_lambda: float
    horizon_T: float

    def __post_init__(self):
        if self.ell <= 0:
            raise ValueError("ell must be positive")
        if self.horizon_T <= 0:
            raise ValueError("horizon_T must be positive")


def characteristic(e0, t: float, profile: BurgersProfile):
    """Exact characteristic position at time t started from e0 at time 0.

    Outside the cone the motion is trivial (frozen below the cap, uniform
    speed ell above); inside the cone [cap, cap + ell*T] the fan contracts
    linearly and collapses onto the cap at t = T.
    """
    T, lam, ell = profile.horizon_T, profile.cap_lambda, profile.ell
    if not (0.0 <= t <= T):
        raise ValueError("need 0 <= t <= T")
    e0 = np.asarray(e0, dtype=float)
    width = ell * T
    below = e0 < lam
    above = e0 > lam + width
    inside = ~below & ~above
    out = np.where(below, e0, 0.0)
    out = np.where(above, e0 - ell * t, out)
    out = np.where(inside, e0 - (e0 - lam) * (t / T), out)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the compensator w
# ---------------------------------------------------------------------------

def _growth(lam: float, s):
    """(e^{lam s} - 1) / lam, the linear-drift family's noise growth over a
    time-to-go s (s itself at lam = 0); ``expm1`` keeps it exact to rounding
    where lam s is small."""
    return np.expm1(lam * s) / lam if lam != 0.0 else s


@cache
def _gauss_legendre(n_panels: int):
    """Nodes and weights of the 8-point Gauss-Legendre rule on each of
    ``n_panels`` equal panels of [0, 1]."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(8)
    nodes = (np.arange(n_panels)[:, None] + 0.5 * (x + 1.0)) / n_panels
    return nodes.ravel(), np.tile(0.5 * w / n_panels, n_panels)


def _integral(f, a, b, rate: float):
    """Integral of ``f`` over [a, b], elementwise over arrays a and b, by the
    8-point Gauss-Legendre rule on panels no longer than 1/rate.  For
    integrands like e^{2 rate s}, as in the linear-drift closed forms, each
    panel is then exact to rounding, with no cancellation at small rate."""
    a = np.asarray(a, dtype=float)
    h = np.asarray(b, dtype=float) - a
    nodes, weights = _gauss_legendre(max(1, int(np.ceil(rate * np.max(np.abs(h))))))
    return h * (f(a[..., None] + h[..., None] * nodes) @ weights)


# the evaluation of w per model family whose forward law it knows: closed forms
# where w is affine in p, quadrature of the Gaussian law of P otherwise
_MODES = {"affine_constant": "closed_form_affine",
          "linear_drift": "closed_form_linear_drift",
          "nonlinear_1d": "gaussian_quadrature"}


@cache
def _gauss_hermite():
    """Nodes and weights of the 16-point probabilists' Gauss-Hermite rule,
    scaled so that E g(Z) = g(nodes) @ weights for a standard normal Z and a
    polynomial g of degree below 32.  On the sine profile 8 nodes lose 3e-8
    at sigma = 2, T = 1, which a config can reach; 16 lose 4e-14."""
    from numpy.polynomial.hermite_e import hermegauss
    z, w = hermegauss(16)
    return z, w / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class WEvaluator:
    """Evaluator for w(t, p), its p-gradient and the energy of its noise.

    ``mode`` follows from ``model.family``: ``closed_form_affine`` for
    ``affine_constant``, ``closed_form_linear_drift`` for ``linear_drift``
    (both exact to rounding, the linear-drift integral by ``_integral``) and
    ``gaussian_quadrature`` for ``nonlinear_1d``.  Its forward process is
    Ornstein-Uhlenbeck, so P_u started at p is Gaussian and w is a time
    integral of a Gaussian expectation: ``_integral`` in time and
    ``_gauss_hermite`` in the law.  A model of any other family is refused,
    since its forward law is unknown here.
    """

    model: ModelSpec

    def __post_init__(self):
        if self.model.family not in _MODES:
            raise ValueError("the compensator needs a known forward law, and the "
                             f"{self.model.family} family is none of {', '.join(_MODES)}")

    @property
    def mode(self) -> str:
        return _MODES[self.model.family]

    @property
    def affine_in_p(self) -> bool:
        """Whether w is affine in p, so that dp_w and the compensator's noise
        are free of P: true of the closed forms.  A reduced field is read at
        ebar = e + w(t, p) only then."""
        return self.mode != "gaussian_quadrature"

    # -- closed forms -----------------------------------------------------

    def _affine(self, t, p):
        pr = self.model.family_params
        alpha, b = pr["alpha"], pr["b"]
        s = self.model.horizon_T - np.asarray(t, dtype=float)
        p = np.asarray(p, dtype=float)
        return s * (_dot_last(p, alpha)
                    + 0.5 * s * float(alpha @ b))

    def _linear_drift(self, t, p):
        pr = self.model.family_params
        lam, alpha, b0 = pr["lam"], pr["alpha"], pr["b0"]
        s = self.model.horizon_T - np.asarray(t, dtype=float)
        p0 = np.asarray(p, dtype=float)[..., 0]
        if lam == 0.0:
            return alpha * s * (p0 + 0.5 * b0 * s)
        # the drift's share, int_0^s growth = (growth - s) / lam, would cancel
        # at small lam s
        drifted = _integral(lambda u: _growth(lam, u), 0.0, s, abs(lam))
        return alpha * (p0 * _growth(lam, s) + b0 * drifted)

    def dp_w(self, t) -> np.ndarray:
        """Gradient of w in p, which the closed forms leave free of p."""
        s = self.model.horizon_T - np.asarray(t, dtype=float)
        if self.mode == "closed_form_affine":
            alpha = self.model.family_params["alpha"]
            return np.asarray(s)[..., None] * alpha
        if self.mode == "closed_form_linear_drift":
            pr = self.model.family_params
            return (pr["alpha"] * _growth(pr["lam"], s))[..., None]
        raise ValueError("dp_w needs a closed-form compensator, which the "
                         f"{self.model.family} family lacks")

    def noise_energy(self, a: float, b: float, power: int = 0) -> float:
        """int_a^b |sigma^T dp_w|^2 s^(-power) ds over the time to go s, in the
        closed-form modes (sigma constant, dp_w free of p): the variance of
        the compensator's noise int <sigma^T dp_w, dW> at power 0 (twice the
        reduced diffusion's integral), and at power 2 the clock on which
        int <sigma^T dp_w, dW> / s is a Brownian motion."""
        pr = self.model.family_params
        if self.mode == "closed_form_affine":
            coef = float(pr["sigma"] ** 2 * (pr["alpha"] @ pr["alpha"]))
        elif self.mode == "closed_form_linear_drift":
            lam = pr["lam"]
            coef = (pr["sigma"] * pr["alpha"]) ** 2
            if lam != 0.0:
                # by quadrature: the antiderivatives are differences of
                # O(1/lam^3) terms, which cancel at small lam s
                return coef * float(_integral(
                    lambda s: (_growth(lam, s) / s ** (0.5 * power)) ** 2, a, b, abs(lam)))
        else:
            raise ValueError("the noise energy needs a closed-form compensator, "
                             f"which the {self.model.family} family lacks")
        k = 3 - power
        return coef * (b**k - a**k) / k

    # -- quadrature of the Gaussian law -----------------------------------

    def _mc(self, t, p):
        """w(t, p) = -int_0^s E f(m(u) + sqrt(v(u)) Z, 0) du over the time to go
        s = T - t, with the mean m(u) = p e^{theta u} and the variance
        v(u) = sigma^2 (e^{2 theta u} - 1) / (2 theta) of P_u, theta the drift
        slope; +0.0 where s <= 0.  The name is frozen by the benchmark:
        ``perfbench/tracer.py`` wraps this method by it as ``w_mc``."""
        pr = self.model.family_params
        theta, sig = pr["drift_slope"], pr["sigma"]
        s = self.model.horizon_T - np.asarray(t, dtype=float)
        p0 = np.asarray(p, dtype=float)[..., 0]
        z, weights = _gauss_hermite()
        value = self.model.feedback.value

        def mean_f(u):
            m = p0[..., None] * np.exp(theta * u)
            sd = sig * np.sqrt(_growth(2.0 * theta, u))
            return value((m[..., None] + sd[..., None] * z)[..., None], 0.0) @ weights
        return np.where(s > 0, -_integral(mean_f, 0.0, np.maximum(s, 0.0), abs(theta)), 0.0)

    # -- public interface --------------------------------------------------

    def evaluate(self, t, p):
        """w(t, p), vectorized over t and p."""
        if self.mode == "closed_form_affine":
            return self._affine(t, p)
        if self.mode == "closed_form_linear_drift":
            return self._linear_drift(t, p)
        return self._mc(t, p)


# P(sup_[0, x] |W| < 1) for a standard Brownian motion W: by images (erfc terms,
# fast at small x) below _STRIP_SWITCH and by eigenfunctions (fast at large x)
# above it; at the switch both reach rounding within _STRIP_TERMS terms
_STRIP_SWITCH = 1.0
_STRIP_TERMS = 8


def _strip_images(x: float) -> float:
    z = 1.0 / math.sqrt(2.0 * x)
    return 1.0 - 2.0 * sum((-1) ** k * math.erfc((2 * k + 1) * z)
                           for k in range(_STRIP_TERMS))


def _strip_modes(x: float) -> float:
    return 4.0 / math.pi * sum((-1) ** k / (2 * k + 1)
                               * math.exp(-(2 * k + 1) ** 2 * math.pi ** 2 * x / 8.0)
                               for k in range(_STRIP_TERMS))


def trap_probability(model: ModelSpec) -> float:
    """Exact P(F) of the bridge-trap event F = {sup_{t <= T} |M_t| < ell1/16},
    M_t = int_0^t <sigma^T dp_w, dW> / (T - s): with a = ell1/16,
    P(sup_[0, tau/a^2] |W| < 1) on the clock tau = noise_energy(0, T, 2)
    (the strip series of Borodin and Salminen, *Handbook of Brownian
    Motion*), and 1 exactly at tau = 0."""
    a = model.ell1 / 16.0
    x = WEvaluator(model).noise_energy(0.0, model.horizon_T, 2) / a**2
    if x == 0.0:
        return 1.0
    return _strip_images(x) if x < _STRIP_SWITCH else _strip_modes(x)


def gaussian_control_fractions(model: ModelSpec, deltas) -> np.ndarray:
    """P(|Z - cap| <= delta) for each delta, Z = cap + int_0^T <sigma^T dp_w, dW>,
    the compensator's noise with no feedback: Z - cap is N(0, V) with
    V = noise_energy(0, T), so erf(delta / sqrt(2 V)), and 1 exactly at V = 0.
    Its atom curve decays linearly in delta, the contrast to a genuine atom."""
    deltas = np.asarray(deltas, dtype=float)
    var = WEvaluator(model).noise_energy(0.0, model.horizon_T)
    if var == 0.0:
        return np.ones_like(deltas)
    return np.array([math.erf(d / math.sqrt(2.0 * var)) for d in deltas])


# ---------------------------------------------------------------------------
# gap against the rescaled profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapTable:
    t: np.ndarray
    sup_gap: np.ndarray
    beta_hat: float
    horizon: float

    def rows(self):
        """(t, sup_gap, fitted beta so far) rows for CSV export."""
        out = []
        for k in range(len(self.t)):
            if k >= 1:
                x = np.log(self.horizon - self.t[: k + 1])
                y = np.log(np.maximum(1e-300, self.sup_gap[: k + 1]))
                beta = float(np.polyfit(x, y, 1)[0])
            else:
                beta = float("nan")
            out.append((float(self.t[k]), float(self.sup_gap[k]), beta))
        return out


# artificial-boundary layers left out of full-field diagnostics: e-nodes at
# each e-edge (the Dirichlet layer), and the fraction of each p-axis at each
# p-edge that the gap leaves out
_BOUNDARY_SKIP = 2
_P_BOUNDARY_FRAC = 0.2


def _rows_by_p_node(field, sl: np.ndarray, model: ModelSpec, t, p_frac: float):
    """(p, ebar, row) for each p-node of a full field's stored slice ``sl``,
    leaving out the outer ``p_frac`` of each p-axis: ebar = e + w(t, p) on the
    e-nodes and the row of ``sl`` there, both without the ``_BOUNDARY_SKIP``
    nodes at each e-edge."""
    we = WEvaluator(model)
    g = field.grid
    cuts = [slice(int(p_frac * len(nodes)), len(nodes) - int(p_frac * len(nodes)))
            for nodes in g.p_nodes]
    mesh = np.meshgrid(*(nodes[c] for nodes, c in zip(g.p_nodes, cuts)), indexing="ij")
    p_pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    inner = slice(_BOUNDARY_SKIP, len(g.e_nodes) - _BOUNDARY_SKIP)
    for pp, row in zip(p_pts, sl[tuple(cuts)].reshape(len(p_pts), -1)):
        yield pp, g.e_nodes[inner] + float(we.evaluate(t, pp)), row[inner]


def burgers_gap(field, model: ModelSpec, t_list) -> GapTable:
    """Per-time sup distance between the field and the rescaled profile.

    At each requested time the gap is the sup over grid nodes of
    ``|v(t,p,e) - psi((ebar - cap)/(ell (T-t)))`` with ``ebar = e + w(t,p)``
    and the effective slope computed from the field's own value at the node
    (constant gamma for the affine families).  Nodes within ``_BOUNDARY_SKIP``
    cells of the e-boundary are excluded, as is the outer ``_P_BOUNDARY_FRAC``
    of each p-axis (both are artificial-boundary layers, not part of the
    whole-space statement being measured).  ``beta_hat`` is the slope of
    log gap against log(T - t).
    """
    T = model.horizon_T
    lam = model.cap_lambda
    affine = model.family in ("affine_constant", "linear_drift")
    gamma = model.family_params.get("gamma")
    e = field.grid.e_nodes
    sl = slice(_BOUNDARY_SKIP, len(e) - _BOUNDARY_SKIP)
    gaps = []
    for t in t_list:
        s = T - float(t)
        if s <= 0:
            raise ValueError("t_list must lie strictly before the horizon")
        if field.grid.dim == 0:
            v = field.values_at(t)[sl]
            ell = gamma if affine else effective_ell(model, np.zeros(model.dim_p), v)
            gaps.append(float(np.max(np.abs(v - psi((e[sl] - lam) / (ell * s))))))
            continue
        worst = 0.0
        for pp, ebar, v in _rows_by_p_node(field, field.values_at(t), model, t,
                                            _P_BOUNDARY_FRAC):
            ell = gamma if affine else effective_ell(model, pp, v)
            worst = max(worst, float(np.max(np.abs(v - psi((ebar - lam) / (ell * s))))))
        gaps.append(worst)
    t_arr = np.asarray(list(t_list), dtype=float)
    g_arr = np.asarray(gaps)
    x = np.log(T - t_arr)
    y = np.log(np.maximum(g_arr, 1e-300))
    beta_hat = float(np.polyfit(x, y, 1)[0]) if len(t_arr) >= 2 else float("nan")
    return GapTable(t=t_arr, sup_gap=g_arr, beta_hat=beta_hat, horizon=T)
