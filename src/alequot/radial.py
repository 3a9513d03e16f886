"""Radial Monge-Ampere solver for cohomogeneity-one Ricci-flat metrics.

For a rotation invariant Kahler potential f(s), s = r^2, on the cone (or on
the total space of O(-r) away from the zero section), the Monge-Ampere
density relative to the flat model f = s is

    density(f) = (f')^{n-1} (f' + s f'') ,

and the Ricci-flat family with Kahler class parameter C > 0 is the Calabi
profile f'(s) = (1 + C s^{-n})^{1/n}.  The prescribed-density equation
density(f) = e^{g(s)} has the first integral

    s^n (f')^n = C + n * int_0^s  tau^{n-1} e^{g(tau)} dtau,

which reduces the whole problem to one quadrature; that route is the oracle
against which the Newton continuity path is tested, and the two never share
code paths.

The continuity path solves density(f_bg + u_t) = e^{t f0} density(f_bg) for
t stepping from 0 to 1, with a compactly supported bump f0 and the Calabi
background f_bg.  The discrete unknown is the nodal correction u on a
logarithmic grid x = log s; the solver works at the level of f' inside the
residual (the background enters only through closed forms, so u = 0 solves
t = 0 exactly, and no additive gauge pollutes the Newton system).  The
residual is kept in the scaled form

    G = s (f'_bg)^{1-n} + u_xx - s e^{t f0} P^{1-n},   P = f'_bg + u_x / s,

whose principal part is exactly d^2/dx^2; this avoids the catastrophic
cancellation that the raw density expression suffers where f' ~ 1/s.
Interior stencils are fourth order (second order only at the two nodes
adjacent to the boundary rows, where the correction is locally constant),
Newton steps are damped by residual backtracking, and step-length control
picks the steps in t; each attempt warm starts from the last accepted u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded


class KahlerConeError(ValueError):
    """A profile left the Kahler cone: non-positive Monge-Ampere density."""


class SolverFailure(RuntimeError):
    """Newton continuity path failed; carries the residual trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DecayFitError(ValueError):
    """Tail fit is unreliable (window too short or signal below noise)."""


class _Rejected(ValueError):
    """A PathConfig or RadialGrid value out of range; `fields` names the fields the check read."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def _closed_form(form, name: str, *fields: str):
    """form(): a closed form a run depends on, evaluated where it is largest with floating-point
    overflow, division by zero and invalid operations raised; one rejects the fields it reads."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return form()
    except (FloatingPointError, OverflowError):  # OverflowError: an integer n too large for a float
        raise _Rejected(f"{name} overflows a float", *fields) from None


@dataclass(frozen=True)
class RadialGrid:
    """Logarithmic grid in s = r^2 with m nodes on [s_min, s_max]."""

    s_min: float
    s_max: float
    m: int

    def __post_init__(self):
        if not (0 < self.s_min < self.s_max):
            raise _Rejected(f"need 0 < s_min < s_max, got [{self.s_min}, {self.s_max}]", "s_min", "s_max")
        if self.m < 16:
            raise _Rejected(f"need at least 16 nodes, got {self.m}", "m")
        try:
            self.s  # builds x too: a node count too large to hold is a rejected value
        except MemoryError:
            raise _Rejected(f"cannot allocate a grid of {self.m} nodes", "m") from None

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(math.log(self.s_min), math.log(self.s_max), self.m)

    @cached_property
    def s(self) -> np.ndarray:
        return np.exp(self.x)

    @property
    def h(self) -> float:
        return (math.log(self.s_max) - math.log(self.s_min)) / (self.m - 1)

    @cached_property
    def bands(self) -> tuple[np.ndarray, ...]:
        """(d1, d2, boundary, full, rows), read-only and built once per grid.  d1, d2: d/dx and
        d2/dx2, fourth order inside, second order in rows 1 and m - 2 (the correction is locally
        constant there), 0 in the boundary rows; boundary: the Neumann and Dirichlet rows; full:
        fourth-order d/dx at every node (4 lower bands); rows: the row of each (2, 4) band cell."""
        m = self.m
        near, inner, last = range(1, m - 1, m - 3), range(2, m - 2), range(m - 1, m)  # near: rows 1, m - 2
        d1, d2 = (_stencil_band(self, {f"{d}_o2": near, d: inner}) for d in ("d1", "d2"))
        boundary = _stencil_band(self, {"d1_first": range(1), "value": last})
        full = _stencil_band(self, {"d1_first": range(1), "d1_second": range(1, 2), "d1": inner,
                                    "d1_penultimate": range(m - 2, m - 1), "d1_last": last}, lower=4)
        rows = np.arange(-_UPPER, _LOWER + 1)[:, None] + np.arange(m)  # cell (r, j) lies in row j + r - _UPPER
        bands = (d1, d2, boundary, full, rows.clip(0, m - 1))
        for band in bands:
            band.flags.writeable = False
        return bands


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Nodal values of a radial quantity (a potential, f', a correction, a density)."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.m,):
            raise ValueError(f"expected {self.grid.m} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile contains non-finite values")


@dataclass(frozen=True)
class PathConfig:
    """Parameters of one continuity-path run.

    The volume perturbation is f0(s) = c (1 - ((s - s0)/w)^2)^3 on
    |s - s0| <= w and zero outside; C^2 regularity at the seams is enough
    for the discretization orders used here.  No field sets a Newton
    tolerance or the steps in t: newton_continuity_solve picks both.
    """

    n: int
    calabi_c: float
    s0: float
    w: float
    c: float
    r_order: int = 1
    bump_integral: float = field(init=False, repr=False, compare=False)  # K(s0 + w), see _density_integral

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise _Rejected(f"complex dimension must be an integer >= 2, got {self.n!r}", "n")
        if not self.calabi_c > 0:
            raise _Rejected(f"Calabi parameter must be positive, got {self.calabi_c}", "calabi_c")
        if not self.w > 0:
            raise _Rejected(f"bump half-width must be positive, got {self.w}", "w")
        if not isinstance(self.r_order, int) or self.r_order < 1:
            raise _Rejected(f"group order must be an integer >= 1, got {self.r_order!r}", "r_order")
        _closed_form(lambda: np.exp(self.c), f"e^c = e^{self.c}", "c")  # the peak of e^{f0}
        tail = f"C + n K(s0 + w) at n = {self.n}, C = {self.calabi_c}, s0 = {self.s0}, w = {self.w}, c = {self.c}"
        k = _closed_form(lambda: _density_integral(self, self.s0 + self.w), tail, "n", "s0", "w", "c")
        _closed_form(lambda: self.calabi_c + self.n * k, tail, "n", "calabi_c", "s0", "w", "c")
        object.__setattr__(self, "bump_integral", float(k))

    def validate_against(self, grid: RadialGrid) -> None:
        if not (self.s0 - self.w > grid.s_min and self.s0 + self.w < grid.s_max):
            raise _Rejected(f"bump support [{self.s0 - self.w}, {self.s0 + self.w}] must be interior to "
                            f"[{grid.s_min}, {grid.s_max}]", "s0", "w", "s_min", "s_max")
        # calabi_profile's background C s^-n, at the first node
        _closed_form(lambda: self.calabi_c * grid.s[:1] ** (-float(self.n)),
                     f"C s_min^-n = {self.calabi_c} * {grid.s_min}^-{self.n}", "n", "calabi_c", "s_min")
        # mass_integral's link volume, for every n; last, so each check above keeps its message
        _closed_form(lambda: link_volume(self.n, self.r_order),
                     f"link volume 2 pi^n / ((n - 1)! r) at n = {self.n}", "n", "r_order")


def bump_values(config: PathConfig, s) -> np.ndarray:
    """The compactly supported density perturbation f0 at the points s."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s - config.s0) < config.w  # outside, (s - s0)/w overflows when w is tiny
    out[inside] = config.c * (1.0 - ((s[inside] - config.s0) / config.w) ** 2) ** 3
    return out


def calabi_profile(n: int, calabi_c: float, grid: RadialGrid) -> RadialProfile:
    """f' of the Ricci-flat profile with class parameter C >= 0 (C = 0 is flat)."""
    if n < 2:
        raise ValueError("complex dimension must be >= 2")
    if calabi_c < 0:
        raise ValueError("Calabi parameter must be >= 0")
    vals = (1.0 + calabi_c * grid.s ** (-float(n))) ** (1.0 / n)
    return RadialProfile(grid=grid, values=vals)


# The oracle's quadrature rule: _PANELS Gauss-Legendre panels of _ORDER nodes
# on the bump support.  Panel edges lie on the support seams, so the integrand
# is smooth on every panel and the rule converges to machine accuracy.
_PANELS = 64
_ORDER = 12
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)


def _density_integral(config: PathConfig, s) -> np.ndarray:
    """K(s) = int_{s0-w}^{min(s, s0+w)} tau^{n-1} (e^{f0(tau)} - 1) dtau at the
    points s: 0 at or below the support, the total at or above it."""
    s = np.asarray(s, dtype=float)
    lo, hi = config.s0 - config.w, config.s0 + config.w

    def panel_sums(a, b):  # the Gauss rule on each panel [a_i, b_i]
        half = 0.5 * (b - a)
        tau = half[:, None] * _GAUSS_NODES + (0.5 * (a + b))[:, None]
        return half * ((tau ** (config.n - 1) * np.expm1(bump_values(config, tau))) @ _GAUSS_WEIGHTS)

    edges = np.linspace(lo, hi, _PANELS + 1)
    prefix = np.concatenate([[0.0], np.cumsum(panel_sums(edges[:-1], edges[1:]))])
    out = np.where(s <= lo, 0.0, prefix[-1])
    inside = (s > lo) & (s < hi)
    j = np.searchsorted(edges, s[inside], side="right") - 1
    out[inside] = prefix[j] + panel_sums(edges[j], s[inside])
    return out


def quadrature_oracle(config: PathConfig, grid: RadialGrid) -> RadialProfile:
    """Ground-truth f' from the first integral, exact up to quadrature error.

    s^n (f')^n = C + n * int_0^s tau^{n-1} e^{f0} dtau; splitting off the
    flat part of the integrand leaves the bump-supported K(s) of
    _density_integral, evaluated at all nodes in one array pass.  Where
    e^{f0} << 1 on the support, C + nK nearly cancels -s^n and f' loses
    relative accuracy: two summation orders of the rule differ by 66 ulp at
    c in [-8, -1], and by ~1e3 ulp at c ~ -50 with C <= 1e-12.
    """
    config.validate_against(grid)
    n = config.n
    running = config.calabi_c + n * _density_integral(config, grid.s)
    radicand = 1.0 + running * grid.s ** (-float(n))
    if np.any(radicand <= 0):
        i = int(np.where(radicand <= 0)[0][0])
        raise KahlerConeError(
            f"first integral leaves the Kahler cone at node {i} (s = {grid.s[i]:.6g})"
        )
    return RadialProfile(grid=grid, values=radicand ** (1.0 / n))


@dataclass
class TStep:  # one Newton attempt at a fixed t
    t: float
    residuals: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)


@dataclass
class PathTrace:
    """Every attempt of a continuity path in order, rejected ones included: an
    attempt was rejected exactly when the next attempt's t is not larger."""

    steps: list[TStep] = field(default_factory=list)

    @property
    def newton_iterations(self) -> int:
        return sum(len(st.step_sizes) for st in self.steps)


# Finite-difference stencils on the uniform grid in x: name -> (column of the
# first weight relative to the row, integer weights, denominator, derivative
# order); the coefficients are weights / (denominator * h^order).  d1 and d2
# are fourth-order centred, *_o2 second-order centred, d1_first to d1_last
# the fourth-order one-sided and skewed rows of the two ends, and value the
# identity row of the Dirichlet condition.
_STENCILS = {
    "d1": (-2, (1, -8, 0, 8, -1), 12, 1),
    "d2": (-2, (-1, 16, -30, 16, -1), 12, 2),
    "d1_o2": (-1, (-1, 0, 1), 2, 1),
    "d2_o2": (-1, (1, -2, 1), 1, 2),
    "d1_first": (0, (-25, 48, -36, 16, -3), 12, 1),
    "d1_second": (-1, (-3, -10, 18, -6, 1), 12, 1),
    "d1_penultimate": (-3, (-1, 6, -18, 10, 3), 12, 1),
    "d1_last": (-4, (3, -16, 36, -48, 25), 12, 1),
    "value": (0, (1,), 1, 0),
}


# LAPACK band storage, band[_UPPER + i - j, j] = A[i, j].  The rows of the
# Newton Jacobian reach _LOWER columns left and _UPPER right; d1_last reaches 4 left.
_LOWER, _UPPER = 2, 4
_MIN_DT = 2.0**-10  # the smallest step in t the continuity path tries before it gives up


def _stencil_band(grid: RadialGrid, layout, lower: int = _LOWER) -> np.ndarray:
    """Band storage of the operator whose rows apply the named stencils of
    `layout` (name -> row range); other rows and cells outside the matrix are 0."""
    band = np.zeros((lower + _UPPER + 1, grid.m))
    for name, rows in layout.items():
        first, weights, denominator, order = _STENCILS[name]
        # multiplied left to right: (12 h) h does not round like 12 (h h)
        coeffs = np.array(weights, dtype=float) / math.prod([denominator] + [grid.h] * order)
        for k, coeff in enumerate(coeffs):  # weight k sits in column i + first + k
            band[_UPPER - first - k, rows.start + first + k:rows.stop + first + k:rows.step] = coeff
    return band


def _band_apply(band: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Band operator times u, each row summed from 0.0 in increasing column order."""
    m = u.size
    out = np.zeros(m)
    for d in range(_UPPER + 1 - band.shape[0], _UPPER + 1):  # column j = i + d
        lo, hi = max(0, -d), min(m, m - d)
        out[lo:hi] += band[_UPPER - d, lo + d:hi + d] * u[lo + d:hi + d]
    return out


def _jacobian(grid: RadialGrid):
    """The map c -> band storage of d2 + diag(c) d1 + boundary.  d2 + boundary is summed
    once (exact, their nonzero rows are disjoint); c is gathered by the grid's row index."""
    d1, d2, boundary, _, rows = grid.bands
    constant = d2 + boundary
    return lambda c: constant + c[rows] * d1


def newton_continuity_solve(config: PathConfig, grid: RadialGrid):
    """Damped Newton along the continuity path; returns (u, trace).

    Boundary conditions: u'(s_min) = 0 pins the Kahler class (the first
    integral constant cannot change through the inner boundary) and
    u(s_max) = 0 is the far-field normalization.  Every accepted Newton step
    strictly decreases the residual and keeps f' and the discrete density
    positive.

    Step-length control picks the steps in t: an attempt runs Newton at t =
    min(1, last accepted t + dt) from the last accepted u, first with dt = 1 and
    u = 0.  It stalls when backtracking is exhausted or after 60 iterations; dt
    halves after a stall and doubles after a success, and below _MIN_DT the
    last stall raises SolverFailure with every attempt's trace.

    An attempt ends once the max-norm residual drops below max(1e-11, floor)
    (the only stopping rule), where floor =
    4 eps max(s (f'_bg)^{1-n} + |s e^{t f0} P^{1-n}| + (64/12) max|u| / h^2)
    bounds the round-off in evaluating G at the current iterate (64/12 sums
    the absolute d2 weights).  No Newton step can push G below it.  G is
    evaluated once per iterate; the accepted line-search trial's values carry over.

    Each step is one LAPACK band LU solve (gbsv via solve_banded) with the
    (2, 4)-band Jacobian; a singular or non-finite one raises SolverFailure at once.
    """
    config.validate_against(grid)
    n = config.n
    s = grid.s
    d1, d2, boundary, _, _ = grid.bands
    neumann = boundary[_UPPER - np.arange(5), np.arange(5)]  # row 0, the d1_first weights
    jacobian = _jacobian(grid)
    qb = calabi_profile(n, config.calabi_c, grid).values
    swb = s * qb ** (1 - n)  # s * (f'_bg + s f''_bg) via the exact density identity
    f0 = bump_values(config, s)  # e^{t f0} <= e^c, which PathConfig checked is finite

    def residual(u, rhs):
        ux = _band_apply(d1, u)
        uxx = _band_apply(d2, u)
        p = qb + ux / s
        if np.any(p <= 0):
            return None, None, None, None
        w = swb / s + uxx / s  # f' + s f'' of the full profile
        nonlinear = s * rhs * p ** (1 - n)
        g = swb + uxx - nonlinear
        g[0] = neumann @ u[:5]
        g[-1] = u[-1]
        return g, p, w, nonlinear

    def attempt(t, u, step):
        """Newton at fixed t from u: (converged u, None), or (None, why it stalled)."""
        rhs = np.exp(t * f0)
        # P = f'_bg + u_x / s depends on u alone, and u is 0 (P = f'_bg > 0) or an
        # iterate the line search accepted (P > 0), so g is never None here
        g, p, _, nonlinear = residual(u, rhs)
        for _ in range(60):
            res = float(np.max(np.abs(g)))
            step.residuals.append(res)
            terms = swb + np.abs(nonlinear) + (64 / 12) * np.max(np.abs(u)) / grid.h**2
            floor = 4 * np.finfo(float).eps * float(np.max(terms))
            if res < max(1e-11, floor):
                return u, None
            try:
                delta = solve_banded((_LOWER, _UPPER), jacobian((n - 1) * rhs * p ** (-float(n))), -g)
            except ValueError as exc:  # a singular (LinAlgError) or non-finite Jacobian
                raise SolverFailure(f"Newton step failed at t = {t}: {exc}", trace) from exc
            alpha = 1.0
            for _ in range(31):  # up to 30 halvings
                u_new = u + alpha * delta
                g_new, p_new, w_new, nonlinear_new = residual(u_new, rhs)
                if g_new is not None and float(np.max(np.abs(g_new))) < res and np.all(w_new[1:-1] > 0):
                    break
                alpha *= 0.5
            else:  # "not > 0" rather than "<= 0" below: a NaN density must name its node too
                if g_new is None:
                    return None, "f' non-positive under every damping"
                if not np.all(w_new[1:-1] > 0):
                    node = int(np.flatnonzero(~(w_new[1:-1] > 0))[0]) + 1
                    return None, f"density not positive at node {node} (s = {s[node]:.6g})"
                return None, f"damping exhausted at residual {res:.3g}, round-off floor {floor:.3g}"
            step.step_sizes.append(alpha)
            u, g, p, nonlinear = u_new, g_new, p_new, nonlinear_new
        return None, "did not converge in 60 iterations"

    u, trace = np.zeros(grid.m), PathTrace()
    done, dt = 0.0, 1.0  # t of the last accepted u, and the next step length
    while done < 1.0:
        t = min(1.0, done + dt)
        trace.steps.append(step := TStep(t=t))
        u_t, stall = attempt(t, u, step)
        if stall is None:
            u, done, dt = u_t, t, 2 * dt
        elif (dt := dt / 2) < _MIN_DT:
            raise SolverFailure(f"Newton stalled at t = {t}: {stall}", trace)
    return RadialProfile(grid=grid, values=u), trace


def total_fprime(u: RadialProfile, config: PathConfig) -> RadialProfile:
    """f' of the solved metric: background plus the differentiated correction."""
    qb = calabi_profile(config.n, config.calabi_c, u.grid).values
    return RadialProfile(grid=u.grid, values=qb + _band_apply(u.grid.bands[3], u.values) / u.grid.s)


def oracle_deviation(fprime: RadialProfile, config: PathConfig) -> float:
    """Relative max-norm distance between the solved f' (total_fprime) and the quadrature oracle."""
    q_oracle = quadrature_oracle(config, fprime.grid).values
    return float(np.max(np.abs(fprime.values - q_oracle)) / np.max(np.abs(q_oracle)))


@dataclass(frozen=True)
class DecayFit:
    """Log-log tail fit of the potential term: f(s) - s - const ~ coeff * s^exponent."""

    exponent: float
    coefficient: float
    fit_window: tuple[float, float]
    residual: float
    npoints: int

    @property
    def exponent_in_r(self) -> float:
        """Power of r = sqrt(s) carried by the fitted potential term."""
        return 2.0 * self.exponent


# Bounds of the tail-fit window (see decay_fit).
FIT_AMP_HI = 1e-3
FIT_AMP_LO = 1e-10
FIT_SUPPORT_MARGIN = 3.0
FIT_EDGE_FRACTION = 0.25


def decay_fit(fprime: RadialProfile, config: PathConfig, *, correction_only: bool = False) -> DecayFit:
    """Fit the far-field power of the solved potential from its f' (total_fprime).

    Writing f(s) = s + const + B s^p + ... , the derivative tail is
    f' - 1 = B p s^{p-1}, so a straight least-squares line through
    (log s, log|f' - 1|) yields p and B with the additive constant
    eliminated by the differentiation.  With `correction_only` the fit
    target is f' - f'_bg, the tail of the correction u alone.

    The window keeps clear of the bump support (s > FIT_SUPPORT_MARGIN
    (s0 + w) when c != 0), of the outer boundary (s < FIT_EDGE_FRACTION
    s_max), of amplitudes where the next tail order contaminates the model
    (> FIT_AMP_HI) and of amplitudes below the noise floor (< FIT_AMP_LO).
    """
    grid = fprime.grid
    s = grid.s
    reference = calabi_profile(config.n, config.calabi_c, grid).values if correction_only else 1.0
    target = fprime.values - reference
    lo_s = FIT_SUPPORT_MARGIN * (config.s0 + config.w) if config.c != 0 else 0.0
    hi_s = grid.s_max * FIT_EDGE_FRACTION
    mask = (s > lo_s) & (s < hi_s) & (np.abs(target) < FIT_AMP_HI) & (np.abs(target) > FIT_AMP_LO)
    idx = np.where(mask)[0]
    if idx.size < 16:
        raise DecayFitError(f"only {idx.size} usable points in the fit window")
    sign = math.copysign(1.0, target[idx[0]])
    idx = idx[np.sign(target[idx]) == sign]
    if idx.size < 16 or s[idx[-1]] / s[idx[0]] < 4.0:
        raise DecayFitError("fit window too short after sign filtering")
    ls = np.log(s[idx])
    ld = np.log(np.abs(target[idx]))
    slope, intercept = np.polyfit(ls, ld, 1)
    rms = float(np.sqrt(np.mean((slope * ls + intercept - ld) ** 2)))
    p = slope + 1.0
    if abs(p) < 0.25:
        raise DecayFitError(f"fitted derivative slope {slope} leaves no usable potential power")
    coeff = sign * math.exp(intercept) / p
    return DecayFit(
        exponent=float(p),
        coefficient=float(coeff),
        fit_window=(float(s[idx[0]]), float(s[idx[-1]])),
        residual=rms,
        npoints=int(idx.size),
    )


def link_volume(n: int, r_order: int) -> float:
    """Volume of S^{2n-1}/Gamma for |Gamma| = r: 2 pi^n / ((n-1)! r)."""
    return 2.0 * math.pi ** n / (math.factorial(n - 1) * r_order)


@dataclass(frozen=True)
class MassReport:
    """Mass coefficient bookkeeping: quadrature value of the normalization
    integral against the fitted tail coefficient of the correction."""

    radial_integral: float        # int_0^inf r^{2n-1} (1 - e^{f0}) dr
    link_vol: float
    volume_integral: float        # int (1 - e^{f0}) dV over the background
    formula_a: float              # volume_integral / ((n-2) link_vol)
    fitted_coefficient: float
    ratio: float | None


def mass_integral(config: PathConfig, fprime: RadialProfile) -> MassReport:
    """Evaluate the mass normalization integral and compare it with the tail
    of the solved correction, read from f' = total_fprime(u, config).

    Only meaningful for n >= 3 (the normalization carries an n - 2 factor).
    The radial integral is -config.bump_integral/2 (s = r^2).
    The fitted coefficient is the decay_fit of f' - f'_bg (correction_only);
    with no bump (c = 0) it is 0 and f' is not read.  The reported ratio
    fitted/formula is the reproducible quantity; its value absorbs
    convention factors that a purely radial model cannot pin down, so
    constancy across bump amplitudes is what callers should test.  Raises
    DecayFitError when the tail of u leaves no usable fit window.
    """
    if config.n < 3:
        raise ValueError("mass normalization degenerates at n = 2; need n >= 3")
    radial = -0.5 * config.bump_integral
    vol = link_volume(config.n, config.r_order)
    formula_a = radial / (config.n - 2)
    if config.c == 0:
        fitted, ratio = 0.0, None
    else:
        fitted = decay_fit(fprime, config, correction_only=True).coefficient
        ratio = fitted / formula_a if formula_a != 0 else None
    return MassReport(
        radial_integral=radial,
        link_vol=vol,
        volume_integral=vol * radial,
        formula_a=formula_a,
        fitted_coefficient=fitted,
        ratio=ratio,
    )
