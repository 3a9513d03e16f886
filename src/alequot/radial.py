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
Newton steps are damped by residual backtracking, and each t-step warm
starts from the previous one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class KahlerConeError(ValueError):
    """A profile left the Kahler cone: non-positive Monge-Ampere density."""


class SolverFailure(RuntimeError):
    """Newton continuity path failed; carries the residual trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DecayFitError(ValueError):
    """Tail fit is unreliable (window too short or signal below noise)."""


@dataclass(frozen=True)
class RadialGrid:
    """Logarithmic grid in s = r^2 with m nodes on [s_min, s_max]."""

    s_min: float
    s_max: float
    m: int

    def __post_init__(self):
        if not (0 < self.s_min < self.s_max):
            raise ValueError(f"need 0 < s_min < s_max, got [{self.s_min}, {self.s_max}]")
        if self.m < 16:
            raise ValueError(f"need at least 16 nodes, got {self.m}")

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(math.log(self.s_min), math.log(self.s_max), self.m)

    @cached_property
    def s(self) -> np.ndarray:
        return np.exp(self.x)

    @property
    def h(self) -> float:
        return (math.log(self.s_max) - math.log(self.s_min)) / (self.m - 1)


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
    for the discretization orders used here.
    """

    n: int
    calabi_c: float
    s0: float
    w: float
    c: float
    r_order: int = 1
    t_steps: int = 10
    newton_tol: float | None = None  # None: stop at the round-off floor

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"complex dimension must be an integer >= 2, got {self.n!r}")
        if not self.calabi_c > 0:
            raise ValueError(f"Calabi parameter must be positive, got {self.calabi_c}")
        if not self.w > 0:
            raise ValueError(f"bump half-width must be positive, got {self.w}")
        if not isinstance(self.r_order, int) or self.r_order < 1:
            raise ValueError(f"group order must be an integer >= 1, got {self.r_order!r}")
        if self.t_steps < 1:
            raise ValueError("need at least one continuity step")
        if self.newton_tol is not None and not self.newton_tol > 0:
            raise ValueError("Newton tolerance must be positive")

    def validate_against(self, grid: RadialGrid) -> None:
        if not (self.s0 - self.w > grid.s_min and self.s0 + self.w < grid.s_max):
            raise ValueError(
                f"bump support [{self.s0 - self.w}, {self.s0 + self.w}] must be interior to "
                f"[{grid.s_min}, {grid.s_max}]"
            )


def bump_values(config: PathConfig, s) -> np.ndarray:
    """The compactly supported density perturbation f0 at the points s."""
    s = np.asarray(s, dtype=float)
    z = (s - config.s0) / config.w
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    out[inside] = config.c * (1.0 - z[inside] ** 2) ** 3
    return out


def calabi_profile(n: int, calabi_c: float, grid: RadialGrid) -> RadialProfile:
    """f' of the Ricci-flat profile with class parameter C >= 0 (C = 0 is flat)."""
    if n < 2:
        raise ValueError("complex dimension must be >= 2")
    if calabi_c < 0:
        raise ValueError("Calabi parameter must be >= 0")
    vals = (1.0 + calabi_c * grid.s ** (-float(n))) ** (1.0 / n)
    return RadialProfile(grid=grid, values=vals)


class _BumpIntegral:
    """Cumulative quadrature K(s) = int_{s0-w}^{min(s, s0+w)} g(tau) dtau for a
    smooth integrand g supported on the bump, via PANELS fixed Gauss-Legendre
    panels of ORDER nodes each.

    Panel edges line up with the support seams, so the integrand is smooth on
    every panel and the rule converges to machine accuracy.
    """

    PANELS = 64
    ORDER = 12

    def __init__(self, integrand, lo: float, hi: float):
        self.integrand = integrand
        self.lo, self.hi = lo, hi
        self.edges = np.linspace(lo, hi, self.PANELS + 1)
        self._nodes, self._weights = np.polynomial.legendre.leggauss(self.ORDER)
        partial = np.empty(self.PANELS)
        for j in range(self.PANELS):
            a, b = self.edges[j], self.edges[j + 1]
            pts = 0.5 * (b - a) * self._nodes + 0.5 * (a + b)
            partial[j] = 0.5 * (b - a) * np.dot(self._weights, integrand(pts))
        self.prefix = np.concatenate([[0.0], np.cumsum(partial)])

    @property
    def total(self) -> float:
        return float(self.prefix[-1])

    def _scalar(self, s: float) -> float:
        if s <= self.lo:
            return 0.0
        if s >= self.hi:
            return self.total
        j = int(np.searchsorted(self.edges, s, side="right")) - 1
        a = self.edges[j]
        pts = 0.5 * (s - a) * self._nodes + 0.5 * (a + s)
        return float(self.prefix[j] + 0.5 * (s - a) * np.dot(self._weights, self.integrand(pts)))

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return np.array([self._scalar(float(v)) for v in s])


def _density_integral(config: PathConfig) -> _BumpIntegral:
    """K(s) for the integrand tau^{n-1} (e^{f0(tau)} - 1) of the first integral."""
    n = config.n

    def integrand(tau):
        return tau ** (n - 1) * np.expm1(bump_values(config, tau))

    return _BumpIntegral(integrand, config.s0 - config.w, config.s0 + config.w)


def quadrature_oracle(config: PathConfig, grid: RadialGrid) -> RadialProfile:
    """Ground-truth f' from the first integral, exact up to quadrature error.

    s^n (f')^n = C + n * int_0^s tau^{n-1} e^{f0} dtau; splitting off the
    flat part of the integrand leaves a bump-supported quadrature done with
    Gauss panels, so the profile is accurate to near machine precision.
    """
    config.validate_against(grid)
    n = config.n
    cum = _density_integral(config)
    running = config.calabi_c + n * cum(grid.s)
    radicand = 1.0 + running * grid.s ** (-float(n))
    if np.any(radicand <= 0):
        i = int(np.where(radicand <= 0)[0][0])
        raise KahlerConeError(
            f"first integral leaves the Kahler cone at node {i} (s = {grid.s[i]:.6g})"
        )
    return RadialProfile(grid=grid, values=radicand ** (1.0 / n))


def oracle_effective_constant(config: PathConfig) -> float:
    """Tail constant of s^n((f')^n - 1): the class parameter shifted by the bump."""
    return config.calabi_c + config.n * _density_integral(config).total


@dataclass
class TStep:
    t: float
    residuals: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)


@dataclass
class PathTrace:
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


def _coefficients(name: str, h: float) -> np.ndarray:
    _, weights, denominator, order = _STENCILS[name]
    # multiplied left to right: (12 h) h does not round like 12 (h h)
    return np.array(weights, dtype=float) / math.prod([denominator] + [h] * order)


def _stencil_matrix(grid: RadialGrid, layout) -> sp.csr_matrix:
    """Sparse operator whose rows apply the named stencils; `layout` pairs
    row indices with a stencil name, and unlisted rows stay empty."""
    rows, cols, vals = [], [], []
    for index, name in layout:
        first = _STENCILS[name][0]
        coeffs = _coefficients(name, grid.h)
        (nonzero,) = np.nonzero(coeffs)
        index = np.asarray(index)
        rows.append(np.repeat(index, nonzero.size))
        cols.append((index[:, None] + first + nonzero).ravel())
        vals.append(np.tile(coeffs[nonzero], index.size))
    m = grid.m
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    )


def _interior_operators(grid: RadialGrid):
    """Sparse d/dx and d2/dx2 with fourth-order interior rows; the two rows
    next to the boundary fall back to second order (the correction is locally
    constant there) and the boundary rows stay empty for the BC rows."""
    inner, near = np.arange(2, grid.m - 2), [1, grid.m - 2]
    return (
        _stencil_matrix(grid, [(near, "d1_o2"), (inner, "d1")]),
        _stencil_matrix(grid, [(near, "d2_o2"), (inner, "d2")]),
    )


def _first_derivative(grid: RadialGrid) -> sp.csr_matrix:
    """Fourth-order d/dx at every node, one-sided and skewed near the ends."""
    m = grid.m
    ends = [([0], "d1_first"), ([1], "d1_second"), ([m - 2], "d1_penultimate"), ([m - 1], "d1_last")]
    return _stencil_matrix(grid, ends + [(np.arange(2, m - 2), "d1")])


def newton_continuity_solve(config: PathConfig, grid: RadialGrid):
    """Damped Newton along the continuity path; returns (u, trace).

    Boundary conditions: u'(s_min) = 0 pins the Kahler class (the first
    integral constant cannot change through the inner boundary) and
    u(s_max) = 0 is the far-field normalization.  Every accepted Newton step
    strictly decreases the residual and keeps f' and the discrete density
    positive; exhaustion of the backtracking raises SolverFailure with the
    trace collected so far.

    A t-step ends once the max-norm residual drops below `config.newton_tol`
    or, when that is None, below max(1e-11, floor), where floor =
    4 eps max(s (f'_bg)^{1-n} + |s e^{t f0} P^{1-n}| + (64/12) max|u| / h^2)
    bounds the round-off in evaluating G at the current iterate (64/12 sums
    the absolute d2 weights).  No Newton step can push G below it.
    """
    config.validate_against(grid)
    n = config.n
    m = grid.m
    s = grid.s
    h = grid.h
    d1, d2 = _interior_operators(grid)
    boundary = _stencil_matrix(grid, [([0], "d1_first"), ([m - 1], "value")])
    neumann = _coefficients("d1_first", h)
    qb = calabi_profile(n, config.calabi_c, grid).values
    swb = s * qb ** (1 - n)  # s * (f'_bg + s f''_bg) via the exact density identity
    f0 = bump_values(config, s)
    if np.max(f0) > (limit := math.log(np.finfo(float).max)):  # e^{t f0}, t <= 1, overflows
        raise SolverFailure(f"bump overflows: max f0 = {np.max(f0):.6g} exceeds log(float max) = "
                            f"{limit:.6g}, so e^(t f0) is not finite in floating point")

    def residual(u, rhs):
        ux = d1 @ u
        uxx = d2 @ u
        p = qb + ux / s
        if np.any(p <= 0):
            return None, None, None
        w = swb / s + uxx / s  # f' + s f'' of the full profile
        g = swb + uxx - s * rhs * p ** (1 - n)
        g[0] = neumann @ u[:5]
        g[-1] = u[-1]
        return g, p, w

    u = np.zeros(m)
    trace = PathTrace()
    max_halvings = 30
    for k in range(1, config.t_steps + 1):
        t = k / config.t_steps
        rhs = np.exp(t * f0)
        step = TStep(t=t)
        trace.steps.append(step)
        for _ in range(60):
            g, p, w = residual(u, rhs)
            if g is None:
                raise SolverFailure(f"f' lost positivity at t = {t}", trace)
            res = float(np.max(np.abs(g)))
            step.residuals.append(res)
            terms = swb + np.abs(s * rhs * p ** (1 - n)) + (64 / 12) * np.max(np.abs(u)) / h**2
            floor = 4 * np.finfo(float).eps * float(np.max(terms))
            tol = max(1e-11, floor) if config.newton_tol is None else config.newton_tol
            if res < tol:
                break
            jac = d2 + sp.diags((n - 1) * rhs * p ** (-float(n))) @ d1 + boundary
            delta = spla.spsolve(jac, -g)
            alpha = 1.0
            accepted = False
            for _ in range(max_halvings + 1):
                g_new, p_new, w_new = residual(u + alpha * delta, rhs)
                if (
                    g_new is not None
                    and float(np.max(np.abs(g_new))) < res
                    and np.all(w_new[1:-1] > 0)
                ):
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                bad = f"damping exhausted at residual {res:.3g}, round-off floor {floor:.3g}"
                if g_new is None:
                    bad = "f' non-positive under every damping"
                elif not np.all(w_new[1:-1] > 0):
                    # "not > 0" rather than "<= 0": a NaN density must name its node too
                    node = int(np.flatnonzero(~(w_new[1:-1] > 0))[0]) + 1
                    bad = f"density not positive at node {node} (s = {s[node]:.6g})"
                raise SolverFailure(f"Newton stalled at t = {t}: {bad}", trace)
            step.step_sizes.append(alpha)
            u = u + alpha * delta
        else:
            raise SolverFailure(f"Newton did not converge at t = {t}", trace)
    return RadialProfile(grid=grid, values=u), trace


def total_fprime(u: RadialProfile, config: PathConfig) -> RadialProfile:
    """f' of the solved metric: background plus the differentiated correction."""
    grid = u.grid
    d1 = _first_derivative(grid)
    qb = calabi_profile(config.n, config.calabi_c, grid).values
    return RadialProfile(grid=grid, values=qb + (d1 @ u.values) / grid.s)


def oracle_deviation(u: RadialProfile, config: PathConfig) -> float:
    """Relative max-norm distance between the solved f' and the quadrature oracle."""
    q_newton = total_fprime(u, config).values
    q_oracle = quadrature_oracle(config, u.grid).values
    return float(np.max(np.abs(q_newton - q_oracle)) / np.max(np.abs(q_oracle)))


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


def decay_fit(u: RadialProfile, config: PathConfig, *, correction_only: bool = False) -> DecayFit:
    """Fit the far-field power of the solved potential.

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
    grid = u.grid
    s = grid.s
    q = total_fprime(u, config).values
    if correction_only:
        target = q - calabi_profile(config.n, config.calabi_c, grid).values
    else:
        target = q - 1.0
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


def mass_integral(config: PathConfig, u: RadialProfile) -> MassReport:
    """Evaluate the mass normalization integral and compare it with the tail
    of the solved correction u (from newton_continuity_solve).

    Only meaningful for n >= 3 (the normalization carries an n - 2 factor).
    The fitted coefficient is the decay_fit of u alone (correction_only);
    with no bump (c = 0) it is 0 and u is not read.  The reported ratio
    fitted/formula is the reproducible quantity; its value absorbs
    convention factors that a purely radial model cannot pin down, so
    constancy across bump amplitudes is what callers should test.  Raises
    DecayFitError when the tail of u leaves no usable fit window.
    """
    if config.n < 3:
        raise ValueError("mass normalization degenerates at n = 2; need n >= 3")
    radial = -0.5 * _density_integral(config).total
    vol = link_volume(config.n, config.r_order)
    formula_a = radial / (config.n - 2)
    if config.c == 0:
        fitted, ratio = 0.0, None
    else:
        fitted = decay_fit(u, config, correction_only=True).coefficient
        ratio = fitted / formula_a if formula_a != 0 else None
    return MassReport(
        radial_integral=radial,
        link_vol=vol,
        volume_integral=vol * radial,
        formula_a=formula_a,
        fitted_coefficient=fitted,
        ratio=ratio,
    )
