import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded

from alequot import radial
from alequot.radial import (
    _LOWER,
    _UPPER,
    DecayFitError,
    PathConfig,
    RadialGrid,
    RadialProfile,
    SolverFailure,
    _band_apply,
    _density_integral,
    _jacobian,
    bump_values,
    calabi_profile,
    decay_fit,
    link_volume,
    mass_integral,
    newton_continuity_solve,
    oracle_deviation,
    quadrature_oracle,
    total_fprime,
)
from oracles import ma_density

GRID = RadialGrid(1e-2, 1e4, 1024)


def cfg(n=3, C=1.0, c=-0.25, **kw):
    return PathConfig(n=n, calabi_c=C, s0=5.0, w=2.0, c=c, **kw)


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(1.0, 0.5, 64)
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 10.0, 64)
    with pytest.raises(ValueError):
        RadialGrid(0.1, 10.0, 8)
    g = RadialGrid(1e-2, 1e4, 256)
    assert g.s[0] == pytest.approx(1e-2, rel=1e-14)
    assert g.s[-1] == pytest.approx(1e4, rel=1e-14)
    assert np.all(np.diff(g.s) > 0)


def test_config_validation():
    with pytest.raises(ValueError):
        PathConfig(n=1, calabi_c=1.0, s0=5.0, w=2.0, c=0.0)
    with pytest.raises(ValueError):
        PathConfig(n=3, calabi_c=0.0, s0=5.0, w=2.0, c=0.0)
    with pytest.raises(ValueError):
        PathConfig(n=3, calabi_c=1.0, s0=5.0, w=-1.0, c=0.0)
    with pytest.raises(ValueError):
        cfg().validate_against(RadialGrid(4.0, 1e4, 64))   # bump support sticks out


def test_bump_support_and_shape():
    config = cfg(c=-0.25)
    s = np.array([2.9, 3.0, 5.0, 7.0, 7.1])
    vals = bump_values(config, s)
    assert vals[0] == 0 and vals[1] == 0 and vals[3] == 0 and vals[4] == 0
    assert vals[2] == pytest.approx(-0.25)


def _bump_by_division(config, s):
    """bump_values as it was when it divided by w at every point: z = (s - s0)/w first."""
    z = (s - config.s0) / config.w
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    out[inside] = config.c * (1.0 - z[inside] ** 2) ** 3
    return out


def test_bump_divides_by_w_only_inside_the_support():
    # at w = 1e-300, (s - s0)/w overflows at every point but s0 itself
    config = PathConfig(n=3, calabi_c=1.0, s0=5.0, w=1e-300, c=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = bump_values(config, np.append(np.logspace(-300, 300, 61), 5.0))
    assert np.all(vals[:-1] == 0.0) and vals[-1] == 0.25
    # on the benchmark's grids every value is the division form's (a seam node is +-0 in both)
    for grid in (RadialGrid(1e-2, 100.0, 256), *(RadialGrid(1e-2, 1e4, m) for m in (1024, 2048, 4096))):
        for c in (-0.4, -0.2, 0.05, 0.25):
            config = cfg(c=c)
            assert np.array_equal(bump_values(config, grid.s), _bump_by_division(config, grid.s))


def test_calabi_profile_flat_and_point_values():
    flat = calabi_profile(3, 0.0, GRID)
    assert np.all(flat.values == 1.0)
    grid1 = RadialGrid(1.0, 1e3, 128)
    prof = calabi_profile(2, 1.0, grid1)
    assert prof.values[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_calabi_profile_tail_expansion():
    # f'(s) - 1 - (C/n) s^{-n} = O(s^{-2n}), probed where the remainder is
    # far above the double-precision floor
    probe = {2: 1e3, 3: 30.0, 4: 12.0}
    for n in (2, 3, 4):
        for C in (0.5, 2.0):
            s = probe[n]
            grid = RadialGrid(s, 10 * s, 64)
            q = calabi_profile(n, C, grid).values[0]
            remainder = abs(q - 1.0 - (C / n) * s ** (-n))
            assert remainder <= C**2 * s ** (-2 * n)


def test_ma_density_flat_and_scaled_flat():
    h2 = GRID.h**2
    dens = ma_density(GRID.s, GRID.h, np.ones(GRID.m), 3)
    assert np.max(np.abs(dens - 1.0)) <= h2
    dens2 = ma_density(GRID.s, GRID.h, np.full(GRID.m, 2.0), 3)
    assert np.max(np.abs(dens2 - 8.0)) <= 8 * h2


def test_ma_density_of_calabi_is_one_and_contracts():
    defects = []
    for grid in (RadialGrid(1e-2, 1e4, 513), RadialGrid(1e-2, 1e4, 1025)):
        dens = ma_density(grid.s, grid.h, calabi_profile(3, 1.0, grid).values, 3)
        defects.append(np.max(np.abs(dens[1:-1] - 1.0)))
    assert defects[0] < 2e-3
    assert defects[0] / defects[1] >= 3.5


def test_ma_density_raises_outside_kahler_cone():
    # f' = 1/s makes s f' constant, so the density vanishes identically
    with pytest.raises(ValueError, match="non-positive Monge-Ampere density"):
        ma_density(GRID.s, GRID.h, 1.0 / GRID.s, 3)


def test_oracle_reduces_to_calabi_without_bump():
    config = cfg(c=0.0)
    oracle = quadrature_oracle(config, GRID)
    background = calabi_profile(3, 1.0, GRID)
    assert np.array_equal(oracle.values, background.values)


def test_oracle_density_matches_prescription():
    config = cfg(n=3, C=1.0, c=-0.25)
    oracle = quadrature_oracle(config, GRID)
    dens = ma_density(GRID.s, GRID.h, oracle.values, 3)
    target = np.exp(bump_values(config, GRID.s))
    assert np.max(np.abs(dens[1:-1] - target[1:-1])) < 1e-3


def test_oracle_effective_tail_constant():
    # above the bump support s^n((f')^n - 1) is exactly the shifted constant;
    # probe at s ~ 100 where the cancellation noise is still far below it
    config = cfg(n=3, C=1.0, c=-0.25)
    oracle = quadrature_oracle(config, GRID)
    c_eff = config.calabi_c + config.n * config.bump_integral
    i = int(np.searchsorted(GRID.s, 100.0))
    s = GRID.s[i]
    measured = s**3 * (oracle.values[i] ** 3 - 1.0)
    assert measured == pytest.approx(c_eff, rel=1e-8)
    # bump with c < 0 depletes the class constant
    assert c_eff < config.calabi_c


def _seam_config(n, c):
    """A bump on [3, 7] whose two seams are nodes of GRID, exactly in floating point."""
    s, lo = GRID.s, int(np.searchsorted(GRID.s, 3.0))
    for hi in range(int(np.searchsorted(s, 7.0)), GRID.m):
        config = PathConfig(n=n, calabi_c=1.0, s0=(s[lo] + s[hi]) / 2, w=(s[hi] - s[lo]) / 2, c=c)
        if config.s0 - config.w == s[lo] and config.s0 + config.w == s[hi]:
            return config, lo, hi


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("c", [-0.3, 0.2])
def test_bump_integral_matches_adaptive_quadrature(n, c):
    config, lo, hi = _seam_config(n, c)
    a, b = config.s0 - config.w, config.s0 + config.w

    def k_quad(s):  # K(s) by scipy's adaptive rule, split at the bump's peak
        if s <= a:
            return 0.0
        points = [config.s0] if config.s0 < min(s, b) else None
        integrand = lambda tau: tau ** (n - 1) * np.expm1(bump_values(config, tau))
        return quad(integrand, a, min(s, b), points=points, epsabs=0.0, epsrel=2e-14, limit=200)[0]

    total = k_quad(b)
    # nodes inside the support, both seams, and the first and last node
    s = GRID.s
    nodes = [0, *range(lo, hi + 1), GRID.m - 1]
    expected = [(1 + (config.calabi_c + n * k_quad(s[i])) * s[i] ** -n) ** (1 / n) for i in nodes]
    assert quadrature_oracle(config, GRID).values[nodes] == pytest.approx(expected, rel=1e-13)
    # K is exactly 0 at and below the support and exactly the total at and above it
    k = _density_integral(config, s)
    assert np.all(k[: lo + 1] == 0.0) and np.all(k[hi:] == k[-1])
    assert k[-1] == pytest.approx(total, rel=1e-13)
    assert float(_density_integral(config, b)) == config.bump_integral == k[-1]


def _row_by_row_operators(m, h):
    """d/dx, d2/dx2 and the full d/dx assembled one row at a time."""
    d1, d2, full = np.zeros((m, m)), np.zeros((m, m)), np.zeros((m, m))
    centred1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    centred2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    for i in range(2, m - 2):
        d1[i, i - 2:i + 3], d2[i, i - 2:i + 3], full[i, i - 2:i + 3] = centred1, centred2, centred1
    for i in (1, m - 2):
        d1[i, i - 1:i + 2] = np.array([-1.0, 0.0, 1.0]) / (2 * h)
        d2[i, i - 1:i + 2] = np.array([1.0, -2.0, 1.0]) / (h * h)
    one_sided = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    skewed = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * h)
    full[0, :5], full[1, :5] = one_sided, skewed
    full[m - 2, m - 5:], full[m - 1, m - 5:] = -skewed[::-1], -one_sided[::-1]
    return d1, d2, full


def _read_band(band):
    """The dense matrix held in LAPACK band storage (band[upper + i - j, j] =
    A[i, j]), and the band cells that lie outside it."""
    m = band.shape[1]
    r, j = np.indices(band.shape)
    i = j + r - _UPPER
    inside = (i >= 0) & (i < m)
    dense = np.zeros((m, m))
    dense[i[inside], j[inside]] = band[inside]
    return dense, band[~inside]


def test_stencil_table_matches_row_by_row_assembly():
    for m in (16, 17, 257):
        grid = RadialGrid(1e-2, 1e4, m)
        d1, d2, _, full, _ = grid.bands
        for built, reference in zip((d1, d2, full), _row_by_row_operators(m, grid.h)):
            dense, outside = _read_band(built)
            assert np.array_equal(dense, reference)     # bit for bit
            assert not np.any(outside)                  # cells outside the matrix stay 0


def test_band_apply_sums_each_row_left_to_right():
    m = 257
    grid = RadialGrid(1e-2, 1e4, m)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3, m)
    d1, d2, _, full, _ = grid.bands
    bands = (d1, d2, full)
    for band, reference in zip(bands, _row_by_row_operators(m, grid.h)):
        expected = []
        for row in reference:
            total = 0.0
            for j in np.flatnonzero(row):   # increasing column order
                total += float(row[j]) * float(u[j])
            expected.append(total)
        assert np.array_equal(_band_apply(band, u), expected)   # bit for bit


def _readme_jacobian(m):
    """The band Jacobian at u = 0, t = 1 of the README configuration, and the
    same matrix assembled densely from the row-by-row operators."""
    config, grid = cfg(n=3, C=1.0, c=-0.25), RadialGrid(1e-2, 1e4, m)
    qb = calabi_profile(3, 1.0, grid).values
    c = (config.n - 1) * np.exp(bump_values(config, grid.s)) * qb ** (-3.0)
    ref1, ref2, full = _row_by_row_operators(m, grid.h)
    dense_boundary = np.zeros((m, m))
    dense_boundary[0], dense_boundary[-1, -1] = full[0], 1.0   # Neumann and Dirichlet rows
    return _jacobian(grid)(c), ref2 + c[:, None] * ref1 + dense_boundary


def test_band_jacobian_matches_dense_assembly():
    band, expected = _readme_jacobian(257)
    assert band.shape == (_LOWER + _UPPER + 1, 257)
    dense, outside = _read_band(band)
    assert np.array_equal(dense, expected)   # d2 + diag(c) d1 + boundary, bit for bit
    assert not np.any(outside)


def test_band_step_matches_dense_solve():
    band, dense = _readme_jacobian(257)
    g = np.random.default_rng(11).standard_normal(257)
    step = solve_banded((_LOWER, _UPPER), band, -g)
    reference = np.linalg.solve(dense, -g)
    assert np.max(np.abs(step - reference)) <= 1e-10 * np.max(np.abs(reference))


def test_bands_are_built_once_per_grid(monkeypatch):
    config, grid = cfg(), RadialGrid(1e-2, 1e4, 256)
    u, _ = newton_continuity_solve(config, grid)
    calls, build = [], radial._stencil_band
    monkeypatch.setattr(radial, "_stencil_band", lambda *args, **kw: calls.append(args) or build(*args, **kw))
    newton_continuity_solve(config, grid)   # a second solve on the same grid
    total_fprime(u, config)
    assert calls == []


def test_grid_bands_are_read_only():
    for band in RadialGrid(1e-2, 1e4, 64).bands:
        assert not band.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            band[0, 0] = 1


def test_newton_zero_bump_returns_zero():
    u, trace = newton_continuity_solve(cfg(c=0.0), GRID)
    assert np.all(u.values == 0.0)
    assert trace.newton_iterations == 0
    assert len(trace.steps) == 1


def test_newton_matches_oracle():
    config = cfg(n=3, C=1.0, c=-0.25)
    u, trace = newton_continuity_solve(config, GRID)
    assert oracle_deviation(total_fprime(u, config), config) < 1e-6
    assert u.values[-1] == 0.0   # far-field normalization
    # inner Neumann condition: one-sided fourth-order derivative vanishes
    h = GRID.h
    inner = np.dot([-25, 48, -36, 16, -3], u.values[:5]) / (12 * h)
    assert abs(inner) < 1e-9 * max(1.0, np.max(np.abs(u.values)))


def test_newton_residuals_decrease_monotonically():
    config = cfg(n=2, C=0.5, c=0.1)
    _, trace = newton_continuity_solve(config, GRID)
    for step in trace.steps:
        drops = np.diff(step.residuals)
        assert np.all(drops < 0)


def test_newton_grid_contraction():
    config = cfg(n=3, C=1.0, c=-0.25)
    coarse = RadialGrid(1e-2, 1e4, 513)
    fine = RadialGrid(1e-2, 1e4, 1025)   # half the spacing
    u_c, _ = newton_continuity_solve(config, coarse)
    u_f, _ = newton_continuity_solve(config, fine)
    dev_c = oracle_deviation(total_fprime(u_c, config), config)
    dev_f = oracle_deviation(total_fprime(u_f, config), config)
    assert dev_c / dev_f >= 3.5


def test_readme_config_converges_at_4096_nodes():
    # the round-off floor of G exceeds 1e-11 here (a fixed 1e-11 tolerance
    # would stall); each attempt stops at max(1e-11, floor)
    config = cfg(n=3, C=1.0, c=-0.25, r_order=7)
    u, trace = newton_continuity_solve(config, RadialGrid(1e-2, 1e4, 4096))
    assert [step.t for step in trace.steps] == [1.0]   # one attempt covers the whole path
    assert oracle_deviation(total_fprime(u, config), config) < 1e-10


def test_path_stays_kahler():
    config = cfg(n=4, C=2.0, c=-0.25)
    u, _ = newton_continuity_solve(config, GRID)
    dens = ma_density(GRID.s, GRID.h, total_fprime(u, config).values, 4)
    assert np.all(dens[1:-1] > 0)


def zero_step(l_and_u, ab, b, **kwargs):
    """A band solve that returns no step, so no damping lowers the residual."""
    return np.zeros(b.size)


def test_solver_failure_carries_trace(monkeypatch):
    monkeypatch.setattr(radial, "solve_banded", zero_step)
    # every attempt stalls, down to the smallest step in t
    stall = rf"^Newton stalled at t = {radial._MIN_DT}: damping exhausted at residual "
    with pytest.raises(SolverFailure, match=stall) as err:
        newton_continuity_solve(cfg(c=-0.25), RadialGrid(1e-2, 1e4, 256))
    assert err.value.trace is not None
    assert err.value.trace.steps and err.value.trace.steps[0].residuals
    # a bounded number of attempts, all from u = 0: dt = 1, 1/2, ..., _MIN_DT
    attempts = round(-math.log2(radial._MIN_DT)) + 1
    assert [step.t for step in err.value.trace.steps] == [2.0**-k for k in range(attempts)]


def test_path_takes_one_step_where_a_fixed_path_stalls():
    # a fixed path of ten equal steps stalls here at t = 0.7 on both grids (the
    # density turns negative near the bump's centre); the whole path in one step does not
    config = cfg(n=2, C=1e-3, c=-40.0)
    deviations = []
    for m in (2048, 4096):
        u, trace = newton_continuity_solve(config, RadialGrid(1e-2, 1e4, m))
        assert [step.t for step in trace.steps] == [1.0]
        deviations.append(oracle_deviation(total_fprime(u, config), config))
    # e^{f0} reaches e^{-40}: the discretization error is 2.1e-6 at 2048 nodes
    assert deviations[0] <= 1e-5 and deviations[1] <= 1e-6
    assert deviations[0] / deviations[1] >= 3.5


def test_path_halves_the_step_after_a_stall():
    config = cfg(n=4, C=1e-6, c=-30.0)
    u, trace = newton_continuity_solve(config, RadialGrid(1e-2, 1e4, 1024))
    assert [step.t for step in trace.steps] == [1.0, 0.5, 1.0]   # t = 1 rejected, then two steps
    assert oracle_deviation(total_fprime(u, config), config) <= 1e-4


def test_newton_evaluates_each_iterate_once(monkeypatch):
    calls = []

    def counting(band, u):
        calls.append(None)
        return _band_apply(band, u)

    monkeypatch.setattr(radial, "_band_apply", counting)
    config = cfg(n=3, C=1.0, c=-0.25, r_order=7)   # the README configuration
    _, trace = newton_continuity_solve(config, RadialGrid(1e-2, 1e4, 2048))
    halvings = sum(round(-math.log2(a)) for st in trace.steps for a in st.step_sizes)
    # one residual (a d1 and a d2 product) per attempt start and per line-search trial
    assert len(calls) == 2 * (len(trace.steps) + trace.newton_iterations + halvings)


def test_decay_fit_background():
    config = cfg(n=3, C=1.0, c=0.0)
    u, _ = newton_continuity_solve(config, GRID)
    fit = decay_fit(total_fprime(u, config), config)
    assert fit.exponent == pytest.approx(-2.0, rel=0.01)
    assert fit.exponent_in_r == pytest.approx(-4.0, rel=0.01)
    assert fit.coefficient == pytest.approx(-1.0 / 6.0, rel=0.01)
    assert fit.fit_window[0] < fit.fit_window[1] <= GRID.s_max / 4


def test_decay_fit_exponent_universality():
    for n in (2, 3, 4):
        config = cfg(n=n, C=1.0, c=0.1)
        u, _ = newton_continuity_solve(config, GRID)
        fit = decay_fit(total_fprime(u, config), config)
        assert fit.exponent == pytest.approx(1 - n, rel=0.01)


def test_decay_fit_unreliable_without_signal():
    config = cfg(n=3, C=1.0, c=0.0)
    u, _ = newton_continuity_solve(config, GRID)
    with pytest.raises(DecayFitError):
        decay_fit(total_fprime(u, config), config, correction_only=True)


def test_scaling_covariance():
    # C -> lambda^n C, s -> lambda s maps solutions to solutions
    lam = 2.0
    base = PathConfig(n=3, calabi_c=1.0, s0=5.0, w=2.0, c=-0.25)
    scaled = PathConfig(n=3, calabi_c=lam**3 * 1.0, s0=lam * 5.0, w=lam * 2.0, c=-0.25)
    grid = RadialGrid(1e-2, 1e4, 513)
    grid_scaled = RadialGrid(lam * 1e-2, lam * 1e4, 513)
    u_base, _ = newton_continuity_solve(base, grid)
    u_scaled, _ = newton_continuity_solve(scaled, grid_scaled)
    scale = np.max(np.abs(u_base.values))
    assert np.max(np.abs(u_scaled.values - lam * u_base.values)) <= 1e-7 * lam * scale


def test_mass_integral_zero_bump():
    report = mass_integral(cfg(n=3, C=1.0, c=0.0, r_order=7), calabi_profile(3, 1.0, GRID))
    assert report.radial_integral == 0.0
    assert report.formula_a == 0.0
    assert report.fitted_coefficient == 0.0
    assert report.ratio is None


def test_mass_integral_sign_and_volume():
    config = cfg(n=3, C=1.0, c=-0.25, r_order=7)
    u, _ = newton_continuity_solve(config, GRID)
    report = mass_integral(config, total_fprime(u, config))
    assert report.radial_integral > 0          # e^{f0} < 1 on the bump
    assert report.link_vol == pytest.approx(2 * math.pi**3 / (2 * 7), rel=1e-14)
    assert report.volume_integral == pytest.approx(report.link_vol * report.radial_integral)
    assert report.formula_a == pytest.approx(report.radial_integral)   # n = 3: 1/(n-2) = 1
    assert report.ratio == pytest.approx(1.0, rel=0.01)


def test_mass_integral_rejects_n2():
    with pytest.raises(ValueError):
        mass_integral(cfg(n=2, C=1.0), RadialProfile(GRID, np.zeros(GRID.m)))


def test_link_volume_values():
    assert link_volume(2, 1) == pytest.approx(2 * math.pi**2)
    assert link_volume(3, 7) == pytest.approx(math.pi**3 / 7)


def test_concurrent_solves_match_serial():
    configs = [cfg(n=2, C=0.5, c=0.1), cfg(n=3, C=2.0, c=-0.25)]
    grid = RadialGrid(1e-2, 1e4, 257)
    serial = [newton_continuity_solve(c, grid)[0].values for c in configs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(lambda c: newton_continuity_solve(c, grid)[0].values, configs))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)
