"""Independent reference implementations used by the test suite only.

Each function here recomputes something the library derives by a faster or
smarter route, using a method with no shared code: exhaustive enumeration,
permutation expansion, dense rational elimination, a coefficient-sum route
to cone angles, or a direct finite-difference Monge-Ampere density.  It also
builds seeded samples of extreme run files for robustness tests.  Nothing
here imports alequot, and numpy is imported inside the one function that
needs it, so importing this module stays standard-library only.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import gcd


def det_by_permutations(rows) -> int:
    """Leibniz expansion; usable for dimension <= 6 or so."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def lattice_index_by_counting(rows) -> int:
    """Number of integer points in the half-open parallelepiped spanned by the
    rows, counted by solving for the fractional coordinates exactly."""
    n = len(rows)
    from itertools import product

    ranges = []
    for j in range(n):
        lo = sum(min(0, rows[i][j]) for i in range(n))
        hi = sum(max(0, rows[i][j]) for i in range(n))
        ranges.append(range(lo, hi + 1))
    count = 0
    for point in product(*ranges):
        coords = solve_fraction(rows, point)
        if coords is not None and all(0 <= lam < 1 for lam in coords):
            count += 1
    return count


def solve_fraction(rows, rhs):
    """Solve x @ rows = rhs exactly; None if singular."""
    n = len(rows)
    a = [[Fraction(rows[j][i]) for j in range(n)] for i in range(n)]
    b = [Fraction(v) for v in rhs]
    for col in range(n):
        piv = None
        for row in range(col, n):
            if a[row][col] != 0:
                piv = row
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] *= inv
        for row in range(n):
            if row != col and a[row][col] != 0:
                f = a[row][col]
                a[row] = [x - f * y for x, y in zip(a[row], a[col])]
                b[row] -= f * b[col]
    return b


def beta_as_coefficient_sum(w, generators) -> Fraction:
    """Cone angle parameter of a ray interior to the cone spanned by
    `generators`: the sum of its coordinates in that basis, which equals
    <w, gamma> because gamma pairs to 1 with every generator."""
    coords = solve_fraction(generators, w)
    if coords is None or any(lam <= 0 for lam in coords):
        raise ValueError(f"{w} is not interior to the cone (coordinates {coords})")
    return sum(coords)


def tridiagonal_rows(bs) -> list[list[int]]:
    """Intersection matrix of a chain with E_j^2 = -b_j: diagonal -b_j,
    1 on both off-diagonals, 0 elsewhere."""
    k = len(bs)
    return [[-bs[i] if i == j else int(abs(i - j) == 1) for j in range(k)] for i in range(k)]


def chain_strata(k: int) -> list[tuple[int, ...]]:
    """Every curve and every node of a length-k chain of curves, the curves
    listed first, as 0-based curve indices."""
    return [(j,) for j in range(k)] + [(j, j + 1) for j in range(k - 1)]


def ma_density(s, h, f_prime, n: int):
    """Discrete Monge-Ampere density (f')^{n-1} (f' + s f'') on a logarithmic
    grid with nodes s and spacing h in x = log s.

    The second factor is differenced as d(s f')/dx / s; differencing s f'
    instead of f' itself keeps the cancellation error uniform where f' grows
    like 1/s.  Second order, one-sided at the ends.  Raises ValueError on a
    value that is not positive at an interior node.
    """
    import numpy as np

    s = np.asarray(s, dtype=float)
    q = np.asarray(f_prime, dtype=float)
    sf = s * q
    dsf = np.empty_like(sf)
    dsf[1:-1] = (sf[2:] - sf[:-2]) / (2 * h)
    dsf[0] = (-3 * sf[0] + 4 * sf[1] - sf[2]) / (2 * h)
    dsf[-1] = (3 * sf[-1] - 4 * sf[-2] + sf[-3]) / (2 * h)
    dens = q ** (n - 1) * (dsf / s)
    bad = np.flatnonzero(~(dens[1:-1] > 0))
    if bad.size:
        i = int(bad[0]) + 1
        raise ValueError(f"non-positive Monge-Ampere density {dens[i]:.6g} at node {i} (s = {s[i]:.6g})")
    return dens


def invert_fraction_matrix(rows):
    """Dense Gauss-Jordan inverse over Fraction."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for row in range(n):
            if row != col and a[row][col] != 0:
                f = a[row][col]
                a[row] = [x - f * y for x, y in zip(a[row], a[col])]
    return [row[n:] for row in a]


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def hull_chain_rays(r: int, a: int) -> list[tuple[int, int]]:
    """Interior rays of the minimal resolution of 1/r(1, a) by brute force.

    Enumerates every lattice point of the cone weakly below the chord from
    e_2 = (0, 1) to v = (r, r - a), takes the convex hull, walks the
    origin-facing boundary chain from e_2 to v, and returns every lattice
    point on it (vertices and edge points alike), endpoints excluded.
    """
    e2, v = (0, 1), (r, r - a)
    pts = set()
    for x in range(0, r + 1):
        y_lo = -(-(x * (r - a)) // r)          # on or above the ray through v
        y_hi = (r + x * (r - a - 1)) // r      # weakly below the chord
        for y in range(max(y_lo, 0), y_hi + 1):
            if (x, y) != (0, 0):
                pts.add((x, y))
    p_sorted = sorted(pts)

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(p_sorted), half(p_sorted[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        path = p_sorted  # every point is on the chord; already ordered along it
    else:
        ie, iv = hull.index(e2), hull.index(v)

        def cyc(i, j):
            return hull[i:j + 1] if i <= j else hull[i:] + hull[:j + 1]

        if (ie + 1) % len(hull) == iv:       # the chord is the edge e2 -> v
            path = cyc(iv, ie)[::-1]
        elif (iv + 1) % len(hull) == ie:     # the chord is the edge v -> e2
            path = cyc(ie, iv)
        else:
            raise AssertionError(f"chord is not a hull edge for ({r}, {a})")
    assert path[0] == e2 and path[-1] == v
    rays = []
    for p, q in zip(path, path[1:]):
        dx, dy = q[0] - p[0], q[1] - p[1]
        g = gcd(abs(dx), abs(dy))
        for t in range(1, g + 1):
            rays.append((p[0] + dx // g * t, p[1] + dy // g * t))
    return [p for p in rays if p != v]


def coprime_pairs(r_max: int):
    for r in range(2, r_max + 1):
        for a in range(1, r):
            if gcd(a, r) == 1:
                yield r, a


# Extreme values for each run-file key (r is left at its default): the space a
# run file's floats reach the solver's closed forms from.
RUN_FILE_EXTREMES = (
    ("n", (2, 3, 4, 5, 8, 20, 60, 150)),
    ("C", (1e-300, 1e-30, 1.0, 1e30, 1e300)),
    ("s0", (0.1, 5.0, 1e3, 1e100, 1e299)),
    ("w", (1e-300, 1e-10, 0.05, 2.0, 1e99)),
    ("c", (1e3, -1e3, 40.0, -40.0, 0.25, -0.25, 700.0)),
    ("s_min", (1e-300, 1e-100, 1e-8, 1e-2, 0.5)),
    ("s_max", (2.0, 1e4, 1e30, 1e150, 1e300)),
    ("nodes", (8, 9, 16, 64, 257)),
)


def extreme_run_files(count: int, seed: int = 2026) -> list[str]:
    """`count` run files, each key's value drawn uniformly from RUN_FILE_EXTREMES by random.Random(seed)."""
    rng = random.Random(seed)
    return ["".join(f"{key} = {rng.choice(values)}\n" for key, values in RUN_FILE_EXTREMES) for _ in range(count)]
