"""Exact integer and rational linear algebra for lattice vectors and simplicial cones.

Vectors are plain tuples of Python ints (arbitrary precision); rational results
are `fractions.Fraction`, which keeps lowest terms and a positive denominator
by construction.  Everything here is exact, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


def _check_int_vec(v, what="vector"):
    if not isinstance(v, tuple) or len(v) == 0:
        raise ValueError(f"{what} must be a nonempty tuple of integers, got {v!r}")
    for entry in v:
        if not isinstance(entry, int) or isinstance(entry, bool):
            raise ValueError(f"{what} entries must be ints, got {entry!r}")


def unit_vector(i: int, dim: int) -> IntVec:
    """Standard basis vector e_i (0-indexed)."""
    return tuple(1 if j == i else 0 for j in range(dim))


def make_primitive(v: IntVec) -> IntVec:
    """Divide v by the gcd of its entries. Rejects the zero vector."""
    _check_int_vec(v)
    g = 0
    for entry in v:
        g = gcd(g, entry)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(entry // g for entry in v)


def is_primitive(v: IntVec) -> bool:
    return make_primitive(v) == v


def det(vectors: list[IntVec] | tuple[IntVec, ...]) -> int:
    """Exact determinant of the square integer matrix with the given rows.

    Fraction-free Bareiss elimination: every intermediate quotient is exact,
    entry growth stays polynomial even for large group orders.
    """
    rows = list(vectors)
    n = len(rows)
    if n == 0:
        raise ValueError("need at least one vector")
    for v in rows:
        _check_int_vec(v)
        if len(v) != n:
            raise ValueError(f"need {n} vectors of dimension {n}, got dimension {len(v)}")
    m = [list(v) for v in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class LatticeCone:
    """Simplicial cone spanned by dim-many primitive, independent integer vectors."""

    generators: tuple[IntVec, ...]

    def __post_init__(self):
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) == 0:
            raise ValueError("cone needs at least one generator")
        dim = len(gens[0])
        if len(gens) != dim:
            raise ValueError(f"simplicial cone in dimension {dim} needs exactly {dim} generators")
        for g in gens:
            _check_int_vec(g, "generator")
            if len(g) != dim:
                raise ValueError("generators must share one dimension")
            if not is_primitive(g):
                raise ValueError(f"generator {g} is not primitive")
        if det(gens) == 0:
            raise ValueError("generators are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def determinant(self) -> int:
        return det(self.generators)


def cone_coordinates(w: IntVec, cone: LatticeCone) -> RatVec:
    """Unique rationals lambda_i with w = sum(lambda_i * generator_i), exact solve."""
    _check_int_vec(w)
    n = cone.dim
    if len(w) != n:
        raise ValueError(f"vector dimension {len(w)} does not match cone dimension {n}")
    # columns are the generators; Gaussian elimination over Fraction
    a = [[Fraction(cone.generators[j][i]) for j in range(n)] for i in range(n)]
    b = [Fraction(w[i]) for i in range(n)]
    for col in range(n):
        piv = next(row for row in range(col, n) if a[row][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        a[col] = [entry * inv for entry in a[col]]
        b[col] *= inv
        for row in range(n):
            if row != col and a[row][col] != 0:
                f = a[row][col]
                a[row] = [x - f * y for x, y in zip(a[row], a[col])]
                b[row] -= f * b[col]
    return tuple(b)


def contains_in_interior(w: IntVec, cone: LatticeCone) -> bool:
    """True iff all cone coordinates of w are strictly positive.

    By Cramer's rule lambda_i = det(g_1, .., w, .., g_n) / det(g_1, .., g_n)
    with w in slot i, so this compares integer determinant signs."""
    gens = cone.generators
    d = det(gens)
    return all(det(gens[:i] + (w,) + gens[i + 1:]) * d > 0 for i in range(len(gens)))


def pairing(w: IntVec, covector: IntVec) -> int:
    """Exact pairing <w, c> of integer vectors; <w, r gamma> is r * beta(w)."""
    return sum(a * b for a, b in zip(w, covector))
