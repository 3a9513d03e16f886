"""Exact integer linear algebra for lattice vectors and simplicial cones.

Vectors are plain tuples of Python ints (arbitrary precision).  Everything
here is exact integer arithmetic, no floating point.

An input is checked once, where it enters: `LatticeCone` checks its generators
and keeps the determinant of its independence check, and `contains_in_interior`
checks its vector; a value derived from checked ones is not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import mul

IntVec = tuple[int, ...]


def _check_int_vec(v, what="vector"):
    if not isinstance(v, tuple) or len(v) == 0:
        raise ValueError(f"{what} must be a nonempty tuple of integers, got {v!r}")
    for entry in v:
        if not isinstance(entry, int) or isinstance(entry, bool):
            raise ValueError(f"{what} entries must be ints, got {entry!r}")


def unit_vector(i: int, dim: int) -> IntVec:
    """Standard basis vector e_i (0-indexed)."""
    return tuple([1 if j == i else 0 for j in range(dim)])


def _bareiss(rows) -> int:
    """Fraction-free Bareiss elimination on checked rows: every quotient is
    exact, and entries grow only polynomially even for large group orders."""
    n = len(rows)
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
    """Simplicial cone spanned by dim-many primitive, independent integer
    vectors; the constructor's independence check keeps their `determinant`."""

    generators: tuple[IntVec, ...]
    determinant: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple([tuple(g) for g in self.generators])
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
            if gcd(*g) != 1:
                raise ValueError(f"generator {g} is not primitive" if any(g) else
                                 "zero vector has no primitive representative")
        object.__setattr__(self, "determinant", _bareiss(gens))
        if self.determinant == 0:
            raise ValueError("generators are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.generators)


def contains_in_interior(w: IntVec, cone: LatticeCone) -> bool:
    """True iff all cone coordinates of w are strictly positive.

    By Cramer's rule lambda_i = det(g_1, .., w, .., g_n) / det(g_1, .., g_n)
    with w in slot i, so this compares integer determinant signs."""
    gens, n = cone.generators, cone.dim
    _check_int_vec(w)
    if len(w) != n:
        raise ValueError(f"need {n} vectors of dimension {n}, got dimension {len(w)}")
    return all(_bareiss(gens[:i] + (w,) + gens[i + 1:]) * cone.determinant > 0 for i in range(n))


def pairing(w: IntVec, covector: IntVec) -> int:
    """Exact pairing <w, c> of integer vectors; <w, r gamma> is r * beta(w)."""
    return sum(map(mul, w, covector))
