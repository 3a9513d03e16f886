"""Intersection theory and curvature energy for chain resolutions of surface
cyclic quotients.

For a chain of k rational curves with E_j^2 = -b_j the intersection matrix is
tridiagonal with diagonal -b_j and off-diagonal 1.  Its leading principal
minors obey the integer recurrence d_m = -b_m d_{m-1} - d_{m-2}, so negative
definiteness (signs alternating, starting negative) is an O(k) integer check,
and the classical continuant formula

    (M^{-1})_{ij} = (-1)^{i+j} d_{i-1} f_{j+1} / d_k   for i <= j,

with f_j the trailing minors, gives the exact rational inverse without
elimination.  |d_k| always equals the group order r.

The L2 curvature energy (1/8 pi^2) * int |Riem|^2 of the conical Ricci-flat
metric on the chain decomposes as

    E = chi(X) + sum_j (beta_j - 1) chi(E_j*) + sum_nodes (nu_x - 1) - 1/r,

where E_j* is E_j minus the normal crossing points, chi(X) = k + 1, and
nu_x = beta_j beta_{j+1} at the node E_j cap E_{j+1}.  The tube-limit
boundary term behind the node contribution is currently only established for
smooth divisors, so reports carry the value flagged as conditional at normal
crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod

from .resolution import ChainResolution, ExceptionalRay


def _minors(bs) -> list[int]:
    """d_0 = 1, d_1, ..., d_k of the chain bs: d_m = -b_m d_{m-1} - d_{m-2}."""
    d = [0, 1]  # d_{-1}, d_0
    for b in bs:
        d.append(-b * d[-1] - d[-2])
    return d[1:]


@dataclass(frozen=True)
class IntersectionMatrix:
    """Tridiagonal intersection matrix of a chain, with exact certificates."""

    bs: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.bs)

    @cached_property
    def _continuants(self) -> tuple[list[int], list[int]]:
        """d[m], the leading minor of order m (d[0] = 1), and f[j], the
        trailing minor of rows j..k (1-indexed, f[k+1] = 1), computed once per
        matrix.  The trailing minors are the leading minors of the reversed
        chain."""
        return _minors(self.bs), [0] + _minors(self.bs[::-1])[::-1]

    def leading_minors(self) -> list[int]:
        """Principal minors d_1, ..., d_k via the three-term recurrence."""
        return self._continuants[0][1:]

    def determinant(self) -> int:
        return self._continuants[0][-1]

    def is_negative_definite(self) -> bool:
        return all((d > 0) == (m % 2 == 0) and d != 0 for m, d in enumerate(self.leading_minors(), 1))

    def adjugate_row(self, i: int) -> list[int]:
        """Row i (0-based) of determinant() * M^{-1}, integral, O(k)."""
        d, f = self._continuants
        return [(-1) ** (i + j) * d[min(i, j)] * f[max(i, j) + 2] for j in range(self.size)]

    def inverse_row(self, i: int) -> list[Fraction]:
        """Row i (0-based) of the exact inverse, O(k)."""
        return [Fraction(x, self.determinant()) for x in self.adjugate_row(i)]

    def inverse_entries_nonpositive(self) -> bool:
        """O(k) proof that every entry of the inverse is <= 0 (in fact < 0).

        If d_m has sign (-1)^m for m = 0..k (d_0 = 1; for m >= 1 this is
        negative definiteness) and f_j has sign (-1)^{k-j+1} for j = 1..k+1
        (f_{k+1} = 1), then for i <= j the entry
        (-1)^{i+j} d_{i-1} f_{j+1} / d_k has sign
        (-1)^{(i+j) + (i-1) + (k-j) - k} = (-1)^{2i-1} < 0.  The converse
        holds too: -M has non-positive off-diagonal entries, and such a
        matrix with a non-negative inverse is a non-singular M-matrix, whose
        principal minors, leading and trailing alike, are all positive
        (Berman-Plemmons, Nonnegative Matrices in the Mathematical Sciences,
        ch. 6).  So the check agrees with inspecting every inverse_row(i)
        entry by entry.
        """
        k = self.size
        _, f = self._continuants
        return self.is_negative_definite() and all(f[j] * (-1) ** (k - j + 1) > 0 for j in range(1, k + 1))


def _numerators(chain: ChainResolution) -> tuple[int, list[int]]:
    """(D, [D beta_j]): the least common denominator D of 1/r and the betas,
    which is r for a resolution, and every beta as an integer over it."""
    den = lcm(chain.quotient.r, *(ray.den for ray in chain.rays))
    return den, [ray.num * (den // ray.den) for ray in chain.rays]


def adjunction_check(chain: ChainResolution) -> bool:
    """Verify sum_j (beta_j - 1) (E_j . E_i) = b_i - 2 exactly for every i.

    This is adjunction on each curve: deg K_{E_i} = -2 and K_X . E_i picks up
    the discrepancies against the i-th row of the intersection matrix.  Over
    the common denominator D of the betas it is the integer identity
    sum_j (n_j - D) (E_j . E_i) = (b_i - 2) D with n_j = D beta_j.
    """
    den, nums = _numerators(chain)
    m = [0] + [x - den for x in nums] + [0]  # D (beta_j - 1), padded by zeros
    return all(
        m[i - 1] - b * m[i] + m[i + 1] == (b - 2) * den for i, b in enumerate(chain.self_intersections, 1)
    )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Terms of the curvature energy of a chain resolution, all exact: integers
    over `den` (the group order r for a resolution) for the curve and group
    terms, over den^2 for the node terms and the total, and Fraction views."""

    chi_x: int
    den: int
    curve_nums: tuple[int, ...]
    node_nums: tuple[int, ...]
    group_num: int
    total_num: int
    conditional: bool  # node terms rest on the normal-crossing tube limit

    curve_terms = property(lambda self: tuple(Fraction(x, self.den) for x in self.curve_nums))
    node_terms = property(lambda self: tuple(Fraction(x, self.den**2) for x in self.node_nums))
    group_term = property(lambda self: Fraction(self.group_num, self.den))
    total = property(lambda self: Fraction(self.total_num, self.den**2))


def energy(chain: ChainResolution) -> EnergyBreakdown:
    """Curvature energy of the chain: chi(X) = k + 1, end curves have
    chi(E*) = 1 and interior curves 0 (a single curve keeps chi = 2)."""
    den, nums = _numerators(chain)
    k = len(nums)
    chi_star = [2] if k == 1 else [1] + [0] * (k - 2) + [1]
    curve_nums = tuple((x - den) * chi for x, chi in zip(nums, chi_star))
    node_nums = tuple(x * y - den * den for x, y in zip(nums, nums[1:]))
    group_num = -(den // chain.quotient.r)
    total_num = ((k + 1) * den + sum(curve_nums) + group_num) * den + sum(node_nums)
    return EnergyBreakdown(k + 1, den, curve_nums, node_nums, group_num, total_num, conditional=k > 1)


@dataclass(frozen=True)
class StratumCheck:
    indices: tuple[int, ...]         # 0-based ray indices of the stratum
    num: int                         # num / den is the product of the
    den: int                         # beta over the stratum
    strict: bool                     # product > nu strictly

    product = property(lambda self: Fraction(self.num, self.den))


@dataclass(frozen=True)
class StrataReport:
    nu: Fraction
    strata: tuple[StratumCheck, ...]
    overall: bool


def chain_strata(k: int) -> list[tuple[int, ...]]:
    """Every curve and every node of a length-k chain."""
    return [(j,) for j in range(k)] + [(j, j + 1) for j in range(k - 1)]


def family_strata() -> list[tuple[int, ...]]:
    """The 1/r(1,1,a) family: two divisors meeting along one curve."""
    return [(0,), (1,), (0, 1)]


def volume_density_inequality(
    rays: tuple[ExceptionalRay, ...] | list[ExceptionalRay],
    strata: list[tuple[int, ...]],
    nu: Fraction,
) -> StrataReport:
    """Check the Bishop-Gromov consequence: on every nonempty intersection
    of exceptional divisors the product of the beta exceeds the volume
    density of the cone at infinity, strictly."""
    checks = []
    for stratum in strata:
        num = prod(rays[idx].num for idx in stratum)
        den = prod(rays[idx].den for idx in stratum)
        strict = num * nu.denominator > nu.numerator * den
        checks.append(StratumCheck(indices=tuple(stratum), num=num, den=den, strict=strict))
    return StrataReport(nu=nu, strata=tuple(checks), overall=all(c.strict for c in checks))
