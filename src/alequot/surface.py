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
from functools import cached_property
from typing import NamedTuple

from .resolution import ChainResolution, FanSubdivision


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
        """Row i (0-based, 0 <= i < size) of determinant() * M^{-1}, integral, O(k)."""
        if not 0 <= i < self.size:
            raise ValueError(f"row {i} outside 0..{self.size - 1}")
        d, f = self._continuants
        row = [d[min(i, j)] * f[max(i, j) + 2] for j in range(self.size)]
        row[1 - i % 2::2] = [-x for x in row[1 - i % 2::2]]  # the sign (-1)^(i + j)
        return row

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
        ch. 6).  So the check agrees with inspecting every adjugate_row(i)
        over determinant() entry by entry.
        """
        k = self.size
        _, f = self._continuants
        return self.is_negative_definite() and all(f[j] * (-1) ** (k - j + 1) > 0 for j in range(1, k + 1))


def adjunction_check(chain: ChainResolution) -> bool:
    """Verify sum_j (beta_j - 1) (E_j . E_i) = b_i - 2 exactly for every i.

    This is adjunction on each curve: deg K_{E_i} = -2 and K_X . E_i picks up
    the discrepancies against the i-th row of the intersection matrix.  Over
    the group order r it is the integer identity
    sum_j (n_j - r) (E_j . E_i) = (b_i - 2) r with n_j = r beta_j.
    """
    r = chain.quotient.r
    m = [0] + [ray.num - r for ray in chain.rays] + [0]  # r (beta_j - 1), padded by zeros
    return all(
        m[i - 1] - b * m[i] + m[i + 1] == (b - 2) * r for i, b in enumerate(chain.self_intersections, 1)
    )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Terms of the curvature energy of a chain resolution, all exact: integers
    over the group order r for the curve terms and over r^2 for the node terms
    and the total.  The group term is -1/r."""

    chi_x: int
    curve_nums: tuple[int, ...]
    node_nums: tuple[int, ...]
    total_num: int
    conditional: bool  # node terms rest on the normal-crossing tube limit


def energy(chain: ChainResolution) -> EnergyBreakdown:
    """Curvature energy of the chain: chi(X) = k + 1, end curves have
    chi(E*) = 1 and interior curves 0 (a single curve keeps chi = 2)."""
    r, nums = chain.quotient.r, [ray.num for ray in chain.rays]
    k = len(nums)
    chi_star = [2] if k == 1 else [1] + [0] * (k - 2) + [1]
    curve_nums = tuple([(x - r) * chi for x, chi in zip(nums, chi_star)])
    node_nums = tuple([x * y - r * r for x, y in zip(nums, nums[1:])])
    total_num = ((k + 1) * r + sum(curve_nums) - 1) * r + sum(node_nums)
    return EnergyBreakdown(k + 1, curve_nums, node_nums, total_num, conditional=k > 1)


class StratumCheck(NamedTuple):
    indices: tuple[int, ...]         # 0-based ray indices of the stratum S
    num: int                         # num / r^|S| is the product of beta over S
    strict: bool                     # product > nu = 1/r strictly


@dataclass(frozen=True)
class StrataReport:
    strata: tuple[StratumCheck, ...]
    overall: bool


def volume_density_inequality(resolution: ChainResolution | FanSubdivision) -> StrataReport:
    """Check the Bishop-Gromov consequence: on every nonempty intersection S
    of exceptional divisors (`resolution.strata`) the product of the beta
    exceeds the volume density 1/r of the cone at infinity, strictly:
    num * r > r^|S|."""
    r, nums = resolution.quotient.r, [ray.num for ray in resolution.rays]
    checks = []
    for stratum in resolution.strata:
        num = 1
        for idx in stratum:
            num *= nums[idx]
        checks.append(StratumCheck(stratum, num, num * r > r ** len(stratum)))
    return StrataReport(strata=tuple(checks), overall=all(c.strict for c in checks))
