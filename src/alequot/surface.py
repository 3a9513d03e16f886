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

    def inverse_row(self, i: int) -> list[Fraction]:
        """Row i (0-based) of the exact inverse by the continuant formula, O(k)."""
        d, f = self._continuants
        return [Fraction((-1) ** (i + j) * d[min(i, j)] * f[max(i, j) + 2], d[-1]) for j in range(self.size)]

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


def adjunction_check(chain: ChainResolution) -> bool:
    """Verify sum_j (beta_j - 1) (E_j . E_i) = b_i - 2 exactly for every i.

    This is adjunction on each curve: deg K_{E_i} = -2 and K_X . E_i picks up
    the discrepancies against the i-th row of the intersection matrix.
    """
    betas = chain.betas
    bs = chain.self_intersections
    k = len(bs)
    for i in range(k):
        total = (betas[i] - 1) * (-bs[i])
        if i > 0:
            total += betas[i - 1] - 1
        if i + 1 < k:
            total += betas[i + 1] - 1
        if total != bs[i] - 2:
            return False
    return True


@dataclass(frozen=True)
class EnergyBreakdown:
    """Terms of the curvature energy of a chain resolution, all exact."""

    chi_x: int
    curve_terms: tuple[Fraction, ...]
    node_terms: tuple[Fraction, ...]
    group_term: Fraction
    total: Fraction
    conditional: bool  # node terms rest on the normal-crossing tube limit


def energy(chain: ChainResolution) -> EnergyBreakdown:
    """Curvature energy of the chain: chi(X) = k + 1, end curves have
    chi(E*) = 1 and interior curves 0 (a single curve keeps chi = 2)."""
    betas = chain.betas
    k = len(betas)
    chi_x = k + 1
    curve_terms = []
    for j in range(k):
        if k == 1:
            chi_star = 2
        elif j in (0, k - 1):
            chi_star = 1
        else:
            chi_star = 0
        curve_terms.append((betas[j] - 1) * chi_star)
    node_terms = [betas[j] * betas[j + 1] - 1 for j in range(k - 1)]
    group_term = -Fraction(1, chain.quotient.r)
    total = chi_x + sum(curve_terms, Fraction(0)) + sum(node_terms, Fraction(0)) + group_term
    return EnergyBreakdown(
        chi_x=chi_x,
        curve_terms=tuple(curve_terms),
        node_terms=tuple(node_terms),
        group_term=group_term,
        total=total,
        conditional=k > 1,
    )


@dataclass(frozen=True)
class StratumCheck:
    indices: tuple[int, ...]         # 0-based ray indices of the stratum
    product: Fraction                # product of the beta over the stratum
    strict: bool                     # product > nu strictly


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
        product = Fraction(1)
        for idx in stratum:
            product *= rays[idx].beta
        checks.append(StratumCheck(indices=tuple(stratum), product=product, strict=product > nu))
    return StrataReport(nu=nu, strata=tuple(checks), overall=all(c.strict for c in checks))
