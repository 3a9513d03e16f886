"""Cyclic quotient singularities 1/r(1, a_2, ..., a_n) and their toric data.

The group mu_r acts on C^n by (z_1, ..., z_n) -> (xi z_1, xi^{a_2} z_2, ...,
xi^{a_n} z_n) with xi = exp(2 pi i / r).  As a toric variety the quotient is
the affine chart of the single simplicial cone

    sigma = cone(v, e_2, ..., e_n),   v = (r, r - a_2, ..., r - a_n),

inside Z^n.  The rational vector gamma with <g, gamma> = 1 for every generator
g of sigma packages the canonical class: any interior primitive ray w of a
subdivision picks up the cone angle parameter beta = <w, gamma>, and the
discrepancy of the corresponding exceptional divisor is beta - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .lattice import IntVec, LatticeCone, pairing, unit_vector


@dataclass(frozen=True)
class CyclicQuotient:
    """The singularity 1/r(1, a_2, ..., a_n); the first weight 1 is implicit.

    A group element acts freely on the unit sphere iff every weight is a unit
    mod r, so the constructor insists on gcd(a_i, r) = 1.  Inputs with a
    different first weight must be normalized by the caller (multiply all
    weights by the inverse of a_1 mod r).
    """

    r: int
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if not isinstance(self.r, int) or self.r < 2:
            raise ValueError(f"group order must be an integer >= 2, got {self.r!r}")
        if len(self.weights) < 1:
            raise ValueError("need at least one weight (dimension >= 2)")
        for a in self.weights:
            if not isinstance(a, int) or not (1 <= a <= self.r - 1):
                raise ValueError(f"weight {a!r} out of range [1, {self.r - 1}]")
            if gcd(a, self.r) != 1:
                raise ValueError(f"weight {a} shares a factor with r = {self.r}: action is not free")

    @property
    def dim(self) -> int:
        return 1 + len(self.weights)


@dataclass(frozen=True)
class SingularityData:
    """Derived toric package of a cyclic quotient: cone, gamma and index.

    gamma is kept as the integer covector r * gamma, so the cone angle
    parameter of a ray w is the integer <w, r gamma> over r.  The volume
    density at infinity, vol(S^{2n-1}/mu_r) / vol(S^{2n-1}), is 1/r."""

    quotient: CyclicQuotient
    sigma: LatticeCone
    r_gamma: IntVec             # r * gamma, integral
    gorenstein_index: int       # smallest l >= 1 with l * gamma integral


def singularity_data(q: CyclicQuotient) -> SingularityData:
    """Everything derived from the quotient, with sigma and gamma built once.

    gamma is computed by the closed formula ((1 + sum(a_i - r))/r, 1, ..., 1)
    and then re-verified against the defining pairing property, so a
    transcription slip in either route cannot pass silently.  sigma is the
    presenting cone <v, e_2, ..., e_n> with v = (r, r-a_2, ..., r-a_n).
    """
    n = q.dim
    v = (q.r,) + tuple([q.r - a for a in q.weights])
    sigma = LatticeCone((v,) + tuple([unit_vector(i, n) for i in range(1, n)]))
    r_gamma = (1 + sum(a - q.r for a in q.weights),) + (q.r,) * (q.dim - 1)
    for generator in sigma.generators:
        value = pairing(generator, r_gamma)
        if value != q.r:
            raise AssertionError(f"gamma self-check failed: <{generator}, r gamma> = {value} != r = {q.r}")
    return SingularityData(
        quotient=q,
        sigma=sigma,
        r_gamma=r_gamma,
        gorenstein_index=q.r // gcd(q.r, *r_gamma),
    )
