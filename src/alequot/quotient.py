"""Cyclic quotient singularities 1/r(1, a_2, ..., a_n) and their toric data.

The group mu_r acts on C^n by (z_1, ..., z_n) -> (xi z_1, xi^{a_2} z_2, ...,
xi^{a_n} z_n) with xi = exp(2 pi i / r).  As a toric variety the quotient is
the affine chart of the single simplicial cone

    sigma = cone(v, e_2, ..., e_n),   v = (r, r - a_2, ..., r - a_n),

inside Z^n.  The rational vector gamma with <g, gamma> = 1 for every generator
g of sigma packages the canonical class: any interior primitive ray w of a
subdivision picks up the cone angle parameter beta = <w, gamma>, and the
discrepancy of the corresponding exceptional divisor is beta - 1.  The quotient
alone fixes both, so `CyclicQuotient` carries them, built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .lattice import IntVec, LatticeCone, pairing, unit_vector


@dataclass(frozen=True)
class CyclicQuotient:
    """The singularity 1/r(1, a_2, ..., a_n); the first weight 1 is implicit.

    A group element acts freely on the unit sphere iff every weight is a unit
    mod r, so the constructor insists on gcd(a_i, r) = 1.  Inputs with a
    different first weight must be normalized by the caller (multiply all
    weights by the inverse of a_1 mod r).  The volume density at infinity,
    vol(S^{2n-1}/mu_r) / vol(S^{2n-1}), is 1/r.
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

    @cached_property
    def sigma(self) -> LatticeCone:
        """The presenting cone <v, e_2, ..., e_n> with v = (r, r-a_2, ..., r-a_n)."""
        v = (self.r,) + tuple([self.r - a for a in self.weights])
        return LatticeCone((v,) + tuple([unit_vector(i, self.dim) for i in range(1, self.dim)]))

    @cached_property
    def r_gamma(self) -> IntVec:
        """r * gamma, integral: a ray w has cone angle parameter <w, r gamma> / r.  The
        closed formula ((1 + sum(a_i - r))/r, 1, ..., 1) is re-verified against the
        defining pairing, so a transcription slip in either route cannot pass silently."""
        r_gamma = (1 + sum(a - self.r for a in self.weights),) + (self.r,) * len(self.weights)
        for generator in self.sigma.generators:
            value = pairing(generator, r_gamma)
            if value != self.r:
                raise AssertionError(f"gamma self-check failed: <{generator}, r gamma> = {value} != r = {self.r}")
        return r_gamma

    @property
    def gorenstein_index(self) -> int:
        """The smallest l >= 1 with l * gamma integral."""
        return self.r // gcd(self.r, *self.r_gamma)
