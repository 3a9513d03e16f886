"""Toric resolutions of cyclic quotients: Hirzebruch-Jung chains in dimension
two, an explicit five-cone family for 1/r(1,1,a), and certification of
user-supplied fan subdivisions.

A subdivision of sigma into unimodular sub-cones is a smooth resolution; the
interior primitive rays w_j are the exceptional divisors, each carrying the
cone angle parameter beta_j = <w_j, gamma> and discrepancy beta_j - 1.

The covering certificate proves in every dimension that the cones form a fan
subdividing sigma.  With every <g, gamma> > 0, each cone cuts the hyperplane
{<., gamma> = 1} in a simplex with vertices g / <g, gamma>.  Face count: each
facet of sigma (n - 1 sigma generators) is a face of one cone and every other
codimension-one face (a sorted generator tuple) of two, so the mod-2 boundary
of the simplices is that of sigma's slice: a generic point is covered an odd
number of times inside sigma and an even number outside.  Weighted volume:

    sum over cones of |det(g_1, ..., g_n)| / (<g_1,gamma> * ... * <g_n,gamma>)

is the simplices' total volume, scaled so that sigma's slice has volume
|det(sigma)| = r, so it is r only if those multiplicities are one and zero.
The cones then tile sigma, face to face, since a face only part of a
neighbour's is counted once (Fulton, Introduction to Toric Varieties,
section 2; De Loera, Rambau and Santos, Triangulations, chapter 4).  Neither
count suffices alone: an overlap can cancel a gap of equal weighted volume,
and a cone added twice keeps the face count.  (The unweighted determinant sum
is not conserved under subdivision.)  A ray on the boundary of sigma fails
the face count and interiority.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from .lattice import IntVec, LatticeCone, contains_in_interior, is_primitive, pairing, unit_vector
from .quotient import CyclicQuotient, SingularityData, singularity_data


@dataclass(frozen=True)
class ExceptionalRay:
    """A primitive interior ray with its cone angle parameter beta = <w, gamma>,
    kept exact as beta = num / den with den > 0.  The rays of a resolution of
    1/r(...) have num = <w, r gamma> and den = r."""

    w: IntVec
    num: int
    den: int

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))
        if not is_primitive(self.w):
            raise ValueError(f"ray vector {self.w} is not primitive")
        if self.den <= 0:
            raise ValueError(f"beta denominator must be positive, got {self.den}")

    beta = property(lambda self: Fraction(self.num, self.den))


@dataclass(frozen=True)
class ChainResolution:
    """Minimal resolution of a two dimensional cyclic quotient.

    The exceptional set is a chain E_1, ..., E_k of rational curves with
    E_j^2 = -b_j, b_j >= 2, the digits of the descending continued fraction
    r/a = b_1 - 1/(b_2 - ...); the ray vectors satisfy the three-term recurrence
    w_{j-1} + w_{j+1} = b_j w_j with sentinels w_0 = e_2 and w_{k+1} = v.
    """

    parent: SingularityData
    rays: tuple[ExceptionalRay, ...]
    self_intersections: tuple[int, ...]

    @property
    def quotient(self) -> CyclicQuotient:
        return self.parent.quotient

    @property
    def betas(self) -> tuple[Fraction, ...]:
        return tuple([ray.beta for ray in self.rays])


@dataclass(frozen=True)
class FanSubdivision:
    """A candidate resolution: full-dimensional sub-cones of sigma.  Its `rays`
    (orbit-cone correspondence, Fulton section 3.1) are the cone generators not
    in sigma, in order of first appearance, each with beta = <w, r gamma> / r."""

    parent: SingularityData
    cones: tuple[LatticeCone, ...]
    rays: tuple[ExceptionalRay, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cones", tuple(self.cones))
        sigma, r_gamma, r = self.parent.sigma, self.parent.r_gamma, self.parent.quotient.r
        for cone in self.cones:
            if cone.dim != sigma.dim:
                raise ValueError(f"cone {cone.generators} is not full-dimensional (dim {sigma.dim})")
        seen = dict.fromkeys(g for cone in self.cones for g in cone.generators if g not in sigma.generators)
        object.__setattr__(self, "rays", tuple([ExceptionalRay(w, pairing(w, r_gamma), r) for w in seen]))


def hj_continued_fraction(r: int, a: int) -> list[int]:
    """Digits b_j >= 2 of the descending continued fraction of r/a."""
    if not (isinstance(r, int) and isinstance(a, int)):
        raise ValueError("r and a must be integers")
    if r < 2 or not (1 <= a <= r - 1):
        raise ValueError(f"need r >= 2 and 1 <= a <= r-1, got r={r}, a={a}")
    if gcd(a, r) != 1:
        raise ValueError(f"gcd({a}, {r}) != 1")
    digits = []
    x, y = r, a
    while y:
        b = -(-x // y)  # ceiling division
        digits.append(b)
        x, y = y, b * y - x
    return digits


def hj_resolution(q: CyclicQuotient) -> ChainResolution:
    """Minimal resolution of 1/r(1, a), rays generated by the integer recurrence.

    Seeds: w_0 = e_2 and w_1 = (1, 1), the lattice point of the boundary chain
    with first coordinate 1; then w_{j+1} = b_j w_j - w_{j-1}.  Only the last
    recurrence, where the sentinel v enters, can fail, so only it is checked.
    """
    if q.dim != 2:
        raise ValueError(f"Hirzebruch-Jung resolution needs a surface quotient, got dim {q.dim}")
    r, a = q.r, q.weights[0]
    data = singularity_data(q)
    digits = hj_continued_fraction(r, a)
    v = data.sigma.generators[0]
    e2 = (0, 1)
    chain = [e2, (1, 1)]
    for b in digits[:-1]:
        prev, cur = chain[-2], chain[-1]
        chain.append((b * cur[0] - prev[0], b * cur[1] - prev[1]))
    chain.append(v)
    # given the recurrence, det(w_j, w_{j+1}) = det(w_{j-1}, w_j) = det(e_2, (1, 1))
    # = -1, so every cone of consecutive rays is unimodular
    b, (prev, cur, nxt) = digits[-1], chain[-3:]
    if prev[0] + nxt[0] != b * cur[0] or prev[1] + nxt[1] != b * cur[1]:
        raise AssertionError(f"chain recurrence failed at position {len(digits)} for 1/{r}(1,{a})")
    rays = []
    for w in chain[1:-1]:
        num = pairing(w, data.r_gamma)
        if not (0 < num <= r):
            raise AssertionError(f"cone angle parameter {num}/{r} for ray {w} outside (0, 1]")
        rays.append(ExceptionalRay(w=w, num=num, den=r))
    return ChainResolution(parent=data, rays=tuple(rays), self_intersections=tuple(digits))


def chain_fan(chain: ChainResolution) -> FanSubdivision:
    """The fan of the chain resolution: consecutive boundary rays pair into cones."""
    v = chain.parent.sigma.generators[0]
    boundary = [(0, 1)] + [ray.w for ray in chain.rays] + [v]
    cones = tuple([LatticeCone((p, qq)) for p, qq in zip(boundary, boundary[1:])])
    return FanSubdivision(parent=chain.parent, cones=cones)


def three_dim_family(r: int, a: int) -> FanSubdivision:
    """Five-cone smooth subdivision for 1/r(1, 1, a) when a >= 3, r > a + 2, a | r + 1.

    The rays are w_1 = (1,1,1) and w_2 = ((r+1)/a, (r+1)/a, (r+1)/a - 1); w_1
    splits sigma into three cones of which only <v, e_2, w_1> has |det| = a,
    and w_2 splits that one into three unimodular cones.  The fan derives both
    rays, w_1 first, and must give beta_1 = (2+a)/r and beta_2 = (2(r+1)+a)/(ar).
    """
    if not (isinstance(r, int) and isinstance(a, int)):
        raise ValueError("r and a must be integers")
    if a < 3:
        raise ValueError(f"family condition failed: need a >= 3, got a = {a}")
    if r <= a + 2:
        raise ValueError(f"family condition failed: need r > a + 2, got r = {r}, a = {a}")
    if (r + 1) % a != 0:
        raise ValueError(f"family condition failed: {a} does not divide r + 1 = {r + 1}")
    q = CyclicQuotient(r=r, weights=(1, a))
    data = singularity_data(q)
    v = data.sigma.generators[0]
    e2, e3 = unit_vector(1, 3), unit_vector(2, 3)
    w1 = (1, 1, 1)
    m = (r + 1) // a
    w2 = (m, m, m - 1)
    cones = (
        LatticeCone((w1, e2, e3)),
        LatticeCone((v, w1, e3)),
        LatticeCone((w2, e2, w1)),
        LatticeCone((v, w2, w1)),
        LatticeCone((v, e2, w2)),
    )
    fan = FanSubdivision(parent=data, cones=cones)
    num1, num2 = [ray.num for ray in fan.rays]  # w1 and w2, in order of first appearance
    if num1 != 2 + a or a * num2 != 2 * (r + 1) + a:
        raise AssertionError("pairing and closed-form cone angles disagree")
    return fan


RAY_THEOREM = "theorem-applicable"
RAY_CREPANT = "crepant"
RAY_POSITIVE = "positive-discrepancy"
RAY_NON_KLT = "non-klt"


@dataclass(frozen=True)
class AngleVerdict:
    """Classification of every exceptional ray by its cone angle parameter."""

    labels: tuple[str, ...]
    status: str
    theorem_applies: bool  # every beta strictly inside (0, 1)
    acceptable: bool       # every beta inside (0, 1]; crepant rays allowed


def _classify(ray: ExceptionalRay) -> str:
    if ray.num <= 0:
        return RAY_NON_KLT
    if ray.num < ray.den:
        return RAY_THEOREM
    if ray.num == ray.den:
        return RAY_CREPANT
    return RAY_POSITIVE


def angle_condition(obj: ChainResolution | FanSubdivision) -> AngleVerdict:
    """Classify the exceptional rays of a chain or a fan subdivision.

    The strict angle window (0, 1) is what the existence theory asks for;
    beta = 1 rays are the crepant (smooth instanton) regime and are reported
    as such rather than failed.
    """
    labels = tuple([_classify(ray) for ray in obj.rays])
    if not labels:
        status = "no-rays"
    elif any(lab == RAY_NON_KLT for lab in labels):
        status = RAY_NON_KLT
    elif any(lab == RAY_POSITIVE for lab in labels):
        status = RAY_POSITIVE
    elif all(lab == RAY_CREPANT for lab in labels):
        status = RAY_CREPANT
    elif any(lab == RAY_CREPANT for lab in labels):
        status = "mixed"
    else:
        status = RAY_THEOREM
    theorem_applies = bool(labels) and all(lab == RAY_THEOREM for lab in labels)
    acceptable = all(lab in (RAY_THEOREM, RAY_CREPANT) for lab in labels)
    return AngleVerdict(
        labels=labels,
        status=status,
        theorem_applies=theorem_applies,
        acceptable=acceptable,
    )


@dataclass(frozen=True)
class SubdivisionReport:
    """Outcome of every certificate run on a fan subdivision.

    `covering_ok` is the face count and the weighted-volume identity together,
    a proof that the cones form a fan subdividing sigma (module docstring).
    Check failures land here as verdicts, never as exceptions, so a report can
    be produced for defective input fans.
    """

    cone_determinants: tuple[int, ...]
    all_unimodular: bool
    covering_sum: Fraction | None
    covering_expected: int
    covering_ok: bool
    ray_interior: tuple[bool, ...]
    all_interior: bool
    overall: bool


def validate_subdivision(sub: FanSubdivision) -> SubdivisionReport:
    """Run the unimodularity, covering and interiority certificates on a
    candidate subdivision.  Covering is the face count (a facet of sigma is a
    face of one cone, any other codimension-one face of two) plus the
    weighted-volume identity: a fan-tiling proof in any dimension (Fulton
    section 2; De Loera-Rambau-Santos chapter 4, see the module docstring)."""
    data = sub.parent
    sigma = data.sigma
    r = abs(sigma.determinant)

    dets = tuple([abs(cone.determinant) for cone in sub.cones])

    # d / prod(beta_g) = d r^n / prod <g, r gamma>, summed over one denominator
    pairings = [[pairing(g, data.r_gamma) for g in cone.generators] for cone in sub.cones]
    covering_sum: Fraction | None = None
    if all(min(nums) > 0 for nums in pairings):
        den = lcm(*[prod(nums) for nums in pairings])
        scale = data.quotient.r ** sigma.dim
        terms = (d * scale * (den // prod(nums)) for d, nums in zip(dets, pairings))
        covering_sum = Fraction(sum(terms), den)
    # sorted generators give sorted faces, so a face is the same tuple in every cone
    faces = Counter(f for cone in sub.cones for f in combinations(sorted(cone.generators), sigma.dim - 1))
    facets = set(combinations(sorted(sigma.generators), sigma.dim - 1))
    covering_ok = (
        covering_sum == r
        and facets <= faces.keys()
        and all(k == (1 if f in facets else 2) for f, k in faces.items())
    )

    ray_interior = tuple([contains_in_interior(ray.w, sigma) for ray in sub.rays])

    all_unimodular = bool(dets) and all(d == 1 for d in dets)
    all_interior = all(ray_interior)
    overall = all_unimodular and covering_ok and all_interior
    return SubdivisionReport(
        cone_determinants=dets,
        all_unimodular=all_unimodular,
        covering_sum=covering_sum,
        covering_expected=r,
        covering_ok=covering_ok,
        ray_interior=ray_interior,
        all_interior=all_interior,
        overall=overall,
    )
