"""Toric resolutions of cyclic quotients: Hirzebruch-Jung chains in dimension
two, an explicit five-cone family for 1/r(1,1,a), and certification of
user-supplied fan subdivisions.

A subdivision of sigma into unimodular sub-cones is a smooth resolution; the
interior primitive rays w_j are the exceptional divisors, each carrying the
cone angle parameter beta_j = <w_j, gamma> and discrepancy beta_j - 1.  The
covering certificate used here is exact: slicing every sub-cone by the
hyperplane {<., gamma> = 1} gives simplices with vertices g / <g, gamma>, and
these tile the slice of sigma itself, so

    sum over cones of |det(g_1, ..., g_n)| / (<g_1,gamma> * ... * <g_n,gamma>)

must equal |det(sigma)| = r whenever the cones cover sigma with disjoint
interiors.  (The unweighted determinant sum is not conserved under
subdivision, so it cannot serve as a covering count.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
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

    @property
    def discrepancy(self) -> Fraction:
        return self.beta - 1


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
        return tuple(ray.beta for ray in self.rays)


@dataclass(frozen=True)
class FanSubdivision:
    """A candidate resolution: full-dimensional sub-cones of sigma plus the
    declared interior rays."""

    parent: SingularityData
    cones: tuple[LatticeCone, ...]
    rays: tuple[ExceptionalRay, ...]

    def __post_init__(self):
        object.__setattr__(self, "cones", tuple(self.cones))
        object.__setattr__(self, "rays", tuple(self.rays))
        n = self.parent.sigma.dim
        allowed = set(self.parent.sigma.generators) | {ray.w for ray in self.rays}
        for cone in self.cones:
            if cone.dim != n:
                raise ValueError(f"cone {cone.generators} is not full-dimensional (dim {n})")
            for g in cone.generators:
                if g not in allowed:
                    raise ValueError(
                        f"cone generator {g} is neither a sigma generator nor a declared ray"
                    )


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
    with first coordinate 1; then w_{j+1} = b_j w_j - w_{j-1}.  The recurrence
    is validated against both sentinels before the chain is returned.
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
    for j, (b, prev, cur, nxt) in enumerate(zip(digits, chain, chain[1:], chain[2:]), 1):
        if prev[0] + nxt[0] != b * cur[0] or prev[1] + nxt[1] != b * cur[1]:
            raise AssertionError(f"chain recurrence failed at position {j} for 1/{r}(1,{a})")
    for (p0, p1), (q0, q1) in zip(chain, chain[1:]):
        if abs(p0 * q1 - p1 * q0) != 1:
            raise AssertionError(f"consecutive rays {(p0, p1)}, {(q0, q1)} span a non-unimodular cone")
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
    cones = tuple(LatticeCone((p, qq)) for p, qq in zip(boundary, boundary[1:]))
    return FanSubdivision(parent=chain.parent, cones=cones, rays=chain.rays)


def three_dim_family(r: int, a: int) -> FanSubdivision:
    """Five-cone smooth subdivision for 1/r(1, 1, a) when a >= 3, r > a + 2, a | r + 1.

    The rays are w_1 = (1,1,1) and w_2 = ((r+1)/a, (r+1)/a, (r+1)/a - 1); w_1
    splits sigma into three cones of which only <v, e_2, w_1> has |det| = a,
    and w_2 splits that one into three unimodular cones.  Cone angles come out
    as beta_1 = (2+a)/r and beta_2 = (2(r+1)+a)/(ar).
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
    num1, num2 = pairing(w1, data.r_gamma), pairing(w2, data.r_gamma)
    if num1 != 2 + a or a * num2 != 2 * (r + 1) + a:
        raise AssertionError("pairing and closed-form cone angles disagree")
    rays = (ExceptionalRay(w=w1, num=num1, den=r), ExceptionalRay(w=w2, num=num2, den=r))
    return FanSubdivision(parent=data, cones=cones, rays=rays)


RAY_THEOREM = "theorem-applicable"
RAY_CREPANT = "crepant"
RAY_POSITIVE = "positive-discrepancy"
RAY_NON_KLT = "non-klt"


@dataclass(frozen=True)
class AngleVerdict:
    """Classification of every exceptional ray by its cone angle parameter."""

    rays: tuple[ExceptionalRay, ...]
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
    rays = obj.rays
    labels = tuple(_classify(ray) for ray in rays)
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
        rays=rays,
        labels=labels,
        status=status,
        theorem_applies=theorem_applies,
        acceptable=acceptable,
    )


@dataclass(frozen=True)
class SubdivisionReport:
    """Outcome of every certificate run on a fan subdivision.

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
    disjoint: bool | None  # None: not evaluated (only the surface case is checked)
    overall: bool


def _sector_disjointness(sub: FanSubdivision) -> bool:
    """Exact tiling check for surface fans: the angular sectors of the cones,
    sorted from e_2 toward v, must abut with no overlap and no gap."""
    sigma = sub.parent.sigma
    v, e2 = sigma.generators

    def cmp(p, qq):
        # negative when p precedes qq on the sweep from e_2 to v
        c = p[0] * qq[1] - p[1] * qq[0]
        return -1 if c < 0 else (1 if c > 0 else 0)

    sectors = []
    for cone in sub.cones:
        p, qq = cone.generators
        if cmp(p, qq) > 0:
            p, qq = qq, p
        if cmp(p, qq) == 0:
            return False
        sectors.append((p, qq))
    sectors.sort(key=cmp_to_key(lambda s, t: cmp(s[0], t[0])))
    if not sectors or sectors[0][0] != e2 or sectors[-1][1] != v:
        return False
    for (_, hi), (lo, _) in zip(sectors, sectors[1:]):
        if hi != lo:
            return False
    return True


def validate_subdivision(sub: FanSubdivision) -> SubdivisionReport:
    """Run the unimodularity, covering, interiority and (surface) disjointness
    certificates on a candidate subdivision."""
    data = sub.parent
    sigma = data.sigma
    r = abs(sigma.determinant)

    dets = tuple(abs(cone.determinant) for cone in sub.cones)

    # d / prod(beta_g) = d r^n / prod <g, r gamma>, summed over one denominator
    pairings = [[pairing(g, data.r_gamma) for g in cone.generators] for cone in sub.cones]
    covering_sum: Fraction | None = None
    if all(min(nums) > 0 for nums in pairings):
        den = lcm(*(prod(nums) for nums in pairings))
        scale = data.quotient.r ** sigma.dim
        terms = (d * scale * (den // prod(nums)) for d, nums in zip(dets, pairings))
        covering_sum = Fraction(sum(terms), den)
    covering_ok = covering_sum == r

    ray_interior = tuple(contains_in_interior(ray.w, sigma) for ray in sub.rays)

    disjoint: bool | None = None
    if sigma.dim == 2:
        disjoint = _sector_disjointness(sub)

    all_unimodular = bool(dets) and all(d == 1 for d in dets)
    all_interior = all(ray_interior)
    overall = all_unimodular and covering_ok and all_interior and disjoint is not False
    return SubdivisionReport(
        cone_determinants=dets,
        all_unimodular=all_unimodular,
        covering_sum=covering_sum,
        covering_expected=r,
        covering_ok=covering_ok,
        ray_interior=ray_interior,
        all_interior=all_interior,
        disjoint=disjoint,
        overall=overall,
    )


def build_subdivision(data: SingularityData, cones) -> FanSubdivision:
    """Assemble a FanSubdivision from bare cones: every generator that is not a
    generator of sigma is declared as an exceptional ray with beta = <w, gamma>."""
    sigma_gens = set(data.sigma.generators)
    seen = dict.fromkeys(g for cone in cones for g in cone.generators if g not in sigma_gens)
    rays = tuple(ExceptionalRay(w=w, num=pairing(w, data.r_gamma), den=data.quotient.r) for w in seen)
    return FanSubdivision(parent=data, cones=tuple(cones), rays=rays)
