import math
from fractions import Fraction

import pytest

from alequot import resolution
from alequot.lattice import LatticeCone
from alequot.formats import parse_subdivision_file
from alequot.quotient import CyclicQuotient, singularity_data
from alequot.resolution import (
    ExceptionalRay,
    FanSubdivision,
    _hj_digits,
    angle_condition,
    hj_resolution,
    three_dim_family,
    validate_subdivision,
)
from oracles import beta_as_coefficient_sum, coprime_pairs, hull_chain_rays
from test_formats import FAN_74


def betas(obj):
    """The cone angle parameters of a chain or fan: each ray's num over r."""
    return tuple([Fraction(ray.num, obj.parent.quotient.r) for ray in obj.rays])


def chain_fan(chain):
    """The fan of a chain resolution: consecutive boundary rays pair into cones."""
    boundary = [(0, 1)] + [ray.w for ray in chain.rays] + [chain.parent.sigma.generators[0]]
    return FanSubdivision(chain.parent, [LatticeCone(pair) for pair in zip(boundary, boundary[1:])])


def fold_continued_fraction(digits):
    value = Fraction(digits[-1])
    for b in reversed(digits[:-1]):
        value = b - 1 / value
    return value


def test_hj_continued_fraction_examples():
    assert _hj_digits(7, 3) == [3, 2, 2]
    for r in (2, 5, 12):
        assert _hj_digits(r, 1) == [r]
    for r in (2, 3, 6, 11):
        assert _hj_digits(r, r - 1) == [2] * (r - 1)


def test_hj_continued_fraction_reconstructs():
    for r, a in coprime_pairs(80):
        digits = _hj_digits(r, a)
        assert all(b >= 2 for b in digits)
        assert fold_continued_fraction(digits) == Fraction(r, a)


def test_hj_resolution_worked_example():
    chain = hj_resolution(CyclicQuotient(7, (3,)))
    assert [ray.w for ray in chain.rays] == [(1, 1), (3, 2), (5, 3)]
    assert chain.self_intersections == (3, 2, 2)
    assert betas(chain) == (Fraction(4, 7), Fraction(5, 7), Fraction(6, 7))
    assert [beta - 1 for beta in betas(chain)] == [
        Fraction(-3, 7),
        Fraction(-2, 7),
        Fraction(-1, 7),
    ]
    # beta strictly increasing along this particular chain
    assert list(betas(chain)) == sorted(betas(chain))


def test_hj_resolution_calabi_series():
    for r in range(2, 30):
        chain = hj_resolution(CyclicQuotient(r, (1,)))
        assert [ray.w for ray in chain.rays] == [(1, 1)]
        assert chain.self_intersections == (r,)
        assert betas(chain) == (Fraction(2, r),)


def test_hj_resolution_crepant_series():
    chain = hj_resolution(CyclicQuotient(5, (4,)))
    assert [ray.w for ray in chain.rays] == [(1, 1), (2, 1), (3, 1), (4, 1)]
    assert chain.self_intersections == (2, 2, 2, 2)
    assert betas(chain) == (Fraction(1),) * 4


def test_hj_resolution_checks_the_last_recurrence(monkeypatch):
    def bumped(r, a):   # a wrong last digit breaks the recurrence where v enters
        digits = _hj_digits(r, a)
        return digits[:-1] + [digits[-1] + 1]

    monkeypatch.setattr(resolution, "_hj_digits", bumped)
    failure = r"^chain recurrence failed at position 3 for 1/7\(1,3\)$"
    with pytest.raises(AssertionError, match=failure):
        hj_resolution(CyclicQuotient(7, (3,)))


def test_hj_resolution_rejects_threefolds():
    with pytest.raises(ValueError):
        hj_resolution(CyclicQuotient(7, (1, 4)))


def test_hj_recurrence_and_unimodularity_sweep():
    for r, a in coprime_pairs(120):
        q = CyclicQuotient(r, (a,))
        chain = hj_resolution(q)
        boundary = [(0, 1)] + [ray.w for ray in chain.rays] + [(r, r - a)]
        for j, b in enumerate(chain.self_intersections, start=1):
            assert boundary[j - 1][0] + boundary[j + 1][0] == b * boundary[j][0]
            assert boundary[j - 1][1] + boundary[j + 1][1] == b * boundary[j][1]
        for p, w in zip(boundary, boundary[1:]):
            assert p[0] * w[1] - p[1] * w[0] == -1
        assert all(0 < beta <= 1 for beta in betas(chain))


def test_rays_are_primitive_without_a_runtime_check():
    # no constructor re-checks primitivity: chain rays lie in det -1 pairs, fan rays are gcd-checked generators
    for r, a in coprime_pairs(200):
        assert all(math.gcd(*ray.w) == 1 for ray in hj_resolution(CyclicQuotient(r, (a,))).rays)
    for r in range(6, 401):
        for a in range(3, r - 2):
            if (r + 1) % a == 0:
                assert all(math.gcd(*ray.w) == 1 for ray in three_dim_family(r, a).rays)
    assert ExceptionalRay((3, 2), 5) == ((3, 2), 5)


def test_hj_rays_match_hull_oracle_small():
    for r, a in coprime_pairs(25):
        chain = hj_resolution(CyclicQuotient(r, (a,)))
        assert [ray.w for ray in chain.rays] == hull_chain_rays(r, a)


def test_beta_as_coefficient_sum_agrees_with_pairing():
    for r, a in coprime_pairs(60):
        q = CyclicQuotient(r, (a,))
        data = singularity_data(q)
        for ray in hj_resolution(q).rays:
            assert beta_as_coefficient_sum(ray.w, data.sigma.generators) == Fraction(ray.num, r)


def test_beta_as_coefficient_sum_examples():
    data = singularity_data(CyclicQuotient(7, (3,)))
    assert beta_as_coefficient_sum((1, 1), data.sigma.generators) == Fraction(4, 7)
    data3 = singularity_data(CyclicQuotient(7, (1, 4)))
    assert beta_as_coefficient_sum((1, 1, 1), data3.sigma.generators) == Fraction(6, 7)


def test_beta_as_coefficient_sum_rejects_boundary():
    data = singularity_data(CyclicQuotient(7, (3,)))
    with pytest.raises(ValueError):
        beta_as_coefficient_sum((7, 4), data.sigma.generators)
    with pytest.raises(ValueError):
        beta_as_coefficient_sum((-1, 0), data.sigma.generators)


def test_three_dim_family_worked_example():
    fan = three_dim_family(7, 4)
    assert [ray.w for ray in fan.rays] == [(1, 1, 1), (2, 2, 1)]
    assert list(betas(fan)) == [Fraction(6, 7), Fraction(5, 7)]
    assert len(fan.cones) == 5
    assert all(abs(cone.determinant) == 1 for cone in fan.cones)
    # the intermediate cone <v, e2, w1> of the first subdivision step has index a
    v = fan.parent.sigma.generators[0]
    assert abs(LatticeCone((v, (0, 1, 0), (1, 1, 1))).determinant) == 4


def test_three_dim_family_second_example():
    fan = three_dim_family(11, 3)
    assert list(betas(fan)) == [Fraction(5, 11), Fraction(9, 11)]
    assert all(abs(cone.determinant) == 1 for cone in fan.cones)


def test_three_dim_family_scan():
    produced = 0
    for r in range(2, 80):
        for a in range(3, r - 2):
            if (r + 1) % a:
                continue
            fan = three_dim_family(r, a)
            report = validate_subdivision(fan)
            assert report.overall, (r, a)
            assert angle_condition(fan).theorem_applies
            # pairing and coefficient-sum routes agree on every ray
            for ray in fan.rays:
                assert beta_as_coefficient_sum(ray.w, fan.parent.sigma.generators) == Fraction(ray.num, r)
            produced += 1
    assert produced > 20


def test_three_dim_family_rejects_bad_parameters():
    with pytest.raises(ValueError, match="divide"):
        three_dim_family(7, 3)            # 3 does not divide 8
    with pytest.raises(ValueError, match="a >= 3"):
        three_dim_family(7, 2)
    with pytest.raises(ValueError, match="r > a \\+ 2"):
        three_dim_family(5, 4)
    with pytest.raises(ValueError, match="r > a \\+ 2"):
        three_dim_family(5, 3)            # r = a + 2: beta_1 = 1, crepant


def test_angle_condition_classifications():
    assert angle_condition(hj_resolution(CyclicQuotient(7, (3,)))).status == "theorem-applicable"
    crepant = angle_condition(hj_resolution(CyclicQuotient(6, (5,))))
    assert crepant.status == "crepant"
    assert not crepant.theorem_applies
    assert crepant.acceptable
    third_chain = hj_resolution(CyclicQuotient(3, (1,)))
    third = angle_condition(third_chain)
    assert third.theorem_applies and betas(third_chain)[0] == Fraction(2, 3)
    # the ray (1, 2) lies outside sigma and pairs to 11/7 with gamma = (-3/7, 1)
    data = singularity_data(CyclicQuotient(7, (3,)))
    outside = FanSubdivision(data, [LatticeCone(((0, 1), (1, 2))), LatticeCone(((1, 2), (7, 4)))])
    positive = angle_condition(outside)
    assert betas(outside)[0] == Fraction(11, 7)
    assert positive.status == "positive-discrepancy"
    assert not positive.acceptable


def test_validate_subdivision_trivial_fan():
    data = singularity_data(CyclicQuotient(7, (3,)))
    fan = FanSubdivision(data, [data.sigma])
    report = validate_subdivision(fan)
    assert report.covering_ok and Fraction(*report.covering_sum) == 7
    assert not report.all_unimodular
    assert report.cone_determinants == (7,)
    assert not report.overall


def test_validate_subdivision_partial_fan():
    data = singularity_data(CyclicQuotient(7, (3,)))
    cones = [LatticeCone(((0, 1), (1, 1))), LatticeCone(((1, 1), (7, 4)))]
    report = validate_subdivision(FanSubdivision(data, cones))
    assert report.covering_ok and Fraction(*report.covering_sum) == 7
    assert report.cone_determinants == (1, 3)
    assert not report.all_unimodular
    assert not report.overall


def test_validate_subdivision_full_chain_fan():
    for r, a in [(7, 3), (5, 4), (12, 5), (9, 2)]:
        fan = chain_fan(hj_resolution(CyclicQuotient(r, (a,))))
        report = validate_subdivision(fan)
        assert report.overall
        assert Fraction(*report.covering_sum) == r
        assert report.all_unimodular


def test_validate_subdivision_detects_overlap_and_gap():
    data = singularity_data(CyclicQuotient(7, (3,)))
    # gap: two cones that do not abut
    gap = FanSubdivision(
        data, [LatticeCone(((0, 1), (1, 1))), LatticeCone(((3, 2), (7, 4)))]
    )
    report = validate_subdivision(gap)
    assert not report.covering_ok
    # overlap: sectors sharing interior
    overlap = FanSubdivision(
        data, [LatticeCone(((0, 1), (3, 2))), LatticeCone(((1, 1), (7, 4)))]
    )
    report = validate_subdivision(overlap)
    assert not report.covering_ok
    assert not report.overall


def test_validate_subdivision_ray_outside_sigma():
    data = singularity_data(CyclicQuotient(7, (3,)))
    fan = FanSubdivision(
        data, [LatticeCone(((1, -1), (0, 1))), LatticeCone(((1, -1), (7, 4)))]
    )
    report = validate_subdivision(fan)
    assert report.ray_interior == (False,)
    assert not report.overall


def test_chain_fan_matches_rays():
    chain = hj_resolution(CyclicQuotient(7, (3,)))
    fan = chain_fan(chain)
    assert fan.rays == chain.rays
    assert len(fan.cones) == len(chain.rays) + 1


def test_fan_rays_are_the_cones_new_generators_in_order():
    quotient, cones = parse_subdivision_file(FAN_74)
    data = singularity_data(quotient)
    assert [ray.w for ray in FanSubdivision(data, cones).rays] == [(1, 1, 1), (2, 2, 1)]
    fan = FanSubdivision(data, cones[::-1])
    assert [ray.w for ray in fan.rays] == [(2, 2, 1), (1, 1, 1)]
    for ray in fan.rays:
        assert (ray.num, data.quotient.r) == (sum(x * y for x, y in zip(ray.w, data.r_gamma)), 7)


def test_fan_of_sigma_alone_has_no_rays():
    data = singularity_data(CyclicQuotient(7, (1, 4)))
    assert FanSubdivision(data, [data.sigma]).rays == ()


def test_fan_rejects_a_cone_of_lower_dimension():
    data = singularity_data(CyclicQuotient(7, (1, 4)))
    with pytest.raises(ValueError, match="not full-dimensional"):
        FanSubdivision(data, [data.sigma, LatticeCone(((1, 0), (0, 1)))])
