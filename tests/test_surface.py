from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from alequot.cli import resolve2d_report
from alequot.quotient import CyclicQuotient
from alequot.resolution import ExceptionalRay, hj_resolution, three_dim_family
from alequot.surface import (
    IntersectionMatrix,
    adjunction_check,
    energy,
    volume_density_inequality,
)
from oracles import coprime_pairs, det_by_permutations, invert_fraction_matrix, tridiagonal_rows


def chain_for(r, a):
    return hj_resolution(CyclicQuotient(r, (a,)))


def matrix_for(r, a):
    return IntersectionMatrix(bs=chain_for(r, a).self_intersections)


def inverse(m):
    return [[Fraction(x, m.determinant()) for x in m.adjugate_row(i)] for i in range(m.size)]


def betas(chain):
    return tuple([Fraction(ray.num, chain.quotient.r) for ray in chain.rays])


def energy_total(chain):
    return Fraction(energy(chain).total_num, chain.quotient.r ** 2)


def products(report, r):
    return {check.indices: Fraction(check.num, r ** len(check.indices)) for check in report.strata}


def test_intersection_matrix_entries():
    m = matrix_for(7, 3)
    rows = tridiagonal_rows(m.bs)
    assert rows == [[-3, 1, 0], [1, -2, 1], [0, 1, -2]]
    # the recurrence minors are the determinants of the dense leading blocks
    assert m.leading_minors() == [det_by_permutations([row[:j] for row in rows[:j]]) for j in (1, 2, 3)]
    assert tridiagonal_rows(matrix_for(2, 1).bs) == [[-2]]


def test_leading_minors_and_determinant():
    m = IntersectionMatrix(bs=(3, 2, 2))
    assert m.leading_minors() == [-3, 5, -7]
    assert m.determinant() == -7
    assert m.is_negative_definite()


def test_exact_inverse_of_worked_example():
    m = IntersectionMatrix(bs=(3, 2, 2))
    inv = inverse(m)
    # Cramer on the tridiagonal matrix: first row (-3/7, -2/7, -1/7)
    assert inv[0] == [Fraction(-3, 7), Fraction(-2, 7), Fraction(-1, 7)]
    assert inv[1][1] == Fraction(-6, 7)
    assert inv[2][2] == Fraction(-5, 7)
    assert all(entry < 0 for row in inv for entry in row)


def test_inverse_against_dense_elimination():
    for bs in [(2,), (3,), (3, 2, 2), (2, 2, 2, 2), (4, 2, 3), (5, 2, 2, 2, 3), (2, 3, 2, 4, 2, 2)]:
        m = IntersectionMatrix(bs=bs)
        assert inverse(m) == invert_fraction_matrix(tridiagonal_rows(bs))


def test_adjugate_rows_against_dense_elimination():
    for bs in [(2,), (2, 3, 2), (3, 2, 2), (5, 2, 2, 2, 3), (2, 3, 2, 4, 2, 2), (1, -1, 4)]:
        m = IntersectionMatrix(bs=bs)
        dense = invert_fraction_matrix(tridiagonal_rows(bs))
        for i in range(m.size):
            row = m.adjugate_row(i)
            assert all(type(x) is int for x in row)
            assert row == [x * m.determinant() for x in dense[i]]
    assert IntersectionMatrix(bs=(2, 3, 2)).adjugate_row(2) == [1, 2, 5]


def test_rows_outside_the_matrix_are_rejected():
    m = IntersectionMatrix(bs=(2, 3, 2))
    for i in (-1, m.size):
        with pytest.raises(ValueError):
            m.adjugate_row(i)


def test_fast_sign_check_agrees_with_inverse():
    # every chain with entries in -1..4 up to length 4, definite or not
    cases = [bs for k in range(1, 5) for bs in product(range(-1, 5), repeat=k)]
    for bs in cases:
        m = IntersectionMatrix(bs=bs)
        if m.determinant() == 0:
            continue
        slow = all(entry <= 0 for row in inverse(m) for entry in row)
        assert m.inverse_entries_nonpositive() == slow, bs


def test_inverse_identity_property():
    m = IntersectionMatrix(bs=(3, 2, 4, 2))
    inv = inverse(m)
    rows = tridiagonal_rows(m.bs)
    k = m.size
    for i in range(k):
        for j in range(k):
            entry = sum(Fraction(rows[i][l]) * inv[l][j] for l in range(k))
            assert entry == (1 if i == j else 0)


def test_determinant_magnitude_is_group_order():
    for r, a in coprime_pairs(60):
        m = matrix_for(r, a)
        assert abs(m.determinant()) == r


def test_negative_definite_and_inverse_sweep():
    for r, a in coprime_pairs(100):
        m = matrix_for(r, a)
        assert m.is_negative_definite()
        assert m.inverse_entries_nonpositive()


def test_adjunction_worked_rows():
    chain = chain_for(7, 3)
    b = betas(chain)
    # row 1: (4/7-1)(-3) + (5/7-1)(1) = 1 = b_1 - 2
    assert (b[0] - 1) * -3 + (b[1] - 1) == 1
    # row 2: (4/7-1) + (5/7-1)(-2) + (6/7-1) = 0 = b_2 - 2
    assert (b[0] - 1) + (b[1] - 1) * -2 + (b[2] - 1) == 0
    assert adjunction_check(chain)


def test_adjunction_sweep():
    for r, a in coprime_pairs(100):
        assert adjunction_check(chain_for(r, a))


def test_adjunction_fails_under_beta_mutation():
    chain = chain_for(7, 3)
    for idx in range(3):
        for eps in (1, -1, 7, -7):   # beta moves by 1/r and by 1
            rays = list(chain.rays)
            rays[idx] = ExceptionalRay(rays[idx].w, rays[idx].num + eps)
            mutated = type(chain)(
                quotient=chain.quotient,
                rays=tuple(rays),
                self_intersections=chain.self_intersections,
            )
            assert not adjunction_check(mutated)


def test_energy_frozen_values():
    assert energy_total(chain_for(2, 1)) == Fraction(3, 2)
    assert energy_total(chain_for(7, 3)) == Fraction(113, 49)
    assert energy_total(chain_for(5, 4)) == Fraction(24, 5)


def test_energy_crepant_series():
    for r in range(2, 30):
        chain = chain_for(r, r - 1)
        breakdown = energy(chain)
        assert energy_total(chain) == r - Fraction(1, r)
        assert all(Fraction(x, r) == 0 for x in breakdown.curve_nums)
        assert all(Fraction(x, r * r) == 0 for x in breakdown.node_nums)


def test_energy_breakdown_structure():
    chain = chain_for(7, 3)
    bk = energy(chain)
    curve_terms = tuple([Fraction(x, 7) for x in bk.curve_nums])
    node_terms = tuple([Fraction(x, 49) for x in bk.node_nums])
    group_term = Fraction(-1, 7)   # -1/r, printed as the report's group_term
    assert bk.chi_x == 4
    assert curve_terms == (Fraction(-3, 7), Fraction(0), Fraction(-1, 7))
    assert node_terms == (Fraction(20, 49) - 1, Fraction(30, 49) - 1)
    assert resolve2d_report(7, 3)[0]["energy"]["group_term"] == str(group_term)
    assert energy_total(chain) == bk.chi_x + sum(curve_terms) + sum(node_terms) + group_term
    assert bk.conditional
    assert not energy(chain_for(2, 1)).conditional


def test_energy_invariant_under_chain_reversal():
    for r, a in coprime_pairs(40):
        chain = chain_for(r, a)
        reversed_chain = type(chain)(
            quotient=chain.quotient,
            rays=tuple(reversed(chain.rays)),
            self_intersections=tuple(reversed(chain.self_intersections)),
        )
        assert energy_total(chain) == energy_total(reversed_chain)


def test_volume_density_inequality_chain():
    chain = chain_for(7, 3)
    report = volume_density_inequality(chain)
    assert report.overall
    product = products(report, 7)
    assert product[(0,)] == Fraction(4, 7)
    assert product[(0, 1)] == Fraction(20, 49)
    assert product[(1, 2)] == Fraction(30, 49)


def test_volume_density_inequality_calabi_series():
    for r in range(2, 40):
        chain = chain_for(r, 1)
        report = volume_density_inequality(chain)
        assert report.overall
        assert products(report, r)[(0,)] == Fraction(2, r)


def test_volume_density_inequality_family():
    fan = three_dim_family(7, 4)
    report = volume_density_inequality(fan)
    assert report.overall
    assert products(report, 7)[(0, 1)] == Fraction(30, 49)


def stub_resolution(r, rays, strata):
    """The three things volume_density_inequality reads from a resolution."""
    return SimpleNamespace(quotient=SimpleNamespace(r=r), rays=rays, strata=strata)


def test_volume_density_inequality_can_fail():
    rays = (ExceptionalRay((1, 1), 1),)   # beta = 1/7 = nu: equal, so not strict
    report = volume_density_inequality(stub_resolution(7, rays, [(0,)]))
    assert not report.overall
    assert not report.strata[0].strict


def test_stratum_checks_are_plain_tuples_with_names():
    chain, node = chain_for(7, 3), (0, 1)
    report = volume_density_inequality(stub_resolution(7, chain.rays, [node]))
    assert report.strata == (((0, 1), 20, True),)
    assert report.strata[0].indices is node and report.strata[0].num == 20   # the stratum is kept, not copied


def test_volume_density_sweep():
    for r, a in coprime_pairs(100):
        chain = chain_for(r, a)
        report = volume_density_inequality(chain)
        assert report.overall
