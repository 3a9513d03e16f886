from fractions import Fraction

import pytest

from alequot.cli import resolve2d_report, resolve3d_report
from alequot.quotient import CyclicQuotient, singularity_data
from oracles import coprime_pairs, det_by_permutations


def gamma(data):
    """gamma as exact rationals: the stored integer covector r gamma over r."""
    return tuple([Fraction(x, data.quotient.r) for x in data.r_gamma])


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        CyclicQuotient(1, (1,))
    with pytest.raises(ValueError):
        CyclicQuotient(4, (2,))           # gcd(2, 4) > 1
    with pytest.raises(ValueError):
        CyclicQuotient(7, (0,))
    with pytest.raises(ValueError):
        CyclicQuotient(7, (7,))
    with pytest.raises(ValueError):
        CyclicQuotient(7, ())
    with pytest.raises(ValueError):
        CyclicQuotient(9, (1, 3))         # second weight not a unit


def test_sigma_cone_examples():
    assert singularity_data(CyclicQuotient(7, (3,))).sigma.generators == ((7, 4), (0, 1))
    assert singularity_data(CyclicQuotient(2, (1,))).sigma.generators == ((2, 1), (0, 1))
    assert singularity_data(CyclicQuotient(7, (1, 4))).sigma.generators == (
        (7, 6, 3),
        (0, 1, 0),
        (0, 0, 1),
    )


def test_sigma_cone_determinant_is_group_order():
    for r, a in coprime_pairs(40):
        assert abs(det_by_permutations(singularity_data(CyclicQuotient(r, (a,))).sigma.generators)) == r
    assert abs(det_by_permutations(singularity_data(CyclicQuotient(11, (3, 5))).sigma.generators)) == 11


def test_gamma_examples():
    assert gamma(singularity_data(CyclicQuotient(7, (3,)))) == (Fraction(-3, 7), Fraction(1))
    # Gorenstein A-series: gamma integral
    for r in (2, 5, 9):
        assert gamma(singularity_data(CyclicQuotient(r, (r - 1,)))) == (Fraction(0), Fraction(1))
    assert gamma(singularity_data(CyclicQuotient(7, (1, 4)))) == (Fraction(-8, 7), Fraction(1), Fraction(1))


def test_gamma_pairing_property_surface_sweep():
    # <g, gamma> = 1 for every generator, exhaustively for surfaces up to r = 200
    for r, a in coprime_pairs(200):
        q = CyclicQuotient(r, (a,))
        g = gamma(singularity_data(q))
        for generator in singularity_data(q).sigma.generators:
            assert sum(Fraction(c) * gc for c, gc in zip(generator, g)) == 1


def test_gamma_pairing_property_threefolds():
    for r, a2 in coprime_pairs(60):
        for a3 in range(1, r):
            from math import gcd

            if gcd(a3, r) != 1:
                continue
            q = CyclicQuotient(r, (a2, a3))
            g = gamma(singularity_data(q))
            for generator in singularity_data(q).sigma.generators:
                assert sum(Fraction(c) * gc for c, gc in zip(generator, g)) == 1


def test_gorenstein_index():
    assert singularity_data(CyclicQuotient(7, (3,))).gorenstein_index == 7
    assert singularity_data(CyclicQuotient(7, (1, 4))).gorenstein_index == 7
    for r in (2, 3, 10):
        assert singularity_data(CyclicQuotient(r, (r - 1,))).gorenstein_index == 1


def test_gorenstein_index_divides_r():
    for r, a in coprime_pairs(80):
        assert r % singularity_data(CyclicQuotient(r, (a,))).gorenstein_index == 0


def test_volume_density():
    # 1/r is the covolume of the quotient lattice, 1/|det sigma|, and the reports print it
    for r, weights, (report, _) in ((7, (3,), resolve2d_report(7, 3)), (2, (1,), resolve2d_report(2, 1)),
                                    (7, (1, 4), resolve3d_report(7, 4))):
        data = singularity_data(CyclicQuotient(r, weights))
        assert Fraction(1, abs(data.sigma.determinant)) == Fraction(1, r)
        assert Fraction(report["singularity"]["volume_density"]) == Fraction(1, r)


def test_singularity_data_bundle():
    data = singularity_data(CyclicQuotient(7, (3,)))
    assert data.sigma.generators == ((7, 4), (0, 1))
    assert gamma(data) == (Fraction(-3, 7), Fraction(1))
    assert data.gorenstein_index == 7
    assert Fraction(1, abs(data.sigma.determinant)) == Fraction(1, 7)
