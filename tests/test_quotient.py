from fractions import Fraction

import pytest

import alequot.quotient as quotient
from alequot.cli import main, resolve2d_report, resolve3d_report
from alequot.quotient import CyclicQuotient
from oracles import coprime_pairs, det_by_permutations


def gamma(q):
    """gamma as exact rationals: the stored integer covector r gamma over r."""
    return tuple([Fraction(x, q.r) for x in q.r_gamma])


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
    assert CyclicQuotient(7, (3,)).sigma.generators == ((7, 4), (0, 1))
    assert CyclicQuotient(2, (1,)).sigma.generators == ((2, 1), (0, 1))
    assert CyclicQuotient(7, (1, 4)).sigma.generators == (
        (7, 6, 3),
        (0, 1, 0),
        (0, 0, 1),
    )


def test_sigma_cone_determinant_is_group_order():
    for r, a in coprime_pairs(40):
        assert abs(det_by_permutations(CyclicQuotient(r, (a,)).sigma.generators)) == r
    assert abs(det_by_permutations(CyclicQuotient(11, (3, 5)).sigma.generators)) == 11


def test_gamma_examples():
    assert gamma(CyclicQuotient(7, (3,))) == (Fraction(-3, 7), Fraction(1))
    # Gorenstein A-series: gamma integral
    for r in (2, 5, 9):
        assert gamma(CyclicQuotient(r, (r - 1,))) == (Fraction(0), Fraction(1))
    assert gamma(CyclicQuotient(7, (1, 4))) == (Fraction(-8, 7), Fraction(1), Fraction(1))


def test_gamma_pairing_property_surface_sweep():
    # <g, gamma> = 1 for every generator, exhaustively for surfaces up to r = 200
    for r, a in coprime_pairs(200):
        q = CyclicQuotient(r, (a,))
        g = gamma(q)
        for generator in q.sigma.generators:
            assert sum(Fraction(c) * gc for c, gc in zip(generator, g)) == 1


def test_gamma_pairing_property_threefolds():
    for r, a2 in coprime_pairs(60):
        for a3 in range(1, r):
            from math import gcd

            if gcd(a3, r) != 1:
                continue
            q = CyclicQuotient(r, (a2, a3))
            g = gamma(q)
            for generator in q.sigma.generators:
                assert sum(Fraction(c) * gc for c, gc in zip(generator, g)) == 1


def test_gorenstein_index():
    assert CyclicQuotient(7, (3,)).gorenstein_index == 7
    assert CyclicQuotient(7, (1, 4)).gorenstein_index == 7
    for r in (2, 3, 10):
        assert CyclicQuotient(r, (r - 1,)).gorenstein_index == 1


def test_gorenstein_index_divides_r():
    for r, a in coprime_pairs(80):
        assert r % CyclicQuotient(r, (a,)).gorenstein_index == 0


def test_volume_density():
    # 1/r is the covolume of the quotient lattice, 1/|det sigma|, and the reports print it
    for r, weights, (report, _) in ((7, (3,), resolve2d_report(7, 3)), (2, (1,), resolve2d_report(2, 1)),
                                    (7, (1, 4), resolve3d_report(7, 4))):
        q = CyclicQuotient(r, weights)
        assert Fraction(1, abs(q.sigma.determinant)) == Fraction(1, r)
        assert Fraction(report["singularity"]["volume_density"]) == Fraction(1, r)


def test_singularity_data_bundle():
    q = CyclicQuotient(7, (3,))
    assert q.sigma.generators == ((7, 4), (0, 1))
    assert gamma(q) == (Fraction(-3, 7), Fraction(1))
    assert q.gorenstein_index == 7
    assert Fraction(1, abs(q.sigma.determinant)) == Fraction(1, 7)


def test_toric_data_is_built_once_and_is_not_part_of_the_value():
    q = CyclicQuotient(7, (1, 4))
    assert q.sigma is q.sigma and q.r_gamma is q.r_gamma
    fresh = CyclicQuotient(7, (1, 4))
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh) == "CyclicQuotient(r=7, weights=(1, 4))"


def test_gamma_self_check_fails_with_the_internal_error_code(monkeypatch, capsys):
    # a slip in the pairing route must stop the run: the closed formula alone is not trusted
    monkeypatch.setattr(quotient, "pairing", lambda w, c: sum(x * y for x, y in zip(w, c)) + 1)
    assert main(["resolve2d", "7", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: gamma self-check failed")
