import random
from fractions import Fraction

import pytest

from alequot.lattice import (
    LatticeCone,
    cone_coordinates,
    contains_in_interior,
    det,
    make_primitive,
    unit_vector,
)
from oracles import det_by_permutations, lattice_index_by_counting


def test_det_frozen_examples():
    assert det([(7, 4), (0, 1)]) == 7
    assert det([unit_vector(i, 5) for i in range(5)]) == 1
    assert det([(7, 6, 3), (0, 1, 0), (0, 0, 1)]) == 7


def test_det_dimension_mismatch():
    with pytest.raises(ValueError):
        det([(1, 2, 3), (0, 1)])
    with pytest.raises(ValueError):
        det([(1, 2, 3), (0, 1, 0)])


def test_det_singular():
    assert det([(2, 4), (1, 2)]) == 0
    assert det([(1, 0, 0), (0, 1, 1), (1, 1, 1)]) == 0


def test_det_matches_permutation_expansion():
    rng = random.Random(20240811)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)]
        assert det(rows) == det_by_permutations(rows)


def test_det_alternating_under_row_swap():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 4)
        rows = [tuple(rng.randint(-20, 20) for _ in range(n)) for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det(swapped) == -det(rows)


def test_det_large_entries_exact():
    r = 10**30 + 7
    assert det([(r, r - 3), (0, 1)]) == r


def test_make_primitive():
    assert make_primitive((2, 2)) == (1, 1)
    assert make_primitive((1, 1)) == (1, 1)
    assert make_primitive((6, 4, 2)) == (3, 2, 1)
    assert make_primitive((-4, 6)) == (-2, 3)


def test_make_primitive_idempotent():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 4)
        v = tuple(rng.randint(-30, 30) for _ in range(n))
        if all(e == 0 for e in v):
            continue
        p = make_primitive(v)
        assert make_primitive(p) == p


def test_make_primitive_rejects_zero():
    with pytest.raises(ValueError):
        make_primitive((0, 0, 0))


def test_cone_constructor_validation():
    with pytest.raises(ValueError):
        LatticeCone(((2, 4), (0, 1)))     # non-primitive generator
    with pytest.raises(ValueError):
        LatticeCone(((1, 2), (-1, -2)))   # linearly dependent generators
    with pytest.raises(ValueError):
        LatticeCone(((1, 0, 0), (0, 1, 0)))  # wrong generator count


def test_cone_coordinates_examples():
    cone = LatticeCone(((7, 4), (0, 1)))
    assert cone_coordinates((1, 1), cone) == (Fraction(1, 7), Fraction(3, 7))
    assert cone_coordinates((7, 4), cone) == (Fraction(1), Fraction(0))
    cone3 = LatticeCone(((7, 6, 3), (0, 1, 0), (0, 0, 1)))
    assert cone_coordinates((1, 1, 1), cone3) == (
        Fraction(1, 7),
        Fraction(1, 7),
        Fraction(4, 7),
    )


def test_cone_coordinates_round_trip():
    rng = random.Random(31337)
    built = 0
    while built < 150:
        n = rng.randint(2, 4)
        gens = []
        for _ in range(n):
            v = tuple(rng.randint(-6, 6) for _ in range(n))
            if any(v):
                gens.append(make_primitive(v))
        if len(gens) < n or det(gens[:n]) == 0:
            continue
        cone = LatticeCone(tuple(gens[:n]))
        w = tuple(rng.randint(-15, 15) for _ in range(n))
        lams = cone_coordinates(w, cone)
        rebuilt = tuple(
            sum(lam * g[i] for lam, g in zip(lams, cone.generators)) for i in range(n)
        )
        assert rebuilt == tuple(Fraction(e) for e in w)
        # the integer Cramer signs agree with the Fraction elimination
        assert contains_in_interior(w, cone) == all(lam > 0 for lam in lams)
        built += 1


def test_contains_in_interior():
    cone = LatticeCone(((7, 4), (0, 1)))
    assert contains_in_interior((1, 1), cone)
    assert not contains_in_interior((7, 4), cone)       # boundary generator
    assert not contains_in_interior((0, 1), cone)
    assert not contains_in_interior((-1, 0), cone)


def test_det_equals_sublattice_index():
    rng = random.Random(4242)
    built = 0
    while built < 40:
        n = rng.randint(2, 3)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        d = det(rows)
        if d == 0:
            continue
        assert abs(d) == lattice_index_by_counting(rows)
        built += 1
