import math
import random
from fractions import Fraction

import pytest

import alequot.lattice as lattice
from alequot.lattice import (
    LatticeCone,
    contains_in_interior,
    unit_vector,
)
from oracles import det_by_permutations, lattice_index_by_counting, solve_fraction


def det(rows):
    """The determinant a cone keeps from its construction."""
    return LatticeCone(tuple(rows)).determinant


def random_cone_rows(rng, n, bound):
    """n random primitive rows of length n, independent or not."""
    while True:
        rows = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)]
        if all(math.gcd(*v) == 1 for v in rows):
            return rows


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
    for rows in ([(1, 2), (-1, -2)], [(1, 0, 0), (0, 1, 1), (1, 1, 1)]):
        with pytest.raises(ValueError, match="linearly dependent"):
            det(rows)


def test_det_matches_permutation_expansion():
    rng = random.Random(20240811)
    for _ in range(300):
        rows = random_cone_rows(rng, rng.randint(1, 4), 9)
        if det_by_permutations(rows) == 0:
            with pytest.raises(ValueError, match="linearly dependent"):
                det(rows)
        else:
            assert det(rows) == det_by_permutations(rows)


def test_cone_keeps_its_determinant():
    # the determinant is computed once, from the generators as given, and is kept
    # out of equality and repr; list rows build the same cone as tuple rows
    rng = random.Random(5)
    built = 0
    while built < 100:
        rows = random_cone_rows(rng, rng.randint(1, 4), 5)
        if det_by_permutations(rows) == 0:
            continue
        cone = LatticeCone(tuple(rows))
        from_lists = LatticeCone([list(g) for g in rows])
        assert from_lists == cone and from_lists.generators == cone.generators
        assert cone.determinant == from_lists.determinant == det_by_permutations(rows)
        assert "determinant" not in repr(cone)
        built += 1


def test_det_alternating_under_row_swap():
    rng = random.Random(7)
    built = 0
    while built < 100:
        n = rng.randint(2, 4)
        rows = random_cone_rows(rng, n, 20)
        if det_by_permutations(rows) == 0:
            continue
        i, j = rng.sample(range(n), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det(swapped) == -det(rows)
        built += 1


def test_det_large_entries_exact():
    r = 10**30 + 7
    assert det([(r, r - 3), (0, 1)]) == r


def test_cone_constructor_validation():
    with pytest.raises(ValueError):
        LatticeCone(((2, 4), (0, 1)))     # non-primitive generator
    with pytest.raises(ValueError):
        LatticeCone(((1, 2), (-1, -2)))   # linearly dependent generators
    with pytest.raises(ValueError):
        LatticeCone(((1, 0, 0), (0, 1, 0)))  # wrong generator count


@pytest.mark.parametrize("gens, message", [
    (((1, 2.0), (0, 1)), "generator entries must be ints, got 2.0"),
    (((1, 0), (True, 1)), "generator entries must be ints, got True"),
], ids=["float", "bool"])
def test_cone_generator_entry_messages(gens, message):
    # a subdivision file holds only int vectors, so these are pinned here; the zero and
    # non-primitive messages are pinned through check-subdivision in tests/test_cli.py
    with pytest.raises(ValueError) as info:
        LatticeCone(gens)
    assert str(info.value) == message


def test_cone_checks_each_generator_once(monkeypatch):
    checked, original = [], lattice._check_int_vec

    def counting(v, what="vector"):
        checked.append(v)
        return original(v, what)

    monkeypatch.setattr(lattice, "_check_int_vec", counting)
    assert LatticeCone(((1, 1, 1), (0, 1, 0), (0, 0, 1))).determinant == 1
    assert LatticeCone(((-1,),)).determinant == -1
    assert checked == [(1, 1, 1), (0, 1, 0), (0, 0, 1), (-1,)]


def test_cone_coordinates_round_trip():
    rng = random.Random(31337)
    built = 0
    while built < 150:
        n = rng.randint(2, 4)
        gens = []
        for _ in range(n):
            v = tuple(rng.randint(-6, 6) for _ in range(n))
            if any(v):
                g = math.gcd(*v)
                gens.append(tuple([e // g for e in v]))
        if len(gens) < n or det_by_permutations(gens[:n]) == 0:
            continue
        cone = LatticeCone(tuple(gens[:n]))
        w = tuple(rng.randint(-15, 15) for _ in range(n))
        lams = solve_fraction(cone.generators, w)
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


def test_contains_in_interior_checks_the_vector():
    cone = LatticeCone(((7, 6, 3), (0, 1, 0), (0, 0, 1)))
    for w in ((1, 1), (1, 1, 1, 1), (1, 1.0, 1), (1, True, 1), [1, 1, 1], ()):
        with pytest.raises(ValueError):
            contains_in_interior(w, cone)


def test_det_equals_sublattice_index():
    rng = random.Random(4242)
    built = 0
    while built < 40:
        rows = random_cone_rows(rng, rng.randint(2, 3), 3)
        if det_by_permutations(rows) == 0:
            continue
        assert abs(det(rows)) == lattice_index_by_counting(rows)
        built += 1
