"""Structured property tests for the covering certificate: every five-cone
family fan and every chain fan tiles sigma, and no mutation of one does.

The mutations are the ways a fan file goes wrong: a cone dropped, a cone
copied over another, one generator of one cone moved to a nearby primitive
lattice point, and (in dimension 3) two cones that share a face merged into
one cone over three of their four generators.  In dimension 2 a merge over
the two outer rays is a coarser fan, so it is not a mutation there.
"""

from hypothesis import assume, given, settings, strategies as st

from alequot.lattice import LatticeCone
from alequot.quotient import CyclicQuotient
from alequot.resolution import (
    FanSubdivision,
    hj_resolution,
    three_dim_family,
    validate_subdivision,
)
from oracles import coprime_pairs
from test_resolution import chain_fan

FAMILY = [(r, a) for r in range(6, 401) for a in range(3, r - 2) if (r + 1) % a == 0]
CHAINS = list(coprime_pairs(60))


def _chain(r, a):
    return chain_fan(hj_resolution(CyclicQuotient(r, (a,))))


def test_family_and_chain_fans_pass_covering():
    assert len(FAMILY) == 1469
    for r, a in FAMILY:
        assert validate_subdivision(three_dim_family(r, a)).covering_ok, (r, a)
    for r, a in CHAINS:
        assert validate_subdivision(_chain(r, a)).covering_ok, (r, a)


fans = st.one_of(
    st.sampled_from(FAMILY).map(lambda p: three_dim_family(*p)),
    st.sampled_from(CHAINS).map(lambda p: _chain(*p)),
)


@st.composite
def mutated_fans(draw):
    fan = draw(fans)
    cones = [cone.generators for cone in fan.cones]
    n = fan.parent.sigma.dim
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "merge"] if n == 3 else ["drop", "duplicate", "swap"]))
    i = draw(st.integers(0, len(cones) - 1))
    if kind == "drop":
        del cones[i]
    elif kind == "duplicate":
        j = draw(st.integers(0, len(cones) - 1).filter(lambda j: j != i))
        cones[j] = cones[i]
    elif kind == "swap":
        k = draw(st.integers(0, n - 1))
        step = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
        moved = tuple([x + d for x, d in zip(cones[i][k], step)])
        cones[i] = cones[i][:k] + (moved,) + cones[i][k + 1:]
    else:
        neighbours = [j for j, cone in enumerate(cones) if len(set(cone) & set(cones[i])) == n - 1]
        j = draw(st.sampled_from(neighbours))
        generators = sorted(set(cones[i]) | set(cones[j]))
        del generators[draw(st.integers(0, n))]
        cones = [cone for m, cone in enumerate(cones) if m not in (i, j)] + [tuple(generators)]
    return fan.parent, kind, cones


@settings(max_examples=400, derandomize=True, deadline=None)
@given(mutated_fans())
def test_no_mutated_fan_passes_covering(case):
    data, kind, cones = case
    try:
        lattice_cones = [LatticeCone(cone) for cone in cones]
    except ValueError:  # zero, non-primitive or dependent generators: no fan to certify
        assume(False)
    report = validate_subdivision(FanSubdivision(data, lattice_cones))
    assert not report.covering_ok, (kind, cones)
