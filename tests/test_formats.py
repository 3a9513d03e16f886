from fractions import Fraction
from pathlib import Path

import pytest

from alequot.formats import (
    ParseError,
    parse_run_file,
    parse_subdivision_file,
    rational_str,
    real_str,
)

FAN_74 = """\
# five-cone family fan for order 7, weights (1, 1, 4)
dim 3
quotient 7 1 4
cone 1 1 1 | 0 1 0 | 0 0 1
cone 7 6 3 | 1 1 1 | 0 0 1
cone 2 2 1 | 0 1 0 | 1 1 1
cone 7 6 3 | 2 2 1 | 1 1 1
cone 7 6 3 | 0 1 0 | 2 2 1
"""

RUN_OK = """\
n = 3
r = 7
C = 1.0
s0 = 5.0
w = 2.0
c = -0.25
nodes = 256
"""


def test_rational_round_trip():
    for value in (Fraction(4, 7), Fraction(-3, 7), Fraction(5), Fraction(-19, 49), Fraction(0)):
        assert Fraction(rational_str(value.numerator, value.denominator)) == value
    # unreduced pairs and negative denominators print as str(Fraction(num, den)) does
    for num, den in ((6, 14), (-6, 14), (6, -14), (-6, -14), (49, 7), (0, -7), (-20, 49)):
        assert rational_str(num, den) == str(Fraction(num, den))


def test_real_str_significant_digits():
    assert real_str(1.0 / 3.0) == 0.333333333333
    assert real_str(2.0) == 2.0
    assert real_str(1.23456789012345e-7) == 1.23456789012e-7


def test_parse_subdivision_file():
    quotient, cones = parse_subdivision_file(FAN_74)
    assert quotient.r == 7 and quotient.weights == (1, 4)
    assert len(cones) == 5
    assert cones[0].generators == ((1, 1, 1), (0, 1, 0), (0, 0, 1))


def test_parse_subdivision_comments_and_blanks():
    text = "\n# leading comment\n\ndim 2\nquotient 7 3  # trailing comment\ncone 7 4 | 0 1\n"
    quotient, cones = parse_subdivision_file(text)
    assert quotient.r == 7
    assert cones[0].generators == ((7, 4), (0, 1))


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("dim 2\nquotient 7 3\ncone 7 4 | 0\n", 3),          # short generator
        ("dim 2\nquotient 7 3\ncone 7 4\n", 3),               # missing separator
        ("dim 2\nquotient 7 3 9\ncone 7 4 | 0 1\n", 2),       # too many weights
        ("dim 2\nquotient 4 2\ncone 4 2 | 0 1\n", 2),         # non-free action
        ("quotient 7 3\ncone 7 4 | 0 1\n", 1),                # missing dim
        ("dim 2\nquotient 7 3\nwedge 1 1\n", 3),              # unknown keyword
        ("dim 2\nquotient 7 3\ncone 7 4 | 0 x\n", 3),         # non-integer entry
    ],
)
def test_parse_subdivision_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(ParseError) as err:
        parse_subdivision_file(text)
    assert err.value.line == bad_line


def test_parse_subdivision_requires_cones():
    with pytest.raises(ParseError):
        parse_subdivision_file("dim 2\nquotient 7 3\n")


def test_parse_run_file():
    config, grid = parse_run_file(RUN_OK)
    assert config.n == 3 and config.r_order == 7
    assert config.calabi_c == 1.0 and config.c == -0.25
    assert grid.m == 256
    assert grid.s_min == 1e-2 and grid.s_max == 1e4   # defaults


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("n = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = oops\n", 5),
        ("n = 3\nC = 1.0\nbogus = 4\ns0 = 5.0\nw = 2.0\nc = 0.0\n", 3),
        ("n = 3\nn = 4\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = 0.0\n", 2),
        ("n = 3\nC 1.0\n", 2),
        ("n = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = 0.0\nnewton_tol = 1e-11\n", 6),   # removed key
        ("n = 3\nC = 1.0\nt_steps = 10\ns0 = 5.0\nw = 2.0\nc = 0.0\n", 3),   # removed key
        # values PathConfig or RadialGrid rejects: the line of the key that set them
        ("n = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = 0.0\nnodes = 8\n", 6),
        ("n = 3\nC = -1.0\ns0 = 5.0\nw = 2.0\nc = 0.0\n", 2),
        ("n = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = 0.0\ns_min = 4.0\nnodes = 256\n", 6),   # bump not interior
        ("n = 3\ns_min = 20000\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = 0.0\n", 2),   # above the default s_max
        ("n = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = 0.0\ns_min = 1e-200\n", 6),   # C s_min^-n overflows
        (f"n = {10**400}\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = 0.0\n", 5),   # n K(s0 + w): n is no float
        # K(s0 + w) = 5.03e307 and C s_min^-n are finite, C + n K is not: the check reads C (line 7) too
        ("n = 2\ns0 = 1e155\nw = 2e153\nc = 0.25\ns_min = 2\ns_max = 1e300\nC = 1e308\n", 7),
        # a check of several keys names the last line among them: s_min, then s0 and w
        ("s_min = 4.0\nn = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = 0.0\n", 5),
    ],
)
def test_parse_run_file_errors(text, bad_line):
    with pytest.raises(ParseError) as err:
        parse_run_file(text)
    assert err.value.line == bad_line


def readme_run_file() -> str:
    """The first fenced block under "### Solver run files" in the README."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("### Solver run files", 1)[1].split("```\n", 2)[1]


def test_readme_run_file_example_parses():
    config, grid = parse_run_file(readme_run_file())
    assert (config.n, config.r_order, grid.m) == (3, 7, 2048)


def test_parse_run_file_missing_keys():
    with pytest.raises(ParseError, match="missing required"):
        parse_run_file("n = 3\nC = 1.0\n")


def test_parse_run_file_rejects_exterior_bump():
    with pytest.raises(ParseError):
        parse_run_file("n = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = -0.25\ns_min = 4.0\n")
