"""File formats and report serialization.

Two hand-writable text formats feed the CLI:

  subdivision file      one header pair plus one line per cone
      dim 3
      quotient 7 1 4
      cone 1 1 1 | 0 1 0 | 0 0 1
      ...

  solver run file       flat key = value pairs
      n = 3
      C = 1.0
      s0 = 5.0
      ...

Reports serialize every exact rational as a "p/q" string (round-trips through
Fraction losslessly) and every real rounded to 12 significant digits, so
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lattice import LatticeCone
from .quotient import CyclicQuotient


class ParseError(ValueError):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def rational_str(num: Fraction | int, den: int = 1) -> str:
    """The exact value num / den as "p/q" in lowest terms with q > 0, or "p"
    when q = 1, the text str(Fraction(num, den)) gives.  An int numerator and
    denominator are reduced here without building a Fraction; a Fraction
    (with den = 1) is printed as it is."""
    if den != 1:
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        num, den = num // g, den // g
        if den != 1:
            return f"{num}/{den}"
    return str(num)


def real_str(value: float) -> float:
    """Round a float to 12 significant digits for deterministic reports."""
    return float(f"{value:.12g}")


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_subdivision_file(text: str) -> tuple[CyclicQuotient, list[LatticeCone]]:
    """Parse a subdivision file into the quotient and its candidate cones."""
    dim = None
    quotient = None
    cones: list[LatticeCone] = []
    for lineno, line in _content_lines(text):
        fields = line.split()
        keyword = fields[0]
        if keyword == "dim":
            if dim is not None:
                raise ParseError(lineno, "duplicate dim line")
            if len(fields) != 2:
                raise ParseError(lineno, "expected: dim N")
            try:
                dim = int(fields[1])
            except ValueError:
                raise ParseError(lineno, f"dimension {fields[1]!r} is not an integer") from None
            if dim < 2:
                raise ParseError(lineno, f"dimension must be >= 2, got {dim}")
        elif keyword == "quotient":
            if dim is None:
                raise ParseError(lineno, "quotient line must come after the dim line")
            if quotient is not None:
                raise ParseError(lineno, "duplicate quotient line")
            try:
                numbers = [int(f) for f in fields[1:]]
            except ValueError:
                raise ParseError(lineno, "quotient line must contain integers") from None
            if len(numbers) != dim:
                raise ParseError(
                    lineno, f"expected r and {dim - 1} weights, got {len(numbers)} numbers"
                )
            try:
                quotient = CyclicQuotient(r=numbers[0], weights=tuple(numbers[1:]))
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
        elif keyword == "cone":
            if quotient is None:
                raise ParseError(lineno, "cone lines must come after the quotient line")
            body = line[len("cone"):].strip()
            parts = [p.strip() for p in body.split("|")]
            if len(parts) != dim:
                raise ParseError(lineno, f"expected {dim} generators separated by '|'")
            gens = []
            for part in parts:
                try:
                    vec = tuple(int(f) for f in part.split())
                except ValueError:
                    raise ParseError(lineno, f"generator {part!r} is not an integer vector") from None
                if len(vec) != dim:
                    raise ParseError(lineno, f"generator {part!r} has wrong dimension")
                gens.append(vec)
            try:
                cones.append(LatticeCone(tuple(gens)))
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
        else:
            raise ParseError(lineno, f"unknown keyword {keyword!r}")
    if quotient is None:
        raise ParseError(1, "missing quotient line")
    if not cones:
        raise ParseError(1, "no cones declared")
    return quotient, cones


_RUN_KEYS = {
    "n": int,
    "r": int,
    "C": float,
    "s0": float,
    "w": float,
    "c": float,
    "s_min": float,
    "s_max": float,
    "nodes": int,
    "t_steps": int,
    "newton_tol": float,
}

_RUN_DEFAULTS = {
    "r": 1,
    "s_min": 1e-2,
    "s_max": 1e4,
    "nodes": 2048,
    "t_steps": 10,
    "newton_tol": None,  # automatic: stop at the round-off floor
}


def parse_run_file(text: str) -> tuple[PathConfig, RadialGrid]:
    """Parse a flat key = value run file into a PathConfig and its grid."""
    from .radial import PathConfig, RadialGrid  # numpy/scipy load with the first run file
    seen: dict[str, object] = {}
    for lineno, line in _content_lines(text):
        if "=" not in line:
            raise ParseError(lineno, "expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _RUN_KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in seen:
            raise ParseError(lineno, f"duplicate key {key!r}")
        try:
            seen[key] = _RUN_KEYS[key](value)
        except ValueError:
            raise ParseError(lineno, f"cannot parse {value!r} as {_RUN_KEYS[key].__name__}") from None
        if _RUN_KEYS[key] is float and not math.isfinite(seen[key]):
            raise ParseError(lineno, f"{key} must be finite, got {value!r}")
    missing = [k for k in ("n", "C", "s0", "w", "c") if k not in seen]
    if missing:
        raise ParseError(1, f"missing required keys: {', '.join(missing)}")
    params = dict(_RUN_DEFAULTS)
    params.update(seen)
    try:
        config = PathConfig(
            n=params["n"],
            calabi_c=params["C"],
            s0=params["s0"],
            w=params["w"],
            c=params["c"],
            r_order=params["r"],
            t_steps=params["t_steps"],
            newton_tol=params["newton_tol"],
        )
        grid = RadialGrid(s_min=params["s_min"], s_max=params["s_max"], m=params["nodes"])
        config.validate_against(grid)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None
    return config, grid
