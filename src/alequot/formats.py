"""Input file formats and the number formatting reports share (`cli._dumps`
writes the reports themselves).

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

Both are read as UTF-8.  Reports print every exact rational as a lossless
"p/q" string and every real rounded to 12 significant digits, so identical
inputs produce byte-identical reports.
"""

from __future__ import annotations

import math

from .lattice import LatticeCone
from .quotient import CyclicQuotient


class ParseError(ValueError):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def rational_str(num: int, den: int) -> str:
    """The exact value num / den (integers, den != 0) as "p/q" in lowest terms
    with q > 0, or "p" when q = 1, as the standard library's Fraction prints it."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def read_text(path: str) -> str:
    """An input file's text, decoded as UTF-8; a bad byte is a ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())  # "." stands in for the bad byte
        raise ParseError(line, f"byte 0x{data[exc.start]:02x} is not valid UTF-8") from None


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
                    vec = tuple([int(f) for f in part.split()])
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


# run-file key -> (PathConfig or RadialGrid field, type, default; None when the key
# is required).  No key sets a Newton tolerance or the steps in t: newton_continuity_solve picks both.
_RUN_KEYS = {
    "n": ("n", int, None),
    "r": ("r_order", int, 1),
    "C": ("calabi_c", float, None),
    "s0": ("s0", float, None),
    "w": ("w", float, None),
    "c": ("c", float, None),
    "s_min": ("s_min", float, 1e-2),
    "s_max": ("s_max", float, 1e4),
    "nodes": ("m", int, 2048),
}
_GRID_FIELDS = ("s_min", "s_max", "m")  # the RadialGrid fields; PathConfig holds the others


def parse_run_file(text: str) -> tuple[PathConfig, RadialGrid]:
    """Parse a flat key = value run file into a PathConfig and its grid.  A rejected value
    is reported at the last line that set a field its check reads (line 1 if none did)."""
    from .radial import PathConfig, RadialGrid  # numpy/scipy load with the first run file
    seen: dict[str, tuple[object, int]] = {}  # key -> (value, line)
    for lineno, line in _content_lines(text):
        if "=" not in line:
            raise ParseError(lineno, "expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _RUN_KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in seen:
            raise ParseError(lineno, f"duplicate key {key!r}")
        kind = _RUN_KEYS[key][1]
        try:
            seen[key] = kind(value), lineno
        except ValueError:
            raise ParseError(lineno, f"cannot parse {value!r} as {kind.__name__}") from None
        if kind is float and not math.isfinite(seen[key][0]):
            raise ParseError(lineno, f"{key} must be finite, got {value!r}")
    missing = [key for key, (_, _, default) in _RUN_KEYS.items() if default is None and key not in seen]
    if missing:
        raise ParseError(1, f"missing required keys: {', '.join(missing)}")
    fields = {name: seen[key][0] if key in seen else default for key, (name, _, default) in _RUN_KEYS.items()}
    grid_fields = {name: fields.pop(name) for name in _GRID_FIELDS}
    try:
        config = PathConfig(**fields)
        grid = RadialGrid(**grid_fields)
        config.validate_against(grid)
    except ValueError as exc:
        checked = [line for key, (_, line) in seen.items() if _RUN_KEYS[key][0] in getattr(exc, "fields", ())]
        raise ParseError(max(checked, default=1), str(exc)) from None
    return config, grid


def run_echo(config: PathConfig, grid: RadialGrid) -> dict:
    """Each run-file key, in file order, with its parsed value; floats through real_str."""
    echo = {}
    for key, (name, kind, _) in _RUN_KEYS.items():
        value = getattr(grid if name in _GRID_FIELDS else config, name)
        echo[key] = real_str(value) if kind is float else value
    return echo
