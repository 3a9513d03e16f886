"""Command line surface: exact resolution certificates and solver runs as
deterministic JSON reports.

Commands, each with an optional `--json PATH` (`-` for stdout).  Argv of exactly
that form is read from the COMMANDS table; argparse reads any other argv and
prints the usage, help and error text:
    resolve2d R A          minimal resolution pipeline for 1/R(1, A)
    resolve3d R A          five-cone family for 1/R(1, 1, A)
    check-subdivision F    certify a user supplied fan subdivision file
    radial RUNFILE         continuity-path solve, decay fit, mass bookkeeping
    sweep2d RMAX           all coprime pairs with r <= RMAX, aggregated

Exit codes, one meaning each:
    0  every applicable certificate passes
    1  a certificate failed (the report names it)
    2  usage, parse or input error, or an output that cannot be written
    3  solver failure: Newton stalled or a profile left the Kahler cone
    4  internal error: a self-check of the engine failed
"""

from __future__ import annotations

import json
import sys
from math import gcd

from . import __version__
from .formats import parse_run_file, parse_subdivision_file, rational_str, read_text, real_str
from .quotient import CyclicQuotient, singularity_data
from .resolution import (
    FanSubdivision,
    angle_condition,
    hj_resolution,
    three_dim_family,
    validate_subdivision,
)
from .surface import (
    IntersectionMatrix,
    adjunction_check,
    chain_strata,
    energy,
    family_strata,
    volume_density_inequality,
)

# The solver names need numpy and scipy.  They are bound into this module on
# first use, by radial_report or by attribute access, so the exact commands
# never load either; a name that is already bound (patched, say) is kept.
_RADIAL_NAMES = ("DecayFitError", "KahlerConeError", "SolverFailure", "decay_fit",
                 "mass_integral", "newton_continuity_solve", "oracle_deviation", "total_fprime")


def _bind_radial() -> None:
    from . import radial
    for name in _RADIAL_NAMES:
        globals().setdefault(name, getattr(radial, name))


def __getattr__(name: str):
    if name not in _RADIAL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_radial()
    return globals()[name]


PASS, FAIL, NA = "pass", "fail", "not-applicable"

GAMMA_NOTE = "gamma computed by closed formula and re-verified by exact pairing with every cone generator"
ENERGY_NOTE = "energy node terms assume the boundary tube limit at normal crossing points; value is conditional there"


def _meta(command: str) -> dict:
    return {"tool": "alequot", "version": __version__, "command": command}


def _verdict(ok: bool) -> str:
    return PASS if ok else FAIL


def _angle_certificate(verdict, betas: list[str]) -> dict:
    v = PASS if verdict.theorem_applies else NA if verdict.acceptable else FAIL
    return {
        "verdict": v,
        "status": verdict.status,
        "per_ray": list(verdict.labels),
        "beta": list(betas),
    }


class _StrataRows(list):
    """A volume-density certificate's rows, {"rays": [int, ...], "product": str,
    "strict": bool} each; json.dumps writes it as a list, _write from one template."""


def _strata_certificate(report, betas: list[str], r: int) -> dict:
    # a one-ray stratum's product is that ray's beta
    return {
        "verdict": _verdict(report.overall),
        "nu": rational_str(1, r),
        "strata": _StrataRows([
            {
                "rays": list(indices),
                "product": betas[indices[0]] if len(indices) == 1 else rational_str(num, r ** len(indices)),
                "strict": strict,
            }
            for indices, num, strict in report.strata
        ]),
    }


def _exit_code(entries) -> int:
    return 1 if any(entry["verdict"] == FAIL for entry in entries) else 0


def _exact_report(command: str, inputs: dict, data, body: dict, certificates: dict, tail=None):
    """The layout every exact report shares: meta, input, singularity, the
    command's own sections, certificates, then `tail` (the notes by default)."""
    report = {
        "meta": _meta(command),
        "input": inputs,
        "singularity": {
            "gamma": [rational_str(x, data.quotient.r) for x in data.r_gamma],
            "gorenstein_index": data.gorenstein_index,
            "volume_density": rational_str(1, data.quotient.r),
        },
        **body,
        "certificates": certificates,
        **(tail or {"notes": [GAMMA_NOTE]}),
    }
    return report, _exit_code(certificates.values())


def _subdivision_certificates(sub_report, r: int) -> dict:
    return {
        "unimodularity": {
            "verdict": _verdict(sub_report.all_unimodular),
            "determinants": list(sub_report.cone_determinants),
        },
        "covering": {
            "verdict": _verdict(sub_report.covering_ok),
            "weighted_volume": None if sub_report.covering_sum is None else rational_str(*sub_report.covering_sum),
            "expected": r,
        },
        "interiority": {
            "verdict": _verdict(sub_report.all_interior),
            "per_ray": list(sub_report.ray_interior),
        },
    }


def _subdivision_section(fan, betas: list[str], discrepancies: bool) -> dict:
    r = fan.parent.quotient.r
    section = {
        "cones": [[list(g) for g in cone.generators] for cone in fan.cones],
        "rays": [list(ray.w) for ray in fan.rays],
        "beta": betas,
    }
    if discrepancies:
        section["discrepancies"] = [rational_str(ray.num - r, r) for ray in fan.rays]
    return {"subdivision": section}


def resolve2d_report(r: int, a: int) -> tuple[dict, int]:
    q = CyclicQuotient(r=r, weights=(a,))
    chain = hj_resolution(q)
    data = chain.parent
    im = IntersectionMatrix(bs=chain.self_intersections)
    bk = energy(chain)
    strata = volume_density_inequality(chain.rays, chain_strata(len(chain.rays)), r)
    betas = [rational_str(ray.num, r) for ray in chain.rays]  # formatted once, printed thrice

    certificates = {
        "angle_condition": _angle_certificate(angle_condition(chain), betas),
        "negative_definite": {
            "verdict": _verdict(im.is_negative_definite()),
            "leading_minors": im.leading_minors(),
        },
        "inverse_nonpositive": {
            "verdict": _verdict(im.inverse_entries_nonpositive()),
            "inverse_first_row": [rational_str(x, im.determinant()) for x in im.adjugate_row(0)],
        },
        "adjunction": {
            "verdict": _verdict(adjunction_check(chain)),
            "row_targets": [str(b - 2) for b in chain.self_intersections],
        },
        "volume_density": _strata_certificate(strata, betas, r),
    }
    resolution = {
        "rays": [list(ray.w) for ray in chain.rays],
        "self_intersections": list(chain.self_intersections),
        "continued_fraction": list(chain.self_intersections),
        "beta": betas,
        "discrepancies": [rational_str(ray.num - r, r) for ray in chain.rays],
    }
    tail = {
        "energy": {
            "chi": bk.chi_x,
            "curve_terms": [rational_str(x, r) for x in bk.curve_nums],
            "node_terms": [rational_str(x, r * r) for x in bk.node_nums],
            "group_term": rational_str(-1, r),
            "total": rational_str(bk.total_num, r * r),
            "conditional": bk.conditional,
        },
        "notes": [GAMMA_NOTE] + ([ENERGY_NOTE] if bk.conditional else []),
    }
    return _exact_report("resolve2d", {"r": r, "a": a}, data, {"resolution": resolution}, certificates, tail)


def resolve3d_report(r: int, a: int) -> tuple[dict, int]:
    fan = three_dim_family(r, a)
    strata = volume_density_inequality(fan.rays, family_strata(), r)
    betas = [rational_str(ray.num, r) for ray in fan.rays]
    certificates = {
        **_subdivision_certificates(validate_subdivision(fan), r),
        "angle_condition": _angle_certificate(angle_condition(fan), betas),
        "volume_density": _strata_certificate(strata, betas, r),
    }
    body = _subdivision_section(fan, betas, discrepancies=True)
    return _exact_report("resolve3d", {"r": r, "a": a}, fan.parent, body, certificates)


def check_subdivision_report(text: str) -> tuple[dict, int]:
    quotient, cones = parse_subdivision_file(text)
    fan = FanSubdivision(singularity_data(quotient), cones)
    sub_report = validate_subdivision(fan)
    betas = [rational_str(ray.num, quotient.r) for ray in fan.rays]
    certificates = {
        **_subdivision_certificates(sub_report, quotient.r),
        "disjointness": {
            "verdict": _verdict(sub_report.covering_ok) if fan.parent.sigma.dim == 2 else NA,
        },
        "angle_condition": _angle_certificate(angle_condition(fan), betas),
    }
    inputs = {"r": quotient.r, "weights": list(quotient.weights)}
    body = _subdivision_section(fan, betas, discrepancies=False)
    return _exact_report("check-subdivision", inputs, fan.parent, body, certificates)


ORACLE_CERT_TOL = 1e-6
DECAY_EXPONENT_TOL = 0.01  # relative to the known tail exponent 1 - n


def radial_report(text: str) -> tuple[dict, int]:
    _bind_radial()
    config, grid = parse_run_file(text)
    echo = {
        "n": config.n,
        "r": config.r_order,
        "C": real_str(config.calabi_c),
        "s0": real_str(config.s0),
        "w": real_str(config.w),
        "c": real_str(config.c),
        "s_min": real_str(grid.s_min),
        "s_max": real_str(grid.s_max),
        "nodes": grid.m,
    }
    try:
        u, trace = newton_continuity_solve(config, grid)
        fprime = total_fprime(u, config)  # the one f' the oracle, the decay fit and the mass read
        deviation = oracle_deviation(fprime, config)
    except (SolverFailure, KahlerConeError) as exc:
        failed = getattr(exc, "trace", None)
        excerpt = [
            {"t": real_str(st.t), "residuals": [real_str(v) for v in st.residuals[-5:]]}
            for st in (failed.steps[-3:] if failed else [])
        ]
        report = {
            "meta": _meta("radial"),
            "input": echo,
            "solver": {"converged": False, "error": str(exc), "trace_excerpt": excerpt},
        }
        return report, 3

    certificates = {
        "solver_converged": {"verdict": PASS, "newton_iterations": trace.newton_iterations},
        "oracle_agreement": {
            "verdict": _verdict(deviation <= ORACLE_CERT_TOL),
            "relative_max_norm": real_str(deviation),
            "tolerance": ORACLE_CERT_TOL,
        },
    }
    decay_entry: dict
    try:
        fit = decay_fit(fprime, config)
        decay_entry = {
            "exponent_s": real_str(fit.exponent),
            "exponent_r": real_str(fit.exponent_in_r),
            "coefficient": real_str(fit.coefficient),
            "window": [real_str(fit.fit_window[0]), real_str(fit.fit_window[1])],
            "residual": real_str(fit.residual),
            "npoints": fit.npoints,
        }
        rel_err = abs(fit.exponent - (1 - config.n)) / (config.n - 1)  # a NaN fails too
        certificates["decay_fit"] = {"verdict": PASS} if rel_err <= DECAY_EXPONENT_TOL else {
            "verdict": FAIL, "error": f"exponent off 1 - n = {1 - config.n} by relative {real_str(rel_err)}"}
    except DecayFitError as exc:
        decay_entry = {"error": str(exc)}
        certificates["decay_fit"] = {"verdict": FAIL, "error": str(exc)}

    if config.n < 3:
        mass_entry = {"verdict": NA, "reason": "mass normalization needs n >= 3"}
    else:
        try:
            mass = mass_integral(config, fprime)
        except DecayFitError as exc:
            mass_entry = {"verdict": FAIL, "error": str(exc)}
        else:
            mass_entry = {
                "verdict": PASS,
                "radial_integral": real_str(mass.radial_integral),
                "link_volume": real_str(mass.link_vol),
                "volume_integral": real_str(mass.volume_integral),
                "formula_a": real_str(mass.formula_a),
                "fitted_coefficient": real_str(mass.fitted_coefficient),
                "ratio": real_str(mass.ratio) if mass.ratio is not None else None,
            }

    final_step = trace.steps[-1]
    report = {
        "meta": _meta("radial"),
        "input": echo,
        "solver": {
            "converged": True,
            "newton_iterations": trace.newton_iterations,
            "final_residual": real_str(final_step.residuals[-1]),
            "residuals_last_step": [real_str(v) for v in final_step.residuals],
        },
        "oracle": {"relative_max_norm": real_str(deviation)},
        "decay": decay_entry,
        "mass": mass_entry,
        "certificates": certificates,
        "notes": [
            "mass ratio is reported, not asserted; constancy across bump amplitudes is the testable claim"
        ],
    }
    return report, _exit_code([*certificates.values(), mass_entry])


def sweep2d_report(r_max: int) -> tuple[dict, int]:
    if r_max < 2:  # no pair to certify: a pass would be vacuous
        raise ValueError(f"RMAX must be at least 2, got {r_max}")
    counts: dict[str, dict[str, int]] = {}
    failures: list[dict] = []
    runs = 0
    for r in range(2, r_max + 1):
        for a in range(1, r):
            if gcd(a, r) != 1:
                continue
            sub_report, _ = resolve2d_report(r, a)
            runs += 1
            for name, entry in sub_report["certificates"].items():
                bucket = counts.setdefault(name, {PASS: 0, FAIL: 0, NA: 0})
                bucket[entry["verdict"]] += 1
                if entry["verdict"] == FAIL:
                    failures.append({"r": r, "a": a, "certificate": name})
    report = {
        "meta": _meta("sweep2d"),
        "input": {"r_max": r_max},
        "runs": runs,
        "certificates": counts,
        "failures": failures,
    }
    return report, 1 if failures else 0


def _print_human(report: dict) -> None:
    meta = report.get("meta", {})
    print(f"{meta.get('tool', 'alequot')} {meta.get('command', '')}")
    for section in ("input", "singularity", "resolution", "subdivision", "solver", "oracle", "decay", "mass", "energy"):
        body = report.get(section)
        if body is None:
            continue
        parts = ", ".join(f"{k}={v}" for k, v in body.items())
        print(f"  {section}: {parts}")
    if "runs" in report:
        print(f"  runs: {report['runs']}")
        for name, bucket in report.get("certificates", {}).items():
            print(f"  certificate {name}: {bucket}")
        print(f"  failures: {report.get('failures', [])}")
    else:
        for name, entry in report.get("certificates", {}).items():
            print(f"  certificate {name}: {entry['verdict']}")
    for note in report.get("notes", []):
        print(f"  note: {note}")


# Bound once at import: benchmarks/worker.py replaces this module's name
# `json` with a timing shim that has no `encoder`.
_quote = json.encoder.encode_basestring_ascii
_FLOAT_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_LITERALS = {None: "null", False: "false", True: "true"}  # read for None and exact bools only
_FLAT = {str: _quote, int: int.__repr__}  # a list of one of these types is written with one join


def _dumps(report: dict) -> str:
    """`json.dumps(report, indent=2)`, byte for byte.  With `indent` set,
    CPython's json runs its pure-Python encoder; this writer inlines scalars,
    joins flat lists of str or of int at once and writes each stratum row
    from one template, in about a third of the encoder's time on a long
    chain's report."""
    parts: list[str] = []
    _write(report, "\n", parts)
    return "".join(parts)


def _strata_text(rows: _StrataRows, newline: str) -> str:
    inner = newline + "  "
    row = inner + "  "
    ray, first, last = "," + row + "  ", "[" + row + "  ", row + "]"
    template = f'{{{row}"rays": %s,{row}"product": %s,{row}"strict": %s{inner}}}'
    return "[" + inner + ("," + inner).join([
        template % (first + ray.join(map(str, ids)) + last if (ids := entry["rays"]) else "[]",
                    _quote(entry["product"]), _LITERALS[entry["strict"]])
        for entry in rows
    ]) + newline + "]" if rows else "[]"


def _write(value, newline: str, parts: list[str]) -> None:
    # containers first; their str, int, bool and None items, nearly all of a report's scalars, go inline
    if isinstance(value, (list, tuple)):
        inner = newline + "  "
        if type(value) is _StrataRows:
            parts.append(_strata_text(value, newline))
            return
        if len(value) > 4 and len(kinds := set(map(type, value))) == 1 and (flat := _FLAT.get(*kinds)):
            parts.append("[" + inner + ("," + inner).join(map(flat, value)) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                parts.append(sep + _quote(item))
            elif type(item) is int:
                parts.append(sep + int.__repr__(item))
            elif item is None or type(item) is bool:
                parts.append(sep + _LITERALS[item])
            else:
                parts.append(sep)
                _write(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if type(item) is str:
                parts.append(sep + _quote(key) + ": " + _quote(item))
            elif type(item) is int:
                parts.append(sep + _quote(key) + ": " + int.__repr__(item))
            elif item is None or type(item) is bool:
                parts.append(sep + _quote(key) + ": " + _LITERALS[item])
            else:
                parts.append(sep + _quote(key) + ": ")
                _write(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}" if value else "{}")
    elif isinstance(value, str):
        parts.append(_quote(value))
    elif value is None or type(value) is bool:
        parts.append(_LITERALS[value])
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        parts.append(_FLOAT_CONSTANTS.get(text, text))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, code: int, json_path: str | None) -> int:
    if json_path is not None:
        document = _dumps(report) + "\n"
        if json_path == "-":
            sys.stdout.write(document)
            return code
        with open(json_path, "w") as fh:
            fh.write(document)
    _print_human(report)
    return code


# subcommand -> (report builder, help, positional arguments); the builder gets
# the integer arguments, or the text of the file a "file" argument names
COMMANDS = {
    "resolve2d": (resolve2d_report, "minimal resolution of 1/R(1, A)", ("r", "a")),
    "resolve3d": (resolve3d_report, "five-cone family for 1/R(1, 1, A)", ("r", "a")),
    "check-subdivision": (check_subdivision_report, "certify a fan subdivision file", ("file",)),
    "radial": (radial_report, "continuity-path solve from a run file", ("file",)),
    "sweep2d": (sweep2d_report, "aggregate certificates for all r <= RMAX", ("r_max",)),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only help, usage errors and unusual spellings need it
    parser = argparse.ArgumentParser(prog="alequot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, positionals) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg, type=str if arg == "file" else int)
        p.add_argument("--json", metavar="PATH", default=None)
    return parser


def _read_table(argv):
    """(command, values, json path) for `CMD ARG... [--json PATH]` with no argument
    starting with "-" but a `--json -`, read as argparse would read it; else None."""
    entry = COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    n = len(entry[2])
    values, option = argv[1:n + 1], argv[n + 1:]
    json_path = option[1] if len(option) == 2 and option[0] == "--json" else None
    if len(values) != n or option and json_path is None or any(v.startswith("-") for v in values) \
            or json_path not in (None, "-") and json_path.startswith("-"):
        return None
    try:
        return argv[0], values if entry[2] == ("file",) else [int(v) for v in values], json_path
    except ValueError:
        return None


def main(argv=None) -> int:
    parsed = _read_table(sys.argv[1:] if argv is None else argv)
    if parsed is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        parsed = args.command, [getattr(args, arg) for arg in COMMANDS[args.command][2]], args.json
    command, values, json_path = parsed
    build, _, positionals = COMMANDS[command]
    try:
        if positionals == ("file",):
            values = [read_text(values[0])]
        report, code = build(*values)
        return _emit(report, code, json_path)  # an unwritable --json path or stdout is an OSError too
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
