"""Command line surface: exact resolution certificates and solver runs as
deterministic JSON reports.

Commands
    resolve2d R A          minimal resolution pipeline for 1/R(1, A)
    resolve3d R A          five-cone family for 1/R(1, 1, A)
    check-subdivision F    certify a user supplied fan subdivision file
    radial RUNFILE         continuity-path solve, decay fit, mass bookkeeping
    sweep2d RMAX           all coprime pairs with r <= RMAX, aggregated

Exit codes, one meaning each:
    0  every applicable certificate passes
    1  a certificate failed (the report names it)
    2  usage, parse or input error
    3  solver failure: Newton stalled or a profile left the Kahler cone
    4  internal error: a self-check of the engine failed
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .formats import parse_run_file, parse_subdivision_file, rational_str, real_str
from .quotient import CyclicQuotient, singularity_data
from .resolution import (
    angle_condition,
    build_subdivision,
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
                 "mass_integral", "newton_continuity_solve", "oracle_deviation")


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


def _angle_certificate(verdict) -> dict:
    if verdict.theorem_applies:
        v = PASS
    elif verdict.acceptable:
        v = NA
    else:
        v = FAIL
    return {
        "verdict": v,
        "status": verdict.status,
        "per_ray": list(verdict.labels),
        "beta": [rational_str(ray.num, ray.den) for ray in verdict.rays],
    }


def _strata_certificate(report) -> dict:
    return {
        "verdict": _verdict(report.overall),
        "nu": rational_str(report.nu),
        "strata": [
            {
                "rays": list(chk.indices),
                "product": rational_str(chk.num, chk.den),
                "strict": chk.strict,
            }
            for chk in report.strata
        ],
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
            "volume_density": rational_str(data.volume_density),
        },
        **body,
        "certificates": certificates,
        **(tail or {"notes": [GAMMA_NOTE]}),
    }
    return report, _exit_code(certificates.values())


def _subdivision_certificates(sub_report) -> dict:
    return {
        "unimodularity": {
            "verdict": _verdict(sub_report.all_unimodular),
            "determinants": list(sub_report.cone_determinants),
        },
        "covering": {
            "verdict": _verdict(sub_report.covering_ok),
            "weighted_volume": rational_str(sub_report.covering_sum)
            if sub_report.covering_sum is not None
            else None,
            "expected": sub_report.covering_expected,
        },
        "interiority": {
            "verdict": _verdict(sub_report.all_interior),
            "per_ray": list(sub_report.ray_interior),
        },
    }


def _subdivision_section(fan, discrepancies: bool) -> dict:
    section = {
        "cones": [[list(g) for g in cone.generators] for cone in fan.cones],
        "rays": [list(ray.w) for ray in fan.rays],
        "beta": [rational_str(ray.num, ray.den) for ray in fan.rays],
    }
    if discrepancies:
        section["discrepancies"] = [rational_str(ray.num - ray.den, ray.den) for ray in fan.rays]
    return {"subdivision": section}


def resolve2d_report(r: int, a: int) -> tuple[dict, int]:
    q = CyclicQuotient(r=r, weights=(a,))
    chain = hj_resolution(q)
    data = chain.parent
    im = IntersectionMatrix(bs=chain.self_intersections)
    bk = energy(chain)
    strata = volume_density_inequality(chain.rays, chain_strata(len(chain.rays)), data.volume_density)

    certificates = {
        "angle_condition": _angle_certificate(angle_condition(chain)),
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
        "volume_density": _strata_certificate(strata),
    }
    resolution = {
        "rays": [list(ray.w) for ray in chain.rays],
        "self_intersections": list(chain.self_intersections),
        "continued_fraction": list(chain.self_intersections),
        "beta": [rational_str(ray.num, ray.den) for ray in chain.rays],
        "discrepancies": [rational_str(ray.num - ray.den, ray.den) for ray in chain.rays],
    }
    tail = {
        "energy": {
            "chi": bk.chi_x,
            "curve_terms": [rational_str(x, bk.den) for x in bk.curve_nums],
            "node_terms": [rational_str(x, bk.den**2) for x in bk.node_nums],
            "group_term": rational_str(bk.group_num, bk.den),
            "total": rational_str(bk.total_num, bk.den**2),
            "conditional": bk.conditional,
        },
        "notes": [GAMMA_NOTE] + ([ENERGY_NOTE] if bk.conditional else []),
    }
    return _exact_report("resolve2d", {"r": r, "a": a}, data, {"resolution": resolution}, certificates, tail)


def resolve3d_report(r: int, a: int) -> tuple[dict, int]:
    fan = three_dim_family(r, a)
    strata = volume_density_inequality(fan.rays, family_strata(), fan.parent.volume_density)
    certificates = {
        **_subdivision_certificates(validate_subdivision(fan)),
        "angle_condition": _angle_certificate(angle_condition(fan)),
        "volume_density": _strata_certificate(strata),
    }
    body = _subdivision_section(fan, discrepancies=True)
    return _exact_report("resolve3d", {"r": r, "a": a}, fan.parent, body, certificates)


def check_subdivision_report(text: str) -> tuple[dict, int]:
    quotient, cones = parse_subdivision_file(text)
    fan = build_subdivision(singularity_data(quotient), cones)
    sub_report = validate_subdivision(fan)
    certificates = {
        **_subdivision_certificates(sub_report),
        "disjointness": {
            "verdict": NA if sub_report.disjoint is None else _verdict(sub_report.disjoint),
        },
        "angle_condition": _angle_certificate(angle_condition(fan)),
    }
    inputs = {"r": quotient.r, "weights": list(quotient.weights)}
    body = _subdivision_section(fan, discrepancies=False)
    return _exact_report("check-subdivision", inputs, fan.parent, body, certificates)


ORACLE_CERT_TOL = 1e-6


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
        "t_steps": config.t_steps,
        "newton_tol": "auto" if config.newton_tol is None else real_str(config.newton_tol),
    }
    try:
        u, trace = newton_continuity_solve(config, grid)
        deviation = oracle_deviation(u, config)
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
        fit = decay_fit(u, config)
        decay_entry = {
            "exponent_s": real_str(fit.exponent),
            "exponent_r": real_str(fit.exponent_in_r),
            "coefficient": real_str(fit.coefficient),
            "window": [real_str(fit.fit_window[0]), real_str(fit.fit_window[1])],
            "residual": real_str(fit.residual),
            "npoints": fit.npoints,
        }
        certificates["decay_fit"] = {"verdict": PASS}
    except DecayFitError as exc:
        decay_entry = {"error": str(exc)}
        certificates["decay_fit"] = {"verdict": FAIL, "error": str(exc)}

    if config.n < 3:
        mass_entry = {"verdict": NA, "reason": "mass normalization needs n >= 3"}
    else:
        try:
            mass = mass_integral(config, u)
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
    from math import gcd

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


def _print_human(report: dict, stream=sys.stdout) -> None:
    meta = report.get("meta", {})
    print(f"{meta.get('tool', 'alequot')} {meta.get('command', '')}", file=stream)
    for section in ("input", "singularity", "resolution", "subdivision", "solver", "oracle", "decay", "mass", "energy"):
        body = report.get(section)
        if body is None:
            continue
        parts = ", ".join(f"{k}={v}" for k, v in body.items())
        print(f"  {section}: {parts}", file=stream)
    if "runs" in report:
        print(f"  runs: {report['runs']}", file=stream)
        for name, bucket in report.get("certificates", {}).items():
            print(f"  certificate {name}: {bucket}", file=stream)
        print(f"  failures: {report.get('failures', [])}", file=stream)
    else:
        for name, entry in report.get("certificates", {}).items():
            print(f"  certificate {name}: {entry['verdict']}", file=stream)
    for note in report.get("notes", []):
        print(f"  note: {note}", file=stream)


def _emit(report: dict, code: int, json_path: str | None) -> int:
    if json_path is not None:
        document = json.dumps(report, indent=2) + "\n"
        if json_path == "-":
            sys.stdout.write(document)
        else:
            with open(json_path, "w") as fh:
                fh.write(document)
            _print_human(report)
    else:
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


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alequot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, positionals) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg, type=str if arg == "file" else int)
        p.add_argument("--json", metavar="PATH", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    build, _, positionals = COMMANDS[args.command]
    try:
        if positionals == ("file",):
            with open(args.file) as fh:
                inputs = [fh.read()]
        else:
            inputs = [getattr(args, arg) for arg in positionals]
        report, code = build(*inputs)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return _emit(report, code, args.json)


if __name__ == "__main__":
    sys.exit(main())
