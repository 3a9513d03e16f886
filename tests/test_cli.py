import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alequot
import alequot.cli as cli
from alequot.cli import (
    check_subdivision_report,
    main,
    radial_report,
    resolve2d_report,
    resolve3d_report,
    sweep2d_report,
)
from alequot.radial import KahlerConeError
from test_formats import FAN_74

RUN_SMALL = "n = 3\nr = 7\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = -0.25\nnodes = 512\n"


def certificate_verdicts(report):
    return {name: entry["verdict"] for name, entry in report["certificates"].items()}


def test_resolve2d_worked_example():
    report, code = resolve2d_report(7, 3)
    assert code == 0
    assert report["resolution"]["beta"] == ["4/7", "5/7", "6/7"]
    assert report["resolution"]["self_intersections"] == [3, 2, 2]
    assert report["resolution"]["rays"] == [[1, 1], [3, 2], [5, 3]]
    assert report["singularity"]["gamma"] == ["-3/7", "1"]
    assert report["energy"]["total"] == "113/49"
    assert all(v in ("pass", "not-applicable") for v in certificate_verdicts(report).values())


def test_resolve2d_crepant_chain():
    report, code = resolve2d_report(5, 4)
    assert code == 0
    assert report["certificates"]["angle_condition"]["status"] == "crepant"
    assert report["certificates"]["angle_condition"]["verdict"] == "not-applicable"
    assert report["energy"]["total"] == "24/5"


def test_resolve3d_worked_example():
    report, code = resolve3d_report(7, 4)
    assert code == 0
    assert report["subdivision"]["beta"] == ["6/7", "5/7"]
    assert report["certificates"]["unimodularity"]["determinants"] == [1, 1, 1, 1, 1]
    assert report["certificates"]["covering"]["weighted_volume"] == "7"


def test_resolve3d_second_example():
    report, code = resolve3d_report(11, 3)
    assert code == 0
    assert report["subdivision"]["beta"] == ["5/11", "9/11"]


def test_check_subdivision_pass():
    report, code = check_subdivision_report(FAN_74)
    assert code == 0
    assert certificate_verdicts(report)["unimodularity"] == "pass"


def test_check_subdivision_unsubdivided_sigma():
    report, code = check_subdivision_report("dim 2\nquotient 7 3\ncone 7 4 | 0 1\n")
    assert code == 1
    verdicts = certificate_verdicts(report)
    assert verdicts["unimodularity"] == "fail"
    assert verdicts["covering"] == "pass"


def test_check_subdivision_exterior_ray():
    text = "dim 2\nquotient 7 3\ncone 1 -1 | 0 1\ncone 1 -1 | 7 4\n"
    report, code = check_subdivision_report(text)
    assert code == 1
    assert certificate_verdicts(report)["interiority"] == "fail"


def test_radial_report_small_run():
    report, code = radial_report(RUN_SMALL)
    assert code == 0
    assert report["solver"]["converged"] is True
    assert report["oracle"]["relative_max_norm"] < 1e-6
    assert report["decay"]["exponent_s"] == pytest.approx(-2.0, rel=0.01)
    assert report["mass"]["ratio"] == pytest.approx(1.0, rel=0.02)


def test_radial_report_n2_mass_not_applicable():
    report, code = radial_report("n = 2\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = 0.1\nnodes = 512\n")
    assert code == 0
    assert report["mass"]["verdict"] == "not-applicable"


def test_radial_short_fit_window_is_a_mass_verdict(tmp_path, capsys):
    run = tmp_path / "short.txt"
    run.write_text(RUN_SMALL.replace("nodes = 512", "s_max = 100\nnodes = 256"))
    assert main(["radial", str(run), "--json", "-"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["certificates"]["oracle_agreement"]["verdict"] == "pass"
    assert report["certificates"]["decay_fit"]["verdict"] == "fail"
    assert report["mass"]["verdict"] == "fail"
    assert "usable points" in report["mass"]["error"]


def test_kahler_cone_error_is_a_solver_failure(tmp_path, monkeypatch, capsys):
    def leaves_cone(u, config):
        raise KahlerConeError("first integral leaves the Kahler cone at node 3")

    monkeypatch.setattr(cli, "oracle_deviation", leaves_cone)
    run = tmp_path / "run.txt"
    run.write_text(RUN_SMALL)
    assert main(["radial", str(run), "--json", "-"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["solver"]["converged"] is False
    assert "Kahler cone" in report["solver"]["error"]


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("chain recurrence failed")

    monkeypatch.setattr(cli, "hj_resolution", broken)
    assert main(["resolve2d", "7", "3"]) == 4
    assert "internal error: chain recurrence failed" in capsys.readouterr().err


def test_sweep2d_aggregates():
    report, code = sweep2d_report(12)
    assert code == 0
    assert report["runs"] == sum(1 for _ in _coprime(12))
    assert report["failures"] == []
    counts = report["certificates"]["adjunction"]
    assert counts["pass"] == report["runs"]


def _coprime(r_max):
    from math import gcd

    for r in range(2, r_max + 1):
        for a in range(1, r):
            if gcd(a, r) == 1:
                yield r, a


def test_main_exit_codes(tmp_path, capsys):
    assert main(["resolve2d", "7", "3"]) == 0
    assert main(["resolve2d", "4", "2"]) == 2          # non-coprime weight
    assert main(["resolve3d", "7", "3"]) == 2          # 3 does not divide 8
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 2\nquotient 7 3\ncone 7 4 | 0\n")
    assert main(["check-subdivision", str(bad)]) == 2
    assert main(["check-subdivision", str(tmp_path / "missing.txt")]) == 2
    trivial = tmp_path / "trivial.txt"
    trivial.write_text("dim 2\nquotient 7 3\ncone 7 4 | 0 1\n")
    assert main(["check-subdivision", str(trivial)]) == 1
    assert main(["sweep2d", "8"]) == 0
    assert main(["radial", str(tmp_path / "nope.txt")]) == 2
    capsys.readouterr()


def test_main_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_shared_parser_keeps_no_state_between_calls(capsys):
    argv = ["resolve2d", "7", "3", "--json", "-"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["resolve2d", "7", "--json", "-"]) == 2   # missing argument
    assert main(["no-such-command", "7", "3"]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()


EXACT_ONLY_SCRIPT = """
import contextlib, io, sys
from alequot.cli import main

runs = [["resolve2d", "7", "3"], ["resolve3d", "7", "4"], ["check-subdivision", sys.argv[1]],
        ["sweep2d", "10"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv + ["--json", "-"]) for argv in runs]
assert codes == [0, 0, 0, 0], codes
loaded = [name for name in ("numpy", "scipy") if name in sys.modules]
assert not loaded, f"exact commands loaded {loaded}"

import alequot
assert callable(alequot.newton_continuity_solve)
namespace = {}
exec("from alequot import *", namespace)
assert set(alequot.__all__) <= set(namespace), set(alequot.__all__) - set(namespace)
"""


def test_exact_commands_run_on_the_standard_library_alone(tmp_path):
    fan = tmp_path / "fan74.txt"
    fan.write_text(FAN_74)
    src = str(Path(alequot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", EXACT_ONLY_SCRIPT, str(fan)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_json_reports_are_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["resolve2d", "7", "3", "--json", str(out1)]) == 0
    assert main(["resolve2d", "7", "3", "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["resolution"]["beta"] == ["4/7", "5/7", "6/7"]


def test_json_rationals_round_trip(tmp_path, capsys):
    from fractions import Fraction

    out = tmp_path / "r.json"
    assert main(["resolve2d", "12", "5", "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    betas = [Fraction(b) for b in doc["resolution"]["beta"]]
    assert all(0 < b <= 1 for b in betas)
    gamma = [Fraction(g) for g in doc["singularity"]["gamma"]]
    assert len(gamma) == 2


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("c, code", [("nan", 2), ("inf", 2), ("1e308", 3)])
def test_radial_non_finite_or_overflowing_value_is_a_clean_error(c, code, tmp_path, capsys):
    # nan and inf are rejected at their line; 1e308 is finite but e^{t f0}
    # overflows, which the solver names before its first Newton step
    run = tmp_path / "run.txt"
    run.write_text(f"n = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = {c}\nnodes = 256\n")
    assert main(["radial", str(run), "--json", "-"]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.err == f"error: line 5: c must be finite, got '{c}'\n"
    else:
        report = json.loads(captured.out, parse_constant=_reject_constant)
        assert report["solver"]["error"].startswith("bump overflows: max f0 = ")


def test_radial_solver_failure_exit_code(tmp_path, capsys):
    run = tmp_path / "run.txt"
    run.write_text(
        "n = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = -0.25\nnodes = 128\nnewton_tol = 1e-30\n"
    )
    assert main(["radial", str(run)]) == 3
    capsys.readouterr()


def _admissible_family(r_max):
    for r in range(2, r_max + 1):
        for a in range(3, r - 2):
            if (r + 1) % a == 0:
                yield r, a


def _golden_corpus(name, tmp_path):
    if name == "resolve2d":
        return [["resolve2d", str(r), str(a)] for r, a in _coprime(60)]
    if name == "resolve3d":
        return [["resolve3d", str(r), str(a)] for r, a in _admissible_family(120)]
    if name == "check-subdivision":
        fan = tmp_path / "fan74.txt"
        fan.write_text(FAN_74)
        return [["check-subdivision", str(fan)]]
    return [["sweep2d", "30"]]


# sha256 of the exit codes and `--json -` bytes of every corpus command, in
# order; a refactor of the exact engine must leave these digests unchanged
GOLDEN_SHA256 = {
    "resolve2d": "fd4f2ba65b4e48ebf77a73b6b578d86f72bd54f5b5eb4412a291a81ea3005ffc",
    "resolve3d": "878d7a24c6f9fedef4207c319702869a9bb526460b826471ca2fbf88fd1e4b54",
    "check-subdivision": "fa56bbb7159f254ca196ca4b3353688e6fcd7ff1a8bdeb3836981474a6eba634",
    "sweep2d": "4a28f3d616c194a80bf003ed0de4f46cd4d924e2bf47db28baa1499b7c53a294",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_exact_reports_match_golden_digest(name, tmp_path, capsys):
    digest = hashlib.sha256()
    for argv in _golden_corpus(name, tmp_path):
        code = main(argv + ["--json", "-"])
        digest.update(f"{code}\n".encode() + capsys.readouterr().out.encode())
    assert digest.hexdigest() == GOLDEN_SHA256[name]


PUBLIC_API = {
    "AngleVerdict", "ChainResolution", "CyclicQuotient", "DecayFit", "DecayFitError",
    "EnergyBreakdown", "ExceptionalRay", "FanSubdivision", "IntersectionMatrix",
    "KahlerConeError", "LatticeCone", "MassReport", "PathConfig", "PathTrace", "RadialGrid",
    "RadialProfile", "SingularityData", "SolverFailure", "StrataReport", "SubdivisionReport",
    "adjunction_check", "angle_condition", "build_subdivision", "bump_values",
    "calabi_profile", "chain_fan", "chain_strata", "cone_coordinates", "contains_in_interior",
    "decay_fit", "det", "energy", "family_strata", "hj_continued_fraction", "hj_resolution",
    "link_volume", "make_primitive", "mass_integral", "newton_continuity_solve",
    "oracle_deviation", "oracle_effective_constant", "quadrature_oracle", "sigma_cone",
    "singularity_data", "three_dim_family", "total_fprime", "unit_vector",
    "validate_subdivision", "volume_density_inequality",
}


def test_public_api():
    # growing or shrinking the flat API must be a deliberate edit of this set
    assert len(PUBLIC_API) == 49
    assert len(alequot.__all__) == len(set(alequot.__all__))
    assert set(alequot.__all__) == PUBLIC_API
    assert all(hasattr(alequot, name) for name in alequot.__all__)
