import ast
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import alequot
import alequot.cli as cli
import alequot.lattice as lattice
from alequot.cli import (
    check_subdivision_report,
    main,
    radial_report,
    resolve2d_report,
    resolve3d_report,
    sweep2d_report,
)
from alequot.radial import KahlerConeError, decay_fit
from oracles import extreme_run_files
from test_formats import FAN_74, readme_run_file

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


def test_check_subdivision_ray_with_zero_beta_is_non_klt():
    # beta = 0 at (7, 3) sits on the klt boundary: _classify's num <= 0, not num < 0
    report, code = check_subdivision_report("dim 2\nquotient 7 3\ncone 7 4 | 7 3\ncone 7 3 | 0 1\n")
    assert code == 1
    angle = report["certificates"]["angle_condition"]
    assert (angle["verdict"], angle["per_ray"], angle["beta"]) == ("fail", ["non-klt"], ["0"])


def test_check_subdivision_exterior_ray():
    text = "dim 2\nquotient 7 3\ncone 1 -1 | 0 1\ncone 1 -1 | 7 4\n"
    report, code = check_subdivision_report(text)
    assert code == 1
    assert certificate_verdicts(report)["interiority"] == "fail"


def _check_fan_file(text, tmp_path, capsys):
    fan = tmp_path / "fan.txt"
    fan.write_text(text)
    code = main(["check-subdivision", str(fan), "--json", "-"])
    return code, json.loads(capsys.readouterr().out)["certificates"]


@pytest.mark.parametrize("src, dst", [(0, 1), (1, 0), (2, 3), (3, 2)])
def test_duplicate_cone_fails_covering(src, dst, tmp_path, capsys):
    # the weighted-volume identity still holds; the face count does not
    lines = FAN_74.splitlines()
    cones = lines[3:]
    cones[dst] = cones[src]
    code, certs = _check_fan_file("\n".join(lines[:3] + cones) + "\n", tmp_path, capsys)
    assert code == 1
    assert certs["covering"] == {"verdict": "fail", "weighted_volume": "7", "expected": 7}


@pytest.mark.parametrize("text, covering, disjointness", [
    # cones 0 and 2 of FAN_74 made one cone: weighted volume 7, but not face to face
    ("dim 3\nquotient 7 1 4\ncone 0 1 0 | 0 0 1 | 2 2 1\ncone 7 6 3 | 1 1 1 | 0 0 1\n"
     "cone 7 6 3 | 2 2 1 | 1 1 1\ncone 7 6 3 | 0 1 0 | 2 2 1\n", "fail", "not-applicable"),
    # a duplicated cone and a generator outside sigma, once passed by the angular sort
    ("dim 2\nquotient 3 1\ncone 0 1 | 3 2\ncone -1 -3 | 0 1\ncone 3 2 | -1 -3\ncone 0 1 | 3 2\n",
     "fail", "fail"),
    ("dim 2\nquotient 7 3\ncone 7 4 | 0 1\n", "pass", "pass"),
    ("dim 3\nquotient 7 1 4\ncone 7 6 3 | 0 1 0 | 0 0 1\n", "pass", "not-applicable"),
    ("dim 2\nquotient 7 3\ncone 0 1 | 1 1\ncone 1 1 | 7 4\n", "pass", "pass"),
], ids=["merged-3d", "duplicate-2d", "sigma-2d", "sigma-3d", "partial-2d"])
def test_covering_is_a_tiling_verdict(text, covering, disjointness, tmp_path, capsys):
    code, certs = _check_fan_file(text, tmp_path, capsys)
    assert code == 1  # none of these is unimodular
    assert certs["covering"]["verdict"] == covering
    assert certs["disjointness"]["verdict"] == disjointness


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


def test_decay_fit_off_the_known_exponent_fails(tmp_path, monkeypatch, capsys):
    def off_by_two_percent(fprime, config):
        return dataclasses.replace(decay_fit(fprime, config), exponent=1.02 * (1 - config.n))

    monkeypatch.setattr(cli, "decay_fit", off_by_two_percent, raising=False)
    run = tmp_path / "run.txt"
    run.write_text(RUN_SMALL)
    assert main(["radial", str(run), "--json", "-"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["decay"]["exponent_s"] == pytest.approx(-2.04)
    assert report["certificates"]["decay_fit"] == {
        "verdict": "fail", "error": "exponent off 1 - n = -2 by relative 0.02"}
    assert report["certificates"]["oracle_agreement"]["verdict"] == "pass"


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


def test_radial_report_computes_fprime_once(monkeypatch):
    import alequot.radial as radial

    calls, original = [], radial.total_fprime

    def counting(u, config):
        calls.append(None)
        return original(u, config)

    # both names: the report's own call, and any call made inside the radial module
    monkeypatch.setattr(radial, "total_fprime", counting)
    monkeypatch.setattr(cli, "total_fprime", counting, raising=False)
    _, code = radial_report(readme_run_file())
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("error", ["singular matrix", "array must not contain infs or NaNs"])
def test_failed_band_solve_is_a_solver_failure(tmp_path, monkeypatch, capsys, error):
    import numpy as np
    import alequot.radial as radial

    def failing_solve(*args, **kwargs):   # solve_banded's two ways to fail
        raise np.linalg.LinAlgError(error) if error == "singular matrix" else ValueError(error)

    monkeypatch.setattr(radial, "solve_banded", failing_solve)
    run = tmp_path / "run.txt"
    run.write_text(RUN_SMALL)
    assert main(["radial", str(run), "--json", "-"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["solver"]["converged"] is False
    assert report["solver"]["error"] == f"Newton step failed at t = 1.0: {error}"
    assert [step["t"] for step in report["solver"]["trace_excerpt"]] == [1.0]   # not retried at a smaller t


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


def test_human_summary_follows_redirect_stdout(tmp_path):
    path = tmp_path / "report.json"
    for argv in (["resolve2d", "7", "3"], ["resolve2d", "7", "3", "--json", str(path)]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue().startswith("alequot resolve2d\n")
        assert "certificate angle_condition: pass" in out.getvalue()
    assert json.loads(path.read_text())["resolution"]["beta"] == ["4/7", "5/7", "6/7"]


@pytest.mark.parametrize("r_max", ["1", "0", "-5"])
def test_sweep2d_without_pairs_is_a_usage_error(r_max, capsys):
    assert main(["sweep2d", r_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: RMAX must be at least 2, got {r_max}\n"


@pytest.mark.parametrize("cone, message", [
    ("cone 0 0 | 0 1", "zero vector has no primitive representative"),
    ("cone 2 4 | 0 1", "generator (2, 4) is not primitive"),
], ids=["zero", "non-primitive"])
def test_check_subdivision_names_a_bad_generator(cone, message, tmp_path, capsys):
    fan = tmp_path / "fan.txt"
    fan.write_text(f"dim 2\nquotient 7 3\n{cone}\n")
    assert main(["check-subdivision", str(fan), "--json", "-"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: line 3: {message}\n")


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


@pytest.mark.parametrize("form", ["table", "equals", "empty"])
def test_unwritable_json_path_is_a_usage_error(form, tmp_path, capsys):
    path = str(tmp_path / "missing" / "report.json")
    argv = {"table": ["resolve2d", "7", "3", "--json", path],
            "equals": ["resolve2d", "7", "3", f"--json={path}"],
            "empty": ["resolve2d", "7", "3", "--json", ""]}[form]
    assert (cli._read_table(argv) is None) == (form == "equals")   # both parsers are covered
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {argv[-1].removeprefix('--json=')!r}\n"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["resolve2d", "7", "3"], ["resolve2d", "7", "3", "--json", "-"]],
                         ids=["summary", "json"])
def test_closed_stdout_is_an_output_error(argv, capsys):
    with contextlib.redirect_stdout(_ClosedPipe()):
        assert main(argv) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def _edge_argvs(tmp_path):
    """(argvs the COMMANDS table reads, argvs it leaves to argparse)"""
    fan = tmp_path / "fan74.txt"
    fan.write_text(FAN_74)
    fan, report = str(fan), str(tmp_path / "report.json")
    table = [
        ["resolve2d", "7", "3", "--json", report], ["resolve2d", "7", "3", "--json", ""],
        ["check-subdivision", fan], ["check-subdivision", fan, "--json", "-"], ["check-subdivision", ""],
        ["radial", str(tmp_path / "missing.txt"), "--json", "-"],
        ["resolve2d", "07", "3", "--json", "-"], ["resolve2d", "1_000", "3", "--json", "-"],
        ["resolve2d", "\u0663", "2", "--json", "-"], ["resolve2d", " 7 ", "+3", "--json", "-"],
        ["resolve2d", "4", "2", "--json", "-"], ["sweep2d", "8"], ["sweep2d", "1", "--json", "-"],
    ]
    argparse_only = [
        ["resolve2d", "7", "3", "--json=-"], ["resolve2d", "7", "3", "--js", "-"],
        ["resolve2d", "7", "3", "--json", "-x"], ["resolve2d", "7", "3", "--json", "--json"],
        ["resolve2d", "7", "3", "--json", "-3"], ["resolve2d", "7", "3", "--json"],
        ["resolve2d", "7", "3", "--json", "-", "--json", "-"],
        ["resolve2d", "--json", "-", "7", "3"], ["resolve2d", "7", "--json", "-", "3"],
        ["check-subdivision", "--json", "-", fan], ["--json", "-", "resolve2d", "7", "3"],
        ["resolve2d", "--", "7", "3"], ["resolve2d", "7", "3", "--"], ["resolve2d", "-3", "5", "--json", "-"],
        ["sweep2d", "-3"], ["sweep2d", "-"], ["check-subdivision", "-"], ["-h"], ["resolve2d", "-h"],
        ["resolve3d", "7", "4", "-h"], ["--help"], ["resolve2d", "7"], ["resolve2d", "7", "3", "4"],
        ["resolve2d"], ["check-subdivision"], ["radial"], ["check-subdivision", fan, fan], [],
        ["resolve4d", "7", "3"], ["Resolve2d", "7", "3"], [""], ["resolve2d", "", "3"],
        ["resolve2d", "7.0", "3"], ["resolve2d", "0x7", "3"], ["resolve2d", "9" * 5000, "3"],
    ]
    return table, argparse_only


def test_table_and_argparse_agree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # "--json -3" writes a file of that name
    table, argparse_only = _edge_argvs(tmp_path)
    table += [argv + ["--json", "-"] for name in sorted(GOLDEN_SHA256) for argv in _golden_corpus(name, tmp_path)]
    parser = cli.build_parser()   # parse_args leaves a parser unchanged, so one serves every argv
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    for argv in table + argparse_only:
        parsed = cli._read_table(argv)
        assert (parsed is not None) == (argv in table), argv
        if parsed is not None:
            args = parser.parse_args(argv)
            values = [getattr(args, arg) for arg in cli.COMMANDS[args.command][2]]
            assert parsed == (args.command, values, args.json), argv
            assert [type(v) for v in parsed[1]] == [type(v) for v in values], argv
        outcomes = []
        for use_table in (True, False):
            with monkeypatch.context() as m:
                if not use_table:   # the reference: every argv through build_parser().parse_args
                    m.setattr(cli, "_read_table", lambda argv: None)
                code = main(list(argv))
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1], argv


EXACT_ONLY_SCRIPT = """
import contextlib, io, sys
from alequot.cli import main

runs = [["resolve2d", "7", "3"], ["resolve3d", "7", "4"], ["check-subdivision", sys.argv[1]],
        ["sweep2d", "10"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv + ["--json", "-"]) for argv in runs]
assert codes == [0, 0, 0, 0], codes
loaded = [name for name in ("numpy", "scipy", "argparse", "fractions") if name in sys.modules]
assert not loaded, f"exact commands loaded {loaded}"

# a usage error still gets argparse's usage line and exit code 2
with contextlib.redirect_stderr(io.StringIO()) as err:
    assert main(["resolve2d", "7"]) == 2
assert err.getvalue().startswith("usage: alequot resolve2d [-h] [--json PATH] r a\\n"), err.getvalue()
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


RADIAL_IMPORTS_SCRIPT = """
import contextlib, io, sys
from alequot.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["radial", sys.argv[1], "--json", "-"])
assert code == 0, code
assert "scipy.sparse" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
"""


def test_radial_does_not_load_scipy_sparse(tmp_path):
    run = tmp_path / "readme_run.txt"
    run.write_text(RUN_SMALL.replace("nodes = 512", "nodes = 256"))   # the README configuration
    src = str(Path(alequot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", RADIAL_IMPORTS_SCRIPT, str(run)],
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


@pytest.mark.parametrize("c, code", [("nan", 2), ("inf", 2), ("1e308", 2)])
def test_radial_non_finite_or_overflowing_value_is_a_clean_error(c, code, tmp_path, capsys):
    # nan and inf are rejected at their line; 1e308 is finite, but e^c, the
    # peak of e^{f0}, overflows, and PathConfig rejects it at the same line
    run = tmp_path / "run.txt"
    run.write_text(f"n = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = {c}\nnodes = 256\n")
    assert main(["radial", str(run), "--json", "-"]) == code
    captured = capsys.readouterr()
    reason = "e^c = e^1e+308 overflows a float" if c == "1e308" else f"c must be finite, got '{c}'"
    assert (captured.out, captured.err) == ("", f"error: line 5: {reason}\n")


def test_radial_node_count_too_large_to_hold_is_a_clean_error(tmp_path, capsys):
    # 10**15 float64 nodes exceed the user address space: numpy refuses before allocating
    run = tmp_path / "run.txt"
    run.write_text(RUN_SMALL.replace("nodes = 512", f"nodes = {10**15}"))
    assert main(["radial", str(run), "--json", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 7: cannot allocate a grid of {10**15} nodes\n"


@pytest.mark.parametrize("old, new, product", [
    ("n = 3", "n = 200", "1.0 * 0.01^-200"),
    ("C = 1.0", "C = 1e308", "1e+308 * 0.01^-3"),
], ids=["n-200", "C-1e308"])
def test_radial_background_overflow_is_rejected_at_a_line(old, new, product, tmp_path, capsys):
    # C s_min^-n is evaluated at the first node with floating-point errors raised, so nothing warns
    run = tmp_path / "run.txt"
    run.write_text(RUN_SMALL.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["radial", str(run), "--json", "-"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: line 3: C s_min^-n = {product} overflows a float\n")


def test_radial_bump_integral_overflow_is_rejected_at_a_line(tmp_path, capsys):
    # K(s0 + w) integrates tau^(n-1) up to 102^200; K reads n, s0, w and c, so the error names c's line 5
    run = tmp_path / "run.txt"
    run.write_text("n = 200\nC = 1.0\ns0 = 100\nw = 2\nc = -0.25\ns_min = 1\nnodes = 64\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["radial", str(run), "--json", "-"]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: line 5: C + n K(s0 + w) at n = 200, C = 1.0, s0 = 100.0, w = 2.0, c = -0.25 overflows a float\n")


def _radial_strict(text, path, capsys):
    """Exit code, stdout and stderr of `radial` on the run file, with every warning an error."""
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["radial", str(path), "--json", "-"])
    return (code, *capsys.readouterr())


def _ends_cleanly(code, out, err):
    """Exit 2 with `error: line N: ...` alone, or exit 0, 1 or 3 with a report and nothing on stderr."""
    if code == 2:
        return not out and re.fullmatch(r"error: line \d+: [^\n]+\n", err) is not None
    return code in (0, 1, 3) and not err and "solver" in json.loads(out, parse_constant=_reject_constant)


# Run files that once warned or exited 2 without a line: at w = 1e-300, (s - s0)/w overflowed;
# tau^(n-1) e^{f0} overflowed with both factors finite; c > log(float max) on a bump no node samples.
@pytest.mark.parametrize("text, code, err", [
    ("n = 4\nC = 1e-300\ns0 = 1000\nw = 1e-300\nc = -0.25\ns_min = 1e-8\ns_max = 1e300\nnodes = 16\n", 1, ""),
    ("n = 150\nC = 1e-300\ns0 = 5\nw = 2\nc = 700\ns_min = 0.01\ns_max = 1e30\nnodes = 64\n", 2,
     "error: line 5: C + n K(s0 + w) at n = 150, C = 1e-300, s0 = 5.0, w = 2.0, c = 700.0 overflows a float\n"),
    ("n = 2\nC = 1\ns0 = 1000\nw = 0.05\nc = 1000\ns_min = 0.01\ns_max = 1e300\nnodes = 16\n", 2,
     "error: line 5: e^c = e^1000.0 overflows a float\n"),
], ids=["tiny-w", "integrand-product", "unsampled-peak"])
def test_radial_extreme_example_ends_cleanly(text, code, err, tmp_path, capsys):
    result = _radial_strict(text, tmp_path / "run.txt", capsys)
    assert _ends_cleanly(*result)
    assert (result[0], result[2]) == (code, err)


def test_radial_extreme_run_files_end_cleanly(tmp_path, capsys):
    # every closed form a run file reaches is evaluated under one raising errstate
    path = tmp_path / "run.txt"
    failures = [text for text in extreme_run_files(1000) if not _ends_cleanly(*_radial_strict(text, path, capsys))]
    assert not failures, f"{len(failures)} of 1000 run files: {failures[:3]}"


@pytest.mark.parametrize("command, text, line, byte", [
    ("check-subdivision", FAN_74.replace("0 1 0 | 1 1 1\n", "0 1 0 | 1 1 1  # \xff\n"), 6, "0xff"),
    ("radial", RUN_SMALL.replace("s0 = 5.0", "s0 = 5.0\n# caf\xe9"), 5, "0xe9"),
], ids=["fan-file", "run-file"])
def test_input_files_are_utf8_and_a_bad_byte_names_its_line(command, text, line, byte, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("latin-1"))   # one byte that UTF-8 cannot start a character with
    assert main([command, str(path), "--json", "-"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: line {line}: byte {byte} is not valid UTF-8\n")
    path.write_bytes(text.encode("utf-8"))   # the same characters in UTF-8 are a comment: a report, no error
    assert main([command, str(path), "--json", "-"]) in (0, 1)


def test_radial_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    import alequot.radial as radial
    from test_radial import zero_step

    monkeypatch.setattr(radial, "solve_banded", zero_step)
    run = tmp_path / "run.txt"
    run.write_text("n = 3\nC = 1.0\ns0 = 5.0\nw = 2.0\nc = -0.25\nnodes = 128\n")
    assert main(["radial", str(run), "--json", "-"]) == 3
    solver = json.loads(capsys.readouterr().out)["solver"]
    # every attempt stalls, down to the smallest step in t
    assert solver["error"].startswith(f"Newton stalled at t = {radial._MIN_DT}: damping exhausted at residual ")
    assert solver["trace_excerpt"] and solver["trace_excerpt"][-1]["residuals"]


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


# the same over the human summary that main prints without --json
HUMAN_SHA256 = {
    "resolve2d": "39e8aeefd6b1066e4a0e768bb8f76e311f2bd7ae580b799a0b5584296084aac9",
    "resolve3d": "b7e2392600db16546e921237a52425514d241eb1189d70d6e1fa5ed2a03bf659",
    "check-subdivision": "aee0435aba5507bef42c68e042635799538045a3b0e29214b5d3370afefd31b7",
    "sweep2d": "be1ceecb02c8ce03c94f37984c46ef3c3925db64a0bf3478711097b5a930a1bf",
}


@pytest.mark.parametrize("name", sorted(HUMAN_SHA256))
def test_human_summaries_match_golden_digest(name, tmp_path, capsys):
    digest = hashlib.sha256()
    for argv in _golden_corpus(name, tmp_path):
        code = main(argv)
        digest.update(f"{code}\n".encode() + capsys.readouterr().out.encode())
    assert digest.hexdigest() == HUMAN_SHA256[name]


class _Colour(enum.IntEnum):
    RED = 1


class _Text(str):
    def __repr__(self):
        return f"_Text({str.__repr__(self)})"


WRITER_EDGE_CASES = [
    {}, [], {"a": {}, "b": [], "c": [[], {}, [[]]]},
    ["é", "漢字", "😀", "\x00\x1f\n\t\"\\/", " ", ""],
    [0, -1, 10**40, -(10**40), 2**63],
    [-0.0, 0.0, 1e-06, 1e16, 0.1, 1.5e300, float("nan"), float("inf"), float("-inf")],
    (1, "a", (2, (3,)), ()), {"t": (True, False, None)}, True, None, "top", 7,
    # the writer's inline path takes exact str and int only; these go the long way
    [True, 1, False, 0, _Colour.RED, _Text("sub"), None, 1.5, -0.0, float("nan"), float("-inf")],
    {"b": True, "i": 1, "f": False, "z": 0, "e": _Colour.RED, "s": _Text("sub"), "n": None, "x": 1e16,
     "y": float("inf")},
    _Colour.RED, _Text("top"),
]


@pytest.mark.parametrize("value", WRITER_EDGE_CASES, ids=repr)
def test_writer_matches_json_dumps_on_edge_cases(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_writer_matches_json_dumps_on_reports(tmp_path, monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, code, json_path: reports.append(report) or code)
    for name in sorted(GOLDEN_SHA256):
        for argv in _golden_corpus(name, tmp_path):
            main(argv)
    reports.append(radial_report(readme_run_file())[0])
    assert len(reports) > 1000
    for report in reports:
        assert cli._dumps(report) == json.dumps(report, indent=2)


@pytest.mark.parametrize("value", [{"a": {1, 2}}, {1: "a"}, [object()]], ids=["set", "int-key", "object"])
def test_writer_rejects_what_json_cannot_hold(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def _strata_rows(*rows):
    return cli._StrataRows({"rays": list(rays), "product": product, "strict": strict}
                           for rays, product, strict in rows)


STRATA_ROWS = _strata_rows(((), "1", True), ((0,), "5/7", True), ((0, 1), "4/49", False),
                           ((2, 0, 11), "-3/343", True))

# past the flat-list join threshold, with an item the join must not take, and
# the strata row template at depth 0 and nested three levels deep
WRITER_LONG_CASES = [
    [True] * 6, [1, 2, 3, 4, True, 5], [_Colour.RED] * 6, [_Text("a")] * 6, ["a"] * 5 + [1],
    ["a", "b", "c", "d", "\u00e9"], list(range(-2, 9)), [None] * 5, [1.5] * 5,
    cli._StrataRows(), STRATA_ROWS, _strata_rows(((0,), "1/2", False)),
    {"a": {"b": {"c": STRATA_ROWS}}}, [[[STRATA_ROWS, cli._StrataRows()]]],
]


def _case_id(value):
    return f"_StrataRows({list.__repr__(value)})" if type(value) is cli._StrataRows else repr(value)


@pytest.mark.parametrize("value", WRITER_LONG_CASES, ids=_case_id)
def test_writer_matches_json_dumps_past_the_join_and_the_template(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("build, strata", [(lambda: resolve2d_report(97, 35), "chain_strata"),
                                           (lambda: resolve3d_report(7, 4), "family_strata")],
                         ids=["resolve2d", "resolve3d"])
def test_strata_layer_is_called_once_through_cli_names(build, strata, monkeypatch):
    # benchmarks/worker.py books these cli names to surface.strata_ms
    calls = []

    def counting(name):
        inner = getattr(cli, name)
        return lambda *args: calls.append(name) or inner(*args)

    for name in ("chain_strata", "family_strata", "volume_density_inequality"):
        monkeypatch.setattr(cli, name, counting(name))
    build()
    assert sorted(calls) == [strata, "volume_density_inequality"]


def _unsized_tuple_builds(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args \
                and isinstance(node.args[0], ast.GeneratorExp):
            yield node.lineno
        if any(isinstance(a, ast.Starred) and isinstance(a.value, ast.GeneratorExp) for a in node.args):
            yield node.lineno


@pytest.mark.parametrize("build", [lambda: check_subdivision_report(FAN_74), lambda: resolve3d_report(7, 4)],
                         ids=["check-subdivision", "resolve3d"])
def test_fan_reports_eliminate_each_matrix_once(build, monkeypatch):
    calls, bareiss = [], lattice._bareiss

    def counting(rows):
        calls.append(None)
        return bareiss(rows)

    expected = build()
    monkeypatch.setattr(lattice, "_bareiss", counting)
    assert build() == expected
    # one elimination per cone (sigma and five sub-cones), kept as its determinant,
    # and three substituted matrices per exceptional ray for interiority
    assert len(calls) <= 12


def test_no_tuple_is_built_from_a_generator():
    # an unsized tuple drifts between free lists that only a rare full GC empties: exact-sweep peak RSS
    src = Path(cli.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in _unsized_tuple_builds(ast.parse(path.read_text()))]
    assert not found, f"tuple(<generator>) or *<generator> at {found}"


PUBLIC_API = {
    "AngleVerdict", "ChainResolution", "CyclicQuotient", "DecayFit", "DecayFitError",
    "EnergyBreakdown", "ExceptionalRay", "FanSubdivision", "IntersectionMatrix",
    "KahlerConeError", "LatticeCone", "MassReport", "PathConfig", "PathTrace", "RadialGrid",
    "RadialProfile", "SingularityData", "SolverFailure", "StrataReport", "SubdivisionReport",
    "adjunction_check", "angle_condition", "bump_values", "calabi_profile",
    "chain_strata", "contains_in_interior", "decay_fit", "energy", "family_strata",
    "hj_resolution", "link_volume", "mass_integral",
    "newton_continuity_solve", "oracle_deviation", "quadrature_oracle", "singularity_data", "three_dim_family", "total_fprime",
    "unit_vector", "validate_subdivision", "volume_density_inequality",
}


def test_public_api():
    # growing or shrinking the flat API must be a deliberate edit of this set
    assert len(PUBLIC_API) == 41
    assert len(alequot.__all__) == len(set(alequot.__all__))
    assert set(alequot.__all__) == PUBLIC_API
    assert all(hasattr(alequot, name) for name in alequot.__all__)


def test_every_public_name_has_a_caller_in_the_library():
    # a route only the tests call belongs in the tests; a use inside its own def or class does not count
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for path in Path(cli.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), frozenset())
    assert sorted(set(alequot.__all__) - used) == []
