"""Correctness checks run, untimed, on every op's JSON report.

The references never call alequot.  Rays come from the brute-force hull
enumeration and short inverses from dense Gauss-Jordan elimination in
`tests/oracles.py`.  Chains are checked by rebuilding r/a from the continued
fraction, cone angles by pairing with gamma = ((1 + sum(a_i - r))/r, 1, ...),
energies by the term-by-term formula (and r - 1/r on crepant chains), and the
README worked values verbatim.  The radial reference is the theory:
agreement with the quadrature oracle to 1e-6 and the s^(1-n) tail within 1%.

Each check function returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

from fractions import Fraction

from oracles import hull_chain_rays, invert_fraction_matrix
from workloads import hj_digits, quotient_of_digits

HULL_R_MAX = 1500        # the hull enumeration is O(r); skip it beyond this
FULL_INVERSE_K_MAX = 6   # the dense Fraction inverse is O(k^3)
ORACLE_TOL = 1e-6
EXPONENT_REL_TOL = 0.01

README_VALUES = {
    ("resolve2d", 7, 3): {"beta": ["4/7", "5/7", "6/7"], "energy": "113/49"},
    ("resolve3d", 7, 4): {"beta": ["6/7", "5/7"], "weighted_volume": "7"},
    ("check-subdivision", 7, 4): {"beta": ["6/7", "5/7"], "weighted_volume": "7"},
}


def _gamma(r: int, weights) -> tuple[Fraction, ...]:
    return (Fraction(1 + sum(a - r for a in weights), r),) + (Fraction(1),) * len(weights)


def _pair(w, gamma) -> Fraction:
    return sum((x * g for x, g in zip(w, gamma)), Fraction(0))


def _angle_verdict(betas) -> str:
    if all(0 < b < 1 for b in betas):
        return "pass"
    if all(0 < b <= 1 for b in betas):
        return "not-applicable"
    return "fail"


def _strata_verdict(betas, strata, r) -> str:
    ok = True
    for stratum in strata:
        product = Fraction(1)
        for i in stratum:
            product *= betas[i]
        ok = ok and product > Fraction(1, r)
    return "pass" if ok else "fail"


def _det3(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _verdicts(report) -> dict:
    return {name: entry["verdict"] for name, entry in report["certificates"].items()}


def _expect(problems, label, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def check_surface(report: dict, r: int, a: int) -> list[str]:
    problems: list[str] = []
    res = report["resolution"]
    bs = res["self_intersections"]
    rays = [tuple(w) for w in res["rays"]]
    k = len(bs)
    _expect(problems, "chain", bs, hj_digits(r, a))
    _expect(problems, "continued fraction r/a", quotient_of_digits(bs), (r, a))

    boundary = [(0, 1)] + rays + [(r, r - a)]
    for j, b in enumerate(bs, start=1):
        lhs = (boundary[j - 1][0] + boundary[j + 1][0], boundary[j - 1][1] + boundary[j + 1][1])
        _expect(problems, f"recurrence at ray {j}", lhs, (b * boundary[j][0], b * boundary[j][1]))
    if r <= HULL_R_MAX:
        _expect(problems, "rays vs hull oracle", rays, hull_chain_rays(r, a))

    gamma = _gamma(r, (a,))
    betas = [_pair(w, gamma) for w in rays]
    _expect(problems, "beta", res["beta"], [str(b) for b in betas])
    _expect(problems, "discrepancies", res["discrepancies"], [str(b - 1) for b in betas])

    chi_star = [2] if k == 1 else [1] + [0] * (k - 2) + [1]
    total = (k + 1) + sum((b - 1) * c for b, c in zip(betas, chi_star))
    total += sum(betas[j] * betas[j + 1] - 1 for j in range(k - 1)) - Fraction(1, r)
    _expect(problems, "energy", report["energy"]["total"], str(total))
    if a == r - 1:
        _expect(problems, "crepant energy r - 1/r", report["energy"]["total"], str(r - Fraction(1, r)))

    certs = report["certificates"]
    minors = certs["negative_definite"]["leading_minors"]
    _expect(problems, "|det| = r", abs(minors[-1]), r)
    row0 = [Fraction(x) for x in certs["inverse_nonpositive"]["inverse_first_row"]]
    # row 0 of M^-1 times the tridiagonal M must be the first unit vector
    product = [
        row0[j] * -bs[j] + (row0[j - 1] if j > 0 else 0) + (row0[j + 1] if j + 1 < k else 0)
        for j in range(k)
    ]
    _expect(problems, "inverse row 0 times M", product, [1] + [0] * (k - 1))
    if k <= FULL_INVERSE_K_MAX:
        rows = [[-bs[i] if i == j else int(abs(i - j) == 1) for j in range(k)] for i in range(k)]
        _expect(problems, "inverse row 0 vs Gauss-Jordan", row0, invert_fraction_matrix(rows)[0])

    strata = [(j,) for j in range(k)] + [(j, j + 1) for j in range(k - 1)]
    want = {
        "angle_condition": _angle_verdict(betas),
        "negative_definite": "pass",
        "inverse_nonpositive": "pass",
        "adjunction": "pass",
        "volume_density": _strata_verdict(betas, strata, r),
    }
    _expect(problems, "verdicts", _verdicts(report), want)

    readme = README_VALUES.get(("resolve2d", r, a))
    if readme:
        _expect(problems, "README beta", res["beta"], readme["beta"])
        _expect(problems, "README energy", report["energy"]["total"], readme["energy"])
    return problems


def check_family(report: dict, command: str, r: int, a: int) -> list[str]:
    problems: list[str] = []
    m = (r + 1) // a
    v, e2, e3 = (r, r - 1, r - a), (0, 1, 0), (0, 0, 1)
    w1, w2 = (1, 1, 1), (m, m, m - 1)
    gamma = _gamma(r, (1, a))
    betas = [_pair(w1, gamma), _pair(w2, gamma)]
    sub = report["subdivision"]
    cones = [tuple(tuple(g) for g in cone) for cone in sub["cones"]]
    _expect(problems, "cones", sorted(map(sorted, cones)), sorted(map(sorted, (
        (w1, e2, e3), (v, w1, e3), (w2, e2, w1), (v, w2, w1), (v, e2, w2)))))
    _expect(problems, "rays", [tuple(w) for w in sub["rays"]], [w1, w2])
    _expect(problems, "beta", sub["beta"], [str(b) for b in betas])

    certs = report["certificates"]
    dets = [abs(_det3(*cone)) for cone in cones]
    _expect(problems, "determinants", certs["unimodularity"]["determinants"], dets)
    weighted = sum(
        (Fraction(d) / (_pair(g0, gamma) * _pair(g1, gamma) * _pair(g2, gamma))
         for d, (g0, g1, g2) in zip(dets, cones)),
        Fraction(0),
    )
    _expect(problems, "weighted volume", weighted, r)
    _expect(problems, "reported weighted volume", certs["covering"]["weighted_volume"], str(r))

    want = {
        "unimodularity": "pass" if all(d == 1 for d in dets) else "fail",
        "covering": "pass",
        "interiority": "pass",
        "angle_condition": _angle_verdict(betas),
    }
    if command == "resolve3d":
        want["volume_density"] = _strata_verdict(betas, [(0,), (1,), (0, 1)], r)
    else:
        want["disjointness"] = "not-applicable"
    _expect(problems, "verdicts", _verdicts(report), want)

    readme = README_VALUES.get((command, r, a))
    if readme:
        _expect(problems, "README beta", sub["beta"], readme["beta"])
        _expect(problems, "README weighted volume", certs["covering"]["weighted_volume"],
                readme["weighted_volume"])
    return problems


def check_exact(report: dict, command: str, info: dict) -> list[str]:
    if command == "resolve2d":
        return check_surface(report, info["r"], info["a"])
    return check_family(report, command, info["r"], info["a"])


def radial_accuracy(report: dict, n: int) -> tuple[float | None, float | None]:
    """(oracle deviation, relative exponent error) read off a radial report;
    None where the report has no such value."""
    deviation = report.get("oracle", {}).get("relative_max_norm")
    exponent = report.get("decay", {}).get("exponent_s")
    err = None if exponent is None else abs(exponent - (1 - n)) / abs(1 - n)
    return deviation, err


def check_radial(report: dict, n: int) -> list[str]:
    """Checks for a run that exited 0, i.e. claims every certificate passed."""
    problems: list[str] = []
    deviation, err = radial_accuracy(report, n)
    if deviation is None or not deviation <= ORACLE_TOL:
        problems.append(f"oracle deviation {deviation} exceeds {ORACLE_TOL}")
    if err is None or not err <= EXPONENT_REL_TOL:
        problems.append(f"tail exponent off 1 - n = {1 - n} by relative {err}")
    return problems
