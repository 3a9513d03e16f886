"""One benchmark process: a fresh interpreter that imports alequot from the
checkout and runs a workload's ops in-process through `alequot.cli.main`.

    python3 benchmarks/worker.py --mode setup|run|trace --workload W --seed N
        --seconds S --root CHECKOUT --work DIR

`setup` imports the CLI, runs the workload's warm-up op and prints one ready
line.  `run` does the same, then runs ops in schedule order until they have
taken S seconds at the reference speed of speed.py (checks untimed) and
prints one JSON summary line.  `trace` runs a
fixed, seed-determined prefix of the schedule twice per op, plain and with
timing wrappers around every public-layer call the CLI makes, and once more
under cProfile on exact ops to count Fraction constructions.  `benchmarks/run.py`
starts these processes; it is the command to use.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import io
import itertools
import json
import math
import os
import pstats
import resource
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

import workloads
from speed import Speedometer, kernel_time, REFERENCE_S
from workloads import WARMUP, Op, schedule

LADDER = (50, 75, 90, 95, 99)
# Blocks per second of --seconds a traced run covers: about 30 exact-sweep
# ops, 2.4 long-chain ops and (at 10 s) one radial block of 40 ops.
TRACE_BLOCKS_PER_S = {"exact-sweep": 3, "long-chain": 0.4, "radial": 0.05}
FAIL_REASONS = ("stall", "kahler_cone", "fit_window", "oracle", "check", "other")

# Functions the CLI calls by the name it imported them under, and the
# per-layer metric each call is booked to.
CLI_LAYERS = {
    "singularity_data": "quotient.singularity_data_ms",
    "hj_resolution": "resolution.hj_resolution_ms",
    "three_dim_family": "resolution.three_dim_family_ms",
    "build_subdivision": "resolution.build_subdivision_ms",
    "validate_subdivision": "resolution.validate_subdivision_ms",
    "angle_condition": "resolution.angle_condition_ms",
    "parse_subdivision_file": "formats.parse_subdivision_ms",
    "parse_run_file": "formats.parse_run_file_ms",
    "adjunction_check": "surface.adjunction_ms",
    "energy": "surface.energy_ms",
    "chain_strata": "surface.strata_ms",
    "family_strata": "surface.strata_ms",
    "volume_density_inequality": "surface.strata_ms",
    "newton_continuity_solve": "radial.solve_ms",
    "oracle_deviation": "radial.oracle_deviation_ms",
    "decay_fit": "radial.decay_fit_ms",
    "mass_integral": "radial.mass_integral_ms",
}
# Methods of surface.IntersectionMatrix the CLI calls on its instance.
MATRIX_LAYERS = {
    "inverse": "surface.inverse_ms",
    "inverse_entries_nonpositive": "surface.inverse_sign_ms",
    "is_negative_definite": "surface.minors_ms",
    "leading_minors": "surface.minors_ms",
}
# Calls made inside the radial module itself, below the CLI's calls.
RADIAL_LAYERS = {
    "quadrature_oracle": "radial.quadrature_oracle_ms",
    "total_fprime": "radial.total_fprime_ms",
    "decay_fit": "radial.decay_fit_ms",
}
JSON_METRIC = "cli.json_dumps_ms"
LAYER_METRICS = sorted(
    set(CLI_LAYERS.values()) | set(MATRIX_LAYERS.values()) | set(RADIAL_LAYERS.values()) | {JSON_METRIC}
)


def import_cli(root: Path):
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    started = time.perf_counter()
    import alequot.cli as cli

    import_s = time.perf_counter() - started
    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"alequot was imported from {cli.__file__}, not from the checkout")
    return cli, import_s


class Runner:
    """Runs ops through cli.main with stdout and stderr captured."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.input_path = work / f"input-{os.getpid()}.txt"

    def argv(self, op: Op) -> list[str]:
        """Write the op's input file (untimed) and return its argv."""
        args = [str(x) for x in op.args]
        if op.text is not None:
            self.input_path.write_text(op.text)
            args = [str(self.input_path)]
        return [op.command, *args, "--json", "-"]

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except Exception as caught:  # a traceback out of main is an op failure, not a harness crash
                code, exc = None, caught
        elapsed = time.perf_counter() - started
        return elapsed, code, out.getvalue(), err.getvalue() + (repr(exc) if exc else "")


def _failure_reason(text: str) -> str:
    if "damping exhausted" in text or "did not converge" in text:
        return "stall"
    if "positiv" in text or "Kahler cone" in text:
        return "kahler_cone"
    if "fit window" in text or "usable" in text:
        return "fit_window"
    return "other"


class Outcome:
    """Verdict on one op: `reason` is None for a success; `problems` lists
    disagreements with the references, which make the run incorrect."""

    def __init__(self, reason=None, problems=(), deviation=None, exp_err=None):
        self.reason = reason
        self.problems = list(problems)
        self.deviation = deviation
        self.exp_err = exp_err


def evaluate(op: Op, code, out: str, err: str) -> Outcome:
    try:
        return _evaluate(op, code, out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome("check", [f"{op.command} {op.args}: malformed report ({exc!r})"])


def _evaluate(op: Op, code, out: str, err: str) -> Outcome:
    import checks  # needs the checkout's tests/ on sys.path, which import_cli adds

    info = op.info
    if op.exact:
        if code != 0:
            return Outcome("other", [f"{op.command} {op.args}: exit {code}: {err.strip()[:200]}"])
        problems = checks.check_exact(json.loads(out), op.command, info)
        return Outcome("check" if problems else None, [f"{op.command} {op.args}: {p}" for p in problems])

    n = info["n"]
    if code in (0, 1):
        report = json.loads(out)
        deviation, exp_err = checks.radial_accuracy(report, n)
        if code == 0:
            problems = checks.check_radial(report, n)
            label = f"radial {info}"
            return Outcome("check" if problems else None, [f"{label}: {p}" for p in problems], deviation, exp_err)
        certs = report["certificates"]
        reason = "oracle" if certs["oracle_agreement"]["verdict"] == "fail" else "fit_window"
        return Outcome(reason, (), deviation, exp_err)
    if code == 3:
        return Outcome(_failure_reason(json.loads(out)["solver"]["error"]))
    if code == 2:
        return Outcome(_failure_reason(err))
    return Outcome("other")


class Tally:
    """Outcomes of a sequence of ops."""

    def __init__(self):
        self.attempted = 0
        self.reasons = Counter()
        self.problems: list[str] = []
        self.deviations: list[float] = []
        self.exp_errs: list[float] = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def add(self, op: Op, outcome: Outcome, out: str) -> None:
        self.attempted += 1
        if outcome.reason:
            self.reasons[outcome.reason] += 1
        self.problems.extend(outcome.problems)
        if outcome.deviation is not None:
            self.deviations.append(outcome.deviation)
        if outcome.exp_err is not None:
            self.exp_errs.append(outcome.exp_err)
        if op.exact:
            self.digest.update(out.encode())
            self.digest_ops += 1

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:10],
            "fail_reasons": {r: self.reasons[r] for r in FAIL_REASONS},
            "fail_ratio": self.failed / self.attempted if self.attempted else 0.0,
            "oracle_dev_max": max(self.deviations, default=0.0),
            "decay_exp_err_max": max(self.exp_errs, default=0.0),
            "stream_sha256": self.digest.hexdigest() if self.digest_ops else None,
            "stream_ops": self.digest_ops,
        }


def run_checked(runner: Runner, op: Op, tally: Tally) -> float:
    """Time one op, then check it untimed; exact ops are run a second time
    and must print the same bytes."""
    argv = runner.argv(op)
    elapsed, code, out, err = runner.call(argv)
    outcome = evaluate(op, code, out, err)
    if op.exact and outcome.reason is None:
        _, code2, out2, _ = runner.call(argv)
        if (code2, out2) != (code, out):
            outcome = Outcome("check", [f"{op.command} {op.args}: JSON differs on repeat"])
    tally.add(op, outcome, out)
    return elapsed


def warm_up(runner: Runner, workload: str) -> list[str]:
    tally = Tally()
    run_checked(runner, WARMUP[workload], tally)
    return tally.problems + [f"warm-up failed: {r}" for r in tally.reasons.elements()]


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """The highest ladder percentile with at least ten samples beyond it (p50
    when there are too few samples for any), interpolated as the median is."""
    n = len(latencies)
    chosen = max((p for p in LADDER if n * (100 - p) / 100 >= 10), default=LADDER[0])
    if n < 2:
        return latencies[0], chosen
    return statistics.quantiles(latencies, n=100, method="inclusive")[chosen - 1], chosen


def mode_run(runner: Runner, args) -> dict:
    tally = Tally()
    speed = Speedometer()
    latencies: list[float] = []  # scaled to the reference speed
    raw: list[float] = []
    block, busy = 0, 0.0
    for op in schedule(args.workload, args.seed):
        # stop only between blocks, so every run holds the same mix of ops
        if op.block != block and busy >= args.seconds:
            break
        block = op.block
        factor = speed.factor()
        elapsed = run_checked(runner, op, tally)
        latencies.append(elapsed / factor)
        raw.append(elapsed)
        busy += elapsed / factor
    tail, percentile = tail_latency(latencies)
    result = tally.summary()
    result.update(
        latencies_n=len(latencies),
        throughput_ops_s=len(latencies) / sum(latencies),
        latency_p50_ms=statistics.median(latencies) * 1e3,
        latency_tail_ms=tail * 1e3,
        tail_percentile=percentile,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        raw_throughput_ops_s=len(raw) / sum(raw),
        raw_latency_p50_ms=statistics.median(raw) * 1e3,
        speed_factor=statistics.median(speed.samples),
    )
    return result


class Tracer:
    """Timing wrappers around layer calls.  A call whose metric is already on
    the span stack runs unwrapped, so a layer is never booked twice; time in
    spans opened directly under the op is what cli.self_ms subtracts."""

    def __init__(self):
        self.totals = Counter()
        self.scale = 1.0  # 1 / speed factor of the op being traced
        self.stack: list[str] = []
        self.direct = 0.0
        self.spans: list[tuple] = []
        self.op_index = 0
        self.newton_iters = 0
        self.halvings = 0
        self.node_iters = 0
        self._patches: list[tuple] = []

    def wrap(self, fn, metric: str, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            if metric in tracer.stack:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else "cli.main"
            tracer.stack.append(metric)
            result, error = None, None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                ended = time.perf_counter()
                tracer.stack.pop()
                tracer.totals[metric] += (ended - started) * tracer.scale
                if not tracer.stack:
                    tracer.direct += (ended - started) * tracer.scale
                tracer.spans.append((tracer.op_index, metric, parent, started, ended))
                if observe is not None:
                    observe(args, kwargs, result, error)

        return traced

    def observe_solve(self, args, kwargs, result, error) -> None:
        trace = result[1] if result is not None else getattr(error, "trace", None)
        if trace is None:
            return
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        iters = trace.newton_iterations
        self.newton_iters += iters
        self.node_iters += iters * grid.m
        self.halvings += sum(round(-math.log2(a)) for st in trace.steps for a in st.step_sizes)

    def install(self, cli) -> list[str]:
        """Patch the layer calls; returns the names that no longer exist."""
        import alequot.radial as radial
        import alequot.surface as surface

        missing = []
        targets = [(cli, name, metric) for name, metric in CLI_LAYERS.items()]
        targets += [(surface.IntersectionMatrix, name, metric) for name, metric in MATRIX_LAYERS.items()]
        targets += [(radial, name, metric) for name, metric in RADIAL_LAYERS.items()]
        for owner, name, metric in targets:
            original = getattr(owner, name, None)
            if original is None:
                missing.append(f"{owner.__name__}.{name}")
                continue
            observe = self.observe_solve if metric == "radial.solve_ms" else None
            self._patches.append((owner, name, original))
            setattr(owner, name, self.wrap(original, metric, observe))
        json_module = cli.json
        self._patches.append((cli, "json", json_module))
        cli.json = types.SimpleNamespace(dumps=self.wrap(json_module.dumps, JSON_METRIC))
        return missing

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def trace_prefix(workload: str, seed: int, seconds: int) -> list[Op]:
    """The ops a traced run covers: whole blocks, as many as the seed and the
    run length fix, so every count it reports repeats exactly."""
    blocks = max(1, round(TRACE_BLOCKS_PER_S[workload] * seconds))
    return list(itertools.takewhile(lambda op: op.block < blocks, schedule(workload, seed)))


def fraction_new_calls(profile: cProfile.Profile) -> int:
    import fractions

    stats = pstats.Stats(profile).stats
    return sum(
        entry[1]
        for (filename, _, funcname), entry in stats.items()
        if funcname == "__new__" and filename == fractions.__file__
    )


def mode_trace(runner: Runner, args) -> dict:
    cli = runner.cli
    tracer = Tracer()
    tally = Tally()
    speed = Speedometer()
    profile = cProfile.Profile()
    plain_s = traced_s = self_s = 0.0
    chain_length_sum = 0
    ops = trace_prefix(args.workload, args.seed, args.seconds)
    # Three passes over the ops: plain, traced, profiled.  Patching the layer
    # calls once per pass, not once per op, keeps the interpreter's
    # specialised bytecode warm; re-patching around every op slows whichever
    # run follows it by ~10%.
    plain_outputs = []
    for op in ops:
        argv = runner.argv(op)
        factor = speed.factor()
        gc.collect()
        elapsed, code, out, err = runner.call(argv)
        plain_s += elapsed / factor
        tally.add(op, evaluate(op, code, out, err), out)
        plain_outputs.append((code, out))
        if op.command == "resolve2d" and code == 0:
            chain_length_sum += len(json.loads(out)["resolution"]["self_intersections"])

    missing = tracer.install(cli)
    try:
        for index, op in enumerate(ops):
            argv = runner.argv(op)
            factor = speed.factor()
            tracer.op_index, tracer.scale, tracer.direct = index, 1 / factor, 0.0
            gc.collect()
            elapsed, code, out, _ = runner.call(argv)
            traced_s += elapsed / factor
            self_s += elapsed / factor - tracer.direct
            if op.exact and (code, out) != plain_outputs[index]:
                tally.reasons["check"] += 1
                tally.problems.append(f"{op.command} {op.args}: JSON differs on repeat")
    finally:
        tracer.uninstall()

    for op in ops:
        if op.exact:
            argv = runner.argv(op)
            profile.enable()
            runner.call(argv)
            profile.disable()

    count = len(ops)
    metrics = {name: tracer.totals[name] * 1e3 / count for name in LAYER_METRICS}
    solve_s = tracer.totals["radial.solve_ms"]
    summary = tally.summary()
    metrics.update({
        "cli.self_ms": self_s * 1e3 / count,
        "exact.fraction_new_calls": fraction_new_calls(profile) if tally.digest_ops else 0,
        "surface.chain_length_sum": chain_length_sum,
        "radial.newton_iters": tracer.newton_iters,
        "radial.halvings": tracer.halvings,
        "radial.ms_per_newton_iter": solve_s * 1e3 / tracer.newton_iters if tracer.newton_iters else 0.0,
        "radial.node_iters_per_s": tracer.node_iters / solve_s if solve_s else 0.0,
        "trace.overhead_ratio": traced_s / plain_s,
        "fail_ratio": summary["fail_ratio"],
        "oracle_dev_max": summary["oracle_dev_max"],
        "decay_exp_err_max": summary["decay_exp_err_max"],
    })
    for reason, n in summary["fail_reasons"].items():
        metrics[f"radial.failures.{reason}"] = n if args.workload == "radial" else 0
    summary.update(metrics=metrics, trace_ops=count, missing_layers=missing, spans=tracer.spans,
                   speed_factor=statistics.median(speed.samples))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    cli, import_s = import_cli(args.root)
    runner = Runner(cli, args.work)
    problems = warm_up(runner, args.workload)
    if args.mode == "setup":
        print(json.dumps({"import_s": import_s, "problems": problems}), flush=True)
        # calibrate after the ready line, so the parent's timing excludes it
        print(json.dumps({"speed_factor": kernel_time() / REFERENCE_S}), flush=True)
        return 0
    result = mode_run(runner, args) if args.mode == "run" else mode_trace(runner, args)
    result["problems"] = problems + result["problems"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
