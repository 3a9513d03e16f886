"""alequot benchmark: the command that runs one workload and prints its result.

    python3 benchmarks/run.py --workload exact-sweep|long-chain|radial
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Uses only the standard library; alequot is
imported from the checkout's `src/`.  Every process it starts is a fresh
interpreter with BLAS/OpenMP pinned to one thread:

* set-up: one untimed priming start (writes bytecode caches), then several
  timed starts, each importing `alequot.cli` and running the workload's
  warm-up op; `setup_s` is their median, timed from process start to the
  warm-up op's return;
* `--trace 0`: one worker runs the workload until its ops have taken S
  seconds at the reference speed (see speed.py) and reports the end-to-end
  metrics;
* `--trace 1`: the set-up starts run under `-X importtime`, and one worker
  replays a fixed, seed-determined prefix of the schedule with timing
  wrappers around each layer call; it reports the per-layer metrics.

The last line of standard output is the result object; the lines before it
state every metric with its unit, the tail percentile, failures by reason,
the exact-output digest and the environment.  A copy of the full result,
with the trace spans, goes to `.bench_out/` in the checkout.  Metric names
and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = {0: 5, 1: 3}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def worker_cmd(mode: str, args, work: Path, importtime: bool = False) -> list[str]:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    return cmd + [
        str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--root", str(ROOT), "--work", str(work),
    ]


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("out of time")
    return left


def finish(proc: subprocess.Popen, started: float) -> str:
    try:
        out, _ = proc.communicate(timeout=remaining(started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def numpy_scipy_import_s(log: str) -> float:
    """Cumulative import time of the outermost numpy/scipy imports in an
    `-X importtime` log (post-order lines, two spaces of indent per level)."""
    stack: list[tuple] = []
    for line in log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line.split("|", 2)
        name_field = field[1:]
        level = (len(name_field) - len(name_field.lstrip(" "))) // 2
        children = []
        while stack and stack[-1][0] > level:
            children.insert(0, stack.pop())
        stack.append((level, name_field.strip(), int(cumulative), children))

    def heavy(node) -> int:
        _, name, cumulative, children = node
        if name.split(".")[0] in ("numpy", "scipy"):
            return cumulative
        return sum(heavy(c) for c in children)

    return sum(heavy(node) for node in stack) / 1e6


def measure_setup(args, work: Path, started: float) -> dict:
    """Priming start, then timed starts: wall from launch to the ready line."""
    traced = bool(args.trace)
    env = child_env()
    walls, raw, imports, numpy_scipy, problems = [], [], [], [], []
    for rep in range(SETUP_REPS[args.trace] + 1):
        log_path = work / f"importtime-{rep}.log"
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                worker_cmd("setup", args, work, importtime=traced), cwd=ROOT, env=env,
                stdout=subprocess.PIPE, stderr=log if traced else None, text=True,
            )
            if not select.select([proc.stdout], [], [], remaining(started))[0]:
                proc.kill()
                proc.wait()
                raise BenchError("set-up worker timed out")
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            rest = finish(proc, started).strip().splitlines()
        if not line or not rest:
            raise BenchError("set-up worker printed nothing")
        ready = json.loads(line)
        factor = json.loads(rest[-1])["speed_factor"]
        problems += ready["problems"]
        if rep == 0:
            continue  # the priming start fills bytecode caches and is not timed
        walls.append(wall / factor)
        raw.append(wall)
        imports.append(ready["import_s"] / factor)
        if traced:
            numpy_scipy.append(numpy_scipy_import_s(log_path.read_text()) / factor)
    return {
        "setup_s": statistics.median(walls),
        "setup_samples_s": walls,
        "raw_setup_s": statistics.median(raw),
        "cli.import_s": statistics.median(imports),
        "cli.import_numpy_scipy_s": statistics.median(numpy_scipy) if traced else None,
        "problems": problems,
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {name: "1" for name in THREAD_ENV},
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "alequot" / "cli.py").is_file():
        raise BenchError(f"no alequot sources under {ROOT / 'src'}")
    started = time.perf_counter()
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(args, work, started)
        mode = "trace" if args.trace else "run"
        proc = subprocess.Popen(worker_cmd(mode, args, work), cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        lines = finish(proc, started).strip().splitlines()
        if not lines:
            raise BenchError("worker printed nothing")
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()

    if args.trace:
        values = dict(result["metrics"])
        values["cli.import_s"] = setup["cli.import_s"]
        values["cli.import_numpy_scipy_s"] = setup["cli.import_numpy_scipy_s"]
        wanted = spec["per_layer"]
    else:
        values = {name: result[name] for name in
                  ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")}
        values["setup_s"] = setup["setup_s"]
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(set(values) ^ names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    problems = setup["problems"] + result["problems"]
    return {
        "line": {
            "correct": not problems,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        },
        "detail": {
            "problems": problems,
            "setup_samples_s": setup["setup_samples_s"],
            "raw_setup_s": setup["raw_setup_s"],
            **{k: v for k, v in result.items() if k not in ("metrics", "problems", "spans")},
        },
        "spans": result.get("spans"),
        "environment": environment(args),
    }


def report(args, out: dict) -> None:
    line, detail = out["line"], out["detail"]
    print(f"alequot benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    for name, m in line["metrics"].items():
        note = ""
        if name == "latency_p50_ms":
            note = f"  (median of {detail['latencies_n']} ops)"
        elif name == "latency_tail_ms":
            note = f"  (p{detail['tail_percentile']} of {detail['latencies_n']} ops)"
        elif name == "setup_s":
            note = f"  (median of {len(detail['setup_samples_s'])} fresh interpreters)"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"  times are scaled to the reference speed (speed.py); measured speed factor "
          f"{detail['speed_factor']:.4g}")
    if not args.trace:
        print(f"  as measured: setup_s {detail['raw_setup_s']:.6g} s, throughput_ops_s "
              f"{detail['raw_throughput_ops_s']:.6g} 1/s, latency_p50_ms {detail['raw_latency_p50_ms']:.6g} ms")
    if args.trace:
        print(f"  per-layer times are mean ms per op over {detail['trace_ops']} traced ops")
        if detail["missing_layers"]:
            print(f"  layer calls no longer present: {', '.join(detail['missing_layers'])}")
    print(f"  fail_ratio = {detail['fail_ratio']:.6g} ({line['failed']} of {line['attempted']} ops; "
          f"by reason {detail['fail_reasons']})")
    if args.workload == "radial":
        print(f"  oracle_dev_max = {detail['oracle_dev_max']:.6g}, "
              f"decay_exp_err_max = {detail['decay_exp_err_max']:.6g}")
    if detail["stream_sha256"]:
        print(f"  exact JSON stream sha256 {detail['stream_sha256']} over {detail['stream_ops']} ops")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    print("  environment: " + json.dumps(out["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        out = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    path = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    report(args, out)
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
