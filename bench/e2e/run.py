#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md in this directory).

One workload, with the result as one JSON line last on stdout:

    python3 bench/e2e/run.py --workload step-l7 --seed 1 --seconds 20 --trace 0

Every workload, each in its own process, printing "workload metric value
unit" lines and writing <out>/run<k>/<workload>/e2e_<workload>.json:

    python3 bench/e2e/run.py [--out DIR] [--seed N] [--runs N] [--trace 1]

The binary is built on first use into .bench_build/ at the repository root,
with the repository's own CMake files. Every MPAS_* variable is removed
from the benchmark's environment, so an ambient setting cannot change what
is measured. Exit status is 0 only when every output was correct and no
operation failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def bench_env():
    """The environment of the build and of every run: no MPAS_* variable,
    and temporary files inside the build tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPAS_")}
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def build():
    """Configure once, then bring mpas_e2e up to date; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no repository sources at {ROOT} "
                 "(src/CMakeLists.txt is missing)")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", "-DMPAS_ENABLE_TESTS=OFF",
             "-DMPAS_ENABLE_BENCH=OFF", "-DMPAS_ENABLE_EXAMPLES=OFF",
             f"-DCMAKE_PROJECT_INCLUDE={HERE / 'project_include.cmake'}"],
            env=bench_env(), stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "mpas_e2e",
                    "-j4"], env=bench_env(), stdout=sys.stderr, check=True)
    return BUILD / "mpas_e2e"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--short=12", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(binary, workload, seed, seconds, trace, out, sha, echo):
    """Run one workload in a fresh directory; returns (returncode, report)
    where report is the parsed e2e_<workload>.json or None."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [str(binary), f"workload={workload}", f"seed={seed}",
           f"out={out}", f"seconds={seconds}", f"traced={int(trace)}",
           f"git_sha={sha}"]
    proc = subprocess.run(cmd, env=bench_env(), capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    echo(proc.stdout.rstrip("\n"))
    if proc.stderr:
        log(proc.stderr.rstrip("\n"))
    path = out / f"e2e_{workload}.json"
    report = json.loads(path.read_text()) if path.is_file() else None
    return proc.returncode, report


def result_line(report, names):
    """The one-line result: the named metrics, with value and unit."""
    metrics = {}
    for name in names:
        m = report["metrics"].get(name)
        if m is None or m["value"] is None:
            sys.exit(f"run.py: {report['workload']} did not report {name}")
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def main():
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads,
                   help="run one workload and print the JSON result line")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="repetitions of the full set (set mode)")
    p.add_argument("--out", type=Path, default=ROOT / ".bench_runs")
    args = p.parse_args()

    binary = build()
    sha = git_sha()
    if args.workload:
        out = args.out / f"{args.workload}_seed{args.seed}_trace{args.trace}"
        rc, report = run_workload(binary, args.workload, args.seed,
                                  args.seconds, args.trace, out, sha, log)
        if report is None:
            sys.exit(f"run.py: {args.workload} exited {rc} without a report")
        kind = "per_layer" if args.trace else "end_to_end"
        print(result_line(report, [m["name"] for m in bench[kind]]))
        return 0 if rc == 0 and report["correct"] else 1

    status = 0
    for k in range(args.runs):
        for w in workloads:
            rc, report = run_workload(binary, w, args.seed + k, args.seconds,
                                      args.trace, args.out / f"run{k}" / w,
                                      sha, print)
            if rc != 0 or report is None or not report["correct"]:
                log(f"run.py: {w} (run {k}) failed with exit code {rc}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
