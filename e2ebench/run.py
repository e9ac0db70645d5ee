#!/usr/bin/env python3
"""End-to-end benchmark of wintermuted (see README.md in this directory).

Builds the daemon and the load process from the sources around this
directory, runs one workload and prints every metric by name, unit and
sample count, then one JSON result line:

  python3 e2ebench/run.py --workload wire-paper --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics. --trace 1 traces every other
one-second slice of the window and reports the per-layer metrics together
with the tracing overhead: traced minus untraced slices of the same run.
--self-test runs the bench's unit tests and a seconds-long smoke run of
every workload on a tiny topology.

Exit status: 0 with a result line; non-zero, without one, when the build,
the daemon or the load process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 150
WORKLOADS = ("wire-paper", "durable-paper", "query-mix")


def metric_units(mode: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics of
    BENCHMARK.json, which the load process emits under these names."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[mode]}


def log(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def cmake_cache() -> dict[str, str]:
    cache = {}
    path = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    return cache


def build() -> tuple[str, str]:
    """Configures and builds the daemon and the load process; returns
    their paths. Exits non-zero when the sources are not there or do not
    build, and refuses sanitizer builds."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # cmake.check_cache appears once a configure step has completed.
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeFiles", "cmake.check_cache")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", "-DWM_ASAN=OFF",
                      "-DWM_UBSAN=OFF", "-DWM_TSAN=OFF", "-DWM_SANITIZE=OFF"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "e2e_load", "e2e_selftest", "wintermuted"])
    with open(build_log, "a", encoding="utf-8") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log(f"build failed: {' '.join(step)} (see {build_log})")
                sys.exit(3)
    cache = cmake_cache()
    flags = " ".join(cache.get(k, "") for k in cache if k.startswith("CMAKE_CXX_FLAGS"))
    flags += " " + os.environ.get("CXXFLAGS", "")
    sanitized = [k for k in ("WM_ASAN", "WM_UBSAN", "WM_TSAN", "WM_SANITIZE")
                 if cache.get(k, "OFF").upper() in ("ON", "1", "TRUE", "YES")]
    if sanitized or "-fsanitize" in flags:
        log(f"refusing to measure a sanitizer build ({sanitized or flags.strip()})")
        sys.exit(4)
    return (os.path.join(BUILD_DIR, "e2e_load"),
            os.path.join(BUILD_DIR, "wm", "src", "apps", "wintermuted"))


def run_load(binary: str, daemon: str, workload: str, seed: int,
             seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One run of the load process (which owns the daemon) in its own
    process group, reaped on every path. `smoke` runs a tiny topology
    through the same code path, for the self-test."""
    workdir = os.path.join(BUILD_DIR, "runs",
                           f"{workload}-{seed}-{int(trace)}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    argv = [binary, "--daemon", daemon, "--workdir", workdir, "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    if smoke:
        argv.append("--smoke")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        log(f"load process exited with {proc.returncode}; daemon log: "
            f"{os.path.join(workdir, 'wintermuted.log')}")
        sys.exit(5)
    result = json.loads(out.decode().strip().splitlines()[-1])
    raw_file = os.path.join(BUILD_DIR, "results", f"{workload}-{seed}-{int(trace)}.json")
    os.makedirs(os.path.dirname(raw_file), exist_ok=True)
    with open(raw_file, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    trace_file = result["run"].get("trace_file")
    if trace_file and os.path.exists(trace_file):
        kept = os.path.join(BUILD_DIR, "traces", f"{workload}-{seed}.csv")
        os.makedirs(os.path.dirname(kept), exist_ok=True)
        shutil.move(trace_file, kept)
        result["run"]["trace_file"] = kept
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def git_revision() -> str:
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def self_test(binary_dir: str, daemon: str) -> int:
    selftest = os.path.join(binary_dir, "e2e_selftest")
    if subprocess.run([selftest], check=False).returncode != 0:
        return 1
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_load(os.path.join(binary_dir, "e2e_load"), daemon,
                              workload, 1, 2.0, trace, smoke=True)
            problems = list(result["failures"])
            if trace and "pusher.sample_us_per_reading" not in result["metrics"]:
                problems.append("traced run without span metrics")
            if (result["run"]["oracle_checked"] <= 0
                    or result["metrics"].get("delivered_rps", 0) <= 0):
                problems.append("nothing was delivered")
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if not problems else problems}")
            if problems:
                return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    load_start = os.getloadavg()
    binary, daemon = build()
    if args.self_test:
        return self_test(os.path.dirname(binary), daemon)

    result = run_load(binary, daemon, args.workload, args.seed, args.seconds,
                      bool(args.trace))
    load_end = os.getloadavg()
    failures = list(result["failures"])
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = [name for name in units if name not in result["metrics"]]
    failures += [f"{name} was not measured" for name in missing]
    stamp = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "loadavg_start": load_start, "loadavg_end": load_end,
        "build_type": cmake_cache().get("CMAKE_BUILD_TYPE", "?"),
        "revision": git_revision(), **result["run"],
        "valid": not result["validity_flags"],
        "validity_flags": result["validity_flags"], "failures": failures,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for flag in result["validity_flags"]:
        log(f"run flagged: {flag}")
    for failure in failures:
        log(f"CORRECTNESS FAILURE: {failure}")

    print(f"{args.workload} seed={args.seed} "
          f"({'per-layer, traced' if args.trace else 'end-to-end'}):")
    for name, unit in units.items():
        value = result["metrics"].get(name)
        shown = "not measured" if value is None else f"{value:14.6g}"
        count = result["samples"].get(name)
        print(f"  {name:42s} {shown:>14s} {unit}" + (f"  ({count})" if count else ""))
    line = {
        "correct": not failures,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": result["metrics"].get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
