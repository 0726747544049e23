#!/usr/bin/env python3
"""Builds and runs the CPLA benchmark binary.

Run from the root of a checkout:

    python3 cplabench/run.py --workload flow_sdp_t1 --seed 1 --seconds 20 --trace 0
    python3 cplabench/run.py --workload all            # every workload, summary table
    python3 cplabench/run.py --self-test

The binary is built from source on first use into the directory named by
CARGO_TARGET_DIR (default .bench_build). The last line of stdout is the
binary's JSON result; build output and diagnostics go to stderr. Any OMP_*
or GOMP_* variable is removed from the binary's environment so that thread
counts and wait policy are the ones the workloads define.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["flow_sdp_t1", "lagr_large", "eco_stream"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build() -> Path:
    """Configures (once) and builds the binary; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("cplabench: no src/ next to the benchmark; run from a full checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "cplabench", "cplabench_selftest",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            sys.exit(f"cplabench: build step failed: {' '.join(cmd)}")
    return out


def child_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if not k.startswith(("OMP_", "GOMP_"))}


def run_binary(out: Path, args: list[str]) -> str | None:
    """Runs the binary; returns its stdout, or None when it failed."""
    try:
        proc = subprocess.run([str(out / "cplabench"), *args], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=child_env(), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("cplabench: benchmark binary timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"cplabench: benchmark binary exited with {proc.returncode}", file=sys.stderr)
        return None
    return proc.stdout


def one(out: Path, workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        args += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    stdout = run_binary(out, args)
    if stdout is None:
        return None
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return json.loads(stdout.strip().splitlines()[-1])


def run_all(out: Path, seed: int, seconds: int, trace: int) -> int:
    """Every workload in turn, then one table of every metric by name and unit."""
    results = {}
    for workload in WORKLOADS:
        res = one(out, workload, seed, seconds, trace)
        if res is None:
            return 1
        results[workload] = res
    print(f"\n{'workload':<12} {'metric':<34} {'value':>16} unit", file=sys.stderr)
    for workload, res in results.items():
        print(f"{workload:<12} {'correct/attempted/failed':<34} "
              f"{str(res['correct']) + '/' + str(res['attempted']) + '/' + str(res['failed']):>16}",
              file=sys.stderr)
        for name, m in res["metrics"].items():
            print(f"{workload:<12} {name:<34} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    return 0 if all(r["correct"] for r in results.values()) else 1


def self_test(out: Path) -> int:
    """The unit tests of the measuring code, plus: every metric the binary can print is
    named in BENCHMARK.json, in the same section and with the same unit."""
    rc = subprocess.run([str(out / "cplabench_selftest")], check=False).returncode
    listed = run_binary(out, ["--list-metrics"])
    if listed is None:
        return 1
    printed = {}
    for line in listed.splitlines():
        section, name, unit = line.split()
        printed[name] = (section, unit)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (section, m["unit"])
                for section in ("end_to_end", "per_layer") for m in spec[section]}
    ok = printed == declared
    print(f"{'ok  ' if ok else 'FAIL'} benchmark metrics match BENCHMARK.json "
          f"({len(printed)} printed, {len(declared)} declared)")
    for name in sorted(set(printed) ^ set(declared)):
        print(f"     only in {'binary' if name in printed else 'BENCHMARK.json'}: {name}")
    for name in sorted(set(printed) & set(declared)):
        if printed[name] != declared[name]:
            print(f"     {name}: binary {printed[name]} vs BENCHMARK.json {declared[name]}")
    wl = [w["name"] for w in spec["workloads"]]
    wl_ok = wl == WORKLOADS
    print(f"{'ok  ' if wl_ok else 'FAIL'} workloads match BENCHMARK.json")
    return 0 if rc == 0 and ok and wl_ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload or --self-test is required")
    if a.seed < 1 or a.seconds < 1:
        p.error("--seed and --seconds must be positive")
    out = build()
    if a.self_test:
        return self_test(out)
    if a.workload == "all":
        return run_all(out, a.seed, a.seconds, a.trace)
    return 0 if one(out, a.workload, a.seed, a.seconds, a.trace) is not None else 1


if __name__ == "__main__":
    sys.exit(main())
