#!/usr/bin/env python3
"""End-to-end serving benchmark for the planar engine.

Builds perfbench (the library sources plus the benchmark binary in this
directory) with CMake, runs one workload, and prints two lines on stdout:

  1. the binary's full record: provenance (git SHA, build time, compiler,
     host_threads, effective_threads, peak RSS), a source-tree digest,
     seed, workload, traced flag, correctness counts and every metric;
  2. the result line: {"correct", "attempted", "failed", "metrics"} with
     the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
     metrics (--trace 1).

Usage, from the repository root:

  python3 perfbench/run.py --workload ingest_sharded --seed 1 --seconds 10 \
      --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); traced runs write their spans to
<build>/traces/<workload>-seed<seed>.json. Exits non-zero, without a
result line, when the build fails or an answer is wrong.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    # Keep the compiler's temporary files inside the build directory.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out / "perfbench"


def source_digest():
    """Digest of the sources the binary is built from (provenance when the
    checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    binary = build(out)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    started = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench binary exited {done.returncode} without a record")
    record = json.loads(lines[-1])
    record["src_digest"] = source_digest()
    record["wall_s"] = time.monotonic() - started
    print(json.dumps(record))

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in record["metrics"]:
            fail(f"perfbench binary did not report {name}")
        metrics[name] = record["metrics"][name]
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    if done.returncode != 0 or not record["correct"]:
        fail(f"perfbench binary exited {done.returncode}, "
             f"correct={record['correct']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
