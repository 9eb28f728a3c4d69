#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 25 --trace 0

Run from the repository root.  Configures and builds perfbench/ (which
compiles the nfv libraries from src/) into $CARGO_TARGET_DIR, default
.bench_build, then runs the perfbench binary.  Its last stdout line is
the result JSON; this script checks that it reports exactly the
metrics BENCHMARK.json declares for the run's mode.  A traced run also
writes its spans to <build dir>/spans-<workload>-<seed>.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    os.chdir(ROOT)
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    # Everything but the result line goes to stderr, so the result is the
    # only line on stdout and therefore its last.
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        print(f"perfbench: benchmark exited {proc.returncode}",
              file=sys.stderr)
        sys.stderr.write(lines[-1] + "\n")
        return proc.returncode
    result = json.loads(lines[-1])
    missing = declared_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(missing)}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
