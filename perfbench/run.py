#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oneshot-cold --seed 1 --seconds 10 --trace 0

The first run configures the repository with its default CMake settings
(Release, ECLP_HARDENED=ON) into $CARGO_TARGET_DIR/cmake (default
.bench_build/cmake) with perfbench/ hooked in, and builds the perfbench
binary; later runs rebuild incrementally. The binary's output is passed
through: human-readable metric lines, then one JSON result object as the
last line. The exit code is the binary's (non-zero when any check failed).

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own unit tests instead.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("oneshot-cold", "huge-ingest", "serve-mixed", "locality")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def threads():
    return max(1, min(4, os.cpu_count() or 1))


def build(root, build_dir, target):
    """Configure (once) and build `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(root, "src")):
        raise RuntimeError("no repository sources next to perfbench/ "
                           "(expected CMakeLists.txt and src/ at the root)")
    hook = os.path.join(root, "perfbench", "inject.cmake")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", root, "-B", build_dir,
               f"-DCMAKE_PROJECT_INCLUDE={hook}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        log("configuring: " + " ".join(cmd))
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", str(threads())],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench", target)


def commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(cmd):
    """Run a child to completion (killed after RUN_TIMEOUT_S)."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    root = os.getcwd()
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(out_dir, "cmake")
    try:
        binary = build(root, build_dir,
                       "perfbench_tests" if args.selftest else "perfbench")
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.selftest:
        return run([binary])

    trace_dir = os.path.join(out_dir, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary,
           f"--workload={args.workload}",
           f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           f"--trace={args.trace}",
           f"--work-dir={os.path.join(out_dir, 'perfbench-work', args.workload)}",
           f"--trace-out={os.path.join(trace_dir, f'{args.workload}-seed{args.seed}.jsonl')}",
           f"--commit={commit(root)}",
           f"--manifest={os.path.join(root, 'BENCHMARK.json')}"]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
