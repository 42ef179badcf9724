#!/usr/bin/env python3
"""Build and run the emon serving-and-fleet benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_ingest|serve_mixed|fleet_sim \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library from src/ plus
the benchmark binary) into $CARGO_TARGET_DIR, or .bench_build when unset.
Build output goes to stderr.  Standard output carries an environment stamp
line, the binary's stamp line, and as its last line the result object
{"correct", "attempted", "failed", "metrics"}.  A traced run (--trace 1)
also writes its spans to <build dir>/spans-<workload>-seed<N>.csv.  The
exit code is the binary's: 0 only when every output check passed and no
operation failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def source_digest() -> str:
    """sha256 over the library and benchmark sources (the checkout may not be
    a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in {".cpp", ".hpp", ".txt", ".py"}:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(out: Path) -> None:
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 2)
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["serve_ingest", "serve_mixed", "fleet_sim"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    try:
        build(out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    if args.self_test:
        return subprocess.run([str(out / "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode

    stamp = {"commit": git_commit(), "source_sha256": source_digest(),
             "nproc": os.cpu_count()}
    print("env: " + json.dumps(stamp), flush=True)
    cmd = [str(out / "emon_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                str(out / f"spans-{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        print("benchmark printed no result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
