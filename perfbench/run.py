#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload kernels|compile|serve|fork \
        --seed N --seconds S --trace 0|1 [--ablation]

Run from anywhere inside a checkout; the build goes to .bench_build/ and
per-run reports (plus the traced run's spans) to .bench_out/ at the root.
The last line of standard output is the run's JSON result. Build output
goes to standard error.

Setting any CASH_NO_* kill switch changes which layers run, so such a run
is refused unless --ablation is given; its reports are then stamped with
the switches and must not be compared with a default-layer baseline.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ("kernels", "compile", "serve", "fork")
RUN_TIMEOUT_S = 170


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources at {ROOT / 'src'}; "
                 "run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--ablation", action="store_true",
                        help="allow CASH_NO_* kill switches (stamped)")
    args = parser.parse_args()

    switches = sorted(k for k in os.environ if k.startswith("CASH_NO_"))
    if switches and not args.ablation:
        sys.exit("perfbench: kill switches set (" + ", ".join(switches) +
                 "); pass --ablation to run with them")
    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed ({err})")
    OUT.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--expected", str(HERE / "expected.txt"),
               "--out-dir", str(OUT)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
