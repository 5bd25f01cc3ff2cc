#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_driver
(perfbench/CMakeLists.txt, Release, from the library sources under src/)
into $CARGO_TARGET_DIR or .bench_build, then runs one workload and passes
its output through; the last line of standard output is the JSON result. Workloads, metrics and
the layer-to-metric map are described in perfbench/README.md.
"""

import argparse
import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("batch_pipeline", "traffic_stream", "decode_fig8")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def fixed_layout() -> None:
    """Child pre-exec hook: turn off address-space randomisation, so every
    run of perfbench_driver gets the same memory layout. Layout alone moves the
    timings by up to 10% from one process to the next."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def build(root: Path, build_dir: Path) -> Path:
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {root / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "perfbench_driver"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    try:
        driver = build(root, build_dir)
    except subprocess.CalledProcessError as err:
        fail(f"build failed: {err}", 1)

    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out",
                    str(build_dir / f"spans-{args.workload}.jsonl")]
    try:
        run = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S,
                             preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
