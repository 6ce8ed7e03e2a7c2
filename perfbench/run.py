#!/usr/bin/env python3
"""Builds and runs the end-to-end ProgRES benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pubs_budget_spill --seed 1 --seconds 40 \
        --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the
repository's libraries from src/ plus the driver) under $CARGO_TARGET_DIR,
default .bench_build, in Release mode; later calls rebuild incrementally.
Build output goes to stderr, so the last stdout line is the driver's JSON
result. Results files and Chrome traces land in <build dir>/perfbench/out.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("pubs_serial", "pubs_mega_threaded", "pubs_budget_spill")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """sha256 of the library sources; a checkout need not be a git repo."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    """HEAD of the checkout, or "none" when it is not a git work tree."""
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "progres_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "progres_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "core" / "progressive_er.h").is_file():
        fail(f"progres sources not found under {root / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    result = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(out_dir), "--commit", git_commit(root),
         "--src-digest", source_digest(root)],
        cwd=root)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
