#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload plan|ingest|churn --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout. The first run configures and
builds the library and the remo_perfbench program (Release) under
.bench_build/; later runs only re-check the build. The program's output is
passed through; its last line is the result JSON. The traced run
(--trace 1) also writes a Chrome trace-event file to .bench_build/perfbench/.
Exit status: the program's (0 = every output check passed), or 2 when the
build fails or no library sources are present.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "remo_perfbench"
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git commit when the checkout is a repository, else a digest of
    the sources."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
            if rev:
                return "git:" + rev
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a source checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS])
    # Compiler temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["plan", "ingest", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    seed = args.seed % 2**64
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--rev", source_rev()]
    if args.trace == "1":
        cmd += ["--trace-file",
                str(BUILD / f"trace-{args.workload}-seed{seed}.json")]
    sys.stdout.flush()
    done = subprocess.run(cmd, cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
