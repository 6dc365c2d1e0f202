#!/usr/bin/env python3
"""End-to-end benchmark of the fusion compiler and runtime.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload stream|build|serve --seed N \
        --seconds S --trace 0|1 [--quick]

Builds the library sources under src/ and the benchmark program under
perfbench/src/ into the benchmark's own build directory
($CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then runs
one workload and passes its output through. The last line printed is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 1
the run also writes a chrome://tracing file under the build directory.

Exits non-zero, without printing a result, when the checkout holds no
library sources or the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Variables that select engines, tiling, optimizer or thread count in the
# library; an inherited value would change what is measured.
CLEARED_ENV = ("KF_VM", "KF_TILING", "KF_TILE", "KF_OPT", "KF_THREADS")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """Git revision when the checkout is a repository, plus a digest of
    every library and benchmark source file, which identifies the code
    measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    rev = "no-git"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            rev = "git " + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "%s, sources sha256 %s" % (rev, digest.hexdigest()[:16])


def build(build_dir):
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step = ["cmake", "-S", HERE, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    step = ["cmake", "--build", build_dir, "--target", "kf_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "kf_perfbench")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s; run from a source checkout"
             % os.path.join(ROOT, "src"))
    args = list(argv)
    workload, trace, seed = None, None, None
    for flag, value in zip(args, args[1:]):
        if flag == "--workload":
            workload = value
        elif flag == "--trace":
            trace = value
        elif flag == "--seed":
            seed = value
    if workload is None or trace is None or seed is None:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1"
             " [--quick]")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target if os.path.isabs(target)
                             else os.path.join(ROOT, target), "perfbench")
    binary = build(build_dir)

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PERFBENCH_SOURCE_ID"] = source_id()
    command = [binary] + args
    if trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%s.json" % (workload, seed))]
    sys.stdout.flush()
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
