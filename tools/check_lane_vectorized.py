#!/usr/bin/env python3
"""Checks that the VM's lane kernels compile to packed SIMD.

Usage:

    python3 tools/check_lane_vectorized.py [BUILD_DIR]

BUILD_DIR (default: build) is a configured build tree of this repository;
its compile_commands.json supplies the exact compile command of each
translation unit that runs lane chunks (the span interpreter and the JIT).
Each is recompiled, output discarded, with GCC's -fopt-info-vec-optimized.
Every loop in src/ir/LaneOps.h tagged `// lane-loop: <name>` must get a
"loop vectorized" report in every one of those units; loops tagged
`// lane-loop-scalar: <name> -- <reason>` are listed and not required.

Exits 1 when a tagged loop did not vectorize or a unit failed to compile,
2 on a usage error, and 0 (after saying so) when the compiler is not GCC:
the report format and the cost model this checks are GCC's.
"""

import json
import os
import re
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = os.path.join("src", "ir", "LaneOps.h")
# The translation units that run lane chunks at full width.
LANE_UNITS = (os.path.join("src", "ir", "ExprVM.cpp"),
              os.path.join("src", "jit", "JitProgram.cpp"))

TAG = re.compile(r"//\s*lane-loop(-scalar)?:\s*(\S+)(?:\s*--\s*(.*))?")
REPORT = re.compile(r"(?P<file>[^:\s]+):(?P<line>\d+):\d+: optimized: "
                    r"loop vectorized")


def fail(message, code=2):
    print("check_lane_vectorized: " + message, file=sys.stderr)
    sys.exit(code)


def tagged_loops():
    """(name, loop line, scalar reason or None) for every tagged loop: the
    first `for (` line after its tag."""
    with open(os.path.join(ROOT, KERNELS)) as handle:
        lines = handle.read().splitlines()
    loops = []
    for index, text in enumerate(lines):
        match = TAG.search(text)
        if not match:
            continue
        scalar, name, reason = match.groups()
        for ahead in range(index + 1, min(index + 4, len(lines))):
            if lines[ahead].lstrip().startswith("for ("):
                loops.append((name, ahead + 1,
                              (reason or "scalar") if scalar else None))
                break
        else:
            fail("%s:%d: tag '%s' is not followed by a loop"
                 % (KERNELS, index + 1, name), 1)
    if not loops:
        fail("no tagged loops in " + KERNELS, 1)
    return loops


def compile_entry(build_dir, unit):
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(path):
        fail("%s not found; configure the build tree with CMake first" % path)
    with open(path) as handle:
        entries = json.load(handle)
    want = os.path.realpath(os.path.join(ROOT, unit))
    for entry in entries:
        source = os.path.join(entry["directory"], entry["file"])
        if os.path.realpath(source) == want:
            return entry
    fail("no compile command for %s in %s" % (unit, path))


def is_gcc(compiler):
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=60).stdout
    except OSError as error:
        fail("cannot run %s: %s" % (compiler, error))
    return "Free Software Foundation" in out and "clang" not in out.lower()


def vectorized_lines(entry):
    """Line numbers of KERNELS that GCC reports as vectorized loops when
    compiling \\p entry with its own flags."""
    args = (entry["arguments"] if "arguments" in entry
            else shlex.split(entry["command"]))
    command = []
    skip = False
    for arg in args:
        if skip:
            skip = False
            continue
        if arg == "-o":
            skip = True
            continue
        if arg.startswith("-o") and len(arg) > 2:
            continue
        command.append(arg)
    command += ["-o", os.devnull, "-fopt-info-vec-optimized"]
    result = subprocess.run(command, cwd=entry["directory"],
                            capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        fail("compiling %s failed" % entry["file"], 1)
    lines = set()
    for text in result.stderr.splitlines():
        match = REPORT.match(text)
        if match and os.path.realpath(
                os.path.join(entry["directory"], match.group("file"))) == \
                os.path.realpath(os.path.join(ROOT, KERNELS)):
            lines.add(int(match.group("line")))
    return lines


def main(argv):
    if len(argv) > 2:
        fail("usage: check_lane_vectorized.py [BUILD_DIR]")
    build_dir = os.path.abspath(argv[1] if len(argv) == 2 else "build")
    loops = tagged_loops()
    entries = [compile_entry(build_dir, unit) for unit in LANE_UNITS]
    compiler = (entries[0]["arguments"][0] if "arguments" in entries[0]
                else shlex.split(entries[0]["command"])[0])
    if not is_gcc(compiler):
        print("check_lane_vectorized: %s is not GCC; skipped" % compiler)
        return 0

    missing = 0
    reports = {unit: vectorized_lines(entry)
               for unit, entry in zip(LANE_UNITS, entries)}
    for name, line, scalar in loops:
        if scalar:
            print("  scalar      %-8s %s:%d (%s)" % (name, KERNELS, line,
                                                     scalar))
            continue
        absent = [unit for unit in LANE_UNITS if line not in reports[unit]]
        status = "vectorized" if not absent else "NOT VECTORIZED"
        print("  %-11s %-8s %s:%d%s" % (
            status, name, KERNELS, line,
            " in " + ", ".join(absent) if absent else ""))
        missing += bool(absent)
    if missing:
        print("check_lane_vectorized: %d tagged lane loop(s) stayed scalar"
              % missing, file=sys.stderr)
        return 1
    print("check_lane_vectorized: all %d tagged lane loops vectorized"
          % sum(1 for loop in loops if not loop[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
