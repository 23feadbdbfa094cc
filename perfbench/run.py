#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the current directory, as do the saved inputs. The
last line of stdout is the benchmark's JSON result; the exit code is the
benchmark's (nonzero on a wrong answer, an invalid run or a failed build).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What the saved city and model are a function of: the library sources
# and the harness file that fixes the city, model size and training.
INPUT_SOURCES = [os.path.join(ROOT, "src"), os.path.join(HERE, "serve_stack.cc")]


def inputs_digest():
    """A digest of INPUT_SOURCES, names and contents."""
    digest = hashlib.sha256()
    for top in INPUT_SOURCES:
        paths = [top]
        if os.path.isdir(top):
            paths = []
            for base, dirs, files in os.walk(top):
                dirs.sort()
                paths += [os.path.join(base, name) for name in sorted(files)]
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def source_id(digest):
    """The git commit when there is one, else the digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "src-sha256:" + digest


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "servebench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "servebench")


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    try:
        binary = build(os.path.join(build_root, "perfbench"))
        digest = inputs_digest()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    # The inputs are saved under a directory named after the sources that
    # produce them, so a change to any of those builds them afresh.
    command = [binary] + sys.argv[1:] + [
        "--work-dir", os.path.join(build_root, "perfbench-inputs-" + digest),
        "--git-sha", source_id(digest)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
