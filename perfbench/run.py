#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The executable is built with dune
into .bench_build/ (release profile, dune cache off); inputs, outputs and
traces go to .bench_build/perfbench-work/.  The last line of standard
output is the result JSON.  Exits non-zero, printing no result, when the
checkout holds no sources to build.
"""

import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def source_revision(root):
    """The git revision when the checkout is a git repository, and always a
    digest of the sources the benchmark builds."""
    rev = ""
    if os.path.isdir(os.path.join(root, ".git")):
        git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if git.returncode == 0:
            rev = "git-" + git.stdout.strip() + "+"
    h = hashlib.sha256()
    for top in ("lib", "perfbench", "dune-project"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return rev + "src-" + h.hexdigest()[:16]


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: no source tree to build at " + root, file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", os.path.join(root, BUILD_DIR),
         "--profile", "release", "-j", "2", "./perfbench/perfbench.exe"],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run(
        [os.path.join(root, EXE)] + sys.argv[1:]
        + ["--workdir", os.path.join(root, BUILD_DIR, "perfbench-work"),
           "--rev", source_revision(root)],
        cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
