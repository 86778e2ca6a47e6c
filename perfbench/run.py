#!/usr/bin/env python3
"""Builds espbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload verify|fleet \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; a traced run also writes its spans
there. The last line of standard output is the result object; see
perfbench/README.md for the workloads and metrics.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds espbench; build output goes to stderr."""
    generated = [os.path.join(out_dir, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "espbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "espbench")


def die_with_parent():
    """Makes the benchmark process exit when run.py does (Linux)."""
    PR_SET_PDEATHSIG = 1
    try:
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def git_sha():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify", "fleet"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}-")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        print("run.py: espbench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: espbench exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    json.loads(lines[-1])  # The result line must parse.
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
