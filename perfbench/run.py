#!/usr/bin/env python3
"""Build and run one perfbench workload.

Usage, from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program and the `chop` binary it spawns with dune
(the first build of a checkout takes a few minutes), runs the workload with
the checkout root as working directory and passes the program's output
through; its last line is the JSON result.  Exits with the program's code,
or non-zero without a result when the sources cannot be built.  On a
timeout or a signal the whole process group is stopped and the socket
directories it used are removed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["large-graphs", "paper-sweep", "auto-refine"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(root):
    dune = shutil.which("dune")
    if dune is None:
        log("dune not found on PATH")
        return False
    targets = ["./bin/chop_cli.exe", "./perfbench/main.exe"]
    try:
        r = subprocess.run(
            [dune, "build", "--root", root] + targets,
            cwd=root,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        log("build timed out")
        return False
    return r.returncode == 0


def cleanup(root, pid):
    shutil.rmtree(os.path.join(root, ".perfbench", "tmp-%d" % pid), ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description="Run one perfbench workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isdir(os.path.join(root, "lib"))
        and os.path.isdir(os.path.join(root, "bin"))
    ):
        log("no chop sources (dune-project, lib/, bin/) next to perfbench/ in " + root)
        return 2
    if not build(root):
        log("build failed")
        return 2

    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    chop = os.path.join(root, "_build", "default", "bin", "chop_cli.exe")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--chop", chop,
    ]
    child = subprocess.Popen(cmd, cwd=root, start_new_session=True)

    def stop_group(*_):
        try:
            os.killpg(child.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()

    def on_signal(signum, _frame):
        stop_group()
        cleanup(root, child.pid)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        stop_group()
        code = 124
    # the program removes its own socket directory; this covers a crash
    cleanup(root, child.pid)
    return code


if __name__ == "__main__":
    sys.exit(main())
