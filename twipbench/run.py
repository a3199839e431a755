#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

Run from the root of a checkout:

    python3 twipbench/run.py --workload twip-warm --seed 1 --seconds 22 --trace 0

It builds the benchmark and pequod_server from source with dune, then
runs one measurement. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Every process the
run starts lives in a process group of its own, which is killed and
reaped before this script exits.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.basename(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36
# Sources the benchmark builds against; without them there is nothing
# to measure.
REQUIRED = ["dune-project", "bin/pequod_server.ml", "lib/net/net_client.ml"]


def fail(msg, code):
    print("twipbench: " + msg, file=sys.stderr)
    sys.exit(code)


def become_subreaper():
    """Adopt orphaned descendants, so that reap_all can wait for the
    servers and spinners of a killed run as well."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_all():
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_group(cmd, timeout, env, stdout=None):
    """Run cmd in a new process group; kill the whole group on timeout
    or interruption, and wait for every process of it. Returns (code,
    stdout text)."""
    proc = subprocess.Popen(cmd, stdout=stdout, env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        reap_all()
        raise


def on_signal(signum, _frame):
    # unwinds through run_group, which kills and reaps the process group
    raise SystemExit(128 + signum)


def main():
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, on_signal)
    become_subreaper()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke sizes")
    args = ap.parse_args()

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        fail("run this from the root of a full checkout (missing %s)" % ", ".join(missing), 2)

    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    exe = os.path.join("_build", "default", BENCH_DIR, "twipbench.exe")
    server = os.path.join("_build", "default", "bin", "pequod_server.exe")
    try:
        code, _ = run_group(
            ["dune", "build", "--root", ".", "./" + exe, "./" + server],
            BUILD_TIMEOUT_S, env, stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if code != 0:
        fail("build failed", 3)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-exe", server, "--work-dir", ".twipbench"]
    if args.tiny:
        cmd.append("--tiny")
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, env, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail("run timed out", 4)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
