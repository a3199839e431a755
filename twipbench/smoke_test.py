#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes, run from the root of a checkout:

    python3 twipbench/smoke_test.py

For every workload it runs an end-to-end and a traced run and checks
the result line, the correctness gate, the trace file, and that no
process of the run is left behind; then it checks that a model fault
makes the gate fail the run. Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["twip-warm", "twip-cold", "twip-write"]
END_TO_END = ["setup_s", "check_p50_ms", "login_p50_ms", "write_p50_ms", "fresh_p50_ms",
              "rss_mb"]


def leftovers():
    """Benchmark, server, spinner and reference processes still running
    in this checkout."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                exe = f.read().split(b"\0")[0].decode(errors="replace")
            cwd = os.readlink("/proc/%s/cwd" % pid)
        except OSError:
            continue
        if cwd == os.getcwd() and exe.endswith(("twipbench.exe", "pequod_server.exe")):
            found.append(pid + " " + exe)
    return found


def bench(*args):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--tiny", *args],
                       capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    left = leftovers()
    expect(not left, "processes left running: " + ", ".join(left))
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stderr


def expect(cond, what, stderr=""):
    if not cond:
        sys.stderr.write(stderr[-4000:])
        sys.exit("FAIL: " + what)


def per_layer_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


def main():
    layers = per_layer_names()
    for w in WORKLOADS:
        code, r, err = bench("--workload", w, "--seed", "7", "--seconds", "4", "--trace", "0")
        expect(code == 0 and r and r["correct"], w + ": end-to-end run not correct", err)
        expect("timelines match the model" in err, w + ": correctness gate did not run", err)
        expect(sorted(r["metrics"]) == sorted(END_TO_END), w + ": wrong end-to-end metrics")
        expect(r["attempted"] > 0 and r["failed"] == 0, w + ": failed ops", err)
        expect(all(m["value"] > 0 for m in r["metrics"].values()), w + ": a zero metric")

        code, r, err = bench("--workload", w, "--seed", "7", "--seconds", "4", "--trace", "1")
        expect(code == 0 and r and r["correct"], w + ": traced run not correct", err)
        expect(sorted(r["metrics"]) == sorted(layers), w + ": wrong per-layer metrics")
        persist = r["metrics"]["persist.wal_appends_per_write"]["value"]
        expect((persist > 0) == (w != "twip-cold"), w + ": persist counts on the wrong workload")
        trace = os.path.join(".twipbench", "trace-%s-7.jsonl" % w)
        with open(trace) as f:
            spans = [json.loads(line) for line in f]
        names = {s["name"] for s in spans}
        expect({"op", "gen.queue", "proto.encode", "net.wait", "proto.decode", "replay.op",
                "core.replay.scan"} <= names, w + ": spans missing from " + trace)
        print("ok", w)

    # run.py has built the executable by now
    p = subprocess.run([os.path.join("_build", "default", os.path.basename(HERE), "twipbench.exe"),
                        "--tiny", "--workload", "twip-warm", "--seed", "7", "--seconds", "4",
                        "--trace", "0", "--fault-model"],
                       capture_output=True, text=True, timeout=300)
    code, err = p.returncode, p.stderr
    r = json.loads(p.stdout.strip().splitlines()[-1]) if p.stdout.strip() else None
    expect(code != 0 and r and not r["correct"] and "CORRECTNESS MISMATCH" in err,
           "a model fault did not fail the correctness gate", err)
    print("ok correctness gate catches a mismatch")


if __name__ == "__main__":
    main()
