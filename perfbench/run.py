#!/usr/bin/env python3
"""Build and run the xqc benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

A run builds perfbench/xqbench.exe with dune, runs it, checks that its
result line names exactly the metrics BENCHMARK.json lists for the mode
(end-to-end for --trace 0, per-layer for --trace 1), and passes its
output through.  The last line of standard output is the result object.
The self-test runs the output checks against mutated answers, then every
workload at a tiny size for two seeds in both modes, and requires zero
failed operations.  Exit status 0 means success; any other status means
no result was produced.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
WORK = os.path.join("perfbench", ".work")
EXE = os.path.join("_build", "default", "perfbench", "xqbench.exe")
WORKLOADS = ["xmark-10mb", "clio-250kb", "serve-mixed"]
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # not a git checkout: a digest of the engine and benchmark sources
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(x for x in dirs if not x.startswith("."))
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run this from the root of an xqc source checkout (no dune-project or lib/ here)")
    try:
        out = subprocess.run(["dune", "build", "--root", ".", "./perfbench/xqbench.exe"],
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                             timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if out.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(out.stdout)
        fail("build failed")


def run_exe(args, timeout=RUN_TIMEOUT):
    """Run the benchmark program in its own process group; on a timeout
    the whole group (the forked server included) is killed."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s" % timeout)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    return proc.returncode, out


def expected_metrics(trace):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def parse_result(out, trace):
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return None, "no result line"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys %s" % sorted(result)
    names = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        return None, "metric names differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(missing), sorted(extra))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return None, "metric %s has no numeric value" % name
    return result, None


def one_run(workload, seed, seconds, trace, tiny=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--work", WORK, "--commit", commit_id()]
    if tiny:
        args.append("--tiny")
    code, out = run_exe(args)
    if code != 0:
        sys.stdout.write(out)
        fail("benchmark program exited with status %d" % code)
    result, err = parse_result(out, trace)
    if err:
        sys.stdout.write(out)
        fail(err)
    return out, result


def self_test():
    code, out = run_exe(["--check-mutations"])
    sys.stdout.write(out)
    if code != 0:
        fail("an output check did not reject a mutated answer")
    bad = 0
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in (False, True):
                _, r = one_run(workload, seed, 1, trace, tiny=True)
                ok = r["failed"] == 0 and r["correct"]
                bad += not ok
                print("%s  %s seed=%d trace=%d: attempted=%d failed=%d" % (
                    "ok   " if ok else "FAIL ", workload, seed, trace, r["attempted"],
                    r["failed"]))
    if bad:
        fail("%d tiny run(s) failed" % bad)
    print("self-test passed")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    build()
    os.makedirs(WORK, exist_ok=True)
    if a.self_test:
        self_test()
        return
    out, _ = one_run(a.workload, a.seed, a.seconds, a.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
