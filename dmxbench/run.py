#!/usr/bin/env python3
"""Build and run the OpenDMX benchmark from a checkout of the repository.

    python3 dmxbench/run.py --workload serve_point --seed 1 --seconds 10 --trace 0
    python3 dmxbench/run.py --selftest

The benchmark binary and the product libraries it links are built from the
checkout's sources (Release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, under the checkout root. Every file a run writes stays under
that directory. The last line of stdout is the run's JSON result; a run that
fails (a statement errors or mismatches its oracle, recovery loses an
acknowledged write, the build is not optimised) exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "dmxbench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "dmxbench")


def build():
    """Configures (once) and builds; build output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A generated build file exists only after a configure that succeeded.
    if not any(os.path.exists(os.path.join(out, name))
               for name in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("dmxbench: build step failed: " + " ".join(step))
    return os.path.join(out, "dmxbench")


def run(binary, args, timeout):
    """Runs the binary, relaying its output; kills it past `timeout`."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("dmxbench: run exceeded %d s" % timeout)
    return proc.returncode, stdout


def last_json(stdout):
    """The run's result object: the last JSON line that carries `correct`,
    or None when the binary stopped before printing one."""
    for line in reversed(stdout.splitlines()):
        try:
            result = json.loads(line)
        except ValueError:
            continue
        if isinstance(result, dict) and "correct" in result:
            return result
    return None


def run_seconds():
    """BENCHMARK.json's run_seconds, so a run without --seconds measures
    what the benchmark contract does."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return None


def selftest(binary, work):
    """Synthetic checks of the benchmark's arithmetic, then a short run whose
    oracle expectations are deliberately wrong: that run must fail."""
    code, stdout = run(binary, ["--selftest"], RUN_TIMEOUT_S)
    sys.stdout.write(stdout)
    if code != 0:
        return False
    os.makedirs(work, exist_ok=True)
    code, stdout = run(binary, ["--workload", "serve_point", "--seed", "1",
                                "--seconds", "1", "--trace", "0",
                                "--work-dir", work, "--break-oracle"],
                       RUN_TIMEOUT_S)
    result = last_json(stdout)
    refused = (code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0)
    print("selftest %-58s %s" % ("a wrong oracle expectation fails the run",
                                 "ok" if refused else "FAILED"))
    return refused


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run_seconds(),
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not args.selftest and not args.seconds:
        parser.error("--seconds is required when BENCHMARK.json is unreadable")

    binary = build()
    work = os.path.join(os.path.dirname(build_dir()), "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.selftest:
            return 0 if selftest(binary, work) else 1
        os.makedirs(work)
        trace_out = os.path.join(os.path.dirname(build_dir()), "traces",
                                 args.workload + ".tsv")
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        code, stdout = run(binary, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work, "--trace-out", trace_out], RUN_TIMEOUT_S)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        return code
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
