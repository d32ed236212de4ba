#!/usr/bin/env python3
"""Build and run the engine benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Builds `perfbench/` (a Cargo package
of its own, depending on the engine crates by path) into
$CARGO_TARGET_DIR, default `.bench_build`, then runs one measured
process. For an untraced run it first runs four set-up-only processes
and reports the median of the five set-up times as `setup_s`.
The last line of standard output is the result object; the exit code is
non-zero when the build, the run or an output check fails.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("nested-oltp", "occ-scan", "durable-commit", "wal-commit", "cluster-mixed")
# Set-up-only processes per untraced run, in addition to the measured one.
EXTRA_SETUPS = 4
# A process may take this long beyond its measured seconds: set-up,
# output checks and recovery of the logged workloads.
MARGIN_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    args = {"--workload": None, "--seed": None, "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in args:
            fail(f"unknown argument {flag}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        args[flag] = value
    if args["--workload"] not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args["--seed"] is None or not args["--seed"].isdigit():
        fail("--seed needs a non-negative integer")
    try:
        seconds = float(args["--seconds"])
    except ValueError:
        seconds = 0.0
    if not 0 < seconds <= 600:
        fail("--seconds needs a number in (0, 600]")
    if args["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return args


def build():
    """Build the benchmark binary; return its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        fail(f"engine sources not found under {root}/crates; run from a full checkout")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's progress goes to stderr; keep stdout for results.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "perfbench")


def run(binary, args, extra=()):
    cmd = [binary, "--workload", args["--workload"], "--seed", args["--seed"],
           "--seconds", args["--seconds"], "--trace", args["--trace"], *extra]
    # A set-up-only process does not run for --seconds.
    timeout = MARGIN_S + (0 if extra else float(args["--seconds"]))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish in {timeout:g} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(cmd)} printed nothing (exit {done.returncode})")
    return done.returncode, lines


def main():
    args = parse_args(sys.argv[1:])
    binary = build()
    try:
        setups = []
        if args["--trace"] == "0":
            for _ in range(EXTRA_SETUPS):
                code, lines = run(binary, args, ["--setup-only"])
                if code != 0:
                    fail(f"set-up-only run failed (exit {code})")
                setups.append(json.loads(lines[-1])["setup_s"])
        code, lines = run(binary, args)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            fail(f"no result line (exit {code}): {lines[-1]!r}")
        if "setup_s" in result["metrics"]:
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        for line in lines[:-1]:
            print(line)
        print(json.dumps({"setup_s_samples": setups}))
        print(json.dumps(result))
        if code != 0 or not result.get("correct"):
            sys.exit(1)
    finally:
        shutil.rmtree(".perfbench_run", ignore_errors=True)


if __name__ == "__main__":
    main()
