#!/usr/bin/env python3
"""magesim_cli option handling, end to end.

Malformed values, unknown flags, stray arguments and workload sizes too small
to run exit with status 2 and an error naming the offender; a MAGESIM_* variable overrides its flag; a flag and
its variable produce the same output; repeated --tenant flags accumulate. The
bench harnesses' own variables (MAGESIM_SCALE, MAGESIM_BENCH_REPS) are just as
strict.

usage: cli_options_test.py path/to/magesim_cli path/to/perf_engine_events
"""
import os
import subprocess
import sys

CLI = sys.argv[1]
BENCH = sys.argv[2]
BASE = ["--workload=seqscan", "--threads=2", "--workload-opts=pages=512,passes=2", "--far=40"]
TENANT = "{}:1:0.5:normal=seqscan/2,pages=256,passes=1"


def run(args, env=None, binary=CLI):
    clean = {k: v for k, v in os.environ.items() if not k.startswith("MAGESIM_")}
    clean.update(env or {})
    return subprocess.run([binary] + args, env=clean, capture_output=True, text=True,
                          timeout=120)


failures = []


def check(cond, what, proc=None):
    if not cond:
        detail = "" if proc is None else f"\n  exit={proc.returncode}\n  stderr={proc.stderr.strip()[:400]}"
        failures.append(what + detail)


BAD_FLAGS = [
    ("--seed=abc", "--seed"),
    ("--seed=-3", "--seed"),
    ("--seed", "--seed"),
    ("--threads=x", "--threads"),
    ("--threads=0", "--threads"),
    ("--far=abc", "--far"),
    ("--far=100", "--far"),
    ("--fleet-nodes=two", "--fleet-nodes"),
    ("--fleet-rebuild-gbps=fast", "--fleet-rebuild-gbps"),
    ("--spans-top-k=8x", "--spans-top-k"),
    ("--spans-sample=0", "--spans-sample"),
    ("--check-interval=abc", "--check-interval"),
    ("--check=2", "--check"),
    ("--terminal=crash", "--terminal"),
    ("--tenant=not-a-spec", "--tenant"),
    ("--tenant=lat:2x:0.5:latency=seqscan", "tenant 'lat'"),
    ("--tenant=b:1:0.5:batch=seqscan/4q", "tenant 'b'"),
    ("--span-out=x.jsonl", "--span-out"),
    ("stray", "stray"),
]
for arg, name in BAD_FLAGS:
    p = run(BASE + [arg])
    check(p.returncode == 2 and name in p.stderr, f"{arg}: want exit 2 naming {name}", p)

# Workload sizes the workload divides by, reduces modulo or hands to a Zipf
# generator, and memcached's offered rate: too small a value is rejected
# before the run instead of dying with SIGFPE or SIGSEGV or hanging.
BAD_WORKLOAD_OPTS = [
    ("gups", "pages=0", "pages"),
    ("gups", "pages=1", "pages"),
    ("zipf-trace", "wss=0", "wss"),
    ("mixed-trace", "wss=0", "wss"),
    ("mixed-trace", "wss=1", "wss"),  # fewer pages than the 2 threads
    ("memcached", "keys=0", "keys"),
    ("metis", "intermediate=0", "intermediate"),
    ("xsbench", "gridpoints=0", "gridpoints"),
    ("dataframe", "columns=0", "columns"),
    ("dataframe", "columns=2", "columns"),
    ("memcached", "ops=0", "ops"),
]
for workload, opts, name in BAD_WORKLOAD_OPTS:
    p = run([f"--workload={workload}", "--threads=2", f"--workload-opts={opts}", "--far=40"])
    check(p.returncode == 2 and f"'{name}'" in p.stderr,
          f"{workload} {opts}: want exit 2 naming {name}", p)

BAD_ENV = [
    ("MAGESIM_FLEET_NODES", "two"),
    ("MAGESIM_SPANS_TOP_K", "8x"),
    ("MAGESIM_CHECK_INTERVAL_US", "abc"),
    ("MAGESIM_TENANCY", "x"),
    ("MAGESIM_TENANCY", "lat:2x:0.5:latency=seqscan"),
    ("MAGESIM_TENANCY", "b:1:0.5:batch=seqscan/4q"),
]
for name, value in BAD_ENV:
    p = run(BASE, {name: value})
    check(p.returncode == 2 and name in p.stderr, f"{name}={value}: want exit 2 naming it", p)

# Harness-only variables: junk exits 2 naming the variable instead of
# silently falling back to the default.
for name, value in [("MAGESIM_SCALE", "abc"), ("MAGESIM_SCALE", "0.5x"),
                    ("MAGESIM_SCALE", "-1"), ("MAGESIM_BENCH_REPS", "3x"),
                    ("MAGESIM_BENCH_REPS", "1:"), ("MAGESIM_BENCH_REPS", "0")]:
    p = run([], {name: value}, binary=BENCH)
    check(p.returncode == 2 and name in p.stderr, f"bench {name}={value}: want exit 2 naming it", p)

p = run([])
check(p.returncode == 2 and "--spans-sample=N" in p.stderr and "default 32" in p.stderr,
      "usage lists --spans-sample with its real default", p)

p = run(BASE)
check(p.returncode == 0 and p.stdout.startswith("workload=seqscan"), "plain run", p)

# The environment wins over the flag.
p = run(BASE + ["--fleet-nodes=2"], {"MAGESIM_FLEET_NODES": "3"})
check(p.returncode == 0 and "nodes 3 x2" in p.stdout, "MAGESIM_FLEET_NODES overrides the flag", p)

# A flag and its variable give the same run.
for flag, name, value in [("check-interval", "MAGESIM_CHECK_INTERVAL_US", "50"),
                          ("fleet-nodes", "MAGESIM_FLEET_NODES", "2"),
                          ("spans-sample", "MAGESIM_SPANS_SAMPLE", "1"),
                          ("analysis", "MAGESIM_ANALYSIS", "1")]:
    by_flag = run(BASE + [f"--{flag}={value}"])
    by_env = run(BASE, {name: value})
    check(by_flag.returncode == 0 and by_flag.stdout == by_env.stdout,
          f"--{flag}={value} and {name}={value} print the same", by_env)

p = run(["--tenant=" + TENANT.format("a"), "--tenant=" + TENANT.format("b")])
check(p.returncode == 0 and "tenant a " in p.stdout and "tenant b " in p.stdout,
      "repeated --tenant flags accumulate", p)

for f in failures:
    print("FAIL:", f)
print(f"{len(failures)} failure(s)")
sys.exit(1 if failures else 0)
