#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

    python3 campaignbench/run.py --workload fleet_churn|city_sensing|daemon_ingest
                                 --seed N --seconds S --trace 0|1

Run from the root of a SOR checkout. The first run configures and builds
`campaign_bench` and the `sor` CLI into .bench_build/ (a few minutes); later
runs only check that the build is current. Build output goes to stderr; the
last line of standard output is the run's JSON result. Exit codes: 0 correct,
1 a check failed, 2 bad command line, 3 the build failed.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("fleet_churn", "city_sensing", "daemon_ingest")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"


def parse_args(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("argument --seed: must be >= 0")
    if args.seconds < 1:
        parser.error("argument --seconds: must be >= 1")
    return args


def build():
    """Configure (a no-op once current), then build the benchmark's targets."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "campaign_bench", "sor", "-j", jobs],
                   stdout=sys.stderr, check=True)


def pin_to_one_cpu():
    """Run the benchmark, and the daemon it starts, on one CPU of this process's set.

    Each call then wakes its peer thread on the same core. Spread over the
    cores of a small virtual machine, the wake-ups went through idle vCPUs
    and the daemon's call tails varied several-fold from run to run.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 3
    bench = os.path.join(BUILD_DIR, "campaign_bench")
    serve = os.path.join(BUILD_DIR, "sor_tools", "sor")
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-binary", serve]
    sys.stdout.flush()
    return subprocess.run(cmd, preexec_fn=pin_to_one_cpu).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
