#!/usr/bin/env python3
"""Build and run the Ode benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/odebench.exe with dune (release profile, no shared
build cache, so nothing is written outside the checkout), pins the run to
one CPU, and runs it. The last line of standard output is the benchmark's
JSON result. Exits non-zero, without a result, when the build or the run
fails.

One CPU: the wire workloads run a load-generator process and a server
process with three OCaml 5 domains (reactor and two shards). Spread over
two CPUs, their stop-the-world minor collections wait on whichever domain
the scheduler has preempted, and closed-loop throughput swung 3-5x
between identical runs on a 2-CPU host; on one CPU it holds within about
10%. The run therefore measures what every layer costs in CPU time, not
how the server scales across cores.
"""

import os
import signal
import subprocess
import sys

BUILD_LIMIT_S = 840
RUN_LIMIT_S = 178
EXE = os.path.join("_build", "default", "perfbench", "odebench.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/odebench.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_LIMIT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def pin_one_cpu():
    """Pin this process (and so the benchmark) to one CPU; return how many
    CPUs it could use before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return len(allowed)


def main():
    # The program is built from the checkout's own sources, never from a
    # copy of the libraries installed elsewhere.
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("perfbench", "dune"))):
        print("perfbench: run from the root of a source checkout", file=sys.stderr)
        return 2
    if not build():
        return 2
    nproc = pin_one_cpu()
    # Own session, so a stuck run can be stopped with every process it
    # started.
    proc = subprocess.Popen([EXE, "--nproc", str(nproc)] + sys.argv[1:], start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
