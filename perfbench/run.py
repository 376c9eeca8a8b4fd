#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload serve-link-text --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  The last line of its output is the
run's JSON result; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["./bin/unicast.exe", "./perfbench/perfbench.exe"]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    os.chdir(ROOT)
    for need in ("dune-project", "bin/unicast.ml", "lib"):
        if not os.path.exists(need):
            fail("%s is missing: run from the root of a full checkout" % need, 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH", 2)
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet"] + TARGETS,
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed", 1)
    # The generator and the serving process share one vCPU.  In the closed
    # loop only one of them runs at a time, and on one vCPU an op never
    # waits for a halted vCPU to be woken, a wait that grows with host
    # contention and made wall times far less steady.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
