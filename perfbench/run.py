#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of the repository. It builds perfbench/main.exe
with dune (release profile, no shared cache, so everything it writes
stays under the repository), then runs it with the given flags. The
benchmark prints its metrics, and as the last line of stdout one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is
nonzero when the build fails, when the simulator sources are missing, or
when any output check fails.

--selftest runs the benchmark's own tests (perfbench/selftest.ml): each
output check is fed a sabotaged expectation and must fire.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")


def dune(*args):
    env = dict(os.environ, DUNE_CACHE="disabled")
    # Dune's progress goes to stderr, so the benchmark's last stdout line
    # stays its JSON result.
    return subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    ).returncode


def main(argv):
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        print(
            "perfbench: run from a checkout of the simulator "
            "(dune-project and lib/ are missing)",
            file=sys.stderr,
        )
        return 2
    if argv == ["--selftest"]:
        return dune("@perfbench/runtest", "--force")
    code = dune("perfbench/main.exe")
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    os.makedirs(OUT, exist_ok=True)
    # Runtime_events (traced runs) keeps its ring file here while the
    # process runs, and removes it when the process exits.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe, *argv], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
