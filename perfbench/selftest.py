#!/usr/bin/env python3
"""Show that the benchmark's oracles catch wrong answers.

    python3 perfbench/selftest.py [--workload NAME ...]

Runs each workload's minimum number of cycles with every output replaced by
a deliberately wrong copy before it reaches its oracle: a rank off by one
(certify), a dropped or invented witness and a family member with one entry
negated (witness), perturbed phases reported as converged (search), one
flipped stdout byte (cli). Every corrupted library output must be rejected;
for the CLI, every run after the first of each command must be rejected (a
flipped byte then always breaks byte-identical output, while in the first
run it may land where it does not change the meaning). Exits 1 if an oracle
let a wrong answer through.
"""

import argparse
import os
import shutil
import sys

import run as bench


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=["certify", "witness", "search", "cli"])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(bench.SRC, "hadcert", "__init__.py")):
        print(f"error: hadcert sources not found under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, bench.SRC)
    ok = True
    for name in args.workload or ["certify", "witness", "search", "cli"]:
        wl = bench.make_workload(name, args.seed)
        run = bench.Run()
        try:
            cycles = bench.run_cycles(wl, 1e-9, run, fault=True)
        finally:
            if name == "cli":
                shutil.rmtree(wl.workdir, ignore_errors=True)
        attempted = len(run.latencies)
        allowed = attempted // cycles if name == "cli" else 0
        caught = run.failed >= attempted - allowed and run.failed > 0
        ok &= caught
        print(f"{name:8} {'ok  ' if caught else 'MISS'} failed_frac {run.failed / attempted:.3f} "
              f"({run.failed}/{attempted} corrupted outputs rejected, {cycles} cycles)")
        for line in run.failures[:3]:
            print(f"         e.g. {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
