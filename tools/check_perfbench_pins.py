#!/usr/bin/env python3
"""Exact perfbench gate: model CRC and count metrics against pinned values.

Usage, from the root of a checkout:

    python3 tools/check_perfbench_pins.py

Runs every workload named in tools/perfbench_pins.json once with
`perfbench/run.py --seed S --seconds T --trace 0` (S and T from the same
file) and compares model_crc32 and each pinned metric exactly. For one seed
and size these are pure functions of the code, so a difference is a change
of behaviour, never noise. Timing metrics are not pinned, and neither is
disk_mib, which moves with any change to the record formats. A change meant
to alter these bits updates the pins from the values this check prints and
says so in CHANGES.md.

Exit status: 0 when every value matches, 1 on a mismatch or a failed run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(ROOT, "tools", "perfbench_pins.json")


def run_workload(name, seed, seconds):
    """Returns (model_crc32, result JSON) of one run, or raises RuntimeError."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    crc = [l.split()[1] for l in lines if l.startswith("model_crc32 ")]
    if proc.returncode != 0 or not crc:
        raise RuntimeError("%s: run failed (exit %d)\n%s%s"
                           % (name, proc.returncode, proc.stdout, proc.stderr))
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 1) != 0:
        raise RuntimeError("%s: run reported incorrect output: %s"
                           % (name, lines[-1]))
    return crc[0], result


def main():
    with open(PINS) as f:
        pins = json.load(f)
    mismatches = 0
    for name, pinned in pins["workloads"].items():
        try:
            crc, result = run_workload(name, pins["seed"], pins["seconds"])
        except RuntimeError as err:
            print("perfbench pins: %s" % err)
            return 1
        got = {"model_crc32": crc}
        for metric in pins["metrics"]:
            got[metric] = result["metrics"][metric]["value"]
        for key, want in pinned.items():
            ok = got.get(key) == want
            mismatches += 0 if ok else 1
            print("perfbench pins: %-22s %-30s %r%s"
                  % (name, key, got.get(key),
                     "" if ok else "  MISMATCH (pinned %r)" % (want,)))
    if mismatches:
        print("perfbench pins: %d value(s) differ from the pins" % mismatches)
        return 1
    print("perfbench pins: all values match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
