#!/usr/bin/env python3
"""Check that the benchmark still simulates what the trajectory recorded.

Usage (from the repository root):

    python3 tools/check_digests.py

Runs `perfbench/run.py --seconds 1` for seeds 1 and 9001 (every workload)
and compares each workload's `digest:` line with the newest `change` row
for that workload and seed in BENCH_perfbench.json.  The digest hashes one
pass's simulated output, so a change that moves simulated behaviour shows
up as a new digest.  Exits 1 when a digest differs, when the trajectory
has no row for a workload and seed, or when a perfbench output check
fails.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 9001)


def recorded_digests():
    """(workload, seed) -> digest of the newest change row."""
    with open(os.path.join(ROOT, "BENCH_perfbench.json"),
              encoding="utf-8") as f:
        rows = json.load(f)["rows"]
    newest = {}
    for row in rows:  # rows are appended in measurement order
        if row["side"] == "change":
            newest[(row["workload"], row["seed"])] = row["digest"]
    return newest


def measured_digests(seed):
    """workload -> digest, from one short run of every workload."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--seconds", "1", "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"perfbench --seed {seed} exited "
                           f"{proc.returncode}")
    out, workload = {}, None
    for line in proc.stdout.splitlines():
        m = re.match(r"== (\S+)", line)
        if m:
            workload = m.group(1)
        elif line.startswith("digest:") and workload is not None:
            out[workload] = line.split(":", 1)[1].strip()
    return out


def main():
    expected = recorded_digests()
    failures = 0
    for seed in SEEDS:
        for workload, digest in sorted(measured_digests(seed).items()):
            want = expected.get((workload, seed))
            ok = want == digest
            failures += not ok
            print(f"{workload:16s} seed {seed:<5d} digest {digest}  "
                  f"trajectory {want}  {'ok' if ok else 'MISMATCH'}")
    if failures:
        print(f"{failures} digest(s) differ from BENCH_perfbench.json")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
