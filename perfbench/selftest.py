#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py [--workload NAME] [--seconds S]

Runs perfbench/run.py on each workload (default: all of BENCHMARK.json),
untraced and traced, with a short measuring time, and checks that:

  1. the result line has exactly the keys correct/attempted/failed/metrics,
     and its metric names and units are the end_to_end (untraced) or
     per_layer (traced) list of BENCHMARK.json;
  2. every span of the traced run nests inside its parent;
  3. no span has negative self time: its duration minus the union of its
     children's intervals.

The span checks are first run on hand-made span lists, so a checker that
accepts everything fails the self-test.  Exits non-zero on any failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def span_errors(spans):
    """Nesting and self-time violations of one run's span list."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    errors = []
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            errors.append(f"span {s['id']} {s['name']} ends before it starts")
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append(f"span {s['id']} {s['name']} has no parent "
                          f"{s['parent']}")
            continue
        if not (parent["start_ns"] <= s["start_ns"]
                and s["end_ns"] <= parent["end_ns"]):
            errors.append(f"span {s['id']} {s['name']} is not inside its "
                          f"parent {parent['id']} {parent['name']}")
        children.setdefault(s["parent"], []).append(s)
    for pid, kids in children.items():
        parent = by_id[pid]
        covered = 0  # union of the children's intervals
        reach = None
        for k in sorted(kids, key=lambda k: k["start_ns"]):
            lo = k["start_ns"] if reach is None else max(k["start_ns"], reach)
            covered += max(0, k["end_ns"] - lo)
            reach = k["end_ns"] if reach is None else max(reach, k["end_ns"])
        self_ns = parent["end_ns"] - parent["start_ns"] - covered
        if self_ns < 0:
            errors.append(f"span {pid} {parent['name']} has negative self "
                          f"time {self_ns} ns")
    return errors


def check_span_checker():
    def span(i, parent, start, end):
        return {"id": i, "parent": parent, "name": f"t.s{i}",
                "start_ns": start, "end_ns": end}
    good = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 90),
            span(4, 3, 50, 60)]
    assert not span_errors(good), span_errors(good)
    escapes = [span(1, 0, 0, 100), span(2, 1, 50, 120)]
    assert any("not inside" in e for e in span_errors(escapes))
    # Overlapping children cover more than their parent only if one escapes.
    overfull = [span(1, 0, 0, 100), span(2, 1, 0, 100), span(3, 1, 0, 150)]
    errors = span_errors(overfull)
    assert any("negative self" in e for e in errors), errors
    orphan = [span(2, 7, 0, 1)]
    assert any("no parent" in e for e in span_errors(orphan))


def run(workload, trace, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{out.returncode}\n{out.stderr[-2000:]}")
    return lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=[w["name"]
                                           for w in spec["workloads"]])
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()

    check_span_checker()
    failures = []
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = run(workload, trace, args.seconds)
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append(f"{workload}: result keys {sorted(result)}")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared:
                failures.append(f"{workload} trace={trace}: metric names or "
                                f"units differ from BENCHMARK.json {key}")
            if not trace:
                continue
            path = os.path.join(ROOT, ".bench_build", "traces",
                                f"{workload}-seed1.json")
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            if not doc["spans"] or not doc["run_id"]:
                failures.append(f"{workload}: no spans recorded")
            failures += [f"{workload}: {e}" for e in span_errors(doc["spans"])]
        print(f"{workload}: checked", flush=True)
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
