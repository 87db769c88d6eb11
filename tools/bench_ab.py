#!/usr/bin/env python3
"""A/B the repository benchmark against a parent commit.

Usage (from the repository root):

    python3 tools/bench_ab.py --parent <ref> [--workload NAME]
        [--seed N ...] [--pairs N] [--work-dir DIR]
        [--out BENCH_perfbench.json] [--dry-run]

Extracts `git archive <ref>` into the work directory, then runs
`perfbench/run.py --trace 0` alternately in that copy and in the working
tree, N pairs per seed, each run as long as BENCHMARK.json's run_seconds.
The side that runs first alternates from pair to pair, so a drifting host
favours neither.  For every end-to-end metric of BENCHMARK.json it prints
the median of each side, the parent's quartiles and how many pairs the
change won, and appends one row per side to the trajectory file:
workload, metric, unit, side, source digest, base SHA, seed, pairs,
median, quartiles, wins, the simulated-statistics digest and the host
line.  After the pairs of a seed, the sides run TRACED_PAIRS more
alternating pairs with `--trace 1`; every per-layer metric of
BENCHMARK.json those runs report becomes one more row per side, marked
`"kind": "per_layer"`, with the median and quartiles of its traced runs,
except metrics that read 0 in every traced run (layers the workload does
not exercise).  A row without `kind` is end-to-end.  Both printed tables
mark a metric "unresolved" when the two sides' quartile ranges overlap
and the runs are not all one value: its difference is inside the host
noise.  --dry-run prints the tables without touching the file.

The parent and the change must simulate the same thing: when a seed's
digests differ between the sides the tool prints DIGEST MISMATCH and,
after appending the rows, exits 1.

A row's `source_digest` (perfbench's hash of the sources it built)
identifies the code measured.  `base_sha` is the commit the measured tree
is (the parent side) or sits on (the change side); `dirty` is true when
the working tree had uncommitted changes, so a change side measured
before its commit names its parent there, not itself.

Nothing under perfbench/ is modified; each tree builds its own
.bench_build/ the first time it runs.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "cfm-bench-trajectory/v1"
# Traced (--trace 1) pairs per seed behind each per-layer row.  A share
# taken from one traced run per side carries that run's host noise whole
# and has read below zero; three alternating pairs give a median and a
# spread.
TRACED_PAIRS = 3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def host_line():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"{model}, {os.cpu_count()} hardware threads, "
            f"{platform.system()} {platform.release()}")


def extract_parent(ref, work_dir):
    """git archive of `ref` under work_dir; reused when already there."""
    sha = git("rev-parse", "--verify", ref + "^{commit}")
    tree = os.path.join(work_dir, "parent-" + sha[:12])
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
    return sha, tree


def run_once(tree, workload, seed, trace=0):
    """One perfbench run; returns (metrics dict, digest, source digest)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    digest = next(l.split(":", 1)[1].strip() for l in lines
                  if l.startswith("digest:"))
    provenance = json.loads(next(l.split(":", 1)[1] for l in lines
                                 if l.startswith("provenance:")))
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    return metrics, digest, provenance["source_digest"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def resolved(a, b):
    """False when the quartile ranges of samples a and b overlap, unless
    every value on both sides is the same (an exact tie is resolved)."""
    if len(set(a) | set(b)) == 1:
        return True
    qa, qb = quartiles(a), quartiles(b)
    return qa[1] < qb[0] or qb[1] < qa[0]


def alternate(pairs, run):
    """Calls run(i, side) for `pairs` pairs, alternating which side is
    first."""
    for i in range(pairs):
        for side in (("parent", "change") if i % 2 == 0 else
                     ("change", "parent")):
            run(i, side)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref to compare to")
    ap.add_argument("--workload", default="serve_poisson")
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--work-dir", default=os.path.join(ROOT, ".bench_build",
                                                       "ab"))
    ap.add_argument("--out", default=os.path.join(ROOT,
                                                  "BENCH_perfbench.json"))
    ap.add_argument("--dry-run", action="store_true")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    parent_sha, parent_tree = extract_parent(args.parent, args.work_dir)
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    host = host_line()
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")

    rows = []
    mismatched = []
    for seed in args.seed:
        runs = {"parent": [], "change": []}
        digests = {"parent": set(), "change": set()}
        sources = {}
        def plain(i, side):
            tree = parent_tree if side == "parent" else ROOT
            metrics, digest, source = run_once(tree, args.workload, seed)
            runs[side].append(metrics)
            digests[side].add(digest)
            sources[side] = source
            log(f"{args.workload} seed {seed} pair {i + 1}/{args.pairs} "
                f"{side}: digest {digest}")

        alternate(args.pairs, plain)
        print(f"== {args.workload} seed {seed}, {args.pairs} pairs, "
              f"parent {parent_sha[:12]} vs {head[:12]}"
              f"{' + uncommitted changes' if dirty else ''}")
        print(f"   digests: parent {sorted(digests['parent'])} "
              f"change {sorted(digests['change'])}")
        if digests["parent"] != digests["change"]:
            print(f"   DIGEST MISMATCH on seed {seed}")
            mismatched.append(seed)
        for name, m in spec.items():
            a = [r[name] for r in runs["parent"]]
            b = [r[name] for r in runs["change"]]
            higher = m["better"] == "higher"
            def beats(x, y):
                return x > y if higher else x < y

            wins = sum(beats(y, x) for x, y in zip(a, b))
            losses = sum(beats(x, y) for x, y in zip(a, b))
            ma, mb = statistics.median(a), statistics.median(b)
            qa = quartiles(a)
            print(f"   {name:24s} {ma:>14.6g} -> {mb:>14.6g}  "
                  f"x{(mb / ma if ma else float('nan')):.3f}  "
                  f"parent q1-q3 {qa[0]:.6g}-{qa[1]:.6g}  "
                  f"wins {wins}/{args.pairs}"
                  f"{'' if resolved(a, b) else '  unresolved'}")
            for side, values, sha, side_dirty in (
                    ("parent", a, parent_sha, False),
                    ("change", b, head, dirty)):
                q1, q3 = quartiles(values)
                rows.append({
                    "workload": args.workload, "metric": name,
                    "unit": m["unit"], "better": m["better"], "side": side,
                    "source_digest": sources[side], "base_sha": sha,
                    "dirty": side_dirty, "seed": seed, "pairs": args.pairs,
                    "seconds": bench["run_seconds"],
                    "median": statistics.median(values), "q1": q1, "q3": q3,
                    "wins": wins if side == "change" else losses,
                    "digest": ",".join(sorted(digests[side])),
                    "host": host, "measured": stamp})

        traced = {"parent": [], "change": []}
        traced_digests = {"parent": set(), "change": set()}

        def traced_run(i, side):
            tree = parent_tree if side == "parent" else ROOT
            metrics, digest, sources[side] = run_once(
                tree, args.workload, seed, trace=1)
            traced[side].append(metrics)
            traced_digests[side].add(digest)
            log(f"{args.workload} seed {seed} traced pair "
                f"{i + 1}/{TRACED_PAIRS} {side}: digest {digest}")

        alternate(TRACED_PAIRS, traced_run)
        print(f"   per-layer ({TRACED_PAIRS} --trace 1 pairs; median, "
              f"parent q1-q3)")
        if (traced_digests["parent"] != traced_digests["change"]
                and seed not in mismatched):
            print(f"   DIGEST MISMATCH on seed {seed} (traced runs)")
            mismatched.append(seed)
        for name, m in layers.items():
            if any(name not in r for r in traced["parent"] + traced["change"]):
                continue
            a = [r[name] for r in traced["parent"]]
            b = [r[name] for r in traced["change"]]
            if not any(a) and not any(b):
                continue  # a layer this workload does not exercise
            ma, mb = statistics.median(a), statistics.median(b)
            qa = quartiles(a)
            print(f"   {name:34s} {ma:>14.6g} -> {mb:>14.6g}  "
                  f"x{(mb / ma if ma else float('nan')):.3f}  "
                  f"parent q1-q3 {qa[0]:.6g}-{qa[1]:.6g}"
                  f"{'' if resolved(a, b) else '  unresolved'}")
            for side, values, sha, side_dirty in (
                    ("parent", a, parent_sha, False),
                    ("change", b, head, dirty)):
                q1, q3 = quartiles(values)
                rows.append({
                    "workload": args.workload, "metric": name,
                    "kind": "per_layer", "unit": m["unit"],
                    "better": m["better"], "side": side,
                    "source_digest": sources[side], "base_sha": sha,
                    "dirty": side_dirty, "seed": seed, "pairs": TRACED_PAIRS,
                    "seconds": bench["run_seconds"],
                    "median": statistics.median(values), "q1": q1, "q3": q3,
                    "digest": ",".join(sorted(digests[side])),
                    "host": host, "measured": stamp})

    status = 0
    if mismatched:
        log(f"DIGEST MISMATCH: parent and change simulate differently on "
            f"seed(s) {mismatched}")
        status = 1
    if args.dry_run:
        return status
    doc = {"schema": SCHEMA, "rows": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("schema") != SCHEMA:
            log(f"{args.out}: unexpected schema {doc.get('schema')!r}")
            return 1
    doc["rows"].extend(rows)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    log(f"appended {len(rows)} rows to {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
