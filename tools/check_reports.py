#!/usr/bin/env python3
"""Byte-identity gate: every deterministic report against a parent commit.

Usage (from the repository root):

    python3 tools/check_reports.py --parent <ref> [--work-dir DIR]

Extracts `git archive <ref>` (the same extraction as tools/bench_ab.py),
builds it and the working tree in Release, runs the same report
producers in both and compares each pair of files byte for byte:

  * every bench/bench_*.cpp binary with --json-out, except the ones in
    EXCLUDED_BENCHES;
  * the --audit and --fault-plan bench invocations CI runs;
  * cfm_campaign on every examples/scenarios/*.json (no result cache);
  * cfm_serve on examples/serve/requests_smoke.txt: plain, --audit,
    under a bank_dead plan with --spares 1, and on the per-cycle
    reference path (--fast-path 0 --max-span 1).

A pair that differs prints the first differing JSON path (or line, for a
file that is not JSON); a producer whose exit status differs between the
trees counts as a difference too.  A producer that exists in one tree
only (a bench or scenario added or removed) is listed as skipped.
Exits 1 on any difference, 0 when every compared report is identical.
A refactor that keeps simulated behaviour must pass this.
"""
import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

from bench_ab import ROOT, extract_parent, log

# Reports that differ between two runs of the same binary, so they say
# nothing about a change: bench_binding and bench_distributed_binding
# record host wall-clock timings of the binding layer, and
# bench_sim_throughput is a google-benchmark timing run.  Every other
# bench report is identical across two runs of the same binary.
EXCLUDED_BENCHES = {"bench_binding", "bench_distributed_binding",
                    "bench_sim_throughput"}

SMOKE = os.path.join("examples", "serve", "requests_smoke.txt")
SERVE_BASE = ["--requests", SMOKE, "--seed", "42", "--quiet"]
CI_FAULT_PLAN = "bank_dead@2000:module=0,bank=7;brownout@8000+120:module=0"


def producers(tree):
    """(name, binary, args, outputs) for every report compared.

    `args` may name output files as "{out}/<file>"; `outputs` lists those
    files.  Paths of inputs are relative to the tree.
    """
    out = []
    benches = sorted(os.path.splitext(os.path.basename(p))[0] for p in
                     glob.glob(os.path.join(tree, "bench", "bench_*.cpp")))
    for b in benches:
        if b in EXCLUDED_BENCHES:
            continue
        out.append((b, f"bench/{b}", ["--json-out", "{out}/" + b + ".json"],
                    [b + ".json"]))
    # The CI audit and fault-plan invocations.
    out.append(("bench_fig3_6_timing --audit", "bench/bench_fig3_6_timing",
                ["--audit", "--txn-trace", "{out}/audit_fig3_6_trace.json",
                 "--json-out", "{out}/audit_fig3_6.json"],
                ["audit_fig3_6.json", "audit_fig3_6_trace.json"]))
    for b in ("bench_fig2_1_tree_saturation", "bench_trace_replay",
              "bench_coded_memory"):
        out.append((b + " --audit", f"bench/{b}",
                    ["--audit", "--json-out", "{out}/audit_" + b + ".json"],
                    ["audit_" + b + ".json"]))
    out.append(("bench_fault_degradation --fault-plan",
                "bench/bench_fault_degradation",
                ["--fault-plan", CI_FAULT_PLAN,
                 "--json-out", "{out}/fault_degradation_plan.json"],
                ["fault_degradation_plan.json"]))
    for scenario in sorted(glob.glob(os.path.join(tree, "examples",
                                                  "scenarios", "*.json"))):
        stem = os.path.splitext(os.path.basename(scenario))[0]
        out.append((f"cfm_campaign {stem}", "tools/cfm_campaign",
                    [os.path.relpath(scenario, tree), "--no-cache", "--quiet",
                     "--json-out", "{out}/campaign_" + stem + ".json"],
                    ["campaign_" + stem + ".json"]))
    for name, extra in (
            ("plain", []),
            ("audit", ["--audit"]),
            ("bank_dead", ["--fault-plan", "bank_dead@1000:module=0,bank=3",
                           "--spares", "1"]),
            ("reference_path", ["--fast-path", "0", "--max-span", "1"])):
        out.append((f"cfm_serve {name}", "tools/cfm_serve",
                    SERVE_BASE + extra + ["--json-out",
                                          "{out}/serve_" + name + ".json"],
                    ["serve_" + name + ".json"]))
    return out


def build(tree, build_dir, targets):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-B", build_dir, "-S", tree, *gen,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True,
                   stdout=subprocess.DEVNULL)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    *targets], check=True, stdout=subprocess.DEVNULL)


def run_all(tree, build_dir, out_dir, items):
    """Runs every producer in `tree`; returns {name: exit status}."""
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    status = {}
    for name, binary, args, _ in items:
        argv = [os.path.join(build_dir, binary)]
        argv += [a.replace("{out}", out_dir) for a in args]
        proc = subprocess.run(argv, cwd=tree, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        status[name] = proc.returncode
        if proc.returncode != 0:
            log(f"{name} in {tree} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}")
    return status


def first_json_difference(a, b, path="$"):
    """Path of the first place two JSON values differ, or None."""
    if type(a) is not type(b):
        return f"{path} (type {type(a).__name__} vs {type(b).__name__})"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                side = "change" if key in b else "parent"
                return f"{path}.{key} (only in {side})"
            found = first_json_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_json_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        return None
    return None if a == b else f"{path} ({a!r} vs {b!r})"


def describe_difference(pa, pb):
    with open(pa, "rb") as f:
        a = f.read()
    with open(pb, "rb") as f:
        b = f.read()
    try:
        found = first_json_difference(json.loads(a), json.loads(b))
        if found:
            return found
    except ValueError:
        pass
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}"
    return f"line {min(len(la), len(lb)) + 1} (length differs)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref to compare to")
    ap.add_argument("--work-dir", default=os.path.join(ROOT, ".bench_build",
                                                       "reports"))
    args = ap.parse_args()

    sha, parent_tree = extract_parent(args.parent, args.work_dir)
    sides = {"parent": parent_tree, "change": ROOT}
    items = {side: producers(tree) for side, tree in sides.items()}
    names = {side: [p[0] for p in ps] for side, ps in items.items()}
    common = [p for p in items["change"] if p[0] in names["parent"]]
    for side in sides:
        other = "parent" if side == "change" else "change"
        for name in names[side]:
            if name not in names[other]:
                print(f"skipped    {name} (only in {side})")

    status = {}
    for side, tree in sides.items():
        build_dir = os.path.join(args.work_dir,
                                 f"build-{side}-{sha[:12]}"
                                 if side == "parent" else "build-change")
        targets = sorted({os.path.basename(p[1]) for p in common})
        log(f"building {side} ({tree}) in Release")
        build(tree, build_dir, targets)
        log(f"running {len(common)} producers in {side}")
        status[side] = run_all(tree, build_dir,
                               os.path.join(args.work_dir, "out-" + side),
                               common)

    compared = 0
    differences = []
    for name, _, _, outputs in common:
        if status["parent"][name] != status["change"][name]:
            differences.append(f"{name}: exit status {status['parent'][name]}"
                               f" vs {status['change'][name]}")
            continue
        for out in outputs:
            pa = os.path.join(args.work_dir, "out-parent", out)
            pb = os.path.join(args.work_dir, "out-change", out)
            if not (os.path.exists(pa) and os.path.exists(pb)):
                differences.append(f"{name}: {out} missing")
                continue
            compared += 1
            if subprocess.run(["cmp", "-s", pa, pb]).returncode != 0:
                differences.append(
                    f"{name}: {out} differs at {describe_difference(pa, pb)}")
            else:
                print(f"identical  {out}")
    print(f"{compared} reports compared against {sha[:12]}, "
          f"{len(differences)} difference(s)")
    for d in differences:
        print(f"DIFFERS    {d}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
