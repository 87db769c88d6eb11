#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs workloads.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Without --workload every workload in BENCHMARK.json runs in turn.  The
default seed is 1; seed 9001 is held out for checking gain claims.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and writes the spans to .bench_build/traces/.  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is non-zero when an output check fails.  perfbench/selftest.py checks the
printed metric names against BENCHMARK.json.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures once, then lets ninja/make bring the binary up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr)


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (result line dict, record dict)."""
    work_dir = os.path.join(BUILD_ROOT, "runs", f"{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        proc = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--work-dir", work_dir],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"perfbench {workload} exited "
                               f"{proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])

        failed_checks = list(record["failed_checks"])
        if record["reports"]:
            check = subprocess.run(
                [sys.executable, os.path.join(ROOT, "tools",
                                              "validate_report.py")]
                + record["reports"], capture_output=True, text=True)
            if check.returncode != 0:
                failed_checks.append({"check": "validate_report",
                                      "detail": check.stderr.strip()})
        if trace:
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            record["trace_file"] = os.path.join(
                traces, f"{workload}-seed{seed}.json")
            os.replace(os.path.join(work_dir, "trace.json"),
                       record["trace_file"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record["failed_checks"] = failed_checks
    result = {
        "correct": not failed_checks,
        "attempted": max(1, int(record["attempted"])),
        "failed": int(record["failed"]),
        "metrics": record["metrics"],
    }
    return result, record


def print_record(record, provenance):
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  reps {record['reps']}  "
          f"chunks {record['chunks']}")
    print("provenance: " + json.dumps({**provenance,
                                       **record["provenance"]},
                                      sort_keys=True))
    print(f"digest: {record['digest']}")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:>18.6g} {m['unit']}")
    for name, m in record["extra"].items():
        print(f"  {name:34s} {m['value']:>18.6g} {m['unit']}  (figure)")
    if "trace_file" in record:
        print(f"spans: {os.path.relpath(record['trace_file'], ROOT)}")
    for c in record["failed_checks"]:
        print(f"CHECK FAILED: {c['check']}: {c['detail']}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    provenance = {"git_sha": git_sha(), "source_digest": source_digest(),
                  "nproc": os.cpu_count()}

    results = {}
    for workload in [args.workload] if args.workload else names:
        try:
            result, record = run_workload(workload, args.seed, args.seconds,
                                          bool(args.trace))
        except (OSError, RuntimeError, subprocess.SubprocessError,
                ValueError, KeyError) as e:
            log(f"perfbench: {workload}: {e}")
            return 1
        print_record(record, provenance)
        results[workload] = result

    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
