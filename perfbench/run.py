#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print one result line.

    python3 perfbench/run.py --workload fig4-samplesort --seed 1 \
        --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (the library from src/ plus perfbench.cpp) into
.bench_build/ at the repository root, runs the workload in its own process
and prints, as the last line of stdout, one JSON object with the keys
"correct", "attempted", "failed" and "metrics". --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones. The full
report of the run (every metric, provenance, failures) and the spans of a
traced run go to .bench_out/. Exits 1 if any cell failed or the build or the
run did not complete. README.md in this directory describes the workloads
and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "sbs_perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
# Set-up samples per run, each from a --setup-only process of its own (which
# reports the median of its repeated set-ups): this many before the measuring
# process and one more after it, so that the samples span the run; setup_s
# is their median.
SETUPS_BEFORE = 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return False
    return True


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args):
    """Run the benchmark program; returns (exit code, parsed last line)."""
    cmd = [BINARY, "--root", ROOT] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from: {' '.join(cmd)} (exit {proc.returncode})")
        return proc.returncode or 1, None


def provenance():
    """Git commit (None outside a git checkout) and a digest of the sources."""
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.split()
        # Only this checkout's own repository, not one that encloses it.
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "configs", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(workload, seed, seconds, trace, extra=()):
    """One benchmark run. Returns (result line dict, exit code)."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    os.makedirs(OUT, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    if trace:
        args += ["--spans", os.path.join(OUT, f"spans-{tag}.json")]
    setup_args = ["--workload", workload, "--seed", str(seed),
                  "--setup-only"] + list(extra)
    setups, raw_setups = [], []

    def sample_setups(count):
        for _ in range(count):
            src, sreport = run_binary(setup_args)
            if sreport is None or src != 0:
                return False
            setups.append(sreport["metrics"]["setup_s"]["value"])
            raw_setups.append(sreport["metrics"]["raw_setup_s"]["value"])
        return True

    if not trace and not sample_setups(SETUPS_BEFORE):
        return None, 1
    rc, report = run_binary(args)
    if report is None:
        return None, 1

    metrics = report["metrics"]
    if not trace:
        if not sample_setups(SETUPS_BEFORE + 1):
            return None, 1
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        report["setup_samples_s"] = setups
        report["raw_setup_samples_s"] = raw_setups

    report.update(provenance())
    with open(os.path.join(OUT, f"report-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)

    names = metric_names(trace)
    missing = [n for n in names if n not in metrics]
    for n in missing:
        log(f"metric missing from the program's output: {n}")
    for failure in report["failures"]:
        log(f"cell failed: {failure}")
    correct = (rc == 0 and report["attempted"] > 0 and report["failed"] == 0
               and not missing)
    result = {
        "correct": correct,
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": {n: metrics[n] for n in names if n in metrics},
    }
    log(f"{workload} seed {seed}: host_cpus {report['host_cpus']}, build "
        f"{report['build_type']}, commit {report['git_commit']}, "
        f"cell_fail_ratio {metrics['cell_fail_ratio']['value']}")
    return result, 0 if correct else 1


def self_test():
    """Prove both of the benchmark's checks fire, at tiny n.

    Passing cases: the pass-through scheduler decorator and the trace
    recorder leave every makespan and counter identical on all three
    workloads. Failing cases: a cell verified on a kernel that never ran,
    and a traced cell run under another scheduler seed, must each raise
    cell_fail_ratio and make the command exit nonzero.
    """
    tiny = {"fig4-samplesort": 20000, "fig6-rrg": 20000,
            "huge64-samplesort": 4000}
    cases = []
    for workload, n in tiny.items():
        for trace in (0, 1):
            cases.append((workload, trace, ["--n", str(n)], True))
    cases.append(("fig4-samplesort", 0,
                  ["--n", "20000", "--force-fail-cell", "SB"], False))
    cases.append(("fig6-rrg", 1,
                  ["--n", "20000", "--force-fail-cell", "SB-1bw"], False))
    cases.append(("fig4-samplesort", 1,
                  ["--n", "20000", "--force-mismatch-cell", "WS"], False))
    ok = True
    for workload, trace, extra, expect_pass in cases:
        result, rc = run_workload(workload, 7, 1, trace, extra)
        failed = result["failed"] if result else None
        good = (result is not None and rc == 0 and result["correct"]
                and failed == 0) if expect_pass else (
                    rc != 0 and result is not None and failed > 0)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace} "
              f"{' '.join(extra)}: exit {rc}, failed {failed}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    result, rc = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
