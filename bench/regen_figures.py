#!/usr/bin/env python3
"""Regenerate the paper's evaluation twice and check the tables agree.

    python3 bench/regen_figures.py [--build build] [--out .] [bench ...]
        [-- extra bench flags, e.g. --n=20000 --reps=1]

Runs every figure and ablation bench (fig5_rrm ... fig10_sigma,
ablation_mu, ablation_strand_size by default) once pinned to one CPU,
where harness::RunExperiment runs its cells one after another, and once
on every CPU the process may use, where it forks one child per cell.
Each run gets its own scratch directory. The script fails unless both
runs print byte-identical stdout (the tables and summary lines) and
byte-identical --metrics-json files. It then writes the unrestricted
run's BENCH_<name>.json to --out with a "pinned_run" object holding the
pinned run's host_wall_s, host_cpus, cell_workers and
children_peak_rss_mb, and prints both whole-evaluation wall times next
to the target 1.2 x pinned / min(cells, host_cpus).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

BENCHES = ["fig5_rrm", "fig6_rrg", "fig7_cores", "fig8_kernels",
           "fig9_kernels_lowbw", "fig10_sigma", "ablation_mu",
           "ablation_strand_size"]
PINNED_KEYS = ("host_wall_s", "host_cpus", "cell_workers",
               "children_peak_rss_mb")


def run_bench(binary, extra, workdir, pin):
    """Run one bench in `workdir`; returns (stdout bytes, wall seconds)."""
    def pin_to_one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    t0 = time.monotonic()
    proc = subprocess.run([binary, "--metrics-json=metrics.jsonl"] + extra,
                          cwd=workdir, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=True,
                          preexec_fn=pin_to_one_cpu if pin else None)
    return proc.stdout, time.monotonic() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", default="build")
    parser.add_argument("--out", default=".")
    parser.add_argument("benches", nargs="*", default=BENCHES)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    extra = argv[split + 1:]

    rows, failed = [], []
    with tempfile.TemporaryDirectory(prefix="regen_figures_") as scratch:
        for name in args.benches:
            binary = os.path.abspath(os.path.join(args.build, "bench", name))
            out = {}
            for mode in ("pinned", "free"):
                workdir = os.path.join(scratch, name, mode)
                os.makedirs(workdir)
                stdout, wall = run_bench(binary, extra, workdir,
                                         mode == "pinned")
                with open(os.path.join(workdir, f"BENCH_{name}.json")) as f:
                    report = json.load(f)
                metrics_path = os.path.join(workdir, "metrics.jsonl")
                metrics = None
                if os.path.exists(metrics_path):
                    with open(metrics_path, "rb") as f:
                        metrics = f.read()
                out[mode] = (stdout, metrics, wall, report)
                print(f"{name} {mode}: {wall:.1f} s, cell_workers "
                      f"{report['cell_workers']}", file=sys.stderr,
                      flush=True)
            same = out["pinned"][:2] == out["free"][:2]
            if not same:
                failed.append(name)
            report = out["free"][3]
            report["pinned_run"] = {k: out["pinned"][3][k]
                                    for k in PINNED_KEYS}
            cells = sum(len(g["cells"]) for g in report["groups"])
            with open(os.path.join(args.out, f"BENCH_{name}.json"), "w") as f:
                json.dump(report, f, indent=1)
                f.write("\n")
            rows.append((name, cells, out["pinned"][2], out["free"][2],
                         report["host_cpus"], same))

    print(f"{'bench':22} {'cells':>5} {'pinned s':>9} {'free s':>8} "
          f"{'speedup':>7}  tables")
    for name, cells, pinned, free, _, same in rows:
        print(f"{name:22} {cells:5d} {pinned:9.1f} {free:8.1f} "
              f"{pinned / free:7.2f}  {'identical' if same else 'DIFFER'}")
    pinned = sum(r[2] for r in rows)
    free = sum(r[3] for r in rows)
    cells = sum(r[1] for r in rows)
    cpus = max(r[4] for r in rows)
    target = 1.2 * pinned / min(cells, cpus)
    print(f"{'total':22} {cells:5d} {pinned:9.1f} {free:8.1f} "
          f"{pinned / free:7.2f}")
    print(f"target 1.2 x {pinned:.1f} s / min({cells}, {cpus}) = "
          f"{target:.1f} s: {'met' if free <= target else 'not met'}")
    if failed:
        print(f"tables differ between pinned and unrestricted runs: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
