#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and write it as Markdown.

    python3 perfbench/steadiness.py --seeds 101-110 --out perfbench/STEADINESS.md

Runs every workload of BENCHMARK.json once per seed (untraced, for the
configured run_seconds), one run at a time, from the root of a checkout,
and then does it all again for each further set (--sets, default 2): a
workload's sets run back to back. For each end-to-end metric it reports,
per set, the median and the spread: the distance between the quartiles
(Python's statistics.quantiles(values, n=4)) as a share of the median. It
also gives the first set's quartiles and how much worse each later set's
median is than the first's, as a share of the first (negative: better),
next to the metric's bound. A run that fails or prints no result stops
the script.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}"
                 f"\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result, time.time() - t0


def spread(v):
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, q3, (q3 - q1) / statistics.median(v)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="101-110", help="inclusive range, e.g. 101-110")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs per workload")
    ap.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    ap.add_argument("--out", help="Markdown file to write (default: stdout)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    out = [f"Seeds {seeds[0]}-{seeds[-1]}, {args.sets} sets, {bench['run_seconds']} s "
           f"runs, one run at a time; spread = (Q3 - Q1) / median; worse = how "
           f"much worse a set's median is than set 1's, as a share of set 1's.", ""]
    for w in workloads:
        sets, walls = [], []
        for k in range(args.sets):
            values = {}
            for s in seeds:
                result, wall = run(w, s, bench["run_seconds"])
                walls.append(wall)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{w} set {k + 1} seed {s}: {wall:.1f} s", file=sys.stderr)
            sets.append(values)
        later = [f"median {k + 1} | spread {k + 1} | worse {k + 1}"
                 for k in range(1, args.sets)]
        out += [f"## {w}", "",
                f"Wall time per run: median {statistics.median(walls):.1f} s, "
                f"max {max(walls):.1f} s.", "",
                " | ".join(["| metric | median | Q1 | Q3 | spread", *later, "bound |"]),
                "|---" * (6 + 3 * len(later)) + "|"]
        for name, v in sets[0].items():
            med = statistics.median(v)
            q1, q3, sp = spread(v)
            row = [f"| `{name}`", f"{med:.6g}", f"{q1:.6g}", f"{q3:.6g}", f"{sp:.3f}"]
            sign = 1 if metrics[name]["better"] == "lower" else -1
            for other in sets[1:]:
                m2 = statistics.median(other[name])
                row += [f"{m2:.6g}", f"{spread(other[name])[2]:.3f}",
                        f"{sign * (m2 - med) / med:+.3f}"]
            out.append(" | ".join([*row, f"{metrics[name]['bound']} |"]))
        out.append("")
    text = "\n".join(out)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text)

if __name__ == "__main__":
    main()
