"""Compare a parent checkout and a change checkout with this benchmark.

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10

Both sides run this directory's run.py, so the benchmark code and settings
are identical; only --root differs.  For each workload, pair i runs seed i
on both sides, alternating which side goes first.  The report gives each
side's median and quartiles per end-to-end metric, the fraction of pairs
the change wins (ties count for neither) and a verdict:

- improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own spread (its quartile distance);
- unresolved  the parent's spread, as a share of its median, is wider than
              the metric's bound in BENCHMARK.json, and not every change run
              beats every parent run;
- worse       the change's median is worse by more than the bound;
- no worse    otherwise.

A workload whose runs produced a wrong report on either side is marked
FAILED.  The numbers are also written to .bench_out/compare.json in the
change checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def verdict(parent, change, better: str, bound: float) -> tuple[str, float]:
    """(verdict, win fraction) for paired samples of one metric."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(p, c):
        return (p - c) * sign

    wins = sum(1 for p, c in zip(parent, change) if gain(p, c) > 0)
    win_frac = wins / len(parent)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    all_better = all(gain(p, c) > 0 for p in parent for c in change)
    if win_frac >= 0.9 and gain(pm, cm) > spread:
        return "improved", win_frac
    if spread > bound * abs(pm) and not all_better:
        return "unresolved", win_frac
    if -gain(pm, cm) > bound * abs(pm):
        return "worse", win_frac
    return "no worse", win_frac


def one_run(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--root", root,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=list(wl.WORKLOADS),
                        help="repeatable; default the workloads in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds in BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(one_run(sides[side], workload, i + 1, seconds))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        print(f"== {workload}: {args.pairs} pairs, seeds 1..{args.pairs}"
              + ("  FAILED reports: " + str(failed) if any(failed.values()) else ""))
        rows = {}
        for name, metric in bounds.items():
            p = [r["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
            result, win_frac = verdict(p, c, metric["better"], metric["bound"])
            if any(failed.values()):
                result = "FAILED"
            rows[name] = {"parent": p, "change": c, "win_fraction": win_frac,
                          "verdict": result, "bound": metric["bound"]}
            print(f"  {name:16s} {metric['unit']:4s} parent {quartiles(p):32s} "
                  f"change {quartiles(c):32s} wins {win_frac:4.0%}  {result}")
        summary[workload] = {"failed": failed, "metrics": rows}
    out = os.path.join(sides["change"], ".bench_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "compare.json"), "w", encoding="utf-8") as fh:
        json.dump({"parent": sides["parent"], "change": sides["change"],
                   "pairs": args.pairs, "seconds": seconds, "workloads": summary},
                  fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
