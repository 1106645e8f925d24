#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and prints, per metric,
the median and quartiles beside the bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workloads shuffle_exchange
    python3 perfbench/steady.py --trace              # per-layer metrics too

The spread is (q3 - q1) / median, with quartiles as Python's
statistics.quantiles(values, n=4) gives them. Two verdicts are printed per
metric: `in bound`, the acceptance rule (spread within the bound), and
`< 1/3`, the margin the benchmark aims for (spread under a third of the
bound). setup_s is exempt from both: one cold set-up per run is noisy by
nature, and only its median is compared. The exit code is 1 if a metric is
outside its bound or the failed share differs between runs. With --trace
every seed is run a second time with tracing on, and the table adds the
traced median of each end-to-end metric and its gap to the untraced one
(the tracing overhead). Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    result = lines[-1]
    extra = {k: v for line in lines[:-1] for k, v in line.items()}
    return result, extra


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    e2e = {m["name"]: m for m in bench["end_to_end"]}
    all_in_bound = True
    for workload in args.workloads:
        values, traced, tails, shares = {}, {}, {}, []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, extra = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in extra.get("reference", {}).items():
                tails.setdefault(name, []).append(v)
            if args.trace:
                result, extra = run_once(workload, seed, args.seconds, 1)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: traced run incorrect")
                for name, m in result["metrics"].items():
                    traced.setdefault(name, []).append(m["value"])
                for name, m in extra["e2e"].items():
                    traced.setdefault("traced:" + name, []).append(m["value"])

        print(f"\n== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s, failed share "
              f"{sorted(set(shares))}")
        all_in_bound &= len(set(shares)) == 1
        print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}  in bound  < 1/3")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = e2e[name]["bound"]
            exempt = name == "setup_s"
            in_bound = exempt or spread <= bound
            all_in_bound &= in_bound
            margin = "-" if exempt else ("yes" if spread < bound / 3 else "no")
            line = (f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
                    f"{bound:6.2f}  {'-' if exempt else ('yes' if in_bound else 'NO'):>8}  "
                    f"{margin:>5}")
            if args.trace:
                tmed = statistics.median(traced["traced:" + name])
                line += f"   traced {tmed:.6g} ({(tmed - med) / med:+.1%})"
            print(line)
        for name, vals in tails.items():
            print(f"  reference {name:18} median {statistics.median(vals):.6g} "
                  f"(min {min(vals):.6g}, max {max(vals):.6g})")
        for name, vals in traced.items():
            if not name.startswith("traced:"):
                q1, med, q3 = quartiles(vals)
                print(f"  layer {name:30} median {med:.6g} (q1 {q1:.6g}, q3 {q3:.6g})")
    return 0 if all_in_bound else 1


if __name__ == "__main__":
    sys.exit(main())
