"""Compare two checkouts with alternating benchmark runs; write BENCH_<n>.json.

Usage:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_9.json \
        --workloads l1-exact,uc-float,brute-search --seeds 101-110 \
        --seconds 20 [--claim l1-exact:verify_ms] --title "what changed" \
        [--trace-workload l1-exact]

For each workload and seed, ``bench/run.py`` runs once in each checkout, one
process at a time; the side that runs first alternates from seed to seed.
Each run's metrics are read from the JSON line that ``bench/run.py`` prints
last.  Per metric the output holds each side's median and quartiles over
the seeds, the number of pairs the change won and lost (ties count for
neither), ``median_change`` (change median / parent median - 1) and the
metric's bound from the change's ``BENCHMARK.json``.  With
``--trace-workload``, one traced run per side (at the first seed, for
TRACE_SECONDS) adds the per-layer metrics.

With ``--claim``, the script prints whether the claimed metric improved in
at least nine of ten pairs and by more than the parent's interquartile
spread.  For every workload and bounded metric it prints whether the
change's median is worse than the parent's by more than the bound.  It exits
1 when any median is, or when any run failed an operation or reported
``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACE_SECONDS = 10.0


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    """One ``bench/run.py`` process in ``checkout``; its final JSON line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def seed_range(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs, bounds, better):
    """Per-metric statistics over the pairs of one workload."""
    metrics = {}
    for name in runs[0]["parent"]["metrics"]:
        value = {side: [r[side]["metrics"][name]["value"] for r in runs]
                 for side in SIDES}
        sign = 1 if better.get(name, "lower") == "lower" else -1
        diffs = [sign * (c - p) for p, c in zip(value["parent"], value["change"])]
        parent_median = statistics.median(value["parent"])
        change_median = statistics.median(value["change"])
        metrics[name] = {
            "unit": runs[0]["parent"]["metrics"][name]["unit"],
            "parent": quartiles(value["parent"]),
            "change": quartiles(value["change"]),
            "change_better_pairs": sum(d < 0 for d in diffs),
            "change_worse_pairs": sum(d > 0 for d in diffs),
            "median_change": round(change_median / parent_median - 1, 4)
            if parent_median else 0.0,
            "bound": bounds.get(name),
        }
    return metrics


def claim_holds(metric: dict, pairs: int) -> bool:
    """At least nine wins in ten, and a median shift beyond the parent's IQR."""
    parent = metric["parent"]
    shift = abs(metric["change"]["median"] - parent["median"])
    return (metric["change_better_pairs"] >= 0.9 * pairs
            and shift > parent["q3"] - parent["q1"])


def beyond_bound(metric: dict, better: str) -> bool:
    """The change's median is worse than the parent's by more than the bound."""
    worse = metric["median_change"] if better == "lower" else -metric["median_change"]
    return worse > metric["bound"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", required=True, help="comma-separated")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", default="", help="workload:metric")
    parser.add_argument("--title", default="",
                        help="one line on what the change does")
    parser.add_argument("--trace-workload")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    claim_workload, _, claim_metric = args.claim.partition(":")
    checkouts = {"parent": args.parent, "change": args.change}
    shown = claim_metric or "correct_ms"  # the metric each progress line prints

    report = {
        "change": args.title,
        "command": "python3 bench/run.py --workload WORKLOAD --seed SEED "
                   f"--seconds {args.seconds:g}",
        "machine": f"{os.cpu_count()}-CPU {platform.system()}, "
                   f"{platform.python_implementation()} "
                   f"{platform.python_version()}; times are process CPU time "
                   "scaled by the calibration unit of bench/speed.py",
        "method": f"{len(args.seeds)} pairs per workload on seeds "
                  f"{args.seeds[0]}-{args.seeds[-1]}, parent and change "
                  "alternating which runs first; medians and quartiles "
                  "(inclusive method) are over the runs of each side; "
                  "change_better_pairs counts the pairs the change won (ties "
                  "count for neither); median_change is change median / "
                  "parent median - 1",
        "claimed": ({"workload": claim_workload, "metric": claim_metric}
                    if args.claim else None),
        "workloads": {},
    }
    healthy = True
    for workload in args.workloads.split(","):
        runs = []
        for k, seed in enumerate(args.seeds):
            pair = {}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                pair[side] = run_bench(checkouts[side], workload, seed,
                                       args.seconds)
            runs.append(pair)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} {pair[side]['metrics'][shown]['value']:.4f}"
                for side in SIDES if shown in pair[side]["metrics"]),
                flush=True)
        failed = {side: sum(r[side]["failed"] for r in runs) for side in SIDES}
        correct = all(r[side]["correct"] for r in runs for side in SIDES)
        healthy &= correct and not any(failed.values())
        report["workloads"][workload] = {
            "pairs": len(runs), "seeds": args.seeds, "failed": failed,
            "correct": correct, "metrics": summarize(runs, bounds, better)}

    if args.trace_workload:
        seed = args.seeds[0]
        traced = {side: run_bench(checkouts[side], args.trace_workload, seed,
                                  TRACE_SECONDS, trace=1)
                  for side in SIDES}
        healthy &= all(t["correct"] for t in traced.values())
        report[f"per_layer_{args.trace_workload.replace('-', '_')}"] = {
            "command": f"python3 bench/run.py --workload {args.trace_workload} "
                       f"--seed {seed} --seconds {TRACE_SECONDS:g} --trace 1",
            "note": "means per correction instance (calls and inclusive or "
                    "self ms), one traced run per side",
            "metrics": {name: {"unit": m["unit"],
                               "parent": round(m["value"], 4),
                               "change": round(traced["change"]["metrics"]
                                               [name]["value"], 4)}
                        for name, m in traced["parent"]["metrics"].items()},
            "correct": {side: traced[side]["correct"] for side in SIDES},
        }

    args.out.write_text(json.dumps(report, indent=1, ensure_ascii=False) + "\n")
    claimed = report["workloads"].get(claim_workload, {}).get("metrics", {})
    if claim_metric in claimed:
        metric = claimed[claim_metric]
        print(f"claimed {args.claim}: parent {metric['parent']}, change "
              f"{metric['change']}, better in {metric['change_better_pairs']}"
              f"/{len(args.seeds)} pairs, median change "
              f"{metric['median_change']:+.1%}: "
              f"{'holds' if claim_holds(metric, len(args.seeds)) else 'does not hold'}")
    regressed = False
    for workload, result in report["workloads"].items():
        for name, metric in result["metrics"].items():
            if metric["bound"] is None:
                continue
            over = beyond_bound(metric, better[name])
            regressed |= over
            print(f"{workload} {name}: median change "
                  f"{metric['median_change']:+.1%}, bound {metric['bound']:.0%}: "
                  f"{'worse beyond the bound' if over else 'within the bound'}")
    print(f"wrote {args.out}")
    return 0 if healthy and not regressed else 1


if __name__ == "__main__":
    sys.exit(main())
