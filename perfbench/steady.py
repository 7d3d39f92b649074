#!/usr/bin/env python3
"""Steadiness runner: repeat workloads over seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads recsys-csv,scale-synth,ksystem-modular \\
        --seeds 1-10 --out .perfbench/steady-a.json [--compare .perfbench/steady-b.json]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, with
the ``run_seconds`` of BENCHMARK.json, and collects the metrics of each run's
last output line.  For every metric it prints the median and quartiles over
the runs, and the spread (q3 - q1) / median against the metric's bound:
``ok`` below a third of the bound, ``wide`` below the bound, ``FAIL`` above.
The spread of ``setup_s`` is only flagged (``FLAG``), as it is exempt from
the spread rule.  ``--compare`` checks that every median is not worse than
the other file's by more than the bound, and that every count repeats
exactly at the seeds both files ran.  Exits 1 on any failed run, FAIL or
failed comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median), quartiles as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        return {"ok": False}
    return {"ok": True, "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="write the runs and summary here (JSON)")
    ap.add_argument("--compare", help="an earlier --out file of the same workloads")
    args = ap.parse_args(argv)

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    doc = {"seeds": seeds, "runs": {}, "summary": {}}
    bad = 0
    for name in names:
        runs = doc["runs"][name] = {}
        for seed in seeds:
            runs[str(seed)] = run_once(name, seed, bench["run_seconds"], args.trace)
            bad += not runs[str(seed)]["ok"]
        good = [r["metrics"] for r in runs.values() if r["ok"]]
        if len(good) < 2:
            print(f"{name}: fewer than two good runs")
            continue
        print(f"{name}: {len(good)} runs")
        for metric in good[0]:
            q1, med, q3, rel = spread([g[metric] for g in good])
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                if metric == "setup_s":
                    verdict = "FLAG" if rel > bound else "ok"
                else:
                    verdict = "ok" if rel < bound / 3 else "wide" if rel <= bound else "FAIL"
                    bad += verdict == "FAIL"
            doc["summary"].setdefault(name, {})[metric] = {
                "q1": q1, "median": med, "q3": q3, "spread": rel, "bound": bound, "verdict": verdict}
            print(f"  {metric:34s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {rel:7.2%}  {'' if bound is None else f'bound {bound:.0%}'} {verdict}")

    if args.compare:
        with open(args.compare) as fh:
            other = json.load(fh)
        for name, rows in doc["summary"].items():
            for metric, row in rows.items():
                before = other["summary"].get(name, {}).get(metric)
                if before is None or row["bound"] is None:
                    continue
                worse = row["median"] / before["median"] - 1.0 if before["median"] else 0.0
                if worse > row["bound"]:
                    bad += 1
                    print(f"COMPARE FAIL {name} {metric}: median {row['median']:.6g} is "
                          f"{worse:.1%} worse than {before['median']:.6g}")
            for seed, run in doc["runs"][name].items():
                prev = other["runs"].get(name, {}).get(seed)
                if not (run["ok"] and prev and prev["ok"]):
                    continue
                for metric in ("marginal_evals", "f_evals", "independence_checks"):
                    if metric in run["metrics"] and run["metrics"][metric] != prev["metrics"][metric]:
                        bad += 1
                        print(f"COMPARE FAIL {name} seed {seed}: {metric} "
                              f"{run['metrics'][metric]} != {prev['metrics'][metric]}")
        print(f"compared with {args.compare}")

    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
