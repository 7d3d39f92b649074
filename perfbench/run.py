#!/usr/bin/env python3
"""Run one workload of the submax benchmark and print its metrics.

    python3 perfbench/run.py --workload recsys-csv --seed 1 --seconds 35 --trace 0

Run from the root of a submax checkout.  The run writes the workload's input
files under ``.perfbench/<workload>-s<seed>/``, then repeats passes, each a
fresh interpreter running ``perfbench/one_pass.py``, until ``--seconds`` are
used (at least three passes).  Times are given at a reference machine speed
(see :mod:`speed`) and are medians over passes; ``setup_s`` also counts as
many set-up-only probes, each a fresh interpreter too.
Counts must be identical in every pass.  Every trial of every pass goes
through the correctness gate in :mod:`workloads`, and its output digest must
equal the other passes' and, at a recorded seed, ``references.json``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record,
with machine and workload details, goes to ``.perfbench/results/``.  The exit
code is 0 when every check passed, 1 when one failed and 2 on a usage error.

``--record`` runs one pass and stores its output digests as the reference
for this workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

REFERENCES = os.path.join(HERE, "references.json")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# Extra end-to-end figures that exist on only some workloads, so they are
# printed and recorded but are not in BENCHMARK.json (whose metrics every
# workload must report).
EXTRA_UNITS = {"double_greedy_s": "s", "sample_greedy_linear_s": "s", "exact_s": "s",
               "failed_frac": "frac"}
# Per-layer times are reported as shares of the traced pass's solve or set-up
# time: a layer that a workload never enters then reads 0 rather than a time.
SOLVE_SHARES = ("cli.self", "cli.report", "objectives.load", "objectives.evaluate",
                "constraints.check", "constraints.rank", "constraints.verify",
                "hardness.check", "core.with_element", "algorithms.busy", "algorithms.self")
SETUP_SHARES = ("cli.import", "objectives.generate")


def load_benchmark() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_pass(workload: str, seed: int, workdir: str, traced: bool, index: int,
             setup_only: bool = False) -> dict:
    cfg = json.dumps({"workload": workload, "seed": seed, "workdir": workdir,
                      "trace": int(traced), "pass": index, "setup_only": int(setup_only)})
    proc = subprocess.run([sys.executable, os.path.join(HERE, "one_pass.py"), cfg],
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"min": min(values), "q1": q1, "median": statistics.median(values), "q3": q3,
            "n": len(values)}


def headline(s: dict, unit: str):
    """The figure a run reports from per-pass values: their median."""
    if unit == "count" and float(s["median"]).is_integer():
        return int(s["median"])
    return s["median"]


def reference_times(passes: list[dict], probes: list[dict]) -> dict:
    """Times of the untraced passes at the reference machine speed
    (:mod:`speed`): per trial the median over passes, summed per algorithm;
    ``solve_s`` the median of the passes' trial phases; ``setup_s`` the
    median over passes and set-up probes."""
    out = {"solve_s": statistics.median(p["solve_ref_s"] for p in passes),
           "setup_s": statistics.median(p["setup_ref_s"] for p in passes + probes)}
    for tid in passes[0]["trial_ref_s"]:
        key = f"{passes[0]['trial_alg'][tid]}_s"
        out[key] = out.get(key, 0.0) + statistics.median(p["trial_ref_s"][tid] for p in passes)
    return out


def unit_of(name: str) -> str:
    for suffix, unit in (("_share", "frac"), ("_frac", "frac"), ("_calls", "count"),
                         ("_us", "us"), ("_ratio", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def end_to_end(p: dict) -> dict:
    """End-to-end figures of one untraced pass."""
    out = {"setup_s": p["setup_s"], "solve_s": p["solve_s"], "peak_rss_mb": p["peak_rss_mb"]}
    for tid, seconds in p["trial_s"].items():
        key = f"{p['trial_alg'][tid]}_s"
        out[key] = out.get(key, 0.0) + seconds
    out.update(p["counts"])
    return out


def per_layer(p: dict) -> dict:
    """Per-layer figures of one traced pass: shares, counts, per-call times."""
    layers = p["layers"]
    out = {"trace.setup_s": layers["setup_s"], "trace.solve_s": layers["solve_s"]}
    for name in SOLVE_SHARES:
        out[f"{name}_share"] = layers[f"{name}_s"] / layers["solve_s"]
    for name in SETUP_SHARES:
        out[f"{name}_share"] = layers[f"{name}_s"] / layers["setup_s"]
    out.update((k, v) for k, v in layers.items() if k not in ("setup_s", "solve_s"))
    return out


def summarize(rows: list[dict]) -> dict:
    names = sorted({k for row in rows for k in row})
    return {k: stats([row.get(k, 0.0) for row in rows]) for k in names}


def gate(passes: list[dict], reference: dict | None) -> tuple[int, int, list[str]]:
    """Count attempted and failed trials over all passes.  A trial fails if
    the workload's gate failed it, or its digest differs from the first
    pass's or from the recorded reference."""
    attempted = failed = 0
    problems: list[str] = []
    first = passes[0]["trials"]
    for i, p in enumerate(passes):
        for tid, dig in p["trials"].items():
            attempted += 1
            why = p["failures"].get(tid)
            if why is None and dig != first.get(tid):
                why = "output differs from pass 0"
            if why is None and reference is not None and dig != reference.get(tid):
                why = "output differs from the recorded reference"
            if why is not None:
                failed += 1
                problems.append(f"pass {i} {tid}: {why}")
        if reference is not None:
            for tid in sorted(set(reference) - set(p["trials"])):
                attempted += 1
                failed += 1
                problems.append(f"pass {i} {tid}: missing (recorded in the reference)")
        if p["counts"] != passes[0]["counts"]:
            problems.append(f"pass {i}: counts {p['counts']} differ from pass 0 {passes[0]['counts']}")
    return attempted, failed, problems


def load_references() -> dict:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's output digests in references.json")
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not os.path.isfile(os.path.join("src", "submax", "cli.py")):
        print("perfbench: src/submax not found; run from the root of a submax checkout",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    workdir = os.path.join(".perfbench", f"{args.workload}-s{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    workloads.write_inputs(args.workload, args.seed, workdir)
    # Untimed warm-up: compiles the bytecode, so that no timed pass pays for it.
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import submax.cli"],
                   check=True, timeout=PASS_TIMEOUT_S)

    if args.record:
        p = run_pass(args.workload, args.seed, workdir, False, 0)
        if p["failures"]:
            print(json.dumps(p["failures"], indent=1), file=sys.stderr)
            return 1
        refs = load_references()
        refs.setdefault(args.workload, {})[str(args.seed)] = p["trials"]
        with open(REFERENCES, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(p['trials'])} trial digests for {args.workload} seed {args.seed}")
        return 0

    kinds = [False, True] if args.trace else [False]
    passes: list[dict] = []
    probes: list[dict] = []  # set-up-only passes
    last_s = {False: 0.0, True: 0.0}
    try:
        while True:
            traced = kinds[len(passes) % len(kinds)]
            t0 = time.monotonic()
            passes.append(run_pass(args.workload, args.seed, workdir, traced, len(passes)))
            if not traced:
                probes.append(run_pass(args.workload, args.seed, workdir, False, len(passes),
                                       setup_only=True))
            last_s[traced] = time.monotonic() - t0
            elapsed = time.monotonic() - start
            enough = len(passes) >= (4 if args.trace else MIN_PASSES)
            if enough and elapsed + last_s[kinds[len(passes) % len(kinds)]] > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reference = load_references().get(args.workload, {}).get(str(args.seed))
    attempted, failed, problems = gate(passes, reference)
    correct = failed == 0 and not problems
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(EXTRA_UNITS)
    untraced = [p for p in passes if "layers" not in p]
    sections = {"end_to_end": summarize([end_to_end(p) for p in untraced])}
    sections["end_to_end"]["failed_frac"] = stats([failed / attempted])
    traced = [p for p in passes if "layers" in p]
    if args.trace:
        sections["per_layer"] = summarize([per_layer(p) for p in traced])
        # traced passes sample no speed: compare raw trial phases
        overhead = (statistics.median(p["solve_s"] for p in traced)
                    / statistics.median(p["solve_net_s"] for p in untraced) - 1.0)
        sections["per_layer"]["trace.overhead_frac"] = stats([overhead])
    for rows in sections.values():
        for name, row in rows.items():
            row["unit"] = units.get(name) or unit_of(name)
            row["value"] = headline(row, row["unit"])
    for name, seconds in reference_times(untraced, probes).items():
        sections["end_to_end"][name]["value"] = seconds
    figures = sections["per_layer" if args.trace else "end_to_end"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]]["value"] if m["name"] in figures else 0.0,
                           "unit": m["unit"]} for m in declared}

    record = {
        "machine": {"git_sha": git_sha(), "python": platform.python_version(),
                    "numpy": passes[0]["numpy"], "nproc": os.cpu_count(), "cpu": cpu_model()},
        "workload": {"name": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace, "params": workloads.PARAMS[args.workload],
                     "reference_checked": reference is not None},
        "passes": len(passes),
        "attempted": attempted, "failed": failed, "correct": correct, "problems": problems,
        **sections,
    }
    os.makedirs(os.path.join(".perfbench", "results"), exist_ok=True)
    record_path = os.path.join(".perfbench", "results",
                               f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"reference={'checked' if reference is not None else 'none recorded'}")
    for section, rows in sections.items():
        print(f" {section} (value; raw min, raw median over "
              f"{len(untraced) if section == 'end_to_end' else len(traced)} passes)")
        for name, row in rows.items():
            print(f"  {name:34s} {row['value']:>14.6g} {row['unit']:6s}"
                  f" ({row['min']:.6g}, {row['median']:.6g})")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    print(f"record: {record_path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
