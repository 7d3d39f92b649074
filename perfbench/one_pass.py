"""One pass of a workload in a fresh interpreter.

    python3 perfbench/one_pass.py '{"workload": "scale-synth", "seed": 1,
                                    "workdir": ".perfbench/scale-synth-s1", "trace": 0}'

Run from the root of a checkout.  A fresh process per pass makes import and
the CLI's ``lru_cache``s start cold, as they do for a user.  The pass times
``import submax.cli`` and instance construction (set-up), then the trials
(solve), then gates every trial with tracing off, and prints one JSON object.
An untraced pass samples the machine's speed throughout (:mod:`speed`) and
also reports each time at the reference speed (``*_ref_s``).
With ``"setup_only": 1`` it stops after set-up.
With ``"trace": 1`` it records spans instead, writes them to
``<workdir>/trace-<pass>.json`` and adds the per-layer totals.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter, perf_counter_ns

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402


def main() -> int:
    cfg = json.loads(sys.argv[1])
    speed = None if cfg["trace"] else SpeedSampler()
    if speed:
        speed.start()
        speed.mark()
    t0, t0_ns = perf_counter(), perf_counter_ns()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import submax.cli  # noqa: F401  (timed: numpy and every submax module)

    t_import_ns = perf_counter_ns()
    rec = None
    if cfg["trace"]:
        rec = spans.Recorder()
        setup_span = rec.open("setup", start_ns=t0_ns)
        rec.record("cli.import", t0_ns, t_import_ns)
        spans.install(rec)
    wl = workloads.WORKLOADS[cfg["workload"]](cfg["seed"], cfg["workdir"])
    wl.speed = speed
    wl.setup()
    t_setup = perf_counter()
    if rec:
        rec.close(setup_span)
    out = {"setup_s": t_setup - t0}
    if speed:
        speed.mark()
        out["setup_ref_s"] = speed.at_reference_speed(t0, t_setup)
    if cfg.get("setup_only"):
        speed.stop()
        print(json.dumps(out))
        return 0

    if rec:
        solve_span = rec.open("solve")
    t_solve = perf_counter()
    wl.solve()
    t_end = perf_counter()
    if rec:
        rec.close(solve_span)
        rec.enabled = False
    out["solve_s"] = t_end - t_solve
    out["trial_s"] = {tid: b - a for tid, (a, b) in wl.trial_span.items()}
    if speed:
        speed.mark()
        speed.stop()
        out["solve_net_s"] = out["solve_s"] - speed.calibration_inside(t_solve, t_end)
        out["solve_ref_s"] = speed.at_reference_speed(t_solve, t_end)
        out["trial_ref_s"] = {tid: speed.at_reference_speed(a, b)
                              for tid, (a, b) in wl.trial_span.items()}
    wl.check()

    import numpy

    out.update({
        "trial_alg": wl.trial_alg,
        "counts": wl.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trials": wl.trials,
        "failures": wl.failures,
        "numpy": numpy.__version__,
    })
    if rec:
        out["layers"] = spans.layer_metrics(rec)
        rec.dump(os.path.join(cfg["workdir"], f"trace-{cfg.get('pass', 0)}.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
