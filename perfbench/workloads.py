"""The benchmark's three workloads, and the correctness gate their trials pass.

Each workload builds its instances from the workload seed only, runs a fixed
list of trials back to back (one client, one thread), and then checks every
trial.  ``submax`` is imported inside the methods: :mod:`one_pass` puts the
checkout's ``src/`` on the path first.

Why these three (see README.md for the layer predictions):

- ``recsys-csv`` is the only workload that runs the ``cli`` layer: the
  recommendation sweep of the README, through ``submax.cli.main(["bench", ...])``
  on similarity and genre CSV files.
- ``scale-synth`` is objective evaluation at n=2000 under a uniform matroid,
  whose membership check is O(1): the CLI and constraints do almost nothing.
  Greedy grows small sets while double greedy evaluates near-full ones.
- ``ksystem-modular`` pairs a cheap modular objective with costly membership
  checks (the hardness gadget, partition intersections), both incremental
  (greedy) and exhaustive (verifiers, brute force).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

PARAMS = {
    "recsys-csv": {
        "n": 500, "density": 0.5, "lam": 0.5, "genres": 8,
        "favorites": ["action", "comedy", "drama", "horror"], "m": 30, "sweep": "mg=3:7",
        "algorithms": ["greedy", "lazy-greedy", "sample-greedy", "repeated-greedy"],
        "trials": 6, "jobs": 1,
    },
    "scale-synth": {
        "coverage_dispersion": {"n": 2000, "density": 0.5, "lam": 0.5, "uniform_m": 60,
                                "sample_trials": 2},
        "weighted_coverage": {"n": 2000, "density": 0.01, "uniform_m": 60, "sample_trials": 2,
                              "repeated_ell": 2},
        "cut": {"n": 300, "density": 0.5, "double_greedy_rand_trials": 2},
    },
    "ksystem-modular": {
        "n": 720, "hard": {"k": 3, "h": 12, "m": 20},
        "partitions": {"count": 3, "blocks": 16, "capacity": 2},
        "sample_trials": 4,
        "exact": {"n": 16, "partitions": {"count": 3, "blocks": 4, "capacity": 2},
                  "instrumented_trials": 8, "truncation": 11, "hard": {"k": 2, "h": 8, "m": 4}},
    },
}

GENRE_NAMES = ["action", "comedy", "drama", "horror", "romance", "scifi", "thriller", "western"]
CLI_ALGS = {"greedy": "greedy", "lazy-greedy": "lazy_greedy", "sample-greedy": "sample_greedy",
            "repeated-greedy": "repeated_greedy"}


def subseed(seed: int, label: str) -> int:
    """A 32-bit seed derived from the workload seed and a label."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{label}".encode()).digest()[:4], "big")


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def result_digest(res) -> str:
    """Digest of a SolveResult's output: solution, exact value and counts."""
    return digest({
        "solution": list(res.solution.members), "value": float(res.value).hex(),
        "f_evals": res.f_evals, "marginal_evals": res.marginal_evals,
        "independence_checks": res.independence_checks,
    })


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write the CSV inputs of ``recsys-csv`` (other workloads have none).

    The similarity matrix is symmetric with a zero diagonal and dyadic
    entries k/8, so every objective value is exact in floating point.  Each
    element has one or two of the eight genres."""
    if workload != "recsys-csv":
        return
    import numpy as np

    p = PARAMS[workload]
    n = p["n"]
    gen = np.random.Generator(np.random.PCG64(subseed(seed, "recsys-inputs")))
    present = np.triu(gen.random((n, n)) < p["density"], 1)
    sim = np.where(present, gen.integers(1, 64, size=(n, n)) / 8.0, 0.0)
    sim = sim + sim.T
    with open(os.path.join(workdir, "similarity.csv"), "w") as fh:
        fh.write(",".join(f"item{i}" for i in range(n)) + "\n")
        for row in sim:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    # Every genre leads the same number of elements; half of the elements
    # get a second genre from the other half of the genre list.  So no
    # element carries two favourites, every greedy pick uses one quota, and
    # the amount of work varies little from seed to seed.
    fav = [GENRE_NAMES.index(g) for g in p["favorites"]]
    other = [g for g in range(p["genres"]) if g not in fav]
    lead = gen.permutation(n) % p["genres"]
    second = gen.permutation(n) < n // 2
    with open(os.path.join(workdir, "genres.csv"), "w") as fh:
        fh.write("element_id,genres\n")
        for e in range(n):
            picks = {int(lead[e])}
            if second[e]:
                picks.add(int(gen.choice(other if lead[e] in fav else fav)))
            fh.write(f"{e},{';'.join(GENRE_NAMES[g] for g in sorted(picks))}\n")


class Workload:
    """Trial bookkeeping shared by the three workloads.

    ``trials`` maps a trial id to its output digest, ``failures`` maps a
    trial id to the first check it failed, ``trial_span`` and ``trial_alg``
    give each trial's call interval (``perf_counter`` seconds) and algorithm
    label, and ``counts`` sums the SolveResult counters.  ``speed`` is the
    pass's :class:`speed.SpeedSampler`, or None in a traced pass."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.trials: dict[str, str | None] = {}
        self.failures: dict[str, str] = {}
        self.trial_span: dict[str, tuple[float, float]] = {}
        self.trial_alg: dict[str, str] = {}
        self.speed = None
        self.counts = {"marginal_evals": 0, "f_evals": 0, "independence_checks": 0}
        self.outputs: dict[str, object] = {}

    def run(self, trial_id: str, alg: str, fn, *args, **kwargs):
        """Time one call of a public algorithm; a raise fails the trial."""
        self.trials[trial_id] = None
        if self.speed:
            self.speed.mark()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a raising trial is a failed trial, not a crash
            self.failures[trial_id] = f"raised {type(exc).__name__}: {exc}"
            return None
        finally:
            self.trial_span[trial_id] = (t0, time.perf_counter())
            self.trial_alg[trial_id] = alg
        self.outputs[trial_id] = out
        return out

    def fail(self, trial_id: str, reason: str) -> None:
        self.failures.setdefault(trial_id, reason)

    def add_counts(self, res) -> None:
        self.counts["marginal_evals"] += res.marginal_evals
        self.counts["f_evals"] += res.f_evals
        self.counts["independence_checks"] += res.independence_checks

    def check_result(self, trial_id: str, res, objective, fresh_constraint) -> None:
        """Gate one SolveResult: independent under a freshly built oracle and
        its value equal to a fresh evaluation, exactly."""
        if fresh_constraint is not None and not fresh_constraint.is_independent(res.solution):
            self.fail(trial_id, "solution is not independent")
        fresh = objective.evaluate(res.solution)
        if fresh != res.value:
            self.fail(trial_id, f"value {res.value!r} != fresh evaluation {fresh!r}")
        self.add_counts(res)
        self.trials[trial_id] = result_digest(res)

    def check_same(self, a: str, b: str) -> None:
        """Lazy greedy must return plain greedy's solution and value."""
        ra, rb = self.outputs.get(a), self.outputs.get(b)
        if ra is None or rb is None:
            return
        ra = ra[0] if isinstance(ra, tuple) else ra
        rb = rb[0] if isinstance(rb, tuple) else rb
        if ra.solution != rb.solution or ra.value != rb.value:
            self.fail(b, f"differs from {a}")


class RecsysCsv(Workload):
    """The README's recommendation sweep, end to end through the CLI."""

    def setup(self) -> None:
        pass  # the CLI builds its instances inside each trial

    def argv(self) -> list[str]:
        p = PARAMS["recsys-csv"]
        return [
            "bench",
            "--similarity", os.path.join(self.workdir, "similarity.csv"),
            "--genres", os.path.join(self.workdir, "genres.csv"),
            "--lam", str(p["lam"]),
            "--constraint", f"genre:m={p['m']},mg=3,g={'+'.join(p['favorites'])}",
            "--alg", ",".join(p["algorithms"]),
            "--sweep", p["sweep"],
            "--trials", str(p["trials"]),
            "--seed", str(subseed(self.seed, "recsys-bench")),
            "--jobs", str(p["jobs"]),
            "--out", os.path.join(self.workdir, "bench"),
        ]

    def solve(self) -> None:
        from submax import cli

        inner = cli.run_one_trial

        def timed_trial(cfg, sweep, alg, trial_index):
            tid = f"jsonl:{len(self.trial_span)}"
            if self.speed:
                self.speed.mark()
            t0 = time.perf_counter()
            try:
                return inner(cfg, sweep, alg, trial_index)
            finally:
                self.trial_span[tid] = (t0, time.perf_counter())
                self.trial_alg[tid] = CLI_ALGS[alg]

        cli.run_one_trial = timed_trial
        try:
            self.exit_code = cli.main(self.argv())
        except Exception as exc:  # checked with the trials below
            self.exit_code = f"raised {type(exc).__name__}: {exc}"
        finally:
            cli.run_one_trial = inner

    def tasks(self) -> list[tuple[int, str]]:
        """(sweep value, algorithm) of each JSONL line, in the CLI's order."""
        p = PARAMS["recsys-csv"]
        lo, hi = (int(x) for x in p["sweep"].split("=")[1].split(":"))
        out = []
        for point in range(lo, hi + 1):
            for alg in p["algorithms"]:
                out += [(point, alg)] * (p["trials"] if alg == "sample-greedy" else 1)
        return out

    def check(self) -> None:
        from submax.constraints import GenreConstraint, load_genres_csv
        from submax.core import GroundSet
        from submax.objectives import CoverageDispersionObjective, load_similarity_csv

        p = PARAMS["recsys-csv"]
        tasks = self.tasks()
        for i in range(len(tasks)):
            self.trials[f"jsonl:{i}"] = None
        path = os.path.join(self.workdir, "bench.jsonl")
        if self.exit_code != 0 or not os.path.exists(path):
            for i in range(len(tasks)):
                self.fail(f"jsonl:{i}", f"bench exited with {self.exit_code}")
            return
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        if lines[-1] == b"":
            lines.pop()
        mat, _labels = load_similarity_csv(os.path.join(self.workdir, "similarity.csv"))
        genre_of = load_genres_csv(os.path.join(self.workdir, "genres.csv"))
        ground = GroundSet(mat.shape[0])
        universe = [e for e, gs in genre_of.items() if gs & set(p["favorites"])]
        objective = CoverageDispersionObjective(ground, mat, lam=p["lam"], universe_u=universe)
        greedy_at: dict[int, tuple] = {}
        for i, (point, alg) in enumerate(tasks):
            tid = f"jsonl:{i}"
            if i >= len(lines):
                self.fail(tid, "missing JSONL line")
                continue
            self.trials[tid] = hashlib.sha256(lines[i]).hexdigest()[:16]
            rep = json.loads(lines[i])
            for key in self.counts:
                self.counts[key] += rep[key]
            solution = ground.set(rep["solution"])
            if rep["algorithm"] != alg:
                self.fail(tid, f"line holds {rep['algorithm']}, expected {alg}")
            fresh = GenreConstraint(ground, genre_of, p["favorites"], m=p["m"], m_g=point)
            if not fresh.is_independent(solution):
                self.fail(tid, "solution is not independent")
            value = objective.evaluate(solution)
            if value != rep["value"]:
                self.fail(tid, f"value {rep['value']!r} != fresh evaluation {value!r}")
            if alg == "greedy":
                greedy_at[point] = (rep["solution"], rep["value"])
            elif alg == "lazy-greedy" and greedy_at.get(point) != (rep["solution"], rep["value"]):
                self.fail(tid, "lazy-greedy differs from greedy")
        if len(lines) > len(tasks):
            self.trials["jsonl:extra"] = None
            self.fail("jsonl:extra", f"{len(lines) - len(tasks)} unexpected JSONL lines")


class ScaleSynth(Workload):
    """Library calls on large synthetic instances under a uniform matroid."""

    def setup(self) -> None:
        from submax import UniformMatroid, objectives

        p = PARAMS["scale-synth"]
        self.instances = {}
        for kind in ("coverage_dispersion", "weighted_coverage", "cut"):
            q = p[kind]
            spec = objectives.SyntheticSpec(
                kind=kind, n=q["n"], seed=subseed(self.seed, kind), density=q["density"],
                lam=q.get("lam", 0.5))
            oracle, ground = objectives.generate(spec)
            constraint = UniformMatroid(ground, q["uniform_m"]) if "uniform_m" in q else None
            self.instances[kind] = (oracle.objective, ground, constraint)

    def solve(self) -> None:
        from submax import Rng, algorithms as A

        p = PARAMS["scale-synth"]
        obj, ground, U = self.instances["coverage_dispersion"]
        q = p["coverage_dispersion"]
        self.run("cd/greedy", "greedy", A.greedy, obj.oracle(), U)
        self.run("cd/lazy_greedy", "lazy_greedy", A.greedy, obj.oracle(), U, lazy=True)
        for i in range(q["sample_trials"]):
            self.run(f"cd/sample_greedy#{i}", "sample_greedy", A.sample_greedy, obj.oracle(), U,
                     rng=Rng(subseed(self.seed, "cd-sample"), i))
        obj, ground, U = self.instances["weighted_coverage"]
        q = p["weighted_coverage"]
        self.run("wc/lazy_greedy", "lazy_greedy", A.greedy, obj.oracle(), U, lazy=True)
        for i in range(q["sample_trials"]):
            self.run(f"wc/sample_greedy#{i}", "sample_greedy", A.sample_greedy, obj.oracle(), U,
                     rng=Rng(subseed(self.seed, "wc-sample"), i), lazy=True)
        self.run("wc/repeated_greedy", "repeated_greedy", A.repeated_greedy, obj.oracle(), U,
                 ell=q["repeated_ell"], lazy=True)
        obj, ground, _ = self.instances["cut"]
        self.run("cut/double_greedy_det", "double_greedy", A.unconstrained_max_det,
                 obj.oracle(), ground.full())
        for i in range(p["cut"]["double_greedy_rand_trials"]):
            self.run(f"cut/double_greedy_rand#{i}", "double_greedy", A.unconstrained_max_rand,
                     obj.oracle(), ground.full(), Rng(subseed(self.seed, "cut-rand"), i))

    def check(self) -> None:
        from submax import UniformMatroid

        prefixes = {"cd/": "coverage_dispersion", "wc/": "weighted_coverage", "cut/": "cut"}
        for tid, out in self.outputs.items():
            kind = next(k for pre, k in prefixes.items() if tid.startswith(pre))
            obj, ground, U = self.instances[kind]
            fresh = UniformMatroid(ground, U.m) if U is not None else None
            self.check_result(tid, out[0] if isinstance(out, tuple) else out, obj, fresh)
        self.check_same("cd/greedy", "cd/lazy_greedy")


def partition_intersection(ground, seed: int, count: int, blocks: int, capacity: int):
    """``count`` seeded partition matroids with equal blocks and capacities."""
    from submax import IntersectionSystem, PartitionMatroid, Rng

    gen = Rng(seed, 0).generator
    parts = []
    for j in range(count):
        assignment = gen.integers(0, blocks, size=ground.n)
        parts.append(PartitionMatroid(
            ground,
            {e: f"p{j}b{int(b)}" for e, b in enumerate(assignment)},
            {f"p{j}b{b}": capacity for b in range(blocks)},
        ))
    return IntersectionSystem(parts)


class KSystemModular(Workload):
    """A cheap modular objective under constraints with costly membership checks."""

    def constraints(self) -> dict:
        """Fresh constraint oracles, built from the seed alone."""
        from submax import HardInstance

        p = PARAMS["ksystem-modular"]
        h = p["hard"]
        e = p["exact"]
        return {
            "hard-M": HardInstance(h["k"], h["h"], h["m"], "M"),
            "hard-M'": HardInstance(h["k"], h["h"], h["m"], "M'"),
            "partitions": partition_intersection(
                self.ground, subseed(self.seed, "partitions"), **p["partitions"]),
            "exact-partitions": partition_intersection(
                self.small_ground, subseed(self.seed, "exact-partitions"), **e["partitions"]),
            "exact-hard": HardInstance(e["hard"]["k"], e["hard"]["h"], e["hard"]["m"], "M"),
        }

    def setup(self) -> None:
        from submax import objectives

        p = PARAMS["ksystem-modular"]
        oracle, self.ground = objectives.generate(objectives.SyntheticSpec(
            kind="modular", n=p["n"], seed=subseed(self.seed, "weights"), tie_free=True))
        self.objective = oracle.objective
        oracle, self.small_ground = objectives.generate(objectives.SyntheticSpec(
            kind="modular", n=p["exact"]["n"], seed=subseed(self.seed, "exact-weights"),
            tie_free=True))
        self.small_objective = oracle.objective
        self.oracles = self.constraints()

    def solve(self) -> None:
        from submax import Rng, algorithms as A, constraints as C

        p = PARAMS["ksystem-modular"]
        f = self.objective
        for name in ("hard-M", "hard-M'", "partitions"):
            I = self.oracles[name]
            self.run(f"{name}/greedy", "greedy", A.greedy, f.oracle(), I)
            self.run(f"{name}/lazy_greedy", "lazy_greedy", A.greedy, f.oracle(), I, lazy=True)
            for i in range(p["sample_trials"]):
                self.run(f"{name}/sample_greedy#{i}", "sample_greedy", A.sample_greedy,
                         f.oracle(), I, rng=Rng(subseed(self.seed, f"{name}-sample"), i))
                self.run(f"{name}/sample_greedy_linear#{i}", "sample_greedy_linear",
                         A.sample_greedy_linear, f.oracle(), I,
                         rng=Rng(subseed(self.seed, f"{name}-linear"), i))
            self.run(f"{name}/repeated_greedy", "repeated_greedy", A.repeated_greedy, f.oracle(), I)

        e = p["exact"]
        I = self.oracles["exact-partitions"]
        opt = self.run("exact/brute_force_opt", "exact", A.brute_force_opt,
                       self.small_objective.oracle(), I)
        for i in range(e["instrumented_trials"]):
            tid = f"exact/instrumented_sample_greedy#{i}"
            if opt is None:
                self.trials[tid] = None
                self.fail(tid, "no optimum to track")
                continue
            self.run(tid, "exact", A.instrumented_sample_greedy, self.small_objective.oracle(), I,
                     opt.solution, rng=Rng(subseed(self.seed, "instrumented"), i))
        elems = list(range(e["truncation"]))
        for name in ("exact-partitions", "exact-hard"):
            I = self.oracles[name]
            self.run(f"{name}/verify_downward_closed", "exact", C.verify_downward_closed, I, elems)
            self.run(f"{name}/verify_k_system", "exact", C.verify_k_system, I, elems)
            self.run(f"{name}/verify_k_extendible", "exact", C.verify_k_extendible, I, elems, I.k)

    def check(self) -> None:
        fresh = self.constraints()
        opt = self.outputs.get("exact/brute_force_opt")
        for tid, out in self.outputs.items():
            name, _, call = tid.partition("/")
            if call.startswith("verify_"):
                ok = out <= fresh[name].k + 1e-9 if call == "verify_k_system" else out is True
                if not ok:
                    self.fail(tid, f"{call} returned {out!r} for declared k={fresh[name].k}")
                self.trials[tid] = digest(repr(out))
                continue
            res = out[0] if isinstance(out, tuple) else out
            objective = self.small_objective if name.startswith("exact") else self.objective
            self.check_result(tid, res, objective, fresh[name if name != "exact" else "exact-partitions"])
            if call.startswith("instrumented") and opt is not None and res.value > opt.value:
                self.fail(tid, f"value {res.value!r} exceeds the optimum {opt.value!r}")
        for name in ("hard-M", "hard-M'", "partitions"):
            self.check_same(f"{name}/greedy", f"{name}/lazy_greedy")


WORKLOADS = {"recsys-csv": RecsysCsv, "scale-synth": ScaleSynth, "ksystem-modular": KSystemModular}
