"""Command-line interface: ``solve`` one instance, ``bench`` a sweep, ``verify`` properties.

Exit codes: 0 success; 1 verification failures; 2 configuration/capacity
errors; 3 oracle violations (negative values, broken run-time properties).

Reproducibility contract: a ``bench`` run is a pure function of its
configuration — trial i of any randomized algorithm reads stream i of the
master seed, trial lines are written in a fixed order, and timing is kept
out of the JSONL (wall_ms is null there; the CSV summary carries mean wall
time as the one column not recomputable from the JSONL).  Rerunning the same
config therefore reproduces the JSONL byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
import time
from typing import Iterable, Optional, Sequence

import numpy as np

from .algorithms import (
    brute_force_opt,
    default_rounds,
    greedy,
    repeated_greedy,
    sample_greedy,
    sample_greedy_linear,
    unconstrained_max_det,
    unconstrained_max_rand,
)
from .constraints import (
    GenreConstraint,
    IntersectionSystem,
    PartitionMatroid,
    UniformMatroid,
    load_genres_csv,
    max_feasible_size,
    verify_downward_closed,
    verify_k_extendible,
    verify_k_system,
)
from .core import (
    CapacityError,
    GroundSet,
    NonNegativityError,
    PropertyViolation,
    Rng,
    ValueOracle,
)
from .hardness import (
    MODE_M,
    MODE_M_PRIME,
    HardInstance,
    gadget_g,
    large_witness,
    witness_size,
)
from .objectives import (
    CoverageDispersionObjective,
    ModularObjective,
    SyntheticSpec,
    check_monotone,
    check_submodular,
    generate,
    load_similarity_csv,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_ORACLE = 3

ALGORITHMS = (
    "greedy",
    "lazy-greedy",
    "repeated-greedy",
    "sample-greedy",
    "sample-greedy-linear",
    "double-greedy",
    "brute-force",
)

REPORT_FIELDS = (
    "algorithm",
    "config_hash",
    "ell",
    "f_evals",
    "independence_checks",
    "k",
    "marginal_evals",
    "n",
    "r",
    "seed",
    "solution",
    "trial_index",
    "value",
    "wall_ms",
)


class ConfigError(Exception):
    """A problem with flags, specs, or input files."""


def _is_randomized(alg: str, subroutine: str) -> bool:
    if alg in ("sample-greedy", "sample-greedy-linear"):
        return True
    if alg in ("repeated-greedy", "double-greedy"):
        return subroutine == "rand"
    return False


# ---------------------------------------------------------------------------
# Spec-string parsing
# ---------------------------------------------------------------------------


def _parse_kv(body: str, what: str) -> dict:
    out = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"{what}: expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def parse_constraint_spec(s: str) -> dict:
    """``uniform:M`` | ``partition:FILE`` | ``genre:m=..,mg=..,g=a+b`` |
    ``hard:k=..,h=..,m=..,mode=M|M'`` -> normalized dict."""
    if ":" not in s:
        raise ConfigError(f"constraint spec needs 'kind:...', got {s!r}")
    kind, body = s.split(":", 1)
    kind = kind.strip()
    if kind == "uniform":
        try:
            return {"kind": "uniform", "m": int(body)}
        except ValueError:
            raise ConfigError(f"uniform constraint needs an integer rank, got {body!r}") from None
    if kind == "partition":
        if not body:
            raise ConfigError("partition constraint needs a CSV path: partition:FILE")
        return {"kind": "partition", "file": body}
    if kind == "genre":
        kv = _parse_kv(body, "genre constraint")
        missing = {"m", "mg", "g"} - kv.keys()
        if missing:
            raise ConfigError(f"genre constraint missing {sorted(missing)} in {s!r}")
        genres = [g for g in kv["g"].split("+") if g]
        if not genres:
            raise ConfigError("genre constraint needs at least one genre in g=a+b+c")
        return {"kind": "genre", "m": int(kv["m"]), "mg": int(kv["mg"]), "g": genres}
    if kind == "hard":
        kv = _parse_kv(body, "hard constraint")
        missing = {"k", "h", "m", "mode"} - kv.keys()
        if missing:
            raise ConfigError(f"hard constraint missing {sorted(missing)} in {s!r}")
        mode = kv["mode"]
        if mode not in (MODE_M, MODE_M_PRIME):
            raise ConfigError(f"hard mode must be M or M', got {mode!r}")
        return {"kind": "hard", "k": int(kv["k"]), "h": int(kv["h"]), "m": int(kv["m"]),
                "mode": mode}
    raise ConfigError(f"unknown constraint kind {kind!r} in {s!r}")


def parse_instance_spec(s: str) -> dict:
    """``synth:kind=..,n=..,seed=..[,density=..][,lam=..][,tie_free=0|1]`` or a
    modular-weights CSV path."""
    if s.startswith("synth:"):
        kv = _parse_kv(s[len("synth:"):], "synthetic instance")
        missing = {"kind", "n", "seed"} - kv.keys()
        if missing:
            raise ConfigError(f"synthetic instance missing {sorted(missing)} in {s!r}")
        return {
            "source": "synth",
            "kind": kv["kind"],
            "n": int(kv["n"]),
            "seed": int(kv["seed"]),
            "density": float(kv.get("density", 0.5)),
            "lam": float(kv.get("lam", 0.5)),
            "tie_free": kv.get("tie_free", "0") not in ("0", "false", "no"),
        }
    return {"source": "modular_csv", "file": s}


def parse_genres_spec(s: str) -> dict:
    """``synth:count=G,seed=S[,maxper=P]`` or a genres CSV path."""
    if s.startswith("synth:"):
        kv = _parse_kv(s[len("synth:"):], "synthetic genres")
        missing = {"count", "seed"} - kv.keys()
        if missing:
            raise ConfigError(f"synthetic genres missing {sorted(missing)} in {s!r}")
        return {"source": "synth", "count": int(kv["count"]), "seed": int(kv["seed"]),
                "maxper": int(kv.get("maxper", 2))}
    return {"source": "csv", "file": s}


def parse_sweep_spec(s: str) -> tuple[str, int, int]:
    """``param=LO:HI`` (inclusive int range); param is ``m`` or ``mg``."""
    if "=" not in s:
        raise ConfigError(f"sweep spec must look like mg=1:9, got {s!r}")
    param, rng = s.split("=", 1)
    param = param.strip()
    if param not in ("m", "mg"):
        raise ConfigError(f"sweep parameter must be 'm' or 'mg', got {param!r}")
    if ":" not in rng:
        raise ConfigError(f"sweep range must be LO:HI, got {rng!r}")
    lo_s, hi_s = rng.split(":", 1)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ConfigError(f"sweep bounds must be integers, got {rng!r}") from None
    if lo > hi:
        raise ConfigError(f"sweep range is empty: {lo} > {hi}")
    return param, lo, hi


# ---------------------------------------------------------------------------
# Instance construction (cached where read-only, fresh counters per trial)
# ---------------------------------------------------------------------------


def _check_ids(path: str, ids: Iterable[int], n: Optional[int] = None) -> None:
    """The id-range rule of every loader: element ids are dense, ``0 <= id``,
    and ``id < n`` when the ground set is sized elsewhere."""
    bad = sorted(e for e in ids if e < 0 or (n is not None and e >= n))
    if bad:
        upper = f" and < {n}" if n is not None else ""
        raise ConfigError(f"{path}: element ids must be >= 0{upper}; got {bad[:5]}")


def _load_modular_csv(path: str) -> tuple[GroundSet, list[float]]:
    weights: dict[int, float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "element_id" not in reader.fieldnames \
                or "weight" not in reader.fieldnames:
            raise ConfigError(f"{path}: expected header 'element_id,weight'")
        for row in reader:
            weights[int(row["element_id"])] = float(row["weight"])
    if not weights:
        raise ConfigError(f"{path}: no weight rows")
    _check_ids(path, weights)
    n = max(weights) + 1
    return GroundSet(n), [weights.get(e, 0.0) for e in range(n)]


def _load_partition_csv(path: str, n: int) -> tuple[dict[int, str], dict[str, int]]:
    block_of: dict[int, str] = {}
    capacities: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"element_id", "block_id", "capacity"}
        if reader.fieldnames is None or not need <= set(reader.fieldnames):
            raise ConfigError(f"{path}: expected header 'element_id,block_id,capacity'")
        for row in reader:
            e = int(row["element_id"])
            b = row["block_id"].strip()
            cap = int(row["capacity"])
            block_of[e] = b
            if b in capacities and capacities[b] != cap:
                raise ConfigError(f"{path}: block {b!r} has conflicting capacities")
            capacities[b] = cap
    if not block_of:
        raise ConfigError(f"{path}: no partition rows")
    _check_ids(path, block_of, n)
    return block_of, capacities


@functools.lru_cache(maxsize=32)
def _similarity_cache(path: str) -> np.ndarray:
    """The similarity matrix of a CSV, read once per process and shared read-only."""
    mat, _labels = load_similarity_csv(path)
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=32)
def _objective_cache(instance_key: str, similarity: Optional[str], lam: float,
                     universe_key: Optional[tuple]) :
    """Build the (stateless, read-only) objective for a config key."""
    if similarity is not None:
        mat = _similarity_cache(similarity)
        ground = GroundSet(mat.shape[0])
        return CoverageDispersionObjective(ground, mat, lam=lam, universe_u=universe_key), ground
    inst = json.loads(instance_key)
    if inst["source"] == "modular_csv":
        ground, weights = _load_modular_csv(inst["file"])
        return ModularObjective(ground, weights), ground
    spec = SyntheticSpec(
        kind=inst["kind"], n=inst["n"], seed=inst["seed"],
        density=inst["density"], lam=inst["lam"], tie_free=inst["tie_free"],
    )
    oracle, ground = generate(spec)
    obj = oracle.objective
    if universe_key is not None and isinstance(obj, CoverageDispersionObjective):
        obj = CoverageDispersionObjective(ground, obj.similarity, lam=obj.lam,
                                          universe_u=universe_key)
    return obj, ground


@functools.lru_cache(maxsize=32)
def _genres_cache(genres_key: str, n: int) -> dict:
    g = json.loads(genres_key)
    if g["source"] == "csv":
        return load_genres_csv(g["file"])
    gen = Rng(g["seed"], 0).generator
    labels = [f"g{i}" for i in range(g["count"])]
    out = {}
    for e in range(n):
        cnt = int(gen.integers(1, g["maxper"] + 1))
        picks = gen.choice(g["count"], size=min(cnt, g["count"]), replace=False)
        out[e] = frozenset(labels[int(i)] for i in picks)
    return out


def _build_constraint(cfg: dict, ground: GroundSet, sweep: Optional[tuple[str, int]]):
    spec = dict(cfg["constraint"])
    if sweep is not None:
        param, value = sweep
        if spec["kind"] == "uniform" and param == "m":
            spec["m"] = value
        elif spec["kind"] == "genre" and param in ("m", "mg"):
            spec[param] = value
        elif spec["kind"] == "hard" and param == "m":
            spec["m"] = value
        else:
            raise ConfigError(
                f"sweep parameter {param!r} does not apply to constraint kind {spec['kind']!r}"
            )
    kind = spec["kind"]
    if kind == "uniform":
        oracle = UniformMatroid(ground, spec["m"])
    elif kind == "partition":
        block_of, capacities = _load_partition_csv(spec["file"], ground.n)
        oracle = PartitionMatroid(ground, block_of, capacities)
    elif kind == "genre":
        if cfg.get("genres") is None:
            raise ConfigError("genre constraint requires --genres (CSV or synth spec)")
        genre_of = _genres_cache(json.dumps(cfg["genres"], sort_keys=True), ground.n)
        oracle = GenreConstraint(ground, genre_of, spec["g"], m=spec["m"], m_g=spec["mg"])
    elif kind == "hard":
        oracle = HardInstance(spec["k"], spec["h"], spec["m"], spec["mode"])
        if oracle.ground.n != ground.n:
            raise ConfigError(
                f"hard constraint universe has n={oracle.ground.n} but the objective "
                f"has n={ground.n}; size the instance to h*k*m"
            )
    else:  # pragma: no cover - parse_constraint_spec guards this
        raise ConfigError(f"unknown constraint kind {kind!r}")
    if cfg.get("k_override") is not None:
        oracle.k = int(cfg["k_override"])
    return oracle


def _build_objective(cfg: dict):
    """Fresh counted oracle over the cached read-only objective."""
    universe_key = None
    if cfg["constraint"] is not None and cfg["constraint"]["kind"] == "genre":
        # coverage objectives follow the genre-restricted universe
        if cfg.get("similarity") is not None or (
            cfg["instance"] is not None
            and cfg["instance"]["source"] == "synth"
            and cfg["instance"]["kind"] == "coverage_dispersion"
        ):
            if cfg["instance"] is not None and cfg["instance"]["source"] == "synth":
                n = cfg["instance"]["n"]
            else:
                n = _similarity_cache(cfg["similarity"]).shape[0]
            genre_of = _genres_cache(json.dumps(cfg["genres"], sort_keys=True), n)
            fav = set(cfg["constraint"]["g"])  # a sweep of m or mg never moves it
            universe_key = tuple(sorted(e for e, gs in genre_of.items() if gs & fav))
    instance_key = json.dumps(cfg["instance"], sort_keys=True) if cfg["instance"] else "null"
    obj, ground = _objective_cache(instance_key, cfg.get("similarity"),
                                   cfg.get("lam", 0.5), universe_key)
    return obj.oracle(), ground, obj


def config_hash(cfg: dict) -> str:
    semantic = {k: v for k, v in cfg.items() if k not in ("out", "jobs")}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Running trials
# ---------------------------------------------------------------------------


def run_one_trial(cfg: dict, sweep: Optional[tuple[str, int]], alg: str, trial_index: int) -> dict:
    """Build a fresh instance and run one algorithm trial; returns the report
    dict (with real wall_ms; bench mode nulls it before writing)."""
    f, ground, obj = _build_objective(cfg)
    constraint = None
    if cfg["constraint"] is not None:
        constraint = _build_constraint(cfg, ground, sweep)
    if constraint is None and alg != "double-greedy":
        raise ConfigError(f"algorithm {alg!r} requires --constraint")

    rng = None
    subroutine = cfg.get("subroutine", "det")
    if _is_randomized(alg, subroutine):
        if cfg.get("seed") is None:
            raise ConfigError(
                f"algorithm {alg!r}"
                + (f" with subroutine {subroutine!r}" if alg in ("repeated-greedy", "double-greedy") else "")
                + " is randomized and requires --seed"
            )
        rng = Rng(cfg["seed"], trial_index)

    ell_resolved = None
    if alg in ("greedy", "lazy-greedy"):
        res, _trace = greedy(f, constraint, ground, lazy=(alg == "lazy-greedy"))
    elif alg == "repeated-greedy":
        ell = cfg.get("ell", "auto")
        ell_resolved = default_rounds(constraint.k) if ell == "auto" else int(ell)
        res = repeated_greedy(f, constraint, ground, ell=ell, subroutine=subroutine, rng=rng,
                              lazy=cfg.get("lazy", False))
    elif alg == "sample-greedy":
        res = sample_greedy(f, constraint, ground, rng=rng, p=cfg.get("p"),
                            lazy=cfg.get("lazy", False))
    elif alg == "sample-greedy-linear":
        res = sample_greedy_linear(f, constraint, ground, rng=rng, lazy=cfg.get("lazy", False))
    elif alg == "double-greedy":
        U = ground.full()
        if isinstance(obj, CoverageDispersionObjective):
            U = obj.universe_u
        if subroutine == "rand":
            res = unconstrained_max_rand(f, U, rng)
        else:
            res = unconstrained_max_det(f, U)
    elif alg == "brute-force":
        res = brute_force_opt(f, constraint, ground)
    else:
        raise ConfigError(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")

    r = None
    k = None
    if constraint is not None:
        k = constraint.k
        r = max_feasible_size(constraint)  # after the run: its counts are already taken
    return {
        "algorithm": alg,
        "config_hash": cfg["hash"],
        "ell": ell_resolved,
        "f_evals": res.f_evals,
        "independence_checks": res.independence_checks,
        "k": k,
        "marginal_evals": res.marginal_evals,
        "n": ground.n,
        "r": r,
        "seed": res.seed,
        "solution": list(res.solution.members),
        "trial_index": trial_index,
        "value": res.value,
        "wall_ms": res.wall_ms,
    }


def _report_line(report: dict) -> str:
    assert set(report) == set(REPORT_FIELDS)
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _bench_task(args: tuple) -> dict:
    cfg, sweep, alg, trial = args
    return run_one_trial(cfg, sweep, alg, trial)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _common_config(args, cmd: str) -> dict:
    if args.instance is None and args.similarity is None and cmd != "verify":
        raise ConfigError("an objective is required: --instance and/or --similarity")
    if args.instance is not None and args.similarity is not None:
        raise ConfigError("--instance and --similarity are mutually exclusive")
    cfg = {
        "cmd": cmd,
        "instance": parse_instance_spec(args.instance) if args.instance else None,
        "similarity": args.similarity,
        "genres": parse_genres_spec(args.genres) if args.genres else None,
        "constraint": parse_constraint_spec(args.constraint) if args.constraint else None,
        "lam": args.lam,
        "k_override": args.k,
        "ell": args.ell,
        "p": args.p,
        "seed": args.seed,
        "subroutine": args.subroutine,
        "lazy": args.lazy,
    }
    if args.ell != "auto":
        try:
            cfg["ell"] = int(args.ell)
        except ValueError:
            raise ConfigError(f"--ell must be an integer or 'auto', got {args.ell!r}") from None
        if cfg["ell"] < 1:
            raise ConfigError(f"--ell must be >= 1, got {cfg['ell']}")
    if args.p is not None and not 0.0 < args.p <= 1.0:
        raise ConfigError(f"--p must lie in (0, 1], got {args.p}")
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
    return cfg


def cmd_solve(args) -> int:
    cfg = _common_config(args, "solve")
    cfg["best_of"] = args.best_of
    if args.best_of < 1:
        raise ConfigError(f"--best-of must be >= 1, got {args.best_of}")
    if args.alg not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {args.alg!r}; choose from {ALGORITHMS}")
    cfg["algs"] = [args.alg]
    cfg["hash"] = config_hash(cfg)

    if args.best_of > 1 and not _is_randomized(args.alg, cfg["subroutine"]):
        raise ConfigError(f"--best-of needs a randomized algorithm; {args.alg!r} is deterministic")

    reports = [run_one_trial(cfg, None, args.alg, t) for t in range(args.best_of)]
    lines = [_report_line(r) for r in reports]
    best = max(reports, key=lambda r: (r["value"], -r["trial_index"]))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(
            f"{best['algorithm']}: value={best['value']} |S|={len(best['solution'])} "
            f"solution={best['solution']}"
        )
        print(
            f"trial={best['trial_index']}/{args.best_of} f_evals={best['f_evals']} "
            f"marginal_evals={best['marginal_evals']} "
            f"independence_checks={best['independence_checks']} "
            f"wall_ms={best['wall_ms']:.3f} report={args.out}"
        )
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _summary_rows(order: list[tuple[int, str]], grouped: dict, walls: dict) -> list[list]:
    rows = []
    for point, alg in order:
        reps = grouped[(point, alg)]
        vals = np.array([r["value"] for r in reps], dtype=float)
        evs = np.array([r["f_evals"] for r in reps], dtype=float)
        ws = walls[(point, alg)]
        rows.append([
            point,
            alg,
            repr(float(vals.mean())),
            repr(float(vals.std(ddof=0))),
            repr(float(evs.mean())),
            f"{float(np.mean(ws)):.3f}",
        ])
    return rows


def cmd_bench(args) -> int:
    cfg = _common_config(args, "bench")
    if args.out is None:
        raise ConfigError("bench requires --out STEM for its report files")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    algs = [a.strip() for a in args.alg.split(",") if a.strip()]
    unknown = [a for a in algs if a not in ALGORITHMS]
    if unknown:
        raise ConfigError(f"unknown algorithms {unknown}; choose from {ALGORITHMS}")
    if not algs:
        raise ConfigError("bench needs at least one algorithm in --alg")
    sweep_param, lo, hi = parse_sweep_spec(args.sweep)
    if cfg["constraint"] is None:
        raise ConfigError("bench requires --constraint (the sweep applies to it)")
    cfg.update({"algs": algs, "sweep": args.sweep, "trials": args.trials})
    cfg["hash"] = config_hash(cfg)
    if any(_is_randomized(a, cfg["subroutine"]) for a in algs) and cfg["seed"] is None:
        raise ConfigError("bench includes a randomized algorithm and requires --seed")

    tasks = []
    for point in range(lo, hi + 1):
        for alg in algs:
            n_trials = args.trials if _is_randomized(alg, cfg["subroutine"]) else 1
            for t in range(n_trials):
                tasks.append((cfg, (sweep_param, point), alg, t))

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_bench_task, tasks, chunksize=1))
    else:
        results = [_bench_task(t) for t in tasks]

    grouped: dict = {}
    walls: dict = {}
    order: list[tuple[int, str]] = []
    lines = []
    for (cfg_, sweep, alg, trial), rep in zip(tasks, results):
        point = sweep[1]
        key = (point, alg)
        if key not in grouped:
            grouped[key] = []
            walls[key] = []
            order.append(key)
        walls[key].append(rep["wall_ms"])
        rep = dict(rep)
        rep["wall_ms"] = None  # timing stays out of the reproducibility artifact
        grouped[key].append(rep)
        lines.append(_report_line(rep))

    jsonl_path = f"{args.out}.jsonl"
    with open(jsonl_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    csv_path = f"{args.out}.summary.csv"
    rows = _summary_rows(order, grouped, walls)
    with open(csv_path, "w") as fh:
        fh.write(f"# config_hash={cfg['hash']}\n")
        fh.write("sweep_value,algorithm,mean_value,std_value,mean_f_evals,mean_wall_ms\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")

    for alg in algs:
        for metric, col in (("value", 2), ("evals", 4)):
            path = f"{args.out}.{alg}.{metric}.dat"
            with open(path, "w") as fh:
                for row in rows:
                    if row[1] == alg:
                        fh.write(f"{row[0]} {row[col]}\n")

    ok, detail = verify_report_pair(jsonl_path, csv_path)
    status = "consistent" if ok else f"MISMATCH ({detail})"
    print(f"wrote {len(lines)} trial lines to {jsonl_path}")
    print(f"summary: {csv_path} (+ per-algorithm .dat files); config hash {status}")
    if not ok:
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def verify_report_pair(jsonl_path: str, csv_path: str) -> tuple[bool, str]:
    """Check that the JSONL lines and the CSV summary carry the same config
    hash; reports the first discrepancy found."""
    hashes = set()
    with open(jsonl_path) as fh:
        for line in fh:
            if line.strip():
                hashes.add(json.loads(line)["config_hash"])
    with open(csv_path) as fh:
        first = fh.readline().strip()
    if not first.startswith("# config_hash="):
        return False, f"{csv_path} lacks a config_hash header"
    csv_hash = first.split("=", 1)[1]
    if len(hashes) != 1:
        return False, f"{jsonl_path} mixes config hashes: {sorted(hashes)}"
    if csv_hash != next(iter(hashes)):
        return False, f"jsonl hash {next(iter(hashes))} != csv hash {csv_hash}"
    return True, ""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_checks(cfg: dict, limit: int) -> list[tuple[str, str, str]]:
    checks: list[tuple[str, str, str]] = []

    if cfg["instance"] is not None or cfg["similarity"] is not None:
        f, ground, obj = _build_objective(cfg)
        elems = list(ground.elements)
        if isinstance(obj, CoverageDispersionObjective):
            elems = [e for e in elems if e in obj.universe_u]
        if len(elems) > limit:
            elems = elems[:limit]
        try:
            sub = check_submodular(f, elems)
            declared = getattr(obj, "declares_submodular", None)
            if declared is None:
                checks.append(("submodular", "INFO", f"observed={sub}"))
            else:
                status = "PASS" if sub == declared else "FAIL"
                checks.append(("submodular", status, f"observed={sub} declared={declared}"))
            mono = check_monotone(f, elems)
            declared_m = getattr(obj, "declares_monotone", None)
            if declared_m is None:
                checks.append(("monotone", "INFO", f"observed={mono}"))
            else:
                status = "PASS" if mono == declared_m else "FAIL"
                checks.append(("monotone", status, f"observed={mono} declared={declared_m}"))
            checks.append(("non-negative", "PASS", f"all {1 << len(elems)} subsets evaluated"))
        except NonNegativityError as exc:
            checks.append(("non-negative", "FAIL", str(exc)))

    if cfg["constraint"] is not None:
        ground = None
        if cfg["instance"] is not None or cfg["similarity"] is not None:
            _f, ground, _obj = _build_objective(cfg)
        if cfg["constraint"]["kind"] == "hard":
            spec = cfg["constraint"]
            inst = HardInstance(spec["k"], spec["h"], spec["m"], spec["mode"])
            if cfg.get("k_override") is not None:
                inst.k = int(cfg["k_override"])
            ground = inst.ground
            oracle = inst
        else:
            if ground is None:
                raise ConfigError("constraint verification needs an objective to size the ground set")
            oracle = _build_constraint(cfg, ground, None)
        elems = list(ground.elements)[: min(limit, 12)]
        dc = verify_downward_closed(oracle, elems)
        checks.append(("downward-closed", "PASS" if dc else "FAIL", f"n={len(elems)}"))
        ratio = verify_k_system(oracle, elems)
        status = "PASS" if ratio <= oracle.k + 1e-9 else "FAIL"
        checks.append(("k-system", status, f"ratio={ratio} declared_k={oracle.k}"))
        ext = verify_k_extendible(oracle, elems, oracle.k)
        checks.append((f"k-extendible(k={oracle.k})", "PASS" if ext else "FAIL", f"n={len(elems)}"))

        if cfg["constraint"]["kind"] == "hard":
            p = oracle.params
            ok = True
            for x in range(p.block_size):
                step = gadget_g(x + 1, p) - gadget_g(x, p)
                if not (1 <= step * p.k and step <= 1):
                    ok = False
                    break
            checks.append(("gadget-increments", "PASS" if ok else "FAIL",
                           f"1/k <= g(x+1)-g(x) <= 1 over x in 0..{p.block_size - 1}"))
            if oracle.mode == MODE_M:
                s = witness_size(p)
                if s.denominator != 1:
                    checks.append(("witness", "INFO", f"size formula {s} not integral; skipped"))
                else:
                    w = large_witness(oracle)
                    good = oracle.is_independent(w) and len(w) == int(s)
                    checks.append(("witness", "PASS" if good else "FAIL",
                                   f"|W|={len(w)} formula={int(s)}"))

    if not checks:
        raise ConfigError("verify needs --instance/--similarity and/or --constraint")
    return checks


def cmd_verify(args) -> int:
    cfg = _common_config(args, "verify")
    cfg["hash"] = config_hash(cfg)
    checks = _verify_checks(cfg, args.limit)
    width = max(len(name) for name, _s, _d in checks)
    for name, status, detail in checks:
        print(f"{name:<{width}}  {status:<4}  {detail}")
    failed = [c for c in checks if c[1] == "FAIL"]
    if failed:
        print(f"{len(failed)} check(s) FAILED")
        return EXIT_VERIFY_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", help="modular-weights CSV or synth:kind=..,n=..,seed=..")
    p.add_argument("--similarity", help="similarity-matrix CSV (coverage-dispersion objective)")
    p.add_argument("--genres", help="genres CSV or synth:count=..,seed=..")
    p.add_argument("--constraint", help="uniform:M | partition:FILE | genre:m=..,mg=..,g=a+b | hard:k=..,h=..,m=..,mode=M|M'")
    p.add_argument("--lam", type=float, default=0.5, help="coverage-dispersion mixing weight (similarity route)")
    p.add_argument("--k", type=int, default=None, help="override the constraint's declared k")
    p.add_argument("--ell", default="auto", help="repeated-greedy rounds (integer or 'auto')")
    p.add_argument("--p", type=float, default=None, help="sample-greedy sampling probability override")
    p.add_argument("--seed", type=int, default=None, help="master seed (required for randomized algorithms)")
    p.add_argument("--subroutine", choices=("det", "rand"), default="det",
                   help="unconstrained subroutine variant (repeated/double greedy)")
    p.add_argument("--lazy", action="store_true", help="use the lazy greedy scan")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submax",
        description="Submodular maximization under k-system constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run one algorithm on one instance")
    _add_common(ps)
    ps.add_argument("--alg", required=True, help="|".join(ALGORITHMS))
    ps.add_argument("--best-of", type=int, default=1,
                    help="run N seeded trials, report the best (randomized algorithms)")
    ps.add_argument("--out", help="write trial JSONL here (default: stdout)")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="sweep a constraint parameter across algorithms")
    _add_common(pb)
    pb.add_argument("--alg", required=True, help="comma-separated algorithm list")
    pb.add_argument("--sweep", required=True, help="param=LO:HI with param in {m, mg}")
    pb.add_argument("--trials", type=int, default=1, help="trials per point for randomized algorithms")
    pb.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    pb.add_argument("--out", help="output stem for .jsonl/.summary.csv/.dat files")
    pb.set_defaults(func=cmd_bench)

    pv = sub.add_parser("verify", help="run property checks and print a pass/fail table")
    _add_common(pv)
    pv.add_argument("--limit", type=int, default=12,
                    help="truncate exhaustive checks to the first N elements")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NonNegativityError, PropertyViolation) as exc:
        print(f"oracle violation: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ConfigError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
