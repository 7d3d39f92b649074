"""Command-line interface: ``solve`` one instance, ``bench`` a sweep, ``verify`` properties.

Exit codes: 0 success; 1 verification failures; 2 configuration/capacity
errors (flags, specs, input files); 3 oracle violations (negative values,
broken run-time properties); 141 output pipe closed by its reader (128 +
SIGPIPE, as a shell reports a writer that SIGPIPE killed).  Anything else is
a program error and surfaces with its traceback.

Reproducibility contract: a ``bench`` run is a pure function of its
configuration — trial i of any randomized algorithm reads stream i of the
master seed, trial lines are written in a fixed order, and timing is kept
out of the JSONL (wall_ms is null there; the CSV summary carries mean wall
time as the one column not recomputable from the JSONL).  Rerunning the same
config therefore reproduces the JSONL byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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
    IndependenceOracle,
    NonNegativityError,
    PropertyViolation,
    Rng,
    SolveResult,
    ValueOracle,
    _check_cap,
    _read_id_rows,
    _subset_table,
)
from .hardness import (
    MODE_M,
    HardInstance,
    gadget_g,
    large_witness,
    witness_size,
)
from .objectives import (
    CoverageDispersionObjective,
    ModularObjective,
    SyntheticSpec,
    _diminishing_returns,
    _nondecreasing,
    generate,
    load_similarity_csv,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_PIPE_CLOSED = 141

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


# ---------------------------------------------------------------------------
# Spec-string parsing
# ---------------------------------------------------------------------------


def _parse_kv(body: str, what: str, required: tuple, optional: tuple = ()) -> dict:
    out = {}
    for part in filter(None, (p.strip() for p in body.split(","))):
        key, eq, val = (x.strip() for x in part.partition("="))
        if not eq:
            raise ConfigError(f"{what}: expected key=value, got {part!r}")
        if key not in required + optional:
            raise ConfigError(f"{what}: unknown key {key!r}; expected {'/'.join(required + optional)}")
        if key in out:
            raise ConfigError(f"{what}: key {key!r} given twice")
        out[key] = val
    missing = set(required) - out.keys()
    if missing:
        raise ConfigError(f"{what} missing {sorted(missing)} in {body!r}")
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
        kv = _parse_kv(body, "genre constraint", ("m", "mg", "g"))
        genres = [g for g in kv["g"].split("+") if g]
        if not genres:
            raise ConfigError("genre constraint needs at least one genre in g=a+b+c")
        return {"kind": "genre", "m": int(kv["m"]), "mg": int(kv["mg"]), "g": genres}
    if kind == "hard":
        kv = _parse_kv(body, "hard constraint", ("k", "h", "m", "mode"))
        return {"kind": "hard", "k": int(kv["k"]), "h": int(kv["h"]), "m": int(kv["m"]),
                "mode": kv["mode"]}
    raise ConfigError(f"unknown constraint kind {kind!r} in {s!r}")


_FLAGS = {"0": False, "1": True, "false": False, "true": True, "no": False, "yes": True}


def parse_instance_spec(s: str) -> dict:
    """``synth:kind=..,n=..,seed=..[,density=..][,lam=..][,tie_free=0|1]`` or a
    modular-weights CSV path."""
    if s.startswith("synth:"):
        kv = _parse_kv(s[len("synth:"):], "synthetic instance", ("kind", "n", "seed"),
                       ("density", "lam", "tie_free"))
        tie_free = kv.get("tie_free", "0")
        if tie_free not in _FLAGS:
            raise ValueError(f"tie_free must be one of {'/'.join(_FLAGS)}, got {tie_free!r}")
        return {
            "source": "synth",
            "kind": kv["kind"],
            "n": int(kv["n"]),
            "seed": int(kv["seed"]),
            "density": float(kv.get("density", 0.5)),
            "lam": float(kv.get("lam", 0.5)),
            "tie_free": _FLAGS[tie_free],
        }
    return {"source": "modular_csv", "file": s}


def parse_genres_spec(s: str) -> dict:
    """``synth:count=G,seed=S[,maxper=P]`` or a genres CSV path."""
    if s.startswith("synth:"):
        kv = _parse_kv(s[len("synth:"):], "synthetic genres", ("count", "seed"), ("maxper",))
        spec = {"source": "synth", "count": int(kv["count"]), "seed": int(kv["seed"]),
                "maxper": int(kv.get("maxper", 2))}
        for key in ("count", "maxper"):
            if spec[key] < 1:
                raise ConfigError(f"synthetic genres: {key} must be >= 1, got {spec[key]}")
        return spec
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
# Instance construction (built once per process; a trial's counts are deltas)
# ---------------------------------------------------------------------------


def _check_ids(path: str, ids: Iterable[int], n: int) -> None:
    """Element ids of a file whose ground set the objective sizes lie below n."""
    bad = sorted(e for e in ids if e >= n)
    if bad:
        raise ConfigError(f"{path}: element ids must be < {n}; got {bad[:5]}")


def _load_modular_csv(path: str) -> ModularObjective:
    weights = {e: w for e, (_line, w) in _read_id_rows(path, {"weight": float}).items()}
    if not weights:
        raise ConfigError(f"{path}: no weight rows")
    return ModularObjective(GroundSet(max(weights) + 1), weights)


def _load_partition_csv(path: str, n: int) -> tuple[dict[int, str], dict[str, int]]:
    rows = _read_id_rows(path, {"block_id": str.strip, "capacity": int})
    if not rows:
        raise ConfigError(f"{path}: no partition rows")
    _check_ids(path, rows, n)
    block_of = {e: b for e, (_line, b, _cap) in rows.items()}
    capacities: dict[str, int] = {}
    for line, b, cap in rows.values():
        if capacities.setdefault(b, cap) != cap:
            raise ConfigError(f"{path}: line {line}: block {b!r} has conflicting capacities")
    return block_of, capacities


def _load_genres(spec: dict, n: int) -> dict:
    if spec["source"] == "csv":
        genre_of = load_genres_csv(spec["file"])
        _check_ids(spec["file"], genre_of, n)
        return genre_of
    gen = Rng(spec["seed"], 0).generator
    labels = [f"g{i}" for i in range(spec["count"])]
    out = {}
    for e in range(n):
        cnt = int(gen.integers(1, spec["maxper"] + 1))
        picks = gen.choice(spec["count"], size=min(cnt, spec["count"]), replace=False)
        out[e] = frozenset(labels[int(i)] for i in picks)
    return out


class _Instance(NamedTuple):
    objective: Optional[object]  # None when verify checks a constraint alone
    constraint: Optional[Callable[[dict], IndependenceOracle]]  # spec -> constraint; None without one


_instances: dict[str, _Instance] = {}  # config hash -> instance, per process


def _instance(cfg: dict) -> _Instance:
    """The read-only part of a config, built once per process: the objective
    (a coverage objective over the genre universe N_u under a genre
    constraint) and its constraint's builder (spec -> constraint), which
    holds any genre map or partition blocks read.  Each trial takes a fresh
    value oracle from it: ``objective.oracle()``."""
    if cfg["hash"] in _instances:
        return _instances[cfg["hash"]]
    source, spec = cfg["instance"], cfg["constraint"] or {"kind": None}
    obj = ground = build = nu = None
    try:
        if cfg["similarity"] is not None:  # its objective waits for N_u, below
            mat, _labels = load_similarity_csv(cfg["similarity"])
            ground = GroundSet(mat.shape[0])
        elif source is not None and source["source"] == "modular_csv":
            obj = _load_modular_csv(source["file"])
        elif source is not None:
            obj = generate(SyntheticSpec(**{k: v for k, v in source.items() if k != "source"}))[0].objective
        ground = ground if obj is None else obj.ground
        if spec["kind"] in ("uniform", "partition", "genre") and ground is None:
            raise ConfigError(f"{spec['kind']} constraint needs an objective for its ground set")
        if spec["kind"] == "uniform":
            build = lambda s: UniformMatroid(ground, s["m"])
        elif spec["kind"] == "partition":
            blocks = _load_partition_csv(spec["file"], ground.n)
            build = lambda s: PartitionMatroid(ground, *blocks)
        elif spec["kind"] == "genre":
            if cfg["genres"] is None:
                raise ConfigError("genre constraint requires --genres (CSV or synth spec)")
            genre_of = _load_genres(cfg["genres"], ground.n)
            labelled = set().union(*genre_of.values())
            absent = [g for g in spec["g"] if g not in labelled]
            if absent:  # it would still count in the declared k
                raise ConfigError(f"favourite genre(s) {', '.join(absent)} label no element")
            build = lambda s: GenreConstraint(ground, genre_of, s["g"], m=s["m"], m_g=s["mg"])
            # a sweep never moves N_u; a cut (a subclass) keeps the whole ground set
            if cfg["similarity"] is not None or type(obj) is CoverageDispersionObjective:
                nu = build(spec).restricted_universe
        elif spec["kind"] == "hard":
            build = lambda s: HardInstance(s["k"], s["h"], s["m"], s["mode"])
        if cfg["similarity"] is not None:
            obj = CoverageDispersionObjective(ground, mat, lam=cfg["lam"], universe_u=nu)
        elif nu is not None:  # a synthetic coverage-dispersion objective, restricted
            obj = CoverageDispersionObjective(ground, obj.similarity, lam=obj.lam,
                                              universe_u=nu)
    except ValueError as exc:  # malformed input data or parameters
        raise ConfigError(str(exc)) from None
    _instances[cfg["hash"]] = _Instance(obj, build)
    return _instances[cfg["hash"]]


_SWEEPABLE = {"uniform": ("m",), "genre": ("m", "mg")}  # a hard instance's m sizes its ground set


def _build_constraint(cfg: dict, sweep: Optional[tuple[str, int]]):
    """The constraint at a sweep point (None without ``--constraint``), from
    the builder of the config's :func:`_instance`: the one constraint
    builder of solve, bench and verify."""
    if cfg["constraint"] is None:
        return None
    spec = dict(cfg["constraint"], **dict([sweep] if sweep is not None else []))
    obj, build = _instance(cfg)
    try:
        oracle = build(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if obj is not None and oracle.ground.n != obj.ground.n:  # a hard instance sizes its own
        raise ConfigError(
            f"hard constraint universe has n={oracle.ground.n} but the objective "
            f"has n={obj.ground.n}; size the instance to h*k*m"
        )
    if cfg["k_override"] is not None:
        oracle.k = cfg["k_override"]
    return oracle


class _Point(NamedTuple):
    """A sweep point's constraint, shared by the point's trials: it holds no
    per-run state (extension states are built per run, and a run's counts
    are deltas), and its :func:`max_feasible_size` ``r``."""

    constraint: Optional[IndependenceOracle]
    r: Optional[int]


_points: dict[tuple, _Point] = {}  # (config hash, sweep point) -> point, per process


def _point(cfg: dict, sweep: Optional[tuple[str, int]]) -> _Point:
    key = (cfg["hash"], sweep)
    if key not in _points:
        I = _build_constraint(cfg, sweep)
        _points[key] = _Point(I, None if I is None else max_feasible_size(I))
    return _points[key]


def config_hash(cfg: dict) -> str:
    semantic = {k: v for k, v in cfg.items() if k not in ("out", "jobs")}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Running trials
# ---------------------------------------------------------------------------


class _Algorithm(NamedTuple):
    randomized_under: tuple[str, ...]  # the --subroutine values under which it draws coins
    run: Callable[..., SolveResult]  # (f, constraint, rng or None, cfg) -> its result


def _run_double_greedy(f: ValueOracle, _I, rng: Optional[Rng], _cfg: dict) -> SolveResult:
    obj = f.objective  # under a genre constraint, restricted to N_u
    U = obj.universe_u if isinstance(obj, CoverageDispersionObjective) else f.ground.full()
    return unconstrained_max_det(f, U) if rng is None else unconstrained_max_rand(f, U, rng)


# The runners look the algorithms up in this module when they run, so a
# replaced module attribute (a profiler's span, a test's spy) is the one run.
_ALGORITHMS = {
    "greedy": _Algorithm((), lambda f, I, rng, cfg: greedy(f, I, lazy=cfg["lazy"])[0]),
    "lazy-greedy": _Algorithm((), lambda f, I, rng, cfg: greedy(f, I, lazy=True)[0]),
    "repeated-greedy": _Algorithm(("rand",), lambda f, I, rng, cfg: repeated_greedy(
        f, I, ell=cfg["ell"], rng=rng, lazy=cfg["lazy"])),
    "sample-greedy": _Algorithm(("det", "rand"), lambda f, I, rng, cfg: sample_greedy(
        f, I, rng=rng, p=cfg["p"], lazy=cfg["lazy"])),
    "sample-greedy-linear": _Algorithm(("det", "rand"), lambda f, I, rng, cfg: sample_greedy_linear(
        f, I, rng=rng, lazy=cfg["lazy"])),
    "double-greedy": _Algorithm(("rand",), _run_double_greedy),
    "brute-force": _Algorithm((), lambda f, I, rng, cfg: brute_force_opt(f, I)),
}
ALGORITHMS = tuple(_ALGORITHMS)


def _randomized(cfg: dict, alg: str) -> bool:
    return cfg["subroutine"] in _ALGORITHMS[alg].randomized_under


def _check_algorithm(cfg: dict, alg: str) -> None:
    """Reject a config that ``alg`` cannot run on, whatever the sweep point;
    solve and bench ask before any trial runs."""
    if alg not in _ALGORITHMS:
        raise ConfigError(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")
    if cfg["constraint"] is None and alg != "double-greedy":
        raise ConfigError(f"algorithm {alg!r} requires --constraint")
    if _randomized(cfg, alg) and cfg["seed"] is None:
        when = " with --subroutine rand" if _ALGORITHMS[alg].randomized_under == ("rand",) else ""
        raise ConfigError(f"algorithm {alg!r}{when} is randomized and requires --seed")
    inst = _instance(cfg)
    if alg == "sample-greedy-linear" and not inst.objective.is_modular:
        raise ConfigError(f"{alg} needs a modular objective, got {type(inst.objective).__name__}")
    if alg == "brute-force":
        _check_cap("brute_force_opt", inst.objective.ground.n)


def run_one_trial(cfg: dict, sweep: Optional[tuple[str, int]], alg: str, trial_index: int) -> dict:
    """Run one algorithm trial with a fresh value oracle over the config's
    cached :func:`_instance`, under the sweep point's cached constraint;
    returns the report dict (with real wall_ms; bench mode nulls it before
    writing).  :func:`_check_algorithm` must have accepted ``alg``."""
    inst, point = _instance(cfg), _point(cfg, sweep)
    I = point.constraint
    rng = Rng(cfg["seed"], trial_index) if _randomized(cfg, alg) else None
    res = _ALGORITHMS[alg].run(inst.objective.oracle(), I, rng, cfg)
    ell = cfg["ell"] if alg == "repeated-greedy" else None  # "auto" is reported resolved
    return {
        "algorithm": alg,
        "config_hash": cfg["hash"],
        "ell": default_rounds(I.k) if ell == "auto" else ell,
        "f_evals": res.f_evals,
        "independence_checks": res.independence_checks,
        "k": None if I is None else I.k,
        "marginal_evals": res.marginal_evals,
        "n": inst.objective.ground.n,
        "r": point.r,
        "seed": res.seed,
        "solution": list(res.solution.members),
        "trial_index": trial_index,
        "value": res.value,
        "wall_ms": res.wall_ms,
    }


def _report_line(report: dict) -> str:
    assert set(report) == set(REPORT_FIELDS)
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _parse(parse: Callable[[str], dict], spec: Optional[str], flag: str) -> Optional[dict]:
    if not spec:
        return None
    try:
        return parse(spec)
    except ValueError as exc:  # a malformed value in the spec
        raise ConfigError(f"{flag} {spec!r}: {exc}") from None


def _common_config(args, cmd: str) -> dict:
    if args.instance is None and args.similarity is None and cmd != "verify":
        raise ConfigError("an objective is required: --instance and/or --similarity")
    if args.instance is not None and args.similarity is not None:
        raise ConfigError("--instance and --similarity are mutually exclusive")
    if args.lam is not None and args.similarity is None:
        raise ConfigError("--lam weighs the --similarity objective only; "
                          "give a synthetic objective's weight in its spec: synth:...,lam=")
    cfg = {
        "cmd": cmd,
        "instance": _parse(parse_instance_spec, args.instance, "--instance"),
        "similarity": args.similarity,
        "genres": _parse(parse_genres_spec, args.genres, "--genres"),
        "constraint": _parse(parse_constraint_spec, args.constraint, "--constraint"),
        "lam": 0.5 if args.lam is None else args.lam,  # unset hashes as 0.5 did
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
    if args.k is not None and args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
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
    cfg["algs"] = [args.alg]
    cfg["hash"] = config_hash(cfg)
    _check_algorithm(cfg, args.alg)
    if args.best_of > 1 and not _randomized(cfg, args.alg):
        raise ConfigError(f"--best-of needs a randomized algorithm; {args.alg!r} is deterministic")

    reports = [run_one_trial(cfg, None, args.alg, t) for t in range(args.best_of)]
    lines = [_report_line(r) for r in reports]
    best = max(reports, key=lambda r: (r["value"], -r["trial_index"]))
    if args.out:  # made once the trials ran: a refused instance or constraint leaves no directory
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
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


def cmd_bench(args) -> int:
    cfg = _common_config(args, "bench")
    if args.out is None:
        raise ConfigError("bench requires --out STEM for its report files")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    algs = [a.strip() for a in args.alg.split(",") if a.strip()]
    twice = [a for i, a in enumerate(algs) if a in algs[:i]]
    if twice:
        raise ConfigError(f"--alg lists algorithm {twice[0]!r} twice")
    if not algs:
        raise ConfigError("bench needs at least one algorithm in --alg")
    sweep_param, lo, hi = parse_sweep_spec(args.sweep)
    if cfg["constraint"] is None:
        raise ConfigError("bench requires --constraint (the sweep applies to it)")
    cfg.update({"algs": algs, "sweep": args.sweep, "trials": args.trials})
    cfg["hash"] = config_hash(cfg)

    # every algorithm and sweep point is checked before the first trial runs
    for alg in algs:
        _check_algorithm(cfg, alg)
    kind = cfg["constraint"]["kind"]
    if sweep_param not in _SWEEPABLE.get(kind, ()):
        raise ConfigError(f"sweep parameter {sweep_param!r} does not apply to constraint kind {kind!r}")
    points = [(sweep_param, value) for value in range(lo, hi + 1)]
    for sweep in points:
        _point(cfg, sweep)
    tasks = [(cfg, sweep, alg, t) for sweep in points for alg in algs
             for t in range(args.trials if _randomized(cfg, alg) else 1)]

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_one_trial, *zip(*tasks), chunksize=1))
    else:
        results = [run_one_trial(*t) for t in tasks]

    groups: dict[tuple[int, str], list[dict]] = {}  # (sweep value, algorithm) -> reports
    for (_cfg, (_param, value), alg, _t), rep in zip(tasks, results):
        groups.setdefault((value, alg), []).append(rep)
    # timing stays out of the reproducibility artifact
    lines = [_report_line({**rep, "wall_ms": None}) for rep in results]

    jsonl_path = f"{args.out}.jsonl"
    with open(jsonl_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    csv_path = f"{args.out}.summary.csv"
    rows = []
    for (value, alg), reps in groups.items():
        vals = np.array([r["value"] for r in reps], dtype=float)
        evs = np.array([r["f_evals"] for r in reps], dtype=float)
        rows.append([value, alg, repr(float(vals.mean())), repr(float(vals.std(ddof=0))),
                     repr(float(evs.mean())), f"{float(np.mean([r['wall_ms'] for r in reps])):.3f}"])
    with open(csv_path, "w") as fh:
        fh.write(f"# config_hash={cfg['hash']}\n")
        fh.write("sweep_value,algorithm,mean_value,std_value,mean_f_evals,mean_wall_ms\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")

    for alg in algs:
        for metric, col in (("value", 2), ("evals", 4)):
            with open(f"{args.out}.{alg}.{metric}.dat", "w") as fh:
                fh.writelines(f"{row[0]} {row[col]}\n" for row in rows if row[1] == alg)

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
    obj, oracle = _instance(cfg).objective, _build_constraint(cfg, None)
    if obj is None and oracle is None:
        raise ConfigError("verify needs --instance/--similarity and/or --constraint")
    f_elems = [] if obj is None else list(
        obj.universe_u if isinstance(obj, CoverageDispersionObjective) else obj.ground)[:limit]
    elems = [] if oracle is None else list(oracle.ground.elements)[:limit]
    # refuse a --limit past any cap before running a check; an absent side lists no elements
    for name, e in (("check_submodular", f_elems), ("check_monotone", f_elems),
                    ("verify_downward_closed", elems), ("verify_k_system", elems),
                    ("verify_k_extendible", elems)):
        _check_cap(name, len(e))

    checks: list[tuple[str, str, str]] = []
    if obj is not None:
        f = obj.oracle()
        try:
            _, vals = _subset_table(f.ground, f_elems, "check_submodular", f.values_masks)  # 2^n evaluations for both checks
            for name, observed in (("submodular", _diminishing_returns(vals)),
                                   ("monotone", _nondecreasing(vals))):
                declared = getattr(obj, f"declares_{name}", None)
                if declared is None:
                    checks.append((name, "INFO", f"observed={observed}"))
                else:
                    status = "PASS" if observed == declared else "FAIL"
                    checks.append((name, status, f"observed={observed} declared={declared}"))
            checks.append(("non-negative", "PASS", f"all {1 << len(f_elems)} subsets evaluated"))
        except NonNegativityError as exc:
            checks.append(("non-negative", "FAIL", str(exc)))

    if oracle is not None:
        dc = verify_downward_closed(oracle, elems)
        checks.append(("downward-closed", "PASS" if dc else "FAIL", f"n={len(elems)}"))
        ratio = verify_k_system(oracle, elems)
        status = "PASS" if ratio <= oracle.k + 1e-9 else "FAIL"
        checks.append(("k-system", status, f"ratio={ratio} declared_k={oracle.k}"))
        ext = verify_k_extendible(oracle, elems, oracle.k)
        checks.append((f"k-extendible(k={oracle.k})", "PASS" if ext else "FAIL", f"n={len(elems)}"))

        if cfg["constraint"]["kind"] == "hard":
            p = oracle.params
            steps = (gadget_g(x + 1, p) - gadget_g(x, p) for x in range(p.block_size))
            ok = all(1 <= step * p.k and step <= 1 for step in steps)
            checks.append(("gadget-increments", "PASS" if ok else "FAIL",
                           f"1/k <= g(x+1)-g(x) <= 1 over x in 0..{p.block_size - 1}"))
            if oracle.mode == MODE_M:
                s = witness_size(p)
                if s.denominator != 1:
                    checks.append(("witness", "INFO", f"size formula {s} not integral; skipped"))
                else:
                    # large_witness asserts W independent and of the formula's size
                    checks.append(("witness", "PASS", f"|W|={len(large_witness(oracle))} formula={int(s)}"))
    return checks


def cmd_verify(args) -> int:
    if args.limit < 0:
        raise ConfigError(f"--limit must be >= 0, got {args.limit}")
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
    p.add_argument("--lam", type=float, help="coverage-dispersion mixing weight of --similarity (default 0.5)")
    p.add_argument("--k", type=int, default=None, help="override the constraint's declared k")
    p.add_argument("--ell", default="auto", help="repeated-greedy rounds (integer or 'auto')")
    p.add_argument("--p", type=float, default=None, help="sample-greedy sampling probability override")
    p.add_argument("--seed", type=int, default=None, help="master seed (required for randomized algorithms)")
    p.add_argument("--subroutine", choices=("det", "rand"), default="det",
                   help="unconstrained subroutine variant (repeated/double greedy)")
    p.add_argument("--lazy", action="store_true", help="use the lazy scan in every greedy run")


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
        code = args.func(args)
        sys.stdout.flush()  # a buffered write to a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # `submax ... | head`: the reader has what it wanted
        # at exit Python flushes stdout again: let that write go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE_CLOSED
    except (NonNegativityError, PropertyViolation) as exc:
        print(f"oracle violation: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ConfigError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
