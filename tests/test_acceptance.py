"""Acceptance criteria: guarantee bounds, statistical targets, accounting
budgets, hard-family structure, and end-to-end reproducibility.

Each test prints exactly one ``ACCEPTANCE <n> ...: PASS|FAIL`` line.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from submax import (
    GadgetParams,
    GroundSet,
    HardInstance,
    MODE_M,
    MODE_M_PRIME,
    ModularObjective,
    PartitionMatroid,
    IntersectionSystem,
    Rng,
    UniformMatroid,
    brute_force_opt,
    gadget_g,
    greedy,
    instrumented_sample_greedy,
    large_witness,
    overlap_probe,
    repeated_greedy,
    repeated_greedy_bound,
    sample_greedy,
    sample_greedy_linear,
    unconstrained_max_det,
    unconstrained_max_rand,
    verify_k_extendible,
    witness_size,
)
from submax.cli import main as cli_main
from conftest import make_objective, make_partition_intersection


@contextmanager
def criterion(num: int, name: str, detail: list):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    else:
        extra = f" — {detail[0]}" if detail else ""
        print(f"ACCEPTANCE {num} ({name}): PASS{extra}")


def _fresh_pair(kind: str, n: int, seed: int, k: int, **kw):
    f, g = make_objective(kind, n, seed, **kw)
    I = make_partition_intersection(n, k, seed)
    return f, I, g


def _opt_for(kind: str, n: int, seed: int, k: int, **kw) -> float:
    f, I, g = _fresh_pair(kind, n, seed, k, **kw)
    return brute_force_opt(f, I).value


# ---------------------------------------------------------------------------
# 1. Multi-round greedy respects its worst-case factor on verified instances
# ---------------------------------------------------------------------------


def test_acceptance_1_repeated_greedy_bound():
    detail = []
    with criterion(1, "repeated-greedy factor", detail):
        t0 = time.monotonic()
        checked = 0
        n = 10
        for k in (2, 3):
            for seed in range(25):
                I_check = make_partition_intersection(n, k, seed)
                assert verify_k_extendible(I_check, k=k), (k, seed)
                opt = _opt_for("coverage_dispersion", n, seed, k)
                for ell in (2, 3):
                    f, I, g = _fresh_pair("coverage_dispersion", n, seed, k)
                    res = repeated_greedy(f, I, ell=ell)
                    bound = repeated_greedy_bound(k, ell, 3.0)
                    assert res.value >= bound * opt - 1e-9, (k, seed, ell)
                checked += 1
        elapsed = time.monotonic() - t0
        assert checked == 50
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        detail.append(f"50 verified instances, k in {{2,3}}, ell in {{2,3}}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Plain greedy on monotone objectives: within 1/(k+1) of optimal
# ---------------------------------------------------------------------------


def test_acceptance_2_greedy_monotone_factor():
    detail = []
    with criterion(2, "greedy monotone factor", detail):
        t0 = time.monotonic()
        cases = []
        for seed in range(10):
            cases.append(("modular", 2, seed, {}))
            cases.append(("weighted_coverage", 2, seed, {}))
            cases.append(("coverage_dispersion", 2, seed, {"lam": 0.0}))
            cases.append(("coverage_dispersion", 3, seed, {"lam": 0.0}))
            cases.append(("weighted_coverage", 3, seed, {}))
        n = 10
        for kind, k, seed, kw in cases:
            opt = _opt_for(kind, n, seed, k, **kw)
            f, I, g = _fresh_pair(kind, n, seed, k, **kw)
            res, _ = greedy(f, I)
            assert res.value >= opt / (k + 1.0) - 1e-9, (kind, k, seed)
        elapsed = time.monotonic() - t0
        assert len(cases) == 50
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        detail.append(f"50 monotone instances across 3 objective families, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Sampled greedy hits its expected-value targets (3-sigma statistical test)
# ---------------------------------------------------------------------------


def _mean_over_seeds(run, trials: int):
    vals = np.empty(trials)
    for t in range(trials):
        vals[t] = run(t)
    sem = vals.std(ddof=0) / math.sqrt(trials)
    return vals.mean(), sem


def test_acceptance_3_sample_greedy_expectation_targets():
    detail = []
    with criterion(3, "sampled greedy targets", detail):
        t0 = time.monotonic()
        trials = 2000
        n = 10
        regimes = 0

        # monotone regime: expected value >= OPT/(k+1)
        for seed in range(5):
            k = 2
            kw = {"lam": 0.0}
            opt = _opt_for("coverage_dispersion", n, seed, k, **kw)
            f, I, g = _fresh_pair("coverage_dispersion", n, seed, k, **kw)

            def run(t, f=f, I=I, g=g):
                return sample_greedy(f, I, rng=Rng(900 + t, 0)).value

            mean, sem = _mean_over_seeds(run, trials)
            assert mean >= opt / (k + 1.0) - 3.0 * sem, ("monotone", seed, mean, opt)
        regimes += 1

        # general (non-monotone) regime: expected value >= k/(k+1)^2 * OPT
        for seed in range(5):
            k = 2
            opt = _opt_for("coverage_dispersion", n, seed, k)
            f, I, g = _fresh_pair("coverage_dispersion", n, seed, k)

            def run(t, f=f, I=I, g=g):
                return sample_greedy(f, I, rng=Rng(700 + t, 0)).value

            mean, sem = _mean_over_seeds(run, trials)
            target = k / (k + 1.0) ** 2 * opt
            assert mean >= target - 3.0 * sem, ("general", seed, mean, target)
        regimes += 1

        # linear regime: p = 1/k keeps expectation >= OPT/k on modular objectives
        for seed in range(5):
            k = 2
            opt = _opt_for("modular", n, seed, k)
            f, I, g = _fresh_pair("modular", n, seed, k)

            def run(t, f=f, I=I, g=g):
                return sample_greedy_linear(f, I, rng=Rng(500 + t, 0)).value

            mean, sem = _mean_over_seeds(run, trials)
            assert mean >= opt / k - 3.0 * sem, ("linear", seed, mean, opt)
        regimes += 1

        elapsed = time.monotonic() - t0
        assert regimes == 3
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        detail.append(f"3 regimes x 5 instances x {trials} seeds, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Unconstrained double greedy: 1/3 deterministic, 1/2 in expectation
# ---------------------------------------------------------------------------


def test_acceptance_4_double_greedy_factors():
    detail = []
    with criterion(4, "double greedy factors", detail):
        t0 = time.monotonic()
        n = 9
        # deterministic variant: f(X) >= OPT/3 on every instance
        for seed in range(100):
            kind = "cut" if seed % 2 else "coverage_dispersion"
            f, g = make_objective(kind, n, seed)
            res = unconstrained_max_det(f, g.full())
            f2, _ = make_objective(kind, n, seed)
            opt = brute_force_opt(f2, UniformMatroid(g, n)).value
            assert res.value >= opt / 3.0 - 1e-9, (kind, seed)

        # randomized variant: E[f(X)] >= OPT/2, tested at 3 sigma
        trials = 2000
        for seed in range(5):
            f, g = make_objective("cut", n, seed)
            f2, _ = make_objective("cut", n, seed)
            opt = brute_force_opt(f2, UniformMatroid(g, n)).value

            def run(t, f=f, g=g):
                return unconstrained_max_rand(f, g.full(), Rng(300 + t, 0)).value

            mean, sem = _mean_over_seeds(run, trials)
            assert mean >= opt / 2.0 - 3.0 * sem, (seed, mean, opt)

        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        detail.append(f"100 det instances + 5x{trials} randomized runs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. The coin-flip-instrumented run keeps its bookkeeping invariants
# ---------------------------------------------------------------------------


def test_acceptance_5_instrumented_invariants():
    detail = []
    with criterion(5, "instrumented invariants", detail):
        t0 = time.monotonic()
        runs = 0
        for inst_seed in range(10):
            n = 10 + inst_seed % 3  # 10..12
            f0, g = make_objective("coverage_dispersion", n, inst_seed)
            I0 = make_partition_intersection(n, 2, inst_seed)
            opt = brute_force_opt(f0, I0).solution
            for t in range(50):
                f, _ = make_objective("coverage_dispersion", n, inst_seed)
                I = make_partition_intersection(n, 2, inst_seed)
                # any PropertyViolation raises and fails the criterion
                res, trace = instrumented_sample_greedy(f, I, opt, rng=Rng(t, inst_seed))
                assert all(len(s.removed) <= I.k for s in trace)
                runs += 1
        elapsed = time.monotonic() - t0
        assert runs == 500
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        detail.append(f"500 runs, zero invariant violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Hard-family structure: exact curve, witness, extendibility, separation
# ---------------------------------------------------------------------------


def test_acceptance_6_hard_family():
    detail = []
    with criterion(6, "hard instance family", detail):
        t0 = time.monotonic()
        triples = 0
        for k in range(1, 5):
            for h in range(2 * k, 17, 2 * k):
                for m in range(1, 9):
                    p = GadgetParams(k, h, m)
                    lo = Fraction(1, k)
                    for x in range(p.block_size):
                        step = gadget_g(x + 1, p) - gadget_g(x, p)
                        assert lo <= step <= 1, (k, h, m, x)
                    s = witness_size(p)
                    if s.denominator == 1:
                        inst = HardInstance(k, h, m, MODE_M)
                        w = large_witness(inst)
                        assert len(w) == s and inst.is_independent(w)
                        assert Fraction(len(w)) >= Fraction(m * k) * (1 - Fraction(2 * k, h))
                    triples += 1
        assert triples == 128

        for k, h, m in ((2, 4, 2), (2, 8, 1)):
            for mode in (MODE_M, MODE_M_PRIME):
                inst = HardInstance(k, h, m, mode)
                elems = list(range(min(inst.ground.n, 12)))
                assert verify_k_extendible(inst, elems, k), (k, h, m, mode)

        # statistical separation: a set barely above the common rank almost
        # never tells the two modes apart
        a = HardInstance(2, 8, 64, MODE_M)
        b = HardInstance(2, 8, 64, MODE_M_PRIME)
        trials = 100_000
        frac = overlap_probe(a, b, set_size=80, trials=trials, rng=Rng(2718, 0))
        bound = math.exp(-2.0 * 2 * 64 / 8**2)  # e^{-2km/h^2}
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert frac <= bound + 3.0 * sigma, (frac, bound)

        elapsed = time.monotonic() - t0
        assert elapsed < 180.0, f"took {elapsed:.1f}s"
        detail.append(
            f"128 parameter triples, witness + extendibility, "
            f"probe frac={frac:.2e} <= {bound + 3 * sigma:.2e}, {elapsed:.1f}s"
        )


# ---------------------------------------------------------------------------
# 7. Oracle-call accounting at scale: sampling saves queries
# ---------------------------------------------------------------------------


def _big_system(n: int = 500, m: int = 10):
    g = GroundSet(n)
    comps = [UniformMatroid(g, m)]
    for offset, tag in ((0, "p"), (1, "q")):
        block_of = {e: f"{tag}{(e // 100 + offset * (e % 5)) % 5}" for e in range(n)}
        caps = {f"{tag}{b}": 2 for b in range(5)}
        comps.append(PartitionMatroid(g, block_of, caps))
    return g, IntersectionSystem(comps)


def test_acceptance_7_query_accounting_at_scale():
    detail = []
    with criterion(7, "query accounting at scale", detail):
        t0 = time.monotonic()
        n, m = 500, 10
        g, I = _big_system(n, m)
        assert I.k == 3

        gen = Rng(77, 0).generator
        weights = gen.integers(0, 257, size=n).astype(float) / 8.0

        f_greedy = ModularObjective(g, list(weights)).oracle()
        g_sys, I_greedy = _big_system(n, m)
        res_greedy, _ = greedy(f_greedy, I_greedy)
        r = len(res_greedy.solution.members)
        assert r == m  # rank 10 is achievable: uniform cap binds first

        trials = 200
        marginals = np.empty(trials)
        for t in range(trials):
            f = ModularObjective(g, list(weights)).oracle()
            _, I_t = _big_system(n, m)
            res = sample_greedy(f, I_t, rng=Rng(t, 3))
            marginals[t] = res.marginal_evals
        budget = 2.0 * (n + n * r / I.k)
        assert marginals.mean() <= budget, (marginals.mean(), budget)
        assert marginals.mean() < res_greedy.marginal_evals

        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        detail.append(
            f"n={n} r={r} k=3: mean sampled marginals {marginals.mean():.0f} "
            f"<= budget {budget:.0f}, greedy used {res_greedy.marginal_evals}, {elapsed:.1f}s"
        )


# ---------------------------------------------------------------------------
# 8. Reproducibility end to end; lazy scan is exactly the naive scan
# ---------------------------------------------------------------------------


def test_acceptance_8_reproducibility_and_lazy_equivalence(tmp_path):
    detail = []
    with criterion(8, "reproducibility + lazy equivalence", detail):
        t0 = time.monotonic()
        argv_for = lambda stem: [  # noqa: E731
            "bench", "--instance", "synth:kind=coverage_dispersion,n=14,seed=21",
            "--constraint", "uniform:3", "--alg", "greedy,sample-greedy,repeated-greedy",
            "--sweep", "m=2:5", "--trials", "6", "--seed", "1234",
            "--out", str(tmp_path / stem),
        ]
        assert cli_main(argv_for("first")) == 0
        assert cli_main(argv_for("second")) == 0
        first = (tmp_path / "first.jsonl").read_bytes()
        second = (tmp_path / "second.jsonl").read_bytes()
        assert first == second and len(first) > 0
        lines = [json.loads(l) for l in first.decode().splitlines()]
        assert all(r["wall_ms"] is None for r in lines)

        checked = 0
        kinds = ("coverage_dispersion", "cut", "weighted_coverage", "modular")
        for i in range(200):
            kind = kinds[i % 4]
            tie_free = i % 2 == 0
            f1, g = make_objective(kind, 10, 3000 + i, tie_free=tie_free)
            f2, _ = make_objective(kind, 10, 3000 + i, tie_free=tie_free)
            I1 = make_partition_intersection(10, 2, i)
            I2 = make_partition_intersection(10, 2, i)
            naive, t_naive = greedy(f1, I1)
            lazy, t_lazy = greedy(f2, I2, lazy=True)
            assert naive.solution == lazy.solution, (kind, i)
            assert naive.value == lazy.value
            assert [s.element for s in t_naive] == [s.element for s in t_lazy]
            checked += 1
        assert checked == 200

        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        detail.append(
            f"byte-identical rerun ({len(lines)} trial lines); "
            f"lazy == naive on 200 instances, {elapsed:.1f}s"
        )
