"""Solver behaviour: greedy variants, double greedy, sampling, brute force,
and the coin-flip-instrumented equivalent."""

from __future__ import annotations

import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from submax import (
    CapacityError,
    CutObjective,
    ExtensionState,
    GainState,
    GenreConstraint,
    GroundSet,
    IndependenceOracle,
    IntersectionSystem,
    ModularObjective,
    NonNegativityError,
    PartitionMatroid,
    PropertyViolation,
    Rng,
    UniformMatroid,
    bernoulli,
    brute_force_opt,
    default_rounds,
    greedy,
    instrumented_sample_greedy,
    max_feasible_size,
    objectives,
    repeated_greedy,
    repeated_greedy_bound,
    sample_greedy,
    sample_greedy_linear,
    unconstrained_max_det,
    unconstrained_max_rand,
    ValueOracle,
)
import reference
from conftest import (
    make_objective,
    make_partition_intersection,
    make_uniform_partition_system,
    reference_double_greedy,
)


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------


def test_greedy_picks_top_weights_under_uniform():
    g = GroundSet(6)
    f = ModularObjective(g, [5.0, 1.0, 4.0, 2.0, 3.0, 0.0]).oracle()
    res, trace = greedy(f, UniformMatroid(g, 3))
    assert res.solution.members == (0, 2, 4)
    assert res.value == 12.0
    assert [s.element for s in trace] == [0, 2, 4]  # descending gain order
    assert res.algorithm_name == "greedy"


def test_greedy_on_cut_path_stops_at_peak():
    g = GroundSet(3)
    f = CutObjective.from_edges(g, [(0, 1, 1.0), (1, 2, 1.0)]).oracle()
    res, trace = greedy(f, UniformMatroid(g, 3))
    assert res.solution.members == (1,)
    assert res.value == 2.0
    assert len(trace) == 1  # second step would have non-positive gain


def test_greedy_empty_ground_and_zero_weights():
    g0 = GroundSet(0)
    f0 = ModularObjective(g0, []).oracle()
    res, trace = greedy(f0, UniformMatroid(g0, 0))
    assert res.solution.members == () and res.value == 0.0 and trace == []

    g = GroundSet(4)
    fz = ModularObjective(g, [0.0] * 4).oracle()
    res, trace = greedy(fz, UniformMatroid(g, 2))
    assert res.solution.members == ()  # zero gain is not positive


def test_greedy_tie_breaks_to_smallest_id():
    g = GroundSet(4)
    f = ModularObjective(g, [2.0, 3.0, 3.0, 2.0]).oracle()
    res, trace = greedy(f, UniformMatroid(g, 2))
    assert [s.element for s in trace] == [1, 2]


def test_greedy_respects_candidate_pool():
    g = GroundSet(5)
    f = ModularObjective(g, [9.0, 1.0, 8.0, 2.0, 3.0]).oracle()
    res, _ = greedy(f, UniformMatroid(g, 2), candidates=[1, 3, 4])
    assert res.solution.members == (3, 4)
    res, _ = greedy(f, UniformMatroid(g, 2), candidates=np.array([4, 1, 3, 4, 1]))
    assert res.solution.members == (3, 4)  # any order, repeats dropped
    for bad in (-1, 5):  # -1 would alias element 4 in an array index
        with pytest.raises(ValueError, match=f"element {bad} outside"):
            greedy(f, UniformMatroid(g, 2), candidates=[1, bad])


@pytest.mark.parametrize("kind", ["modular", "cut", "coverage_dispersion",
                                  "weighted_coverage"])
def test_lazy_matches_naive_traces(kind):
    for seed in range(12):
        f1, g = make_objective(kind, 9, seed)
        f2, _ = make_objective(kind, 9, seed)
        I1 = make_partition_intersection(9, 2, seed)
        I2 = make_partition_intersection(9, 2, seed)
        r1, t1 = greedy(f1, I1)
        r2, t2 = greedy(f2, I2, lazy=True)
        assert r1.solution == r2.solution, (kind, seed)
        assert [(s.element, s.gain) for s in t1] == [(s.element, s.gain) for s in t2]
        assert r2.algorithm_name == "lazy-greedy"


def test_lazy_never_uses_more_marginals():
    for seed in range(6):
        f1, g = make_objective("coverage_dispersion", 10, seed)
        f2, _ = make_objective("coverage_dispersion", 10, seed)
        I1 = make_uniform_partition_system(10, 4, seed)
        I2 = make_uniform_partition_system(10, 4, seed)
        r1, _ = greedy(f1, I1)
        r2, _ = greedy(f2, I2, lazy=True)
        assert r2.marginal_evals <= r1.marginal_evals


def test_greedy_marginal_budget():
    # at most one marginal per (element, round): n + n*r overall
    for seed in range(8):
        n = 12
        f, g = make_objective("coverage_dispersion", n, seed)
        I = make_uniform_partition_system(n, 4, seed)
        res, _ = greedy(f, I)
        r = len(res.solution.members)
        assert res.marginal_evals <= n + n * r


def test_greedy_counts_are_deltas_not_totals():
    g = GroundSet(5)
    f = ModularObjective(g, [1, 2, 3, 4, 5]).oracle()
    f.value(g.full())  # pre-run usage must not leak into the report
    I = UniformMatroid(g, 2)
    I.is_independent(g.empty())
    res, _ = greedy(f, I)
    assert res.f_evals == f.eval_count - 1
    assert res.independence_checks == I.membership_count - 1


# ---------------------------------------------------------------------------
# double greedy
# ---------------------------------------------------------------------------


def test_double_greedy_det_keeps_everything_on_modular():
    g = GroundSet(5)
    f = ModularObjective(g, [1.0, 0.5, 2.0, 0.25, 1.5]).oracle()
    res = unconstrained_max_det(f, g.full())
    assert res.solution == g.full()
    assert res.value == 5.25
    assert res.algorithm_name == "double-greedy-det"


def test_double_greedy_det_on_single_edge():
    g = GroundSet(2)
    f = CutObjective.from_edges(g, [(0, 1, 1.0)]).oracle()
    res = unconstrained_max_det(f, g.full())
    assert res.value == 1.0 and res.solution.members == (0,)


def test_double_greedy_eval_budget():
    # two evaluations per element plus f(empty) and f(U), less the cache hits
    # of the evaluate loop, which the state-based run reproduces exactly
    for kind, n, seed in (("cut", 11, 3), ("coverage_dispersion", 11, 3), ("cut", 300, 1)):
        f, g = make_objective(kind, n, seed)
        res = unconstrained_max_det(f, g.full())
        ref_f, _ = make_objective(kind, n, seed)
        ref = reference_double_greedy(ref_f, g.full(), None, "reference")
        assert (res.solution, res.f_evals) == (ref.solution, ref.f_evals)
        assert 2 * g.n <= res.f_evals <= 2 * g.n + 2
    assert res.f_evals == 601  # the last element hits the cache


def test_double_greedy_det_third_of_optimum():
    for seed in range(10):
        f, g = make_objective("cut", 9, seed)
        res = unconstrained_max_det(f, g.full())
        f2, _ = make_objective("cut", 9, seed)
        opt = brute_force_opt(f2, UniformMatroid(g, 9))
        assert res.value >= opt.value / 3.0 - 1e-9


def test_double_greedy_rand_reproducible_and_seeded():
    f1, g = make_objective("cut", 10, 4)
    f2, _ = make_objective("cut", 10, 4)
    a = unconstrained_max_rand(f1, g.full(), Rng(7, 0))
    b = unconstrained_max_rand(f2, g.full(), Rng(7, 0))
    assert a.solution == b.solution and a.value == b.value
    assert a.seed == 7
    assert a.algorithm_name == "double-greedy-rand"


def test_double_greedy_restricted_universe():
    g = GroundSet(4)
    f = ModularObjective(g, [1.0, 2.0, 3.0, 4.0]).oracle()
    res = unconstrained_max_det(f, g.set([1, 2]))
    assert res.solution.members == (1, 2)  # never touches 0 or 3


# ---------------------------------------------------------------------------
# repeated greedy
# ---------------------------------------------------------------------------


def test_repeated_greedy_bound_values():
    assert repeated_greedy_bound(1, 2, 3.0) == pytest.approx(1.0 / 7.0)
    assert repeated_greedy_bound(3, 2, 3.0) == pytest.approx(1.0 / 11.0)
    # more rounds with cheaper alpha helps
    assert repeated_greedy_bound(4, 3, 2.0) > repeated_greedy_bound(4, 2, 3.0)


def test_default_rounds():
    assert default_rounds(1) == 1
    assert default_rounds(2) == 2
    assert default_rounds(4) == 2
    assert default_rounds(5) == 3
    assert default_rounds(9) == 3
    assert default_rounds(10) == 4


def test_repeated_greedy_single_round_composition():
    for seed in range(6):
        n = 10
        f1, g = make_objective("coverage_dispersion", n, seed)
        I1 = make_partition_intersection(n, 2, seed)
        res = repeated_greedy(f1, I1, ell=1)

        f2, _ = make_objective("coverage_dispersion", n, seed)
        I2 = make_partition_intersection(n, 2, seed)
        g_res, _ = greedy(f2, I2)
        u_res = unconstrained_max_det(f2, g_res.solution)
        assert res.value == max(g_res.value, u_res.value)


def test_repeated_greedy_auto_rounds_reported():
    f, g = make_objective("cut", 8, 1)
    I = make_partition_intersection(8, 4, 1)  # declared k = 4 -> auto ell = 2
    res = repeated_greedy(f, I, ell="auto")
    assert res.algorithm_name == "repeated-greedy-det"
    # ell=2 means two greedy passes over disjoint pools plus refinements
    f2, _ = make_objective("cut", 8, 1)
    I2 = make_partition_intersection(8, 4, 1)
    res2 = repeated_greedy(f2, I2, ell=2)
    assert res.value == res2.value and res.solution == res2.solution


def test_repeated_greedy_rounds_disjoint_and_best_reported():
    # with ell rounds the ground shrinks; the reported value beats or matches
    # every single-round outcome it examined
    f, g = make_objective("coverage_dispersion", 12, 8)
    I = make_uniform_partition_system(12, 5, 8)
    res = repeated_greedy(f, I, ell=3)
    f1, _ = make_objective("coverage_dispersion", 12, 8)
    I1 = make_uniform_partition_system(12, 5, 8)
    first, _ = greedy(f1, I1)
    assert res.value >= first.value  # round one is among the candidates


def test_repeated_greedy_validation():
    f, g = make_objective("cut", 6, 0)
    I = make_partition_intersection(6, 2, 0)
    with pytest.raises(ValueError):
        repeated_greedy(f, I, ell=0)


def test_repeated_greedy_rand_seeded():
    f1, g = make_objective("cut", 10, 2)
    I1 = make_partition_intersection(10, 2, 2)
    f2, _ = make_objective("cut", 10, 2)
    I2 = make_partition_intersection(10, 2, 2)
    a = repeated_greedy(f1, I1, ell=2, rng=Rng(3, 0))
    b = repeated_greedy(f2, I2, ell=2, rng=Rng(3, 0))
    assert a.solution == b.solution
    assert a.algorithm_name == "repeated-greedy-rand"
    assert a.seed == 3


# ---------------------------------------------------------------------------
# sample greedy
# ---------------------------------------------------------------------------


def test_sample_greedy_p_one_is_plain_greedy():
    for seed in range(10):
        f1, g = make_objective("coverage_dispersion", 10, seed)
        I1 = make_partition_intersection(10, 2, seed)
        f2, _ = make_objective("coverage_dispersion", 10, seed)
        I2 = make_partition_intersection(10, 2, seed)
        plain, _ = greedy(f1, I1)
        sampled = sample_greedy(f2, I2, rng=Rng(seed, 0), p=1.0)
        assert sampled.solution == plain.solution
        assert sampled.value == plain.value


def test_sample_greedy_default_probability_uses_declared_k():
    # statistically: expected sample size n/(k+1); check the mean over seeds
    n, k = 40, 3
    sizes = []
    for seed in range(60):
        f, g = make_objective("modular", n, 1000 + seed)
        I = make_partition_intersection(n, k, 0)
        res = sample_greedy(f, I, rng=Rng(seed, 0))
        sizes.append(res.independence_checks)  # one check per sampled element at least
    # crude sanity: far fewer checks than plain greedy's n*(r+1) scale
    assert sum(sizes) / len(sizes) < n * 3


def test_sample_greedy_probability_domain():
    f, g = make_objective("modular", 5, 0)
    I = make_partition_intersection(5, 1, 0)
    for bad in (0.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            sample_greedy(f, I, rng=Rng(0, 0), p=bad)


def test_sample_greedy_reproducible():
    f1, g = make_objective("cut", 12, 6)
    I1 = make_partition_intersection(12, 2, 6)
    f2, _ = make_objective("cut", 12, 6)
    I2 = make_partition_intersection(12, 2, 6)
    a = sample_greedy(f1, I1, rng=Rng(42, 5))
    b = sample_greedy(f2, I2, rng=Rng(42, 5))
    assert a.solution == b.solution
    assert a.seed == 42


def test_sample_greedy_linear_on_matroid_is_exact():
    # p = 1/k = 1 on a matroid: plain greedy, optimal for modular objectives
    for seed in range(8):
        n = 9
        f1, g = make_objective("modular", n, seed)
        I1 = make_uniform_partition_system(n, 4, seed, extra_parts=0)
        assert I1.k == 1
        res = sample_greedy_linear(f1, I1, rng=Rng(seed, 0))
        f2, _ = make_objective("modular", n, seed)
        I2 = make_uniform_partition_system(n, 4, seed, extra_parts=0)
        opt = brute_force_opt(f2, I2)
        assert res.value == opt.value


def test_sample_greedy_linear_zero_weights():
    g = GroundSet(6)
    f = ModularObjective(g, [0.0] * 6).oracle()
    I = make_partition_intersection(6, 2, 1)
    res = sample_greedy_linear(f, I, rng=Rng(1, 0))
    assert res.value == 0.0 and res.solution.members == ()


def test_sample_greedy_linear_rejects_non_modular():
    f, g = make_objective("cut", 6, 3)
    I = make_partition_intersection(6, 2, 3)
    with pytest.raises(ValueError, match="modular=True"):
        sample_greedy_linear(f, I, rng=Rng(0, 0))
    # the oracle's flag is the one attestation
    res = sample_greedy_linear(ValueOracle(f.objective.evaluate, g, modular=True), I, rng=Rng(0, 0))
    assert res.algorithm_name == "sample-greedy-linear"
    I = UniformMatroid(g, 2)
    I.k = 0
    with pytest.raises(ValueError, match="^declared k must be >= 1, got 0$"):
        sample_greedy_linear(ModularObjective(g, [1.0] * 6).oracle(), I, rng=Rng(0, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: default_rounds(0), "k must be >= 1, got 0"),
    (lambda: repeated_greedy_bound(2, 0, 3), "ell must be >= 1, got 0"),
], ids=["rounds-k-0", "bound-ell-0"])
def test_round_counts_below_one_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_brute_force_matches_manual_enumeration():
    g = GroundSet(8)
    f1, _ = make_objective("coverage_dispersion", 8, 5)
    I1 = make_partition_intersection(8, 2, 5)
    res = brute_force_opt(f1, I1)

    f2, _ = make_objective("coverage_dispersion", 8, 5)
    I2 = make_partition_intersection(8, 2, 5)
    best = -1.0
    for mask in range(1 << 8):
        S = g.set([e for e in range(8) if mask >> e & 1])
        if I2._accepts(S):
            best = max(best, f2.value(S))
    assert res.value == best


def test_brute_force_capacity_guard():
    g = GroundSet(23)
    f = ModularObjective(g, [1.0] * 23).oracle()
    with pytest.raises(CapacityError):
        brute_force_opt(f, UniformMatroid(g, 3))


@pytest.mark.parametrize("negative,first", [
    ({(3,), (0, 4)}, (0, 4)),  # {3} is first by size and by mask, {0, 4} in the walk
    ({(2,), (1, 2)}, (1, 2)),
    ({(0, 1, 4), (0, 2)}, (0, 1, 4)),
])
def test_brute_force_raises_on_the_first_negative_set_of_the_walk(negative, first):
    """A bare-function objective negative on two independent sets: the error
    names the one that the recursive reference search meets first."""
    def fn(S):
        return -1.0 if S.members in negative else float(len(S))

    g = GroundSet(5)
    messages = []
    for solve in (brute_force_opt, reference.brute_force_opt):
        with pytest.raises(NonNegativityError) as exc:
            solve(ValueOracle(fn, g), UniformMatroid(g, 3))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith(f"< 0 on {g.set(first)!r}")


def test_brute_force_holds_masks_not_sets():
    """At n = 18 under |S| <= 9 the search reaches 155,382 sets.  As int64
    masks they take 1.2 MiB an array, and the run peaks near 3.9 MiB, the
    levels being dropped once joined; holding one member tuple per set
    instead peaks near 24 MiB."""
    g = GroundSet(18)
    f = ModularObjective(g, np.arange(18) / 8).oracle()
    tracemalloc.start()
    try:
        res = brute_force_opt(f, UniformMatroid(g, 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.solution.members, res.f_evals) == (tuple(range(9, 18)), 155_382)
    assert peak < 5 * 2**20


def test_modular_brute_force_evaluates_no_set_one_at_a_time():
    """A modular objective's values come from its batch rule: ``evaluate``
    is never called, and the result and counts are the recursive search's."""
    g = GroundSet(10)
    runs = []
    for solve in (brute_force_opt, reference.brute_force_opt):
        with mock.patch.object(ModularObjective, "evaluate", autospec=True,
                               side_effect=ModularObjective.evaluate) as spy:
            f = ModularObjective(g, np.arange(10) / 8).oracle()
            res = solve(f, make_partition_intersection(10, 2, 3))
        runs.append((res.solution, res.value, res.f_evals, res.independence_checks, f.cached_base))
        if solve is brute_force_opt:
            assert spy.call_count == 0
        else:
            assert spy.call_count == res.f_evals > 0
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# instrumented sampling equivalent
# ---------------------------------------------------------------------------


def _paired_setup(seed: int, n: int = 10, k: int = 2):
    f1, g = make_objective("coverage_dispersion", n, seed)
    I1 = make_partition_intersection(n, k, seed)
    f2, _ = make_objective("coverage_dispersion", n, seed)
    I2 = make_partition_intersection(n, k, seed)
    f3, _ = make_objective("coverage_dispersion", n, seed)
    I3 = make_partition_intersection(n, k, seed)
    opt = brute_force_opt(f3, I3)
    return g, (f1, I1), (f2, I2), opt.solution


def test_instrumented_all_heads_matches_plain_greedy():
    g, (f1, I1), (f2, I2), opt = _paired_setup(3)
    plain, _ = greedy(f1, I1)
    res, trace = instrumented_sample_greedy(f2, I2, opt, coin_source=lambda u: True)
    assert res.solution == plain.solution
    assert res.value == plain.value
    assert (res.f_evals, res.marginal_evals) == (plain.f_evals, plain.marginal_evals)
    assert all(s.coin for s in trace)


def test_instrumented_paired_seed_equivalence():
    runs = 0
    for seed in range(50):
        g, (f1, I1), (f2, I2), opt = _paired_setup(seed % 10)
        p = 1.0 / (I1.k + 1.0)
        rng1, rng2 = Rng(seed, 0), Rng(seed, 0)
        direct = sample_greedy(f1, I1, rng=rng1)
        coins = {u: bernoulli(rng2, p) for u in g.elements}
        res, _ = instrumented_sample_greedy(f2, I2, opt, p=p,
                                            coin_source=lambda u: coins[u])
        assert res.solution == direct.solution, seed
        assert rng1.random() == rng2.random(), seed  # both streams at the same position
        runs += 1
    assert runs == 50


def test_instrumented_audits_hold_across_seeds():
    for seed in range(20):
        g, (f1, I1), (f2, I2), opt = _paired_setup(seed)
        res, trace = instrumented_sample_greedy(f2, I2, opt, rng=Rng(seed, 1))
        for step in trace:
            assert len(step.removed) <= I2.k
            assert step.y_u in (0, 1)


def test_instrumented_requires_independent_reference():
    g, (f1, I1), (f2, I2), _ = _paired_setup(1)
    dependent = g.full()
    assert not I2.is_independent(dependent)
    with pytest.raises(ValueError):
        instrumented_sample_greedy(f2, I2, dependent, rng=Rng(0, 0))


def test_instrumented_needs_coins_or_rng():
    g, (f1, I1), _, opt = _paired_setup(2)
    with pytest.raises(ValueError):
        instrumented_sample_greedy(f1, I1, opt)


def test_instrumented_audits_the_repair_size():
    """An intersection of two matroids declared as k = 1 needs two removals
    to restore O's independence, and fails the repair-size audit: picking 0
    into O = {1, 2} breaks block a with 1 and block b with 2."""
    g = GroundSet(3)
    I = IntersectionSystem([PartitionMatroid(g, {0: "a", 1: "a"}, {"a": 1}),
                            PartitionMatroid(g, {0: "b", 2: "b"}, {"b": 1})])
    I.k = 1
    f = ModularObjective(g, [3.0, 2.0, 2.0]).oracle()
    with pytest.raises(PropertyViolation) as info:
        instrumented_sample_greedy(f, I, g.set([1, 2]), coin_source=lambda u: True)
    assert (info.value.prop, info.value.iteration) == ("repair-size", 1)
    assert "|O_u|=2 exceeds k=1" in str(info.value)


def test_instrumented_audits_o_s_independence():
    """On a system that is not downward closed, with independent sets {},
    {0} and {0, 1}, a tails coin on 0 drops it from O = {0, 1} and leaves
    {1}, which is not independent: the P1 audit fires at iteration 1."""
    g = GroundSet(2)
    I = IndependenceOracle(lambda S: S.members in ((), (0,), (0, 1)), g)
    f = ModularObjective(g, [2.0, 1.0]).oracle()
    with pytest.raises(PropertyViolation,
                       match="^property P1 violated at iteration 1: O lost independence$") as info:
        instrumented_sample_greedy(f, I, g.set([0, 1]), coin_source=lambda u: False)
    assert (info.value.prop, info.value.iteration) == ("P1", 1)


def _constraint(kind: str, g: GroundSet, seed: int):
    gen = Rng(seed, 5).generator
    if kind == "uniform":
        return UniformMatroid(g, 4)
    if kind == "partition":
        block_of = {e: int(gen.integers(0, 3)) for e in g.elements}
        return PartitionMatroid(g, block_of, {0: 1, 1: 2, 2: 2})
    genre_of = {e: {f"g{int(i)}" for i in gen.choice(3, size=int(gen.integers(1, 3)), replace=False)}
                for e in g.elements}
    return GenreConstraint(g, genre_of, ["g0", "g1"], m=4, m_g=2)


@pytest.mark.parametrize("constraint", ["uniform", "partition", "genre"])
@pytest.mark.parametrize("kind", ["coverage_dispersion", "weighted_coverage", "cut"])
def test_greedy_family_leaves_its_solution_as_the_cached_base(kind, constraint):
    """Every greedy-family run leaves (solution, value) as the oracle's cached
    base: the base repeated greedy's unconstrained pass starts from."""
    for seed in range(3):
        runs = [lambda f, I: greedy(f, I)[0],
                lambda f, I: greedy(f, I, lazy=True)[0],
                lambda f, I: sample_greedy(f, I, rng=Rng(seed, 0)),
                lambda f, I: sample_greedy(f, I, rng=Rng(seed, 0), lazy=True)]
        runs += [lambda f, I, heads=heads: instrumented_sample_greedy(
                     f, I, f.ground.empty(), coin_source=lambda u: heads)[0]
                 for heads in (True, False)]
        for run in runs:
            f, g = make_objective(kind, 12, seed)
            res = run(f, _constraint(constraint, g, seed))
            assert f.cached_base == (res.solution, res.value), (res.algorithm_name, seed)


def test_property_violation_carries_context():

    err = PropertyViolation("P2", iteration=4, detail="S escaped O")
    assert err.prop == "P2" and err.iteration == 4
    assert "P2" in str(err)


# ---------------------------------------------------------------------------
# One rule per class: a subclass that restates its rule is answered by it
# ---------------------------------------------------------------------------


class _EvenOnly(UniformMatroid):
    """Restates ``_accepts`` alone: even ids only, at most m of them."""

    def _accepts(self, S):
        return len(S) <= self.m and all(e % 2 == 0 for e in S)


class _Doubled(ModularObjective):
    """Restates ``evaluate`` alone: twice the weight of S."""

    def evaluate(self, S):
        return 2.0 * ModularObjective.evaluate(self, S)


def _even_only(g, m):
    return IndependenceOracle(lambda S: len(S) <= m and all(e % 2 == 0 for e in S), g)


def _summaries(make_f, make_I) -> list:
    """Solutions, values and the three counts of the greedy family and of
    double greedy, each run on fresh oracles."""
    def summary(res):
        return (res.solution.members, res.value, res.f_evals, res.marginal_evals,
                res.independence_checks)

    out = []
    for lazy in (False, True):
        out.append(summary(greedy(make_f(), make_I(), lazy=lazy)[0]))
        out.append(summary(sample_greedy(make_f(), make_I(), rng=Rng(3, 0), p=0.8, lazy=lazy)))
        out.append(summary(repeated_greedy(make_f(), make_I(), ell=2, lazy=lazy)))
        out.append(summary(repeated_greedy(make_f(), make_I(), ell=2, rng=Rng(3, 1), lazy=lazy)))
    f = make_f()
    out.append(summary(unconstrained_max_det(f, f.ground.full())))
    out.append(summary(unconstrained_max_rand(f, f.ground.full(), Rng(3, 2))))
    return out


def test_a_subclass_that_restates_accepts_alone_is_answered_by_it():
    """The room rule's mask rule and extension state answer for the room
    rule only: greedy on ``_EvenOnly`` picks even ids, as a bare oracle with
    the same rule does, counts included (the room rule's state would admit
    [5, 6, 7], which the subclass rejects)."""
    g = GroundSet(8)
    make_f = lambda: ModularObjective(g, np.arange(1.0, 9.0)).oracle()  # noqa: E731
    runs = _summaries(make_f, lambda: _EvenOnly(g, 3))
    assert runs == _summaries(make_f, lambda: _even_only(g, 3))
    assert runs[0][0] == (2, 4, 6)
    assert _EvenOnly._accepts_masks is IndependenceOracle._accepts_masks
    assert type(_EvenOnly(g, 3).extension_state()) is ExtensionState


def test_max_feasible_size_asks_a_subclass_that_restates_accepts_alone(caplog):
    """Past the exhaustive cap (n = 20) the greedy bound runs on the
    subclass's own rule: 10 even ids, not the 15 of the parent's rooms;
    below it the levels ask the subclass one set at a time."""
    for n, m, size in ((20, 15, 10), (12, 4, 4)):
        ours, bare = _EvenOnly(GroundSet(n), m), _even_only(GroundSet(n), m)
        with caplog.at_level(logging.WARNING):
            assert max_feasible_size(ours) == max_feasible_size(bare) == size
        assert ours.membership_count == bare.membership_count


def test_a_subclass_that_restates_evaluate_alone_is_answered_by_it():
    """Greedy and double greedy value ``_Doubled``'s sets by its own
    ``evaluate``, as a bare oracle does, counts included (the weights' state
    would report half of each value)."""
    g = GroundSet(8)
    obj = _Doubled(g, np.arange(1.0, 9.0))
    runs = _summaries(obj.oracle, lambda: UniformMatroid(g, 3))
    assert runs == _summaries(lambda: ValueOracle(obj.evaluate, g), lambda: UniformMatroid(g, 3))
    assert runs[0][:2] == ((5, 6, 7), 42.0)
    assert runs[-2][:2] == (tuple(range(8)), 72.0)
    assert _Doubled.gain_state is None and _Doubled._evaluate_masks is None
    assert type(obj.oracle().gain_state()) is GainState
    assert brute_force_opt(obj.oracle(), UniformMatroid(g, 3)).value == 42.0


def test_an_evaluate_assigned_after_the_class_is_made_keeps_its_fast_forms(monkeypatch):
    """A wrapper assigned onto a class's ``evaluate`` (as a tracer does) is
    not a new rule: the cut keeps its dispersion state and the modular
    objective its batch rule and weights state."""
    calls = []

    def traced(fn):
        return lambda self, S: calls.append(S) or fn(self, S)

    for cls in (ModularObjective, CutObjective):
        monkeypatch.setattr(cls, "evaluate", traced(cls.evaluate))
    g = GroundSet(6)
    cut = CutObjective(g, np.ones((6, 6)) - np.eye(6)).oracle()
    assert type(cut.gain_state()) is objectives._DispersionGains
    modular = ModularObjective(g, np.arange(6.0)).oracle()
    assert type(modular.gain_state()) is objectives._ModularGains
    assert modular.values_masks([0, 2, 5], [1, 5, 7]).tolist() == [0.0, 5.0, 7.0]
    assert calls == []
    assert greedy(cut, UniformMatroid(g, 3))[0].value == 9.0
    assert len(calls) == 1  # f(∅) only: the gains come from the state
