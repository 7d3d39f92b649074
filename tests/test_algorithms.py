"""Solver behaviour: greedy variants, double greedy, sampling, brute force,
and the coin-flip-instrumented equivalent."""

from __future__ import annotations

import pytest

from submax import (
    CapacityError,
    CutObjective,
    GroundSet,
    ModularObjective,
    PropertyViolation,
    Rng,
    UniformMatroid,
    bernoulli,
    brute_force_opt,
    default_rounds,
    greedy,
    instrumented_sample_greedy,
    repeated_greedy,
    repeated_greedy_bound,
    sample_greedy,
    sample_greedy_linear,
    unconstrained_max_det,
    unconstrained_max_rand,
)
from conftest import make_objective, make_partition_intersection, make_uniform_partition_system


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


@pytest.mark.parametrize("kind", ["modular", "cut", "coverage_dispersion",
                                  "weighted_coverage"])
def test_lazy_matches_naive_traces(kind):
    for seed in range(12):
        f1, g = make_objective(kind, 9, seed)
        f2, _ = make_objective(kind, 9, seed)
        I1 = make_partition_intersection(9, 2, seed)
        I2 = make_partition_intersection(9, 2, seed)
        r1, t1 = greedy(f1, I1, g)
        r2, t2 = greedy(f2, I2, g, lazy=True)
        assert r1.solution == r2.solution, (kind, seed)
        assert [(s.element, s.gain) for s in t1] == [(s.element, s.gain) for s in t2]
        assert r2.algorithm_name == "lazy-greedy"


def test_lazy_never_uses_more_marginals():
    for seed in range(6):
        f1, g = make_objective("coverage_dispersion", 10, seed)
        f2, _ = make_objective("coverage_dispersion", 10, seed)
        I1 = make_uniform_partition_system(10, 4, seed)
        I2 = make_uniform_partition_system(10, 4, seed)
        r1, _ = greedy(f1, I1, g)
        r2, _ = greedy(f2, I2, g, lazy=True)
        assert r2.marginal_evals <= r1.marginal_evals


def test_greedy_marginal_budget():
    # at most one marginal per (element, round): n + n*r overall
    for seed in range(8):
        n = 12
        f, g = make_objective("coverage_dispersion", n, seed)
        I = make_uniform_partition_system(n, 4, seed)
        res, _ = greedy(f, I, g)
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
    for kind in ("cut", "coverage_dispersion"):
        f, g = make_objective(kind, 11, 3)
        res = unconstrained_max_det(f, g.full())
        assert 2 * g.n <= res.f_evals <= 2 * g.n + 2


def test_double_greedy_det_third_of_optimum():
    for seed in range(10):
        f, g = make_objective("cut", 9, seed)
        res = unconstrained_max_det(f, g.full())
        f2, _ = make_objective("cut", 9, seed)
        opt = brute_force_opt(f2, UniformMatroid(g, 9), g)
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
        res = repeated_greedy(f1, I1, g, ell=1)

        f2, _ = make_objective("coverage_dispersion", n, seed)
        I2 = make_partition_intersection(n, 2, seed)
        g_res, _ = greedy(f2, I2, g)
        u_res = unconstrained_max_det(f2, g_res.solution)
        assert res.value == max(g_res.value, u_res.value)


def test_repeated_greedy_auto_rounds_reported():
    f, g = make_objective("cut", 8, 1)
    I = make_partition_intersection(8, 4, 1)  # declared k = 4 -> auto ell = 2
    res = repeated_greedy(f, I, g, ell="auto")
    assert res.algorithm_name == "repeated-greedy-det"
    # ell=2 means two greedy passes over disjoint pools plus refinements
    f2, _ = make_objective("cut", 8, 1)
    I2 = make_partition_intersection(8, 4, 1)
    res2 = repeated_greedy(f2, I2, g, ell=2)
    assert res.value == res2.value and res.solution == res2.solution


def test_repeated_greedy_rounds_disjoint_and_best_reported():
    # with ell rounds the ground shrinks; the reported value beats or matches
    # every single-round outcome it examined
    f, g = make_objective("coverage_dispersion", 12, 8)
    I = make_uniform_partition_system(12, 5, 8)
    res = repeated_greedy(f, I, g, ell=3)
    f1, _ = make_objective("coverage_dispersion", 12, 8)
    I1 = make_uniform_partition_system(12, 5, 8)
    first, _ = greedy(f1, I1, g)
    assert res.value >= first.value  # round one is among the candidates


def test_repeated_greedy_validation():
    f, g = make_objective("cut", 6, 0)
    I = make_partition_intersection(6, 2, 0)
    with pytest.raises(ValueError):
        repeated_greedy(f, I, g, ell=0)
    with pytest.raises(ValueError):
        repeated_greedy(f, I, g, subroutine="nope")
    with pytest.raises(ValueError):
        repeated_greedy(f, I, g, subroutine="rand")  # rng required


def test_repeated_greedy_rand_seeded():
    f1, g = make_objective("cut", 10, 2)
    I1 = make_partition_intersection(10, 2, 2)
    f2, _ = make_objective("cut", 10, 2)
    I2 = make_partition_intersection(10, 2, 2)
    a = repeated_greedy(f1, I1, g, ell=2, subroutine="rand", rng=Rng(3, 0))
    b = repeated_greedy(f2, I2, g, ell=2, subroutine="rand", rng=Rng(3, 0))
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
        plain, _ = greedy(f1, I1, g)
        sampled = sample_greedy(f2, I2, g, rng=Rng(seed, 0), p=1.0)
        assert sampled.solution == plain.solution
        assert sampled.value == plain.value


def test_sample_greedy_default_probability_uses_declared_k():
    # statistically: expected sample size n/(k+1); check the mean over seeds
    n, k = 40, 3
    sizes = []
    for seed in range(60):
        f, g = make_objective("modular", n, 1000 + seed)
        I = make_partition_intersection(n, k, 0)
        res = sample_greedy(f, I, g, rng=Rng(seed, 0))
        sizes.append(res.independence_checks)  # one check per sampled element at least
    # crude sanity: far fewer checks than plain greedy's n*(r+1) scale
    assert sum(sizes) / len(sizes) < n * 3


def test_sample_greedy_probability_domain():
    f, g = make_objective("modular", 5, 0)
    I = make_partition_intersection(5, 1, 0)
    for bad in (0.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            sample_greedy(f, I, g, rng=Rng(0, 0), p=bad)


def test_sample_greedy_reproducible():
    f1, g = make_objective("cut", 12, 6)
    I1 = make_partition_intersection(12, 2, 6)
    f2, _ = make_objective("cut", 12, 6)
    I2 = make_partition_intersection(12, 2, 6)
    a = sample_greedy(f1, I1, g, rng=Rng(42, 5))
    b = sample_greedy(f2, I2, g, rng=Rng(42, 5))
    assert a.solution == b.solution
    assert a.seed == 42


def test_sample_greedy_linear_on_matroid_is_exact():
    # p = 1/k = 1 on a matroid: plain greedy, optimal for modular objectives
    for seed in range(8):
        n = 9
        f1, g = make_objective("modular", n, seed)
        I1 = make_uniform_partition_system(n, 4, seed, extra_parts=0)
        assert I1.k == 1
        res = sample_greedy_linear(f1, I1, g, rng=Rng(seed, 0))
        f2, _ = make_objective("modular", n, seed)
        I2 = make_uniform_partition_system(n, 4, seed, extra_parts=0)
        opt = brute_force_opt(f2, I2, g)
        assert res.value == opt.value


def test_sample_greedy_linear_zero_weights():
    g = GroundSet(6)
    f = ModularObjective(g, [0.0] * 6).oracle()
    I = make_partition_intersection(6, 2, 1)
    res = sample_greedy_linear(f, I, g, rng=Rng(1, 0))
    assert res.value == 0.0 and res.solution.members == ()


def test_sample_greedy_linear_rejects_non_modular():
    f, g = make_objective("cut", 6, 3)
    I = make_partition_intersection(6, 2, 3)
    with pytest.raises(ValueError):
        sample_greedy_linear(f, I, g, rng=Rng(0, 0))
    # explicit attestation overrides the flag check
    res = sample_greedy_linear(f, I, g, rng=Rng(0, 0), assume_modular=True)
    assert res.algorithm_name == "sample-greedy-linear"


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_brute_force_matches_manual_enumeration():
    g = GroundSet(8)
    f1, _ = make_objective("coverage_dispersion", 8, 5)
    I1 = make_partition_intersection(8, 2, 5)
    res = brute_force_opt(f1, I1, g)

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
        brute_force_opt(f, UniformMatroid(g, 3), g)


def test_brute_force_candidate_restriction():
    g = GroundSet(30)
    f = ModularObjective(g, list(range(30))).oracle()
    res = brute_force_opt(f, UniformMatroid(g, 2), g, candidates=list(range(10)))
    assert res.value == 17.0  # 8 + 9


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
    opt = brute_force_opt(f3, I3, g)
    return g, (f1, I1), (f2, I2), opt.solution


def test_instrumented_all_heads_matches_plain_greedy():
    g, (f1, I1), (f2, I2), opt = _paired_setup(3)
    plain, _ = greedy(f1, I1, g)
    res, trace = instrumented_sample_greedy(f2, I2, opt, g, coin_source=lambda u: True)
    assert res.solution == plain.solution
    assert res.value == plain.value
    assert (res.f_evals, res.marginal_evals) == (plain.f_evals, plain.marginal_evals)
    assert all(s.coin for s in trace)


def test_instrumented_paired_seed_equivalence():
    runs = 0
    for seed in range(50):
        g, (f1, I1), (f2, I2), opt = _paired_setup(seed % 10)
        p = 1.0 / (I1.k + 1.0)
        direct = sample_greedy(f1, I1, g, rng=Rng(seed, 0))
        rng2 = Rng(seed, 0)
        coins = {u: bernoulli(rng2, p) for u in g.elements}
        res, _ = instrumented_sample_greedy(f2, I2, opt, g, p=p,
                                            coin_source=lambda u: coins[u])
        assert res.solution == direct.solution, seed
        runs += 1
    assert runs == 50


def test_instrumented_audits_hold_across_seeds():
    for seed in range(20):
        g, (f1, I1), (f2, I2), opt = _paired_setup(seed)
        res, trace = instrumented_sample_greedy(f2, I2, opt, g, rng=Rng(seed, 1))
        for step in trace:
            assert len(step.removed) <= I2.k
            assert step.y_u in (0, 1)


def test_instrumented_requires_independent_reference():
    g, (f1, I1), (f2, I2), _ = _paired_setup(1)
    dependent = g.full()
    assert not I2.is_independent(dependent)
    with pytest.raises(ValueError):
        instrumented_sample_greedy(f2, I2, dependent, g, rng=Rng(0, 0))


def test_instrumented_needs_coins_or_rng():
    g, (f1, I1), _, opt = _paired_setup(2)
    with pytest.raises(ValueError):
        instrumented_sample_greedy(f1, I1, opt, g)


def test_property_violation_carries_context():
    err = PropertyViolation("P2", iteration=4, detail="S escaped O")
    assert err.prop == "P2" and err.iteration == 4
    assert "P2" in str(err)
