"""Oracle accounting, set algebra, and seeded randomness."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import submax
from submax import (
    CapacityError,
    ElementSet,
    GroundSet,
    ModularObjective,
    NonNegativityError,
    Rng,
    SolveResult,
    UniformMatroid,
    ValueOracle,
    bernoulli,
)
from submax.core import _CAPS

import reference


# ---------------------------------------------------------------------------
# GroundSet / ElementSet
# ---------------------------------------------------------------------------


def test_ground_set_basics():
    g = GroundSet(5)
    assert list(g.elements) == [0, 1, 2, 3, 4]
    assert len(g.empty()) == 0
    assert list(g.full()) == [0, 1, 2, 3, 4]
    assert g.set([3, 1]).members == (1, 3)
    with pytest.raises(ValueError):
        GroundSet(-1)
    with pytest.raises(ValueError):
        g.set([5])


def test_element_set_algebra():
    g = GroundSet(6)
    a = g.set([0, 2, 4])
    b = g.set([2, 3])
    assert a.with_element(1).members == (0, 1, 2, 4)
    assert a.without_element(2).members == (0, 4)
    assert a.difference(b).members == (0, 4)
    assert b.issubset(g.set([0, 2, 3, 4]))
    assert not a.issubset(b)
    assert 2 in a and 1 not in a
    assert a == g.set([4, 2, 0])
    assert hash(a) == hash(g.set([0, 2, 4]))


def test_duplicate_members_collapse():
    g = GroundSet(4)
    assert g.set([1, 1, 3]).members == (1, 3)


# ---------------------------------------------------------------------------
# ValueOracle accounting
# ---------------------------------------------------------------------------


def _spy_oracle(g: GroundSet):
    calls = []

    def fn(S: ElementSet) -> float:
        calls.append(tuple(S.members))
        return float(len(S))

    return ValueOracle(fn, g), calls


def test_eval_count_matches_raw_calls():
    g = GroundSet(6)
    f, calls = _spy_oracle(g)
    f.value(g.set([0, 1]))
    f.value(g.set([2]))
    reference.marginal(f, 3, g.set([0, 1]))
    assert f.eval_count == len(calls)


def test_value_cache_serves_repeat_queries():
    g = GroundSet(5)
    f, calls = _spy_oracle(g)
    s = g.set([1, 2])
    f.value(s)
    f.value(s)
    f.value(g.set([2, 1]))
    assert len(calls) == 1


def test_marginal_costs_two_then_one():
    g = GroundSet(5)
    f, calls = _spy_oracle(g)
    s = g.set([0])
    reference.marginal(f, 1, s)  # base not cached: evaluates S and S+e
    assert len(calls) == 2
    reference.marginal(f, 2, s)  # base now cached: evaluates only S+e
    assert len(calls) == 3
    assert f.marginal_count == 2


def test_marginal_value_is_difference():
    g = GroundSet(4)
    f = ValueOracle(lambda S: float(sum(S.members)) if len(S) else 0.0, g)
    s = g.set([1])
    assert reference.marginal(f, 3, s) == 3.0


def test_marginal_rejects_member_element():
    g = GroundSet(4)
    f = ValueOracle(lambda S: float(len(S)), g)
    with pytest.raises(ValueError):
        reference.marginal(f, 1, g.set([1, 2]))


def test_negative_value_raises():
    g = GroundSet(3)
    f = ValueOracle(lambda S: -1.0 if len(S) == 2 else 0.0, g)
    f.value(g.set([0]))
    with pytest.raises(NonNegativityError):
        f.value(g.set([0, 1]))


def test_set_base_preloads_cache():
    g = GroundSet(4)
    f, calls = _spy_oracle(g)
    s = g.set([0, 2])
    f.set_base(s, 2.0)
    assert f.value(s) == 2.0
    assert calls == []


# ---------------------------------------------------------------------------
# Rng / bernoulli
# ---------------------------------------------------------------------------


def test_rng_is_deterministic():
    a = [Rng(99, 3).random() for _ in range(5)]
    b = [Rng(99, 3).random() for _ in range(5)]
    assert a == b


def test_rng_streams_differ():
    a = [Rng(99, 0).random() for _ in range(5)]
    b = [Rng(99, 1).random() for _ in range(5)]
    assert a != b


def test_rng_seed_validation():
    with pytest.raises(ValueError):
        Rng(-1, 0)
    with pytest.raises(ValueError):
        Rng(2**64, 0)
    with pytest.raises(ValueError):
        Rng(0, -1)


def test_bernoulli_extremes_and_domain():
    r = Rng(5, 0)
    assert all(bernoulli(r, 1.0) for _ in range(100))
    assert not any(bernoulli(r, 0.0) for _ in range(100))
    with pytest.raises(ValueError):
        bernoulli(r, -0.1)
    with pytest.raises(ValueError):
        bernoulli(r, 1.1)


def test_bernoulli_mean_near_half():
    gen = Rng(1234, 0)
    draws = gen.generator.random(1_000_000) < 0.5
    assert abs(draws.mean() - 0.5) < 0.002
    # the scalar helper agrees with the vectorized path on a smaller sample
    r = Rng(1234, 1)
    mean = np.mean([bernoulli(r, 0.5) for _ in range(20_000)])
    assert abs(mean - 0.5) < 0.02


# ---------------------------------------------------------------------------
# Exhaustive caps
# ---------------------------------------------------------------------------


# Past its cap, max_feasible_size returns a greedy bound instead of refusing
# (test_constraints.py::test_max_feasible_size_warns_once_per_size_and_cap).
@pytest.mark.parametrize("name", sorted(set(_CAPS) - {"max_feasible_size"}))
def test_exhaustive_routines_refuse_their_cap_plus_one_before_any_query(name):
    n = _CAPS[name] + 1
    g = GroundSet(n)
    f = ModularObjective(g, [1.0] * n).oracle()
    I = UniformMatroid(g, 2)
    args = {"brute_force_opt": (f, I), "check_submodular": (f,),
            "check_monotone": (f,)}.get(name, (I,))
    with pytest.raises(CapacityError, match=f"^{name} is exhaustive; n={n} exceeds cap {n - 1}$"):
        getattr(submax, name)(*args)
    assert (f.eval_count, f.marginal_count, I.membership_count) == (0, 0, 0)


# ---------------------------------------------------------------------------
# SolveResult
# ---------------------------------------------------------------------------


def test_solve_result_is_frozen():
    g = GroundSet(3)
    res = SolveResult(
        solution=g.set([0]), value=1.0, f_evals=1, marginal_evals=0,
        independence_checks=0, wall_ms=0.1, seed=None, algorithm_name="x",
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = 2.0
