"""Property-based checks: set algebra against the built-in set model,
dyadic exactness, and solver feasibility on arbitrary systems."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from submax import (
    CoverageDispersionObjective,
    GroundSet,
    ModularObjective,
    UniformMatroid,
    greedy,
)
from submax.objectives import _value_table
from conftest import make_objective, make_partition_intersection

N = 12
members = st.lists(st.integers(min_value=0, max_value=N - 1), max_size=N)


@given(members, members)
@settings(max_examples=200, deadline=None)
def test_element_set_algebra_matches_set_model(a, b):
    g = GroundSet(N)
    A, B = g.set(a), g.set(b)
    sa, sb = set(a), set(b)
    assert set(A.difference(B)) == sa - sb
    assert A.issubset(B) == (sa <= sb)
    assert (A == B) == (sa == sb)


@given(members, st.integers(min_value=0, max_value=N - 1))
@settings(max_examples=200, deadline=None)
def test_with_without_element(a, e):
    g = GroundSet(N)
    A = g.set(a)
    assert set(A.with_element(e)) == set(a) | {e}
    assert set(A.without_element(e)) == set(a) - {e}
    assert list(A.with_element(e).members) == sorted(set(a) | {e})


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_generated_values_stay_dyadic(seed, n):
    f, g = make_objective("modular", n, seed)
    v = f.value(g.full())
    assert v * 8 == int(v * 8)  # eighths are exact in binary floats


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_greedy_output_is_always_independent(seed, k):
    n = 8
    f, g = make_objective("coverage_dispersion", n, seed)
    I = make_partition_intersection(n, k, seed)
    res, trace = greedy(f, I)
    probe = make_partition_intersection(n, k, seed)
    assert probe.is_independent(res.solution)
    # gains recorded along the trace are non-increasing only for modular f;
    # here we check the weaker invariant that every recorded gain is positive
    assert all(s.gain > 0 for s in trace)


@given(st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=10),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=100, deadline=None)
def test_greedy_modular_uniform_selects_top_m(nums, m):
    weights = [x / 8.0 for x in nums]
    g = GroundSet(len(weights))
    f = ModularObjective(g, weights).oracle()
    res, _ = greedy(f, UniformMatroid(g, m))
    expected = sum(sorted((w for w in weights if w > 0), reverse=True)[:m])
    assert res.value == expected


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
       st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_coverage_dispersion_is_non_negative_on_real_valued_data(seed, n, lam, zero_diag, data):
    gen = np.random.default_rng(seed)
    s = gen.random((n, n)) * 10.0 ** gen.integers(-3, 4, size=(n, n))
    s = s + s.T
    if zero_diag:
        np.fill_diagonal(s, 0.0)
    universe = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True))
    f = CoverageDispersionObjective(GroundSet(n), s, lam=lam, universe_u=universe).oracle()
    assert (_value_table(f, sorted(universe)) >= 0.0).all()  # the oracle raises below 0
