"""Batched incremental gains against the evaluate-difference reference.

An objective's own oracle (``obj.oracle()``) scores greedy candidates with the
objective's incremental-gain state; ``ValueOracle(obj.evaluate, ground)``
wraps no objective and scores them by evaluate-differences.  On dyadic data
the two must agree exactly, counts included.  On real-valued data every
batched greedy step must be a reference greedy step within a float64
tolerance, with lazy greedy still equal to the naive scan.

Double greedy runs on two states, one grown by adds and one shrunk by
removes.  Its reference is the evaluate loop over X + u and Y - u
(``conftest.reference_double_greedy``), under the same two rules.
"""

from __future__ import annotations

import contextlib
import functools
import os
from fractions import Fraction
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from submax import (
    CoverageDispersionObjective,
    CutObjective,
    GainState,
    GenreConstraint,
    GroundSet,
    HardInstance,
    IntersectionSystem,
    ModularObjective,
    NonNegativityError,
    PartitionMatroid,
    Rng,
    SyntheticSpec,
    UniformMatroid,
    ValueOracle,
    WeightedCoverageObjective,
    algorithms,
    generate,
    objectives,
    greedy,
    repeated_greedy,
    sample_greedy,
    unconstrained_max_det,
    unconstrained_max_rand,
)
from conftest import make_partition_intersection, reference_double_greedy
import reference

KINDS = ("modular", "cut", "coverage_dispersion", "weighted_coverage")
CONSTRAINTS = ("uniform", "partition", "genre")
# Real-valued data lies in [0, 1) on at most 10 elements (20 items), so a value
# sums a few hundred float64 terms below 100: its rounding error stays below
# 1e-11.  The tolerance is fixed well above that.
TOL = 1e-9


def make_constraint(kind: str, n: int, seed: int):
    """A fresh constraint oracle, the same system for the same arguments."""
    g = GroundSet(n)
    if kind == "uniform":
        return UniformMatroid(g, max(1, n // 3))
    if kind == "partition":
        return make_partition_intersection(n, 2, seed)
    gen = Rng(seed, 5).generator
    labels = ("a", "b", "c")
    genre_of = {e: {labels[int(i)] for i in gen.choice(3, size=int(gen.integers(1, 3)),
                                                       replace=False)}
                for e in range(n)}
    return GenreConstraint(g, genre_of, ["a", "b"], m=max(1, n // 2), m_g=2)


def run_all(make_oracle, g: GroundSet, constraint: str, seed: int) -> list:
    """Every greedy-family run on fresh oracles: summaries and greedy traces."""
    out = []

    def summary(res):
        return (res.solution.members, res.value, res.f_evals, res.marginal_evals,
                res.independence_checks)

    for lazy in (False, True):
        res, trace = greedy(make_oracle(), make_constraint(constraint, g.n, seed), lazy=lazy)
        out.append((summary(res), [(s.element, s.gain, s.value_after) for s in trace]))
        res = sample_greedy(make_oracle(), make_constraint(constraint, g.n, seed),
                            rng=Rng(seed, 1), p=0.7, lazy=lazy)
        out.append(summary(res))
        res = repeated_greedy(make_oracle(), make_constraint(constraint, g.n, seed),
                              ell=2, lazy=lazy)
        out.append(summary(res))
    return out


def real_objective(kind: str, n: int, seed: int, density: float, lam: float):
    """An objective on real-valued (non-dyadic) data."""
    gen = np.random.default_rng(seed)
    g = GroundSet(n)
    if kind == "modular":
        return ModularObjective(g, gen.random(n)), g
    if kind == "weighted_coverage":
        covers = [np.flatnonzero(row).tolist() for row in gen.random((n, 2 * n)) < density]
        return WeightedCoverageObjective(g, covers, gen.random(2 * n).tolist()), g
    upper = np.triu(gen.random((n, n)) * (gen.random((n, n)) < density), 1)
    w = upper + upper.T
    if kind == "cut":
        return CutObjective(g, w), g
    np.fill_diagonal(w, gen.random(n))
    return CoverageDispersionObjective(g, w, lam=lam), g


instances = st.tuples(
    st.sampled_from(KINDS),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from((0.2, 0.5, 0.9)),
    st.sampled_from(CONSTRAINTS),
)


@given(instances, st.sampled_from((0.0, 0.5, 1.0)))
@settings(max_examples=300, deadline=None)
def test_batched_gains_equal_reference_on_dyadic_data(instance, lam):
    kind, n, seed, density, constraint = instance
    f, g = generate(SyntheticSpec(kind=kind, n=n, seed=seed, density=density, lam=lam))
    obj = f.objective
    batched = run_all(obj.oracle, g, constraint, seed)
    reference = run_all(lambda: ValueOracle(obj.evaluate, g), g, constraint, seed)
    assert batched == reference


def reference_gains(obj, I, S):
    """Evaluate-difference gains of every candidate u with S + u independent."""
    base = obj.evaluate(S)
    return {u: obj.evaluate(S.with_element(u)) - base
            for u in S.universe if u not in S and I.is_independent(S.with_element(u))}


# An exact structural tie: elements 1 and 5 both gain w[4] at one step, and
# evaluate-differences put 5 one ulp ahead, so the reference run picks 5 and
# the batched run 1, and the two runs end at different values (3.044 and
# 3.485).  Only the per-step property below holds across such ties.
@example(instance=("weighted_coverage", 6, 566179, 0.2, "partition"), lam=0.0)
@given(instance=instances, lam=st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=300, deadline=None)
def test_batched_gains_match_reference_on_real_data(instance, lam):
    kind, n, seed, density, constraint = instance
    obj, g = real_objective(kind, n, seed, density, lam)
    I = make_constraint(constraint, n, seed)
    runs = []
    for lazy in (False, True):
        res, trace = greedy(obj.oracle(), make_constraint(constraint, n, seed), lazy=lazy)
        # every step is a reference greedy step, within the float64 tolerance
        S = g.empty()
        for step in trace:
            ref = reference_gains(obj, I, S)
            assert step.element in ref
            assert ref[step.element] >= max(ref.values()) - TOL
            S = S.with_element(step.element)
            assert abs(step.value_after - obj.evaluate(S)) <= TOL
        assert max(reference_gains(obj, I, S).values(), default=0.0) <= TOL
        assert res.solution == S
        runs.append((res.solution, res.value, trace))
    # lazy == naive in solution, value and trace under the batched path
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Greedy runs against the public checked queries
# ---------------------------------------------------------------------------

# (k, h, m) of the hard instances: n = h * k * m elements
HARD = ((2, 4, 1), (1, 2, 5), (2, 4, 2), (3, 6, 1))


def run_constraint(kind: str, n: int, seed: int):
    """A fresh constraint of each shape a greedy run can meet; ``hard-M``
    and ``hard-M'`` take ``n`` from the (k, h, m) indexed by ``seed``."""
    g = GroundSet(n)
    if kind == "partition":
        return PartitionMatroid(g, {e: e % 3 for e in range(n) if e % 4}, {0: 1, 1: 2, 2: 0})
    if kind == "intersection":
        parts = make_partition_intersection(n, 2, seed).components
        return IntersectionSystem([*parts, UniformMatroid(g, max(1, n // 2))])
    if kind.startswith("hard"):
        return HardInstance(*HARD[seed % len(HARD)], mode=kind[5:])
    return make_constraint(kind, n, seed)


def greedy_outcome(solve, make_oracle, make_I, candidates, lazy):
    """What a greedy run leaves behind, on fresh oracles: its result and
    trace, or its error, then the oracles' counts, the cached base and each
    intersection component's count."""
    f, I = make_oracle(), make_I()
    try:
        res, trace = solve(f, I, candidates=candidates, lazy=lazy)
        out = (res.solution, res.value, res.f_evals, res.marginal_evals,
               res.independence_checks, res.algorithm_name, trace)
    except (NonNegativityError, ValueError) as e:
        out = (type(e), str(e))
    parts = [c.membership_count for c in getattr(I, "components", ())]
    return out, f.eval_count, f.marginal_count, I.membership_count, parts, f.cached_base


runs = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from(("objective", "bare")),
    st.sampled_from(("dyadic", "real")),
    st.sampled_from(("uniform", "partition", "genre", "intersection", "hard-M", "hard-M'")),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from((0.2, 0.5, 0.9)),
    st.sampled_from((0.0, 0.5, 1.0)),
    st.booleans(),
)


@example(run=("weighted_coverage", "objective", "dyadic", "uniform", 12, 1, 0.5, 0.0, False))
@example(run=("weighted_coverage", "objective", "real", "intersection", 12, 1, 0.5, 0.0, True))
@example(run=("modular", "bare", "dyadic", "hard-M", 0, 2, 0.5, 0.0, False))
@example(run=("weighted_coverage", "objective", "dyadic", "partition", 12, 1, 0.5, 0.0, True))
@example(run=("weighted_coverage", "objective", "dyadic", "genre", 12, 2, 0.2, 0.0, False))
@example(run=("coverage_dispersion", "objective", "dyadic", "uniform", 300, 1, 0.5, 0.5, False))
@given(run=runs)
@settings(max_examples=300, deadline=None)
def test_greedy_runs_equal_the_checked_query_reference(run):
    """Plain and lazy greedy, asking their states directly, equal the
    reference run through ``ValueOracle.gains`` and
    ``IndependenceOracle.extensions``: solution, value, trace, the
    three counts, the cached base and each intersection component's count,
    on every objective (weighted coverage certified on dyadic data and, as
    in the second example, not on real data; and a bare-function oracle)
    and every constraint.  Certified coverage under a partition or genre
    constraint replays the lazy heap by rank; the last example fills a
    uniform matroid at n = 300, so its lazy heap drains at once."""
    kind, wrap, data, constraint, n, seed, density, lam, pooled = run
    if constraint.startswith("hard"):
        n = int(np.prod(HARD[seed % len(HARD)]))
    if data == "dyadic":
        obj = generate(SyntheticSpec(kind=kind, n=n, seed=seed, density=density, lam=lam))[0].objective
    else:
        obj = real_objective(kind, n, seed, density, lam)[0]
    g = obj.ground
    make_oracle = obj.oracle if wrap == "objective" else lambda: ValueOracle(obj.evaluate, g)
    candidates = np.flatnonzero(Rng(seed, 3).generator.random(n) < 0.6) if pooled else None
    for lazy in (False, True):
        outcomes = [greedy_outcome(solve, make_oracle, lambda: run_constraint(constraint, n, seed),
                                   candidates, lazy)
                    for solve in (greedy, reference.greedy)]
        assert outcomes[0] == outcomes[1]


class _SignedGains(GainState):
    """Modular gains whose candidate ``bad`` scores ``value`` once S holds ``after``."""

    def __init__(self, weights, bad, value, after):
        self._weights, self._bad, self._value, self._after = weights, bad, value, after
        self._S = set()

    def add(self, u):
        self._S.add(u)

    def gains(self, candidates):
        return np.array([self.gain(int(u)) for u in candidates])

    def gain(self, u):
        return self._value if u == self._bad and self._after <= self._S else float(self._weights[u])


@pytest.mark.parametrize("lazy", (False, True))
@pytest.mark.parametrize("how", ("bare-function", "negative-gain", "nan-gain"))
def test_a_negative_value_mid_run_raises_as_the_checked_queries_do(how, lazy):
    """A run that meets f(S + u) < 0 (or NaN) at S = {0} and u = 1 raises
    the message of the checked queries, at the same counts and cached base:
    from the evaluate-difference state of a bare-function oracle, or from
    the sign check on a state's gain."""
    g = GroundSet(4)
    weights = [8.0, 4.0, 2.0, 1.0]

    def make_oracle():
        if how == "bare-function":
            return ValueOracle(lambda S: -1.0 if S.members == (0, 1) else sum(weights[e] for e in S), g,
                               name="bare")
        f = ModularObjective(g, weights).oracle(name="modular")
        bad = -20.0 if how == "negative-gain" else float("nan")
        f.gain_state = lambda: _SignedGains(weights, 1, bad, {0})
        return f

    outcomes = [greedy_outcome(solve, make_oracle, lambda: UniformMatroid(g, 3), None, lazy)
                for solve in (greedy, reference.greedy)]
    assert outcomes[0] == outcomes[1]
    shown = {"bare-function": "-1.0", "negative-gain": "-12.0", "nan-gain": "nan"}[how]
    assert outcomes[0][0] == (NonNegativityError,
                              f"oracle {'bare' if how == 'bare-function' else 'modular'!r} returned "
                              f"{shown} < 0 on ElementSet([0, 1])")


class _SignedVector(GainState):
    """Modular gains kept current in ``vector``, as a certified coverage
    state keeps them, except that each candidate of ``bad`` scores
    ``value`` once S holds ``after``: lazy greedy replays its heap by rank."""

    def __init__(self, weights, bad, value, after):
        self.vector = np.array(weights, dtype=float)
        self._bad, self._value, self._after, self._S = list(bad), value, after, set()

    def add(self, u):
        self._S.add(u)
        if self._after <= self._S:
            self.vector[self._bad] = self._value

    def gains(self, candidates):
        return self.vector[np.asarray(candidates, dtype=np.intp)]

    def gain(self, u):
        return float(self.vector[u])


@pytest.mark.parametrize("bad, value, raised", [
    ([2, 3], -20.0, "-12.0"),
    ([2, 3], float("nan"), "nan"),
    ([4], -20.0, None),
])
def test_a_bad_gain_in_the_replayed_heap_raises_where_the_heap_does(bad, value, raised):
    """At S = {0}, f(S) = 8, the candidates ``bad`` turn negative or NaN.
    The heap pops 3 (stale gain 4) before 2 (stale gain 2), so a replayed
    run raises on S + 3, not on the lowest id, at the heap's counts and
    cached base; a bad candidate that ranks after each round's pick is never
    popped, and the run goes on as the heap's does."""
    g = GroundSet(5)
    weights = [8.0, 1.0, 2.0, 4.0, 0.5]

    def make_oracle():
        f = ModularObjective(g, weights).oracle(name="modular")
        f.gain_state = lambda: _SignedVector(weights, bad, value, {0})
        return f

    with mock.patch.object(algorithms, "_replay", wraps=algorithms._replay) as replay:
        outcomes = [greedy_outcome(solve, make_oracle, lambda: UniformMatroid(g, 3), None, True)
                    for solve in (greedy, reference.greedy)]
    assert replay.call_count == 1
    assert outcomes[0] == outcomes[1]
    if raised is None:
        assert outcomes[0][0][0] == g.set([0, 2, 3])
    else:
        assert outcomes[0][0] == (NonNegativityError,
                                  f"oracle 'modular' returned {raised} < 0 on ElementSet([0, 3])")


@functools.lru_cache(maxsize=None)
def certified_coverage_at(n: int, density: float) -> WeightedCoverageObjective:
    obj = generate(SyntheticSpec(kind="weighted_coverage", n=n, seed=1, density=density))[0].objective
    assert obj._exact
    return obj


def room_system(kind: str, n: int):
    """A uniform, partition or genre constraint at size ``n``.  The uniform
    and genre ones can fill up; every seventh element is free of the
    partition, which never does."""
    g = GroundSet(n)
    if kind == "uniform":
        return UniformMatroid(g, n // 30)
    if kind == "partition":
        return PartitionMatroid(g, {e: e % 16 for e in range(n) if e % 7}, {b: 1 + b % 4 for b in range(16)})
    gen = Rng(n, 5).generator
    labels = ("a", "b", "c", "d")
    genre_of = {e: {labels[int(i)] for i in gen.choice(4, size=int(gen.integers(1, 3)), replace=False)}
                for e in range(n)}
    return GenreConstraint(g, genre_of, ["a", "b", "c"], m=40, m_g=15)


def heap_only():
    """Run every lazy greedy on the heap: the replay hands all its entries over."""
    return mock.patch.object(algorithms, "_replay", lambda run, pool, gains: (pool, gains, 0))


@pytest.mark.parametrize("pooled", (False, True))
@pytest.mark.parametrize("constraint", CONSTRAINTS)
@pytest.mark.parametrize("density", (0.01, 0.05, 0.5))
@pytest.mark.parametrize("n", (300, 2000))
def test_replayed_lazy_runs_equal_the_heap_at_real_sizes(n, density, constraint, pooled):
    """On certified weighted coverage under a room system, lazy greedy
    replayed by rank equals the reference heap of checked queries in
    solution, value, trace, the three counts and the cached base, over
    tens of rounds and, where the constraint fills up, the round in which
    nothing fits; lazy sample and repeated greedy equal their heap-only
    runs."""
    obj = certified_coverage_at(n, density)
    candidates = np.flatnonzero(Rng(n, 3).generator.random(n) < 0.6) if pooled else None
    outcomes = [greedy_outcome(solve, obj.oracle, lambda: room_system(constraint, n), candidates, True)
                for solve in (greedy, reference.greedy)]
    assert outcomes[0] == outcomes[1]

    def others():
        out = []
        for run in (lambda f, I: sample_greedy(f, I, rng=Rng(n, 1), lazy=True),
                    lambda f, I: repeated_greedy(f, I, ell=2, lazy=True)):
            f, I = obj.oracle(), room_system(constraint, n)
            res = run(f, I)
            out.append((res.solution, res.value, res.f_evals, res.marginal_evals,
                        res.independence_checks, f.cached_base))
        return out

    replayed = others()
    with heap_only():
        assert others() == replayed


@pytest.mark.parametrize("constraint", ("uniform", "genre"))
def test_a_full_room_system_drains_the_lazy_heap_at_its_counts(constraint):
    """Dispersion keeps the heap; once a room system's mask is empty, the
    entries left count one check each, as the one-by-one drops do."""
    obj = generate(SyntheticSpec(kind="coverage_dispersion", n=300, seed=1, lam=0.5))[0].objective
    outcomes = [greedy_outcome(solve, obj.oracle, lambda: room_system(constraint, 300), None, True)
                for solve in (greedy, reference.greedy)]
    assert outcomes[0] == outcomes[1]
    I = room_system(constraint, 300)
    ext = I.extension_state()
    for u in outcomes[0][0][0]:
        ext.add(u)
    assert not ext.open.any()


@pytest.mark.parametrize("kind", KINDS)
def test_gain_of_a_candidate_does_not_depend_on_its_batch(kind):
    obj, g = real_objective(kind, 12, 4, 0.5, 0.5)
    state = obj.gain_state()
    for u in (3, 7):
        state.add(u)
    rest = [u for u in g if u not in (3, 7)]
    whole = state.gains(rest)
    assert whole.tolist() == [state.gains([u])[0] for u in rest]
    assert whole[::-1].tolist() == state.gains(rest[::-1]).tolist()


@pytest.mark.parametrize("kind", KINDS)
def test_objective_state_equals_evaluate_differences(kind):
    f, g = generate(SyntheticSpec(kind=kind, n=9, seed=11, density=0.5))
    ref_oracle = ValueOracle(f.objective.evaluate, g)
    state, ref = f.objective.gain_state(), GainState(ref_oracle)
    S = g.empty()
    for u in (4, 0, 8):
        rest = [e for e in g if e not in S]
        assert f.gains(state, S, rest).tolist() == ref_oracle.gains(ref, S, rest).tolist()
        S = S.with_element(u)
        state.add(u)
        ref.add(u)


def test_coverage_dispersion_candidates_outside_universe_raise():
    f, g = generate(SyntheticSpec(kind="coverage_dispersion", n=8, seed=2))
    obj = CoverageDispersionObjective(g, f.objective.similarity, lam=0.5,
                                      universe_u=[0, 1, 2, 3])
    for oracle in (obj.oracle(), ValueOracle(obj.evaluate, g)):
        for lazy in (False, True):
            with pytest.raises(ValueError, match="restricted universe"):
                greedy(oracle, UniformMatroid(g, 3), lazy=lazy)
        with pytest.raises(ValueError, match="restricted universe"):
            unconstrained_max_det(oracle, g.full())
    res, _ = greedy(obj.oracle(), UniformMatroid(g, 3), candidates=[0, 1, 2, 3])
    assert res.solution.issubset(obj.universe_u)
    with pytest.raises(ValueError, match=r"^set leaves the restricted universe: elements \[5\]$"):
        obj.gain_state().gain(5)  # the scalar path, as the batch one


@pytest.mark.parametrize("kind", [*KINDS, "negative_zero_coverage"])
def test_scalar_gain_is_its_batch_entry_bit_for_bit(kind):
    # 40 elements over 80 items: a weighted-coverage gain sums ~40 weights,
    # where np.sum's pairwise blocks would round differently from bincount
    if kind == "negative_zero_coverage":
        # -0.0 passes the sign check; elements 0 and 1 cover only -0.0 items,
        # which bincount adds to 0.0 from its 0.0 start
        g = GroundSet(40)
        covers = [[0, 1], [1]] + [[i] for i in range(2, 40)]
        obj = WeightedCoverageObjective(g, covers, [-0.0, -0.0] + [0.5] * 38)
    else:
        obj, g = real_objective(kind, 40, 4, 0.5, 0.5)
    state = obj.gain_state()
    for u in (3, 7, 9, 20):
        state.add(u)
    state.remove(7)
    rest = [u for u in g if u not in (3, 9, 20)]
    assert np.array([state.gain(u) for u in rest]).tobytes() == state.gains(rest).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_state_gains_and_losses_equal_evaluate_differences(kind):
    f, g = generate(SyntheticSpec(kind=kind, n=9, seed=11, density=0.5))
    state, ref = f.objective.gain_state(), GainState(ValueOracle(f.objective.evaluate, g))
    S = g.empty()
    for u, adding in ((4, True), (0, True), (8, True), (2, True), (0, False), (8, False),
                      (6, True), (4, False)):
        if adding:
            S = S.with_element(u)
            state.add(u)
            ref.add(u)
        else:
            S = S.without_element(u)
            state.remove(u)
            ref.remove(u)
        assert [state.loss(v) for v in S] == [ref.loss(v) for v in S]
        rest = [v for v in g if v not in S]
        assert [state.gain(v) for v in rest] == [ref.gain(v) for v in rest]
        assert state.gains(rest).tolist() == [ref.gain(v) for v in rest]


# Weights whose every sum is exact (multiples of 1/8 far below 2^50), zeros of
# both signs included
EXACT_WEIGHTS = st.sampled_from((0.0, -0.0, 0.125, 0.5, 1.0, 3.0, 7.25, 63.875))


@st.composite
def certified_coverage(draw):
    """A weighted-coverage objective on certified weights, its covers free to
    repeat an item or be empty, and a sequence of elements to toggle in and
    out of S."""
    n = draw(st.integers(min_value=1, max_value=8))
    n_items = draw(st.integers(min_value=0, max_value=10))
    item = st.integers(min_value=0, max_value=max(n_items - 1, 0))
    covers = draw(st.lists(st.lists(item, max_size=6 if n_items else 0), min_size=n, max_size=n))
    weights = draw(st.lists(EXACT_WEIGHTS, min_size=n_items, max_size=n_items))
    toggles = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=14))
    first_batch = draw(st.integers(min_value=0, max_value=len(toggles)))
    return WeightedCoverageObjective(GroundSet(n), covers, weights), toggles, first_batch


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@given(certified_coverage())
@settings(max_examples=300, deadline=None)
def test_certified_coverage_vector_equals_evaluate_differences_bit_for_bit(case):
    # the vector state, entered at its first batch after any number of adds and
    # removes, gives the evaluate-differences of certified data bit for bit
    obj, toggles, first_batch = case
    g = obj.ground
    assert obj._exact
    state, ref = obj.gain_state(), GainState(ValueOracle(obj.evaluate, g))
    S = g.empty()
    for step, u in enumerate([None, *toggles]):
        if u is not None:
            adding = u not in S
            for st_ in (state, ref):
                (st_.add if adding else st_.remove)(u)
            S = S.with_element(u) if adding else S.without_element(u)
        rest = [v for v in g if v not in S]
        if step >= first_batch:
            assert _bits(state.gains(rest)) == _bits(ref.gains(rest))
        assert (state.vector is not None) == (step >= first_batch)
        assert _bits([state.gain(v) for v in rest]) == _bits([ref.gain(v) for v in rest])
        assert _bits([state.loss(v) for v in S]) == _bits([ref.loss(v) for v in S])


@pytest.mark.parametrize("covers, weights", [
    ([[], [0, 2], [], [1], []], [0.5, 1.25, 3.0]),  # empty first, middle and last rows
    ([[0, 1], [2], [0, 2], [1]], [-0.0, -0.0, 0.0]),  # rows of only -0.0, and -0.0 beside 0.0
    ([[1], [0, 1, 2], [2]], [0.0, -0.0, 7.25]),
    ([[], [], []], []),  # no items at all
    ([[]], [2.0]),
], ids=["empty-rows", "negative-zero-rows", "mixed-zeros", "no-items", "one-empty-row"])
def test_first_gain_vector_equals_the_in_order_sums_bit_for_bit(covers, weights):
    """The certified state's first vector, one reduceat segment per row, is
    the bincount of every row's remaining weights, before and after adds."""
    obj = WeightedCoverageObjective(GroundSet(len(covers)), covers, weights)
    assert obj._exact
    state = obj.gain_state()
    every = np.arange(obj.ground.n)
    for u in (None, *range(obj.ground.n)):
        if u is not None:
            state.add(u)
        assert _bits(state._row_sums()) == _bits(state._sums(every))
    assert _bits(obj.gain_state().gains(every)) == _bits(obj.gain_state()._sums(every))


@pytest.mark.parametrize("weights, exact", [
    ([], True),
    ([0.0, -0.0], True),
    ([2.0 ** 52, 2.0 ** 52 - 1], True),  # T * 2^q = 2^53 - 1
    ([2.0 ** 52, 2.0 ** 52 - 1, 1.0], False),  # T * 2^q = 2^53
    ([2.0 ** 42, 2.0 ** 42 - 2.0 ** -10], True),  # on the grid 2^-10, just below
    ([2.0 ** 42, 2.0 ** 42 - 2.0 ** -10, 2.0 ** -10], False),  # and at 2^53
    ([2.0 ** 60, 2.0 ** 61], True),  # a coarse grid, q < 0
    ([5e-324, 1e-323, 0.0], True),  # subnormals on the grid 2^-1074
    ([(2 ** 53 - 1) * 5e-324], True),  # a normal weight on the subnormal grid
    ([(2 ** 53 - 1) * 5e-324, 5e-324], False),
    ([5e-324, 1.0], False),
])
def test_exact_sums_certificate_edges(weights, exact):
    w = np.array(weights, dtype=float)
    assert objectives._exact_sums(w) is exact
    if exact:  # every subset sum is then the exact rational one
        for mask in range(1 << len(w)):
            subset = [x for i, x in enumerate(w) if mask >> i & 1]
            assert objectives._sequential_sum(np.array(subset)) == sum(map(Fraction, subset))


def _in_order_gains(obj, S, candidates) -> list[float]:
    """Each candidate's gain summed left to right from 0.0 over its cover's
    uncovered items in ascending order: the uncertified state's arithmetic."""
    covered = {i for e in S for i in obj._items[obj._indptr[e]:obj._indptr[e + 1]].tolist()}
    out = []
    for u in candidates:
        acc = 0.0
        for i in obj._items[obj._indptr[u]:obj._indptr[u + 1]].tolist():
            if i not in covered:
                acc += float(obj.item_weights[i])
        out.append(acc)
    return out


def test_a_weight_one_ulp_off_the_grid_turns_the_certificate_off():
    f, g = generate(SyntheticSpec(kind="weighted_coverage", n=30, seed=3, density=0.3))
    covers = [f.objective._items[f.objective._indptr[e]:f.objective._indptr[e + 1]]
              for e in g]
    assert f.objective._exact
    w = f.objective.item_weights.copy()
    w[7] = np.nextafter(w[7], np.inf)
    obj = WeightedCoverageObjective(g, covers, w)
    assert not obj._exact
    state, S = obj.gain_state(), g.empty()
    for u in (4, 11, 20):
        state.add(u)
        S = S.with_element(u)
        rest = [v for v in g if v not in S]
        assert _bits(state.gains(rest)) == _bits(_in_order_gains(obj, S, rest))
        assert _bits([state.gain(v) for v in rest]) == _bits(_in_order_gains(obj, S, rest))
    assert state.vector is None


@pytest.mark.parametrize("constraint", CONSTRAINTS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_family_is_the_same_on_the_vector_and_in_order_paths(constraint, seed):
    f, g = generate(SyntheticSpec(kind="weighted_coverage", n=60, seed=seed, density=0.1))
    obj = f.objective
    covers = [obj._items[obj._indptr[e]:obj._indptr[e + 1]] for e in g]
    with mock.patch.object(objectives, "_exact_sums", return_value=False):
        in_order = WeightedCoverageObjective(g, covers, obj.item_weights)
    assert obj._exact and not in_order._exact
    assert run_all(obj.oracle, g, constraint, seed) == run_all(in_order.oracle, g, constraint, seed)


# ---------------------------------------------------------------------------
# Coverage-dispersion states against the two-read reference
# ---------------------------------------------------------------------------


@st.composite
def dispersion_objectives(draw):
    """A coverage-dispersion objective on non-dyadic data, where the order of
    every sum shows in its last bits: exactly symmetric in C or in F order,
    or symmetric within 1e-9 only (one upper entry moved by 1e-12), over N
    or a drawn N_u; or a cut whose weights mirror one -0.0 by +0.0."""
    n = draw(st.integers(min_value=2, max_value=12))
    form = draw(st.sampled_from(("C", "F", "near", "cut-signed-zero")))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(gen.random((n, n)) * (gen.random((n, n)) < 0.7), 1)
    w = upper + upper.T
    g = GroundSet(n)
    if form == "cut-signed-zero":
        i, j = sorted(gen.choice(n, size=2, replace=False).tolist())
        w[i, j], w[j, i] = -0.0, 0.0
        return CutObjective(g, w)
    np.fill_diagonal(w, gen.random(n))
    if form == "F":
        w = np.asfortranarray(w)
    elif form == "near":
        w[0, 1] += 1e-12
    universe = draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1), min_size=1)))
    return CoverageDispersionObjective(g, w, lam=draw(st.sampled_from((0.0, 0.5, 1.0))),
                                       universe_u=universe)


@given(obj=dispersion_objectives(), down=st.booleans(),
       toggles=st.lists(st.integers(min_value=0, max_value=11), max_size=20))
@settings(max_examples=300, deadline=None)
def test_dispersion_state_equals_the_two_read_reference_bit_for_bit(obj, down, toggles):
    """After every add and remove, ``gains``, ``gain`` and ``loss`` are the
    reference's bit for bit, on a state grown from the empty set or, as
    double greedy's ``down`` state, from all of N_u."""
    assert obj._exact == (obj.similarity.tobytes() == obj.similarity.T.copy().tobytes())
    within = list(obj.universe_u)
    state, ref = obj.gain_state(), reference.DispersionGains(obj)
    S = set(within) if down else set()
    for u in sorted(S):
        state.add(u)
        ref.add(u)
    for u in (within[t % len(within)] for t in toggles):
        for s in (state, ref):
            (s.remove if u in S else s.add)(u)
        S ^= {u}
        assert _bits(state.gains(within)) == _bits(ref.gains(within))
        assert _bits([state.gain(v) for v in within]) == _bits([ref.gain(v) for v in within])
        assert _bits([state.loss(v) for v in S]) == _bits([ref.loss(v) for v in S])


@given(obj=dispersion_objectives(), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_dispersion_runs_equal_the_two_read_reference(obj, seed):
    """Greedy and lazy greedy equal ``reference.greedy`` on the two-read
    state, and double greedy (both subroutines) its run on that state:
    solution, value, trace, the three counts and the cached base."""
    g = obj.ground

    def two_read_oracle():
        f = obj.oracle()
        f.gain_state = lambda: reference.DispersionGains(obj)
        return f

    k = max(1, len(obj.universe_u) // 2)
    for lazy in (False, True):
        outcomes = [greedy_outcome(solve, make_oracle, lambda: UniformMatroid(g, k),
                                   np.array(obj.universe_u.members), lazy)
                    for solve, make_oracle in ((greedy, obj.oracle),
                                               (reference.greedy, two_read_oracle))]
        assert outcomes[0] == outcomes[1]
    for subroutine in ("det", "rand"):
        assert (double_greedy_summary(obj.oracle(), obj.universe_u, subroutine, seed)
                == double_greedy_summary(two_read_oracle(), obj.universe_u, subroutine, seed))


def double_greedy_summary(f, U, subroutine: str, seed: int):
    """One public double-greedy run: its result, the cached base it leaves
    and the next draw of its coin stream."""
    rng = Rng(seed, 2)
    if subroutine == "det":
        res = unconstrained_max_det(f, U)
    else:
        res = unconstrained_max_rand(f, U, rng)
    return (res.solution, res.value, res.f_evals, res.marginal_evals, res.independence_checks,
            res.seed, f.cached_base, rng.random())


def on_reference_double_greedy(patched: bool):
    """Run double greedy as the evaluate loop when ``patched``."""
    if not patched:
        return contextlib.nullcontext()
    return mock.patch.object(algorithms, "_double_greedy", reference_double_greedy)


@st.composite
def double_greedy_instances(draw):
    """A dyadic objective, a set U to run on (restricted to N_u for a
    coverage-dispersion objective with one) and a base to cache beforehand."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(min_value=0, max_value=10))
    f, g = generate(SyntheticSpec(kind=kind, n=n, seed=draw(st.integers(0, 2**32 - 1)),
                                  density=draw(st.sampled_from((0.2, 0.5, 0.9))),
                                  lam=draw(st.sampled_from((0.0, 0.5, 1.0)))))
    obj = f.objective
    within = list(g)
    if kind == "coverage_dispersion" and draw(st.booleans()):
        within = sorted(draw(st.sets(st.sampled_from(within))) if n else ())
        obj = CoverageDispersionObjective(g, obj.similarity, lam=obj.lam, universe_u=within)
    U = g.set(draw(st.sets(st.sampled_from(within))) if within else ())
    cached = draw(st.sampled_from((None, g.empty(), U, g.set(within))))
    return obj, g, U, cached


# |U| = 0, and |U| = 1 with f(U) cached: f(X + u) is then served from the cache
@example(instance=(ModularObjective(GroundSet(0), []), GroundSet(0), GroundSet(0).empty(), None),
         subroutine="det", wrapped=False, seed=0)
@example(instance=(ModularObjective(GroundSet(2), [1.0, 0.0]), GroundSet(2), GroundSet(2).set([1]),
                   GroundSet(2).set([1])), subroutine="rand", wrapped=False, seed=0)
@given(instance=double_greedy_instances(), subroutine=st.sampled_from(("det", "rand")),
       wrapped=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=400, deadline=None)
def test_double_greedy_equals_the_evaluate_loop_on_dyadic_data(instance, subroutine, wrapped,
                                                               seed):
    obj, g, U, cached = instance
    runs = []
    for patched in (False, True):
        f = ValueOracle(obj.evaluate, g) if wrapped else obj.oracle()
        if cached is not None:
            f.value(cached)
        with on_reference_double_greedy(patched):
            runs.append(double_greedy_summary(f, U, subroutine, seed))
    assert runs[0] == runs[1]


@given(instances, st.sampled_from(("det", "rand")), st.sampled_from((0.0, 0.5, 1.0)))
@settings(max_examples=150, deadline=None)
def test_repeated_greedy_refinement_equals_the_evaluate_loop(instance, subroutine, lam):
    kind, n, seed, density, constraint = instance
    f, g = generate(SyntheticSpec(kind=kind, n=n, seed=seed, density=density, lam=lam))
    obj = f.objective
    runs = []
    for patched in (False, True):
        for lazy in (False, True):
            f = obj.oracle()
            with on_reference_double_greedy(patched):
                rng = Rng(seed, 3) if subroutine == "rand" else None
                res = repeated_greedy(f, make_constraint(constraint, n, seed), ell=3,
                                      rng=rng, lazy=lazy)
            runs.append((res.solution, res.value, res.f_evals, res.marginal_evals,
                         res.independence_checks, f.cached_base))
    assert runs[:2] == runs[2:]


class _Recorded:
    """A gain state that records the answers of its scalar queries."""

    def __init__(self, state):
        self.state, self.answers = state, []

    def __getattr__(self, name):
        return getattr(self.state, name)

    def gain(self, u):
        self.answers.append(self.state.gain(u))
        return self.answers[-1]

    def loss(self, u):
        self.answers.append(self.state.loss(u))
        return self.answers[-1]


# Y - u is empty at the last step and f(Y) - loss rounds to -2.2e-16 there:
# the accumulated values are not sign-checked
@example(instance=("weighted_coverage", 6, 293, 0.2, "uniform"), lam=0.0, subroutine="det",
         members={3, 4})
@given(instance=instances, lam=st.floats(min_value=0.0, max_value=0.9),
       subroutine=st.sampled_from(("det", "rand")), members=st.sets(st.integers(0, 9)))
@settings(max_examples=300, deadline=None)
def test_double_greedy_matches_reference_on_real_data(instance, lam, subroutine, members):
    kind, n, seed, density, _ = instance
    obj, g = real_objective(kind, n, seed, density, lam)
    U = g.set(u for u in members if u < n)
    f = obj.oracle()
    states = []  # up at X, then down at Y
    make = f.gain_state
    f.gain_state = lambda: states.append(_Recorded(make())) or states[-1]
    res = double_greedy_summary(f, U, subroutine, seed)[0:2]
    up, down = states
    steps = [(a, -loss) for a, loss in zip(up.answers, down.answers, strict=True)]
    # every step's gains are evaluate-differences along the run, within the
    # float64 tolerance, and its decision is the rule's on those gains
    coins = Rng(seed, 2)
    X, Y = g.empty(), U
    for u, (a, b) in zip(U.members, steps, strict=True):
        assert abs(a - (obj.evaluate(X.with_element(u)) - obj.evaluate(X))) <= TOL
        assert abs(b - (obj.evaluate(Y.without_element(u)) - obj.evaluate(Y))) <= TOL
        if subroutine == "det":
            keep = a >= b
        else:
            a_pos, b_pos = max(a, 0.0), max(b, 0.0)
            keep = a_pos + b_pos == 0.0 or coins.random() < a_pos / (a_pos + b_pos)
        if keep:
            X = X.with_element(u)
        else:
            Y = Y.without_element(u)
    assert res[0] == X == Y
    assert abs(res[1] - obj.evaluate(X)) <= TOL


# ---------------------------------------------------------------------------
# ValueOracle.gains accounting
# ---------------------------------------------------------------------------


class _Fixed(GainState):
    def __init__(self, gains):
        self._gains = np.asarray(gains, dtype=float)

    def add(self, u):
        pass

    def gains(self, candidates):
        return self._gains[np.asarray(candidates)]


def test_gains_count_like_one_marginal_per_candidate():
    g = GroundSet(6)
    f = ModularObjective(g, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).oracle()
    S = g.set([0])
    assert f.gains(f.gain_state(), S, [1, 2, 5]).tolist() == [2.0, 3.0, 6.0]
    assert (f.marginal_count, f.eval_count) == (3, 4)  # S was not the cached base
    one_by_one = ModularObjective(g, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).oracle()
    assert [reference.marginal(one_by_one, u, S) for u in [1, 2, 5]] == [2.0, 3.0, 6.0]
    assert (one_by_one.marginal_count, one_by_one.eval_count) == (3, 4)
    f.gains(f.gain_state(), S, [3])
    assert (f.marginal_count, f.eval_count) == (4, 5)
    assert f.gains(f.gain_state(), S, []).size == 0
    with pytest.raises(ValueError, match="outside S"):
        f.gains(f.gain_state(), S, [0, 1])


@pytest.mark.parametrize("bad", [-0.5, float("nan")])
def test_gains_reject_a_negative_or_nan_extended_value(bad):
    g = GroundSet(3)
    f = ValueOracle(lambda S: float(len(S)), g)
    with pytest.raises(NonNegativityError):
        f.gains(_Fixed([1.0, bad, 1.0]), g.empty(), [0, 1, 2])
    f = ValueOracle(lambda S: bad if len(S) == 1 else 0.0, g)
    with pytest.raises(NonNegativityError):
        f.gains(f.gain_state(), g.empty(), [0, 1, 2])


def test_double_gains_count_one_evaluation_per_side():
    """Double greedy's two gains at a step, f(X + u) - f(X) and
    f(Y - u) - f(Y), count one evaluation each and no marginal, past the two
    evaluations of f(empty) and f(U); the last step counts one when the step
    before dropped its element, as Y - u is then the cached base."""
    g = GroundSet(3)
    f = ModularObjective(g, [1.0, 2.0, 3.0]).oracle()
    res = unconstrained_max_det(f, g.full())  # keeps every element
    assert (res.solution, res.value) == (g.full(), 6.0)
    assert (f.marginal_count, f.eval_count) == (0, 2 + 2 * 3)
    # |S| (3 - |S|): keep 0 (gain 2 against 2), drop 1 (0 against 2), keep 2
    f = ValueOracle(lambda S: float(len(S) * (3 - len(S))), g)
    res = unconstrained_max_det(f, g.full())
    assert (res.solution, res.value) == (g.set([0, 2]), 2.0)
    assert (f.marginal_count, f.eval_count) == (0, 2 + 2 + 2 + 1)


def test_double_greedy_on_a_bare_oracle_refuses_a_negative_value():
    # an oracle without an objective checks every value its states evaluate
    g = GroundSet(3)
    bad = ValueOracle(lambda S: -1.0 if S.members == (0,) else 1.0, g)
    with pytest.raises(NonNegativityError):
        unconstrained_max_det(bad, g.full())


def test_evaluated_gains_is_the_default_state():
    g = GroundSet(3)
    assert type(ValueOracle(lambda S: 0.0, g).gain_state()) is GainState
    assert type(ModularObjective(g, [1, 2, 3]).oracle().gain_state()) is not GainState


@pytest.mark.parametrize("run", [
    "f, g = generate(SyntheticSpec(kind='weighted_coverage', n=40, seed=1, density=0.2))\n"
    "greedy(f, UniformMatroid(g, 6))\n"
    "greedy(f.objective.oracle(), UniformMatroid(g, 6), lazy=True)\n",
    # the pools, masks and coins of the genre sweep's algorithms
    "f, g = generate(SyntheticSpec(kind='coverage_dispersion', n=40, seed=1))\n"
    "genres = {e: {'ab'[e % 2], 'cd'[e % 3 % 2]} for e in range(40)}\n"
    "parts = IntersectionSystem([PartitionMatroid(g, {e: e % j for e in range(40)},\n"
    "                                             {b: 2 for b in range(j)}) for j in (3, 5)])\n"
    "for I in (GenreConstraint(g, genres, ['a', 'c'], m=6, m_g=2), parts):\n"
    "    sample_greedy(f, I, rng=Rng(1))\n"
    "    repeated_greedy(f, I, ell=2, lazy=True)\n",
], ids=["weighted-coverage", "genre-and-partitions"])
def test_weighted_coverage_greedy_imports_numpy_only(run):
    """Neither scipy nor ``numpy.ma`` (which ``np.unique`` imports on its
    first call) is imported by a greedy-family run."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "from submax import *\n"
        + run +
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
