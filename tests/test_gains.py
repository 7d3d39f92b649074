"""Batched incremental gains against the evaluate-difference reference.

An objective's own oracle (``obj.oracle()``) scores greedy candidates with the
objective's incremental-gain state; ``ValueOracle(obj.evaluate, ground)``
wraps no objective and scores them by evaluate-differences.  On dyadic data
the two must agree exactly, counts included; on real-valued data within a
float64 tolerance, with lazy greedy still equal to the naive scan.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submax import (
    CoverageDispersionObjective,
    CutObjective,
    EvaluatedGains,
    GainState,
    GenreConstraint,
    GroundSet,
    ModularObjective,
    NonNegativityError,
    Rng,
    SyntheticSpec,
    UniformMatroid,
    ValueOracle,
    WeightedCoverageObjective,
    generate,
    greedy,
    repeated_greedy,
    sample_greedy,
)
from conftest import make_partition_intersection

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
        res, trace = greedy(make_oracle(), make_constraint(constraint, g.n, seed), g, lazy=lazy)
        out.append((summary(res), [(s.element, s.gain, s.value_after) for s in trace]))
        res = sample_greedy(make_oracle(), make_constraint(constraint, g.n, seed), g,
                            rng=Rng(seed, 1), p=0.7, lazy=lazy)
        out.append(summary(res))
        res = repeated_greedy(make_oracle(), make_constraint(constraint, g.n, seed), g,
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


@given(instances, st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=300, deadline=None)
def test_batched_gains_match_reference_on_real_data(instance, lam):
    kind, n, seed, density, constraint = instance
    obj, g = real_objective(kind, n, seed, density, lam)
    batched = run_all(obj.oracle, g, constraint, seed)
    reference = run_all(lambda: ValueOracle(obj.evaluate, g), g, constraint, seed)
    # Only values are compared: a gain that is 0 exactly may come out of an
    # evaluate-difference as +-1 ulp, which moves counts and zero-gain picks.
    for b, r in zip(batched, reference):
        b, r = (b[0], r[0]) if isinstance(b[1], list) else (b, r)
        assert abs(b[1] - r[1]) <= TOL
    # lazy == naive in solution, value and trace under the batched path
    (naive, naive_trace), (lazy, lazy_trace) = batched[0], batched[3]
    assert naive[:2] == lazy[:2] and naive_trace == lazy_trace


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
    state, ref = f.objective.gain_state(), EvaluatedGains(ref_oracle)
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
                greedy(oracle, UniformMatroid(g, 3), g, lazy=lazy)
    res, _ = greedy(obj.oracle(), UniformMatroid(g, 3), g, candidates=[0, 1, 2, 3])
    assert res.solution.issubset(obj.universe_u)


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


def test_evaluated_gains_is_the_default_state():
    g = GroundSet(3)
    assert isinstance(ValueOracle(lambda S: 0.0, g).gain_state(), EvaluatedGains)
    assert not isinstance(ModularObjective(g, [1, 2, 3]).oracle().gain_state(), EvaluatedGains)


def test_weighted_coverage_greedy_imports_numpy_only():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "from submax import SyntheticSpec, UniformMatroid, generate, greedy\n"
        "f, g = generate(SyntheticSpec(kind='weighted_coverage', n=40, seed=1, density=0.2))\n"
        "greedy(f, UniformMatroid(g, 6), g)\n"
        "greedy(f.objective.oracle(), UniformMatroid(g, 6), g, lazy=True)\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
