"""Shared builders for seeded instances and constraint systems."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from submax import (
    GroundSet,
    IntersectionSystem,
    PartitionMatroid,
    Rng,
    SyntheticSpec,
    UniformMatroid,
    bernoulli,
    generate,
)
from submax.algorithms import _Run

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and a
# failure prints the blob that replays it locally.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_objective(kind: str, n: int, seed: int, **kw):
    """Fresh counted oracle + ground for a synthetic objective."""
    spec = SyntheticSpec(kind=kind, n=n, seed=seed, **kw)
    return generate(spec)


def make_partition_intersection(n: int, k: int, seed: int) -> IntersectionSystem:
    """Intersection of k random partition matroids on n elements: a
    k-extendible system (declared k = k)."""
    gen = Rng(seed, 17).generator
    ground = GroundSet(n)
    parts = []
    for j in range(k):
        n_blocks = int(gen.integers(2, max(3, n // 2 + 1)))
        assignment = gen.integers(0, n_blocks, size=n)
        block_of = {e: f"p{j}b{int(assignment[e])}" for e in range(n)}
        capacities = {
            f"p{j}b{b}": int(gen.integers(1, 4)) for b in range(n_blocks)
        }
        parts.append(PartitionMatroid(ground, block_of, capacities))
    return IntersectionSystem(parts)


def make_uniform_partition_system(n: int, m: int, seed: int, extra_parts: int = 1):
    """Uniform matroid of rank m intersected with `extra_parts` partition
    matroids -> a (1 + extra_parts)-extendible system."""
    gen = Rng(seed, 23).generator
    ground = GroundSet(n)
    comps = [UniformMatroid(ground, m)]
    for j in range(extra_parts):
        n_blocks = max(2, n // 3)
        assignment = gen.integers(0, n_blocks, size=n)
        block_of = {e: f"q{j}b{int(assignment[e])}" for e in range(n)}
        capacities = {f"q{j}b{b}": int(gen.integers(1, 4)) for b in range(n_blocks)}
        comps.append(PartitionMatroid(ground, block_of, capacities))
    return IntersectionSystem(comps)


def reference_double_greedy(f, U, rng, name):
    """Double greedy as an evaluate loop over the sets X + u and Y - u: the
    reference for ``algorithms._double_greedy`` (same signature), its
    solutions, values, coins, oracle counts and the cached base it leaves."""
    run = _Run(f)
    X, Y = U.universe.empty(), U
    fx, fy = f.value(X), f.value(Y)
    for u in U.members:
        X_plus, Y_minus = X.with_element(u), Y.without_element(u)
        vx, vy = f.value(X_plus), f.value(Y_minus)
        a, b = vx - fx, vy - fy
        if rng is None:
            keep = a >= b
        else:
            a_pos, b_pos = max(a, 0.0), max(b, 0.0)
            keep = a_pos + b_pos == 0.0 or bernoulli(rng, a_pos / (a_pos + b_pos))
        if keep:
            X, fx = X_plus, vx
        else:
            Y, fy = Y_minus, vy
    return run.result(name, rng, X, fx)


@pytest.fixture
def rng():
    return Rng(2024, 0)
