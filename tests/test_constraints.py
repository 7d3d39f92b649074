"""Constraint systems and their exhaustive verifiers."""

from __future__ import annotations

import logging

import pytest

from submax import constraints
from submax import (
    GenreConstraint,
    GroundSet,
    HardInstance,
    IntersectionSystem,
    PartitionMatroid,
    UniformMatroid,
    load_genres_csv,
    max_feasible_size,
    verify_downward_closed,
    verify_k_extendible,
    verify_k_system,
)
from conftest import make_partition_intersection, make_uniform_partition_system


# ---------------------------------------------------------------------------
# Basic oracles
# ---------------------------------------------------------------------------


def test_uniform_matroid_accepts_by_size():
    g = GroundSet(6)
    I = UniformMatroid(g, 2)
    assert I.is_independent(g.set([0, 5]))
    assert not I.is_independent(g.set([0, 1, 2]))
    assert I.k == 1
    assert I.membership_count == 2


def test_partition_matroid_counts_blocks():
    g = GroundSet(6)
    I = PartitionMatroid(g, {0: "a", 1: "a", 2: "a", 3: "b"}, {"a": 2, "b": 1})
    assert I.is_independent(g.set([0, 1, 3]))
    assert not I.is_independent(g.set([0, 1, 2]))
    # unmapped elements are unconstrained
    assert I.is_independent(g.set([4, 5, 0]))


def test_partition_matroid_validation():
    g = GroundSet(3)
    with pytest.raises(ValueError):
        PartitionMatroid(g, {0: "a"}, {"a": -1})
    with pytest.raises(ValueError):
        PartitionMatroid(g, {0: "a"}, {})  # block without a capacity


def test_intersection_sums_declared_k():
    g = GroundSet(5)
    a = UniformMatroid(g, 2)
    b = PartitionMatroid(g, {0: "x", 1: "x"}, {"x": 1})
    I = IntersectionSystem([a, b])
    assert I.k == 2
    assert I.is_independent(g.set([0, 2]))
    assert not I.is_independent(g.set([0, 1]))  # violates the partition
    assert not I.is_independent(g.set([2, 3, 4]))  # violates the uniform rank


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def test_uniform_matroid_ratio_is_one():
    assert verify_k_system(UniformMatroid(GroundSet(5), 3)) == 1.0


def test_two_partition_intersection_ratio_at_most_two():
    g = GroundSet(6)
    a = PartitionMatroid(g, {0: "a", 1: "a", 2: "b", 3: "b", 4: "c", 5: "c"},
                         {"a": 1, "b": 1, "c": 2})
    b = PartitionMatroid(g, {0: "x", 3: "x", 1: "y", 4: "y", 2: "z", 5: "z"},
                         {"x": 1, "y": 2, "z": 1})
    ratio = verify_k_system(IntersectionSystem([a, b]))
    assert 1.0 <= ratio <= 2.0


def test_hard_instance_truncation_ratio_at_most_two():
    inst = HardInstance(2, 4, 2, "M")
    ratio = verify_k_system(inst, list(range(10)))
    assert ratio <= 2.0


def test_downward_closure_of_generated_systems():
    for seed in range(4):
        I = make_partition_intersection(7, 2, seed)
        assert verify_downward_closed(I)


def test_generated_intersections_are_k_extendible():
    for k in (1, 2, 3):
        for seed in (0, 1):
            I = make_partition_intersection(6, k, seed)
            assert verify_k_extendible(I, k=k), f"k={k} seed={seed}"


def test_single_matroids_are_one_extendible():
    g = GroundSet(6)
    assert verify_k_extendible(UniformMatroid(g, 3), k=1)
    part = PartitionMatroid(g, {e: f"b{e % 3}" for e in range(6)},
                            {"b0": 1, "b1": 2, "b2": 1})
    assert verify_k_extendible(part, k=1)


def test_uniform_plus_partition_is_two_extendible():
    I = make_uniform_partition_system(6, 3, 5, extra_parts=1)
    assert I.k == 2
    assert verify_k_extendible(I, k=2)


def test_verifier_detects_non_system():
    # "independent iff size != 1" is not downward closed
    g = GroundSet(4)

    class Weird(UniformMatroid):
        def _accepts(self, S):
            return len(S) != 1

    I = Weird(g, 4)
    assert not verify_downward_closed(I)


# ---------------------------------------------------------------------------
# Genre constraint
# ---------------------------------------------------------------------------


GENRES = {
    0: frozenset({"a"}),
    1: frozenset({"a", "b"}),
    2: frozenset({"b"}),
    3: frozenset({"c"}),
    4: frozenset({"a", "c"}),
    5: frozenset(),
}


def test_genre_constraint_membership():
    g = GroundSet(6)
    I = GenreConstraint(g, GENRES, ["a", "b"], m=3, m_g=1)
    assert I.is_independent(g.set([0, 2]))        # one per favourite genre
    assert not I.is_independent(g.set([0, 1]))    # two carrying genre a
    assert not I.is_independent(g.set([3]))       # no favourite genre
    assert not I.is_independent(g.set([5]))       # no genres at all
    assert I.k == 2
    assert set(I.restricted_universe) == {0, 1, 2, 4}


def test_genre_constraint_global_cap():
    g = GroundSet(6)
    I = GenreConstraint(g, GENRES, ["a", "b", "c"], m=2, m_g=2)
    assert I.is_independent(g.set([0, 2]))
    assert not I.is_independent(g.set([0, 2, 3]))  # exceeds m


def test_genre_constraint_per_genre_mapping():
    g = GroundSet(6)
    I = GenreConstraint(g, GENRES, ["a", "b"], m=4, m_g={"a": 1, "b": 2})
    assert I.is_independent(g.set([1, 2]))      # a:1, b:2
    assert not I.is_independent(g.set([0, 1]))  # a:2


def test_genre_equals_its_intersection_form():
    g = GroundSet(6)
    I = GenreConstraint(g, GENRES, ["a", "b"], m=2, m_g=1)
    J = I.as_intersection()
    for mask in range(1 << 6):
        S = g.set([e for e in range(6) if mask >> e & 1])
        assert I._accepts(S) == J._accepts(S), S.members


def test_genre_intersection_form_more_seeds():
    from submax import Rng

    for seed in range(3):
        gen = Rng(seed, 9).generator
        n = 8
        labels = ["a", "b", "c", "d"]
        genre_of = {
            e: frozenset(
                labels[int(i)]
                for i in gen.choice(4, size=int(gen.integers(1, 3)), replace=False)
            )
            for e in range(n)
        }
        g = GroundSet(n)
        I = GenreConstraint(g, genre_of, ["a", "c"], m=3, m_g=2)
        J = I.as_intersection()
        for mask in range(1 << n):
            S = g.set([e for e in range(n) if mask >> e & 1])
            assert I._accepts(S) == J._accepts(S)


# ---------------------------------------------------------------------------
# max_feasible_size
# ---------------------------------------------------------------------------


def test_max_feasible_size_exhaustive():
    g = GroundSet(10)
    assert max_feasible_size(UniformMatroid(g, 4)) == 4
    part = PartitionMatroid(g, {e: f"b{e % 5}" for e in range(10)},
                            {f"b{i}": 1 for i in range(5)})
    assert max_feasible_size(part) == 5


def test_max_feasible_size_greedy_path():
    g = GroundSet(20)
    assert max_feasible_size(UniformMatroid(g, 7)) == 7  # n > exhaustive cap


def test_max_feasible_size_warns_once_per_size_and_cap(caplog, monkeypatch):
    monkeypatch.setattr(constraints, "_bound_warned", set())
    g = GroundSet(20)
    with caplog.at_level(logging.WARNING, logger="submax.constraints"):
        assert max_feasible_size(UniformMatroid(g, 7)) == 7
        assert max_feasible_size(UniformMatroid(g, 5)) == 5
    assert len(caplog.records) == 1
    assert "lower bound" in caplog.records[0].getMessage()


def test_max_feasible_size_genre_disjoint():
    genre_of = {e: frozenset({f"g{e % 3}"}) for e in range(9)}
    g = GroundSet(9)
    I = GenreConstraint(g, genre_of, ["g0", "g1", "g2"], m=9, m_g=1)
    assert max_feasible_size(I) == 3


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def test_load_genres_csv(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("element_id,genres\n0,a;b\n1,\n2,c\n")
    out = load_genres_csv(str(p))
    assert out == {0: frozenset({"a", "b"}), 1: frozenset(), 2: frozenset({"c"})}


def test_load_genres_csv_bad_header(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("id,tags\n0,a\n")
    with pytest.raises(ValueError):
        load_genres_csv(str(p))
