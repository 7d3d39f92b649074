"""Constraint systems and their exhaustive verifiers."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submax import constraints
from submax.core import _subset_table, _walk
from submax import (
    CheckedExtensions,
    CutObjective,
    GenreConstraint,
    GroundSet,
    HardInstance,
    IndependenceOracle,
    IntersectionSystem,
    ModularObjective,
    PartitionMatroid,
    PropertyViolation,
    Rng,
    SyntheticSpec,
    UniformMatroid,
    brute_force_opt,
    generate,
    greedy,
    instrumented_sample_greedy,
    load_genres_csv,
    max_feasible_size,
    repeated_greedy,
    sample_greedy,
    verify_downward_closed,
    verify_k_extendible,
    verify_k_system,
)
from conftest import make_partition_intersection, make_uniform_partition_system
import reference


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


def test_verifiers_reject_elements_outside_the_ground_set_and_negative_k():
    I = UniformMatroid(GroundSet(5), 2)
    for verify in (verify_downward_closed, verify_k_system, verify_k_extendible):
        for bad in ([0, 5], [-1, 2]):
            with pytest.raises(ValueError, match="outside ground set of size 5"):
                verify(I, bad)
    with pytest.raises(ValueError, match="k must be >= 0"):
        verify_k_extendible(I, k=-1)
    assert I.membership_count == 0


@st.composite
def bare_systems(draw):
    """(ground size, element list, membership function) of a system over
    masks of the element list: generated by its maximal sets or by its
    circuits (downward closed), either one with a few masks flipped, or an
    arbitrary table."""
    n = draw(st.integers(0, 8))
    size = draw(st.integers(n, 10))
    elems = sorted(draw(st.permutations(range(size)))[:n])
    full = (1 << len(elems)) - 1
    masks = st.integers(0, full)
    kind = draw(st.sampled_from(("generators", "circuits", "table")))
    if kind == "table":
        table = draw(st.integers(0, (1 << (full + 1)) - 1))
        accepts = lambda mask: bool(table >> mask & 1)  # noqa: E731
    elif kind == "generators":
        gens = draw(st.lists(masks, min_size=1, max_size=4))
        accepts = lambda mask: any(mask & g == mask for g in gens)  # noqa: E731
    else:
        circuits = draw(st.lists(masks.filter(bool), max_size=5))
        accepts = lambda mask: not any(mask & c == c for c in circuits)  # noqa: E731
    flips = set(draw(st.lists(masks, max_size=3))) if kind != "table" else set()
    pos = {e: i for i, e in enumerate(elems)}

    def fn(S):
        mask = sum(1 << pos[e] for e in S)
        return accepts(mask) != (mask in flips)

    return size, elems, fn


@given(bare_systems())
@settings(max_examples=300, deadline=None)
def test_verifiers_equal_the_references(system):
    """The depth-first table and the hoisted exchange check give the plain
    references' answers, and each call asks exactly 2^n membership queries."""
    size, elems, fn = system
    queries = 1 << len(elems)

    def fresh():
        return IndependenceOracle(fn, GroundSet(size))

    I = fresh()
    assert _subset_table(I.ground, elems, I.is_independent) == reference.independence_table(fresh(), elems)
    assert I.membership_count == queries
    calls = [(verify_downward_closed, reference.verify_downward_closed, {}),
             (verify_k_system, reference.verify_k_system, {})]
    calls += [(verify_k_extendible, reference.verify_k_extendible, {"k": k}) for k in range(4)]
    for verify, verify_reference, kw in calls:
        I = fresh()
        assert verify(I, elems, **kw) == verify_reference(fresh(), elems, **kw), (verify, kw)
        assert I.membership_count == queries


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
    J = reference.genre_as_intersection(I)
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
        J = reference.genre_as_intersection(I)
        for mask in range(1 << n):
            S = g.set([e for e in range(n) if mask >> e & 1])
            assert I._accepts(S) == J._accepts(S)


# ---------------------------------------------------------------------------
# Extension states against whole-set membership checks
# ---------------------------------------------------------------------------

# (k, h, m): integral thresholds 2km/h of 3, 2 and 2, and fractional ones of
# 2.5 and 1.5; n = h*k*m runs from 6 to 80, past max_feasible_size's
# exhaustive cap of 16.
HARD_PARAMS = ((1, 2, 3), (2, 4, 2), (3, 6, 2), (2, 8, 5), (2, 8, 3))


def extension_system(kind: str, size: int, seed: int) -> IndependenceOracle:
    """A fresh constraint oracle, the same system for the same arguments.
    ``size`` is n, or for a hard instance an index into HARD_PARAMS."""
    gen = Rng(seed, 31).generator
    n = size
    g = GroundSet(n)
    if kind == "uniform":
        return UniformMatroid(g, int(gen.integers(0, n + 1)))
    if kind == "partition":  # some elements in no block, some blocks of capacity 0
        blocks = int(gen.integers(1, 4))
        block_of = {e: int(b) for e in range(n) if (b := gen.integers(-1, blocks)) >= 0}
        return PartitionMatroid(g, block_of, {b: int(gen.integers(0, 3)) for b in range(blocks)})
    if kind == "genre":  # elements with no label, no favourite, one or two favourites
        labels = ("a", "b", "c")
        genre_of = {e: {labels[int(i)] for i in gen.choice(3, size=int(gen.integers(0, 3)),
                                                           replace=False)}
                    for e in range(n) if gen.random() < 0.9}
        return GenreConstraint(g, genre_of, ["a", "b"], m=int(gen.integers(0, n + 1)),
                               m_g={"a": int(gen.integers(0, 3)), "b": int(gen.integers(0, 3))})
    if kind == "intersection":  # with a component built from a bare function
        marked = {e for e in range(n) if gen.random() < 0.5}
        cap = int(gen.integers(0, 3))
        return IntersectionSystem([
            UniformMatroid(g, int(gen.integers(0, n + 1))),
            IndependenceOracle(lambda S: sum(e in marked for e in S) <= cap, g),
            make_partition_intersection(n, 1, seed).components[0],
        ])
    k, h, m = HARD_PARAMS[size]
    return HardInstance(k, h, m, "M" if kind == "hard-M" else "M'")


def membership_counts(I: IndependenceOracle) -> list:
    """The oracle's count and, for an intersection, its components' counts."""
    return [I.membership_count] + [membership_counts(c) for c in getattr(I, "components", ())]


EXTENSION_KINDS = ("uniform", "partition", "genre", "intersection", "hard-M", "hard-M'")

extension_systems = st.sampled_from(EXTENSION_KINDS).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        st.integers(0, len(HARD_PARAMS) - 1) if kind.startswith("hard")
        else st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
)


def ground_size(kind: str, size: int) -> int:
    if kind.startswith("hard"):
        k, h, m = HARD_PARAMS[size]
        return h * k * m
    return size


@given(extension_systems, st.booleans())
@settings(max_examples=300, deadline=None)
def test_extensions_equal_whole_set_checks(system, pack):
    """Grow an independent S; at every step the state's answer for all
    remaining elements, in a random order, is the whole-set answer, counts
    included.  ``pack`` adds the smallest feasible id, which fills H_1 of a
    hard instance first."""
    kind, size, seed = system
    I, ref = extension_system(kind, size, seed), extension_system(kind, size, seed)
    gen = Rng(seed, 37).generator
    state = I.extension_state()
    S = I.ground.empty()
    while True:
        candidates = [int(u) for u in gen.permutation([u for u in I.ground if u not in S])]
        got = I.extensions(state, S, candidates)
        assert got == [u for u in candidates if ref.is_independent(S.with_element(u))]
        assert membership_counts(I) == membership_counts(ref)
        if not got:
            break
        u = min(got) if pack else got[int(gen.integers(len(got)))]
        S = S.with_element(u)
        state.add(u)
    assert ref.is_independent(S)


def greedy_family(make_oracle, make_system, seed: int) -> list:
    """Every greedy-family run, and r, on fresh oracles."""
    out = []

    def summary(res):
        return (res.solution.members, res.value, res.f_evals, res.marginal_evals,
                res.independence_checks)

    for lazy in (False, True):
        res, trace = greedy(make_oracle(), make_system(), lazy=lazy)
        out.append((summary(res), [(s.element, s.gain, s.value_after) for s in trace]))
        out.append(summary(sample_greedy(make_oracle(), make_system(), rng=Rng(seed, 1), p=0.7,
                                         lazy=lazy)))
        out.append(summary(repeated_greedy(make_oracle(), make_system(), ell=2, lazy=lazy)))
    opt, _trace = greedy(make_oracle(), make_system())
    try:
        res, trace = instrumented_sample_greedy(make_oracle(), make_system(), opt.solution,
                                                rng=Rng(seed, 2))
        out.append((summary(res), [(s.element, s.coin, s.o_after.members, s.removed, s.y_u)
                                   for s in trace]))
    except PropertyViolation as exc:  # not every system here is k-extendible
        out.append(str(exc))
    I = make_system()
    out.append((max_feasible_size(I), I.membership_count))
    return out


@given(extension_systems, st.sampled_from(("modular", "coverage_dispersion", "weighted_coverage")))
@settings(max_examples=300, deadline=None)
def test_greedy_family_with_extension_states_equals_checked_reference(system, objective):
    kind, size, seed = system
    f, _g = generate(SyntheticSpec(kind=objective, n=ground_size(kind, size), seed=seed))

    def checked():
        I = extension_system(kind, size, seed)
        return IndependenceOracle(I._accepts, I.ground, k=I.k)

    assert isinstance(checked().extension_state(), CheckedExtensions)
    assert greedy_family(f.objective.oracle, lambda: extension_system(kind, size, seed), seed) \
        == greedy_family(f.objective.oracle, checked, seed)


def test_extensions_reject_candidates_in_s():
    I = UniformMatroid(GroundSet(4), 2)
    state = I.extension_state()
    state.add(1)
    with pytest.raises(ValueError):
        I.extensions(state, I.ground.set([1]), [0, 1])


# ---------------------------------------------------------------------------
# The depth-first walk and the exact routines on it
# ---------------------------------------------------------------------------


@given(bare_systems())
@settings(max_examples=300, deadline=None)
def test_walk_is_the_recursive_pre_order(system):
    """``_walk`` yields the masks of a recursive pre-order search, asks
    ``keep`` once per child it builds, and builds each child only after
    everything before it in that order has been yielded."""
    size, elems, fn = system
    ground = GroundSet(size)
    expected = []

    def visit(mask: int, members: tuple, start: int) -> None:
        expected.append(("yield", mask, members))
        for i in range(start, len(elems)):
            child = members + (elems[i],)
            expected.append(("keep", child))
            if fn(ground.set(child)):
                visit(mask | 1 << i, child, i + 1)

    visit(0, (), 0)
    events = []

    def keep(S):
        events.append(("keep", S.members))
        return fn(S)

    for mask, S in _walk(ground, elems, keep):
        events.append(("yield", mask, S.members))
    assert events == expected
    everything = [mask for mask, _S in _walk(ground, elems)]
    assert sorted(everything) == list(range(1 << len(elems)))


# Ground sets of at most 12 elements: every uniform, partition, genre and
# intersection system of extension_systems, and the smallest hard instance.
exact_systems = extension_systems.filter(lambda system: ground_size(*system[:2]) <= 12)


def exact_objective(kind: str, n: int, seed: int):
    """A fresh oracle: a synthetic objective (dyadic data) or, for the
    "real-" kinds, a modular or cut objective on real-valued weights."""
    if not kind.startswith("real-"):
        return generate(SyntheticSpec(kind=kind, n=n, seed=seed))[0]
    gen = Rng(seed, 41).generator
    g = GroundSet(n)
    if kind == "real-modular":
        return ModularObjective(g, gen.random(n)).oracle()
    upper = np.triu(gen.random((n, n)), 1)
    return CutObjective(g, upper + upper.T).oracle()


@given(exact_systems, st.sampled_from(("modular", "coverage_dispersion", "weighted_coverage",
                                       "real-modular", "real-cut")))
@settings(max_examples=300, deadline=None)
def test_brute_force_equals_the_recursive_reference(system, objective):
    """Solution, value, the three counts, each component's membership count
    and the cached base left behind are the recursive search's."""
    kind, size, seed = system
    runs = []
    for solve in (brute_force_opt, reference.brute_force_opt):
        f = exact_objective(objective, ground_size(kind, size), seed)
        I = extension_system(kind, size, seed)
        res = solve(f, I)
        runs.append((res.solution, res.value, res.f_evals, res.marginal_evals,
                     res.independence_checks, membership_counts(I), f.cached_base))
    assert runs[0] == runs[1]


@given(exact_systems)
@settings(max_examples=200, deadline=None)
def test_exact_rank_is_the_largest_independent_set_of_the_table(system):
    kind, size, seed = system
    I = extension_system(kind, size, seed)
    table = reference.independence_table(extension_system(kind, size, seed), list(I.ground))
    assert max_feasible_size(I) == max(bin(mask).count("1") for mask, ok in enumerate(table) if ok)


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
