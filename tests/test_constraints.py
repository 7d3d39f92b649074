"""Constraint systems and their exhaustive verifiers."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submax import constraints
from submax.core import _CAPS, _independent_levels, _walk_order
from submax import (
    CutObjective,
    ExtensionState,
    GenreConstraint,
    GroundSet,
    HardInstance,
    IndependenceOracle,
    IntersectionSystem,
    MODE_M,
    MODE_M_PRIME,
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
    with pytest.raises(ValueError, match="element -1 outside"):
        PartitionMatroid(g, {-1: "a", 7: "a", 0: "b"}, {"a": 1, "b": 1})
    with pytest.raises(ValueError):
        PartitionMatroid(g, {0: None}, {None: 1})  # None marks no block in membership


def test_intersection_sums_declared_k():
    g = GroundSet(5)
    a = UniformMatroid(g, 2)
    b = PartitionMatroid(g, {0: "x", 1: "x"}, {"x": 1})
    I = IntersectionSystem([a, b])
    assert I.k == 2
    assert I.is_independent(g.set([0, 2]))
    assert not I.is_independent(g.set([0, 1]))  # violates the partition
    assert not I.is_independent(g.set([2, 3, 4]))  # violates the uniform rank
    with pytest.raises(TypeError, match="ground"):  # every oracle has a ground set
        IntersectionSystem([IndependenceOracle(fn=lambda S: True)])


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
    """The batch table and the numpy verifiers give the plain
    references' answers, and each call asks exactly 2^n membership queries."""
    size, elems, fn = system
    queries = 1 << len(elems)

    def fresh():
        return IndependenceOracle(fn, GroundSet(size))

    I = fresh()
    assert I.independent_masks(elems, np.arange(queries)).tolist() \
        == reference.independence_table(fresh(), elems)
    assert I.membership_count == queries
    calls = [(verify_downward_closed, reference.verify_downward_closed, {}),
             (verify_k_system, reference.verify_k_system, {})]
    # k = 9 lies past every drawn n: each subset of B may be given up
    calls += [(verify_k_extendible, reference.verify_k_extendible, {"k": k}) for k in (0, 1, 2, 3, 9)]
    for verify, verify_reference, kw in calls:
        I = fresh()
        assert verify(I, elems, **kw) == verify_reference(fresh(), elems, **kw), (verify, kw)
        assert I.membership_count == queries


def shipped_system(kind: str, n: int) -> IndependenceOracle:
    if kind == "partitions":
        return make_partition_intersection(n, 3, 0)
    if kind == "genre":
        rng = np.random.default_rng(n)
        genre_of = {e: frozenset(rng.choice(list("abc"), size=rng.integers(1, 3), replace=False))
                    for e in range(n)}
        return GenreConstraint(GroundSet(n), genre_of, ["a", "b"], m=5, m_g=3)
    return HardInstance(2, 8, 4, kind)


@pytest.mark.parametrize("n", [11, 13])
@pytest.mark.parametrize("kind", ["partitions", MODE_M, MODE_M_PRIME, "genre"])
def test_table_verifiers_equal_the_references_on_shipped_constraints(kind, n):
    """Past the sizes the drawn systems reach, on the shipped constraints:
    the reference's answer, from 2^n membership queries per call.
    k-extendibility is asked at the declared k and one below, where all
    but the mode-M' hard instance fail."""
    elems, k = list(range(n)), shipped_system(kind, n).k
    calls = [(verify_downward_closed, reference.verify_downward_closed, {}),
             (verify_k_system, reference.verify_k_system, {})]
    calls += [(verify_k_extendible, reference.verify_k_extendible, {"k": kk}) for kk in (k, k - 1)]
    for verify, verify_reference, kw in calls:
        I = shipped_system(kind, n)
        assert verify(I, elems, **kw) == verify_reference(shipped_system(kind, n), elems, **kw), kw
        assert I.membership_count == 1 << n


def _breaks_k_extendibility(fn, size: int, A: tuple, B: tuple, e: int, k: int) -> bool:
    """Whether (A, B, e) breaks the definition, by one lookup per set in the
    membership table of ``fn`` over the subsets of A ∪ B + e."""
    elems = sorted({*A, *B, e})
    I = IndependenceOracle(fn, GroundSet(size))
    table = reference.independence_table(I, elems)
    bit = {x: 1 << i for i, x in enumerate(elems)}
    a, b, eb = sum(bit[x] for x in A), sum(bit[x] for x in B), bit[e]
    rest = b & ~a
    gives = [y for y in range(rest + 1) if y & rest == y and bin(y).count("1") <= k]
    return (a & b == a and not b & eb and table[a] and table[b] and table[a | eb]
            and not any(table[(b ^ y) | eb] for y in gives))


@pytest.mark.parametrize("system,k", [
    (lambda: UniformMatroid(GroundSet(6), 3), 0),
    (lambda: make_partition_intersection(11, 3, 0), 2),
    (lambda: HardInstance(2, 8, 4, MODE_M), 1),
    (lambda: IndependenceOracle(lambda S: len(S) != 2 or 0 in S, GroundSet(5)), 0),
], ids=["uniform", "partitions", "hard-M", "not-downward-closed"])
def test_k_extendibility_logs_a_triple_that_breaks_the_definition(caplog, system, k):
    """The (A, B, e) of a failing call's debug line breaks the definition."""
    I = system()
    elems = list(range(min(I.ground.n, 11)))
    with caplog.at_level(logging.DEBUG, logger="submax.constraints"):
        assert not verify_k_extendible(I, elems, k)
    (record,) = [r for r in caplog.records if r.getMessage().startswith("k-extendibility fails")]
    A, B, e = record.args
    assert _breaks_k_extendibility(I._accepts, I.ground.n, A, B, e, k), record.args


@pytest.mark.parametrize("rank", [1, 7, 13, 14])
def test_k_extendibility_at_the_cap_on_uniform_matroids(rank):
    """At the cap (n = 14), low to full rank: every uniform matroid is
    1-extendible, and 0-extendible only when every set is independent."""
    n = _CAPS["verify_k_extendible"]
    for k, answer in ((0, rank == n), (1, True)):
        I = UniformMatroid(GroundSet(n), rank)
        assert verify_k_extendible(I, k=k) is answer
        assert I.membership_count == 1 << n


@pytest.mark.parametrize("accepts,ratio", [
    (lambda S: False, 1.0),  # no independent set
    (lambda S: len(S) == 0, 1.0),  # only the empty set
    (lambda S: len(S) != 1, float("inf")),  # {a} and {b} dependent, {a, b} independent
], ids=["none", "empty-only", "pair-without-singletons"])
def test_k_system_ratio_edge_cases(accepts, ratio):
    def fresh():
        return IndependenceOracle(accepts, GroundSet(2))

    assert verify_k_system(fresh()) == reference.verify_k_system(fresh()) == ratio


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
    with pytest.raises(ValueError, match=r"^no per-genre limit for favourite genre\(s\) b, c$"):
        GenreConstraint(g, GENRES, ["a", "b", "c"], m=4, m_g={"a": 1})
    # an id outside the ground set is refused whether or not it carries a favourite
    for genre_of in ({0: {"a"}, 7: {"a"}}, {0: {"a"}, 7: {"b"}}):
        with pytest.raises(ValueError, match="^element 7 outside ground set of size 3$"):
            GenreConstraint(GroundSet(3), genre_of, ["a"], m=1, m_g=1)


@pytest.mark.parametrize("build, message", [
    (lambda: IntersectionSystem([]), "intersection needs at least one component"),
    (lambda: IntersectionSystem([UniformMatroid(GroundSet(3), 1), UniformMatroid(GroundSet(4), 1)]),
     r"components disagree on ground-set size: \[3, 4\]"),
    (lambda: GenreConstraint(GroundSet(6), GENRES, [], m=2, m_g=1),
     "genre constraint needs at least one favourite genre"),
    (lambda: GenreConstraint(GroundSet(6), GENRES, ["a"], m=-1, m_g=1),
     "global limit m must be >= 0, got -1"),
    (lambda: GenreConstraint(GroundSet(6), GENRES, ["a", "b"], m=2, m_g={"a": 1, "b": -1}),
     "genre 'b' limit must be >= 0, got -1"),
], ids=["no-component", "two-sizes", "no-favourite", "m-negative", "limit-negative"])
def test_intersection_and_genre_parameters_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


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
    included, and so is the scalar ``fits`` of a second state, kept on a
    system of its own (an intersection's state counts its components on
    ``fits`` too), for each of them.  ``pack`` adds the smallest feasible
    id, which fills H_1 of a hard instance first."""
    kind, size, seed = system
    I, ref = extension_system(kind, size, seed), extension_system(kind, size, seed)
    gen = Rng(seed, 37).generator
    state, scalar = I.extension_state(), extension_system(kind, size, seed).extension_state()
    S = I.ground.empty()
    while True:
        candidates = [int(u) for u in gen.permutation([u for u in I.ground if u not in S])]
        got = I.extensions(state, S, np.array(candidates, dtype=np.intp))
        assert got.dtype == np.intp
        got = got.tolist()
        assert got == [u for u in candidates if ref.is_independent(S.with_element(u))]
        assert membership_counts(I) == membership_counts(ref)
        assert [u for u in candidates if scalar.fits(u)] == got
        if not got:
            break
        u = min(got) if pack else got[int(gen.integers(len(got)))]
        S = S.with_element(u)
        state.add(u)
        scalar.add(u)
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

    assert type(checked().extension_state()) is ExtensionState
    assert greedy_family(f.objective.oracle, lambda: extension_system(kind, size, seed), seed) \
        == greedy_family(f.objective.oracle, checked, seed)


@st.composite
def mask_queries(draw):
    """A system of extension_systems, a truncated element list with gaps (up
    to 10 of its elements, in order), and masks over that list, unsorted,
    with some repeated."""
    kind, size, seed = draw(extension_systems)
    n = ground_size(kind, size)
    elems = sorted(draw(st.lists(st.integers(0, n - 1), max_size=10, unique=True)))
    masks = draw(st.lists(st.integers(0, (1 << len(elems)) - 1), max_size=40))
    return kind, size, seed, elems, masks + masks[::-3]


def queried_as(I: IndependenceOracle, how: str) -> IndependenceOracle:
    """``I`` itself, a bare-callable oracle on its ``_accepts``, or ``I`` as a
    subclass that overrides ``_accepts`` alone, with the rule negated: its
    batch queries must ask that override one set at a time."""
    if how == "callable":
        return IndependenceOracle(I._accepts, I.ground, k=I.k)
    if how == "negated-subclass":
        base = type(I)
        I.__class__ = type("Negated", (base,), {"_accepts": lambda self, S: not base._accepts(self, S)})
    return I


@given(mask_queries(), st.sampled_from(("rule", "callable", "negated-subclass")))
@settings(max_examples=300, deadline=None)
def test_independent_masks_equal_per_set_queries(query, how):
    """Batch answers are the per-set answers of ``reference.independence_table``,
    and the counts, each intersection component's included, are those of one
    ``is_independent`` per mask."""
    kind, size, seed, elems, masks = query

    def fresh():
        return queried_as(extension_system(kind, size, seed), how)

    I, one_by_one = fresh(), fresh()
    got = I.independent_masks(elems, np.array(masks, dtype=np.int64))
    assert got.dtype == bool
    table = reference.independence_table(fresh(), elems)
    assert got.tolist() == [table[m] for m in masks]
    for m in masks:
        one_by_one.is_independent(reference._mask_set(one_by_one, elems, m))
    assert membership_counts(I) == membership_counts(one_by_one)


def test_extensions_reject_candidates_in_s():
    I = UniformMatroid(GroundSet(4), 2)
    state = I.extension_state()
    state.add(1)
    with pytest.raises(ValueError):
        I.extensions(state, I.ground.set([1]), [0, 1])


@pytest.mark.parametrize("how", ("rule", "callable", "negated-subclass"))
@pytest.mark.parametrize("make", (
    lambda: UniformMatroid(GroundSet(80), 3),
    lambda: PartitionMatroid(GroundSet(80), {0: "a", 1: "a", 4: "a"}, {"a": 1}),
    lambda: HardInstance(2, 8, 5, MODE_M),
), ids=("uniform", "partition", "hard"))
def test_independent_masks_refuse_bad_input(make, how):
    """A list that is not sorted, distinct and in the ground set (n = 80),
    one longer than 63, and a negative mask or one past the list are
    ValueErrors, counted as no query, for the class rule, a bare callable and
    an ``_accepts``-only subclass alike; 63 elements are answered."""
    I = queried_as(make(), how)
    bad = [([-1, 0], [3]), ([0, 80], [1]), ([1, 0], [1]), ([0, 0], [1]),
           ([0], [3]), ([0], [-1]), ([], [1]), (list(range(64)), [0])]
    for elems, masks in bad:
        with pytest.raises(ValueError):
            I.independent_masks(elems, masks)
    assert I.membership_count == 0
    elems, masks = list(range(63)), [2**63 - 1, 7, 0b10011]
    assert I.independent_masks(elems, masks).tolist() \
        == [I._accepts(reference._mask_set(I, elems, m)) for m in masks]


# ---------------------------------------------------------------------------
# The level-by-level search and the exact routines on it
# ---------------------------------------------------------------------------


@given(bare_systems())
@settings(max_examples=300, deadline=None)
def test_independent_levels_are_the_recursive_pre_order(system):
    """``_independent_levels`` holds, size by size, exactly the masks that a
    recursive pre-order search over the independent sets yields, up to the
    last non-empty size, and asks one counted query per ``keep`` call of that
    search.  ``_walk_order`` sorts those masks into the search's order, and
    every mask into the order of the search that keeps every set."""
    size, elems, fn = system
    ground = GroundSet(size)

    def search(keep) -> tuple[list, int]:
        order, calls = [], [0]

        def visit(mask: int, members: tuple, start: int) -> None:
            order.append(mask)
            for i in range(start, len(elems)):
                child = members + (elems[i],)
                calls[0] += 1
                if keep(ground.set(child)):
                    visit(mask | 1 << i, child, i + 1)

        visit(0, (), 0)
        return order, calls[0]

    order, calls = search(fn)
    I = IndependenceOracle(fn, ground)
    levels = list(_independent_levels(I, elems))
    assert I.membership_count == calls
    assert [sorted(level.tolist()) for level in levels] \
        == [sorted(m for m in order if bin(m).count("1") == s) for s in range(len(levels))]
    assert all(len(level) for level in levels) and sum(map(len, levels)) == len(order)
    masks = np.concatenate(levels)
    assert masks[np.argsort(_walk_order(masks, len(elems)))].tolist() == order
    everything, _calls = search(lambda S: True)
    assert _walk_order(np.array(everything, dtype=np.int64), len(elems)).tolist() \
        == list(range(1 << len(elems)))


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
    """A general system past the cap warns once per n; a uniform or partition
    matroid, whose greedy bound is its rank, stays silent."""
    monkeypatch.setattr(constraints, "_bound_warned", set())
    cap = _CAPS["max_feasible_size"]
    g = GroundSet(cap + 1)
    genre_of = {e: {f"g{e % 3}"} for e in g}
    with caplog.at_level(logging.WARNING, logger="submax.constraints"):
        assert max_feasible_size(UniformMatroid(GroundSet(cap), 3)) == 3  # exact, no warning
        assert max_feasible_size(UniformMatroid(g, 7)) == 7
        assert max_feasible_size(PartitionMatroid(g, {e: f"b{e % 5}" for e in g},
                                                  {f"b{i}": 1 for i in range(5)})) == 5
        assert not caplog.records
        assert max_feasible_size(GenreConstraint(g, genre_of, ["g0", "g1"], m=5, m_g=2)) == 4
        assert max_feasible_size(GenreConstraint(g, genre_of, ["g0", "g1", "g2"], m=3, m_g=2)) == 3
        assert max_feasible_size(UniformMatroid(g, 5)) == 5
    assert len(caplog.records) == 1
    assert caplog.records[0].getMessage() == (
        f"max_feasible_size: n={cap + 1} exceeds exhaustive cap {cap}; returning a greedy "
        "lower bound (exact for matroids, may undercount general systems)")


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
