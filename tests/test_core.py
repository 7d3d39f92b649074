"""Oracle accounting, set algebra, and seeded randomness."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import submax
from submax import (
    MODE_M,
    MODE_M_PRIME,
    CapacityError,
    ElementSet,
    GadgetParams,
    GroundSet,
    HardInstance,
    ModularObjective,
    NonNegativityError,
    Rng,
    SolveResult,
    SyntheticSpec,
    UniformMatroid,
    ValueOracle,
    bernoulli,
    default_rounds,
    generate,
    overlap_probe,
    repeated_greedy_bound,
    verify_k_extendible,
)
from submax.core import _CAPS

import reference
from conftest import make_partition_intersection


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
    with pytest.raises(TypeError, match="^element set members must be ids, not None$"):
        g.set(None)


def test_ground_sets_compare_and_hash_by_size():
    assert GroundSet(4) == GroundSet(4) and hash(GroundSet(4)) == hash(GroundSet(4))
    assert GroundSet(4) != GroundSet(5) and GroundSet(4) != 4
    by_ground = {GroundSet(4): "four", GroundSet(5): "five"}
    assert by_ground[GroundSet(4)] == "four" and len(by_ground) == 2


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


@pytest.mark.parametrize("system", ("uniform", "intersection"))
@pytest.mark.parametrize("bad", [-1, -5, -6, -11, 5, 99])
def test_candidate_ids_outside_the_ground_set_are_refused(system, bad):
    """On ``synth:kind=modular,n=5``, an id outside 0..4 is the ValueError of
    ``ElementSet`` in both candidate queries, on one id and on a batch,
    counted as no query: -1 does not read element 4's gain or room, and 5
    raises no bare IndexError.  The range is checked before membership in
    S (the batch [0, bad] names bad, not S's member 0), and a negative id is
    named before a too-large one (the batch [99, 0, bad] names a negative
    bad)."""
    f, g = generate(SyntheticSpec(kind="modular", n=5, seed=1))
    I = UniformMatroid(g, 3) if system == "uniform" else make_partition_intersection(5, 2, 1)
    S = g.set([0])
    state, ext = f.gain_state(), I.extension_state()
    state.add(0)
    ext.add(0)
    counts = (f.eval_count, f.marginal_count, I.membership_count)
    mixed = [99, 0, bad] if bad < 0 else [0, bad]
    queries = (lambda: f.gains(state, S, [bad]), lambda: f.gains(state, S, [1, bad, 2]),
               lambda: f.gains(state, S, mixed),
               lambda: I.extensions(ext, S, [bad]), lambda: I.extensions(ext, S, np.array([1, bad, 2])),
               lambda: I.extensions(ext, S, np.array(mixed)))
    for query in queries:
        with pytest.raises(ValueError, match=f"^element {bad} outside ground set of size 5$"):
            query()
    assert (f.eval_count, f.marginal_count, I.membership_count) == counts


@pytest.mark.parametrize("n_I, query, shown, size", [
    (10, lambda f, I: f.value(GroundSet(20).set([12])), r"ElementSet\(\[12\]\)", 20),
    (10, lambda f, I: submax.unconstrained_max_det(f, GroundSet(20).set([1, 12])), r"ElementSet\(\[1, 12\]\)", 20),
    (10, lambda f, I: I.is_independent(GroundSet(20).set([12, 13])), r"ElementSet\(\[12, 13\]\)", 20),
    (10, lambda f, I: I.extensions(I.extension_state(), GroundSet(20).set([12]), [1]), r"ElementSet\(\[12\]\)", 20),
    (10, lambda f, I: f.gains(f.gain_state(), GroundSet(5).set([1]), [7]), r"ElementSet\(\[1\]\)", 5),
    (10, lambda f, I: f.gains(f.gain_state(), GroundSet(5).set([1]), []), r"ElementSet\(\[1\]\)", 5),
    (10, lambda f, I: I.extensions(I.extension_state(), GroundSet(5).set([1]), []), r"ElementSet\(\[1\]\)", 5),
    (20, lambda f, I: submax.greedy(f, I), "the independence system", 20),
    (20, lambda f, I: submax.brute_force_opt(f, I), "the independence system", 20),
], ids=["value", "double-greedy", "is-independent", "extensions", "gains", "gains-empty",
        "extensions-empty", "greedy", "brute-force"])
def test_sets_and_systems_over_another_ground_set_are_refused(n_I, query, shown, size):
    """A set or system over a ground set of another size than the oracle's
    is a ValueError naming both sizes, counted as no query: a 20-element set
    raised numpy's IndexError from a 10-element oracle or passed a
    10-element matroid, greedy ran under a 20-element matroid, and ``gains``
    named candidate 7 as outside a 5-element S instead of naming S's ground
    set.  An empty batch is refused too: ``gains`` checks S before it returns
    early."""
    f = ModularObjective(GroundSet(10), [float(e) for e in range(10)]).oracle()
    I = UniformMatroid(GroundSet(n_I), 3)
    with pytest.raises(ValueError, match=f"^{shown} is over a ground set of size {size}, not 10$"):
        query(f, I)
    assert (f.eval_count, f.marginal_count, I.membership_count) == (0, 0, 0)


_NON_INTEGER_IDS = {
    "set": (lambda g, f, I, S: g.set([1.5, '2']), "element id 1.5"),
    "with-element": (lambda g, f, I, S: S.with_element(1.5), "element id 1.5"),
    "with-present-float": (lambda g, f, I, S: S.with_element(0.0), "element id 0.0"),
    "gains": (lambda g, f, I, S: f.gains(f.gain_state(), S, np.array([0.5, 1.7])),
              r"element id np.float64\(0.5\)"),
    "extensions": (lambda g, f, I, S: I.extensions(I.extension_state(), S, np.array([0.5, 2.9])),
                   r"element id np.float64\(0.5\)"),
    # one candidate, a Python float in a plain list
    "gain": (lambda g, f, I, S: f.gains(f.gain_state(), S, [1.5]), "element id 1.5"),
    "fits": (lambda g, f, I, S: I.extensions(I.extension_state(), S, [2.5]), "element id 2.5"),
    "values-masks": (lambda g, f, I, S: f.values_masks([0, 1], [1.5, 2.7]), "mask 1.5"),
    "independent-masks": (lambda g, f, I, S: I.independent_masks([0, 1], np.array([1.0])),
                          r"mask np.float64\(1.0\)"),
    "boolean-pool": (lambda g, f, I, S: submax.greedy(f, I, candidates=np.array([True, False, True])),
                     "element id np.True_"),
    "set-bool": (lambda g, f, I, S: g.set([True]), "element id True"),
    "with-element-bool": (lambda g, f, I, S: g.empty().with_element(True), "element id True"),
    "gain-bool": (lambda g, f, I, S: f.gains(f.gain_state(), S, [True]), "element id True"),
    "bool-pool": (lambda g, f, I, S: submax.greedy(f, I, candidates=[True, False]), "element id True"),
    "without-float": (lambda g, f, I, S: S.without_element(0.0), "element id 0.0"),
    "difference-float": (lambda g, f, I, S: g.set([0, 1]).difference([0.0]), "element id 0.0"),
    "in-float": (lambda g, f, I, S: 0.0 in S, "element id 0.0"),
    "in-bool": (lambda g, f, I, S: True in g.set([1]), "element id True"),
}


@pytest.mark.parametrize("query", _NON_INTEGER_IDS.values(), ids=_NON_INTEGER_IDS)
def test_ids_and_masks_that_are_not_integers_are_refused(query):
    """An id or a mask that is not an integer is a ValueError naming it,
    counted as no query: not truncated (1.5 to 1), not an IndexError, and a
    boolean array is not read as the ids 0 and 1."""
    run, shown = query
    g = GroundSet(3)
    f, I = ModularObjective(g, [1.0, 2.0, 3.0]).oracle(), UniformMatroid(g, 2)
    S = g.set([0])
    with pytest.raises(ValueError, match=f"^{shown} is not an integer$"):
        run(g, f, I, S)
    assert (f.eval_count, f.marginal_count, I.membership_count, f.cached_base) == (0, 0, 0, None)


_NON_INTEGER_COUNTS = {
    "partition-capacity": (lambda g: submax.PartitionMatroid(g, {0: 'a', 1: 'a', 2: 'a'}, {'a': 1.5}),
                           "block 'a' capacity 1.5"),
    "partition-half": (lambda g: submax.PartitionMatroid(g, {0: 'a'}, {'a': 0.5}), "block 'a' capacity 0.5"),
    "uniform-float": (lambda g: UniformMatroid(g, 2.5), "uniform matroid rank 2.5"),
    "uniform-bool": (lambda g: UniformMatroid(g, True), "uniform matroid rank True"),
    "uniform-str": (lambda g: UniformMatroid(g, '3'), "uniform matroid rank '3'"),
    "genre-m": (lambda g: submax.GenreConstraint(g, {0: {'x'}}, ['x'], m=2.5, m_g=1), "global limit m 2.5"),
    "genre-mg": (lambda g: submax.GenreConstraint(g, {0: {'x'}}, ['x'], m=2, m_g=1.5), "genre 'x' limit 1.5"),
    "k": (lambda g: submax.IndependenceOracle(lambda S: True, g, k=1.5), "k 1.5"),
    "ell-float": (lambda g: submax.repeated_greedy(ModularObjective(g, [1.0] * 6).oracle(),
                                                   UniformMatroid(g, 2), ell=2.5), "ell 2.5"),
    "ell-str": (lambda g: submax.repeated_greedy(ModularObjective(g, [1.0] * 6).oracle(),
                                                 UniformMatroid(g, 2), ell='2'), "ell '2'"),
    "ground-set": (lambda g: GroundSet(2.5), "ground set size 2.5"),
    "seed": (lambda g: Rng(1.5), "master_seed 1.5"),
    "stream": (lambda g: Rng(1, 2.5), "stream_index 2.5"),
    "hard-k": (lambda g: HardInstance(2.0, 8, 4, MODE_M), "k 2.0"),
    "gadget-bool": (lambda g: GadgetParams(True, 2, 1), "k True"),
    "verify-k-float": (lambda g: verify_k_extendible(UniformMatroid(g, 2), k=1.5), "k 1.5"),
    "verify-k-bool": (lambda g: verify_k_extendible(UniformMatroid(g, 2), k=True), "k True"),
    "rounds-float": (lambda g: default_rounds(1.5), "k 1.5"),
    "bound-ell-float": (lambda g: repeated_greedy_bound(1, 2.5, 3), "ell 2.5"),
    "bound-k-float": (lambda g: repeated_greedy_bound(1.5, 2, 3), "k 1.5"),
    "probe-trials": (lambda g: _probe(3, 2.5), "trials 2.5"),
    "probe-set-size": (lambda g: _probe(3.0, 10), "set_size 3.0"),
    "element-id": (lambda g: HardInstance(2, 8, 2, MODE_M).element_id(1.5, 1), "i 1.5"),
    "block-of": (lambda g: HardInstance(2, 8, 2, MODE_M).block_of(2.5), "element id 2.5"),
}


def _probe(set_size, trials):
    return overlap_probe(HardInstance(2, 8, 2, MODE_M), HardInstance(2, 8, 2, MODE_M_PRIME),
                         set_size, trials, Rng(0))


@pytest.mark.parametrize("build", _NON_INTEGER_COUNTS.values(), ids=_NON_INTEGER_COUNTS)
def test_counts_sizes_and_capacities_that_are_not_integers_are_refused(build):
    """A count, size or capacity that is not an integer is a ValueError
    naming it, not truncated (2.5 to 2, True to 1) or compared as a float:
    greedy under a block capacity of 1.5 took all three of the block's
    elements, a set the matroid itself rejects."""
    run, shown = build
    with pytest.raises(ValueError, match=f"^{shown} is not an integer$"):
        run(GroundSet(6))


_BELOW_FLOOR = {
    "oracle-k": (lambda g: submax.IndependenceOracle(lambda S: True, g, k=0), "k must be >= 1, got 0"),
    "partition-capacity": (lambda g: submax.PartitionMatroid(g, {0: 'a'}, {'a': -1}),
                           "block 'a' capacity must be >= 0, got -1"),
    "gadget-k": (lambda g: GadgetParams(0, 2, 1), "k must be >= 1, got 0"),
    "seed": (lambda g: Rng(-1), "master_seed must be >= 0, got -1"),
    "bound-k-zero": (lambda g: repeated_greedy_bound(0, 2, 3), "k must be >= 1, got 0"),
}


@pytest.mark.parametrize("build", _BELOW_FLOOR.values(), ids=_BELOW_FLOOR)
def test_counts_below_their_floor_are_refused(build):
    """A count below its floor (1 for a system's k, ell, trials and the
    gadget's k, h and m; 0 for the rest) is the one ValueError of
    ``core._count``, naming it."""
    run, message = build
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(GroundSet(6))


def test_ids_past_intp_are_refused():
    """An integer id no ``np.intp`` holds is a ValueError naming it, not
    numpy's OverflowError."""
    g = GroundSet(3)
    f, I = ModularObjective(g, [1.0, 2.0, 3.0]).oracle(), UniformMatroid(g, 2)
    for run in (lambda: g.set([1, 2**63]), lambda: submax.greedy(f, I, candidates=[-2**70]),
                lambda: f.gains(f.gain_state(), g.empty(), [2**64])):
        with pytest.raises(ValueError, match=r"^element id -?\d+ does not fit an np.intp$"):
            run()
    assert (f.eval_count, f.marginal_count, I.membership_count) == (0, 0, 0)


def test_numpy_integer_ids_are_read_as_ints():
    g = GroundSet(4)
    S = g.set(np.array([3, 1], dtype=np.uint8)).with_element(np.int64(2))
    assert S.members == (1, 2, 3) and all(type(e) is int for e in S.members)
    assert np.int64(1) in S and np.uint8(0) not in S


def test_membership_table_belongs_to_its_set():
    """A batch check reads the table of the set it is given: a larger set
    built after its parent's table still refuses its own new member."""
    g = GroundSet(6)
    f, I = ModularObjective(g, [1.0] * 6).oracle(), UniformMatroid(g, 4)
    S = g.set([0])
    assert f.gains(f.gain_state(), S, [1, 2]).tolist() == [1.0, 1.0]
    assert I.extensions(I.extension_state(), S, [1, 2]).tolist() == [1, 2]
    T = S.with_element(1)
    with pytest.raises(ValueError, match="outside S"):
        f.gains(f.gain_state(), T, [2, 1])
    with pytest.raises(ValueError, match="outside S"):
        I.extensions(I.extension_state(), T, [2, 1])


# ---------------------------------------------------------------------------
# Values of mask arrays
# ---------------------------------------------------------------------------


def _bits(values) -> list[int]:
    """Float values as IEEE bit patterns, so that -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _forbidden(S: ElementSet) -> float:
    raise AssertionError(f"evaluated {S!r} one set at a time")


def _loop(f: ValueOracle, elems, masks) -> list[float]:
    return [f.value(reference._mask_set(f, elems, m)) for m in masks]


def _state(f: ValueOracle):
    """The counts and the cached base, its value as bits."""
    base = f.cached_base and (f.cached_base[0], _bits([f.cached_base[1]]))
    return f.eval_count, f.marginal_count, base


@st.composite
def modular_mask_batches(draw):
    """Dyadic or real-valued weights (-0.0 among them), an element list,
    masks with consecutive repeats (the empty mask among them), and the
    cached base before the batch: none, the first mask's set at its value or
    at another, or some other set."""
    n = draw(st.integers(1, 9))
    weight = st.integers(0, 40).map(lambda k: k / 8)
    if draw(st.booleans()):
        weight = st.floats(0.0, 1e6)
    weights = draw(st.lists(st.one_of(st.just(-0.0), weight), min_size=n, max_size=n))
    elems = sorted(draw(st.lists(st.integers(0, n - 1), unique=True)))
    runs = draw(st.lists(st.tuples(st.integers(0, (1 << len(elems)) - 1), st.integers(1, 3)), max_size=12))
    masks = [m for m, times in runs for _ in range(times)]
    return weights, elems, masks, draw(st.sampled_from(("none", "first", "first-other-value", "other")))


@given(modular_mask_batches())
@settings(max_examples=300, deadline=None)
def test_values_masks_equal_per_set_values_bit_for_bit(batch):
    """The modular batch rule gives the loop of ``f.value`` bit for bit,
    values, counts and cached base alike, without evaluating a set."""
    weights, elems, masks, base = batch
    g = GroundSet(len(weights))
    batched, one_by_one = ModularObjective(g, weights).oracle(), ModularObjective(g, weights).oracle()
    first = reference._mask_set(batched, elems, masks[0] if masks else 0)
    for f in (batched, one_by_one):
        if base == "first":
            f.value(first)
        elif base == "first-other-value":
            f.set_base(first, 0.5)
        elif base == "other":
            f.value(g.full())
    batched._fn = _forbidden
    assert _bits(batched.values_masks(elems, masks)) == _bits(_loop(one_by_one, elems, masks))
    assert _state(batched) == _state(one_by_one)


class _Doubled(ModularObjective):
    """Overrides ``evaluate`` alone: its batch queries must ask it."""

    def evaluate(self, S):
        return 2.0 * ModularObjective.evaluate(self, S)


_WEIGHTS = [0.25, 1.5, 0.1, 3.0, 0.7, 2.0]
_NO_BATCH_RULE = {
    "bare-function": lambda: ValueOracle(ModularObjective(GroundSet(6), _WEIGHTS).evaluate, GroundSet(6)),
    "evaluate-only-subclass": lambda: _Doubled(GroundSet(6), _WEIGHTS).oracle(),
    "coverage-dispersion": lambda: generate(SyntheticSpec(kind="coverage_dispersion", n=6, seed=2))[0],
}


@pytest.mark.parametrize("make", _NO_BATCH_RULE.values(), ids=_NO_BATCH_RULE)
def test_values_masks_ask_one_set_at_a_time_without_a_batch_rule(make):
    elems, masks = [0, 2, 3, 5], [0, 5, 5, 15, 9, 0]
    batched, one_by_one = make(), make()
    asked, fn = [], batched._fn
    batched._fn = lambda S: asked.append(S) or fn(S)
    assert batched.values_masks(elems, masks).tolist() == _loop(one_by_one, elems, masks)
    assert asked == [reference._mask_set(batched, elems, m) for m in (0, 5, 15, 9, 0)]
    assert _state(batched) == _state(one_by_one)


@pytest.mark.parametrize("how", ("rule", "bare-function", "coverage-dispersion"))
def test_values_masks_refuse_bad_input(how):
    """The refusals of ``independent_masks`` (n = 80), counted as no query
    and leaving the cached base alone; 63 elements are answered."""
    g = GroundSet(80)
    if how == "coverage-dispersion":
        f = generate(SyntheticSpec(kind="coverage_dispersion", n=80, seed=2))[0]
    else:
        f = ModularObjective(g, np.arange(80) / 8).oracle()
        if how == "bare-function":
            f = ValueOracle(f.objective.evaluate, g)
    bad = [([-1, 0], [3]), ([0, 80], [1]), ([1, 0], [1]), ([0, 0], [1]),
           ([0], [3]), ([0], [-1]), ([], [1]), (list(range(64)), [0])]
    for elems, masks in bad:
        with pytest.raises(ValueError):
            f.values_masks(elems, masks)
    assert (f.eval_count, f.cached_base) == (0, None)
    elems, masks = list(range(63)), [2**63 - 1, 7, 0b10011]
    assert f.values_masks(elems, masks).tolist() == [f._fn(reference._mask_set(f, elems, m)) for m in masks]


class _Shifted(ModularObjective):
    """f(S) = w(S) - 1, negative on light sets, with a batch rule of its own."""

    def evaluate(self, S):
        return ModularObjective.evaluate(self, S) - 1.0

    def _evaluate_masks(self, elems, masks):
        return ModularObjective._evaluate_masks(self, elems, masks) - 1.0


@pytest.mark.parametrize("masks,cached,error", [
    ([3, 3, 1, 0, 2], None, "-1.0 < 0 on ElementSet([])"),  # fourth: the first negative evaluated
    ([0, 0, 1], (0, 2.5), None),  # a cached base is served unchecked, as value() serves it
    ([1, 2, 4], (0, 2.5), "-0.5 < 0 on ElementSet([2])"),
])
def test_values_masks_raise_on_the_first_negative_set_evaluated(masks, cached, error):
    """A batch rule's negative values raise as the loop of ``f.value``
    does: the same message, counts and cached base left behind."""
    g = GroundSet(3)
    runs = []
    for batch in (True, False):
        f = _Shifted(g, [1.0, 1.0, 0.5]).oracle()
        if cached is not None:
            f.set_base(reference._mask_set(f, [0, 1, 2], cached[0]), cached[1])
        try:
            outcome = _bits(f.values_masks([0, 1, 2], masks) if batch else _loop(f, [0, 1, 2], masks))
        except NonNegativityError as exc:
            outcome = str(exc)
        runs.append((outcome, _state(f)))
    assert runs[0] == runs[1]
    assert isinstance(runs[0][0], list) if error is None else runs[0][0].endswith(error)


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
