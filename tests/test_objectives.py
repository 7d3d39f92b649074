"""Objective families, synthetic generation, and brute-force property checks."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from submax import (
    CoverageDispersionObjective,
    CutObjective,
    GroundSet,
    ModularObjective,
    NonNegativityError,
    Rng,
    SyntheticSpec,
    ValueOracle,
    WeightedCoverageObjective,
    check_monotone,
    check_submodular,
    generate,
    load_similarity_csv,
)
import submax.objectives as objectives
from submax.core import _subset_table
from reference import check_submodular_pairwise, check_symmetric, cut_value, value_table


# ---------------------------------------------------------------------------
# Modular
# ---------------------------------------------------------------------------


def test_modular_value_and_flags():
    g = GroundSet(4)
    obj = ModularObjective(g, [1.0, 2.0, 0.5, 0.0])
    f = obj.oracle()
    assert f.value(g.set([0, 1])) == 3.0
    assert f.value(g.empty()) == 0.0
    assert obj.is_modular and obj.declares_monotone
    assert check_monotone(f)
    assert check_submodular(f)


def _left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def test_evaluate_adds_left_to_right():
    """Modular and weighted-coverage values are plain left-to-right float
    sums, on every Python: from 3.12 on the builtin ``sum`` compensates, and
    0.1 + 0.2 + 0.3 would read 0.6 instead of 0.6000000000000001.  Modular
    adds in ascending element order and weighted coverage in ascending item
    order, whatever order a cover lists its items in."""
    g = GroundSet(3)
    assert ModularObjective(g, [0.1, 0.2, 0.3]).evaluate(g.full()) == 0.1 + 0.2 + 0.3
    assert WeightedCoverageObjective(g, [{0}, {1}, {2}], [0.1, 0.2, 0.3]).evaluate(g.full()) \
        == 0.1 + 0.2 + 0.3
    # the set {1, 2, 8} iterates as 8, 1, 2, which adds to 0.6
    w = [0.0, 0.2, 0.1] + [0.0] * 5 + [0.3]
    two = GroundSet(2)
    assert WeightedCoverageObjective(two, [{8}, {2, 1}], w).evaluate(two.full()) \
        == _left_to_right([0.2, 0.1, 0.3]) != _left_to_right(w[i] for i in {1, 2, 8})
    gen = np.random.default_rng(5)
    n = 12
    weights = gen.random(n).tolist()
    covers = [set(np.flatnonzero(row).tolist()) for row in gen.random((n, 3 * n)) < 0.3]
    item_weights = gen.random(3 * n).tolist()
    modular = ModularObjective(GroundSet(n), weights)
    coverage = WeightedCoverageObjective(GroundSet(n), covers, item_weights)
    for _ in range(50):
        S = GroundSet(n).set(np.flatnonzero(gen.random(n) < 0.5).tolist())
        assert modular.evaluate(S) == _left_to_right(weights[e] for e in S)
        covered: set[int] = set()
        for e in S:
            covered |= covers[e]
        assert coverage.evaluate(S) == _left_to_right(item_weights[i] for i in sorted(covered))


def test_modular_rejects_negative_weights():
    with pytest.raises(ValueError):
        ModularObjective(GroundSet(2), [1.0, -0.5])


def test_modular_mapping_form():
    g = GroundSet(4)
    obj = ModularObjective(g, {1: 2.0, 3: 1.0})
    assert obj.oracle().value(g.set([0, 1, 3])) == 3.0
    # an id outside the ground set is refused, not dropped
    with pytest.raises(ValueError, match="^element -1 outside ground set of size 3$"):
        ModularObjective(GroundSet(3), {5: 1.0, -1: 2.0, 0: 0.5})
    with pytest.raises(ValueError, match="^element 5 outside ground set of size 3$"):
        ModularObjective(GroundSet(3), {5: 1.0, 0: 0.5})
    # an id that is not an integer is refused, not truncated (1.5 to 1) or dropped
    with pytest.raises(ValueError, match="^element id 1.5 is not an integer$"):
        ModularObjective(GroundSet(3), {0: 1.0, 1.5: 2.0})
    with pytest.raises(ValueError, match="^element id '2' is not an integer$"):
        ModularObjective(GroundSet(3), {0: 1.0, "2": 2.0})
    assert ModularObjective(g, {np.int64(1): 2.0, 3: 1.0}).weights.tolist() == [0.0, 2.0, 0.0, 1.0]


@pytest.mark.parametrize("build, message", [
    (lambda: ModularObjective(GroundSet(3), [1.0, 2.0]), "expected 3 weights, got 2"),
    (lambda: WeightedCoverageObjective(GroundSet(3), [[0], [1]], [1.0, 1.0]),
     "expected 3 cover sets, got 2"),
    (lambda: SyntheticSpec(kind="modular", n=3, seed=1, lam=1.5).validate(),
     r"lam must lie in \[0, 1\], got 1.5"),
], ids=["modular-count", "coverage-count", "spec-lam"])
def test_objective_inputs_of_the_wrong_shape_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


_OVER_FOUR = {
    "modular": lambda g: ModularObjective(g, [1.0, 2.0, 3.0, 4.0]),
    "coverage-dispersion": lambda g: CoverageDispersionObjective(g, np.ones((4, 4)), lam=0.5),
    "cut": lambda g: CutObjective(g, np.ones((4, 4)) - np.eye(4)),
    "weighted-coverage": lambda g: WeightedCoverageObjective(g, [[0], [1, 2], [2], [3]], [1.0] * 4),
}


@pytest.mark.parametrize("other", [8, 2])
@pytest.mark.parametrize("kind", list(_OVER_FOUR))
def test_evaluate_refuses_a_set_over_another_ground_set(kind, other):
    """An objective's own ``evaluate`` refuses a set over a ground set of
    another size with the message of ``ValueOracle.value``: a set over 8
    elements raised numpy's IndexError, and one over 2 was valued as a set
    of the objective's 4 elements."""
    obj = _OVER_FOUR[kind](GroundSet(4))
    S = GroundSet(other).set([1, 6] if other > 4 else [1])
    message = re.escape(f"{S!r} is over a ground set of size {other}, not 4")
    for query in (obj.evaluate, obj.oracle().value):
        with pytest.raises(ValueError, match=f"^{message}$"):
            query(S)


# ---------------------------------------------------------------------------
# Cut
# ---------------------------------------------------------------------------


def test_cut_path_values():
    g = GroundSet(3)
    obj = CutObjective.from_edges(g, [(0, 1, 1.0), (1, 2, 1.0)])
    f = obj.oracle()
    assert f.value(g.set([1])) == 2.0
    assert f.value(g.set([0])) == 1.0
    assert f.value(g.full()) == 0.0
    assert f.value(g.empty()) == 0.0


def test_cut_is_submodular_not_monotone():
    g = GroundSet(4)
    obj = CutObjective.from_edges(g, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)])
    f = obj.oracle()
    assert check_submodular(f)
    assert not check_monotone(f)


def test_cut_validation():
    g = GroundSet(3)
    with pytest.raises(ValueError):
        CutObjective(g, np.array([[0.0, -1.0, 0], [-1.0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        CutObjective(g, np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0]]))  # diagonal
    with pytest.raises(ValueError):
        CutObjective(g, np.zeros((2, 2)))  # wrong shape
    near = np.array([[0.0, 0.5, 0], [0.5 + 1e-12, 0, 0], [0, 0, 0]])
    assert CoverageDispersionObjective(g, near, lam=1.0).similarity is not None
    with pytest.raises(ValueError, match="cut weight matrix must be symmetric"):
        CutObjective(g, near)  # coverage-dispersion's 1e-9 tolerance is not enough


# ---------------------------------------------------------------------------
# Coverage-dispersion
# ---------------------------------------------------------------------------


def _sym(n, seed, zero_diag=False):
    gen = Rng(seed, 1).generator
    m = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    m[iu] = gen.integers(0, 9, size=len(iu[0])) / 8.0
    m = m + m.T
    if not zero_diag:
        for i in range(n):
            m[i, i] = gen.integers(0, 9) / 8.0
    return m


def test_coverage_dispersion_two_node_example():
    g = GroundSet(2)
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    obj = CoverageDispersionObjective(g, s, lam=1.0)
    f = obj.oracle()
    assert f.value(g.set([0])) == 1.0
    assert f.value(g.full()) == 0.0


def test_coverage_dispersion_matches_direct_formula():
    n = 8
    s = _sym(n, 3)
    g = GroundSet(n)
    obj = CoverageDispersionObjective(g, s, lam=0.5)
    f = obj.oracle()
    for mask in range(1 << n):
        members = [e for e in range(n) if mask >> e & 1]
        S = g.set(members)
        cov = sum(s[i, j] for i in members for j in range(n))
        disp = sum(s[i, j] for i in members for j in members)
        assert f.value(S) == cov - 0.5 * disp  # dyadic data: exact


def test_coverage_dispersion_lam_one_zero_diag_equals_cut():
    n = 7
    s = _sym(n, 5, zero_diag=True)
    g = GroundSet(n)
    cd = CoverageDispersionObjective(g, s, lam=1.0).oracle()
    cut = CutObjective(g, s).oracle()
    for mask in range(1 << n):
        members = [e for e in range(n) if mask >> e & 1]
        S = g.set(members)
        assert cd.value(S) == cut.value(S) == cut_value(s, members)


@pytest.mark.parametrize("cls", ["cut", "coverage_dispersion"])
def test_lam_one_full_set_is_zero_on_real_valued_weights(cls):
    # cov - disp, summed as two sums, came out below 0 at N on 43 of these
    g = GroundSet(40)
    for seed in range(200):
        w = np.triu(np.random.default_rng(seed).random((40, 40)), 1)
        w = w + w.T
        obj = CutObjective(g, w) if cls == "cut" else CoverageDispersionObjective(g, w, lam=1.0)
        assert obj.oracle().value(g.full()) == 0.0, seed


def test_coverage_dispersion_is_submodular_any_lam():
    n = 7
    s = _sym(n, 11)
    g = GroundSet(n)
    for lam in (0.0, 0.25, 1.0):
        f = CoverageDispersionObjective(g, s, lam=lam).oracle()
        assert check_submodular(f), lam
    assert check_monotone(CoverageDispersionObjective(g, s, lam=0.0).oracle())


def test_coverage_dispersion_restricted_universe_domain():
    n = 6
    s = _sym(n, 7)
    g = GroundSet(n)
    obj = CoverageDispersionObjective(g, s, lam=0.5, universe_u=[0, 1, 2])
    f = obj.oracle()
    f.value(g.set([0, 2]))  # in-domain
    with pytest.raises(ValueError, match="4"):
        f.value(g.set([0, 4]))


def test_coverage_dispersion_validation():
    g = GroundSet(3)
    asym = np.array([[0, 1, 0], [0.5, 0, 0], [0, 0, 0]], dtype=float)
    with pytest.raises(ValueError):
        CoverageDispersionObjective(g, asym, lam=0.5)
    with pytest.raises(ValueError):
        CoverageDispersionObjective(g, np.zeros((3, 3)), lam=1.5)
    neg = np.array([[0, -1.0, 0], [-1.0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        CoverageDispersionObjective(g, neg, lam=0.5)


# ---------------------------------------------------------------------------
# Weighted coverage
# ---------------------------------------------------------------------------


def test_weighted_coverage_monotone_submodular():
    g = GroundSet(5)
    covers = [frozenset({0, 1}), frozenset({1, 2}), frozenset({3}),
              frozenset({0, 3}), frozenset({4})]
    obj = WeightedCoverageObjective(g, covers, [1.0, 2.0, 0.5, 1.5, 1.0])
    f = obj.oracle()
    assert f.value(g.set([0, 1])) == 3.5  # items 0,1,2
    assert check_monotone(f)
    assert check_submodular(f)


# ---------------------------------------------------------------------------
# Property checks catch violations
# ---------------------------------------------------------------------------


def test_check_submodular_rejects_supermodular():
    g = GroundSet(5)
    f = ValueOracle(lambda S: float(len(S)) ** 2, g)
    assert not check_submodular(f)
    assert not check_submodular_pairwise(ValueOracle(lambda S: float(len(S)) ** 2, g))


def test_check_forms_agree():
    for seed in range(4):
        n = 6
        s = _sym(n, seed)
        g = GroundSet(n)
        f1 = CoverageDispersionObjective(g, s, lam=0.5).oracle()
        f2 = CoverageDispersionObjective(g, s, lam=0.5).oracle()
        assert check_submodular(f1) == check_submodular_pairwise(f2)
    g = GroundSet(5)
    quad = lambda S: float(len(S)) ** 2  # noqa: E731
    assert check_submodular(ValueOracle(quad, g)) \
        == check_submodular_pairwise(ValueOracle(quad, g)) is False


@pytest.mark.parametrize("kind", ["coverage_dispersion", "weighted_coverage", "cut", "modular"])
def test_value_table_equals_the_per_set_reference(kind):
    """The value table, built by ``f.values_masks`` (modular's batch rule,
    the per-set loop ``core._each_set`` for the other kinds), gives the
    reference's values index for index and makes the same counted
    evaluations, one per subset."""
    elems = [0, 2, 3, 5, 6, 8]
    f, _ = generate(SyntheticSpec(kind=kind, n=9, seed=4))
    ref, _ = generate(SyntheticSpec(kind=kind, n=9, seed=4))
    _, vals = _subset_table(f.ground, elems, "check_submodular", f.values_masks)
    assert vals.tolist() == value_table(ref, elems).tolist()
    assert (f.eval_count, f.marginal_count) == (ref.eval_count, ref.marginal_count) \
        == (1 << len(elems), 0)


@pytest.mark.parametrize("check", [check_submodular, check_monotone])
@pytest.mark.parametrize("bad", [-1, 9])
def test_property_checks_reject_elements_outside_the_ground_set(check, bad):
    f, _ = generate(SyntheticSpec(kind="cut", n=9, seed=4))
    with pytest.raises(ValueError, match=f"element {bad} outside ground set of size 9"):
        check(f, [0, bad, 3])
    assert f.eval_count == 0


def test_oracle_negativity_guard_end_to_end():

    g = GroundSet(4)
    f = ValueOracle(lambda S: 1.0 - len(S), g)
    with pytest.raises(NonNegativityError):
        check_monotone(f)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["modular", "coverage_dispersion", "cut",
                                  "weighted_coverage"])
def test_generate_deterministic(kind):
    spec = SyntheticSpec(kind=kind, n=8, seed=42)
    f1, g1 = generate(spec)
    f2, g2 = generate(spec)
    assert g1.n == g2.n == 8
    probes = [g1.set([0, 3]), g1.set([1, 2, 5]), g1.full(), g1.empty()]
    for S in probes:
        assert f1.value(S) == f2.value(S)


def test_generate_seeds_differ():
    a, g = generate(SyntheticSpec(kind="cut", n=8, seed=1))
    b, _ = generate(SyntheticSpec(kind="cut", n=8, seed=2))
    vals_a = [a.value(g.set([i, (i + 3) % 8])) for i in range(8)]
    vals_b = [b.value(g.set([i, (i + 3) % 8])) for i in range(8)]
    assert vals_a != vals_b


@pytest.mark.parametrize("kind", ["modular", "coverage_dispersion", "cut",
                                  "weighted_coverage"])
def test_generated_objectives_are_submodular_and_nonneg(kind):
    f, g = generate(SyntheticSpec(kind=kind, n=7, seed=9))
    assert check_submodular(f)  # also exercises non-negativity on every subset


def test_generate_values_are_dyadic():
    f, g = generate(SyntheticSpec(kind="coverage_dispersion", n=7, seed=13))
    for mask in range(0, 1 << 7, 11):
        v = f.value(g.set([e for e in range(7) if mask >> e & 1]))
        assert (v * 8) == int(v * 8), v  # exact eighths stay exact in floats


def test_tie_free_entries_distinct():
    f, g = generate(SyntheticSpec(kind="coverage_dispersion", n=8, seed=4,
                                  tie_free=True))
    s = f.objective.similarity
    iu = np.triu_indices(8, k=1)
    vals = s[iu]
    assert len(set(vals.tolist())) == len(vals)


def _symmetric_dyadic_loop(gen, n, density, tie_free):
    """The per-pair construction of symmetric dyadic matrices, kept as the
    reference for the vectorised generator."""
    w = np.zeros((n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return w
    if tie_free:
        present = np.ones(len(pairs), dtype=bool)
        nums = gen.choice(np.arange(1, 8 * len(pairs) + 1), size=len(pairs), replace=False)
        vals = nums.astype(float) / 8.0
    else:
        present = gen.random(len(pairs)) < density
        vals = gen.integers(1, 64, size=len(pairs)).astype(float) / 8.0
    for (i, j), on, v in zip(pairs, present, vals):
        if on:
            w[i, j] = w[j, i] = v
    return w


def _coverage_loop(gen, n, density, tie_free):
    """The per-row construction of weighted-coverage data (reference)."""
    n_items = max(2 * n, 1)
    covers = [np.flatnonzero(gen.random(n_items) < density) for _ in range(n)]
    if tie_free:
        nums = gen.choice(np.arange(1, 8 * n_items + 1), size=n_items, replace=False)
        item_w = nums.astype(float) / 8.0
    else:
        item_w = gen.integers(1, 64, size=n_items).astype(float) / 8.0
    return [c.tolist() for c in covers], item_w.tolist()


def _modular_loop(gen, n, tie_free):
    """The modular weights (reference)."""
    if tie_free:
        nums = gen.choice(np.arange(1, 8 * max(n, 1) + 1), size=n, replace=False)
        return (nums.astype(float) / 8.0).tolist()
    return (gen.integers(0, 64, size=n).astype(float) / 8.0).tolist()


GENERATION_SPECS = [
    SyntheticSpec(kind=kind, n=n, seed=seed, density=density, tie_free=tie_free)
    for kind in ("modular", "cut", "coverage_dispersion", "weighted_coverage")
    for n, seed, density in ((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.9), (9, 4, 0.5), (37, 5, 0.13),
                             (256, 7, 0.5), (300, 6, 0.05), (513, 8, 0.3))
    for tie_free in (False, True)
]


@pytest.mark.parametrize("spec", GENERATION_SPECS, ids=repr)
def test_vectorised_generation_equals_loop_reference(spec):
    # an explicit stream, so that its position after generation can be read
    rng = Rng(spec.seed, 3)
    obj = generate(spec, rng=rng)[0].objective
    gen = Rng(spec.seed, 3).generator
    if spec.kind == "modular":
        assert list(obj.weights) == _modular_loop(gen, spec.n, spec.tie_free)
    elif spec.kind == "weighted_coverage":
        covers, item_w = _coverage_loop(gen, spec.n, spec.density, spec.tie_free)
        assert _cover_rows(obj) == covers
        assert list(obj.item_weights) == item_w
    else:
        ref = _symmetric_dyadic_loop(gen, spec.n, spec.density, spec.tie_free)
        data = obj.weights if spec.kind == "cut" else obj.similarity
        assert data.dtype == ref.dtype and np.array_equal(data, ref)
    # generation left both streams at the same position
    assert rng.generator.random() == gen.random()


@pytest.mark.parametrize("density,tie_free", [(0.0, False), (0.5, False), (1.0, False), (0.5, True)])
@pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 600])
def test_symmetric_dyadic_equals_loop_reference(n, density, tie_free):
    # n = 600 draws its 179,700 presence doubles in three chunks
    gen, ref_gen = Rng(n, 5).generator, Rng(n, 5).generator
    w = objectives._symmetric_dyadic(gen, n, density, tie_free)
    ref = _symmetric_dyadic_loop(ref_gen, n, density, tie_free)
    assert w.dtype == ref.dtype and w.tobytes() == ref.tobytes()
    assert gen.random() == ref_gen.random()


def _symmetry_outcome(check, a, atol):
    try:
        return check(a, "not symmetric", atol)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("atol", [1e-9, 0.0])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
def test_tiled_symmetry_check_equals_whole_matrix_reference(n, atol):
    # one perturbed entry in the first diagonal tile, in an off-diagonal tile
    # and in the last (partial) tile, above or below the diagonal; a zero
    # entry's +0.0 -> -0.0 flip is symmetric within any tolerance, not bit
    # for bit
    base = np.random.default_rng(n).random((n, n))
    base = base + base.T
    assert _symmetry_outcome(objectives._check_symmetric, base, atol) is True
    places = [(i, j) for i, j in ((3, 100), (3, 300), (100, n - 1), (n - 2, n - 1)) if 0 <= i < j < n]
    seen = set()
    for i, j in places + [(j, i) for i, j in places]:
        for kind in ("-0.0", "+1e-12", "+1e-6"):
            a = base.copy()
            if kind == "-0.0":
                a[i, j] = a[j, i] = 0.0
                a[i, j] = -0.0
            else:
                a[i, j] += float(kind)
            got = _symmetry_outcome(objectives._check_symmetric, a, atol)
            assert got == _symmetry_outcome(check_symmetric, a, atol), (i, j, kind)
            seen.add(got)
    assert seen == ({False, "not symmetric"} if places else set())


def test_tolerant_symmetry_check_peak_memory():
    import tracemalloc

    a = np.random.default_rng(5).random((2000, 2000))
    a = a + a.T
    a[1999, 1998] += 1e-12  # in the last tile: both tests read every tile
    tracemalloc.start()
    try:
        assert objectives._check_symmetric(a, "not symmetric") is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _layout(n: int, layout: str) -> np.ndarray:
    """A symmetric matrix of non-negative non-dyadic entries, where summation
    order shows in the last bits: C- or F-ordered, or ("near") symmetric
    within 1e-9 only."""
    s = np.random.default_rng(n).random((n, n))
    s = s + s.T
    if layout == "F":
        s = np.asfortranarray(s)
    elif layout == "near" and n > 1:
        s[0, 1] += 1e-12
    return s


@pytest.mark.parametrize("layout", ["C", "F", "near"])
@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_full_universe_row_coverage_is_the_column_copy_sum(n, layout):
    s = _layout(n, layout)
    obj = CoverageDispersionObjective(GroundSet(n), s, lam=0.5)
    ref = s[:, np.arange(n)].sum(axis=1)
    assert obj._row_coverage.tobytes() == ref.tobytes()


@pytest.mark.parametrize("layout", ["C", "F", "near"])
@pytest.mark.parametrize("size", ["empty", "one", "half", "all-but-one"])
@pytest.mark.parametrize("n", [7, 300])
def test_restricted_universe_row_coverage_is_the_column_copy_sum(n, size, layout):
    s = _layout(n, layout)
    k = {"empty": 0, "one": 1, "half": n // 2, "all-but-one": n - 1}[size]
    nu = np.sort(np.random.default_rng(k).choice(n, size=k, replace=False))
    obj = CoverageDispersionObjective(GroundSet(n), s, lam=0.5, universe_u=nu.tolist())
    assert obj._row_coverage.tobytes() == s[:, nu].sum(axis=1).tobytes()


def _cover_rows(obj) -> list:
    """Each element's cover, read from the compressed rows (at n = 0,
    ``np.split`` still returns one empty piece)."""
    return [r.tolist() for r in np.split(obj._items, obj._indptr[1:-1])][:obj.ground.n]


def test_weighted_coverage_gain_rows_are_sorted_covers():
    covers = [{9, 1, 8, 0}, set(), {3}, {7, 2, 16, 5}]
    obj = WeightedCoverageObjective(GroundSet(4), covers, [1.0] * 17)
    assert _cover_rows(obj) == [sorted(c) for c in covers]
    # an item a cover repeats is covered once
    repeated = [[9, 1, 9, 0, 1], [3, 3], [], [16, 2, 16]]
    obj = WeightedCoverageObjective(GroundSet(4), repeated, [2.0 ** -i for i in range(17)])
    assert _cover_rows(obj) == [[0, 1, 9], [3], [], [2, 16]]
    assert obj.evaluate(GroundSet(4).set([0, 1])) == 1 + 0.5 + 2.0 ** -9 + 2.0 ** -3
    assert obj.gain_state().gains([0, 1]).tolist() == [1 + 0.5 + 2.0 ** -9, 2.0 ** -3]
    with pytest.raises(ValueError, match=r"cover refers to unknown items: \[-2, -1, 17, 20, 30\]"):
        WeightedCoverageObjective(GroundSet(2), [{30, 0, -1, 17, 40}, {20, -2, 17}], [1.0] * 17)
    # integer arrays are taken as they are, any other iterable id by id; an
    # item id that is not an integer is refused, not truncated (1.5 to 1)
    arrays = [np.array([9, 1, 8, 0], dtype=np.uint8), np.array([], dtype=np.intp),
              np.array([3], dtype=np.int32), iter([7, 2, 16, 5])]
    assert _cover_rows(WeightedCoverageObjective(GroundSet(4), arrays, [1.0] * 17)) == \
        [sorted(c) for c in covers]
    for bad, shown in (([0, 1.5], "1.5"), (np.array([0.0, 1.0]), r"np.float64\(0.0\)"),
                       (["1"], "'1'")):
        with pytest.raises(ValueError, match=f"^cover item {shown} is not an integer$"):
            WeightedCoverageObjective(GroundSet(2), [bad, []], [1.0] * 2)


@pytest.mark.parametrize("kind,density,tie_free,cap_mib", [
    ("weighted_coverage", 0.01, False, 16),
    # the covers arrive as 4M ids, one np.intp array per element (131 MiB
    # measured; as Python int lists they took 275 MiB)
    ("weighted_coverage", 0.5, False, 180),
    # the matrix (30.5 MiB), the one integer draw (15.3) and the presence
    # mask (1.9), with no room for a float copy of the draw
    ("coverage_dispersion", 0.5, False, 52),
    ("cut", 0.5, False, 52),
    # the tie-free draw permutes its 8 * 1,999,000 candidates (122 MiB), and
    # drawing from an array of them would hold another copy
    ("coverage_dispersion", 0.5, True, 200),
])
def test_generation_memory_peak(kind, density, tie_free, cap_mib):
    import tracemalloc

    spec = SyntheticSpec(kind=kind, n=2000, seed=1, density=density, tie_free=tie_free)
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cap_mib * 2**20, f"{kind}: peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_objectives_reject_non_finite_data(bad):
    g = GroundSet(2)
    m = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        ModularObjective(g, [bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        CutObjective(g, m)
    with pytest.raises(ValueError, match="finite"):
        CoverageDispersionObjective(g, m, lam=0.5)
    with pytest.raises(ValueError, match="finite"):
        WeightedCoverageObjective(g, [[0], [1]], [1.0, bad])


def test_objectives_reject_finite_data_whose_total_overflows():
    g = GroundSet(2)
    m = np.array([[0.0, 1e308], [1e308, 0.0]])
    with pytest.raises(ValueError, match="total must be finite"):
        ModularObjective(g, [1e308, 1e308])
    with pytest.raises(ValueError, match="total must be finite"):
        CutObjective(g, m)
    with pytest.raises(ValueError, match="total must be finite"):
        CoverageDispersionObjective(g, m, lam=0.5)
    with pytest.raises(ValueError, match="total must be finite"):
        WeightedCoverageObjective(g, [[0], [1]], [1e308, 1e308])


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(kind="nope", n=5, seed=1).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(kind="cut", n=-1, seed=1).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(kind="cut", n=5, seed=1, density=1.5).validate()
    SyntheticSpec(kind="cut", n=0, seed=1).validate()  # empty ground is legal


def test_objectives_refuse_negative_data_by_name():
    g = GroundSet(2)
    with pytest.raises(ValueError, match="^modular weights must be non-negative$"):
        ModularObjective(g, [1.0, -0.5])
    with pytest.raises(ValueError, match="^item weights must be non-negative$"):
        WeightedCoverageObjective(g, [[0], [1]], [1.0, -0.5])
    with pytest.raises(ValueError, match="^similarity entries must be non-negative$"):
        CoverageDispersionObjective(g, np.array([[0.0, -1.0], [-1.0, 0.0]]), lam=0.5)


def test_weights_are_one_read_only_array():
    g = GroundSet(2)
    for w in (ModularObjective(g, {1: 2.0}).weights,
              WeightedCoverageObjective(g, [[0], [1, 0]], (1.0, 2.0)).item_weights):
        assert w.dtype == float and w.tolist() in ([0.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 5.0


def test_weighted_coverage_rejects_mapping_weights():
    g = GroundSet(2)
    with pytest.raises(ValueError, match="mapping"):
        WeightedCoverageObjective(g, [frozenset({0}), frozenset()], {0: 1.0})


# ---------------------------------------------------------------------------
# Similarity CSV
# ---------------------------------------------------------------------------


def test_similarity_csv_roundtrip(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("a,b,c\n0,1,0.5\n1,0,0.25\n0.5,0.25,0\n")
    mat, labels = load_similarity_csv(str(p))
    assert labels == ["a", "b", "c"]
    assert mat[0, 1] == 1.0 and mat[2, 0] == 0.5


def test_similarity_csv_rejects_negative(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("a,b\n0,-1\n-1,0\n")
    with pytest.raises(ValueError):
        load_similarity_csv(str(p))


def test_similarity_csv_rejects_asymmetric(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("a,b\n0,1\n0.5,0\n")
    with pytest.raises(ValueError):
        load_similarity_csv(str(p))


def test_similarity_csv_rejects_nan(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("a,b\n0,nan\nnan,0\n")
    with pytest.raises(ValueError, match="finite"):
        load_similarity_csv(str(p))


def test_similarity_csv_rejects_ragged(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("a,b\n0,1\n1\n")
    with pytest.raises(ValueError):
        load_similarity_csv(str(p))


def test_similarity_csv_parses_each_cell_as_float_does(tmp_path):
    # 16 x 16 cells of repr'd doubles over many magnitudes and the edge
    # spellings float() accepts, mirrored so the matrix is symmetric
    rng = np.random.default_rng(5)
    n = 16
    cells = [[""] * n for _ in range(n)]
    edge = [" 0.5 ", "1_000", "1e-400", "-0.0", "7", "2.5E+3", "0001.250"]
    k = 0
    for i in range(n):
        for j in range(i, n):
            if k < len(edge):
                c = edge[k]
            else:
                c = repr(float(rng.random() * 10.0 ** int(rng.integers(-300, 300))))
            cells[i][j] = cells[j][i] = c
            k += 1
    p = tmp_path / "s.csv"
    p.write_text(",".join(f"e{i}" for i in range(n)) + "\n"
                 + "".join(",".join(row) + "\n" for row in cells))
    mat, _labels = load_similarity_csv(str(p))
    ref = np.array([[float(c) for c in row] for row in cells])
    assert mat.dtype == ref.dtype and mat.tobytes() == ref.tobytes()


@pytest.mark.parametrize("body,message", [
    ("0,inf\ninf,0\n", "similarity entries must be finite"),
    ("0,-1\n-1,0\n", "similarity entries must be non-negative"),
    ("0,nan\nnan,0\n", "similarity entries must be finite"),
    ("-1,inf\ninf,0\n", "similarity entries must be finite"),
    # finite entries whose total overflows pass on to the sign test
    ("1e308,-1\n-1,1e308\n", "similarity entries must be non-negative"),
    ("0,1\n1\n", "row 2 has 1 columns, expected 2"),
    ("0,1\n1,0\n1,0\n", "expected 2 matrix rows after the header, got 3"),
    ("0,x\nx,0\n", "could not convert string to float: 'x'"),
    ("0,0x10\n0x10,0\n", "could not convert string to float: '0x10'"),
    ("0,1\n1.000001,0\n", "similarity matrix must be symmetric within 1e-9"),
])
def test_similarity_csv_rejection_messages(tmp_path, body, message):
    p = tmp_path / "s.csv"
    p.write_text("a,b\n" + body)
    with pytest.raises(ValueError) as exc:
        load_similarity_csv(str(p))
    assert str(exc.value).endswith(message)


def _symmetric_csv(cells: list[str]) -> str:
    """A CSV of the square symmetric matrix whose upper triangle, row by row,
    reads ``cells`` (cycled), under a header e0, e1, ..."""
    n = 1
    while n * (n + 1) // 2 < len(cells):
        n += 1
    m = [[""] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = cells[k % len(cells)]
            k += 1
    return ",".join(f"e{i}" for i in range(n)) + "\n" + "".join(",".join(r) + "\n" for r in m)


_rng = np.random.default_rng(11)
_DOUBLES = [repr(float(_rng.random() * 10.0 ** int(_rng.integers(-320, 300)))) for _ in range(40)]
# subnormals (one just above half the smallest), a tie that rounds to even, a
# 34-digit spelling, signed zeros and short forms
_EDGES = ["5e-324", "2.4703282292062328e-324", "2.2250738585072014e-308", "9007199254740993",
          "0.1000000000000000055511151231257827", "-0", "0.0", "+1.5", ".5", "7.", "2.5E+3"]

# (body, whether it is a well-formed n x n numeric block, which the row reader never sees)
_SIMILARITY_FILES = {
    "plain": ("a,b,c\n0,1,0.5\n1,0,0.25\n0.5,0.25,0\n", True),
    "repr doubles": (_symmetric_csv(_DOUBLES + _EDGES), True),
    "spaces around cells": (" a , b \n 0 ,1\t\n1 , 0\n", True),
    "blank line mid-body": ("a,b\n0,1\n\n1,0\n", True),
    "CRLF": ("a,b\r\n0,1\r\n1,0\r\n", True),
    "1x1": ("a\n5\n", True),
    "1e400": ("a,b\n0,1e400\n1e400,0\n", True),
    "nan": ("a,b\n0,nan\nNaN,0\n", True),
    "-inf": ("a,b\n0,-inf\n-inf,0\n", True),
    "negative": ("a,b\n0,-1\n-1,0\n", True),
    "asymmetric": ("a,b\n0,1\n1.000001,0\n", True),
    "extra row": ("a,b\n0,1\n1,0\n1,0\n", False),
    "missing row": ("a,b,c\n0,1,1\n1,0,1\n", False),
    "blank line before header": ("\na,b\n0,1\n1,0\n", False),
    "numeric header after a blank line": ("\n0,1\n1,0\n", False),
    "whitespace-only line": ("a,b\n0,1\n \t\n1,0\n", False),
    "comma-only line": ("a,b\n0,1\n,\n1,0\n", False),
    "quoted cells": ('a,"b"\n"0",1\n1,"0"\n', False),
    "quoted newline in header": ('a,"b\n"\n0,1\n1,0\n', False),
    "trailing comma": ("a,b\n0,1,\n1,0,\n", False),
    "# inside a cell": ("a,b\n0,1#2\n1#2,0\n", False),
    "1_0": ("a,b\n0,1_0\n1_0,0\n", False),
    "arabic-indic digit": ("a,b\n0,١\n١,0\n", False),
    "header only": ("a,b\n", False),
    "empty file": ("", False),
    "ragged row": ("a,b\n0,1\n1\n", False),
}


@pytest.mark.parametrize("name", list(_SIMILARITY_FILES))
def test_similarity_csv_fast_path_equals_the_row_reader(tmp_path, monkeypatch, name):
    """np.loadtxt reads what it can; every file gives the labels and matrix
    bytes, or the message, of the row reader alone."""
    body, numeric = _SIMILARITY_FILES[name]
    p = tmp_path / "s.csv"
    p.write_bytes(body.encode("utf-8"))

    def outcome():
        try:
            mat, labels = load_similarity_csv(str(p))
        except ValueError as exc:
            return str(exc)
        return labels, mat.dtype, mat.shape, mat.tobytes()

    calls = []
    read_rows = objectives._read_similarity_rows
    monkeypatch.setattr(objectives, "_read_similarity_rows",
                        lambda path: calls.append(path) or read_rows(path))
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        fast = outcome()
    assert escaped == []
    if numeric:
        assert calls == []
    monkeypatch.setattr(objectives, "_loadtxt_square", lambda path, n: None)
    assert fast == outcome()


def test_similarity_csv_names_the_unparsable_cell(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("a,b\n0,1\n\nx,0\n")
    with pytest.raises(ValueError) as exc:
        load_similarity_csv(str(p))
    assert str(exc.value) == f"{p}: row 2, column 1: could not convert string to float: 'x'"


def test_asymmetry_tolerance_is_1e_9(tmp_path):
    near = np.array([[0.0, 0.5], [0.5 + 1e-12, 0.0]])
    far = np.array([[0.0, 0.5], [0.5 + 1e-6, 0.0]])
    g = GroundSet(2)
    assert CoverageDispersionObjective(g, near, lam=0.5).similarity is not None
    with pytest.raises(ValueError, match=r"similarity must be symmetric \(within 1e-9\)"):
        CoverageDispersionObjective(g, far, lam=0.5)
    for name, m in (("near", near), ("far", far)):
        p = tmp_path / f"{name}.csv"
        p.write_text("a,b\n" + "".join(",".join(repr(float(x)) for x in row) + "\n" for row in m))
        if name == "near":
            assert load_similarity_csv(str(p))[0].tobytes() == m.tobytes()
        else:
            with pytest.raises(ValueError, match="symmetric within 1e-9"):
                load_similarity_csv(str(p))
