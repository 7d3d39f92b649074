"""Objective families, synthetic generation, and brute-force property checks."""

from __future__ import annotations

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
    check_submodular_pairwise,
    generate,
    load_similarity_csv,
)


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


def test_modular_rejects_negative_weights():
    with pytest.raises(ValueError):
        ModularObjective(GroundSet(2), [1.0, -0.5])


def test_modular_mapping_form():
    g = GroundSet(4)
    obj = ModularObjective(g, {1: 2.0, 3: 1.0})
    assert obj.oracle().value(g.set([0, 1, 3])) == 3.0


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
        assert f.value(S) == pytest.approx(cov - 0.5 * disp, abs=1e-12)


def test_coverage_dispersion_lam_one_zero_diag_equals_cut():
    n = 7
    s = _sym(n, 5, zero_diag=True)
    g = GroundSet(n)
    cd = CoverageDispersionObjective(g, s, lam=1.0).oracle()
    cut = CutObjective(g, s).oracle()
    for mask in range(1 << n):
        S = g.set([e for e in range(n) if mask >> e & 1])
        assert cd.value(S) == cut.value(S)


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


GENERATION_SPECS = [
    SyntheticSpec(kind=kind, n=n, seed=seed, density=density, tie_free=tie_free)
    for kind in ("cut", "coverage_dispersion", "weighted_coverage")
    for n, seed, density in ((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.9), (9, 4, 0.5), (37, 5, 0.13))
    for tie_free in (False, True)
]


@pytest.mark.parametrize("spec", GENERATION_SPECS, ids=repr)
def test_vectorised_generation_equals_loop_reference(spec):
    obj = generate(spec)[0].objective
    gen = Rng(spec.seed, 0).generator
    if spec.kind == "weighted_coverage":
        covers, item_w = _coverage_loop(gen, spec.n, spec.density, spec.tie_free)
        assert [sorted(c) for c in obj.covers] == covers
        assert list(obj.item_weights) == item_w
    else:
        ref = _symmetric_dyadic_loop(gen, spec.n, spec.density, spec.tie_free)
        data = obj.weights if spec.kind == "cut" else obj.similarity
        assert data.dtype == ref.dtype and np.array_equal(data, ref)


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


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(kind="nope", n=5, seed=1).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(kind="cut", n=-1, seed=1).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(kind="cut", n=5, seed=1, density=1.5).validate()
    SyntheticSpec(kind="cut", n=0, seed=1).validate()  # empty ground is legal


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
