"""Set objectives: modular, cut, coverage-dispersion, weighted coverage.

Every objective here evaluates an :class:`ElementSet` to a non-negative
float and exposes ``oracle()`` to wrap itself in a counted
:class:`~submax.core.ValueOracle`.  Synthetic instances draw all numeric data
from dyadic rationals (small integers over a power-of-two denominator), so
float arithmetic on them is exact: equal values compare equal, sums are
order-independent, and greedy tie-breaking is reproducible.

``check_submodular`` / ``check_monotone`` are the brute-force ground truth:
they enumerate all subsets of a (small) element list and test the defining
inequalities exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    CapacityError,
    ElementSet,
    GainState,
    GroundSet,
    NonNegativityError,
    Rng,
    ValueOracle,
)

_DENOM = 8.0  # dyadic denominator for synthetic data


class _ObjectiveBase:
    """Common plumbing: ground set, declared analytic properties, oracle().

    Subclasses also provide ``gain_state()``: a fresh
    :class:`~submax.core.GainState` at the empty set, which greedy scores
    its candidates with.
    """

    ground: GroundSet
    declares_submodular: bool = True
    declares_monotone: Optional[bool] = None
    is_modular: bool = False

    def evaluate(self, S: ElementSet) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def oracle(self, name: str = "") -> ValueOracle:
        o = ValueOracle(
            self.evaluate,
            self.ground,
            modular=self.is_modular,
            name=name or type(self).__name__,
        )
        o.objective = self  # convenience back-reference for reports/verifiers
        return o


class ModularObjective(_ObjectiveBase):
    """f(S) = sum of per-element non-negative weights.  Modular and monotone."""

    declares_monotone = True
    is_modular = True

    def __init__(self, ground: GroundSet, weights: Mapping[int, float] | Sequence[float]):
        if isinstance(weights, Mapping):
            w = [float(weights.get(e, 0.0)) for e in ground.elements]
        else:
            w = [float(x) for x in weights]
            if len(w) != ground.n:
                raise ValueError(f"expected {ground.n} weights, got {len(w)}")
        if not all(math.isfinite(x) for x in w):
            raise ValueError("modular weights must be finite")
        if any(x < 0 for x in w):
            raise ValueError("modular weights must be non-negative")
        self.ground = ground
        self.weights = tuple(w)
        self._weight_array = np.array(w, dtype=float)

    def evaluate(self, S: ElementSet) -> float:
        w = self.weights
        return float(sum(w[e] for e in S))

    def gain_state(self) -> GainState:
        return _ModularGains(self._weight_array)


class _ModularGains(GainState):
    """A modular gain is the element's weight, whatever the set."""

    def __init__(self, weights: np.ndarray):
        self._weights = weights

    def add(self, u: int) -> None:
        pass

    def gains(self, candidates: Sequence[int]) -> np.ndarray:
        return self._weights[np.asarray(candidates, dtype=np.intp)]


class _DispersionGains(GainState):
    """Gains of f(S) = sum_{i in S} cov[i] - lam * sum_{i in S} sum_{j in S} s[i, j].

    Adding u to S gains ``cov[u] - lam * (acc[u] + s[u, u])``, where
    ``acc = sum_{i in S} (s[i, :] + s[:, i])`` is updated on every add.
    Candidates outside ``universe`` (a boolean mask; None means every
    element) are a domain error, as in evaluation.
    """

    def __init__(self, s: np.ndarray, cov: np.ndarray, lam: float,
                 universe: Optional[np.ndarray] = None):
        self._s = s
        self._cov = cov
        self._lam = lam
        self._diag = np.diagonal(s)
        self._universe = universe
        self._acc = np.zeros(len(cov))

    def add(self, u: int) -> None:
        self._acc += self._s[u]
        self._acc += self._s[:, u]

    def gains(self, candidates: Sequence[int]) -> np.ndarray:
        c = np.asarray(candidates, dtype=np.intp)
        if self._universe is not None and not self._universe[c].all():
            extra = sorted(int(u) for u in c[~self._universe[c]])
            raise ValueError(f"set leaves the restricted universe: elements {extra}")
        return self._cov[c] - self._lam * (self._acc[c] + self._diag[c])


class CutObjective(_ObjectiveBase):
    """Weighted undirected cut: f(S) = total weight of edges leaving S.

    Non-negative, submodular, symmetric (f(S) = f(N\\S)), generally
    non-monotone.  The weight matrix must be square, symmetric, non-negative,
    with zero diagonal.
    """

    def __init__(self, ground: GroundSet, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (ground.n, ground.n):
            raise ValueError(f"weight matrix must be {ground.n}x{ground.n}, got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("cut weights must be finite")
        if np.any(weights < 0):
            raise ValueError("cut weights must be non-negative")
        if np.any(np.diag(weights) != 0):
            raise ValueError("cut weight matrix must have a zero diagonal")
        if not np.array_equal(weights, weights.T):
            raise ValueError("cut weight matrix must be symmetric")
        self.ground = ground
        self.weights = weights
        self._row_sums = weights.sum(axis=1)

    @classmethod
    def from_edges(cls, ground: GroundSet, edges: Iterable[tuple[int, int, float]]) -> "CutObjective":
        w = np.zeros((ground.n, ground.n))
        for i, j, wt in edges:
            w[i, j] += wt
            w[j, i] += wt
        return cls(ground, w)

    def evaluate(self, S: ElementSet) -> float:
        if not S.members or len(S) == self.ground.n:
            return 0.0
        inside = np.fromiter(S.members, dtype=np.intp, count=len(S))
        mask = np.zeros(self.ground.n, dtype=bool)
        mask[inside] = True
        outside = np.flatnonzero(~mask)
        return float(self.weights[np.ix_(inside, outside)].sum())

    def gain_state(self) -> GainState:
        # the cut is coverage-dispersion with coverage = row sums and lam = 1
        return _DispersionGains(self.weights, self._row_sums, 1.0)


class CoverageDispersionObjective(_ObjectiveBase):
    """Coverage-minus-dispersion over a similarity matrix.

    With similarity s (symmetric, non-negative), restricted universe N_u and
    mixing weight 0 <= lam <= 1:

        f(S) = sum_{i in S} sum_{j in N_u} s_ij  -  lam * sum_{i in S} sum_{j in S} s_ij

    The dispersion term runs over all ordered pairs including the diagonal.
    f is submodular and non-negative on subsets of N_u whenever lam <= 1
    (evaluation asserts non-negativity rather than clamping).  With lam = 1,
    N_u = N and a zero diagonal it reduces exactly to the cut function of s.
    Evaluating any S not contained in N_u is a domain error.
    """

    def __init__(
        self,
        ground: GroundSet,
        similarity: np.ndarray,
        lam: float,
        universe_u: Optional[Iterable[int]] = None,
    ):
        similarity = np.asarray(similarity, dtype=float)
        if similarity.shape != (ground.n, ground.n):
            raise ValueError(
                f"similarity must be {ground.n}x{ground.n}, got {similarity.shape}"
            )
        if not np.all(np.isfinite(similarity)):
            raise ValueError("similarity entries must be finite")
        if np.any(similarity < 0):
            raise ValueError("similarity entries must be non-negative")
        if not np.allclose(similarity, similarity.T, rtol=0.0, atol=1e-9):
            raise ValueError("similarity must be symmetric (within 1e-9)")
        lam = float(lam)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {lam}")
        self.ground = ground
        self.similarity = similarity
        self.lam = lam
        if universe_u is None:
            self.universe_u = ground.full()
        else:
            self.universe_u = ground.set(universe_u)
        nu = np.fromiter(self.universe_u.members, dtype=np.intp, count=len(self.universe_u))
        self._row_coverage = similarity[:, nu].sum(axis=1) if nu.size else np.zeros(ground.n)
        if nu.size == ground.n:
            self._universe_mask = None
        else:
            self._universe_mask = np.zeros(ground.n, dtype=bool)
            self._universe_mask[nu] = True
        self.declares_monotone = True if lam == 0.0 else None

    def evaluate(self, S: ElementSet) -> float:
        if not S.issubset(self.universe_u):
            extra = sorted(set(S.members) - set(self.universe_u.members))
            raise ValueError(f"set leaves the restricted universe: elements {extra}")
        if not S.members:
            return 0.0
        idx = np.fromiter(S.members, dtype=np.intp, count=len(S))
        cov = float(self._row_coverage[idx].sum())
        disp = float(self.similarity[np.ix_(idx, idx)].sum())
        v = cov - self.lam * disp
        if v < 0.0:
            raise NonNegativityError(
                f"coverage-dispersion value {v} < 0 on {S!r} (lam={self.lam})"
            )
        return v

    def gain_state(self) -> GainState:
        return _DispersionGains(self.similarity, self._row_coverage, self.lam,
                                self._universe_mask)


class WeightedCoverageObjective(_ObjectiveBase):
    """f(S) = total weight of items covered by at least one element of S.

    Monotone and submodular.  ``covers[e]`` is the set of item indices element
    e covers; ``item_weights`` are non-negative.
    """

    declares_monotone = True

    def __init__(
        self,
        ground: GroundSet,
        covers: Sequence[Iterable[int]],
        item_weights: Sequence[float],
    ):
        if len(covers) != ground.n:
            raise ValueError(f"expected {ground.n} cover sets, got {len(covers)}")
        if isinstance(item_weights, Mapping):
            raise ValueError("item_weights must be a sequence indexed by item id, not a mapping")
        if not all(math.isfinite(w) for w in item_weights):
            raise ValueError("item weights must be finite")
        if any(w < 0 for w in item_weights):
            raise ValueError("item weights must be non-negative")
        self.ground = ground
        self.item_weights = tuple(float(w) for w in item_weights)
        self.covers = tuple(frozenset(c) for c in covers)
        bad = [i for c in self.covers for i in c if i < 0 or i >= len(self.item_weights)]
        if bad:
            raise ValueError(f"cover refers to unknown items: {sorted(set(bad))[:5]}")

    def evaluate(self, S: ElementSet) -> float:
        covered: set[int] = set()
        for e in S:
            covered |= self.covers[e]
        w = self.item_weights
        return float(sum(w[i] for i in covered))

    @cached_property
    def _cover_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Covers in compressed rows: element e covers ``items[indptr[e]:indptr[e+1]]``."""
        indptr = np.zeros(self.ground.n + 1, dtype=np.intp)
        np.cumsum([len(c) for c in self.covers], out=indptr[1:])
        items = np.fromiter((i for c in self.covers for i in sorted(c)), dtype=np.intp,
                            count=int(indptr[-1]))
        return indptr, items

    def gain_state(self) -> GainState:
        indptr, items = self._cover_csr
        return _CoverageGains(indptr, items, np.array(self.item_weights, dtype=float))


class _CoverageGains(GainState):
    """Weighted-coverage gains: ``remaining`` holds the weight of each item
    not yet covered (covered items are zeroed on add), and an element's gain
    is the sum of the remaining weights of its items, in item order."""

    def __init__(self, indptr: np.ndarray, items: np.ndarray, remaining: np.ndarray):
        self._indptr = indptr
        self._items = items
        self._remaining = remaining

    def add(self, u: int) -> None:
        self._remaining[self._items[self._indptr[u]:self._indptr[u + 1]]] = 0.0

    def gains(self, candidates: Sequence[int]) -> np.ndarray:
        c = np.asarray(candidates, dtype=np.intp)
        start = self._indptr[c]
        length = self._indptr[c + 1] - start
        offset = np.cumsum(length) - length
        pos = np.repeat(start - offset, length) + np.arange(int(length.sum()))
        # bincount adds each candidate's weights in order, independent of its batch
        return np.bincount(np.repeat(np.arange(c.size), length),
                           weights=self._remaining[self._items[pos]], minlength=c.size)


# ---------------------------------------------------------------------------
# Synthetic instance generation
# ---------------------------------------------------------------------------

SYNTHETIC_KINDS = ("modular", "coverage_dispersion", "cut", "weighted_coverage")


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic recipe for a synthetic instance.

    The same spec always generates the same instance (all randomness flows
    from ``seed``).  ``tie_free=True`` forces pairwise-distinct weights so
    greedy never faces a tie.
    """

    kind: str
    n: int
    seed: int
    density: float = 0.5
    lam: float = 0.5
    tie_free: bool = False

    def validate(self) -> None:
        if self.kind not in SYNTHETIC_KINDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}; choose from {SYNTHETIC_KINDS}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must lie in [0, 1], got {self.density}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")


def _dyadic(gen: np.random.Generator, size, low: int = 0, high: int = 64) -> np.ndarray:
    """Non-negative dyadic rationals: integers in [low, high) over a fixed denominator."""
    return gen.integers(low, high, size=size).astype(float) / _DENOM


def _symmetric_dyadic(gen: np.random.Generator, n: int, density: float, tie_free: bool) -> np.ndarray:
    """Symmetric non-negative dyadic matrix with zero diagonal.

    ``tie_free`` overrides density: every off-diagonal entry is present and
    pairwise distinct, so no two entries (and no zero entries) can collide.
    """
    w = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)  # the pairs i < j in row-major order
    pairs = rows.size
    if not pairs:
        return w
    if tie_free:
        present = np.ones(pairs, dtype=bool)
        nums = gen.choice(np.arange(1, 8 * pairs + 1), size=pairs, replace=False)
        vals = nums.astype(float) / _DENOM
    else:
        present = gen.random(pairs) < density
        vals = _dyadic(gen, pairs, low=1, high=64)
    rows, cols, vals = rows[present], cols[present], vals[present]
    w[rows, cols] = vals
    w[cols, rows] = vals
    return w


def generate(spec: SyntheticSpec, rng: Optional[Rng] = None) -> tuple[ValueOracle, GroundSet]:
    """Build the instance a spec describes; deterministic in the spec alone.

    ``rng`` defaults to the stream derived from ``spec.seed``, which is what
    makes identical specs yield identical instances; pass an explicit stream
    only if you deliberately want to decouple the two.
    """
    spec.validate()
    gen = (rng or Rng(spec.seed, 0)).generator
    ground = GroundSet(spec.n)
    n = spec.n
    if spec.kind == "modular":
        if spec.tie_free:
            nums = gen.choice(np.arange(1, 8 * max(n, 1) + 1), size=n, replace=False)
            weights = nums.astype(float) / _DENOM
        else:
            weights = _dyadic(gen, n, low=0, high=64)
        obj: _ObjectiveBase = ModularObjective(ground, list(weights))
    elif spec.kind == "cut":
        w = _symmetric_dyadic(gen, n, spec.density, spec.tie_free)
        obj = CutObjective(ground, w)
    elif spec.kind == "coverage_dispersion":
        s = _symmetric_dyadic(gen, n, spec.density, spec.tie_free)
        obj = CoverageDispersionObjective(ground, s, lam=spec.lam)
    else:  # weighted_coverage
        n_items = max(2 * n, 1)
        covered = gen.random((n, n_items)) < spec.density
        covers = [np.flatnonzero(row).tolist() for row in covered]
        if spec.tie_free:
            nums = gen.choice(np.arange(1, 8 * n_items + 1), size=n_items, replace=False)
            item_w = nums.astype(float) / _DENOM
        else:
            item_w = _dyadic(gen, n_items, low=1, high=64)
        obj = WeightedCoverageObjective(ground, covers, list(item_w))
    return obj.oracle(name=f"{spec.kind}(n={n},seed={spec.seed})"), ground


def load_similarity_csv(path) -> tuple[np.ndarray, list]:
    """Read a similarity matrix CSV: first row lists element labels, then the
    square matrix row by row.  Validates shape, symmetry (within 1e-9) and
    non-negativity; returns (matrix, labels in dense-id order)."""
    import csv

    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not rows:
        raise ValueError(f"{path}: empty similarity file")
    labels = [c.strip() for c in rows[0]]
    n = len(labels)
    if len(rows) != n + 1:
        raise ValueError(f"{path}: expected {n} matrix rows after the header, got {len(rows) - 1}")
    mat = np.zeros((n, n))
    for i, row in enumerate(rows[1:]):
        if len(row) != n:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} columns, expected {n}")
        mat[i] = [float(c) for c in row]
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{path}: similarity entries must be finite")
    if np.any(mat < 0):
        raise ValueError(f"{path}: similarity entries must be non-negative")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-9):
        raise ValueError(f"{path}: similarity matrix must be symmetric within 1e-9")
    return mat, labels


# ---------------------------------------------------------------------------
# Brute-force property checks
# ---------------------------------------------------------------------------


def _value_table(f: ValueOracle, elems: Sequence[int]) -> np.ndarray:
    n = len(elems)
    vals = np.empty(1 << n)
    ground = f.ground
    for mask in range(1 << n):
        members = [elems[i] for i in range(n) if mask >> i & 1]
        vals[mask] = f.value(ElementSet(ground, members))
    return vals


def _elems_for(f: ValueOracle, elements: Optional[Sequence[int]], cap: int, what: str) -> list[int]:
    elems = sorted(set(elements)) if elements is not None else list(f.ground.elements)
    if len(elems) > cap:
        raise CapacityError(f"{what} is exhaustive; n={len(elems)} exceeds cap {cap}")
    return elems


def check_submodular(
    f: ValueOracle, elements: Optional[Sequence[int]] = None, *, cap: int = 14
) -> bool:
    """Exhaustive diminishing-returns check over all subsets of ``elements``.

    Verifies f(A+e) - f(A) >= f(A+x+e) - f(A+x) for every A and distinct
    e, x outside A — the single-step form, which is equivalent to the general
    nested-sets form by induction.  Exact comparisons (no tolerance).
    """
    elems = _elems_for(f, elements, cap, "check_submodular")
    n = len(elems)
    vals = _value_table(f, elems)
    all_masks = np.arange(1 << n)
    for ei in range(n):
        be = 1 << ei
        for xi in range(n):
            if xi == ei:
                continue
            bx = 1 << xi
            A = all_masks[(all_masks & (be | bx)) == 0]
            lhs = vals[A | be] - vals[A]
            rhs = vals[A | be | bx] - vals[A | bx]
            if np.any(lhs < rhs):
                return False
    return True


def check_submodular_pairwise(
    f: ValueOracle, elements: Optional[Sequence[int]] = None, *, cap: int = 10
) -> bool:
    """Exhaustive union/intersection form: f(X) + f(Y) >= f(X ∪ Y) + f(X ∩ Y).

    Mathematically equivalent to :func:`check_submodular`; kept as an
    independent route so the equivalence itself can be tested.
    """
    elems = _elems_for(f, elements, cap, "check_submodular_pairwise")
    n = len(elems)
    vals = _value_table(f, elems)
    all_masks = np.arange(1 << n)
    for X in range(1 << n):
        if np.any(vals[X] + vals < vals[X | all_masks] + vals[X & all_masks]):
            return False
    return True


def check_monotone(
    f: ValueOracle, elements: Optional[Sequence[int]] = None, *, cap: int = 14
) -> bool:
    """Exhaustive monotonicity check: f(S + e) >= f(S) for all S and e ∉ S."""
    elems = _elems_for(f, elements, cap, "check_monotone")
    n = len(elems)
    vals = _value_table(f, elems)
    all_masks = np.arange(1 << n)
    for ei in range(n):
        be = 1 << ei
        A = all_masks[(all_masks & be) == 0]
        if np.any(vals[A | be] < vals[A]):
            return False
    return True
