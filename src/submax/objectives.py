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

import csv
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    ElementSet,
    GainState,
    GroundSet,
    Rng,
    ValueOracle,
    _count,
    _halves,
    _id_array,
    _intp,
    _same_ground,
    _subset_table,
)

_DENOM = 8.0  # dyadic denominator for synthetic data


def _check_data(data: np.ndarray, what: str) -> None:
    """Refuse data with a non-finite entry, finite entries whose total
    overflows, or a negative entry: a finite total of non-negative data
    bounds every f(S)."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(data)
    if not np.isfinite(total):
        raise ValueError(f"{what} and their total must be finite")
    if data.size and data.min() < 0:  # no NaN reaches it: the total is finite
        raise ValueError(f"{what} must be non-negative")


def _sequential_sum(x: np.ndarray) -> float:
    """0.0 + x[0] + x[1] + ... left to right, as ``np.bincount`` adds (so -0.0
    terms sum to 0.0): ``np.sum`` is pairwise and the builtin ``sum``
    compensated from Python 3.12.  ``np.add.accumulate`` is the loop that
    ``ndarray.cumsum`` dispatches to, called without the dispatch, which
    costs more than the sum of a short row."""
    return float(np.add.accumulate(x)[-1]) + 0.0 if x.size else 0.0


def _exact_sums(w: np.ndarray) -> bool:
    """Whether every sum of entries of the non-negative ``w``, and every
    difference of two such sums, is exact in float64.  Each non-zero entry
    is a multiple of its lowest set bit, and all of them of the finest such
    bit, 2^-q.  A sum of entries is then an integer multiple of 2^-q, exact
    while below 2^53 * 2^-q, and the total T bounds them all: the test is
    T * 2^q < 2^53, read off T's exponent.  Partial sums below that bound
    are exact and one at or above it stays there, so the rounded T decides
    as the exact one would."""
    m, e = np.frexp(w[w != 0.0])
    if not m.size:
        return True
    mant = np.ldexp(m, 53).astype(np.int64)  # m * 2^53: the 53-bit significand
    low = np.frexp((mant & -mant).astype(float))[1] - 1  # its trailing zero bits
    q = int((53 - e - low).max())
    return int(np.frexp(np.sum(w))[1]) + q <= 53


class _ObjectiveBase:
    """Common plumbing: ground set, declared analytic properties, oracle().

    A subclass states ``evaluate`` and may state beside it ``gain_state()``,
    a fresh :class:`~submax.core.GainState` at the empty set (greedy scores
    its candidates with it, double greedy its two sets), and a batch rule
    ``_evaluate_masks``.  A class that states its own ``evaluate`` keeps
    only the fast forms stated beside it, fixed when the class is made: the
    others answer for another rule.
    """

    ground: GroundSet
    declares_submodular: bool = True
    declares_monotone: Optional[bool] = None
    is_modular: bool = False
    gain_state = _evaluate_masks = None  # none without a class that keeps them

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "evaluate" in vars(cls):
            cls.gain_state = vars(cls).get("gain_state")
            cls._evaluate_masks = vars(cls).get("_evaluate_masks")

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
            _id_array(ground, weights)  # refuses an id outside the ground set
            weights = [weights.get(e, 0.0) for e in ground.elements]
        w = np.fromiter(weights, dtype=float)
        if len(w) != ground.n:
            raise ValueError(f"expected {ground.n} weights, got {len(w)}")
        _check_data(w, "modular weights")
        w.flags.writeable = False
        self.ground = ground
        self.weights = w

    def evaluate(self, S: ElementSet) -> float:
        _same_ground(self.ground, S.universe, S)
        return _sequential_sum(self.weights[np.fromiter(S.members, dtype=np.intp, count=len(S))])

    def _evaluate_masks(self, elems: Sequence[int], masks: np.ndarray) -> np.ndarray:
        """:meth:`evaluate` of each subset of ``elems`` named by ``masks``, bit
        for bit: per element, in ascending order, every sum adds the weight
        times the element's bit (a sum of non-negative weights from 0.0 is
        never -0.0, so adding 0.0 leaves it unchanged), a block of 2^14 masks
        at a time to bound the temporaries.  ``masks @ w`` would add in
        another order."""
        w = self.weights
        values = np.zeros(len(masks))
        for lo in range(0, len(masks), 1 << 14):
            block, acc = masks[lo:lo + (1 << 14)], values[lo:lo + (1 << 14)]
            for j, e in enumerate(elems):
                acc += w[e] * (block >> j & 1)
        return values

    def gain_state(self) -> GainState:
        return _ModularGains(self.weights)


class _ModularGains(GainState):
    """A modular gain, and loss, is the element's weight, whatever the set."""

    def __init__(self, weights: np.ndarray):
        self._weights = weights

    def add(self, u: int) -> None:
        pass

    def remove(self, u: int) -> None:
        pass

    def gains(self, candidates: Sequence[int]) -> np.ndarray:
        return self._weights[np.asarray(candidates, dtype=np.intp)]

    def gain(self, u: int) -> float:
        return float(self._weights[u])

    loss = gain


def _check_universe(universe: Optional[np.ndarray], ids: np.ndarray) -> None:
    """Refuse the ``ids`` outside ``universe`` (a bool mask over the ground
    set; None means all of it), naming them in ascending order."""
    if universe is not None and not universe[ids].all():
        extra = sorted(int(u) for u in ids[~universe[ids]])
        raise ValueError(f"set leaves the restricted universe: elements {extra}")


class _DispersionGains(GainState):
    """Gains of f(S) = sum_{i in S} cov[i] - lam * sum_{i in S} sum_{j in S} s[i, j].

    Adding u to S gains ``cov[u] - lam * (acc[u] + s[u, u])`` and removing
    u from S loses ``cov[u] - lam * (acc[u] - s[u, u])``, where
    ``acc = sum_{i in S} (s[i, :] + s[:, i])`` is updated on every add and
    remove, by the row and then the column (one line read twice when s
    equals s.T bit for bit: :class:`CoverageDispersionObjective`).
    Candidates outside ``universe`` (a boolean mask; None means every
    element) are a domain error, as in evaluation.
    """

    def __init__(self, obj: CoverageDispersionObjective, universe: Optional[np.ndarray]):
        self._rows = None if obj._exact else obj.similarity
        self._cols = obj._cols
        self._cov = obj._row_coverage
        self._lam = obj.lam
        self._diag = obj._diag
        self._universe = universe
        self._acc = np.zeros(obj.ground.n)

    def add(self, u: int) -> None:
        col = self._cols[u]
        self._acc += col if self._rows is None else self._rows[u]
        self._acc += col

    def remove(self, u: int) -> None:
        col = self._cols[u]
        self._acc -= col if self._rows is None else self._rows[u]
        self._acc -= col

    def gains(self, candidates: Sequence[int]) -> np.ndarray:
        c = np.asarray(candidates, dtype=np.intp)
        _check_universe(self._universe, c)
        return self._cov[c] - self._lam * (self._acc[c] + self._diag[c])

    def gain(self, u: int) -> float:
        if self._universe is not None and not self._universe[u]:
            _check_universe(self._universe, np.array([u]))
        return float(self._cov[u]) - self._lam * (float(self._acc[u]) + float(self._diag[u]))

    def loss(self, u: int) -> float:
        return float(self._cov[u]) - self._lam * (float(self._acc[u]) - float(self._diag[u]))


_TILE = 256  # rows and columns per tile of the blocked transposes below
_CHUNK = 1 << 16  # presence draws per call of _symmetric_dyadic: 512 KiB of doubles


def _check_symmetric(a: np.ndarray, message: str, atol: float = 1e-9) -> bool:
    """Raise ``ValueError(message)`` unless |a - a.T| <= atol everywhere, and
    return whether a equals a.T bit for bit.  That exact test, the common
    case, runs first, then the tolerant one; each compares every tile on or
    above the diagonal with the transpose of its mirror tile: reading a
    whole-matrix transpose strides across rows, and the tolerant test of
    whole matrices allocates several full-size temporaries."""
    n = len(a)
    tiles = [(np.s_[i:i + _TILE, j:j + _TILE], np.s_[j:j + _TILE, i:i + _TILE])
             for i in range(0, n, _TILE) for j in range(i, n, _TILE)]
    bits = a.view(np.int64)
    if all(np.array_equal(bits[t], bits[m].T) for t, m in tiles):
        return True
    if not all(np.allclose(a[t], a[m].T, rtol=0.0, atol=atol) for t, m in tiles):
        raise ValueError(message)
    return False


class CoverageDispersionObjective(_ObjectiveBase):
    """Coverage-minus-dispersion over a similarity matrix.

    With similarity s (symmetric, non-negative), restricted universe N_u and
    mixing weight 0 <= lam <= 1:

        f(S) = sum_{i in S} sum_{j in N_u} s_ij  -  lam * sum_{i in S} sum_{j in S} s_ij

    The dispersion term runs over all ordered pairs including the diagonal.
    f is submodular and non-negative on subsets of N_u whenever lam <= 1.
    Evaluation sums it from non-negative terms, so no rounding takes it
    below 0:

        f(S) = sum_{i in S} sum_{j in N_u \\ S} s_ij  +  (1 - lam) * sum_{i in S} sum_{j in S} s_ij

    With lam = 1, N_u = N and a zero diagonal it is the cut function of s
    (:class:`CutObjective`).  Evaluating any S not contained in N_u is a
    domain error (:func:`_check_universe` on the N_u mask, as in its gains).

    Its gain states add row u and then column u of s at each ``add``.  When
    s equals s.T bit for bit (``_exact``) these are the same values in the
    same order, so they read one contiguous line, ``_cols[u]`` (row u of s
    in C order, of s.T otherwise), and add it twice; else they read both.
    """

    _symmetry = ("similarity must be symmetric (within 1e-9)", 1e-9)  # (message, atol)

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
        _check_data(similarity, "similarity entries")
        self._exact = _check_symmetric(similarity, *self._symmetry)
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
        self._cols = similarity if self._exact and similarity.flags.c_contiguous else similarity.T
        self._diag = np.diagonal(similarity).copy()
        if self._cols is similarity:
            # numpy adds the rows of a C-ordered matrix one after another: the
            # order in which the F-ordered copy similarity[:, nu] adds its
            # columns, here the same values, at a fifth of its cost
            self._row_coverage = (similarity if nu.size == ground.n else similarity[nu]).sum(axis=0)
        else:  # with N_u empty, n sums of no terms: +0.0
            self._row_coverage = similarity[:, nu].sum(axis=1)
        self._universe_mask = np.zeros(ground.n, dtype=bool)
        self._universe_mask[nu] = True
        self.declares_monotone = True if lam == 0.0 else None

    def evaluate(self, S: ElementSet) -> float:
        _same_ground(self.ground, S.universe, S)
        idx = np.fromiter(S.members, dtype=np.intp, count=len(S))
        _check_universe(self._universe_mask, idx)
        rows = self.similarity[idx]
        rest = self._universe_mask.astype(float)  # 1.0 on N_u \ S, 0.0 elsewhere
        rest[idx] = 0.0
        v = float((rows @ rest).sum())
        if self.lam != 1.0:
            v += (1.0 - self.lam) * float(rows[:, idx].sum())
        return v

    def gain_state(self) -> GainState:
        full = len(self.universe_u) == self.ground.n
        return _DispersionGains(self, None if full else self._universe_mask)


class CutObjective(CoverageDispersionObjective):
    """Weighted undirected cut: f(S) = total weight of edges leaving S.

    Non-negative, submodular, symmetric (f(S) = f(N\\S)), generally
    non-monotone.  It is coverage-dispersion with lam = 1 over the whole
    ground set, on a weight matrix that is also exactly symmetric with a
    zero diagonal.
    """

    _symmetry = ("cut weight matrix must be symmetric", 0.0)

    def __init__(self, ground: GroundSet, weights: np.ndarray):
        super().__init__(ground, weights, lam=1.0)
        self.weights = self.similarity
        if np.any(np.diagonal(self.weights) != 0):
            raise ValueError("cut weight matrix must have a zero diagonal")

    @classmethod
    def from_edges(cls, ground: GroundSet, edges: Iterable[tuple[int, int, float]]) -> "CutObjective":
        w = np.zeros((ground.n, ground.n))
        for i, j, wt in edges:
            w[i, j] += wt
            w[j, i] += wt
        return cls(ground, w)


class WeightedCoverageObjective(_ObjectiveBase):
    """f(S) = total weight of items covered by at least one element of S.

    Monotone and submodular.  ``covers[e]`` lists the item indices element e
    covers, a repeated item once; ``item_weights`` are non-negative.  The
    covers are kept as compressed rows: element e covers
    ``_items[_indptr[e]:_indptr[e + 1]]``, in ascending order.  When
    :func:`_exact_sums` certifies the weights, greedy's gain states keep a
    gain vector current through the transpose of these rows, the elements
    that cover each item, built on first use and then kept.
    """

    declares_monotone = True

    def __init__(self, ground: GroundSet, covers: Sequence[Iterable[int]],
                 item_weights: Sequence[float]):
        if len(covers) != ground.n:
            raise ValueError(f"expected {ground.n} cover sets, got {len(covers)}")
        if isinstance(item_weights, Mapping):
            raise ValueError("item_weights must be a sequence indexed by item id, not a mapping")
        w = np.fromiter(item_weights, dtype=float)
        _check_data(w, "item weights")
        w.flags.writeable = False
        self.ground = ground
        self.item_weights = w
        rows = [_intp(c, "cover item") for c in covers]
        sizes = np.fromiter(map(len, rows), dtype=np.intp, count=ground.n)
        items = np.concatenate([np.empty(0, dtype=np.intp), *rows])
        bad = (items < 0) | (items >= w.size)
        if bad.any():
            raise ValueError(f"cover refers to unknown items: {np.unique(items[bad])[:5].tolist()}")
        # one stable sort of (element, item) keys puts each cover's items in
        # ascending order, the order its gains are summed in; a repeated item
        # repeats its key, kept once
        m = max(w.size, 1)  # without items every cover is empty
        key = np.repeat(np.arange(ground.n) * m, sizes)
        key += items
        key.sort(kind="stable")
        keep = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        self._indptr = np.searchsorted(key, np.arange(ground.n + 1) * m)
        self._sizes = np.diff(self._indptr)
        self._bounds = self._indptr.tolist()
        self._items = key % m
        self._exact = _exact_sums(w)
        self._covered_by: Optional[tuple[np.ndarray, np.ndarray]] = None

    def evaluate(self, S: ElementSet) -> float:
        _same_ground(self.ground, S.universe, S)
        covered = np.zeros(self.item_weights.size, dtype=bool)
        bounds = self._bounds
        for e in S:
            covered[self._items[bounds[e]:bounds[e + 1]]] = True
        return _sequential_sum(self.item_weights[covered])  # in item order, as the gains add

    def _transpose(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, sizes, elements): item i is covered by the ``sizes[i]``
        elements ``elements[indptr[i]:indptr[i + 1]]``, ascending.  One
        stable argsort of the items; below 2^16 items as ``uint16`` keys,
        which numpy radix-sorts (0.10 against 0.66 s on 4M keys, numpy 2.4,
        x86-64)."""
        if self._covered_by is None:
            items = self._items
            keys = items.astype(np.uint16) if self.item_weights.size <= 1 << 16 else items
            owner = np.repeat(np.arange(self.ground.n), self._sizes)
            sizes = np.bincount(items, minlength=self.item_weights.size)
            indptr = np.concatenate(([0], np.cumsum(sizes)))
            self._covered_by = (indptr, sizes, owner[np.argsort(keys, kind="stable")])
        return self._covered_by

    def gain_state(self) -> GainState:
        return _CoverageGains(self, self._transpose if self._exact else None)


def _spans(indptr: np.ndarray, sizes: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the compressed ``rows`` (``indptr[r]:indptr[r + 1]``
    for each r, in order) and each row's length, ``sizes[r]``."""
    start = indptr[rows]
    length = sizes[rows]
    offset = np.cumsum(length) - length
    return np.repeat(start - offset, length) + np.arange(int(length.sum())), length


class _CoverageGains(GainState):
    """Weighted-coverage gains: ``count`` holds how many elements of S cover
    each item and ``remaining`` the weight of each item no element of S
    covers.  An element's gain is the sum of the remaining weights of its
    items, and its loss the sum of the weights of its items that it alone
    covers, both in item order.

    Given the objective's transpose (certified weights only), the first
    batch :meth:`gains` sums every element's gain into one vector, and from
    then on :meth:`add` subtracts each newly covered item's weight from the
    gains of the elements that cover it and :meth:`remove` adds each freed
    item's weight back: every sum is exact, so each entry equals the
    in-order sum bit for bit.  That vector is the state's ``vector``.  A
    state never asked for a batch, such as double greedy's two, sums one
    cover per query."""

    def __init__(self, obj: WeightedCoverageObjective,
                 transpose: Optional[Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]]]):
        self._n = obj.ground.n
        self._indptr, self._sizes = obj._indptr, obj._sizes
        self._bounds = obj._bounds
        self._items = obj._items
        self._weights = obj.item_weights
        self._remaining = obj.item_weights.copy()
        self._count = np.zeros(obj.item_weights.size, dtype=np.intp)
        self._transpose = transpose
        self.vector: Optional[np.ndarray] = None

    def _cover(self, u: int) -> np.ndarray:
        return self._items[self._bounds[u]:self._bounds[u + 1]]

    def _spread(self, items: np.ndarray) -> np.ndarray:
        """Per element, the total weight of those of ``items`` it covers."""
        indptr, sizes, elements = self._transpose()
        pos, length = _spans(indptr, sizes, items)
        return np.bincount(elements[pos], weights=np.repeat(self._weights[items], length),
                           minlength=self._n)

    def add(self, u: int) -> None:
        items = self._cover(u)
        if self.vector is not None:
            self.vector -= self._spread(items[self._count[items] == 0])
        self._remaining[items] = 0.0
        self._count[items] += 1

    def remove(self, u: int) -> None:
        items = self._cover(u)
        self._count[items] -= 1
        freed = items[self._count[items] == 0]
        self._remaining[freed] = self._weights[freed]
        if self.vector is not None:
            self.vector += self._spread(freed)

    def gain(self, u: int) -> float:
        if self.vector is not None:
            return float(self.vector[u])
        return _sequential_sum(self._remaining[self._cover(u)])

    def loss(self, u: int) -> float:
        items = self._cover(u)
        return _sequential_sum(self._weights[items[self._count[items] == 1]])

    def gains(self, candidates: Sequence[int]) -> np.ndarray:
        c = np.asarray(candidates, dtype=np.intp)
        if self.vector is None and self._transpose is not None:
            self.vector = self._row_sums()
        if self.vector is not None:
            return self.vector[c]
        return self._sums(c)

    def _row_sums(self) -> np.ndarray:
        """Every element's gain, one ``reduceat`` segment per non-empty row:
        exact under the certificate in any order, and ``+ 0.0`` makes a row
        of -0.0 sum to 0.0, as ``bincount`` adds.  An empty row is 0.0:
        reduceat would give it the next entry, or raise at the array's end."""
        starts = self._indptr[:-1]
        full = starts < self._indptr[1:]
        sums = np.zeros(self._n)
        if full.any():
            sums[full] = np.add.reduceat(self._remaining[self._items], starts[full]) + 0.0
        return sums

    def _sums(self, c: np.ndarray) -> np.ndarray:
        # bincount adds each candidate's weights in order, independent of its batch
        pos, length = _spans(self._indptr, self._sizes, c)
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
        _count(self.n, "n")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must lie in [0, 1], got {self.density}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")


def _dyadic(gen: np.random.Generator, size, low: int = 0, high: int = 64) -> np.ndarray:
    """Non-negative dyadic rationals: integers in [low, high) over a fixed denominator."""
    x = gen.integers(low, high, size=size).astype(float)
    x /= _DENOM
    return x


def _distinct_dyadic(gen: np.random.Generator, k: int) -> np.ndarray:
    """``k`` pairwise-distinct positive dyadic rationals: a draw without
    replacement from 1, 2, ..., 8k over the fixed denominator."""
    return (gen.choice(8 * k, size=k, replace=False) + 1) / _DENOM


def _symmetric_dyadic(gen: np.random.Generator, n: int, density: float, tie_free: bool) -> np.ndarray:
    """Symmetric non-negative dyadic matrix with zero diagonal.

    ``tie_free`` overrides density: every off-diagonal entry is present and
    pairwise distinct, so no two entries (and no zero entries) can collide.
    One value is drawn per pair i < j, in row-major pair order: the presence
    doubles in chunks (the stream gives the same doubles as one
    ``random(pairs)``), then one integer draw, whose next n - i - 1 values
    fill row i of the strict upper triangle, scaled as they are written.
    Beside the matrix it holds only those integers and a presence mask.  The
    lower triangle is then copied from the upper one tile at a time, so that
    no write strides across whole rows.
    """
    w = np.zeros((n, n))  # before any draw: an n past memory fails at once
    pairs = n * (n - 1) // 2
    if not pairs:
        return w
    if tie_free:  # _distinct_dyadic's draw, scaled below
        nums = gen.choice(8 * pairs, size=pairs, replace=False) + 1
    else:
        present = np.empty(pairs, dtype=bool)
        for start in range(0, pairs, _CHUNK):
            np.less(gen.random(min(_CHUNK, pairs - start)), density,
                    out=present[start:start + _CHUNK])
        nums = gen.integers(1, 64, size=pairs)
        nums *= present  # 0 where absent: every drawn integer is positive
        del present
    start = 0
    for i in range(n - 1):
        np.divide(nums[start:start + n - i - 1], _DENOM, out=w[i, i + 1:])
        start += n - i - 1
    del nums  # so that the mirror's tile copies sit beside w alone
    # below the diagonal a tile is the transpose of its mirror tile; a tile on
    # it adds its transpose, whose upper part is the still-zero lower triangle
    for i in range(0, n, _TILE):
        d = w[i:i + _TILE, i:i + _TILE]
        d += d.T
        for j in range(i + _TILE, n, _TILE):
            w[j:j + _TILE, i:i + _TILE] = w[i:i + _TILE, j:j + _TILE].T
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
        weights = _distinct_dyadic(gen, n) if spec.tie_free else _dyadic(gen, n, low=0, high=64)
        obj: _ObjectiveBase = ModularObjective(ground, list(weights))
    elif spec.kind == "cut":
        w = _symmetric_dyadic(gen, n, spec.density, spec.tie_free)
        obj = CutObjective(ground, w)
    elif spec.kind == "coverage_dispersion":
        s = _symmetric_dyadic(gen, n, spec.density, spec.tie_free)
        obj = CoverageDispersionObjective(ground, s, lam=spec.lam)
    else:  # weighted_coverage
        n_items = max(2 * n, 1)
        # one row of draws at a time: the same stream as one (n, n_items) draw
        covers = [np.flatnonzero(gen.random(n_items) < spec.density) for _ in range(n)]
        item_w = _distinct_dyadic(gen, n_items) if spec.tie_free else _dyadic(gen, n_items, low=1, high=64)
        obj = WeightedCoverageObjective(ground, covers, list(item_w))
    return obj.oracle(name=f"{spec.kind}(n={n},seed={spec.seed})"), ground


def load_similarity_csv(path) -> tuple[np.ndarray, list]:
    """Read a similarity matrix CSV: first row lists element labels, then the
    square matrix row by row.  Blank lines are skipped, each cell is read as
    Python's ``float()`` reads it, and quoted cells are accepted.  Validates
    shape, symmetry (within 1e-9) and non-negativity; returns (matrix, labels
    in dense-id order)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next((r for r in reader if r and any(c.strip() for c in r)), None)
    # numpy's C parser reads the body when the header is line 1, the only line
    # its skiprows=1 skips; the row reader takes every file it does not read
    mat = _loadtxt_square(path, len(header)) if header and reader.line_num == 1 else None
    if mat is None:
        mat, labels = _read_similarity_rows(path)
    else:
        labels = [c.strip() for c in header]
    # a finite total has finite terms; entries are tested one by one only to
    # tell a non-finite entry from finite entries whose total overflows
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(mat)
    if not np.isfinite(total) and not np.all(np.isfinite(mat)):
        raise ValueError(f"{path}: similarity entries must be finite")
    if mat.min() < 0:
        raise ValueError(f"{path}: similarity entries must be non-negative")
    _check_symmetric(mat, f"{path}: similarity matrix must be symmetric within 1e-9")
    return mat, labels


def _loadtxt_square(path, n: int) -> Optional[np.ndarray]:
    """The n x n matrix below line 1 as ``np.loadtxt`` parses it, or None when
    it raises, warns or finds another shape.  Each cell it parses equals
    ``float()``'s; it refuses some that ``float()`` takes (quoted cells,
    ``1_0``, non-ASCII digits) and the whitespace- or comma-only lines that
    the row reader skips."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a header-only file: "input contained no data"
        try:
            mat = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return mat if mat.shape == (n, n) else None


def _read_similarity_rows(path) -> tuple[np.ndarray, list]:
    """(matrix, labels) from the non-blank ``csv.reader`` rows, unchecked: the
    reader of every file :func:`_loadtxt_square` does not read, and the one
    that says what is wrong with a malformed file."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not rows:
        raise ValueError(f"{path}: empty similarity file")
    labels = [c.strip() for c in rows[0]]
    n = len(labels)
    if len(rows) != n + 1:
        raise ValueError(f"{path}: expected {n} matrix rows after the header, got {len(rows) - 1}")
    for i, row in enumerate(rows[1:]):
        if len(row) != n:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} columns, expected {n}")
    try:
        mat = np.array(rows[1:], dtype=float)  # numpy parses each cell as float() does
    except ValueError:
        for i, row in enumerate(rows[1:]):
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError as exc:
                    raise ValueError(f"{path}: row {i + 1}, column {j + 1}: {exc}") from None
        raise
    return mat, labels


# ---------------------------------------------------------------------------
# Brute-force property checks
# ---------------------------------------------------------------------------


def _diminishing_returns(vals: np.ndarray) -> bool:
    """Whether a mask-indexed value table has f(A+e) - f(A) >= f(A+x+e) - f(A+x)
    for every A and distinct e, x outside A: per e, the gains of adding e
    form a table over the masks without bit e (with that bit deleted), and
    one pass per x compares its halves."""
    n = len(vals).bit_length() - 1
    for e in range(n):
        h = _halves(vals, e)
        gains = h[:, 1] - h[:, 0]
        if any((g[:, 0] < g[:, 1]).any() for g in (_halves(gains, x) for x in range(n - 1))):
            return False
    return True


def _nondecreasing(vals: np.ndarray) -> bool:
    """Whether a mask-indexed value table has f(S + e) >= f(S) for all S and e ∉ S."""
    n = len(vals).bit_length() - 1
    return not any((h[:, 1] < h[:, 0]).any() for h in (_halves(vals, e) for e in range(n)))


def check_submodular(f: ValueOracle, elements: Optional[Sequence[int]] = None) -> bool:
    """Exhaustive diminishing-returns check over all subsets of ``elements``.

    Verifies f(A+e) - f(A) >= f(A+x+e) - f(A+x) for every A and distinct
    e, x outside A — the single-step form, which is equivalent to the general
    nested-sets form by induction.  Exact comparisons (no tolerance).
    """
    return _diminishing_returns(_subset_table(f.ground, elements, "check_submodular", f.values_masks)[1])


def check_monotone(f: ValueOracle, elements: Optional[Sequence[int]] = None) -> bool:
    """Exhaustive monotonicity check: f(S + e) >= f(S) for all S and e ∉ S."""
    return _nondecreasing(_subset_table(f.ground, elements, "check_monotone", f.values_masks)[1])
