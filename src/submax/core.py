"""Shared primitives: ground sets, element sets, counted oracles, seeded RNG streams.

Conventions used throughout the package:

- Ground-set elements are dense integer ids ``0 .. n-1``.  External labels
  (strings, sparse ids) are mapped to dense ids at ingestion time and never
  appear below this layer.
- Set-function values must be non-negative; a negative value raised by any
  evaluation is an error (:class:`NonNegativityError`), never silently clamped.
- Real-number comparisons (greedy tie-breaking and the like) use exact float
  equality.  Shipped synthetic objectives draw their data from dyadic
  rationals, so float arithmetic on them is exact and tie-breaking is
  reproducible.
- Counters are plain integers incremented under the GIL; parallel benchmark
  trials each build private oracle instances, so no cross-thread sharing of a
  mutable counter ever occurs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np


class CapacityError(ValueError):
    """An exhaustive routine was asked to exceed its ground-set capacity."""


class NonNegativityError(ValueError):
    """A value oracle produced a negative number."""


class PropertyViolation(RuntimeError):
    """A tracked run-time property failed during an instrumented run."""

    def __init__(self, prop: str, iteration: int, detail: str = ""):
        self.prop = prop
        self.iteration = iteration
        msg = f"property {prop} violated at iteration {iteration}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class GroundSet:
    """The dense ground set ``{0, ..., n-1}``."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"ground set size must be >= 0, got {n}")
        self.n = int(n)

    @property
    def elements(self) -> range:
        return range(self.n)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundSet) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("GroundSet", self.n))

    def __repr__(self) -> str:
        return f"GroundSet({self.n})"

    def empty(self) -> "ElementSet":
        return ElementSet(self, ())

    def full(self) -> "ElementSet":
        return ElementSet(self, range(self.n))

    def set(self, members: Iterable[int]) -> "ElementSet":
        return ElementSet(self, members)


class ElementSet:
    """An immutable subset of a :class:`GroundSet`.

    Members are stored as a sorted duplicate-free tuple; a frozenset backs
    O(1) membership tests.  Equality and hashing consider the universe size
    and the member tuple.
    """

    __slots__ = ("universe", "members", "_memberset")

    def __init__(self, universe: GroundSet, members: Iterable[int] = ()):
        ms = sorted(set(int(e) for e in members))
        if ms and (ms[0] < 0 or ms[-1] >= universe.n):
            bad = ms[0] if ms[0] < 0 else ms[-1]
            raise ValueError(f"element {bad} outside ground set of size {universe.n}")
        self.universe = universe
        self.members = tuple(ms)
        self._memberset = frozenset(ms)

    @classmethod
    def _raw(cls, universe: GroundSet, sorted_members: tuple) -> "ElementSet":
        # internal fast path: members already sorted, deduplicated, in range
        obj = object.__new__(cls)
        obj.universe = universe
        obj.members = sorted_members
        obj._memberset = frozenset(sorted_members)
        return obj

    @classmethod
    def from_mask(cls, universe: GroundSet, mask: int) -> "ElementSet":
        members = []
        e = 0
        while mask:
            if mask & 1:
                members.append(e)
            mask >>= 1
            e += 1
        return cls._raw(universe, tuple(members))

    def mask(self) -> int:
        m = 0
        for e in self.members:
            m |= 1 << e
        return m

    def with_element(self, e: int) -> "ElementSet":
        if e in self._memberset:
            return self
        if e < 0 or e >= self.universe.n:
            raise ValueError(f"element {e} outside ground set of size {self.universe.n}")
        i = bisect.bisect_left(self.members, e)
        return ElementSet._raw(self.universe, self.members[:i] + (e,) + self.members[i:])

    def without_element(self, e: int) -> "ElementSet":
        if e not in self._memberset:
            return self
        return ElementSet._raw(self.universe, tuple(x for x in self.members if x != e))

    def union(self, other: Iterable[int]) -> "ElementSet":
        return ElementSet(self.universe, list(self.members) + list(other))

    def difference(self, other: Iterable[int]) -> "ElementSet":
        drop = set(other)
        return ElementSet._raw(self.universe, tuple(x for x in self.members if x not in drop))

    def intersection(self, other: Iterable[int]) -> "ElementSet":
        keep = set(other)
        return ElementSet._raw(self.universe, tuple(x for x in self.members if x in keep))

    def issubset(self, other: "ElementSet") -> bool:
        return self._memberset <= other._memberset

    def __contains__(self, e: int) -> bool:
        return e in self._memberset

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and other.universe.n == self.universe.n
            and other.members == self.members
        )

    def __hash__(self) -> int:
        return hash((self.universe.n, self.members))

    def __repr__(self) -> str:
        return f"ElementSet({list(self.members)})"


class ValueOracle:
    """Counted wrapper around a non-negative set function ``f: 2^N -> R``.

    ``eval_count`` counts evaluations and ``marginal_count`` logical
    marginal-gain queries: the paper's cost model, not Python calls.  A
    marginal against the currently cached base set costs one evaluation,
    otherwise two.  The cache holds a single ``(base_set, value)`` pair;
    callers commit a new base with :meth:`set_base` after deciding to extend
    their working set.

    :meth:`gains` answers a batch of marginal queries against one base from
    an incremental-gain state (:meth:`gain_state`) and counts it exactly as
    the same queries asked one by one through :meth:`marginal`.
    """

    def __init__(
        self,
        fn: Callable[[ElementSet], float],
        ground: GroundSet,
        *,
        modular: bool = False,
        name: str = "",
    ):
        self._fn = fn
        self.ground = ground
        self.modular = modular
        self.name = name
        self.objective = None  # set by the objective that builds this oracle
        self.eval_count = 0
        self.marginal_count = 0
        self.cached_base: Optional[tuple[ElementSet, float]] = None

    def _checked(self, S: ElementSet) -> float:
        """f(S), uncounted; a negative or NaN value is an error."""
        v = float(self._fn(S))
        if not v >= 0.0:
            raise NonNegativityError(f"oracle {self.name or self._fn!r} returned {v} < 0 on {S!r}")
        return v

    def _evaluate(self, S: ElementSet) -> float:
        self.eval_count += 1
        return self._checked(S)

    def value(self, S: ElementSet) -> float:
        """f(S); served from the cached base when it matches, else one evaluation."""
        if self.cached_base is not None and self.cached_base[0] == S:
            return self.cached_base[1]
        v = self._evaluate(S)
        self.cached_base = (S, v)
        return v

    def marginal(self, e: int, S: ElementSet) -> float:
        """Marginal gain f(S + e) - f(S).  Requires ``e not in S``."""
        if e in S:
            raise ValueError(f"marginal gain requires e not in S; got e={e} in {S!r}")
        self.marginal_count += 1
        base = self.value(S)
        return self._evaluate(S.with_element(e)) - base

    def gain_state(self) -> "GainState":
        """A fresh incremental-gain state at the empty set: the objective's
        own when this oracle wraps one, else :class:`EvaluatedGains`."""
        if self.objective is not None:
            return self.objective.gain_state()
        return EvaluatedGains(self)

    def gains(self, state: "GainState", S: ElementSet, candidates: Sequence[int]) -> np.ndarray:
        """Marginal gains f(S + u) - f(S) of every candidate u, none of them in
        ``S``, scored by ``state``, which must hold exactly the elements of ``S``.

        Counted as ``len(candidates)`` calls of :meth:`marginal`: one logical
        marginal and one evaluation each, plus one evaluation of ``S`` when it
        is not the cached base.
        """
        if not len(candidates):
            return np.empty(0)
        if not S._memberset.isdisjoint(candidates):
            raise ValueError(f"marginal gains require candidates outside S={S!r}")
        base = self.value(S)
        self.marginal_count += len(candidates)
        self.eval_count += len(candidates)
        g = state.gains(candidates)
        bad = np.flatnonzero(~(base + g >= 0.0))
        if bad.size:
            i = int(bad[0])
            raise NonNegativityError(
                f"oracle {self.name or self._fn!r} returned {base + g[i]} < 0 "
                f"on {S.with_element(candidates[i])!r}"
            )
        return g

    def set_base(self, S: ElementSet, value: float) -> None:
        """Commit ``S`` as the cached base (its value already known to the caller)."""
        self.cached_base = (S, value)


class GainState:
    """Incremental marginal gains of one objective along one greedy run.

    A state starts at the empty set; :meth:`add` moves it to ``S + u`` and
    :meth:`gains` returns f(S + u) - f(S) for each candidate u not in S, as
    one float array.  A candidate's gain does not depend on which other
    candidates share its batch.  States are uncounted: callers score through
    :meth:`ValueOracle.gains`, which keeps the accounting.
    """

    def add(self, u: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def gains(self, candidates: Sequence[int]) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError


class EvaluatedGains(GainState):
    """Gains as evaluate-differences through an oracle's function: the state
    of an oracle that wraps no objective, and the reference the objectives'
    own states are tested against."""

    def __init__(self, oracle: ValueOracle):
        self._oracle = oracle
        self._S = oracle.ground.empty()

    def add(self, u: int) -> None:
        self._S = self._S.with_element(u)

    def gains(self, candidates: Sequence[int]) -> np.ndarray:
        S = self._S
        base = self._oracle.value(S)  # cached: ValueOracle.gains has just asked for it
        vals = [self._oracle._checked(S.with_element(int(u))) for u in candidates]
        return np.array(vals, dtype=float) - base


class IndependenceOracle:
    """Counted membership oracle for a downward-closed independence system.

    ``k`` is the declared system parameter (k-system / k-extendibility bound)
    used by algorithms for sampling rates and by reports; it is metadata, not
    something the oracle enforces.  Subclasses override :meth:`_accepts`.
    """

    def __init__(
        self,
        fn: Optional[Callable[[ElementSet], bool]] = None,
        ground: Optional[GroundSet] = None,
        *,
        k: int = 1,
        name: str = "",
    ):
        if fn is None and type(self) is IndependenceOracle:
            raise ValueError("IndependenceOracle needs a membership callback")
        self._fn = fn
        self.ground = ground
        self.k = int(k)
        self.name = name
        self.membership_count = 0

    def _accepts(self, S: ElementSet) -> bool:
        return bool(self._fn(S))

    def is_independent(self, S: ElementSet) -> bool:
        self.membership_count += 1
        return self._accepts(S)


class Rng:
    """Deterministic splittable random stream.

    A stream is fully determined by ``(master_seed, stream_index)``: two
    instances built from the same pair produce identical draws, and distinct
    stream indices give statistically independent streams (seed-sequence
    spawn keys).  Benchmark trial ``i`` runs on stream ``i`` of the master
    seed.
    """

    __slots__ = ("master_seed", "stream_index", "generator")

    def __init__(self, master_seed: int, stream_index: int = 0):
        master_seed = int(master_seed)
        stream_index = int(stream_index)
        if master_seed < 0 or master_seed >= 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
        if stream_index < 0:
            raise ValueError(f"stream_index must be >= 0, got {stream_index}")
        self.master_seed = master_seed
        self.stream_index = stream_index
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_index,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def random(self) -> float:
        return float(self.generator.random())

    def stream(self, index: int) -> "Rng":
        """A fresh stream of the same master seed."""
        return Rng(self.master_seed, index)

    def __repr__(self) -> str:
        return f"Rng(master_seed={self.master_seed}, stream_index={self.stream_index})"


def bernoulli(rng: Rng, p: float) -> bool:
    """One Bernoulli(p) draw.  ``p`` must lie in [0, 1]; endpoints are exact."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bernoulli probability must be in [0, 1], got {p}")
    return rng.random() < p


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one algorithm run.

    Counters are deltas over the run (termination snapshot minus entry
    snapshot), so results compose when several runs share one oracle.
    ``value`` is f(solution) as last evaluated.
    """

    solution: ElementSet
    value: float
    f_evals: int
    marginal_evals: int
    independence_checks: int
    wall_ms: float
    seed: Optional[int]
    algorithm_name: str
