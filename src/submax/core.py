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
import csv
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

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
        self.n = _count(n, "ground set size")

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


def _outside(e: int, ground: GroundSet) -> ValueError:
    """The error for an id ``e`` outside ``ground``."""
    return ValueError(f"element {e} outside ground set of size {ground.n}")


def _same_ground(ground: GroundSet, other: GroundSet, what) -> None:
    """Refuse ``what``, a set or system over ``other``, unless ``other`` has ``ground``'s size."""
    if other.n != ground.n:
        raise ValueError(f"{what} is over a ground set of size {other.n}, not {ground.n}")


class ElementSet:
    """An immutable subset of a :class:`GroundSet`.

    Members are stored as a sorted duplicate-free tuple; a frozenset backs
    O(1) membership tests.  Equality and hashing consider the universe size
    and the member tuple.
    """

    __slots__ = ("universe", "members", "_memberset")

    def __init__(self, universe: GroundSet, members: Iterable[int] = ()):
        if members is None:  # _elements reads None as the whole ground set
            raise TypeError("element set members must be ids, not None")
        ms = _elements(universe, members)
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

    def with_element(self, e: int) -> "ElementSet":
        if type(e) is not int:  # the ids of greedy runs are ints: one type test
            e = _id(e)
        if e in self._memberset:
            return self
        if e < 0 or e >= self.universe.n:
            raise _outside(e, self.universe)
        i = bisect.bisect_left(self.members, e)
        return ElementSet._raw(self.universe, self.members[:i] + (e,) + self.members[i:])

    def without_element(self, e: int) -> "ElementSet":
        if type(e) is not int:
            e = _id(e)
        if e not in self._memberset:
            return self
        return ElementSet._raw(self.universe, tuple(x for x in self.members if x != e))

    def difference(self, other: Iterable[int]) -> "ElementSet":
        drop = set(other)
        if not set(map(type, drop)) <= {int}:  # the repair search drops ints: one pass of type tests
            drop = set(map(_id, drop))
        return ElementSet._raw(self.universe, tuple(x for x in self.members if x not in drop))

    def issubset(self, other: "ElementSet") -> bool:
        return self._memberset <= other._memberset

    def __contains__(self, e: int) -> bool:
        if type(e) is not int:
            e = _id(e)
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


def _read_id_rows(path, fields: Mapping[str, Callable[[str], object]]) -> dict[int, tuple]:
    """The rows of an id-keyed CSV file: element id -> the row's line number
    and then its ``fields``, each read by its function, in order.  The
    header must name ``element_id`` and every field.  A row missing a field,
    an id that is not an integer >= 0 or that an earlier row listed, and a
    field its function refuses are each a ValueError naming the file and
    line."""
    names = ("element_id", *fields)
    rows: dict[int, tuple] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(names) <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected header '{','.join(names)}'")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            raw = [row[name] for name in names]
            if None in raw:
                missing = [name for name, v in zip(names, raw) if v is None]
                raise ValueError(f"{where}: missing field(s) {', '.join(missing)}")
            try:
                e = int(raw[0])
            except ValueError:
                raise ValueError(f"{where}: element id {raw[0]!r} is not an integer") from None
            if e < 0:
                raise ValueError(f"{where}: element ids must be >= 0; got [{e}]")
            if e in rows:
                raise ValueError(f"{where}: element id {e} listed twice")
            values = []
            for (name, read), v in zip(fields.items(), raw[1:]):
                try:
                    values.append(read(v))
                except ValueError:
                    raise ValueError(f"{where}: cannot read {name} from {v!r}") from None
            rows[e] = (reader.line_num, *values)
    return rows


def _independent_levels(I: "IndependenceOracle", elems: Sequence[int]) -> Iterator[np.ndarray]:
    """The subsets of ``elems`` that a search extending only independent sets
    reaches from the empty set, as int64 mask arrays (bit i for ``elems[i]``),
    one size at a time up to the last non-empty size.  A set's children add
    one bit above its highest; a whole size's children go to
    :meth:`~IndependenceOracle.independent_masks` in one call, one counted
    query each."""
    level = np.zeros(1, dtype=np.int64)
    while len(level):
        yield level
        children = np.concatenate([level[:0], *(level[level < 1 << j] | 1 << j for j in range(len(elems)))])
        level = children[I.independent_masks(elems, children)]


def _walk_order(masks: np.ndarray, n: int) -> np.ndarray:
    """The position of each int64 mask over an ``n``-element list in the
    depth-first pre-order of all its subsets: the empty set first, and after
    each set the sets that extend it by larger elements, smallest addition
    first.  Before S come its |S| proper prefixes, the empty set included,
    and for each j not in S below S's largest member, the 2^(n - 1 - j) sets
    that share S's members below j and take j.  A search that skips some
    sets meets the rest in the same relative order."""
    key = np.bitwise_count(masks).astype(np.int64)
    for j in range(n - 1):
        key += np.where(((masks >> j & 1) == 0) & ((masks >> (j + 1)) != 0), 1 << (n - 1 - j), 0)
    return key


def _each_set(ground: GroundSet, elems: Sequence[int], masks: np.ndarray,
              fn: Callable[[ElementSet], object], dtype: type) -> np.ndarray:
    """``fn`` of the subset of ``elems`` that each int64 mask of ``masks``
    names (bit i for ``elems[i]``), in array order, as a ``dtype`` array: the
    one loop that builds an :class:`ElementSet` per mask.  A set's members
    come from one table lookup per byte of its mask, and the masks become
    Python ints 4096 at a time."""
    tables = []
    for lo in range(0, len(elems), 8):
        table = [()]
        for e in elems[lo:lo + 8]:  # the masks with e's bit follow those without
            table += [t + (e,) for t in table]
        tables.append(table)
    out = np.empty(len(masks), dtype=dtype)
    for lo in range(0, len(masks), 4096):
        for i, mask in enumerate(masks[lo:lo + 4096].tolist(), lo):
            members = ()
            for table in tables:
                members += table[mask & 255]
                mask >>= 8
            out[i] = fn(ElementSet._raw(ground, members))
    return out


def _halves(table: np.ndarray, i: int) -> np.ndarray:
    """A mask-indexed ``table`` as [:, 0] the masks without bit i and [:, 1] with it."""
    return table.reshape(-1, 2, 1 << i)


# The largest element list each exhaustive routine accepts: each enumerates up
# to 2^n subsets, so one more element doubles its worst case.  Past its cap,
# max_feasible_size returns a greedy bound instead of refusing.
_CAPS = {
    "brute_force_opt": 22,
    "max_feasible_size": 16,
    "check_submodular": 14,
    "check_monotone": 14,
    "verify_downward_closed": 20,
    "verify_k_system": 16,
    "verify_k_extendible": 14,
}


_INTP = np.iinfo(np.intp)


def _id(e, what: str = "element id") -> int:
    """The id, count or size ``e`` as an int, when it is a Python or numpy
    integer; anything else (1.5, '3', True, a numpy bool) is a ValueError
    naming it."""
    if type(e) is not bool:
        try:
            return operator.index(e)
        except TypeError:
            pass
    raise ValueError(f"{what} {e!r} is not an integer")


def _count(v, what: str, low: int = 0) -> int:
    """The count, size or parameter ``v`` as an int read by :func:`_id`; one
    below ``low`` is a ValueError naming it."""
    n = _id(v, what)
    if n < low:
        raise ValueError(f"{what} must be >= {low}, got {v}")
    return n


def _intp(ids: Iterable[int], what: str) -> np.ndarray:
    """``ids`` as an ``np.intp`` array: an integer array without a walk, any
    other iterable id by id, each refused by :func:`_id` unless an integer
    that an ``np.intp`` holds: ``np.fromiter`` alone would read 1.5 as 1 and
    '3' as 3, and ``operator.index`` True as 1; a boolean array is a mask,
    not ids."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu":
        return ids.astype(np.intp, copy=False)
    ids = list(ids)
    try:
        if bool in map(type, ids):
            raise TypeError  # refused below, by _id
        return np.fromiter(map(operator.index, ids), np.intp, count=len(ids))
    except (TypeError, OverflowError):
        for e in ids:
            if not _INTP.min <= _id(e, what) <= _INTP.max:
                raise ValueError(f"{what} {e} does not fit an np.intp") from None
        raise


def _id_array(ground: GroundSet, ids: Optional[Iterable[int]] = None) -> np.ndarray:
    """``ids`` (all of ``ground`` when None) as an ascending duplicate-free
    ``np.intp`` array, refused by :func:`_intp` unless integers and by
    :func:`_outside` past ``ground``, and sorted through a mask over ``ground``:
    ``np.unique`` imports ``numpy.ma``, and a first ``np.sort`` adds ~0.4 MiB
    to a fresh process's peak RSS (numpy 2.4, x86-64)."""
    if ids is None:
        return np.arange(ground.n, dtype=np.intp)
    a = _intp(ids, "element id")
    if a.size and not (0 <= a.min() and a.max() < ground.n):
        raise _outside(int(a.min() if a.min() < 0 else a.max()), ground)
    keep = np.zeros(ground.n, dtype=bool)
    keep[a] = True
    return np.flatnonzero(keep)


def _elements(ground: GroundSet, elements: Optional[Iterable[int]]) -> list[int]:
    """``elements`` as :func:`_id_array` reads them, a list of ints: the one
    id reader of element sets and candidate pools."""
    return _id_array(ground, elements).tolist()


def _candidates(S: ElementSet, candidates: Iterable[int], query: str) -> np.ndarray:
    """``candidates`` as :func:`_intp` reads them, refused by :func:`_id_array`
    past ``S``'s ground set and then, naming ``query``, if one is in ``S``:
    the one candidate check of the checked queries."""
    candidates = _intp(candidates, "element id")
    if not S._memberset.isdisjoint(_id_array(S.universe, candidates).tolist()):
        raise ValueError(f"{query} require candidates outside S={S!r}")
    return candidates


def _mask_array(ground: GroundSet, elems: Sequence[int], masks) -> np.ndarray:
    """``masks`` as an int64 array of subsets of ``elems``, bit i standing for
    ``elems[i]``.  A list that is not sorted, distinct and in ``ground``, or
    longer than 63, and a mask that is not an integer, is negative or has a
    bit at or past ``len(elems)`` are ValueErrors."""
    if len(elems) > 63:
        raise ValueError(f"an int64 mask names at most 63 elements, got {len(elems)}")
    if _elements(ground, elems) != list(elems):
        raise ValueError(f"elems must be sorted and distinct, got {list(elems)}")
    masks = _intp(masks, "mask").astype(np.int64, copy=False)
    bad = masks[(masks < 0) | (masks >> len(elems) != 0)]
    if bad.size:
        raise ValueError(f"mask {int(bad[0])} names a bit outside the {len(elems)} elements")
    return masks


def _mask_set(ground: GroundSet, elems: Sequence[int], mask: int) -> ElementSet:
    """The subset of ``elems`` that the int ``mask`` names."""
    return ElementSet._raw(ground, tuple(e for i, e in enumerate(elems) if mask >> i & 1))


def _check_cap(name: str, n: int) -> None:
    """Refuse ``n`` elements past the cap of the exhaustive routine ``name``."""
    if n > _CAPS[name]:
        raise CapacityError(f"{name} is exhaustive; n={n} exceeds cap {_CAPS[name]}")


def _subset_table(ground: GroundSet, elements: Optional[Iterable[int]], name: str,
                  ask: Callable[[list[int], np.ndarray], np.ndarray]) -> tuple[list[int], np.ndarray]:
    """:func:`_elements` of ``elements`` and ``ask`` (``values_masks`` or
    ``independent_masks``) of its every subset, indexed by mask: one batch,
    asked only once the list has passed the cap of the exhaustive ``name``."""
    elems = _elements(ground, elements)
    _check_cap(name, len(elems))
    return elems, ask(elems, np.arange(1 << len(elems), dtype=np.int64))


class ValueOracle:
    """Counted wrapper around a non-negative set function ``f: 2^N -> R``.

    ``eval_count`` counts evaluations and ``marginal_count`` logical
    marginal-gain queries: the paper's cost model, not Python calls.
    :meth:`gains` is the one checked marginal query: f(S + u) - f(S) for a
    batch of candidates against one base S, from an incremental-gain state
    (:meth:`gain_state`), counted as evaluating f(S) through :meth:`value`
    and then each f(S + u), one marginal each.  The cache holds a single
    ``(base_set, value)`` pair; callers commit a new base with
    :meth:`set_base` after deciding to extend their working set.  A greedy
    run asks its states directly and counts by the same rule; double greedy
    asks its states too and counts as its loop of :meth:`value` calls would.
    :meth:`values_masks` answers :meth:`value` for an array of subset masks
    and counts as that loop.  A candidate id outside the ground set, and a
    set over another ground set, are ValueErrors, counted as no query.
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
            self._negative(v, S)
        return v

    def _negative(self, v: float, on) -> None:
        raise NonNegativityError(f"oracle {self.name or self._fn!r} returned {v} < 0 on {on}")

    def _evaluate(self, S: ElementSet) -> float:
        self.eval_count += 1
        return self._checked(S)

    def value(self, S: ElementSet) -> float:
        """f(S); served from the cached base when it matches, else one evaluation."""
        cached = self.cached_base
        if cached is not None and (cached[0] is S or cached[0] == S):
            return cached[1]
        _same_ground(self.ground, S.universe, S)
        v = self._evaluate(S)
        self.cached_base = (S, v)
        return v

    def values_masks(self, elems: Sequence[int], masks) -> np.ndarray:
        """:meth:`value` of each subset of ``elems`` named by an int64 mask,
        bit i standing for ``elems[i]``, asked in array order, as a float
        array.  Values, counts and the cached base left behind are those of
        that loop: a run of masks equal to the cached base is served its
        cached value uncounted, the last set becomes the cached base, and the
        first negative or NaN value evaluated raises
        :class:`NonNegativityError`.  The input checks and their errors are
        those of :meth:`IndependenceOracle.independent_masks`; a refused
        input counts as no query.

        An objective whose class keeps a batch rule, ``_evaluate_masks``,
        answers every set in one pass; any other oracle, and a batch with a
        negative or NaN value, asks :meth:`value` one set at a time."""
        masks = _mask_array(self.ground, elems, masks)
        rule = getattr(self.objective, "_evaluate_masks", None)
        if rule is None or not len(masks):
            return _each_set(self.ground, elems, masks, self.value, float)
        values = rule(elems, masks)
        if not values[values.argmin()] >= 0.0:  # argmin: the least value or a NaN; the loop finds the first bad set
            return _each_set(self.ground, elems, masks, self.value, float)
        fresh = np.ones(len(masks), dtype=bool)  # the masks the loop would evaluate
        np.not_equal(masks[1:], masks[:-1], out=fresh[1:])
        cached = self.cached_base
        if cached is not None and cached[0] == _mask_set(self.ground, elems, int(masks[0])):
            fresh[0] = False
            ends = np.flatnonzero(fresh)
            values[:int(ends[0]) if ends.size else len(masks)] = cached[1]
        self.eval_count += int(np.count_nonzero(fresh))
        self.cached_base = (_mask_set(self.ground, elems, int(masks[-1])), float(values[-1]))
        return values

    def gain_state(self) -> "GainState":
        """A fresh incremental-gain state at the empty set: the objective's
        own when this oracle wraps one that keeps one, else the
        evaluate-difference :class:`GainState`."""
        make = getattr(self.objective, "gain_state", None)
        return GainState(self) if make is None else make()

    def gains(self, state: "GainState", S: ElementSet, candidates: Sequence[int]) -> np.ndarray:
        """Marginal gains f(S + u) - f(S) of every candidate u, none of them in
        ``S``, scored by ``state``, which must hold exactly the elements of ``S``.

        Counted as one logical marginal and one evaluation per candidate, plus
        one evaluation of ``S`` when it is not the cached base.  ``S`` over
        another ground set (even with no candidates) and the candidates
        :func:`_candidates` refuses are ValueErrors counted as no query.
        """
        _same_ground(self.ground, S.universe, S)
        if not len(candidates):
            return np.empty(0)
        candidates = _candidates(S, candidates, "marginal gains")
        return self._counted_gains(state, S, self.value(S), candidates)

    def _counted_gains(self, state: "GainState", S: ElementSet, base: float,
                       candidates: np.ndarray) -> np.ndarray:
        """:meth:`gains` past its input checks, at S of value ``base``; a
        greedy round asks this directly."""
        self.marginal_count += len(candidates)
        self.eval_count += len(candidates)
        g = state.gains(candidates)
        ok = base + g >= 0.0
        i = int(ok.argmin())  # the first offender, if any
        if not ok[i]:
            self._negative(base + g[i], S.with_element(int(candidates[i])))
        return g

    def set_base(self, S: ElementSet, value: float) -> None:
        """Commit ``S`` as the cached base (its value already known to the caller)."""
        self.cached_base = (S, value)


class GainState:
    """Incremental marginal gains of one objective at one set S.

    A state starts at the empty set and reaches any set by :meth:`add`;
    :meth:`add` moves it to ``S + u`` and :meth:`remove` to ``S - u``.
    :meth:`gains` returns f(S + u) - f(S) for each candidate u not in S, as
    one float array, and :meth:`gain` the same for one candidate, equal bit
    for bit to its entry in :meth:`gains`.  A candidate's gain does not
    depend on which other candidates share its batch.  :meth:`loss` returns
    f(S) - f(S - u) for u in S.  States are uncounted: their callers keep
    the accounting (:meth:`ValueOracle.gains`, greedy and double greedy).

    ``vector`` is None here.  A state that keeps every element's gain at S
    current in one float array, indexed by id, whose entries only fall as S
    grows (bit for bit), exposes that array: lazy greedy then replays its
    heap by rank.

    This base state answers by evaluate-differences through an oracle's
    function: the state of an oracle that wraps no objective, and the
    reference the objectives' own states are tested against.  f(S) is the
    oracle's cached value when S is its cached base, else an uncounted
    evaluation.
    """

    vector: Optional[np.ndarray] = None

    def __init__(self, oracle: ValueOracle):
        self._oracle = oracle
        self._S = oracle.ground.empty()

    def _base(self) -> float:
        cached = self._oracle.cached_base
        if cached is not None and cached[0] == self._S:
            return cached[1]
        return self._oracle._checked(self._S)

    def add(self, u: int) -> None:
        self._S = self._S.with_element(u)

    def remove(self, u: int) -> None:
        self._S = self._S.without_element(u)

    def gains(self, candidates: Sequence[int]) -> np.ndarray:
        S = self._S
        base = self._base()
        vals = [self._oracle._checked(S.with_element(int(u))) for u in candidates]
        return np.array(vals, dtype=float) - base

    def gain(self, u: int) -> float:
        return self._oracle._checked(self._S.with_element(u)) - self._base()

    def loss(self, u: int) -> float:
        return self._base() - self._oracle._checked(self._S.without_element(u))


class IndependenceOracle:
    """Counted membership oracle for a downward-closed independence system.

    ``k`` is the declared system parameter (k-system / k-extendibility bound)
    used by algorithms for sampling rates and by reports; it is metadata, not
    something the oracle enforces.  Subclasses pass ``fn=None`` and override
    :meth:`_accepts`, and may state a batch rule ``_accepts_masks`` and an
    :meth:`extension_state` beside it; the uniform, partition and genre
    constraints inherit all three from one room rule
    (``constraints._RoomSystem``).  A class that states its own
    :meth:`_accepts` keeps only the fast forms stated beside it, fixed when
    the class is made: the others answer for another rule.

    :meth:`extensions` is the one checked extension query: "is S + u
    independent?" for a batch of candidates, from a per-run extension state
    (:meth:`extension_state`), counted exactly as the same queries asked one
    by one through :meth:`is_independent`.  A greedy run asks its state
    directly and keeps the counts by the same rule.  A set over another
    ground set is a ValueError, counted as no query.
    """

    def __init__(
        self,
        fn: Optional[Callable[[ElementSet], bool]],
        ground: GroundSet,
        *,
        k: int = 1,
    ):
        if fn is None and type(self) is IndependenceOracle:
            raise ValueError("IndependenceOracle needs a membership callback")
        self._fn = fn
        self.ground = ground
        self.k = _count(k, "k", 1)
        self.membership_count = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_accepts" in vars(cls):
            cls._accepts_masks = vars(cls).get("_accepts_masks", IndependenceOracle._accepts_masks)
            cls.extension_state = vars(cls).get("extension_state", IndependenceOracle.extension_state)

    def _accepts(self, S: ElementSet) -> bool:
        return bool(self._fn(S))

    def is_independent(self, S: ElementSet) -> bool:
        _same_ground(self.ground, S.universe, S)
        self.membership_count += 1
        return self._accepts(S)

    def independent_masks(self, elems: Sequence[int], masks) -> np.ndarray:
        """:meth:`is_independent` of each subset of ``elems`` (sorted, distinct,
        in ``ground``) named by an int64 mask, bit i standing for ``elems[i]``,
        as a bool array.  Counted as ``len(masks)`` calls of
        :meth:`is_independent`.  A list that is not sorted, distinct and in
        ``ground``, or longer than 63, and a negative mask or one with a bit
        at or past ``len(elems)`` are ValueErrors, counted as no query.
        The class's batch rule :meth:`_accepts_masks` answers."""
        masks = _mask_array(self.ground, elems, masks)
        self.membership_count += len(masks)
        return self._accepts_masks(elems, masks)

    def _accepts_masks(self, elems: Sequence[int], masks: np.ndarray) -> np.ndarray:
        """:meth:`_accepts` of each set, one at a time: the batch rule of a
        class that states none beside its rule (one numpy pass per group of
        elements, say)."""
        return _each_set(self.ground, elems, masks, self._accepts, bool)

    def extension_state(self) -> "ExtensionState":
        """A fresh extension state at the empty set: the whole-set
        :class:`ExtensionState` unless the system's class keeps its own."""
        return ExtensionState(self)

    def extensions(self, state: "ExtensionState", S: ElementSet, candidates: np.ndarray) -> np.ndarray:
        """The ``candidates`` u (ids, none in ``S``) with S + u independent,
        as an ``np.intp`` array in their given order; ``state`` must hold
        exactly the elements of ``S``, an independent set.

        Counted as ``len(candidates)`` calls of :meth:`is_independent`.  ``S``
        over another ground set and the candidates :func:`_candidates`
        refuses are ValueErrors counted as no query.
        """
        _same_ground(self.ground, S.universe, S)
        candidates = _candidates(S, candidates, "extension queries")
        self.membership_count += len(candidates)
        return state.feasible(candidates)


class ExtensionState:
    """The feasible one-element extensions of one independent set along one
    greedy run.

    A state starts at the empty set; :meth:`add` moves it to ``S + u``, which
    must be independent.  :meth:`feasible` takes an ``np.intp`` array of
    candidates u not in S and returns those with S + u independent, in
    order; :meth:`fits` answers for one candidate (and by default
    :meth:`feasible` asks it about each).  States are uncounted: their
    callers keep the accounting (:meth:`IndependenceOracle.extensions`, a
    greedy run and :func:`~submax.constraints.max_feasible_size`).

    ``open`` is None here.  A state that keeps a bool array, indexed by id,
    true for exactly the u outside S with S + u independent, exposes it:
    lazy greedy then asks it about a whole pool at once.

    This base state keeps S, as the base :class:`GainState` does, and checks
    each S + u whole through the oracle's rule: the state of a system
    without its own, and the reference the systems' own states are tested
    against.
    """

    open: Optional[np.ndarray] = None

    def __init__(self, oracle: IndependenceOracle):
        self._oracle = oracle
        self._S = oracle.ground.empty()

    def add(self, u: int) -> None:
        self._S = self._S.with_element(u)

    def feasible(self, candidates: np.ndarray) -> np.ndarray:
        return candidates[np.array([self.fits(u) for u in candidates.tolist()], dtype=bool)]

    def fits(self, u: int) -> bool:
        return self._oracle._accepts(self._S.with_element(u))


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
        master_seed = _count(master_seed, "master_seed")
        stream_index = _count(stream_index, "stream_index")
        if master_seed >= 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
        self.master_seed = master_seed
        self.stream_index = stream_index
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_index,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def random(self) -> float:
        return float(self.generator.random())

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
