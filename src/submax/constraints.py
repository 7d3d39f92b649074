"""Independence systems: matroids, intersections, genre limits, and verifiers.

All constraint classes are counted membership oracles (see
:class:`submax.core.IndependenceOracle`).  The verifiers in this module are
exhaustive brute-force checkers meant for small ground sets; they are the
ground truth the rest of the package is tested against, so they deliberately
use no class-specific shortcuts — only membership queries.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from typing import Iterable, Mapping, Optional, Sequence

from .core import CapacityError, ElementSet, GroundSet, IndependenceOracle

logger = logging.getLogger(__name__)


class UniformMatroid(IndependenceOracle):
    """S independent iff |S| <= m.  A matroid (declared k = 1)."""

    def __init__(self, ground: GroundSet, m: int, name: str = ""):
        if m < 0:
            raise ValueError(f"uniform matroid rank must be >= 0, got {m}")
        super().__init__(ground=ground, k=1, name=name or f"uniform({m})")
        self.m = int(m)

    def _accepts(self, S: ElementSet) -> bool:
        return len(S) <= self.m


class PartitionMatroid(IndependenceOracle):
    """S independent iff |S ∩ block_b| <= capacity_b for every block b.

    ``block_of`` maps element id -> block label; elements missing from the
    map are unconstrained.  A matroid (declared k = 1).
    """

    def __init__(
        self,
        ground: GroundSet,
        block_of: Mapping[int, object],
        capacities: Mapping[object, int],
        name: str = "",
    ):
        super().__init__(ground=ground, k=1, name=name or "partition")
        self.block_of = dict(block_of)
        self.capacities = dict(capacities)
        for b, cap in self.capacities.items():
            if cap < 0:
                raise ValueError(f"block {b!r} has negative capacity {cap}")
        missing = {b for b in self.block_of.values() if b not in self.capacities}
        if missing:
            raise ValueError(f"blocks without a capacity: {sorted(map(str, missing))}")

    def _accepts(self, S: ElementSet) -> bool:
        counts: Counter = Counter()
        for e in S:
            b = self.block_of.get(e)
            if b is None:
                continue
            counts[b] += 1
            if counts[b] > self.capacities[b]:
                return False
        return True


class IntersectionSystem(IndependenceOracle):
    """Intersection of component systems: independent iff independent in all.

    Declared k is the sum of the components' declared k values — the count of
    components when all are matroids.
    """

    def __init__(self, components: Sequence[IndependenceOracle], name: str = ""):
        if not components:
            raise ValueError("intersection needs at least one component")
        grounds = {c.ground.n for c in components if c.ground is not None}
        if len(grounds) > 1:
            raise ValueError(f"components disagree on ground-set size: {sorted(grounds)}")
        ground = next(c.ground for c in components if c.ground is not None)
        k = sum(c.k for c in components)
        super().__init__(ground=ground, k=k, name=name or f"intersection({len(components)})")
        self.components = list(components)

    def _accepts(self, S: ElementSet) -> bool:
        return all(c.is_independent(S) for c in self.components)


class GenreConstraint(IndependenceOracle):
    """Per-genre caps plus a global cap over a restricted universe.

    Element ids carry genre label sets (``genre_of``).  Given favourite
    genres ``favorites`` with per-genre limits and a global limit ``m``,
    the effective universe is N_u = union of N(g) over favourite g, and

        S independent  iff  S ⊆ N_u  and  |S| <= m  and  |S ∩ N(g)| <= m_g ∀g.

    An element carrying several favourite genres counts against each of
    their limits.  Declared k defaults to ``len(favorites)`` (the careful
    bound for this structure); callers may override, e.g. with
    ``1 + len(favorites)`` for the naive one-matroid-per-cap count.
    """

    def __init__(
        self,
        ground: GroundSet,
        genre_of: Mapping[int, Iterable[str]],
        favorites: Sequence[str],
        m: int,
        m_g: int | Mapping[str, int],
        *,
        k: Optional[int] = None,
        name: str = "",
    ):
        favorites = list(dict.fromkeys(favorites))
        if not favorites:
            raise ValueError("genre constraint needs at least one favourite genre")
        if m < 0:
            raise ValueError(f"global limit m must be >= 0, got {m}")
        if isinstance(m_g, Mapping):
            limits = {g: int(m_g[g]) for g in favorites}
        else:
            limits = {g: int(m_g) for g in favorites}
        if any(v < 0 for v in limits.values()):
            raise ValueError("per-genre limits must be >= 0")
        super().__init__(ground=ground, k=len(favorites) if k is None else int(k),
                         name=name or "genre")
        self.genre_of = {e: frozenset(gs) for e, gs in genre_of.items()}
        self.favorites = favorites
        self.m = int(m)
        self.limits = limits
        fav = set(favorites)
        self.restricted_universe = ground.set(
            e for e, gs in self.genre_of.items() if gs & fav
        )

    def _accepts(self, S: ElementSet) -> bool:
        if len(S) > self.m:
            return False
        counts = {g: 0 for g in self.favorites}
        for e in S:
            gs = self.genre_of.get(e, frozenset())
            hit = False
            for g in self.favorites:
                if g in gs:
                    hit = True
                    counts[g] += 1
                    if counts[g] > self.limits[g]:
                        return False
            if not hit:
                return False  # outside the restricted universe
        return True

    def as_intersection(self) -> IntersectionSystem:
        """The same family expressed as uniform ∩ per-genre partition-style caps,
        restricted to N_u.  Used by oracle-equivalence tests."""
        nu = set(self.restricted_universe)
        components: list[IndependenceOracle] = []

        class _Restricted(IndependenceOracle):
            def __init__(self, ground, nu):
                super().__init__(ground=ground, k=1, name="restrict")
                self._nu = nu

            def _accepts(self, S):
                return all(e in self._nu for e in S)

        components.append(_Restricted(self.ground, nu))
        components.append(UniformMatroid(self.ground, self.m))
        for g in self.favorites:
            members = {e for e, gs in self.genre_of.items() if g in gs}
            cap = self.limits[g]

            class _Cap(IndependenceOracle):
                def __init__(self, ground, members, cap, g):
                    super().__init__(ground=ground, k=1, name=f"cap({g})")
                    self._members = members
                    self._cap = cap

                def _accepts(self, S):
                    return sum(1 for e in S if e in self._members) <= self._cap

            components.append(_Cap(self.ground, members, cap, g))
        return IntersectionSystem(components, name="genre-as-intersection")


def load_genres_csv(path) -> dict[int, frozenset]:
    """Read ``element_id,genres`` rows; genres are semicolon-separated labels."""
    import csv

    genre_of: dict[int, frozenset] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "element_id" not in reader.fieldnames \
                or "genres" not in reader.fieldnames:
            raise ValueError(f"{path}: expected header 'element_id,genres'")
        for row in reader:
            e = int(row["element_id"])
            labels = frozenset(g.strip() for g in row["genres"].split(";") if g.strip())
            genre_of[e] = labels
    return genre_of


# ---------------------------------------------------------------------------
# Exhaustive verifiers.  All operate on an explicit element list (default: the
# oracle's full ground set), so callers can verify truncations of large
# instances.  Masks index into that element list.
# ---------------------------------------------------------------------------


def _element_list(I: IndependenceOracle, elements: Optional[Sequence[int]]) -> list[int]:
    if elements is None:
        if I.ground is None:
            raise ValueError("oracle has no ground set; pass elements explicitly")
        return list(I.ground.elements)
    return sorted(set(int(e) for e in elements))


def _mask_set(I: IndependenceOracle, elems: Sequence[int], mask: int) -> ElementSet:
    members = [elems[i] for i in range(len(elems)) if mask >> i & 1]
    return ElementSet(I.ground, members)


def _independence_table(I: IndependenceOracle, elems: Sequence[int]) -> list[bool]:
    n = len(elems)
    return [I.is_independent(_mask_set(I, elems, m)) for m in range(1 << n)]


def verify_downward_closed(
    I: IndependenceOracle, elements: Optional[Sequence[int]] = None, *, cap: int = 20
) -> bool:
    """Exhaustively check downward closure over all subsets of ``elements``.

    True iff every independent set stays independent after any single-element
    deletion (which implies closure under arbitrary deletions).
    """
    elems = _element_list(I, elements)
    n = len(elems)
    if n > cap:
        raise CapacityError(
            f"verify_downward_closed is exhaustive; n={n} exceeds cap {cap} "
            f"(verify a truncation or sample subsets instead)"
        )
    ind = _independence_table(I, elems)
    for mask in range(1 << n):
        if not ind[mask]:
            continue
        m = mask
        while m:
            low = m & -m
            if not ind[mask ^ low]:
                return False
            m ^= low
    return True


def verify_k_system(
    I: IndependenceOracle, elements: Optional[Sequence[int]] = None, *, cap: int = 16
) -> float:
    """Exact k-system parameter: max over X of (largest base of X) / (smallest base of X).

    A base of X is a maximal independent subset of X.  The empty-ground case
    (and any X whose only base is empty) contributes ratio 1.  Assumes the
    system is downward closed.
    """
    elems = _element_list(I, elements)
    n = len(elems)
    if n > cap:
        raise CapacityError(f"verify_k_system is exhaustive; n={n} exceeds cap {cap}")
    ind = _independence_table(I, elems)
    full = (1 << n) - 1
    size = 1 << n
    min_base = [n + 1] * size
    max_base = [-1] * size
    for B in range(size):
        if not ind[B]:
            continue
        # elements outside B that cannot extend B: B is a base of exactly
        # the sets B ∪ T with T a subset of these
        blocked = 0
        rest = full ^ B
        r = rest
        while r:
            low = r & -r
            if not ind[B | low]:
                blocked |= low
            r ^= low
        nb = bin(B).count("1")
        T = blocked
        while True:
            X = B | T
            if nb < min_base[X]:
                min_base[X] = nb
            if nb > max_base[X]:
                max_base[X] = nb
            if T == 0:
                break
            T = (T - 1) & blocked
    worst = 1.0
    for X in range(size):
        if max_base[X] < 0:
            continue  # no base recorded: X unreachable (impossible when ∅ independent)
        lo, hi = min_base[X], max_base[X]
        if lo == 0:
            ratio = 1.0 if hi == 0 else float("inf")
        else:
            ratio = hi / lo
        if ratio > worst:
            worst = ratio
    return worst


def verify_k_extendible(
    I: IndependenceOracle,
    elements: Optional[Sequence[int]] = None,
    k: Optional[int] = None,
    *,
    cap: int = 14,
) -> bool:
    """Exhaustively check k-extendibility over subsets of ``elements``.

    For every independent A ⊆ B with B independent, and every element
    e ∉ B with A + e independent, there must exist Y ⊆ B \\ A with
    |Y| <= k and (B \\ Y) + e independent.  (The new element is quantified
    over e ∉ B; for e ∈ B \\ A the exchange demand would be ill-posed.)
    """
    elems = _element_list(I, elements)
    n = len(elems)
    if n > cap:
        raise CapacityError(f"verify_k_extendible is exhaustive; n={n} exceeds cap {cap}")
    if k is None:
        k = I.k
    ind = _independence_table(I, elems)
    full = (1 << n) - 1
    bit_index = {1 << i: i for i in range(n)}

    for B in range(1 << n):
        if not ind[B]:
            continue
        out_bits = []
        rest = full ^ B
        r = rest
        while r:
            low = r & -r
            out_bits.append(low)
            r ^= low
        # A ranges over all submasks of B (independent by downward closure,
        # checked anyway so the verifier stays sound on broken systems)
        A = B
        while True:
            if ind[A]:
                diff = B ^ A
                diff_bits = [1 << i for i in range(n) if diff >> i & 1]
                for eb in out_bits:
                    if not ind[A | eb]:
                        continue
                    found = False
                    for ysize in range(0, min(k, len(diff_bits)) + 1):
                        for combo in itertools.combinations(diff_bits, ysize):
                            Y = 0
                            for c in combo:
                                Y |= c
                            if ind[(B ^ Y) | eb]:
                                found = True
                                break
                        if found:
                            break
                    if not found:
                        logger.debug(
                            "k-extendibility fails: A=%s B=%s e=%s",
                            _mask_set(I, elems, A).members,
                            _mask_set(I, elems, B).members,
                            elems[bit_index[eb]],
                        )
                        return False
            if A == 0:
                break
            A = (A - 1) & B
    return True


_bound_warned: set[tuple[int, int]] = set()  # (n, cap) pairs already warned about


def max_feasible_size(
    I: IndependenceOracle, elements: Optional[Sequence[int]] = None, *, exhaustive_cap: int = 16
) -> int:
    """Size of a largest independent subset of ``elements``.

    Exact (depth-first search over independent sets, pruned by downward
    closure) when n <= ``exhaustive_cap``; otherwise a greedy-augmentation
    lower bound, flagged by a log warning once per process and ``(n, cap)``.
    """
    elems = _element_list(I, elements)
    n = len(elems)
    if n <= exhaustive_cap:
        best = 0
        empty = ElementSet(I.ground, ())

        def visit(S: ElementSet, start: int, depth: int):
            nonlocal best
            if depth > best:
                best = depth
            if depth + (n - start) <= best:
                return  # cannot beat the incumbent
            for i in range(start, n):
                S2 = S.with_element(elems[i])
                if I.is_independent(S2):
                    visit(S2, i + 1, depth + 1)

        visit(empty, 0, 0)
        return best
    if (n, exhaustive_cap) not in _bound_warned:
        _bound_warned.add((n, exhaustive_cap))
        logger.warning(
            "max_feasible_size: n=%d exceeds exhaustive cap %d; returning a greedy "
            "lower bound (exact for matroids, may undercount general systems)",
            n,
            exhaustive_cap,
        )
    S = ElementSet(I.ground, ())
    for e in elems:
        S2 = S.with_element(e)
        if I.is_independent(S2):
            S = S2
    return len(S)
