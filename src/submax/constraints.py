"""Independence systems: matroids, intersections, genre limits, and verifiers.

All constraint classes are counted membership oracles (see
:class:`submax.core.IndependenceOracle`).  Uniform, partition and genre
constraints are one rule over different groups of elements
(:class:`_RoomSystem`): S is independent iff it holds at most a group's
room of members of each group.  The verifiers in this module are
exhaustive brute-force checkers meant for small ground sets; they are the
ground truth the rest of the package is tested against, so they deliberately
use no class-specific shortcuts — only membership queries.  They ask them in
one batch, :meth:`~submax.core.IndependenceOracle.independent_masks`, which
the room rule, an intersection and a hard instance answer over arrays of
subset masks; a test checks those answers and counts against one query per
set.
"""

from __future__ import annotations

import logging
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    ElementSet,
    ExtensionState,
    GroundSet,
    IndependenceOracle,
    _CAPS,
    _halves,
    _count,
    _id_array,
    _independent_levels,
    _mask_set,
    _read_id_rows,
    _subset_table,
)

logger = logging.getLogger(__name__)


_EVERY = ("every",)  # the group of every element, under a global cap (a tuple: no genre label)
_OUTSIDE = ("outside",)  # a genre constraint's elements outside N_u, with room 0


class _RoomSystem(IndependenceOracle):
    """S independent iff it holds at most ``rooms[g]`` members of each group
    g, a member u counting in each group of ``_groups_of(u)`` that has a
    room.  Uniform, partition and genre constraints are this rule over their
    own groups: each passes ``rooms`` (group -> room) once ``_groups_of``
    can answer, and the rule is written once, here, per set, per mask array
    and per greedy run."""

    def __init__(self, ground: GroundSet, k: int, rooms: Mapping):
        super().__init__(None, ground, k=k)
        self.rooms = rooms
        # each group with a room -> the id array of its members, for the extension states
        self._members = {g: np.array(pos, dtype=np.intp) for g, pos in self._positions(ground).items()}

    def _positions(self, elems: Sequence[int]) -> dict:
        """Each group with a room -> the positions in ``elems`` of its members."""
        pos: dict = {g: [] for g in self.rooms}
        for i, e in enumerate(elems):
            for g in self._groups_of(e):
                if g in pos:
                    pos[g].append(i)
        return pos

    def _accepts(self, S: ElementSet) -> bool:
        left, groups_of = dict(self.rooms), self._groups_of  # the room left in each group
        for u in S.members:
            for g in groups_of(u):
                room = left.get(g)
                if room is not None:
                    if not room:
                        return False
                    left[g] = room - 1
        return True

    def _accepts_masks(self, elems: Sequence[int], masks: np.ndarray) -> np.ndarray:
        """One popcount per group with a member in ``elems``."""
        ok = np.ones(len(masks), dtype=bool)
        for g, pos in self._positions(elems).items():
            if pos:
                ok &= np.bitwise_count(masks & sum(1 << i for i in pos)) <= self.rooms[g]
        return ok

    def extension_state(self) -> "_RoomExtensions":
        return _RoomExtensions(self)


class _RoomExtensions(ExtensionState):
    """The room left in each group of a :class:`_RoomSystem`, and ``open``,
    the mask of the elements that can still join.  Adding u charges each
    group of u.  The mask loses a group's members when its room reaches 0,
    and only then (from the start for a room of 0): masked means fits."""

    def __init__(self, system: _RoomSystem):
        self.groups_of, self.room, self.members = system._groups_of, dict(system.rooms), system._members
        self.open = np.ones(system.ground.n, dtype=bool)
        for g, r in self.room.items():
            if r <= 0:
                self.open[self.members[g]] = False

    def add(self, u: int) -> None:
        for g in self.groups_of(u):
            if g in self.room:
                self.room[g] -= 1
                if self.room[g] == 0:
                    self.open[self.members[g]] = False

    def feasible(self, candidates: np.ndarray) -> np.ndarray:
        return candidates[self.open[candidates]]

    def fits(self, u: int) -> bool:
        return bool(self.open[u])


class UniformMatroid(_RoomSystem):
    """S independent iff |S| <= m.  A matroid (declared k = 1)."""

    def __init__(self, ground: GroundSet, m: int):
        self.m = _count(m, "uniform matroid rank")
        super().__init__(ground, 1, {_EVERY: self.m})

    def _groups_of(self, u: int) -> tuple:
        return (_EVERY,)


class PartitionMatroid(_RoomSystem):
    """S independent iff |S ∩ block_b| <= capacity_b for every block b.

    ``block_of`` maps element id -> block label; elements missing from the
    map are unconstrained, and an id outside the ground set is refused.  A
    matroid (declared k = 1).
    """

    def __init__(
        self,
        ground: GroundSet,
        block_of: Mapping[int, object],
        capacities: Mapping[object, int],
    ):
        self.block_of = dict(block_of)
        self.capacities = {b: _count(cap, f"block {b!r} capacity") for b, cap in dict(capacities).items()}
        if None in self.capacities:
            raise ValueError("None is not a block label; leave unconstrained elements out of block_of")
        missing = {b for b in self.block_of.values() if b not in self.capacities}
        if missing:
            raise ValueError(f"blocks without a capacity: {sorted(map(str, missing))}")
        _id_array(ground, self.block_of)  # refuses an id outside the ground set
        super().__init__(ground, 1, self.capacities)

    def _groups_of(self, u: int) -> tuple:
        return (self.block_of.get(u),)


class IntersectionSystem(IndependenceOracle):
    """Intersection of component systems: independent iff independent in all.

    Declared k is the sum of the components' declared k values — the count of
    components when all are matroids.
    """

    def __init__(self, components: Sequence[IndependenceOracle]):
        if not components:
            raise ValueError("intersection needs at least one component")
        grounds = {c.ground.n for c in components}
        if len(grounds) > 1:
            raise ValueError(f"components disagree on ground-set size: {sorted(grounds)}")
        super().__init__(None, components[0].ground, k=sum(c.k for c in components))
        self.components = list(components)

    def _accepts(self, S: ElementSet) -> bool:
        return all(c.is_independent(S) for c in self.components)

    def _accepts_masks(self, elems: Sequence[int], masks: np.ndarray) -> np.ndarray:
        """Each component's counted batch query, on the masks every earlier
        component accepted: the counts of the short-circuiting :meth:`_accepts`."""
        ok = np.ones(len(masks), dtype=bool)
        for c in self.components:
            live = np.flatnonzero(ok)
            ok[live] = c.independent_masks(elems, masks[live])
        return ok

    def extension_state(self) -> "_IntersectionExtensions":
        return _IntersectionExtensions(self.components)


class _IntersectionExtensions(ExtensionState):
    """One state per component.  Candidates pass through the components'
    states in turn, each counted in its component's ``membership_count``, so
    a component is asked only about the candidates every earlier one
    accepted: the counts of the short-circuiting whole-set check.  The
    intersection's own query has checked the candidates already."""

    def __init__(self, components: Sequence[IndependenceOracle]):
        self.parts = [(c, c.extension_state()) for c in components]

    def add(self, u: int) -> None:
        for _c, state in self.parts:
            state.add(u)

    def feasible(self, candidates: np.ndarray) -> np.ndarray:
        for c, state in self.parts:
            c.membership_count += len(candidates)
            candidates = state.feasible(candidates)
        return candidates

    def fits(self, u: int) -> bool:
        for c, state in self.parts:
            c.membership_count += 1
            if not state.fits(u):
                return False
        return True


class GenreConstraint(_RoomSystem):
    """Per-genre caps plus a global cap over a restricted universe.

    Element ids carry genre label sets (``genre_of``).  Given favourite
    genres ``favorites`` with per-genre limits and a global limit ``m``,
    the effective universe is N_u = union of N(g) over favourite g, and

        S independent  iff  S ⊆ N_u  and  |S| <= m  and  |S ∩ N(g)| <= m_g ∀g.

    An element carrying several favourite genres counts against each of
    their limits; the elements outside N_u form one more group, of room 0.
    Declared k is ``len(favorites)``, the careful bound for this structure
    (the naive one-matroid-per-cap count is ``1 + len(favorites)``).
    """

    def __init__(
        self,
        ground: GroundSet,
        genre_of: Mapping[int, Iterable[str]],
        favorites: Sequence[str],
        m: int,
        m_g: int | Mapping[str, int],
    ):
        favorites = list(dict.fromkeys(favorites))
        if not favorites:
            raise ValueError("genre constraint needs at least one favourite genre")
        m = _count(m, "global limit m")
        if not isinstance(m_g, Mapping):
            m_g = dict.fromkeys(favorites, m_g)
        missing = [g for g in favorites if g not in m_g]
        if missing:
            raise ValueError(f"no per-genre limit for favourite genre(s) {', '.join(missing)}")
        limits = {g: _count(m_g[g], f"genre {g!r} limit") for g in favorites}
        _id_array(ground, genre_of)  # refuses an id outside the ground set
        self.genre_of = {e: frozenset(gs) for e, gs in genre_of.items()}
        self.favorites = favorites
        self.m = m
        self.limits = limits
        nu = _id_array(ground, (e for e, gs in self.genre_of.items() if not gs.isdisjoint(favorites)))
        self.restricted_universe = ElementSet._raw(ground, tuple(nu.tolist()))
        super().__init__(ground, len(favorites), {_EVERY: self.m, _OUTSIDE: 0, **limits})

    def _groups_of(self, u: int) -> tuple:
        if u in self.restricted_universe:
            return (_EVERY, *self.genre_of[u])
        return (_EVERY, _OUTSIDE)


def _labels(genres: str) -> frozenset:
    return frozenset(g.strip() for g in genres.split(";") if g.strip())


def load_genres_csv(path) -> dict[int, frozenset]:
    """Read ``element_id,genres`` rows; genres are semicolon-separated labels."""
    return {e: labels for e, (_line, labels) in _read_id_rows(path, {"genres": _labels}).items()}


# ---------------------------------------------------------------------------
# Exhaustive verifiers.  All operate on an explicit element list (default: the
# oracle's full ground set), so callers can verify truncations of large
# instances.  Masks index into that element list.  Each verifier asks
# ``I.independent_masks`` once, about every subset of the list, counted as one
# membership query per subset, and nothing else.
# ---------------------------------------------------------------------------


def verify_downward_closed(I: IndependenceOracle, elements: Optional[Sequence[int]] = None) -> bool:
    """Exhaustively check downward closure over all subsets of ``elements``.

    True iff every independent set stays independent after any single-element
    deletion (which implies closure under arbitrary deletions): one pass over
    the table per element.
    """
    elems, ind = _subset_table(I.ground, elements, "verify_downward_closed", I.independent_masks)
    return not any((t[:, 1] & ~t[:, 0]).any() for t in (_halves(ind, i) for i in range(len(elems))))


def verify_k_system(I: IndependenceOracle, elements: Optional[Sequence[int]] = None) -> float:
    """Exact k-system parameter: max over X of (largest base of X) / (smallest base of X).

    A base of X is an independent B ⊆ X that no single element of X \\ B
    extends, so B is a base of exactly the X between B and its closure
    cl(B): B plus every e with B + e dependent.  The largest base of X is its
    rank (its largest independent subset), which grows with X, so the
    parameter is the largest rank(cl(B)) / |B| over independent B, and at
    least 1; B = ∅ scores 1 when rank(cl ∅) = 0 and inf otherwise.  No
    downward closure is assumed.  One pass over the table per element builds
    |B| and cl(B), and one more per element the rank (a subset-max transform).
    """
    elems, ind = _subset_table(I.ground, elements, "verify_k_system", I.independent_masks)
    n = len(elems)
    size, closure = np.zeros(1 << n, dtype=np.intp), np.arange(1 << n)
    for i in range(n):
        _halves(size, i)[:, 1] += 1
        _halves(closure, i)[:, 0] |= np.where(_halves(ind, i)[:, 1], 0, 1 << i)
    rank = np.where(ind, size, -1)
    for r in (_halves(rank, i) for i in range(n)):
        np.maximum(r[:, 0], r[:, 1], out=r[:, 1])
    top, low = rank[closure[ind]], size[ind]
    ratios = np.divide(top, low, out=np.where(top > 0, np.inf, 1.0), where=low > 0)
    return float(ratios.max(initial=1.0))


def verify_k_extendible(
    I: IndependenceOracle,
    elements: Optional[Sequence[int]] = None,
    k: Optional[int] = None,
) -> bool:
    """Exhaustively check k-extendibility over subsets of ``elements``.

    For every independent A ⊆ B with B independent, and every element
    e ∉ B with A + e independent, there must exist Y ⊆ B \\ A with
    |Y| <= k and (B \\ Y) + e independent.  (The new element is quantified
    over e ∉ B; for e ∈ B \\ A the exchange demand would be ill-posed.)

    Written with D = B \\ Y: (A, B, e) fails iff A and A + e are
    independent and no D with A ⊆ D ⊆ B and |B \\ D| <= k has D + e
    independent.  D = B serves every A when B + e is independent, so only
    the pairs (B, e) with B + e dependent are checked, one size |B| = s at
    a time, a row per pair and a column per subset of B: bit j of column c
    names B's j-th lowest member.  One superset-OR transform (s passes over
    the columns) answers "some allowed D ⊇ A has D + e independent" for
    every A of a batch of pairs at once.
    """
    k = I.k if k is None else _count(k, "k")
    elems, ind = _subset_table(I.ground, elements, "verify_k_extendible", I.independent_masks)
    n = len(elems)
    masks, bits = np.arange(1 << n), 1 << np.arange(n)
    size = np.bitwise_count(masks)
    for s in range(1, n + 1):
        Bs = masks[ind & (size == s)]
        blocked = ~ind[Bs[:, None] | bits]  # [r, i]: Bs[r] + elems[i] dependent, so elems[i] ∉ Bs[r]
        keep = blocked.any(axis=1)
        Bs, blocked = Bs[keep], blocked[keep]
        # sub[r, c]: the subset of Bs[r] named by column c, one member of each B peeled per pass
        sub, rest = np.zeros((len(Bs), 1), dtype=masks.dtype), Bs.copy()
        for _ in range(s):
            low = rest & -rest
            rest ^= low
            sub = np.hstack([sub, sub | low[:, None]])
        sub_ind = ind[sub]
        allowed = np.bitwise_count(np.arange(1 << s)) >= s - k  # the columns with |B \\ D| <= k
        rs, es = np.nonzero(blocked)
        step = max(1, (1 << 14) >> s)  # pairs per batch: at most 128 KiB per array
        for lo in range(0, len(rs), step):
            r, e = rs[lo:lo + step], es[lo:lo + step]
            cells = sub[r]
            cells |= bits[e, None]
            with_e = ind[cells]
            reach = with_e & allowed
            for j in range(s):
                h = _halves(reach, j)
                h[:, 0] |= h[:, 1]
            fails = sub_ind[r] & with_e & ~reach
            if fails.any():
                p, c = np.unravel_index(fails.argmax(), fails.shape)
                A, B = (_mask_set(I.ground, elems, int(m)).members for m in (sub[r[p], c], Bs[r[p]]))
                logger.debug("k-extendibility fails: A=%s B=%s e=%s", A, B, elems[e[p]])
                return False
    return True


_bound_warned: set[int] = set()  # sizes n already warned about


def max_feasible_size(I: IndependenceOracle) -> int:
    """Size of a largest independent subset of ``I.ground``.

    Exact when n <= 16: the number of non-empty levels of
    :func:`~submax.core._independent_levels`, the independent sets one size
    at a time, each size asked about in one batch.  Otherwise a
    greedy-augmentation lower bound, flagged by a log warning once per
    process and n, except on a uniform or partition matroid, whose greedy
    bound is its rank.
    """
    elems = list(I.ground.elements)
    n, cap = len(elems), _CAPS["max_feasible_size"]
    if n <= cap:
        return sum(1 for _level in _independent_levels(I, elems)) - 1
    if type(I) not in (UniformMatroid, PartitionMatroid) and n not in _bound_warned:
        _bound_warned.add(n)
        logger.warning(
            "max_feasible_size: n=%d exceeds exhaustive cap %d; returning a greedy "
            "lower bound (exact for matroids, may undercount general systems)",
            n,
            cap,
        )
    size, state = 0, I.extension_state()
    for e in elems:  # ascending ids, none in the state's set: asked directly, counted as I.extensions counts
        I.membership_count += 1
        if state.fits(e):
            size += 1
            state.add(e)
    return size
