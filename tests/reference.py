"""Test references: the plain exhaustive routines that the package's faster
ones are checked against.

- ``independence_table``, ``value_table`` and the three verifiers build every
  subset with ``ElementSet(...)`` in mask order, and the verifiers run the
  exchange check once per (A, B, e) triple;
- ``check_submodular_pairwise`` checks the union/intersection form of
  submodularity, an independent route to ``check_submodular``'s answer;
- ``diminishing_returns`` and ``nondecreasing`` read a mask-indexed value
  table with one fancy-index gather per (e, x) pair and per e, the
  references for the half-table passes behind ``check_submodular`` and
  ``check_monotone``;
- ``marginal`` asks one marginal gain the way ``ValueOracle.gains`` counts
  each of its queries, and ``brute_force_opt`` is a recursive depth-first
  search over the independent sets;
- ``greedy``, plain and lazy, asks every query through the public checked
  methods, the reference for the runs that ask their states directly;
- ``genre_as_intersection`` writes a genre constraint as a uniform matroid
  intersected with one cap per favourite genre, restricted to N_u;
- ``cut_value`` sums the weights of the edges leaving a set one by one;
- ``check_symmetric`` tests symmetry on the whole matrix against its
  transpose, the reference for the tiled ``objectives._check_symmetric``;
- ``DispersionGains`` reads both the row and the column of the similarity on
  every add and remove and gathers from the strided diagonal view, the
  reference for ``objectives._DispersionGains``.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from typing import Optional, Sequence

import numpy as np

from submax import (CapacityError, ElementSet, ExtensionState, GainState, IndependenceOracle,
                    IntersectionSystem, UniformMatroid)
from submax.algorithms import _Run
from submax.core import _elements, _id_array

logger = logging.getLogger(__name__)


def _mask_set(I: IndependenceOracle, elems: Sequence[int], mask: int) -> ElementSet:
    members = [elems[i] for i in range(len(elems)) if mask >> i & 1]
    return ElementSet(I.ground, members)


def independence_table(I: IndependenceOracle, elems: Sequence[int]) -> list[bool]:
    n = len(elems)
    return [I.is_independent(_mask_set(I, elems, m)) for m in range(1 << n)]


def value_table(f, elems: Sequence[int]) -> np.ndarray:
    n = len(elems)
    vals = np.empty(1 << n)
    for mask in range(1 << n):
        vals[mask] = f.value(_mask_set(f, elems, mask))
    return vals


def verify_downward_closed(
    I: IndependenceOracle, elements: Optional[Sequence[int]] = None, *, cap: int = 20
) -> bool:
    """Exhaustively check downward closure over all subsets of ``elements``.

    True iff every independent set stays independent after any single-element
    deletion (which implies closure under arbitrary deletions).
    """
    elems = _elements(I.ground, elements)
    n = len(elems)
    if n > cap:
        raise CapacityError(
            f"verify_downward_closed is exhaustive; n={n} exceeds cap {cap} "
            f"(verify a truncation or sample subsets instead)"
        )
    ind = independence_table(I, elems)
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
    elems = _elements(I.ground, elements)
    n = len(elems)
    if n > cap:
        raise CapacityError(f"verify_k_system is exhaustive; n={n} exceeds cap {cap}")
    ind = independence_table(I, elems)
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
    elems = _elements(I.ground, elements)
    n = len(elems)
    if n > cap:
        raise CapacityError(f"verify_k_extendible is exhaustive; n={n} exceeds cap {cap}")
    if k is None:
        k = I.k
    ind = independence_table(I, elems)
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


def check_submodular_pairwise(f, elements: Optional[Sequence[int]] = None, *, cap: int = 10) -> bool:
    """Exhaustive union/intersection form: f(X) + f(Y) >= f(X ∪ Y) + f(X ∩ Y).

    Mathematically equivalent to ``check_submodular``; kept as an
    independent route so the equivalence itself can be tested.
    """
    elems = _elements(f.ground, elements)
    n = len(elems)
    if n > cap:
        raise CapacityError(f"check_submodular_pairwise is exhaustive; n={n} exceeds cap {cap}")
    vals = value_table(f, elems)
    all_masks = np.arange(1 << n)
    for X in range(1 << n):
        if np.any(vals[X] + vals < vals[X | all_masks] + vals[X & all_masks]):
            return False
    return True


def diminishing_returns(vals: np.ndarray) -> bool:
    """f(A+e) - f(A) >= f(A+x+e) - f(A+x) for every A and distinct e, x
    outside A, on a mask-indexed value table, one pair (e, x) at a time."""
    n = len(vals).bit_length() - 1
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


def nondecreasing(vals: np.ndarray) -> bool:
    """f(S + e) >= f(S) for all S and e ∉ S, on a mask-indexed value table,
    one element at a time."""
    n = len(vals).bit_length() - 1
    all_masks = np.arange(1 << n)
    for ei in range(n):
        be = 1 << ei
        A = all_masks[(all_masks & be) == 0]
        if np.any(vals[A | be] < vals[A]):
            return False
    return True


def marginal(f, e: int, S: ElementSet) -> float:
    """f(S + e) - f(S), for e not in S, one query at a time: f(S) through
    ``f.value`` (served from the cached base when S is it), then f(S + e),
    counted as one marginal.  ``ValueOracle.gains`` counts each of its
    queries as this does."""
    if e in S:
        raise ValueError(f"marginal gain requires e not in S; got e={e} in {S!r}")
    f.marginal_count += 1
    base = f.value(S)
    return f._evaluate(S.with_element(e)) - base


class _CheckedIntersection(ExtensionState):
    """An intersection's extension state that keeps its own set S and asks
    each component through its public ``extensions`` in turn, so a component
    is asked only about the candidates every earlier one accepted."""

    def __init__(self, components):
        self._S = components[0].ground.empty()
        self.parts = [(c, c.extension_state()) for c in components]

    def add(self, u: int) -> None:
        self._S = self._S.with_element(u)
        for _c, state in self.parts:
            state.add(u)

    def feasible(self, candidates: np.ndarray) -> np.ndarray:
        for c, state in self.parts:
            candidates = c.extensions(state, self._S, candidates)
        return candidates


def greedy(f, I: IndependenceOracle, *, candidates=None, lazy: bool = False):
    """Plain and lazy greedy through the public checked queries: each round
    asks ``I.extensions`` about the pool and ``f.gains`` about the feasible
    rest, and each pop of the lazy heap asks ``I.extensions`` about [u] and
    re-scores with ``f.gains`` of [u]; an intersection's components are
    asked the same way.  S, its value, the cached base, both states and the
    trace move by ``_Run.add``.
    The reference for ``algorithms.greedy``: the same solution, value,
    trace, counts and cached base, and the same error at the same counts."""
    run = _Run(f, I, _id_array(f.ground, candidates))
    if isinstance(I, IntersectionSystem):
        run.ext = _CheckedIntersection(I.components)

    def scores(pool):
        pool = I.extensions(run.ext, run.S, pool)
        return pool, f.gains(run.state, run.S, pool)

    if lazy:
        pool, gains = scores(run.pool)
        heap = [(-g, u, 0) for g, u in zip(gains.tolist(), pool.tolist())]
        heapq.heapify(heap)
        picks = 0
        while heap:
            neg_gain, u, stamp = heapq.heappop(heap)
            if not I.extensions(run.ext, run.S, [u]).size:
                continue
            if stamp != picks:
                heapq.heappush(heap, (-float(f.gains(run.state, run.S, [u])[0]), u, picks))
            elif neg_gain >= 0.0:
                break
            else:
                run.add(u, -neg_gain)
                picks += 1
    else:
        pool = run.pool
        while True:
            pool, gains = scores(pool)
            if not pool.size or gains.max() <= 0.0:
                break
            i = int(np.argmax(gains))
            run.add(int(pool[i]), float(gains[i]))
            pool = np.delete(pool, i)
    return run.result("lazy-greedy" if lazy else "greedy"), run.trace


def brute_force_opt(f, I: IndependenceOracle):
    """Exact optimum over the independent subsets of ``f.ground`` by a
    recursive depth-first search: f of the empty set, then of each
    independent extension of a visited set by a larger element, built with
    ``with_element``; the first maximiser found wins."""
    n = f.ground.n
    run = _Run(f, I)
    empty = f.ground.empty()
    best_set, best_value = empty, f.value(empty)

    def visit(S: ElementSet, start: int) -> None:
        nonlocal best_set, best_value
        for e in range(start, n):
            S2 = S.with_element(e)
            if not I.is_independent(S2):
                continue
            v2 = f.value(S2)
            if v2 > best_value:
                best_set, best_value = S2, v2
            visit(S2, e + 1)

    visit(empty, 0)
    return run.result("brute-force", None, best_set, best_value)


class _Restricted(IndependenceOracle):
    def __init__(self, ground, nu):
        super().__init__(None, ground, k=1)
        self._nu = nu

    def _accepts(self, S):
        return all(e in self._nu for e in S)


class _Cap(IndependenceOracle):
    def __init__(self, ground, members, cap):
        super().__init__(None, ground, k=1)
        self._members = members
        self._cap = cap

    def _accepts(self, S):
        return sum(1 for e in S if e in self._members) <= self._cap


def genre_as_intersection(I) -> IntersectionSystem:
    """The family of genre constraint ``I`` expressed as uniform ∩ per-genre
    partition-style caps, restricted to N_u."""
    components: list[IndependenceOracle] = [
        _Restricted(I.ground, set(I.restricted_universe)),
        UniformMatroid(I.ground, I.m),
    ]
    for g in I.favorites:
        members = {e for e, gs in I.genre_of.items() if g in gs}
        components.append(_Cap(I.ground, members, I.limits[g]))
    return IntersectionSystem(components)


def cut_value(w: np.ndarray, S) -> float:
    """Total weight of the edges that leave S, added edge by edge."""
    inside = set(S)
    outside = [j for j in range(len(w)) if j not in inside]
    return sum(float(w[i, j]) for i in sorted(inside) for j in outside)


def check_symmetric(a: np.ndarray, message: str, atol: float = 1e-9) -> bool:
    """Raise ``ValueError(message)`` unless |a - a.T| <= atol everywhere, and
    return whether a equals a.T bit for bit."""
    bits = a.view(np.int64)
    if np.array_equal(bits, bits.T):
        return True
    if not np.allclose(a, a.T, rtol=0.0, atol=atol):
        raise ValueError(message)
    return False


class DispersionGains(GainState):
    """Coverage-dispersion gains of ``obj`` (a coverage-dispersion or cut
    objective): coverage ``s[:, N_u].sum(axis=1)``, and on every add and
    remove the row ``s[u]`` and then the column ``s[:, u]``, whatever the
    matrix's layout or symmetry; the diagonal is gathered from the strided
    ``np.diagonal`` view.  Candidates are not checked against N_u."""

    def __init__(self, obj):
        s = obj.similarity
        self._s, self._lam, self._diag = s, obj.lam, np.diagonal(s)
        self._cov = s[:, np.array(obj.universe_u.members, dtype=np.intp)].sum(axis=1)
        self._acc = np.zeros(len(s))

    def add(self, u):
        self._acc += self._s[u]
        self._acc += self._s[:, u]

    def remove(self, u):
        self._acc -= self._s[u]
        self._acc -= self._s[:, u]

    def gains(self, candidates):
        c = np.asarray(candidates, dtype=np.intp)
        return self._cov[c] - self._lam * (self._acc[c] + self._diag[c])

    def gain(self, u):
        return float(self._cov[u]) - self._lam * (float(self._acc[u]) + float(self._diag[u]))

    def loss(self, u):
        return float(self._cov[u]) - self._lam * (float(self._acc[u]) - float(self._diag[u]))
