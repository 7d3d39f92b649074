"""Maximization algorithms with oracle-call accounting.

All solvers report oracle work as counter deltas over the run and record the
master seed that drove any randomized choice.  Randomized behaviour is fully
determined by the :class:`~submax.core.Rng` stream handed in: the same
(master_seed, stream_index) reproduces the same solution and counts.

Tie-breaking everywhere is "largest gain, then smallest element id", under
exact float comparison.  The lazy greedy variant returns the identical
solution to the naive scan for submodular objectives under that rule.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .core import (
    CapacityError,
    ElementSet,
    GainState,
    GroundSet,
    IndependenceOracle,
    PropertyViolation,
    Rng,
    SolveResult,
    ValueOracle,
    bernoulli,
)


@dataclass(frozen=True)
class GreedyStep:
    element: int
    gain: float
    value_after: float


@dataclass(frozen=True)
class InstrumentedStep:
    """One considered element in an instrumented run.

    ``x_u`` marks the element as considered (always 1 for recorded steps);
    ``y_u`` is 1 iff the element entered the solution without having been in
    the reference set O at the start of its iteration.
    """

    element: int
    s_before: ElementSet
    coin: bool
    o_after: ElementSet
    removed: tuple
    x_u: int
    y_u: int


def _counts(f: Optional[ValueOracle], I: Optional[IndependenceOracle]) -> tuple[int, int, int]:
    return (
        f.eval_count if f is not None else 0,
        f.marginal_count if f is not None else 0,
        I.membership_count if I is not None else 0,
    )


def _result(
    solution: ElementSet,
    value: float,
    before: tuple[int, int, int],
    after: tuple[int, int, int],
    t0: float,
    seed: Optional[int],
    name: str,
) -> SolveResult:
    return SolveResult(
        solution=solution,
        value=value,
        f_evals=after[0] - before[0],
        marginal_evals=after[1] - before[1],
        independence_checks=after[2] - before[2],
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        seed=seed,
        algorithm_name=name,
    )


# ---------------------------------------------------------------------------
# Greedy (naive scan and lazy heap)
# ---------------------------------------------------------------------------


def _greedy_round(
    f: ValueOracle, I: IndependenceOracle, state: GainState, S: ElementSet, pool: list[int]
) -> Optional[tuple[int, float]]:
    """One naive greedy round at S: the feasible candidate of strictly positive
    maximal gain, removed from ``pool``, and its gain; None when there is none.

    Candidates whose addition is infeasible leave ``pool`` for good (supersets
    of dependent sets stay dependent).  The rest are scored in one
    :meth:`ValueOracle.gains` batch and the first maximum wins, so ties go to
    the smallest id of an ascending pool.
    """
    pool[:] = [u for u in pool if I.is_independent(S.with_element(u))]
    if not pool:
        return None
    gains = f.gains(state, S, pool)
    i = int(np.argmax(gains))
    if gains[i] <= 0.0:
        return None
    return pool.pop(i), float(gains[i])


def greedy(
    f: ValueOracle,
    I: IndependenceOracle,
    ground: Optional[GroundSet] = None,
    candidates: Optional[Iterable[int]] = None,
    *,
    lazy: bool = False,
) -> tuple[SolveResult, list[GreedyStep]]:
    """Feasibility-respecting greedy: repeatedly add the feasible element of
    strictly positive maximal marginal gain (ties to the smallest id); stop
    when none remains.

    Elements whose addition is infeasible are dropped permanently (supersets
    of dependent sets stay dependent).  ``lazy=True`` uses a stale-gain max
    heap — valid for submodular objectives, where stale gains upper-bound
    fresh ones — and returns the identical solution with fewer marginal
    evaluations.
    """
    ground = ground or f.ground
    t0 = time.perf_counter()
    before = _counts(f, I)
    pool = sorted(set(candidates)) if candidates is not None else list(ground.elements)
    S = ground.empty()
    value = f.value(S)
    state = f.gain_state()
    trace: list[GreedyStep] = []

    def feasible(u: int) -> bool:
        return I.is_independent(S.with_element(u))

    def take(u: int, gain: float) -> None:
        nonlocal S, value
        S = S.with_element(u)
        value += gain
        f.set_base(S, value)
        state.add(u)
        trace.append(GreedyStep(u, gain, value))

    if lazy:
        pool = [u for u in pool if feasible(u)]
        heap = [(-g, u, 0) for g, u in zip(f.gains(state, S, pool).tolist(), pool)]
        heapq.heapify(heap)
        rounds = 0
        while heap:
            neg_gain, u, stamp = heapq.heappop(heap)
            if not feasible(u):
                continue  # drop permanently
            if stamp == rounds:
                gain = -neg_gain
                if gain <= 0.0:
                    break
                take(u, gain)
                rounds += 1
            else:
                gain = float(f.gains(state, S, (u,))[0])
                heapq.heappush(heap, (-gain, u, rounds))
    else:
        while (pick := _greedy_round(f, I, state, S, pool)) is not None:
            take(*pick)

    name = "lazy-greedy" if lazy else "greedy"
    return _result(S, value, before, _counts(f, I), t0, None, name), trace


# ---------------------------------------------------------------------------
# Unconstrained maximization (double greedy)
# ---------------------------------------------------------------------------


def _double_greedy(
    f: ValueOracle,
    U: ElementSet,
    choose_lower: Optional[Callable[[float, float], bool]],
    rng: Optional[Rng],
    name: str,
) -> SolveResult:
    t0 = time.perf_counter()
    before = _counts(f, None)
    ground = U.universe
    X = ground.empty()
    Y = U
    fx = f.value(X)
    fy = f.value(Y)
    for u in U.members:
        X_plus = X.with_element(u)
        Y_minus = Y.without_element(u)
        vx = f.value(X_plus)
        vy = f.value(Y_minus)
        a = vx - fx
        b = vy - fy
        if choose_lower is not None:
            keep = choose_lower(a, b)
        else:
            a_pos = max(a, 0.0)
            b_pos = max(b, 0.0)
            if a_pos + b_pos == 0.0:
                keep = True
            else:
                keep = bernoulli(rng, a_pos / (a_pos + b_pos))
        if keep:
            X, fx = X_plus, vx
        else:
            Y, fy = Y_minus, vy
    seed = rng.master_seed if rng is not None else None
    return _result(X, fx, before, _counts(f, None), t0, seed, name)


def unconstrained_max_det(f: ValueOracle, U: ElementSet) -> SolveResult:
    """Deterministic double greedy over the subsets of U (1/3 of the
    unconstrained optimum for non-negative submodular f).

    Scans elements in ascending id, comparing the gain of adding u to the
    growing set against the gain of deleting u from the shrinking set; keeps
    u when the former is at least the latter.
    """
    return _double_greedy(f, U, lambda a, b: a >= b, None, "double-greedy-det")


def unconstrained_max_rand(f: ValueOracle, U: ElementSet, rng: Rng) -> SolveResult:
    """Randomized double greedy (1/2 of the unconstrained optimum in
    expectation): keeps u with probability max(a,0)/(max(a,0)+max(b,0)),
    keeping outright when both clamped gains are zero."""
    return _double_greedy(f, U, None, rng, "double-greedy-rand")


# ---------------------------------------------------------------------------
# Repeated greedy
# ---------------------------------------------------------------------------


def repeated_greedy_bound(k: int, ell: int, alpha: float) -> float:
    """Worst-case approximation factor of ``repeated_greedy`` with ``ell``
    rounds on a k-system, when the unconstrained subroutine is an
    alpha-approximation (alpha=3 deterministic, alpha=2 randomized)."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    denom = (k + 1) * ell + alpha * ell * (ell - 1) / 2.0
    return (ell - 1) / denom


def default_rounds(k: int) -> int:
    """The auto round count: ceil(sqrt(k))."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.isqrt(k - 1) + 1  # == ceil(sqrt(k)) for integer k >= 1


def repeated_greedy(
    f: ValueOracle,
    I: IndependenceOracle,
    ground: Optional[GroundSet] = None,
    *,
    ell: int | str = "auto",
    subroutine: str = "det",
    rng: Optional[Rng] = None,
    lazy: bool = False,
) -> SolveResult:
    """Run greedy ``ell`` times on shrinking ground sets, each round followed
    by an unconstrained pass inside that round's greedy pick; return the best
    candidate seen.

    Round i runs greedy on the elements no earlier round picked, yielding
    S_i; the unconstrained subroutine then searches the subsets of S_i
    (feasible by downward closure), yielding S'_i.  Ties between candidates
    go to the earliest round, S_i before S'_i.  ``ell="auto"`` uses
    ceil(sqrt(k)).  ``subroutine`` is ``"det"`` (alpha=3) or ``"rand"``
    (alpha=2, requires rng).
    """
    ground = ground or f.ground
    if subroutine not in ("det", "rand"):
        raise ValueError(f"subroutine must be 'det' or 'rand', got {subroutine!r}")
    if subroutine == "rand" and rng is None:
        raise ValueError("randomized subroutine requires an rng")
    if ell == "auto":
        rounds = default_rounds(I.k)
    else:
        rounds = int(ell)
        if rounds < 1:
            raise ValueError(f"ell must be >= 1, got {rounds}")

    t0 = time.perf_counter()
    before = _counts(f, I)
    remaining = list(ground.elements)
    best_set: Optional[ElementSet] = None
    best_value = -1.0
    for _ in range(rounds):
        res_i, _trace = greedy(f, I, ground, candidates=remaining, lazy=lazy)
        if subroutine == "det":
            res_u = unconstrained_max_det(f, res_i.solution)
        else:
            res_u = unconstrained_max_rand(f, res_i.solution, rng)
        for cand in (res_i, res_u):
            if best_set is None or cand.value > best_value:
                best_set, best_value = cand.solution, cand.value
        picked = set(res_i.solution.members)
        remaining = [u for u in remaining if u not in picked]
    seed = rng.master_seed if rng is not None else None
    name = f"repeated-greedy-{subroutine}"
    return _result(best_set, best_value, before, _counts(f, I), t0, seed, name)


# ---------------------------------------------------------------------------
# Subsampled greedy
# ---------------------------------------------------------------------------


def sample_greedy(
    f: ValueOracle,
    I: IndependenceOracle,
    ground: Optional[GroundSet] = None,
    *,
    rng: Rng,
    p: Optional[float] = None,
    lazy: bool = False,
) -> SolveResult:
    """Keep each ground element independently with probability p (default
    1/(k+1) for the constraint's declared k), then run greedy on the sample.

    One Bernoulli draw per ground element, taken upfront in ascending id
    order — the fixed coin-usage discipline that paired-seed equivalence
    tests rely on.  p must lie in (0, 1]; p=1 reproduces plain greedy
    exactly.
    """
    ground = ground or f.ground
    if p is None:
        p = 1.0 / (I.k + 1.0)
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability must lie in (0, 1], got {p}")
    t0 = time.perf_counter()
    before = _counts(f, I)
    kept = [u for u in ground.elements if bernoulli(rng, p)]
    res, _trace = greedy(f, I, ground, candidates=kept, lazy=lazy)
    return _result(
        res.solution, res.value, before, _counts(f, I), t0, rng.master_seed, "sample-greedy"
    )


def sample_greedy_linear(
    f: ValueOracle,
    I: IndependenceOracle,
    ground: Optional[GroundSet] = None,
    *,
    rng: Rng,
    assume_modular: bool = False,
    lazy: bool = False,
) -> SolveResult:
    """The linear-objective variant: :func:`sample_greedy` with sampling
    probability 1/k instead of 1/(k+1).  Only valid for modular objectives;
    the oracle must either be flagged modular or the caller must attest via
    ``assume_modular``."""
    if not (f.modular or assume_modular):
        raise ValueError(
            "sample_greedy_linear requires a modular objective "
            "(flag the oracle or pass assume_modular=True)"
        )
    if I.k < 1:
        raise ValueError(f"declared k must be >= 1, got {I.k}")
    res = sample_greedy(f, I, ground, rng=rng, p=1.0 / I.k, lazy=lazy)
    return replace(res, algorithm_name="sample-greedy-linear")


# ---------------------------------------------------------------------------
# Exhaustive optimum
# ---------------------------------------------------------------------------


def brute_force_opt(
    f: ValueOracle,
    I: IndependenceOracle,
    ground: Optional[GroundSet] = None,
    candidates: Optional[Iterable[int]] = None,
    *,
    cap: int = 22,
) -> SolveResult:
    """Exact optimum over all independent sets, by depth-first enumeration
    pruned through downward closure (a dependent set's supersets are never
    visited).  Refuses ground sets larger than ``cap``."""
    ground = ground or f.ground
    elems = sorted(set(candidates)) if candidates is not None else list(ground.elements)
    n = len(elems)
    if n > cap:
        raise CapacityError(f"brute_force_opt enumerates independent sets; n={n} exceeds cap {cap}")
    t0 = time.perf_counter()
    before = _counts(f, I)
    empty = ground.empty()
    best_set = empty
    best_value = f.value(empty)

    def visit(S: ElementSet, value: float, start: int):
        nonlocal best_set, best_value
        for i in range(start, n):
            S2 = S.with_element(elems[i])
            if not I.is_independent(S2):
                continue
            v2 = f.value(S2)
            if v2 > best_value:
                best_set, best_value = S2, v2
            visit(S2, v2, i + 1)

    visit(empty, best_value, 0)
    return _result(best_set, best_value, before, _counts(f, I), t0, None, "brute-force")


# ---------------------------------------------------------------------------
# Instrumented diagnostic run
# ---------------------------------------------------------------------------


def instrumented_sample_greedy(
    f: ValueOracle,
    I: IndependenceOracle,
    opt: ElementSet,
    ground: Optional[GroundSet] = None,
    *,
    rng: Optional[Rng] = None,
    p: Optional[float] = None,
    coin_source: Optional[Callable[[int], bool]] = None,
) -> tuple[SolveResult, list[InstrumentedStep]]:
    """Coin-flip-equivalent form of :func:`sample_greedy` that tracks a
    reference independent set O (initially a known optimum) and audits the
    bookkeeping properties the analysis rests on.

    Each iteration considers the feasible element of maximal positive gain
    over the *whole* remaining ground set and flips a coin (probability p,
    default 1/(k+1)): heads adds the element to both S and O, then removes a
    minimum-cardinality repair set O_u ⊆ O \\ S restoring O's independence
    (ties by lexicographic member order); tails removes the element from O if
    present.  Coins are drawn per consideration — or supplied via
    ``coin_source`` for paired-seed harnesses.  The pick is greedy's own
    round, so a run whose coins all land heads is :func:`greedy`, oracle
    counts included.

    Audited after every iteration, raising :class:`PropertyViolation`:

    - P1: O remains independent;
    - P2: S ⊆ O;
    - P3: every element of O \\ S is still unconsidered;
    - the repair set never exceeds k elements.
    """
    ground = ground or f.ground
    if coin_source is None and rng is None:
        raise ValueError("instrumented run needs an rng or an explicit coin_source")
    if p is None:
        p = 1.0 / (I.k + 1.0)
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability must lie in (0, 1], got {p}")
    if not I.is_independent(opt):
        raise ValueError("reference set opt must be independent")
    k = I.k
    t0 = time.perf_counter()
    before = _counts(f, I)
    S = ground.empty()
    value = f.value(S)
    state = f.gain_state()  # follows S: moves on heads only
    O = opt
    pool = list(ground.elements)
    considered: set[int] = set()
    trace: list[InstrumentedStep] = []
    iteration = 0

    while (pick := _greedy_round(f, I, state, S, pool)) is not None:
        u, gain = pick
        iteration += 1
        s_before = S
        was_in_o = u in O
        coin = coin_source(u) if coin_source is not None else bernoulli(rng, p)
        if coin:
            S = S.with_element(u)
            value += gain
            f.set_base(S, value)
            state.add(u)
            O_aug = O.with_element(u)
            removable = O_aug.difference(S).members  # ascending ids
            removed: Optional[tuple] = None
            for size in range(0, len(removable) + 1):
                for combo in itertools.combinations(removable, size):
                    if I.is_independent(O_aug.difference(combo)):
                        removed = combo
                        break
                if removed is not None:
                    break
            if removed is None:
                raise PropertyViolation(
                    "P1", iteration, "no subset of O\\S restores independence"
                )
            O = O_aug.difference(removed)
            y_u = 0 if was_in_o else 1
        else:
            removed = (u,) if was_in_o else ()
            O = O.difference(removed)
            y_u = 0
        considered.add(u)

        if len(removed) > k:
            raise PropertyViolation(
                "repair-size", iteration, f"|O_u|={len(removed)} exceeds k={k}"
            )
        if not I.is_independent(O):
            raise PropertyViolation("P1", iteration, "O lost independence")
        if not S.issubset(O):
            raise PropertyViolation("P2", iteration, "S is no longer contained in O")
        stale = (set(O.members) - set(S.members)) & considered
        if stale:
            raise PropertyViolation(
                "P3", iteration, f"already-considered elements linger in O\\S: {sorted(stale)}"
            )
        trace.append(
            InstrumentedStep(
                element=u,
                s_before=s_before,
                coin=coin,
                o_after=O,
                removed=removed,
                x_u=1,
                y_u=y_u,
            )
        )

    seed = rng.master_seed if rng is not None else None
    result = _result(S, value, before, _counts(f, I), t0, seed, "instrumented-sample-greedy")
    return result, trace
