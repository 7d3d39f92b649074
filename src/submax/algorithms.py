"""Maximization algorithms with oracle-call accounting.

All solvers report oracle work as counter deltas over the run and record the
master seed that drove any randomized choice.  Randomized behaviour is fully
determined by the :class:`~submax.core.Rng` stream handed in: the same
(master_seed, stream_index) reproduces the same solution and counts.

Tie-breaking everywhere is "largest gain, then smallest element id", under
exact float comparison.  The lazy greedy variant returns the identical
solution to the naive scan for submodular objectives under that rule.  On
certified weighted coverage under a uniform, partition or genre constraint
it replays its heap by rank (two slice comparisons, stale gains kept in
place, only the pick leaving while all fit), with the same picks and counts.
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
    ElementSet,
    IndependenceOracle,
    PropertyViolation,
    Rng,
    SolveResult,
    ValueOracle,
    _check_cap,
    _count,
    _id_array,
    _independent_levels,
    _mask_set,
    _same_ground,
    _walk_order,
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

    ``y_u`` is 1 iff the element entered the solution without having been in
    the reference set O at the start of its iteration.
    """

    element: int
    s_before: ElementSet
    coin: bool
    o_after: ElementSet
    removed: tuple
    y_u: int


class _Run:
    """One algorithm run's accounting and, given a candidate pool, the working
    set of a greedy-family run.

    Built at the start of a run, it takes the clock and the entry counts of
    ``f`` and ``I`` (None for an unconstrained run); :meth:`result` reports
    the counts since.  Given ``pool``, the candidates as
    :func:`~submax.core._id_array` reads them, it also starts S = ∅, counts
    f(∅), and keeps S, f(S), the cached base, a gain state, an extension
    state and the :class:`GreedyStep` trace in step: :meth:`add` alone
    advances them.
    """

    def __init__(self, f: ValueOracle, I: Optional[IndependenceOracle] = None,
                 pool: Optional[np.ndarray] = None):
        if I is not None:
            _same_ground(f.ground, I.ground, "the independence system")
        self.f, self.I = f, I
        self._t0 = time.perf_counter()
        self._before = self._counts()
        if pool is not None:
            self.pool = pool
            self.S = f.ground.empty()
            self.value = f.value(self.S)
            self.state = f.gain_state()
            self.ext = I.extension_state()
            self.trace: list[GreedyStep] = []

    def _counts(self) -> tuple[int, int, int]:
        I = self.I
        return self.f.eval_count, self.f.marginal_count, I.membership_count if I is not None else 0

    def scores(self) -> tuple[np.ndarray, np.ndarray]:
        """The pool's feasible candidates at S, which stay in the pool (the
        rest leave it for good: supersets of dependent sets stay dependent),
        and their gains.  The states hold S and are asked directly, counted as
        :meth:`IndependenceOracle.extensions` and :meth:`ValueOracle.gains`
        count, without their input checks: the pool was checked once, a
        picked id leaves it, so none is in S, and f(S) is the cached base."""
        self.I.membership_count += len(self.pool)
        pool = self.pool = self.ext.feasible(self.pool)
        if not pool.size:
            return pool, np.empty(0)
        return pool, self.f._counted_gains(self.state, self.S, self.value, pool)

    def best(self) -> Optional[tuple[int, float]]:
        """One naive greedy round at S: the feasible candidate of strictly
        positive maximal gain, removed from the pool, and its gain; None when
        there is none.  The first maximum of :meth:`scores` wins, so ties go
        to the smallest id of the ascending pool.
        """
        pool, gains = self.scores()
        if not pool.size:
            return None
        i = int(np.argmax(gains))
        if gains[i] <= 0.0:
            return None
        self.pool = np.concatenate((pool[:i], pool[i + 1:]))
        return int(pool[i]), float(gains[i])

    def add(self, u: int, gain: float) -> None:
        """Move S to S + u, of marginal gain ``gain``, and commit it as the base."""
        self.S = self.S.with_element(u)
        self.value += gain
        self.f.set_base(self.S, self.value)
        self.state.add(u)
        self.ext.add(u)
        self.trace.append(GreedyStep(u, gain, self.value))

    def result(self, name: str, rng: Optional[Rng] = None,
               solution: Optional[ElementSet] = None, value: Optional[float] = None) -> SolveResult:
        """The run's :class:`SolveResult`: S and f(S) unless given, and the
        master seed of ``rng``, the stream that drove the run's random
        choices, if any."""
        after = self._counts()
        return SolveResult(
            solution=self.S if solution is None else solution,
            value=self.value if value is None else value,
            f_evals=after[0] - self._before[0],
            marginal_evals=after[1] - self._before[1],
            independence_checks=after[2] - self._before[2],
            wall_ms=(time.perf_counter() - self._t0) * 1000.0,
            seed=rng.master_seed if rng is not None else None,
            algorithm_name=name,
        )


# ---------------------------------------------------------------------------
# Greedy (naive scan and lazy heap)
# ---------------------------------------------------------------------------


def greedy(
    f: ValueOracle,
    I: IndependenceOracle,
    *,
    candidates: Optional[Iterable[int]] = None,
    lazy: bool = False,
) -> tuple[SolveResult, list[GreedyStep]]:
    """Feasibility-respecting greedy: repeatedly add the feasible element of
    strictly positive maximal marginal gain (ties to the smallest id); stop
    when none remains.

    ``candidates`` restricts the scan to those elements (default: all of
    ``f.ground``); an id outside the ground set is a ValueError.  Elements
    whose addition is infeasible are dropped permanently (supersets of
    dependent sets stay dependent).  ``lazy=True`` uses a stale-gain max
    heap — valid for submodular objectives, where stale gains upper-bound
    fresh ones — and returns the identical solution with fewer marginal
    evaluations.  Certified weighted coverage under a uniform, partition or
    genre constraint replays the heap by rank (:func:`_replay`), with its
    picks and counts; on the heap, a run under such a constraint ends, and
    counts the drops left, as soon as nothing fits.
    """
    run = _Run(f, I, _id_array(f.ground, candidates))
    if lazy:
        pool, gains = run.scores()
        ext, state, picks = run.ext, run.state, 0  # picks: the stamp of gains scored at S
        if state.vector is not None and ext.open is not None:
            pool, gains, picks = _replay(run, pool, gains)
        heap = [(-g, u, 0) for g, u in zip(gains.tolist(), pool.tolist())]  # stale once picks > 0
        heapq.heapify(heap)
        pop, pushpop = heapq.heappop, heapq.heappushpop
        top = pop(heap) if heap else None
        while top is not None:
            # a popped id is an int of the pool, outside S: the states are asked
            # directly, counted and sign-checked as I.extensions and f.gains on [u]
            neg_gain, u, stamp = top
            I.membership_count += 1
            if not ext.fits(u):
                top = pop(heap) if heap else None  # drop permanently
            elif stamp != picks:
                f.marginal_count += 1
                f.eval_count += 1
                g = state.gain(u)
                if not run.value + g >= 0.0:
                    f._negative(run.value + g, run.S.with_element(u))
                # re-score at S; the (gain, id, stamp) keys are unique, so the
                # pop order is that of a push and then a pop
                top = pushpop(heap, (-g, u, picks))
            elif neg_gain >= 0.0:
                break
            else:
                run.add(u, -neg_gain)
                picks += 1
                if ext.open is not None and not ext.open.any():
                    I.membership_count += len(heap)  # each entry left is popped and dropped
                    break
                top = pop(heap) if heap else None
    else:
        while (pick := run.best()) is not None:
            run.add(*pick)
    return run.result("lazy-greedy" if lazy else "greedy"), run.trace


def _replay(run: _Run, pool: np.ndarray, stale: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Lazy greedy's heap rounds replayed by rank, one vector pass each, on
    a gain state with a current ``vector`` and an extension state with an
    ``open`` mask: the heap's picks, trace and counts.

    ``pool`` (ascending ids) and ``stale``, the replay's copy, are the
    heap's entries and the gains they were last scored at.  w, at index i,
    is the first maximum of the fresh gains g over the entries that fit.
    The heap pops each entry whose stale key (-gain, id) ranks before w's
    fresh key, ``stale[:i] >= g`` and ``stale[i:] > g``, and no other
    (stale gains bound fresh ones bit for bit): one check each, and one
    marginal, updating ``stale`` in place, for each that fits.  After the
    first round w is among them.  Its fresh pop is one check more, and
    picks it if its gain is > 0.  w leaves the pool, and so do the popped
    entries that do not fit: while all fit, w alone, by slicing.

    Returns the heap's entries left, their stale gains and the pick count:
    none once the run is over, or all of them when a fresh gain fails the
    sign check, so that the heap raises at the first offender it pops."""
    f, I, vector, fits = run.f, run.I, run.state.vector, run.ext.open
    stale, mask, picks = stale.copy(), np.empty(pool.size, dtype=bool), 0
    while pool.size:
        ok = fits[pool]
        fresh = vector[pool]
        live = fresh if (every := bool(ok.all())) else fresh[ok]
        if not live.size:  # each entry is popped and dropped
            I.membership_count += pool.size
            break
        if not run.value + live.min() >= 0.0:  # NaN fails too
            return pool, stale, picks
        i = int(live.argmax()) if every else int(np.flatnonzero(ok)[live.argmax()])
        u, g, popped = int(pool[i]), fresh[i], mask[:pool.size]
        np.greater_equal(stale[:i], g, out=popped[:i])  # ids below u win a tie
        np.greater(stale[i:], g, out=popped[i:])
        popped[i] = picks > 0  # w's stale entry, scored at an earlier S
        checked = int(np.count_nonzero(popped))
        rescored = checked if every else int(np.count_nonzero(popped & ok))
        I.membership_count += checked + 1
        f.marginal_count += rescored
        f.eval_count += rescored
        if not g > 0.0:
            break
        run.add(u, float(g))
        picks += 1
        np.copyto(stale, fresh, where=popped)
        if every:  # only w leaves
            pool, stale = np.concatenate((pool[:i], pool[i + 1:])), np.concatenate((stale[:i], stale[i + 1:]))
        else:
            keep = ok | ~popped
            keep[i] = False
            pool, stale = pool[keep], stale[keep]
    return pool[:0], stale[:0], picks


# ---------------------------------------------------------------------------
# Unconstrained maximization (double greedy)
# ---------------------------------------------------------------------------


def _double_greedy(f: ValueOracle, U: ElementSet, rng: Optional[Rng], name: str) -> SolveResult:
    """Double greedy over the subsets of U, weighing a = f(X + u) - f(X)
    against b = f(Y - u) - f(Y) on two gain states: ``up`` at the growing set
    X, ``down`` at the shrinking set Y.  The deterministic rule (keep u when
    a >= b) applies exactly when ``rng`` is None.

    Counts and the cached base it leaves are those of asking
    :meth:`ValueOracle.value` for X + u and then Y - u at every element, which
    leaves Y - u cached: at the last element X + u is Y, so it is served from
    the cache when the step before dropped its element.  No marginal is
    counted, and no sign checked: f(Y - u) reached from f(Y) by a loss can
    round below a true 0 (Y - u empty, say); the states of an oracle without
    an objective check each value they evaluate.  The value is f(X)
    accumulated from the gains."""
    _same_ground(f.ground, U.universe, U)
    run = _Run(f)
    ground = U.universe
    fx = f.value(ground.empty())
    f.value(U)  # f(Y), counted and cached
    up, down = f.gain_state(), f.gain_state()
    for u in U.members:
        down.add(u)
    kept: list[int] = []
    y_cached = True  # f(Y) is the cached base
    last = U.members[-1] if U.members else None
    for u in U.members:
        f.eval_count += 1 if y_cached and u == last else 2
        a, b = up.gain(u), -down.loss(u)
        if rng is None:
            keep = a >= b
        else:
            a_pos = max(a, 0.0)
            b_pos = max(b, 0.0)
            if a_pos + b_pos == 0.0:
                keep = True
            else:
                keep = bernoulli(rng, a_pos / (a_pos + b_pos))
        fx_before = fx
        if keep:
            kept.append(u)
            up.add(u)
            fx += a
        else:
            down.remove(u)
        y_cached = not keep
    X = ground.set(kept)
    if last is not None:
        # Y - u at the last element is X before that step
        f.set_base(X.without_element(last), fx_before)
    return run.result(name, rng, X, fx)


def unconstrained_max_det(f: ValueOracle, U: ElementSet) -> SolveResult:
    """Deterministic double greedy over the subsets of U (1/3 of the
    unconstrained optimum for non-negative submodular f).

    Scans elements in ascending id, comparing the gain of adding u to the
    growing set against the gain of deleting u from the shrinking set; keeps
    u when the former is at least the latter.
    """
    return _double_greedy(f, U, None, "double-greedy-det")


def unconstrained_max_rand(f: ValueOracle, U: ElementSet, rng: Rng) -> SolveResult:
    """Randomized double greedy (1/2 of the unconstrained optimum in
    expectation): keeps u with probability max(a,0)/(max(a,0)+max(b,0)),
    keeping outright when both clamped gains are zero."""
    return _double_greedy(f, U, rng, "double-greedy-rand")


# ---------------------------------------------------------------------------
# Repeated greedy
# ---------------------------------------------------------------------------


def repeated_greedy_bound(k: int, ell: int, alpha: float) -> float:
    """Worst-case approximation factor of ``repeated_greedy`` with ``ell``
    rounds on a k-system, when the unconstrained subroutine is an
    alpha-approximation (alpha=3 deterministic, alpha=2 randomized)."""
    k, ell = _count(k, "k", 1), _count(ell, "ell", 1)
    denom = (k + 1) * ell + alpha * ell * (ell - 1) / 2.0
    return (ell - 1) / denom


def default_rounds(k: int) -> int:
    """The auto round count: ceil(sqrt(k))."""
    return math.isqrt(_count(k, "k", 1) - 1) + 1  # == ceil(sqrt(k)) for integer k >= 1


def repeated_greedy(
    f: ValueOracle,
    I: IndependenceOracle,
    *,
    ell: int | str = "auto",
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
    ceil(sqrt(k)).  The subroutine is randomized double greedy (alpha=2)
    driven by ``rng`` when one is given, else deterministic (alpha=3).
    """
    rounds = default_rounds(I.k) if ell == "auto" else _count(ell, "ell", 1)

    run = _Run(f, I)
    remaining = np.ones(f.ground.n, dtype=bool)  # not picked by an earlier round
    best_set: Optional[ElementSet] = None
    best_value = -1.0
    for _ in range(rounds):
        res_i, _trace = greedy(f, I, candidates=np.flatnonzero(remaining), lazy=lazy)
        if rng is None:
            res_u = unconstrained_max_det(f, res_i.solution)
        else:
            res_u = unconstrained_max_rand(f, res_i.solution, rng)
        for cand in (res_i, res_u):
            if best_set is None or cand.value > best_value:
                best_set, best_value = cand.solution, cand.value
        remaining[list(res_i.solution.members)] = False
    name = "repeated-greedy-det" if rng is None else "repeated-greedy-rand"
    return run.result(name, rng, best_set, best_value)


# ---------------------------------------------------------------------------
# Subsampled greedy
# ---------------------------------------------------------------------------


def _sampling_probability(I: IndependenceOracle, p: Optional[float]) -> float:
    """``p`` as a float, 1/(k+1) when None; refused outside (0, 1]."""
    p = float(1.0 / (I.k + 1.0) if p is None else p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability must lie in (0, 1], got {p}")
    return p


def sample_greedy(
    f: ValueOracle,
    I: IndependenceOracle,
    *,
    rng: Rng,
    p: Optional[float] = None,
    lazy: bool = False,
) -> SolveResult:
    """Keep each ground element independently with probability p (default
    1/(k+1) for the constraint's declared k), then run greedy on the sample.

    One Bernoulli draw per ground element, taken upfront in ascending id
    order as one array of ``rng`` doubles, the same ones n scalar
    ``rng.random()`` calls would give — the fixed coin-usage discipline that
    paired-seed equivalence tests rely on.  p must lie in (0, 1]; p=1
    reproduces plain greedy exactly.
    """
    p = _sampling_probability(I, p)
    run = _Run(f, I)
    kept = np.flatnonzero(rng.generator.random(f.ground.n) < p)
    res, _trace = greedy(f, I, candidates=kept, lazy=lazy)
    return run.result("sample-greedy", rng, res.solution, res.value)


def sample_greedy_linear(
    f: ValueOracle,
    I: IndependenceOracle,
    *,
    rng: Rng,
    lazy: bool = False,
) -> SolveResult:
    """The linear-objective variant: :func:`sample_greedy` with sampling
    probability 1/k instead of 1/(k+1).  Only valid for modular objectives:
    the oracle must be flagged ``modular``."""
    if not f.modular:
        raise ValueError("sample_greedy_linear requires an oracle flagged modular=True")
    if I.k < 1:
        raise ValueError(f"declared k must be >= 1, got {I.k}")
    res = sample_greedy(f, I, rng=rng, p=1.0 / I.k, lazy=lazy)
    return replace(res, algorithm_name="sample-greedy-linear")


# ---------------------------------------------------------------------------
# Exhaustive optimum
# ---------------------------------------------------------------------------


def brute_force_opt(f: ValueOracle, I: IndependenceOracle) -> SolveResult:
    """Exact optimum over all independent subsets of ``f.ground``: f of
    every set of :func:`~submax.core._independent_levels`, the independent
    sets a depth-first search reaches, one size at a time, never extending a
    dependent set; ties go to the first set in the search's pre-order.
    Refuses more than 22 elements.

    f is asked in that pre-order (:func:`~submax.core._walk_order`), which
    keeps the ties and the cached base of the recursive search, in one
    :meth:`~submax.core.ValueOracle.values_masks` batch whose first maximum
    wins; the sets are held as one int64 array of masks, never as one
    object each, and the levels only until they are joined."""
    ground = f.ground
    _check_cap("brute_force_opt", ground.n)
    run = _Run(f, I)
    elems, n = list(ground.elements), ground.n
    masks = np.concatenate(list(_independent_levels(I, elems)))
    # the keys are distinct; a stable sort faults in less of numpy's code than
    # the default one (0.12 against 0.38 MiB of peak RSS in a fresh process)
    masks = masks[np.argsort(_walk_order(masks, n), kind="stable")]
    values = f.values_masks(elems, masks)
    i = int(values.argmax())  # f >= 0, never NaN: the first maximum in walk order
    return run.result("brute-force", None, _mask_set(ground, elems, int(masks[i])), float(values[i]))


# ---------------------------------------------------------------------------
# Instrumented diagnostic run
# ---------------------------------------------------------------------------


def instrumented_sample_greedy(
    f: ValueOracle,
    I: IndependenceOracle,
    opt: ElementSet,
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
    if coin_source is None and rng is None:
        raise ValueError("instrumented run needs an rng or an explicit coin_source")
    p = _sampling_probability(I, p)
    if not I.is_independent(opt):
        raise ValueError("reference set opt must be independent")
    k = I.k
    run = _Run(f, I, _id_array(f.ground))  # S, its states and f(S) move on heads only
    O = opt
    considered: set[int] = set()
    trace: list[InstrumentedStep] = []

    while (pick := run.best()) is not None:
        u, gain = pick
        iteration = len(trace) + 1
        s_before = run.S
        was_in_o = u in O
        coin = coin_source(u) if coin_source is not None else bernoulli(rng, p)
        if coin:
            run.add(u, gain)
            O_aug = O.with_element(u)
            removable = O_aug.difference(run.S).members  # ascending ids
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
        if not run.S.issubset(O):
            raise PropertyViolation("P2", iteration, "S is no longer contained in O")
        stale = (set(O.members) - set(run.S.members)) & considered
        if stale:
            raise PropertyViolation(
                "P3", iteration, f"already-considered elements linger in O\\S: {sorted(stale)}"
            )
        trace.append(InstrumentedStep(element=u, s_before=s_before, coin=coin, o_after=O,
                                      removed=removed, y_u=y_u))

    return run.result("instrumented-sample-greedy", rng), trace
