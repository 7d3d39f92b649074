"""Hard instance family: paired independence systems that are nearly
indistinguishable by independence queries.

The ground set is a disjoint union of h blocks H_1 .. H_h of km elements
each (n = h*k*m); element (i, j) maps to dense id (i-1)*km + (j-1), for
i in 1..h, j in 1..km.  Two modes share this universe:

- mode M:  S independent  iff  g(|S ∩ H_1|) + |S \\ H_1| <= m, where the
  gadget g charges the first ``threshold`` = 2km/h elements of H_1 at full
  price and the rest at 1/k each;
- mode M': S independent  iff  |S| <= m  (a uniform matroid).

``h`` must be a positive multiple of 2k (rejected otherwise, never rounded).
The threshold 2km/h need not be an integer.  Membership is decided in
integers, on both sides of g(x) + out <= m times k*h
(:meth:`GadgetParams.fits`); :func:`gadget_g` keeps the exact rational
value for reports, the increment check and the witness.  Its unit
increments always lie in [1/k, 1].
Sets of size at most m are independent in both modes and sets larger than
k*m in neither, so the modes can only disagree in between — and there only
on sets packing most of H_1, which uniform sampling almost never does.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import ElementSet, ExtensionState, GroundSet, IndependenceOracle, Rng, _count, _id

MODE_M = "M"
MODE_M_PRIME = "M'"


@dataclass(frozen=True)
class GadgetParams:
    """Validated (k, h, m) triple for the gadget; h must be a multiple of 2k."""

    k: int
    h: int
    m: int

    def __post_init__(self):
        for name in ("k", "h", "m"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        if self.h % (2 * self.k) != 0:
            raise ValueError(
                f"h must be a multiple of 2k; got h={self.h}, 2k={2 * self.k} "
                f"(rejected, not rounded)"
            )

    @property
    def threshold(self) -> Fraction:
        return Fraction(2 * self.k * self.m, self.h)

    @property
    def block_size(self) -> int:
        return self.k * self.m

    @property
    def n(self) -> int:
        return self.h * self.k * self.m

    def fits(self, x, out):
        """Whether g(x) + out <= m, with both sides times k*h: since k*h*t =
        2k^2m, k*h*g(x) is khx up to the threshold and 2k^2m + (hx - 2km)
        past it, which is khx - (k - 1)(hx - 2km).  ``x`` and ``out`` are ints,
        or int64 arrays answered elementwise."""
        k, h, m = self.k, self.h, self.m
        past = h * x - 2 * k * m
        return k * h * x - (k - 1) * past * (past > 0) + k * h * out <= k * h * m


def gadget_g(x: int, params: GadgetParams) -> Fraction:
    """Exact gadget value g(x) = min(x, t) + max((x - t)/k, 0), t = 2km/h."""
    t = params.threshold
    xf = Fraction(_count(x, "gadget argument"))
    return min(xf, t) + max((xf - t) / params.k, Fraction(0))


class HardInstance(IndependenceOracle):
    """Counted membership oracle for one mode of the paired family."""

    def __init__(self, k: int, h: int, m: int, mode: str):
        if mode not in (MODE_M, MODE_M_PRIME):
            raise ValueError(f"hard mode must be {MODE_M} or {MODE_M_PRIME}, got {mode!r}")
        params = GadgetParams(k, h, m)
        super().__init__(None, GroundSet(params.n), k=params.k)
        self.params = params
        self.mode = mode
        # whether x members in H_1 and out outside it fit; mode M' is the
        # gadget at k = 1, where g(x) = x, so |S| <= m
        self._fits = (params if mode == MODE_M else GadgetParams(1, 2, m)).fits

    def element_id(self, i: int, j: int) -> int:
        """Dense id of element (i, j), 1-based block i in 1..h, 1-based j in 1..km."""
        bs = self.params.block_size
        i, j = _id(i, "i"), _id(j, "j")
        if not (1 <= i <= self.params.h and 1 <= j <= bs):
            raise ValueError(f"(i={i}, j={j}) outside 1..{self.params.h} x 1..{bs}")
        return (i - 1) * bs + (j - 1)

    def block_of(self, e: int) -> int:
        """1-based block index of dense id e."""
        e = _id(e)
        if not 0 <= e < self.ground.n:
            raise ValueError(f"element {e} outside the instance universe of size {self.ground.n}")
        return e // self.params.block_size + 1

    def _accepts(self, S: ElementSet) -> bool:
        in_h1 = bisect.bisect_left(S.members, self.params.block_size)
        return self._fits(in_h1, len(S) - in_h1)

    def _accepts_masks(self, elems: Sequence[int], masks: np.ndarray) -> np.ndarray:
        size = np.bitwise_count(masks).astype(np.int64)
        h1 = (1 << bisect.bisect_left(elems, self.params.block_size)) - 1  # a prefix of elems
        in_h1 = np.bitwise_count(masks & h1).astype(np.int64)
        return self._fits(in_h1, size - in_h1)

    def extension_state(self) -> "_HardExtensions":
        return _HardExtensions(self)


class _HardExtensions(ExtensionState):
    """The counts of S inside and outside H_1, which decide membership in
    both modes: whether a candidate in H_1 fits, and whether one outside it
    does, is worked out once per added element, not once per candidate."""

    def __init__(self, inst: HardInstance):
        self.params = inst.params
        self._fits = inst._fits
        self.inside = 0
        self.outside = 0
        self._charge()

    def _charge(self) -> None:
        self.fits_in = self._fits(self.inside + 1, self.outside)
        self.fits_out = self._fits(self.inside, self.outside + 1)

    def add(self, u: int) -> None:
        if u < self.params.block_size:
            self.inside += 1
        else:
            self.outside += 1
        self._charge()

    def feasible(self, candidates: np.ndarray) -> np.ndarray:
        if self.fits_in == self.fits_out:
            return candidates if self.fits_in else candidates[:0]
        return candidates[(candidates < self.params.block_size) == self.fits_in]

    def fits(self, u: int) -> bool:
        return self.fits_in if u < self.params.block_size else self.fits_out


def witness_size(params: GadgetParams) -> Fraction:
    """Exact value of the packed-H_1 witness size: k(m - 2km/h) + 2km/h."""
    t = params.threshold
    return params.k * (params.m - t) + t


def large_witness(inst: HardInstance) -> ElementSet:
    """The all-in-H_1 independent set of size k(m - 2km/h) + 2km/h in mode M.

    This witness has at least m*k*(1 - 2k/h) elements — factor ~k more than
    anything mode M' admits.  Raises when the instance is mode M' or when the
    size formula is not an integer for these parameters (possible since the
    threshold may be fractional)."""
    if inst.mode != MODE_M:
        raise ValueError(f"large_witness requires a mode {MODE_M!r} instance, got {inst.mode!r}")
    p = inst.params
    s = witness_size(p)
    if s.denominator != 1:
        raise ValueError(
            f"witness size k(m - 2km/h) + 2km/h = {s} is not an integer for "
            f"(k={p.k}, h={p.h}, m={p.m})"
        )
    s_int = int(s)
    assert 0 <= s_int <= p.block_size
    assert s >= Fraction(p.m * p.k) * (1 - Fraction(2 * p.k, p.h))
    witness = ElementSet(inst.ground, range(s_int))
    assert inst.is_independent(witness), "witness failed the mode-M membership test"
    return witness


def overlap_probe(
    inst_m: HardInstance,
    inst_m_prime: HardInstance,
    set_size: int,
    trials: int,
    rng: Rng,
) -> float:
    """Fraction of uniform random ``set_size``-subsets whose independence
    labels differ between the two modes.

    Only sizes strictly between m and k*m are admitted: at size <= m both
    modes accept every set, above k*m neither accepts any, so probing there
    is a caller error.  Both labels depend only on (|S|, |S ∩ H_1|), so each
    sampled subset is labelled through the real oracles via its H_1 count
    (one canonical oracle call per distinct count)."""
    if inst_m.mode != MODE_M or inst_m_prime.mode != MODE_M_PRIME:
        raise ValueError(
            f"expected a (mode {MODE_M!r}, mode {MODE_M_PRIME!r}) pair, got "
            f"({inst_m.mode!r}, {inst_m_prime.mode!r})"
        )
    if inst_m.params != inst_m_prime.params:
        raise ValueError(
            f"instances disagree on parameters: {inst_m.params} vs {inst_m_prime.params}"
        )
    p = inst_m.params
    set_size = _id(set_size, "set_size")
    if set_size <= p.m:
        raise ValueError(
            f"set_size={set_size} <= m={p.m}: both modes label every such set "
            f"independent, the probe is vacuous there"
        )
    if set_size > p.k * p.m:
        raise ValueError(
            f"set_size={set_size} > k*m={p.k * p.m}: neither mode admits such sets, "
            f"the probe is vacuous there"
        )
    trials = _count(trials, "trials", 1)

    n = p.n
    bs = p.block_size
    outside = n - bs
    x_lo = max(0, set_size - outside)
    x_hi = min(set_size, bs)
    differs = {}
    for x in range(x_lo, x_hi + 1):
        canonical = list(range(x)) + list(range(bs, bs + set_size - x))
        s = ElementSet(inst_m.ground, canonical)
        differs[x] = inst_m.is_independent(s) != inst_m_prime.is_independent(s)

    gen = rng.generator
    hits = 0
    for _ in range(trials):
        sample = gen.choice(n, size=set_size, replace=False)
        x = int((sample < bs).sum())
        if differs[x]:
            hits += 1
    return hits / trials
