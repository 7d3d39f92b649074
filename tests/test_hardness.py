"""The two-mode hard constraint family and its statistical separation probe."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from submax import (
    MODE_M,
    MODE_M_PRIME,
    GadgetParams,
    HardInstance,
    Rng,
    gadget_g,
    large_witness,
    overlap_probe,
    verify_downward_closed,
    verify_k_extendible,
    verify_k_system,
    witness_size,
)


def _valid_triples(k_max=4, h_max=16, m_max=8):
    for k in range(1, k_max + 1):
        for h in range(2 * k, h_max + 1, 2 * k):
            for m in range(1, m_max + 1):
                yield k, h, m


# ---------------------------------------------------------------------------
# Parameters and the charging curve
# ---------------------------------------------------------------------------


def test_params_validation():
    GadgetParams(2, 8, 4)
    with pytest.raises(ValueError):
        GadgetParams(2, 7, 4)  # h not a multiple of 2k
    with pytest.raises(ValueError):
        GadgetParams(0, 8, 4)
    with pytest.raises(ValueError):
        GadgetParams(2, 8, 0)


def test_params_derived_quantities():
    p = GadgetParams(2, 8, 4)
    assert p.threshold == Fraction(2)
    assert p.block_size == 8
    assert p.n == 64


def test_gadget_curve_reference_values():
    p = GadgetParams(2, 8, 4)  # threshold 2
    assert gadget_g(0, p) == 0
    assert gadget_g(2, p) == 2
    assert gadget_g(3, p) == Fraction(5, 2)
    assert gadget_g(6, p) == 4


def test_gadget_fractional_threshold_is_supported():
    p = GadgetParams(2, 8, 1)
    assert p.threshold == Fraction(1, 2)
    assert gadget_g(1, p) == Fraction(1, 2) + Fraction(1, 4)


def test_gadget_increments_bounded_for_all_valid_params():
    for k, h, m in _valid_triples():
        p = GadgetParams(k, h, m)
        lo = Fraction(1, k)
        for x in range(p.block_size):
            step = gadget_g(x + 1, p) - gadget_g(x, p)
            assert lo <= step <= 1, (k, h, m, x)


def test_hard_instance_refuses_a_bad_mode_and_ids_outside_it():
    with pytest.raises(ValueError, match="^" + re.escape("hard mode must be M or M', got 'X'") + "$"):
        HardInstance(2, 8, 2, "X")
    inst = HardInstance(2, 8, 2, MODE_M)
    assert inst.block_of(0) == 1 and inst.block_of(inst.ground.n - 1) == 8
    for bad in (-1, inst.ground.n):
        with pytest.raises(ValueError, match=f"^element {bad} outside the instance universe of size 32$"):
            inst.block_of(bad)


def test_gadget_rejects_negative_argument():
    p = GadgetParams(1, 2, 2)
    with pytest.raises(ValueError):
        gadget_g(-1, p)


# ---------------------------------------------------------------------------
# The two oracles
# ---------------------------------------------------------------------------


def test_mode_m_prime_is_plain_cardinality():
    inst = HardInstance(2, 4, 2, MODE_M_PRIME)
    g = inst.ground
    assert inst.is_independent(g.set([0, 5]))
    assert not inst.is_independent(g.set([0, 5, 9]))


def test_mode_m_charges_first_block():
    inst = HardInstance(2, 8, 2, MODE_M)  # threshold 1, block_size 4
    g = inst.ground
    # inside the first block the charge grows at 1/k past the threshold
    assert inst.is_independent(g.set([0, 1, 2]))       # g(3) = 1 + 1 = 2 <= 2
    assert not inst.is_independent(g.set([0, 1, 2, 4]))  # 2 + 1 > 2
    assert inst.is_independent(g.set([4, 5]))          # outside: plain count
    assert not inst.is_independent(g.set([4, 5, 8]))


def test_integer_membership_agrees_with_the_rational_gadget():
    """Mode M decides g(x) + out <= m in integers, in the whole-set check and
    in the extension state; both equal the rational gadget_g formula for
    every k <= 4, h a multiple of 2k up to 12k, m <= 6, x <= km and
    out <= km + 1, fractional thresholds 2km/h included."""
    cases = fractional = 0
    for k in range(1, 5):
        for h in range(2 * k, 12 * k + 1, 2 * k):
            for m in range(1, 7):
                inst = HardInstance(k, h, m, MODE_M)
                p, g = inst.params, inst.ground
                bs = p.block_size
                fractional += p.threshold.denominator != 1
                for x in range(bs + 1):
                    state = inst.extension_state()
                    for _ in range(x):
                        state.add(0)
                    for out in range(bs + 2):
                        fits = gadget_g(x, p) + out <= m
                        assert p.fits(x, out) == fits, (k, h, m, x, out)
                        if out <= g.n - bs:  # h = 2 leaves only km elements outside H_1
                            S = g.set([*range(x), *range(bs, bs + out)])
                            assert inst._accepts(S) == fits, (k, h, m, x, out)
                        assert state.fits_in == (gadget_g(x + 1, p) + out <= m)
                        assert state.fits_out == (gadget_g(x, p) + out + 1 <= m)
                        state.add(bs)
                        cases += 1
    assert cases == 20448 and fractional > 0


def test_modes_agree_on_extremes():
    for k, h, m in ((2, 4, 2), (1, 2, 3), (2, 8, 1)):
        a = HardInstance(k, h, m, MODE_M)
        b = HardInstance(k, h, m, MODE_M_PRIME)
        g = a.ground
        small = g.set(list(range(m)))  # any m elements are independent in both
        assert a.is_independent(small) and b.is_independent(small)
        big = g.set(list(range(k * m + 1)))
        assert not a.is_independent(big) and not b.is_independent(big)


def test_element_id_layout():
    inst = HardInstance(2, 4, 2, MODE_M)
    assert inst.element_id(1, 1) == 0
    assert inst.element_id(1, 4) == 3
    assert inst.element_id(2, 1) == 4
    assert inst.block_of(0) == 1 and inst.block_of(4) == 2
    with pytest.raises(ValueError):
        inst.element_id(0, 1)
    with pytest.raises(ValueError):
        inst.element_id(1, 5)


# ---------------------------------------------------------------------------
# Structure: downward closure, extendibility, the witness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,h,m", [(2, 4, 2), (2, 8, 1), (1, 2, 3)])
@pytest.mark.parametrize("mode", [MODE_M, MODE_M_PRIME])
def test_truncated_structure(k, h, m, mode):
    inst = HardInstance(k, h, m, mode)
    elems = list(range(min(inst.ground.n, 12)))
    assert verify_downward_closed(inst, elems)
    assert verify_k_system(inst, elems) <= k + 1e-9
    assert verify_k_extendible(inst, elems, k)


def test_witness_size_formula():
    # k(m - T) + T with T = 2km/h
    assert witness_size(GadgetParams(1, 2, 3)) == 3  # T = m -> size m
    assert witness_size(GadgetParams(2, 8, 4)) == 6
    assert witness_size(GadgetParams(2, 8, 1)) == Fraction(3, 2)  # non-integral


def test_large_witness_contents():
    inst = HardInstance(2, 8, 4, MODE_M)
    w = large_witness(inst)
    assert len(w) == 6
    assert inst.is_independent(w)
    assert set(w) == set(range(6))  # a prefix of the first block


def test_large_witness_rank_gap():
    for k, h, m in _valid_triples():
        s = witness_size(GadgetParams(k, h, m))
        if s.denominator != 1:
            continue
        inst = HardInstance(k, h, m, MODE_M)
        w = large_witness(inst)
        assert inst.is_independent(w)
        assert len(w) == s
        assert Fraction(len(w)) >= Fraction(m * k) * (1 - Fraction(2 * k, h))


def test_large_witness_refusals():
    with pytest.raises(ValueError):
        large_witness(HardInstance(2, 8, 4, MODE_M_PRIME))  # wrong mode
    with pytest.raises(ValueError):
        large_witness(HardInstance(2, 8, 1, MODE_M))  # non-integral size


# ---------------------------------------------------------------------------
# Overlap probe
# ---------------------------------------------------------------------------


def test_overlap_probe_validation():
    a = HardInstance(2, 8, 2, MODE_M)
    b = HardInstance(2, 8, 2, MODE_M_PRIME)
    with pytest.raises(ValueError):
        overlap_probe(a, a, set_size=3, trials=10, rng=Rng(0, 0))  # same mode
    with pytest.raises(ValueError):
        overlap_probe(a, HardInstance(2, 8, 3, MODE_M_PRIME), set_size=3,
                      trials=10, rng=Rng(0, 0))  # mismatched params
    with pytest.raises(ValueError):
        overlap_probe(a, b, set_size=2, trials=10, rng=Rng(0, 0))  # <= m
    with pytest.raises(ValueError):
        overlap_probe(a, b, set_size=5, trials=10, rng=Rng(0, 0))  # > k*m
    with pytest.raises(ValueError):
        overlap_probe(a, b, set_size=3, trials=0, rng=Rng(0, 0))


def test_overlap_probe_detects_rare_disagreement():
    # (2,8,2): sets of size 3 disagree only when fully inside the first block
    a = HardInstance(2, 8, 2, MODE_M)
    b = HardInstance(2, 8, 2, MODE_M_PRIME)
    frac = overlap_probe(a, b, set_size=3, trials=20_000, rng=Rng(5, 0))
    # exact probability: C(4,3)/C(32,3) ~ 8.06e-4
    assert 0.0 <= frac <= 0.01
    assert frac > 0.0  # 20k trials make a zero count astronomically unlikely


def test_overlap_probe_deterministic_in_seed():
    a = HardInstance(2, 8, 2, MODE_M)
    b = HardInstance(2, 8, 2, MODE_M_PRIME)
    x = overlap_probe(a, b, set_size=3, trials=5000, rng=Rng(9, 2))
    y = overlap_probe(a, b, set_size=3, trials=5000, rng=Rng(9, 2))
    assert x == y
