"""Detection model of residue codes (mod 3 / mod 15)."""

import pytest

from repro.faults.models import FaultModel
from repro.hardening.selective import Technique, detection_probability

RESIDUES = (Technique.RESIDUE_MOD3, Technique.RESIDUE_MOD15)


def test_every_single_bit_flip_detected_mod3_and_mod15():
    # Powers of two are never divisible by 3 or 15: Single is always
    # caught (the paper's argument for residue over ECC).  The share is
    # counted over all 64 bit positions, so 1.0 means no bit escapes.
    for technique in RESIDUES:
        assert detection_probability(technique, FaultModel.SINGLE) == 1.0, technique


def test_double_flip_sometimes_escapes_mod3():
    # 2^1 + 2^0 = 3 escapes mod 3, so some double flips go unseen.
    assert detection_probability(Technique.RESIDUE_MOD3, FaultModel.DOUBLE) < 1.0


def test_detection_probability_single_is_one():
    assert detection_probability(Technique.RESIDUE_MOD3, "single") == 1.0
    assert detection_probability(Technique.RESIDUE_MOD15, "single") == 1.0


def test_detection_probability_double_below_one():
    # mod 3: 2^b cycles (1, 2), so exactly half of the +/- pairings of
    # two bits change the value by a multiple of 3 and escape.
    p3 = detection_probability(Technique.RESIDUE_MOD3, "double")
    p15 = detection_probability(Technique.RESIDUE_MOD15, "double")
    assert p3 == pytest.approx(0.5)
    assert 0.5 < p15 < 1.0
    assert p15 > p3  # larger modulus catches more


def test_detection_probability_many_bits_asymptotic():
    # Random and Zero change many bits at once: the delta is a multiple
    # of the modulus about once in ``modulus`` tries.
    assert detection_probability(Technique.RESIDUE_MOD3, "random") == pytest.approx(2 / 3)
    assert detection_probability(Technique.RESIDUE_MOD15, "random") == pytest.approx(14 / 15)
    assert detection_probability(Technique.RESIDUE_MOD15, "zero") == pytest.approx(14 / 15)
