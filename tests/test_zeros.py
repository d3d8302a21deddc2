import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from pcurves.errors import ValidationError
from pcurves.flow import SampledLoop, loop_winding
from pcurves.zeros import BundleData, doubling_check, zero_count


def circle_samples(winding, n=64, radius=1.0, phase=0.0):
    return tuple(
        radius * cmath.exp(2j * math.pi * (winding * j / n) + 1j * phase)
        for j in range(n)
    )


def test_loop_winding_basic():
    assert loop_winding(SampledLoop(circle_samples(1))) == 1
    assert loop_winding(SampledLoop(circle_samples(-2))) == -2
    assert loop_winding(SampledLoop(tuple(1.0 + 0j for _ in range(16)))) == 0


def test_loop_winding_requires_fine_sampling():
    with pytest.raises(ValidationError):
        loop_winding(SampledLoop(circle_samples(8, n=16)))


def test_loop_near_zero_rejected():
    samples = list(circle_samples(1))
    samples[3] = 1e-12 + 0j
    with pytest.raises(ValidationError):
        SampledLoop(tuple(samples))


def test_loop_winding_product_and_conjugate():
    rng = np.random.default_rng(8)
    for _ in range(30):
        w1, w2 = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        n = 256
        t = np.arange(n) / n
        # Random nonvanishing trigonometric loops around known windings.
        a = np.exp(2j * np.pi * w1 * t) * (1.2 + 0.3 * np.cos(2 * np.pi * t))
        b = np.exp(2j * np.pi * w2 * t) * (1.1 + 0.2 * np.sin(2 * np.pi * t))
        la, lb = SampledLoop(tuple(a)), SampledLoop(tuple(b))
        assert loop_winding(la) == w1
        assert loop_winding(lb) == w2
        assert loop_winding(SampledLoop(tuple(a * b))) == w1 + w2
        assert loop_winding(SampledLoop(tuple(np.conj(a)))) == -w1


def test_zero_count_formula():
    # Closed surface: Z = c1 (the Euler number when the bundle is TS-like).
    assert zero_count(BundleData(c1=3, maslov=0, boundary_winding=0,
                                 has_maslov_boundary=False)) == 3
    assert zero_count(BundleData(c1=0, maslov=0, boundary_winding=0)) == 0
    assert zero_count(BundleData(c1=0, maslov=3, boundary_winding=0)) == Fraction(3, 2)


def test_zero_count_half_integrality():
    rng = np.random.default_rng(9)
    for _ in range(100):
        b = BundleData(
            c1=int(rng.integers(-5, 6)),
            maslov=int(rng.integers(-5, 6)),
            boundary_winding=int(rng.integers(-3, 4)),
        )
        z = zero_count(b)
        assert (2 * z).denominator == 1
        if b.maslov % 2 == 0:
            assert z.denominator == 1


def test_doubling_identity():
    z_d, ok = doubling_check(BundleData(c1=1, maslov=2, boundary_winding=0))
    assert ok and z_d == 4
    # Odd Maslov: half-integral count doubles to an integer.
    z_d, ok = doubling_check(BundleData(c1=0, maslov=3, boundary_winding=0))
    assert ok and z_d == 3
    rng = np.random.default_rng(10)
    for _ in range(200):
        b = BundleData(
            c1=int(rng.integers(-6, 7)),
            maslov=int(rng.integers(-6, 7)),
            boundary_winding=int(rng.integers(-4, 5)),
        )
        z_d, ok = doubling_check(b)
        assert ok
        assert z_d == 2 * zero_count(b)
        assert z_d.denominator == 1


def test_doubling_needs_boundary():
    with pytest.raises(ValidationError):
        doubling_check(BundleData(c1=1, maslov=0, boundary_winding=0,
                                  has_maslov_boundary=False))
