"""Scalar kernel checks: Gamma and Pochhammer."""

import math

import numpy as np
import pytest

from finitecone.errors import DomainError, PoleError
from finitecone.scalars import (
    factorial_real,
    gamma_fn,
    gamma_ratio,
    pochhammer,
)


def test_gamma_basic_values():
    assert gamma_fn(1.0) == 1.0
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-15
    assert gamma_fn(6.0) == 120.0


def test_gamma_poles():
    for x in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleError):
            gamma_fn(x)


def test_gamma_overflow():
    with pytest.raises(OverflowError):
        gamma_fn(200.0)


def test_gamma_functional_equation():
    # Gamma(x+1) = x Gamma(x) to 1e-12 relative on [0.5, 50]
    for x in np.linspace(0.5, 50.0, 97):
        lhs = gamma_fn(x + 1.0)
        rhs = x * gamma_fn(x)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_gamma_accuracy_against_lgamma():
    # relative accuracy across the required range, using the log form as a
    # second route
    for x in np.linspace(0.5, 170.0, 340):
        v = gamma_fn(float(x))
        assert abs(math.log(v) - math.lgamma(float(x))) <= 1e-13 * max(1.0, abs(math.lgamma(float(x))))


def test_gamma_ratio_matches_direct():
    val = gamma_ratio([10.0, 3.5], [8.0, 4.5])
    direct = gamma_fn(10.0) * gamma_fn(3.5) / (gamma_fn(8.0) * gamma_fn(4.5))
    assert abs(val - direct) < 1e-13 * abs(direct)
    with pytest.raises(DomainError):
        gamma_ratio([-1.0], [2.0])


def test_pochhammer_values():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(3.0, 2) == 12.0
    assert pochhammer(-2.0, 3) == 0.0


def test_pochhammer_recurrence_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = float(rng.uniform(-5.0, 5.0))
        m = int(rng.integers(0, 21))
        assert pochhammer(a, m + 1) == pytest.approx(pochhammer(a, m) * (a + m), rel=1e-14, abs=1e-300)


def test_factorial_real():
    assert factorial_real(5.0) == 120.0
    assert abs(factorial_real(0.5) - gamma_fn(1.5)) < 1e-16
