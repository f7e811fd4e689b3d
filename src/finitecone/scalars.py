"""Scalar special-function kernel: Gamma and Pochhammer.

Everything here is pure and thread-safe.  Gamma uses the platform libm
(a Lanczos-class implementation with reflection), which meets the 1e-13
relative-accuracy target on [0.5, 170] with no external dependency.
Ratios of large Gamma values are formed in log space to stay in range.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and float(x) == float(round(x))


def gamma_fn(x: float) -> float:
    """Gamma function.

    Raises PoleError at the non-positive integers and OverflowError when the
    result exceeds the double range (x > ~171.6).
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"Gamma pole at x = {x}")
    return math.gamma(x)


def lgamma_fn(x: float) -> float:
    """log |Gamma(x)|; same pole set as gamma_fn."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"Gamma pole at x = {x}")
    return math.lgamma(x)


def gamma_ratio(numerators, denominators) -> float:
    """exp(sum log Gamma(numerators) - sum log Gamma(denominators)).

    All arguments must be positive; used for norm formulas whose individual
    Gamma factors overflow while the ratio stays moderate.
    """
    acc = 0.0
    for a in numerators:
        if a <= 0:
            raise DomainError(f"gamma_ratio needs positive arguments, got {a}")
        acc += math.lgamma(a)
    for b in denominators:
        if b <= 0:
            raise DomainError(f"gamma_ratio needs positive arguments, got {b}")
        acc -= math.lgamma(b)
    return math.exp(acc)


def factorial_real(x: float) -> float:
    """x! read as Gamma(x+1); the only consistent reading for real x."""
    return gamma_fn(x + 1.0)


def pochhammer(a: float, m: int) -> float:
    """Rising factorial (a)_m = a (a+1) ... (a+m-1), with (a)_0 = 1.

    Direct product: exact for small integer inputs, and m never exceeds a
    few dozen here.
    """
    if m < 0:
        raise DomainError("pochhammer needs m >= 0")
    out = 1.0
    for j in range(m):
        out *= a + j
    return out
