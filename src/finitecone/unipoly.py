"""Dense univariate polynomials with degree-indexed coefficient vectors.

Coefficient vectors are stored lowest-degree first, trailing zeros trimmed,
so ``UniPoly((c0, c1, c2))`` is c0 + c1 x + c2 x^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0.0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class UniPoly:
    coeffs: tuple

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(tuple(float(c) for c in coeffs)))

    @classmethod
    def _of(cls, coeffs) -> "UniPoly":
        """From a tuple or list of floats, without __init__'s float() pass."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", _trim(coeffs))
        return poly

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1.0,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly._of(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly(())
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly._of(out)

    def scale(self, s: float) -> "UniPoly":
        s = float(s)
        return UniPoly._of([s * c for c in self.coeffs])

    def shift_up(self, k: int = 1) -> "UniPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return UniPoly._of((0.0,) * k + self.coeffs)

    def derivative(self) -> "UniPoly":
        return UniPoly._of([i * c for i, c in enumerate(self.coeffs) if i > 0])

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def rel_residual_against(self, reference: "UniPoly") -> float:
        """max |coeff| of self relative to the largest coefficient of reference."""
        ref = reference.max_abs()
        if ref == 0.0:
            return self.max_abs()
        return self.max_abs() / ref

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            if i == 0:
                parts.append(f"{c:g}")
            elif i == 1:
                parts.append(f"{c:g}*t")
            else:
                parts.append(f"{c:g}*t^{i}")
        return " + ".join(parts).replace("+ -", "- ")


def fsum_build(pairs, length: int) -> UniPoly:
    """Build a polynomial from (degree, value) contributions with exact
    per-coefficient summation; used by the Rodrigues expansions where terms
    alternate in sign."""
    buckets = [[] for _ in range(length)]
    for deg, val in pairs:
        buckets[deg].append(val)
    return UniPoly(tuple(math.fsum(b) for b in buckets))
