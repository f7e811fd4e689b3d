"""Orthogonal bases on the unit ball for the weight (1-|x|^2)^(mu-1/2).

Elements combine a Jacobi polynomial in 2|x|^2 - 1 with a solid harmonic;
for d = 1 the basis is the Gegenbauer family, which is the convention the
cone samples use.  Norms come in closed form, so the quadrature Gram check
stays an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, UnsupportedDimension, ValidityError
from .harmonics import harmonic_basis, surface_area
from .polyalg import MultiPoly, homogenize
from .scalars import gamma_ratio
from .univariate import (
    coeffs_gegenbauer, coeffs_jacobi, eval_gegenbauer, eval_jacobi, norm_gegenbauer, norm_jacobi,
)

CONVENTIONS = ("orthonormal", "paper-gegenbauer")


def ball_normalization(d: int, mu: float) -> float:
    """Constant making the weighted ball integral of 1 equal to 1."""
    if mu <= -0.5:
        raise ValidityError("mu > -1/2", f"mu = {mu}")
    return gamma_ratio([mu + (d + 1) / 2.0], [mu + 0.5]) / math.pi ** (d / 2.0)


@dataclass(frozen=True)
class BallRadial:
    """The radial factor of the ball elements with Jacobi degree j and
    harmonic degree k: P_j^(mu-1/2, k+(d-2)/2)(2|x|^2 - 1), or for d = 1
    the Gegenbauer polynomial C_j^mu(x)."""

    d: int
    mu: float
    j: int
    k: int

    @property
    def ab(self) -> tuple:
        """The Jacobi parameters (mu - 1/2, k + (d - 2)/2)."""
        return self.mu - 0.5, self.k + (self.d - 2) / 2.0

    @cached_property
    def poly(self) -> MultiPoly:
        """The factor as a polynomial in x, built on first read."""
        if self.d == 1:
            return MultiPoly.from_unipoly_x(coeffs_gegenbauer(self.j, self.mu), 1)
        return _compose_radial(coeffs_jacobi(self.j, *self.ab), self.d)

    def values(self, r):
        """R(r) with P(r y) = scale * R(r) * Y(y) on |y| = 1: the Jacobi
        factor by its recurrence times r^k (the harmonic's homogeneity),
        or C_j^mu(r) for d = 1, where Y is 1 or x by the parity of j."""
        if self.d == 1:
            return eval_gegenbauer(self.j, self.mu, r)
        return eval_jacobi(self.j, *self.ab, 2 * r * r - 1) * r**self.k


@dataclass(frozen=True)
class BallElement:
    """scale * radial * harmonic (for d = 1, scale * radial); its poly is
    multiplied out on first read, and the Gram reads only the factors."""

    degree: int
    label: str
    sq_norm: float  # under the normalized inner product; 1 for orthonormal
    radial: BallRadial
    l: int  # 1-based index of the harmonic among those of degree k
    harmonic: MultiPoly
    scale: float

    @cached_property
    def poly(self) -> MultiPoly:
        radial = self.radial.poly
        return (radial if self.radial.d == 1 else radial * self.harmonic).scale(self.scale)

    @cached_property
    def homogeneous(self) -> MultiPoly:
        """t^m P(x/t), m the degree."""
        return homogenize(self.poly, self.degree)


@dataclass(frozen=True)
class BallBasis:
    d: int
    mu: float
    n: int
    convention: str
    elements: tuple


def _compose_radial(coeffs, d: int) -> MultiPoly:
    """Jacobi radial factor composed symbolically with 2|x|^2 - 1."""
    s = MultiPoly.const(d, -1.0)
    for i in range(d):
        xi = MultiPoly.var_x(d, i)
        s = s + (xi * xi).scale(2.0)
    out = MultiPoly.zero(d)
    power = MultiPoly.const(d, 1.0)
    for k, c in enumerate(coeffs.coeffs):
        if k > 0:
            power = power * s
        if c != 0.0:
            out = out + power.scale(c)
    return out


def ball_basis(d: int, mu: float, n: int, convention: str = "orthonormal") -> BallBasis:
    """Orthogonal basis of the degree-n orthogonal polynomials on the ball.

    The orthonormal convention rescales every element by its closed-form
    norm; the paper-gegenbauer convention (d = 1 only) keeps the raw
    Gegenbauer polynomials and reports their norms instead.
    """
    if d not in (1, 2, 3):
        raise UnsupportedDimension(f"d = {d}, supported: (1, 2, 3)")
    if mu <= -0.5:
        raise ValidityError("mu > -1/2", f"mu = {mu}")
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}")
    if convention == "paper-gegenbauer" and d != 1:
        raise DomainError("paper-gegenbauer convention applies to d = 1 only")
    elements = []
    if d == 1:
        sq = ball_normalization(1, mu) * norm_gegenbauer(n, mu)  # rejects mu = 0 for n >= 1
        harm = harmonic_basis(1, n % 2).elements[0]
        radial = BallRadial(1, mu, n, n % 2)
        if convention == "orthonormal":
            elements.append(BallElement(n, f"C{n}", 1.0, radial, 1, harm, 1.0 / math.sqrt(sq)))
        else:
            elements.append(BallElement(n, f"C{n}", sq, radial, 1, harm, 1.0))
    else:
        b_mu = ball_normalization(d, mu)
        omega = surface_area(d)
        for j in range(n // 2 + 1):
            k = n - 2 * j
            radial = BallRadial(d, mu, j, k)
            a, b = radial.ab
            # norm of jacobi(2r^2-1) x harmonic under the normalized measure
            c_ab = gamma_ratio([a + b + 2], [a + 1, b + 1])
            sq = b_mu * omega * norm_jacobi(j, a, b) / (2.0 * c_ab)
            scale = 1.0 / math.sqrt(sq)
            for l, harm in enumerate(harmonic_basis(d, k).elements, start=1):
                elements.append(BallElement(n, f"j{j}Y{k},{l}", 1.0, radial, l, harm, scale))
    basis = BallBasis(d, mu, n, convention, tuple(elements))
    expected = math.comb(n + d - 1, n)
    if len(elements) != expected:
        raise DomainError(
            f"internal: built {len(elements)} elements, expected {expected}"
        )
    return basis


def ball_dimension(d: int, n: int) -> int:
    """dim of the space of degree-n ball orthogonal polynomials."""
    return math.comb(n + d - 1, n)
