"""Real solid spherical harmonics for d in {1, 2, 3} and sphere rules.

Basis elements are genuine polynomials (MultiPoly), homogeneous and
exactly harmonic, normalized so the average of the square over the sphere
is one.  The d = 1 "sphere" is the two-point set {-1, +1} with counting
measure normalized by its total 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedDimension
from .polyalg import MultiPoly
from .quadrature import ProductRule, gauss_jacobi
from .scalars import gamma_fn
from .unipoly import UniPoly

SUPPORTED_DIMS = (1, 2, 3)


def dim_harmonic(d: int, m: int) -> int:
    """Dimension of the space of degree-m harmonics in d variables."""
    if d < 1 or m < 0:
        raise DomainError("need d >= 1 and m >= 0")
    first = math.comb(m + d - 1, m)
    second = math.comb(m + d - 3, m - 2) if m >= 2 else 0
    return first - second


def surface_area(d: int) -> float:
    """Surface area of the unit sphere in R^d (2 for d = 1)."""
    return 2.0 * math.pi ** (d / 2.0) / gamma_fn(d / 2.0)


@dataclass(frozen=True)
class HarmonicBasis:
    d: int
    m: int
    elements: tuple  # MultiPoly in x only, homogeneous degree m, harmonic


def _circle_pair(m: int, dim_x: int):
    """Real and imaginary parts of (x_1 + i x_2)^m as polynomials."""
    re = {}
    im = {}
    for i in range(m + 1):
        c = math.comb(m, i)
        e = [0] * (dim_x + 1)
        e[0] = m - i
        e[1] = i
        if i % 4 == 0:
            re[tuple(e)] = float(c)
        elif i % 4 == 1:
            im[tuple(e)] = float(c)
        elif i % 4 == 2:
            re[tuple(e)] = -float(c)
        else:
            im[tuple(e)] = -float(c)
    return MultiPoly(dim_x, re), MultiPoly(dim_x, im)


def _legendre_exact(m: int) -> UniPoly:
    """Degree-m Legendre coefficients from the closed-form binomial sum;
    dyadic rationals, so exact in doubles (the generic Jacobi recurrence
    rounds at the ulp level, which would break exact harmonicity)."""
    c = [0.0] * (m + 1)
    for k in range(m // 2 + 1):
        c[m - 2 * k] = (-1.0) ** k * math.comb(m, k) * math.comb(2 * m - 2 * k, m) / 2.0 ** m
    return UniPoly(c)


def _basis_d3(m: int):
    """Real solid harmonics of degree m in three variables with their
    normalization scales, as (generator, scale) pairs.

    Built from the k-th derivatives of the degree-m Legendre polynomial:
    r^(m-k) (d^k P_m)(z/r) is polynomial because the surviving powers of r
    are even, and multiplying by Re/Im (x+iy)^k gives the 2m+1 classical
    real solid harmonics.  Generators have exactly representable dyadic
    coefficients, so their harmonicity is exact in doubles; closed-form
    sphere norms supply the scale.
    """
    legendre = _legendre_exact(m)
    r2 = (
        MultiPoly.var_x(3, 0) * MultiPoly.var_x(3, 0)
        + MultiPoly.var_x(3, 1) * MultiPoly.var_x(3, 1)
        + MultiPoly.var_x(3, 2) * MultiPoly.var_x(3, 2)
    )
    z = MultiPoly.var_x(3, 2)
    out = []
    dk = legendre
    for k in range(m + 1):
        if k > 0:
            dk = dk.derivative()
        radial = MultiPoly.zero(3)
        r2_pows = {}
        for j, a in enumerate(dk.coeffs):
            if a != 0.0:
                e = (m - k - j) // 2
                if e not in r2_pows:
                    acc = MultiPoly.const(3, 1.0)
                    for _ in range(e):
                        acc = acc * r2
                    r2_pows[e] = acc
                term = r2_pows[e].scale(a)
                zj = MultiPoly.const(3, 1.0)
                for _ in range(j):
                    zj = zj * z
                radial = radial + term * zj
        # mean square over the sphere of P_m^k(cos)cos(k phi):
        # (m+k)!/(m-k)! * (1 + [k=0]) / (2 (2m+1))
        msq = (
            math.factorial(m + k) / math.factorial(m - k)
            * (2.0 if k == 0 else 1.0) / (2.0 * (2 * m + 1))
        )
        s = 1.0 / math.sqrt(msq)
        if k == 0:
            out.append((radial, s))
        else:
            a_k, b_k = _circle_pair(k, 3)
            out.append((radial * a_k, s))
            out.append((radial * b_k, s))
    return out


def _generators(d: int, m: int):
    """Unscaled harmonic generators and their normalization scales.

    Generator coefficients are dyadic, so the Laplacian cancels bitwise;
    scaling by the (generally irrational) normalization can shift the
    cancellation by an ulp, which is why exactness is certified here."""
    if d == 1:
        if m == 0:
            return [(MultiPoly.const(1, 1.0), 1.0)]
        if m == 1:
            return [(MultiPoly.var_x(1, 0), 1.0)]
        return []
    if d == 2:
        if m == 0:
            return [(MultiPoly.const(2, 1.0), 1.0)]
        re, im = _circle_pair(m, 2)
        s = math.sqrt(2.0)
        return [(re, s), (im, s)]
    if m == 0:
        return [(MultiPoly.const(3, 1.0), 1.0)]
    return _basis_d3(m)


@functools.cache
def harmonic_basis(d: int, m: int, normalized: bool = True) -> HarmonicBasis:
    """Basis of the degree-m harmonics; empty when none exist.

    normalized=True rescales so the sphere average of the square is one;
    normalized=False returns the raw dyadic generators (exactly harmonic).
    The basis depends on nothing but its arguments, so each is built once
    per process and shared by every caller; treat it as read-only.
    """
    if d not in SUPPORTED_DIMS:
        raise UnsupportedDimension(f"d = {d}, supported: {SUPPORTED_DIMS}")
    if m < 0:
        raise DomainError("m >= 0")
    gens = _generators(d, m)
    if normalized:
        elems = [g.scale(s) for g, s in gens]
    else:
        elems = [g for g, _ in gens]
    return HarmonicBasis(d, m, tuple(elems))


def sphere_rule(d: int, max_degree: int) -> ProductRule:
    """Rule for the normalized sphere average, exact for restrictions of
    polynomials of degree <= max_degree.

    d = 1: the two points; d = 2: max_degree + 1 equispaced angles (the
    smallest equispaced count that kills every aliased frequency up to the
    requested degree); d = 3: Gauss-Legendre in cos(theta) crossed with
    equispaced azimuths.
    """
    if d not in SUPPORTED_DIMS:
        raise UnsupportedDimension(f"d = {d}, supported: {SUPPORTED_DIMS}")
    if max_degree < 0:
        raise DomainError("max_degree >= 0")
    if d == 1:
        points = np.array([[1.0], [-1.0]])
        weights = np.array([0.5, 0.5])
    elif d == 2:
        k = max_degree + 1
        ang = 2.0 * math.pi * np.arange(k) / k
        points = np.column_stack([np.cos(ang), np.sin(ang)])
        weights = np.full(k, 1.0 / k)
    else:
        n_polar = max_degree // 2 + 1
        z_nodes, z_weights = gauss_jacobi(n_polar, 0.0, 0.0)
        k = max_degree + 1
        ang = 2.0 * math.pi * np.arange(k) / k
        pts = []
        wts = []
        for z, wz in zip(z_nodes, z_weights):
            s = math.sqrt(max(1.0 - z * z, 0.0))
            for a in ang:
                pts.append([s * math.cos(a), s * math.sin(a), z])
                wts.append(wz / k)
        points = np.asarray(pts)
        weights = np.asarray(wts)
    return ProductRule(points, weights)
