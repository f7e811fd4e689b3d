"""Finite orthogonal families on the conic surface |x| = t.

Elements are stored factorized as radial(t) times a solid harmonic Y(x),
understood modulo |x|^2 - t^2.  Operator actions reduce to univariate
identities in t because the harmonic factor contributes only its
Laplace-Beltrami eigenvalue -m(m+d-2); no ideal-quotient arithmetic is
needed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cone_solid import LimitReport, cone_sample_grid, laguerre_limit
from .errors import DomainError, QNotMinusOneError, UnsupportedDimension
from .gram import GramResult, separable_gram, sphere_factor, t_factor
from .harmonics import harmonic_basis
from .polyalg import MultiPoly
from .quadrature import Shift, surface_factors, surface_shift
from .unipoly import UniPoly
from .univariate import ShiftedRadial


@dataclass(frozen=True)
class SurfaceParams(ShiftedRadial):
    """Parameter bundle for a conic-surface family; the radial factors are
    shifted by c = d - 1.

    d = 1 (two rays) is permitted for construction, but the differential
    identities assume d >= 2.
    """

    d: int
    family: str
    p: Optional[float] = None
    q: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        super().__post_init__()
        if self.d not in (1, 2, 3):
            raise UnsupportedDimension(f"d = {self.d}, supported: (1, 2, 3)")

    @cached_property
    def shift(self) -> Shift:
        return surface_shift(self.d)

    @cached_property
    def companion(self) -> "SurfaceParams":
        """The N family at p - 2, which carries the companion term of the
        difference-differential identity."""
        return SurfaceParams(self.d, "N", p=self.p - 2.0)

    def harmonics(self, m: int) -> tuple:
        """The degree-m harmonics Y_{m,l}, l = 1, 2, ... (built once per
        process by harmonic_basis)."""
        return harmonic_basis(self.d, m).elements


@dataclass(frozen=True)
class SurfaceElement:
    n: int
    m: int
    l: int  # 1-based harmonic index
    radial: UniPoly
    harmonic: MultiPoly
    g: UniPoly  # radial(t) * t^m, the reduced univariate carrier

    @property
    def label(self) -> str:
        return f"n{self.n}.m{self.m}.l{self.l}"

    @cached_property
    def poly(self) -> MultiPoly:
        """radial(t) * Y(x), a representative mod |x|^2 - t^2, multiplied
        out on first read; no certificate reads it."""
        return MultiPoly.from_unipoly_t(self.radial, self.harmonic.dim_x) * self.harmonic


def surface_dimension(d: int, n: int) -> int:
    """Number of degree-n surface basis elements."""
    second = math.comb(n + d - 2, n - 1) if n >= 1 else 0
    return math.comb(n + d - 1, n) + second


def surface_basis(params: SurfaceParams, n: int):
    """Degree-n elements: 0 <= m <= n, one per harmonic of degree m."""
    params.require_valid(n)
    out = []
    for m in range(n + 1):
        harm = params.harmonics(m)
        if not harm:
            continue
        radial = params.radial(n, m)
        g = radial.shift_up(m)
        for l, y in enumerate(harm, start=1):
            out.append(SurfaceElement(n, m, l, radial, y, g))
    if len(out) != surface_dimension(params.d, n):
        raise DomainError(
            f"internal: built {len(out)} elements, expected {surface_dimension(params.d, n)}"
        )
    return tuple(out)


def surface_gram(params: SurfaceParams, n_max: int) -> GramResult:
    """Gram matrix of all elements of degree <= n_max under the normalized
    surface inner product, by the x = xi t separated quadrature.

    The two-factor case of the cone Gram: radial factors at the t-nodes,
    the harmonics Y_{m,l} at the sphere nodes; gram.separable_gram
    contracts the two factor Grams."""
    params.require_valid(n_max)
    elements = [e for n in range(n_max + 1) for e in surface_basis(params, n)]
    factors = surface_factors(params.d, params.radial_weight(), 2 * n_max)
    return separable_gram(
        elements,
        [
            t_factor(factors.t_rule, params.values),
            sphere_factor(factors.sphere, lambda e: (e.m, e.l), lambda e: e.harmonic),
        ],
        [params.norm(e.m, e.n) for e in elements],
        abs(factors.total_weight - 1.0),
    )


# ---------------------------------------------------------------------------
# reduced univariate identities (harmonic factor divided out)
# ---------------------------------------------------------------------------


def surface_ode_residual_m(params: SurfaceParams, element: SurfaceElement) -> UniPoly:
    """Residual of the q = -1 surface operator on g = radial * t^m, with the
    Laplace-Beltrami term replaced by the harmonic eigenvalue and the whole
    identity multiplied by t to clear 1/t."""
    if params.family != "M":
        raise DomainError("the surface operator applies to the M family")
    if params.q != -1:
        raise QNotMinusOneError(
            "the surface family is an eigenfamily of a second-order operator only for q = -1"
        )
    if params.d < 2:
        raise UnsupportedDimension("the surface operator needs d >= 2")
    d, p = params.d, params.p
    n, m = element.n, element.m
    g = element.g
    g1 = g.derivative()
    g2 = g1.derivative()
    # t^2 (1+t) g'' + t (d-1 + (-p+d+1) t) g' - m(m+d-2) g - n(n-p+d) t g
    return (
        g2.shift_up(2)
        + g2.shift_up(3)
        + g1.shift_up(1).scale(d - 1)
        + g1.shift_up(2).scale(-p + d + 1)
        - g.scale(m * (m + d - 2))
        - g.shift_up(1).scale(n * (n - p + d))
    )


def surface_diffdiff_residual_n(params: SurfaceParams, element: SurfaceElement) -> UniPoly:
    """Residual of the difference-differential identity for the second
    surface family, reduced to the radial factor; the companion lives at
    parameter p - 2 and degree n - 1."""
    if params.family != "N":
        raise DomainError("the difference-differential identity applies to the N family")
    d, p = params.d, params.p
    n, m = element.n, element.m
    g = element.g
    g1 = g.derivative()
    g2 = g1.derivative()
    lhs = g2.shift_up(2) + g1.shift_up(1).scale(1 - p + d)
    rhs = g.scale(n * (n - p + d))
    if n > m:
        shifted = params.companion
        shifted.require_valid(n - 1)
        comp = shifted.radial(n - 1, m).shift_up(m)
        rhs = rhs + comp.scale((m - n) * (p - n - m - d))
    return lhs - rhs


def laguerre_surface_ode_residual(params: SurfaceParams, n: int, m: int) -> UniPoly:
    """Residual of the beta = -1 Laguerre surface operator on the reduced
    carrier g = radial * t^m of the bundle, multiplied by t:
    t^2 g'' + t (d-1-t) g' - m(m+d-2) g + n t g."""
    d = params.d
    if d < 2:
        raise UnsupportedDimension("the surface operator needs d >= 2")
    if params.family != "L" or params.beta != -1.0:
        raise DomainError("the degree-only eigenvalue holds at beta = -1")
    g = params.radial(n, m).shift_up(m)
    g1 = g.derivative()
    g2 = g1.derivative()
    return (
        g2.shift_up(2)
        + g1.shift_up(1).scale(d - 1)
        - g1.shift_up(2)
        - g.scale(m * (m + d - 2))
        + g.shift_up(1).scale(n)
    )


@functools.cache
def surface_sample_grid(d: int) -> np.ndarray:
    """cone_sample_grid(d) projected onto the surface, x = t xi with xi the
    unit direction of the cone point.  Built once per d and process,
    read-only."""
    grid = np.array([
        list(np.asarray(pt[:d]) / np.linalg.norm(pt[:d]) * pt[d]) + [pt[d]]
        for pt in cone_sample_grid(d)
    ])
    grid.setflags(write=False)
    return grid


def surface_limit_m(params: SurfaceParams, n: int, m: int, p_grid=(1e2, 1e3, 1e4)) -> LimitReport:
    """laguerre_limit on the conic surface: the angular factor is the
    first degree-m harmonic Y_{m,1}."""
    harm = params.harmonics(m)
    if not harm:
        raise DomainError(f"no harmonic index 1 at degree {m} for d = {params.d}")
    return laguerre_limit(params, n, m, harm[0], surface_sample_grid(params.d), p_grid)
