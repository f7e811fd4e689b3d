"""Finite orthogonal families on the conic surface |x| = t.

Elements are stored factorized as radial(t) times a solid harmonic Y(x),
understood modulo |x|^2 - t^2.  Operator actions reduce to univariate
identities in t because the harmonic factor contributes only its
Laplace-Beltrami eigenvalue -m(m+d-2); no ideal-quotient arithmetic is
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import DomainError, QNotMinusOneError, UnsupportedDimension, ValidityError
from .gram import GramResult, separable_gram
from .harmonics import dim_harmonic, harmonic_basis
from .polyalg import MultiPoly
from .quadrature import WeightGammaExp, WeightInvExp, WeightMPQ, surface_factors
from .scalars import factorial_real, gamma_ratio, pochhammer
from .unipoly import UniPoly
from .univariate import (
    MParams,
    NParams,
    coeffs_laguerre,
    coeffs_m,
    coeffs_m_rodrigues,
    coeffs_n,
    coeffs_n_rodrigues,
    eval_laguerre,
    eval_m,
    eval_n,
    norm_m,
)

FAMILIES = ("M", "N", "L")


@dataclass(frozen=True)
class SurfaceParams:
    """Parameter bundle for a conic-surface family.

    d = 1 (two rays) is permitted for construction, but the differential
    identities assume d >= 2.
    """

    d: int
    family: str
    p: Optional[float] = None
    q: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.d not in (1, 2, 3):
            raise UnsupportedDimension(f"d = {self.d}, supported: (1, 2, 3)")
        if self.family == "M" and (self.p is None or self.q is None):
            raise DomainError("M family needs p and q")
        if self.family == "N" and self.p is None:
            raise DomainError("N family needs p")
        if self.family == "L" and self.beta is None:
            raise DomainError("L family needs beta")

    def require_valid(self, n: int) -> None:
        if self.family == "M":
            if self.p <= 2 * n + self.d:
                raise ValidityError("p > 2N + d", f"p = {self.p}, N = {n}, d = {self.d}")
            if self.q <= -self.d:
                raise ValidityError("q > -d", f"q = {self.q}, d = {self.d}")
        elif self.family == "N":
            if self.p <= 2 * n + self.d:
                raise ValidityError("p > 2N + d", f"p = {self.p}, N = {n}, d = {self.d}")
        else:
            if self.beta <= -self.d:
                raise ValidityError("beta > -d", f"beta = {self.beta}, d = {self.d}")

    @property
    def max_degree(self) -> Optional[int]:
        if self.family == "L":
            return None
        n = math.ceil((self.p - self.d) / 2) - 1
        while self.p <= 2 * n + self.d:
            n -= 1
        return n

    def radial_weight(self):
        if self.family == "M":
            return WeightMPQ(self.p, self.q)
        if self.family == "N":
            return WeightInvExp(self.p)
        return WeightGammaExp(self.beta)


@dataclass(frozen=True)
class SurfaceElement:
    n: int
    m: int
    l: int  # 1-based harmonic index
    radial: UniPoly
    harmonic: MultiPoly
    poly: MultiPoly  # radial(t) * Y(x), a representative mod |x|^2 - t^2
    g: UniPoly  # radial(t) * t^m, the reduced univariate carrier

    @property
    def label(self) -> str:
        return f"n{self.n}.m{self.m}.l{self.l}"


def surface_dimension(d: int, n: int) -> int:
    """Number of degree-n surface basis elements."""
    second = math.comb(n + d - 2, n - 1) if n >= 1 else 0
    return math.comb(n + d - 1, n) + second


def _radial(params: SurfaceParams, n: int, m: int, source: str) -> UniPoly:
    d = params.d
    if params.family == "M":
        sub = MParams(params.p - 2 * m - d + 1, params.q + 2 * m + d - 1)
        return (coeffs_m if source == "recurrence" else coeffs_m_rodrigues)(n - m, sub)
    if params.family == "N":
        sub = NParams(params.p - 2 * m - d + 1)
        return (coeffs_n if source == "recurrence" else coeffs_n_rodrigues)(n - m, sub)
    return coeffs_laguerre(n - m, 2 * m + params.beta + params.d - 1)


def surface_basis(params: SurfaceParams, n: int, radial_source: str = "recurrence"):
    """Degree-n elements: 0 <= m <= n, one per harmonic of degree m."""
    params.require_valid(n)
    out = []
    for m in range(n + 1):
        harm = harmonic_basis(params.d, m)
        if not harm.elements:
            continue
        radial = _radial(params, n, m, radial_source)
        rad_mp = MultiPoly.from_unipoly_t(radial, params.d)
        g = radial.shift_up(m)
        for l, y in enumerate(harm.elements, start=1):
            out.append(SurfaceElement(n, m, l, radial, y, rad_mp * y, g))
    if len(out) != surface_dimension(params.d, n):
        raise DomainError(
            f"internal: built {len(out)} elements, expected {surface_dimension(params.d, n)}"
        )
    return tuple(out)


def surface_norm(params: SurfaceParams, m: int, n: int) -> float:
    """Norm square of a degree-n element with harmonic degree m under the
    normalized surface inner product."""
    params.require_valid(n)
    d = params.d
    if params.family == "M":
        p, q = params.p, params.q
        ratio = gamma_ratio(
            [p - 2 * m - d, q + 2 * m + d], [p - d, q + d]
        )
        return ratio * norm_m(n - m, MParams(p - 2 * m - d + 1, q + 2 * m + d - 1))
    if params.family == "N":
        p = params.p
        return (
            factorial_real(n - m)
            * gamma_ratio([p - n - m - d + 1], [p - d])
            / (p - 2 * n - d)
        )
    alpha_l = 2 * m + params.beta + d - 1
    ratio = gamma_ratio([alpha_l + 1], [params.beta + d])
    return ratio * pochhammer(alpha_l + 1, n - m) / factorial_real(n - m)


def _radial_values(params: SurfaceParams, n: int, m: int, ts: np.ndarray) -> np.ndarray:
    """Radial factor by forward recurrence; accurate where the coefficient
    form cancels (large p, small t)."""
    d = params.d
    if params.family == "M":
        return eval_m(n - m, MParams(params.p - 2 * m - d + 1, params.q + 2 * m + d - 1), ts)
    if params.family == "N":
        return eval_n(n - m, NParams(params.p - 2 * m - d + 1), ts)
    return eval_laguerre(n - m, 2 * m + params.beta + d - 1, ts)


def surface_gram(params: SurfaceParams, n_max: int) -> GramResult:
    """Gram matrix of all elements of degree <= n_max under the normalized
    surface inner product, by the x = xi t separated quadrature.

    The radial factors go through the three-term recurrence at the t-nodes,
    the harmonics Y_{m,l} through their coefficients at the sphere nodes;
    gram.separable_gram contracts the two small Grams."""
    params.require_valid(n_max)
    elements = [e for n in range(n_max + 1) for e in surface_basis(params, n)]
    factors = surface_factors(params.d, params.radial_weight(), 2 * n_max)
    return separable_gram(
        elements,
        factors,
        partial(_radial_values, params),
        lambda e: ((e.m, e.l), e.harmonic),
        [surface_norm(params, e.m, e.n) for e in elements],
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
        shifted = SurfaceParams(d, "N", p=p - 2.0)
        shifted.require_valid(n - 1)
        comp = _radial(shifted, n - 1, m, "recurrence").shift_up(m)
        rhs = rhs + comp.scale((m - n) * (p - n - m - d))
    return lhs - rhs


def laguerre_surface_ode_residual(d: int, n: int, m: int, beta: float = -1.0) -> UniPoly:
    """Residual of the beta = -1 Laguerre surface operator on the reduced
    carrier, multiplied by t: t^2 g'' + t (d-1-t) g' - m(m+d-2) g + n t g."""
    if d < 2:
        raise UnsupportedDimension("the surface operator needs d >= 2")
    if beta != -1.0:
        raise DomainError("the degree-only eigenvalue holds at beta = -1")
    g = coeffs_laguerre(n - m, 2 * m + beta + d - 1).shift_up(m)
    g1 = g.derivative()
    g2 = g1.derivative()
    return (
        g2.shift_up(2)
        + g1.shift_up(1).scale(d - 1)
        - g1.shift_up(2)
        - g.scale(m * (m + d - 2))
        + g.shift_up(1).scale(n)
    )


@dataclass(frozen=True)
class SurfaceLimitReport:
    n: int
    m: int
    p_values: tuple
    deviations: tuple
    exponent: object


def surface_limit_m(
    params: SurfaceParams, n: int, m: int, l: int = 1, p_grid=(1e2, 1e3, 1e4)
) -> SurfaceLimitReport:
    """Deviation between the radially rescaled M-family surface element and
    its Laguerre surface target, with fitted decay exponent."""
    from .cone_solid import cone_sample_grid
    from .verifier import convergence_fit

    if params.family != "M":
        raise DomainError("the limit relation starts from the M family")
    d, q = params.d, params.q
    harm = harmonic_basis(d, m).elements
    if not harm or l > len(harm):
        raise DomainError(f"no harmonic index {l} at degree {m} for d = {d}")
    y = harm[l - 1]
    sign = -1.0 if (n - m) % 2 else 1.0
    target_radial = coeffs_laguerre(n - m, q + 2 * m + d - 1).scale(
        sign * factorial_real(n - m)
    )
    grid = cone_sample_grid(d)
    # evaluation points sit on the surface: x = t xi
    grid = np.array([list(np.asarray(pt[:d]) / np.linalg.norm(pt[:d]) * pt[d]) + [pt[d]] for pt in grid])
    deviations = []
    for p in p_grid:
        trial = SurfaceParams(d, "M", p=float(p), q=q)
        trial.require_valid(n)
        radial = _radial(trial, n, m, "recurrence")
        scaled = UniPoly(tuple(c * float(p) ** (-k) for k, c in enumerate(radial.coeffs)))
        diff = MultiPoly.from_unipoly_t(scaled - target_radial, d) * y
        deviations.append(float(np.max(np.abs(diff.evaluate_many(grid)))))
    exponent = convergence_fit(list(zip(p_grid, deviations)))
    return SurfaceLimitReport(n, m, tuple(float(p) for p in p_grid), tuple(deviations), exponent)


def surface_counts_match(d: int, n_max: int) -> bool:
    """Degree-by-degree check that the harmonic split fills the space."""
    for n in range(n_max + 1):
        total = sum(dim_harmonic(d, m) for m in range(n + 1))
        if total != surface_dimension(d, n):
            return False
    return True
