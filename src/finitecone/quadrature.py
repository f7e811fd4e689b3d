"""Gauss rules and exact transformed integration for every weight in play.

This module is the arbiter of all orthogonality claims.  Rules are built
from closed-form recurrence coefficients via the symmetric-tridiagonal
eigenvalue method, and every transformed rule is sized from the integrand's
degree contract, never adaptively: after the substitution the integrand is
a polynomial, so exactness is a theorem, not a tolerance.

The substitution t = u/(1-u) maps the rational weight t^q (1+t)^-(p+q) to a
Jacobi weight with exponent p - 2 - deg(f) on the (1-u) factor, which makes
the finite-orthogonality window p > deg(f) + 1 manifest; s = 1/t does the
same for the inverse-exponential weight.  Divergent requests raise
IntegrabilityError carrying the violated inequality.

Every rule is normalized: its weights sum to one, so it integrates against
the weight divided by its total mass.  That is the normalized inner product
under which the paper states orthogonality (<1, 1> = 1), and it keeps large
parameters from overflowing.  The cone and surface rules are tensor
products of a t-rule with the ball rule (itself an r-rule crossed with a
sphere rule) or the sphere rule: `cone_factors` and `surface_factors`
return those factors, with the integrability window checked in one place,
and the Gram contraction uses them without materializing the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError, IntegrabilityError, ValidityError
from .scalars import lgamma_fn


@dataclass(frozen=True)
class QuadRule:
    """One-dimensional rule: sum(w_i f(x_i)) equals the normalized weighted
    integral exactly for polynomials up to the degree it was built for."""

    nodes: tuple
    weights: tuple

    def integrate(self, f) -> float:
        return math.fsum(w * f(x) for x, w in zip(self.nodes, self.weights))

    @property
    def total_weight(self) -> float:
        return math.fsum(self.weights)


@dataclass(frozen=True)
class ProductRule:
    """Multi-dimensional rule with points of shape (K, dim)."""

    points: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        """The rule applied to a MultiPoly f."""
        return float(self.weights @ f.evaluate_many(self.points))

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def _golub_welsch(diag, offdiag):
    """Nodes and mass-one weights from the Jacobi matrix of a weight's monic
    recurrence: eigenvalues are nodes, squared first eigenvector components
    are weights."""
    n = len(diag)
    if n == 1:
        return np.array([diag[0]]), np.array([1.0])
    j = np.diag(np.asarray(diag, dtype=float))
    e = np.asarray(offdiag, dtype=float)
    j += np.diag(e, 1) + np.diag(e, -1)
    vals, vecs = np.linalg.eigh(j)
    return vals, vecs[0, :] ** 2


def _jacobi_matrix_jacobi(n: int, a: float, b: float):
    """Monic recurrence coefficients for the weight (1-x)^a (1+x)^b."""
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2)
    for k in range(1, n):
        diag[k] = (b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        off[0] = math.sqrt(4 * (a + 1) * (b + 1) / ((a + b + 2) ** 2 * (a + b + 3)))
    for k in range(2, n):
        off[k - 1] = math.sqrt(
            4 * k * (k + a) * (k + b) * (k + a + b)
            / ((2 * k + a + b) ** 2 * (2 * k + a + b + 1) * (2 * k + a + b - 1))
        )
    return diag, off


def _jacobi_matrix_laguerre(n: int, a: float):
    """Monic recurrence coefficients for the weight x^a exp(-x)."""
    diag = np.array([2 * k + a + 1 for k in range(n)], dtype=float)
    off = np.array([math.sqrt(k * (k + a)) for k in range(1, n)], dtype=float)
    return diag, off


def gauss_jacobi(npoints: int, a: float, b: float):
    """Gauss-Jacobi nodes and mass-one weights on [-1, 1] for
    (1-x)^a (1+x)^b, exact to degree 2 npoints - 1."""
    if a <= -1 or b <= -1:
        raise ValidityError("alpha > -1 and beta > -1", f"alpha = {a}, beta = {b}")
    if npoints < 1:
        raise DomainError("need at least one node")
    try:
        diag, off = _jacobi_matrix_jacobi(npoints, a, b)
    except OverflowError:
        raise DomainError(f"Gauss-Jacobi recurrence overflows at alpha = {a}, beta = {b}") from None
    return _golub_welsch(diag, off)


def gauss_laguerre(npoints: int, a: float):
    """Generalized Gauss-Laguerre nodes and mass-one weights on [0, inf)
    for x^a exp(-x), exact to degree 2 npoints - 1."""
    if a <= -1:
        raise ValidityError("alpha > -1", f"alpha = {a}")
    if npoints < 1:
        raise DomainError("need at least one node")
    diag, off = _jacobi_matrix_laguerre(npoints, a)
    return _golub_welsch(diag, off)


# ---------------------------------------------------------------------------
# radial weights on (0, inf) and their degree-contracted transformed rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightMPQ:
    """t^q / (1+t)^(p+q); integrable against t^D only while p > D + 1."""

    p: float
    q: float

    def absorb_power(self, s: float) -> "WeightMPQ":
        return WeightMPQ(self.p - s, self.q + s)

    def check_degree(self, max_degree: int) -> None:
        if self.p <= max_degree + 1:
            raise IntegrabilityError(
                "p > deg(f) + 1", f"p = {self.p}, deg = {max_degree}: divergent tail"
            )
        if self.q <= -1:
            raise IntegrabilityError("q > -1", f"q = {self.q}: divergent at 0")

    def rule(self, max_degree: int) -> QuadRule:
        """Rule exact for polynomials of degree <= max_degree against the
        normalized weight, via t = u/(1-u) onto a Jacobi weight."""
        self.check_degree(max_degree)
        d = max_degree
        a = self.p - 2 - d
        b = self.q
        npts = d + 2
        u_nodes, u_weights = gauss_jacobi(npts, a, b)
        # the 2-powers of the two substitutions cancel against the Jacobi
        # mass exactly; only the Gamma ratio B(p-1-deg, q+1) / B(p-1, q+1)
        # survives, so nothing overflows for large p.
        log_scale = (
            lgamma_fn(self.p + self.q) + lgamma_fn(self.p - 1 - d)
            - lgamma_fn(self.p - 1) - lgamma_fn(self.p + self.q - d)
        )
        scale = math.exp(log_scale)
        nodes = []
        weights = []
        for s, w in sorted(zip(u_nodes, u_weights)):
            u = (1.0 + s) / 2.0
            nodes.append(u / (1.0 - u))
            weights.append(scale * w * (1.0 - u) ** d)
        return QuadRule(tuple(nodes), tuple(weights))


@dataclass(frozen=True)
class WeightInvExp:
    """t^-p exp(-1/t); integrable against t^D only while p > D + 1."""

    p: float

    def absorb_power(self, s: float) -> "WeightInvExp":
        return WeightInvExp(self.p - s)

    def check_degree(self, max_degree: int) -> None:
        if self.p <= max_degree + 1:
            raise IntegrabilityError(
                "p > deg(f) + 1", f"p = {self.p}, deg = {max_degree}: Gamma pole"
            )

    def rule(self, max_degree: int) -> QuadRule:
        """Rule exact for degree <= max_degree against the normalized
        weight, via s = 1/t onto the generalized Laguerre weight
        s^(p-2-deg) exp(-s)."""
        self.check_degree(max_degree)
        d = max_degree
        a = self.p - 2 - d
        npts = d + 2
        s_nodes, s_weights = gauss_laguerre(npts, a)
        scale = math.exp(lgamma_fn(a + 1) - lgamma_fn(self.p - 1))
        nodes = []
        weights = []
        for s, w in sorted(zip(s_nodes, s_weights), reverse=True):
            nodes.append(1.0 / s)
            weights.append(scale * w * s ** d)
        return QuadRule(tuple(nodes), tuple(weights))


@dataclass(frozen=True)
class WeightGammaExp:
    """t^alpha exp(-t); integrable against any polynomial degree."""

    alpha: float

    def absorb_power(self, s: float) -> "WeightGammaExp":
        return WeightGammaExp(self.alpha + s)

    def check_degree(self, max_degree: int) -> None:
        if self.alpha <= -1:
            raise IntegrabilityError("alpha > -1", f"alpha = {self.alpha}")

    def rule(self, max_degree: int) -> QuadRule:
        """Rule exact for degree <= max_degree against the normalized weight."""
        self.check_degree(max_degree)
        nodes, weights = gauss_laguerre(max_degree // 2 + 2, self.alpha)
        return QuadRule(tuple(nodes), tuple(weights))


# ---------------------------------------------------------------------------
# product rules: ball, solid cone, conic surface
# ---------------------------------------------------------------------------


def ball_radii(d: int, mu: float, max_degree: int):
    """Radial factor of the ball rule: the radii r and the normalized
    Gauss-Jacobi weights in u = 2r^2 - 1 (the spherical average of a
    polynomial is even in r)."""
    u_nodes, u_weights = gauss_jacobi(max_degree // 2 + 1, mu - 0.5, (d - 2) / 2.0)
    return np.sqrt((1.0 + u_nodes) / 2.0), u_weights


def _ball_product(radii, srule: ProductRule):
    """Points and weights of the radii crossed with the sphere rule."""
    r, weights = radii
    points = (r[:, None, None] * srule.points[None]).reshape(-1, srule.points.shape[1])
    return points, np.outer(weights, srule.weights).ravel()


def ball_rule(d: int, mu: float, max_degree: int) -> ProductRule:
    """Rule for the normalized unit-ball weight (1-|x|^2)^(mu-1/2); points
    in R^d: ball_radii crossed with the dimension-matched sphere rule.
    """
    from .harmonics import sphere_rule  # deferred: harmonics uses ProductRule

    if mu <= -0.5:
        raise ValidityError("mu > -1/2", f"mu = {mu}")
    return ProductRule(*_ball_product(ball_radii(d, mu, max_degree), sphere_rule(d, max_degree)))


@dataclass(frozen=True)
class FactorRules:
    """The factors of a solid-cone or conic-surface rule.

    The point (x, t) = (t y, t) runs over the t-nodes crossed with the
    angular points y: on the solid cone y = r s with the ball's radii r
    crossed with the sphere points s, on the surface y = s (radii None).
    The t-rule carries the radial weight with the Jacobian power of t
    absorbed; every factor is normalized to mass one.
    """

    t_rule: QuadRule
    radii: Optional[tuple]  # (r, weights) of ball_radii, or None
    sphere: ProductRule

    @cached_property
    def angular(self) -> ProductRule:
        """The materialized angular rule: the ball rule or the sphere rule."""
        if self.radii is None:
            return self.sphere
        return ProductRule(*_ball_product(self.radii, self.sphere))

    @property
    def total_weight(self) -> float:
        """Mass of the tensor-product rule, summed over its points."""
        return float(np.sum(np.outer(self.t_rule.weights, self.angular.weights)))

    def tensor(self) -> ProductRule:
        """The materialized product rule, t-nodes outermost."""
        t = np.asarray(self.t_rule.nodes)
        y = self.angular.points
        dim = y.shape[1]
        points = np.empty((len(t), len(y), dim + 1))
        points[:, :, :dim] = t[:, None, None] * y[None, :, :]
        points[:, :, dim] = t[:, None]
        weights = np.outer(self.t_rule.weights, self.angular.weights).ravel()
        return ProductRule(points.reshape(-1, dim + 1), weights)


@dataclass(frozen=True)
class Shift:
    """The power t^c that the angular part of a cone or surface measure
    contributes at height t: c = 2*mu + d - 1 on the solid cone (ball of
    radius t), c = d - 1 on the conic surface (sphere of radius t).  Every
    window of a family on the domain has the edge c + 1, printed as plus
    (or minus for its negative); context prints the domain parameters."""

    c: float
    plus: str
    minus: str
    context: str


def solid_shift(d: int, mu: float) -> Shift:
    return Shift(d + 2 * mu - 1, "2*mu + d", "-2*mu - d", f"mu = {mu}, d = {d}")


def surface_shift(d: int) -> Shift:
    return Shift(d - 1, "d", "-d", f"d = {d}")


def _radial_factor(weight, shift: Shift, max_degree: int):
    """Normalized t-rule for weight(t) t^c, after the integrability window
    of the cone or surface measure:
    p > deg(f) + plus, q > minus, beta > minus."""
    eff = weight.absorb_power(shift.c)
    if isinstance(weight, (WeightMPQ, WeightInvExp)):
        if eff.p <= max_degree + 1:
            raise IntegrabilityError(
                f"p > deg(f) + {shift.plus}", f"p = {weight.p}, deg = {max_degree}, {shift.context}"
            )
        if isinstance(weight, WeightMPQ) and eff.q <= -1:
            raise IntegrabilityError(f"q > {shift.minus}", f"q = {weight.q}, {shift.context}")
    elif isinstance(weight, WeightGammaExp):
        if eff.alpha <= -1:
            raise IntegrabilityError(
                f"beta > {shift.minus}", f"beta = {weight.alpha}, {shift.context}"
            )
    else:
        raise DomainError(f"unknown radial weight {type(weight).__name__}")
    return eff.rule(max_degree)


def cone_factors(d: int, mu: float, weight, max_degree: int) -> FactorRules:
    """Factors of the solid-cone rule for w(t) (t^2 - |x|^2)^(mu - 1/2).

    Separation x = t y with y in the unit ball: the radial factor absorbs
    t^(d + 2mu - 1) into the weight, the ball rule handles the inner
    integral exactly.
    """
    from .harmonics import sphere_rule

    if mu <= -0.5:
        raise ValidityError("mu > -1/2", f"mu = {mu}")
    return FactorRules(
        _radial_factor(weight, solid_shift(d, mu), max_degree),
        ball_radii(d, mu, max_degree), sphere_rule(d, max_degree),
    )


def surface_factors(d: int, weight, max_degree: int) -> FactorRules:
    """Factors of the conic-surface rule for w(t) dsigma.

    Change of variables x = xi t turns the surface integral into the
    t-integral of t^(d-1) w(t) times the spherical average.
    """
    from .harmonics import sphere_rule

    return FactorRules(
        _radial_factor(weight, surface_shift(d), max_degree), None, sphere_rule(d, max_degree)
    )


def cone_rule(d: int, mu: float, weight, max_degree: int) -> ProductRule:
    """Product rule on the solid cone: the tensor product of cone_factors."""
    return cone_factors(d, mu, weight, max_degree).tensor()


def surface_rule(d: int, weight, max_degree: int) -> ProductRule:
    """Product rule on the conic surface: the tensor product of surface_factors."""
    return surface_factors(d, weight, max_degree).tensor()

