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

Product rules for the ball, the solid cone and the conic surface are
returned with *normalized* weights (total mass one against the normalized
measure), so that large parameters never overflow; the raw entry points
multiply back the closed-form total mass.  The cone and surface rules are
tensor products of a t-rule with the ball rule (itself an r-rule crossed
with a sphere rule) or the sphere rule: `cone_factors` and
`surface_factors` return those factors, with the integrability window
checked in one place, and the Gram contraction uses them without
materializing the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError, IntegrabilityError, ValidityError
from .scalars import gamma_ratio, lgamma_fn
from .unipoly import UniPoly


@dataclass(frozen=True)
class QuadRule:
    """One-dimensional rule: sum(w_i f(x_i)) equals the weighted integral
    exactly for polynomials up to exactness_degree."""

    nodes: tuple
    weights: tuple
    exactness_degree: int
    descriptor: str

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
    exactness_degree: int
    descriptor: str

    def integrate(self, f) -> float:
        if hasattr(f, "evaluate_many"):
            vals = f.evaluate_many(self.points)
        else:
            vals = np.array([f(p) for p in self.points])
        return float(self.weights @ vals)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def _golub_welsch(diag, offdiag, mass: float):
    """Nodes and weights from the Jacobi matrix of a weight's monic
    recurrence: eigenvalues are nodes, first eigenvector components give the
    weights scaled by the total mass."""
    n = len(diag)
    if n == 1:
        return np.array([diag[0]]), np.array([mass])
    j = np.diag(np.asarray(diag, dtype=float))
    e = np.asarray(offdiag, dtype=float)
    j += np.diag(e, 1) + np.diag(e, -1)
    vals, vecs = np.linalg.eigh(j)
    return vals, mass * vecs[0, :] ** 2


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


def gauss_jacobi(npoints: int, a: float, b: float, normalized: bool = False):
    """Gauss-Jacobi nodes/weights on [-1, 1] for (1-x)^a (1+x)^b."""
    if a <= -1 or b <= -1:
        raise ValidityError("alpha > -1 and beta > -1", f"alpha = {a}, beta = {b}")
    if npoints < 1:
        raise DomainError("need at least one node")
    diag, off = _jacobi_matrix_jacobi(npoints, a, b)
    if normalized:
        mass = 1.0
    else:
        mass = math.exp(
            (a + b + 1) * math.log(2.0) + lgamma_fn(a + 1) + lgamma_fn(b + 1) - lgamma_fn(a + b + 2)
        )
    return _golub_welsch(diag, off, mass)


def gauss_laguerre(npoints: int, a: float, normalized: bool = False):
    """Generalized Gauss-Laguerre nodes/weights on [0, inf) for x^a exp(-x)."""
    if a <= -1:
        raise ValidityError("alpha > -1", f"alpha = {a}")
    if npoints < 1:
        raise DomainError("need at least one node")
    diag, off = _jacobi_matrix_laguerre(npoints, a)
    mass = 1.0 if normalized else math.exp(lgamma_fn(a + 1))
    return _golub_welsch(diag, off, mass)


def gauss_rule(kind: str, npoints: int, alpha: float = 0.0, beta: float = 0.0) -> QuadRule:
    """n-point Gauss rule, exact to degree 2n-1 for the named weight."""
    if kind == "legendre":
        nodes, weights = gauss_jacobi(npoints, 0.0, 0.0)
        desc = "legendre on [-1,1]"
    elif kind == "jacobi":
        nodes, weights = gauss_jacobi(npoints, alpha, beta)
        desc = f"jacobi(alpha={alpha}, beta={beta}) on [-1,1]"
    elif kind == "laguerre":
        nodes, weights = gauss_laguerre(npoints, alpha)
        desc = f"laguerre(alpha={alpha}) on [0,inf)"
    else:
        raise DomainError(f"unknown rule kind {kind!r}")
    return QuadRule(tuple(nodes), tuple(weights), 2 * npoints - 1, desc)


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

    def log_mass(self) -> float:
        # integral of the weight itself: Beta(q+1, p-1)
        return lgamma_fn(self.q + 1) + lgamma_fn(self.p - 1) - lgamma_fn(self.p + self.q)

    def rule(self, max_degree: int, normalized: bool = False) -> QuadRule:
        """Rule exact for polynomials of degree <= max_degree against the
        weight, via t = u/(1-u) onto a Jacobi weight."""
        self.check_degree(max_degree)
        d = max_degree
        a = self.p - 2 - d
        b = self.q
        npts = d + 2
        u_nodes, u_weights = gauss_jacobi(npts, a, b, normalized=True)
        # the 2-powers of the two substitutions cancel against the Jacobi
        # mass exactly; only a Gamma ratio survives (Beta(p-1-deg, q+1) raw,
        # times c_{p,q} when normalized), so nothing overflows for large p.
        if normalized:
            log_scale = (
                lgamma_fn(self.p + self.q) + lgamma_fn(self.p - 1 - d)
                - lgamma_fn(self.p - 1) - lgamma_fn(self.p + self.q - d)
            )
        else:
            log_scale = (
                lgamma_fn(self.q + 1) + lgamma_fn(self.p - 1 - d) - lgamma_fn(self.p + self.q - d)
            )
        scale = math.exp(log_scale)
        nodes = []
        weights = []
        for s, w in sorted(zip(u_nodes, u_weights)):
            u = (1.0 + s) / 2.0
            nodes.append(u / (1.0 - u))
            weights.append(scale * w * (1.0 - u) ** d)
        return QuadRule(
            tuple(nodes), tuple(weights), d,
            f"t^{self.q}/(1+t)^{self.p + self.q} on (0,inf)"
            + (" [normalized]" if normalized else ""),
        )


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

    def log_mass(self) -> float:
        return lgamma_fn(self.p - 1)

    def rule(self, max_degree: int, normalized: bool = False) -> QuadRule:
        """Rule exact for degree <= max_degree, via s = 1/t onto the
        generalized Laguerre weight s^(p-2-deg) exp(-s)."""
        self.check_degree(max_degree)
        d = max_degree
        a = self.p - 2 - d
        npts = d + 2
        s_nodes, s_weights = gauss_laguerre(npts, a, normalized=True)
        log_scale = lgamma_fn(a + 1) - (self.log_mass() if normalized else 0.0)
        scale = math.exp(log_scale)
        nodes = []
        weights = []
        for s, w in sorted(zip(s_nodes, s_weights), reverse=True):
            nodes.append(1.0 / s)
            weights.append(scale * w * s ** d)
        return QuadRule(
            tuple(nodes), tuple(weights), d,
            f"t^-{self.p} exp(-1/t) on (0,inf)" + (" [normalized]" if normalized else ""),
        )


@dataclass(frozen=True)
class WeightGammaExp:
    """t^alpha exp(-t); integrable against any polynomial degree."""

    alpha: float

    def absorb_power(self, s: float) -> "WeightGammaExp":
        return WeightGammaExp(self.alpha + s)

    def check_degree(self, max_degree: int) -> None:
        if self.alpha <= -1:
            raise IntegrabilityError("alpha > -1", f"alpha = {self.alpha}")

    def log_mass(self) -> float:
        return lgamma_fn(self.alpha + 1)

    def rule(self, max_degree: int, normalized: bool = False) -> QuadRule:
        self.check_degree(max_degree)
        npts = max_degree // 2 + 2
        nodes, weights = gauss_laguerre(npts, self.alpha, normalized=normalized)
        return QuadRule(
            tuple(nodes), tuple(weights), 2 * npts - 1,
            f"t^{self.alpha} exp(-t) on (0,inf)" + (" [normalized]" if normalized else ""),
        )


def integrate_wpq(f: UniPoly, p: float, q: float) -> float:
    """Exact integral of a polynomial against t^q/(1+t)^(p+q) on (0, inf)."""
    deg = max(f.degree, 0)
    rule = WeightMPQ(p, q).rule(deg)
    return rule.integrate(f)


def integrate_wp_invexp(f: UniPoly, p: float) -> float:
    """Exact integral of a polynomial against t^-p exp(-1/t) on (0, inf)."""
    deg = max(f.degree, 0)
    rule = WeightInvExp(p).rule(deg)
    return rule.integrate(f)


# ---------------------------------------------------------------------------
# product rules: ball, solid cone, conic surface
# ---------------------------------------------------------------------------


def ball_radii(d: int, mu: float, max_degree: int):
    """Radial factor of the ball rule: the radii r and the normalized
    Gauss-Jacobi weights in u = 2r^2 - 1 (the spherical average of a
    polynomial is even in r)."""
    u_nodes, u_weights = gauss_jacobi(max_degree // 2 + 1, mu - 0.5, (d - 2) / 2.0, normalized=True)
    return np.sqrt((1.0 + u_nodes) / 2.0), u_weights


def _ball_product(radii, srule: ProductRule):
    """Points and weights of the radii crossed with the sphere rule."""
    r, weights = radii
    points = (r[:, None, None] * srule.points[None]).reshape(-1, srule.points.shape[1])
    return points, np.outer(weights, srule.weights).ravel()


def ball_rule(d: int, mu: float, max_degree: int, normalized: bool = True) -> ProductRule:
    """Rule for the unit-ball weight (1-|x|^2)^(mu-1/2); points in R^d:
    ball_radii crossed with the dimension-matched sphere rule.
    Normalized form integrates against the mass-one measure.
    """
    from .harmonics import sphere_rule  # deferred: harmonics uses ProductRule

    if mu <= -0.5:
        raise ValidityError("mu > -1/2", f"mu = {mu}")
    srule = sphere_rule(d, max_degree)
    points, weights = _ball_product(ball_radii(d, mu, max_degree), srule)
    if not normalized:
        weights = weights / ball_mass_normalization(d, mu)
    return ProductRule(
        points, weights, max_degree,
        f"ball d={d} mu={mu}" + (" [normalized]" if normalized else ""),
    )


def ball_mass_normalization(d: int, mu: float) -> float:
    """Reciprocal of the ball weight's total mass."""
    return gamma_ratio([mu + (d + 1) / 2.0], [mu + 0.5]) / math.pi ** (d / 2.0)


@dataclass(frozen=True)
class FactorRules:
    """The factors of a solid-cone or conic-surface rule.

    The point (x, t) = (t y, t) runs over the t-nodes crossed with the
    angular points y: on the solid cone y = r s with the ball's radii r
    crossed with the sphere points s, on the surface y = s (radii None).
    The t-rule carries the radial weight with the Jacobian power of t
    absorbed; every factor is normalized to mass one, and log_raw_mass is
    the log of the unnormalized measure's total mass.
    """

    t_rule: QuadRule
    radii: Optional[tuple]  # (r, weights) of ball_radii, or None
    sphere: ProductRule
    log_raw_mass: float
    exactness_degree: int
    descriptor: str

    @cached_property
    def angular(self) -> ProductRule:
        """The materialized angular rule: the ball rule or the sphere rule."""
        if self.radii is None:
            return self.sphere
        points, weights = _ball_product(self.radii, self.sphere)
        return ProductRule(points, weights, self.exactness_degree, "ball factor [normalized]")

    @property
    def total_weight(self) -> float:
        """Mass of the tensor-product rule, summed over its points."""
        return float(np.sum(np.outer(self.t_rule.weights, self.angular.weights)))

    def tensor(self, normalized: bool = True) -> ProductRule:
        """The materialized product rule, t-nodes outermost."""
        t = np.asarray(self.t_rule.nodes)
        y = self.angular.points
        dim = y.shape[1]
        points = np.empty((len(t), len(y), dim + 1))
        points[:, :, :dim] = t[:, None, None] * y[None, :, :]
        points[:, :, dim] = t[:, None]
        weights = np.outer(self.t_rule.weights, self.angular.weights).ravel()
        if not normalized:
            weights = weights * math.exp(self.log_raw_mass)
        return ProductRule(
            points.reshape(-1, dim + 1), weights, self.exactness_degree,
            self.descriptor + (" [normalized]" if normalized else ""),
        )


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
    """Normalized t-rule for weight(t) t^c and its log raw mass, after the
    integrability window of the cone or surface measure:
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
    return eff.rule(max_degree, normalized=True), eff.log_mass()


def cone_factors(d: int, mu: float, weight, max_degree: int) -> FactorRules:
    """Factors of the solid-cone rule for w(t) (t^2 - |x|^2)^(mu - 1/2).

    Separation x = t y with y in the unit ball: the radial factor absorbs
    t^(d + 2mu - 1) into the weight, the ball rule handles the inner
    integral exactly.
    """
    from .harmonics import sphere_rule

    if mu <= -0.5:
        raise ValidityError("mu > -1/2", f"mu = {mu}")
    t_rule, log_mass = _radial_factor(weight, solid_shift(d, mu), max_degree)
    return FactorRules(
        t_rule, ball_radii(d, mu, max_degree), sphere_rule(d, max_degree),
        log_mass - math.log(ball_mass_normalization(d, mu)), max_degree,
        f"solid cone d={d} mu={mu} w={weight}",
    )


def surface_factors(d: int, weight, max_degree: int) -> FactorRules:
    """Factors of the conic-surface rule for w(t) dsigma.

    Change of variables x = xi t turns the surface integral into the
    t-integral of t^(d-1) w(t) times the spherical average.
    """
    from .harmonics import sphere_rule, surface_area

    t_rule, log_mass = _radial_factor(weight, surface_shift(d), max_degree)
    return FactorRules(
        t_rule, None, sphere_rule(d, max_degree), log_mass + math.log(surface_area(d)),
        max_degree, f"conic surface d={d} w={weight}",
    )


def cone_rule(d: int, mu: float, weight, max_degree: int, normalized: bool = True) -> ProductRule:
    """Product rule on the solid cone: the tensor product of cone_factors."""
    return cone_factors(d, mu, weight, max_degree).tensor(normalized)


def surface_rule(d: int, weight, max_degree: int, normalized: bool = True) -> ProductRule:
    """Product rule on the conic surface: the tensor product of surface_factors."""
    return surface_factors(d, weight, max_degree).tensor(normalized)


def integrate_ball(d: int, mu: float, f) -> float:
    """Raw integral of f against the ball weight over the unit ball."""
    deg = max(getattr(f, "degree", 0), 0)
    return ball_rule(d, mu, deg, normalized=False).integrate(f)


def integrate_cone(d: int, mu: float, weight, f) -> float:
    """Raw integral of f(x, t) against w(t)(t^2-|x|^2)^(mu-1/2) on the cone."""
    deg = max(getattr(f, "degree", 0), 0)
    return cone_rule(d, mu, weight, deg, normalized=False).integrate(f)


def integrate_surface(d: int, weight, f) -> float:
    """Raw integral of f(x, t) against w(t) dsigma on the conic surface."""
    deg = max(getattr(f, "degree", 0), 0)
    return surface_rule(d, weight, deg, normalized=False).integrate(f)
