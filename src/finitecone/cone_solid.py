"""The finite orthogonal families on the solid cone, plus the Laguerre cone
family they degenerate to: bases, norms, Gram matrices, operator residuals,
recurrences, and limit relations.

Every cone element factorizes as radial(t) times the homogenization
t^m P(x/t) of a ball basis element of degree m.  All operator and
recurrence checks are coefficient-wise polynomial identities via polyalg;
quadrature enters only through the Gram matrices.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .ball import BallElement, ball_basis
from .errors import (
    DegenerateParamError,
    DomainError,
    FiniteConeError,
    QNotZeroError,
    ValidityError,
)
from .gram import GramResult, separable_gram, sphere_factor, t_factor
from .polyalg import MultiPoly, OperatorSpec, apply_operator
from .quadrature import Shift, cone_factors, solid_shift
from .scalars import factorial_real
from .unipoly import UniPoly
from .univariate import ShiftedRadial


@dataclass(frozen=True)
class ConeFamilyParams(ShiftedRadial):
    """Validated parameter bundle for a solid-cone family.

    family "M": weight (t^2-|x|^2)^(mu-1/2) t^q (1+t)^-(p+q), finite.
    family "N": weight (t^2-|x|^2)^(mu-1/2) t^-p exp(-1/t), finite.
    family "L": weight (t^2-|x|^2)^(mu-1/2) t^beta exp(-t), infinite.

    The radial factors are shifted by c = 2*mu + d - 1.  The L
    family keeps its own window beta > -d, narrowed to the integrability
    edge beta > -2*mu - d when mu < 0; limit_target marks an L bundle
    built as the p -> inf limit of the M family at q = beta, whose
    identities hold on the M window q > -2*mu - d instead.

    A bundle builds its operator, its p - 2 companion, each radial factor
    and each angular basis once, on first use, and hands the same objects
    to every later check.
    """

    d: int
    mu: float
    family: str
    p: Optional[float] = None
    q: Optional[float] = None
    beta: Optional[float] = None
    limit_target: bool = False

    @cached_property
    def shift(self) -> Shift:
        return solid_shift(self.d, self.mu)

    @cached_property
    def operator(self) -> OperatorSpec:
        """The family's exact operator: solid_m_operator (M, whose identity
        holds at q = 0), diffdiff_operator (N) or laguerre_operator (L)."""
        if self.family == "M":
            return solid_m_operator(self.d, self.mu, self.p)
        if self.family == "N":
            return diffdiff_operator(self.d, self.mu, self.p)
        return laguerre_operator(self.d, self.mu)

    @cached_property
    def companion(self) -> "ConeFamilyParams":
        """The N family at p - 2, which carries the companion term of the
        difference-differential identity."""
        return ConeFamilyParams(self.d, self.mu, "N", p=self.p - 2.0)

    @cached_property
    def _balls(self) -> dict:
        return {}

    def balls(self, m: int, convention: str = "orthonormal") -> tuple:
        """The degree-m ball basis elements, built once per bundle; each
        multiplies out its poly and homogenization on first read."""
        key = (m, convention)
        if key not in self._balls:
            self._balls[key] = ball_basis(self.d, self.mu, m, convention).elements
        return self._balls[key]

    def require_valid(self, n: int) -> None:
        """Validity window for orthogonality up to degree n."""
        if self.mu <= -0.5:
            raise ValidityError("mu > -1/2", f"mu = {self.mu}")
        if self.family != "L":
            super().require_valid(n)
        elif self.limit_target:
            self.require_shape(self.beta, "q")
        elif self.mu < 0:
            self.require_shape(self.beta, "beta")
        elif self.beta <= -self.d:
            raise ValidityError("beta > -d", f"beta = {self.beta}, d = {self.d}")


@dataclass(frozen=True)
class ConeBasisElement:
    n: int
    m: int
    k: int  # index within the degree-m ball basis
    radial: UniPoly
    ball: BallElement

    @property
    def label(self) -> str:
        return f"n{self.n}.m{self.m}.k{self.k}"

    @property
    def angular(self) -> MultiPoly:
        """t^m P(x/t), built on first read and shared per bundle."""
        return self.ball.homogeneous

    @cached_property
    def poly(self) -> MultiPoly:
        """radial(t) * t^m P(x/t), multiplied out on first read; no check
        of the verifier reads it."""
        return MultiPoly.from_unipoly_t(self.radial, self.angular.dim_x) * self.angular


def cone_dimension(d: int, n: int) -> int:
    """Number of degree-n basis elements on the solid cone."""
    return math.comb(n + d, n)


def cone_basis(params: ConeFamilyParams, n: int, convention: str = "orthonormal"):
    """All degree-n basis elements, one per (m, ball index), 0 <= m <= n."""
    params.require_valid(n)
    out = []
    for m in range(n + 1):
        radial = params.radial(n, m)
        for k, belem in enumerate(params.balls(m, convention)):
            out.append(ConeBasisElement(n, m, k, radial, belem))
    if len(out) != cone_dimension(params.d, n):
        raise DomainError(
            f"internal: built {len(out)} elements, expected {cone_dimension(params.d, n)}"
        )
    return tuple(out)


def expected_sq_norm(params: ConeFamilyParams, element: ConeBasisElement) -> float:
    """Predicted Gram diagonal; picks up the angular norm when the angular
    basis is not orthonormal (paper-gegenbauer convention)."""
    return params.norm(element.m, element.n) * element.ball.sq_norm


def cone_gram(
    params: ConeFamilyParams, n_max: int, convention: str = "orthonormal"
) -> GramResult:
    """Full Gram matrix of all basis elements of degree <= n_max under the
    normalized cone inner product, by exact separated quadrature.

    Each ball factor P_{m,k} splits into its radial factor at the ball's
    radii and its harmonic at the sphere nodes, so no ball polynomial is
    multiplied out; gram.separable_gram contracts the three factor Grams."""
    params.require_valid(n_max)
    elements = [
        e for n in range(n_max + 1) for e in cone_basis(params, n, convention)
    ]
    factors = cone_factors(params.d, params.mu, params.radial_weight(), 2 * n_max)
    r, r_weights = factors.radii
    return separable_gram(
        elements,
        [
            t_factor(factors.t_rule, params.values),
            (r_weights, lambda e: e.ball.radial, lambda e: e.ball.scale * e.ball.radial.values(r)),
            sphere_factor(
                factors.sphere, lambda e: (e.ball.radial.k, e.ball.l), lambda e: e.ball.harmonic
            ),
        ],
        [expected_sq_norm(params, e) for e in elements],
        abs(factors.total_weight - 1.0),
    )


# ---------------------------------------------------------------------------
# differential / difference-differential operators
# ---------------------------------------------------------------------------


def solid_m_operator(d: int, mu: float, p: float) -> OperatorSpec:
    """Second-order operator whose eigenfunctions the first family is at
    q = 0, with eigenvalue n(n - p + 2mu + d)."""
    t = MultiPoly.var_t(d)
    one = MultiPoly.const(d, 1.0)
    t_one_plus_t = t * (one + t)
    return OperatorSpec.from_pseudo(
        d,
        [
            (t_one_plus_t, "id", 2),
            ((one + t).scale(2.0), "euler", 1),
            (MultiPoly.const(d, d + 2 * mu) + t.scale(-p + 2 * mu + d + 1), "id", 1),
            (t_one_plus_t, "laplace", 0),
            ((t * t).scale(-1.0), "laplace", 0),
            (1.0, "euler2", 0),
            (2 * mu + d - p, "euler", 0),
        ],
    )


def operator_residual_m(params: ConeFamilyParams, element: ConeBasisElement) -> MultiPoly:
    """Residual of the q = 0 cone operator minus n(n - p + 2mu + d) times
    the element; coefficient-wise zero up to rounding."""
    return _element_residual(params, element, "M", "operator applies to the M family")


def diffdiff_operator(d: int, mu: float, p: float) -> OperatorSpec:
    """The mixed operator acting on the second cone family."""
    t = MultiPoly.var_t(d)
    return OperatorSpec.from_pseudo(
        d,
        [
            (t * t, "id", 2),
            (t.scale(2.0), "euler", 1),
            (t.scale(1 + 2 * mu + d - p), "id", 1),
            (2 * mu + d - p, "euler", 0),
            (1.0, "euler2", 0),
        ],
    )


def diffdiff_residual_n(params: ConeFamilyParams, element: ConeBasisElement) -> MultiPoly:
    """Residual of the difference-differential identity for the second cone
    family, including the parameter-shifted companion term: the same
    angular factor times the degree-(n-1) radial factor at p - 2."""
    return _element_residual(
        params, element, "N", "difference-differential identity applies to the N family"
    )


# ---------------------------------------------------------------------------
# the operator identities, assembled per (n, m) block by the Leibniz rule
# ---------------------------------------------------------------------------


def _angular_block(op: OperatorSpec, angular):
    """The images L_i A_k of the angular factors under op.t_split, then A_k
    itself, as x[k, a, slot, g] with a indexing alphas, the x-exponents,
    and g the total degree minus g0.  For a fixed x-exponent the total
    degree fixes the t exponent, so a factor in t alone acts along g.
    Each image is flattened into typed arrays as soon as it is computed."""
    index, values = {}, array("d")
    ks, rows, slots, degrees = array("q"), array("q"), array("q"), array("q")
    for slot, li in enumerate(op.t_split + (None,)):
        for k, a in enumerate(angular):
            terms = (a if li is None else apply_operator(li, a)).terms
            ks.extend([k] * len(terms))
            slots.extend([slot] * len(terms))
            rows.extend([index.setdefault(e[:-1], len(index)) for e in terms])
            degrees.extend(map(sum, terms))
            values.extend(terms.values())
    ks, rows, slots, degrees = (np.frombuffer(c, dtype=np.int64) for c in (ks, rows, slots, degrees))
    g0 = int(degrees.min())
    x = np.zeros((len(angular), len(index), len(op.t_split) + 1, int(degrees.max()) - g0 + 1))
    x[ks, rows, slots, degrees - g0] = np.frombuffer(values)
    return x, list(index), g0


def _block_residuals(params: ConeFamilyParams, m: int, ns, x) -> np.ndarray:
    """sum_i R^(i) L_i A_k + s A_k for each n in ns as coefficients [k, a,
    n, g], R the (n, m) radial factor: every product in t is one Toeplitz
    matrix along g, so the whole block is one matrix product.  s is
    -n(n - p + 2mu + d) R for M, that plus (n - m)(p - 2mu - m - n - d)
    times the p - 2 companion for N, and n R for L; the M and L
    eigenvalues hold at q = 0 and beta = 0 only."""
    d, mu, p = params.d, params.mu, params.p
    if params.family == "M" and params.q != 0:
        raise QNotZeroError("the second-order operator has degree-only eigenvalues just for q = 0")
    if params.family == "L" and params.beta != 0.0:
        raise DomainError("the degree-only eigenvalue holds at beta = 0")
    k, n_alpha, slots, width = x.shape
    length = ns[-1] - m + 1
    rows = []
    for n in ns:
        factors = [params.radial(n, m)]
        while len(factors) < slots - 1:
            factors.append(factors[-1].derivative())
        source = factors[0].scale(n if params.family == "L" else -n * (n - p + 2 * mu + d))
        if params.family == "N" and n > m:
            params.companion.require_valid(n - 1)
            comp = params.companion.radial(n - 1, m)
            source = source + comp.scale((n - m) * (p - 2 * mu - m - n - d))
        rows.append([f.coeffs + (0.0,) * (length - len(f.coeffs)) for f in factors + [source]])
    g, j = np.arange(width)[:, None], np.arange(length)
    toeplitz = np.zeros((slots, width, len(ns), width + length - 1))
    toeplitz[:, g, :, g + j] = np.transpose(rows, (2, 1, 0))
    out = x.reshape(k * n_alpha, -1) @ toeplitz.reshape(slots * width, -1)
    return out.reshape(k, n_alpha, len(ns), -1)


def identity_residuals(params: ConeFamilyParams, n_max: int, convention: str = "orthonormal"):
    """Yield (element, residual, carrier) per element of degree <= n_max, in
    basis order: the largest coefficient of the family's identity residual
    and max|R| max|A_k|, that of R A_k, whose coefficients are single
    products.  R A_k is never multiplied out, and each m's block is freed
    once its rows are computed.  A degree outside the window raises after
    the rows of the degrees below it, as a loop over elements would."""
    bases, error = [], None
    try:
        for n in range(n_max + 1):
            bases.append(cone_basis(params, n, convention))
    except FiniteConeError as exc:
        error = exc
    worst = {}
    for m in range(len(bases)):
        angular = [b.homogeneous for b in params.balls(m, convention)]
        angular_max = [a.max_abs_coeff() for a in angular]
        ns = range(m, len(bases))
        residual = _block_residuals(params, m, ns, _angular_block(params.operator, angular)[0])
        residual = np.abs(residual, out=residual).max(axis=(1, 3)).T.tolist()
        for n, res in zip(ns, residual):
            radial_max = params.radial(n, m).max_abs()
            worst[n, m] = [(r, radial_max * a) for r, a in zip(res, angular_max)]
    for el in (el for basis in bases for el in basis):
        yield (el, *worst[el.n, el.m][el.k])
    if error is not None:
        raise error


def _element_residual(params, element, family: str, wrong_family: str) -> MultiPoly:
    """One element's identity residual: its (n, m) block on its own A_k."""
    if params.family != family:
        raise DomainError(wrong_family)
    x, alphas, g0 = _angular_block(params.operator, [element.angular])
    res = _block_residuals(params, element.m, [element.n], x)[0, :, 0].tolist()
    return MultiPoly(params.d, {
        alpha + (g,): c
        for alpha, row in zip(alphas, res)
        for g, c in enumerate(row, start=g0 - sum(alpha))
        if c != 0.0
    })


# ---------------------------------------------------------------------------
# three-term recurrences in the total degree
# ---------------------------------------------------------------------------


def recurrence_coefficients(params: ConeFamilyParams, n: int, m: int, variant: str = "derived"):
    """Coefficients (A, B, C) with element_{n+1} = (A t + B) element_n - C element_{n-1}.

    variant "stated" is the closed form as printed; variant "derived" is the
    same coefficients re-derived by parameter substitution in the univariate
    recurrence.  For the M family the two differ in B by the factor
    (p - 2n - 2mu - d) / (p - m - n - 2mu - d); the derived variant is the
    one validated against the Rodrigues oracle (see the repository notes on
    known-discrepancies).  For the N family both variants coincide.
    """
    d, mu = params.d, params.mu
    if params.family == "M":
        p, q = params.p, params.q
        for den in (p - m - n - 2 * mu - d, p - 2 * mu - d - 2 * n + 1):
            if den == 0.0:
                raise DegenerateParamError(f"vanishing recurrence denominator at (n,m)=({n},{m})")
        a = (p - 2 * n - 2 * mu - d) * (p - 2 * n - 2 * mu - d - 1) / (p - m - n - 2 * mu - d)
        b = (
            2 * (n - m) * (n - m + 1) - (p - 2 * m - 2 * mu - d + 1) * (d + q + 2 * mu + 2 * n)
        ) / (p - 2 * mu - d - 2 * n + 1)
        if variant == "derived":
            b *= (p - 2 * n - 2 * mu - d) / (p - m - n - 2 * mu - d)
        elif variant != "stated":
            raise DomainError(f"unknown variant {variant!r}")
        c = (
            (n - m) * (p - 2 * mu - d - 2 * n - 1) / (p - m - 2 * mu - d - n)
            * (p + q - n + m) * (d + q + 2 * mu + m + n - 1) / (p - 2 * mu - d - 2 * n + 1)
        )
        return a, b, c
    if params.family == "N":
        p = params.p
        for den in (p - 2 * mu - m - n - d, p - 2 * mu - 2 * n - d + 1):
            if den == 0.0:
                raise DegenerateParamError(f"vanishing recurrence denominator at (n,m)=({n},{m})")
        a = (p - 2 * mu - 2 * n - d - 1) * (p - 2 * mu - 2 * n - d) / (p - 2 * mu - m - n - d)
        b = -(
            (p - 2 * mu - 2 * m - d + 1) * (p - 2 * mu - 2 * n - d)
        ) / ((p - 2 * mu - m - n - d) * (p - 2 * mu - 2 * n - d + 1))
        c = (n - m) * (p - 2 * mu - 2 * n - d - 1) / (
            (p - 2 * mu - m - n - d) * (p - 2 * mu - 2 * n - d + 1)
        )
        return a, b, c
    raise DomainError("recurrence coefficients exist for the M and N families")


def recurrence_residual(
    params: ConeFamilyParams,
    n: int,
    m: int,
    ball_index: int = 0,
    variant: str = "derived",
) -> float:
    """Max-abs residual of the total-degree three-term recurrence, relative
    to the degree-(n+1) element, with Rodrigues-built radial parts."""
    if n < m + 1:
        raise DomainError("recurrence check needs n >= m + 1")
    params.require_valid(n + 1)
    ang = params.balls(m)[ball_index].homogeneous
    d = params.d

    def elem(k: int) -> MultiPoly:
        radial = params.radial(k, m, "rodrigues")
        return MultiPoly.from_unipoly_t(radial, d) * ang

    e_prev, e_cur, e_next = elem(n - 1), elem(n), elem(n + 1)
    t = MultiPoly.var_t(d)
    if params.family == "L":
        mu, beta = params.mu, params.beta
        lhs = e_next.scale(n - m + 1)
        rhs = e_cur.scale(d + beta + 2 * mu + 2 * n) - t * e_cur - e_prev.scale(
            d + beta + 2 * mu + m + n - 1
        )
        residual = lhs - rhs
        return residual.rel_residual_against(e_next.scale(n - m + 1))
    a, b, c = recurrence_coefficients(params, n, m, variant)
    residual = e_next - (t.scale(a) * e_cur + e_cur.scale(b)) + e_prev.scale(c)
    return residual.rel_residual_against(e_next)


# ---------------------------------------------------------------------------
# Laguerre cone family: limit target and its own identities
# ---------------------------------------------------------------------------


def laguerre_operator(d: int, mu: float) -> OperatorSpec:
    """Second-order operator with eigenvalue -n on the Laguerre cone family
    at beta = 0."""
    t = MultiPoly.var_t(d)
    return OperatorSpec.from_pseudo(
        d,
        [
            (t, "laplace", 0),
            (t, "id", 2),
            (2.0, "euler", 1),
            (-1.0, "euler", 0),
            (MultiPoly.const(d, 2 * mu + d) - t, "id", 1),
        ],
    )


def laguerre_pde_residual(params: ConeFamilyParams, element: ConeBasisElement) -> MultiPoly:
    """Residual of the beta = 0 Laguerre cone operator plus n times the
    element; coefficient-wise zero up to rounding."""
    return _element_residual(params, element, "L", "the degree-only eigenvalue holds at beta = 0")


def _directions(d: int):
    if d == 1:
        return [(1.0,), (-1.0,), (1.0,), (-1.0,), (1.0,)]
    if d == 2:
        return [
            (math.cos(2 * math.pi * k / 5 + 0.37), math.sin(2 * math.pi * k / 5 + 0.37))
            for k in range(5)
        ]
    out = []
    for k in range(5):
        z = -0.8 + 0.4 * k
        s = math.sqrt(1.0 - z * z)
        phi = 2.39996322972865332 * (k + 1)
        out.append((s * math.cos(phi), s * math.sin(phi), z))
    return out


@functools.cache
def cone_sample_grid(d: int) -> np.ndarray:
    """Deterministic evaluation grid: interior and near-boundary points of
    the cone over five heights.  Built once per d and process, read-only."""
    pts = []
    for t in (0.4, 0.8, 1.2, 1.6, 2.0):
        for xi in _directions(d):
            for c in (0.3, 0.9):
                pts.append([c * t * x for x in xi] + [t])
    grid = np.asarray(pts)
    grid.setflags(write=False)
    return grid


def _p_scaled(poly: MultiPoly, p: float, m: int) -> MultiPoly:
    """p^m f(x/p, t/p): every term of total degree g picks up p^(m-g)."""
    return MultiPoly(
        poly.dim_x, {e: c * p ** (m - sum(e)) for e, c in poly.terms.items()}
    )


@dataclass(frozen=True)
class LimitReport:
    n: int
    m: int
    p_values: tuple
    deviations: tuple
    exponent: object  # float, or the string "exact"


def limit_to_laguerre(
    params: ConeFamilyParams, n: int, m: int, ball_index: int = 0, p_grid=(1e2, 1e3, 1e4)
) -> LimitReport:
    """Deviation between the rescaled M-family element and its Laguerre cone
    target across a grid of p values, with the fitted 1/p decay exponent."""
    from .verifier import convergence_fit

    if params.family != "M":
        raise DomainError("the limit relation starts from the M family")
    d, mu, q = params.d, params.mu, params.q
    ang = params.balls(m)[ball_index].homogeneous
    params.require_shape(q, "q")
    target_radial = ConeFamilyParams(d, mu, "L", beta=q, limit_target=True).radial(n, m)
    sign = -1.0 if (n - m) % 2 else 1.0
    target = (MultiPoly.from_unipoly_t(target_radial, d) * ang).scale(
        sign * factorial_real(n - m)
    )
    grid = cone_sample_grid(d)
    target_vals = target.evaluate_many(grid)
    deviations = []
    for p in p_grid:
        trial = ConeFamilyParams(d, mu, "M", p=float(p), q=q)
        trial.require_valid(n)
        poly = MultiPoly.from_unipoly_t(trial.radial(n, m), d) * ang
        scaled = _p_scaled(poly, float(p), m)
        deviations.append(float(np.max(np.abs(scaled.evaluate_many(grid) - target_vals))))
    exponent = convergence_fit(list(zip(p_grid, deviations)))
    return LimitReport(n, m, tuple(float(p) for p in p_grid), tuple(deviations), exponent)


def laguerre_cone_checks(
    d: int, mu: float, n_max: int, beta: float = 0.0, limit_target: bool = False
):
    """Operator and recurrence residuals for the Laguerre cone family.

    Returns a list of (name, relative residual) pairs; all should sit at
    rounding level.  limit_target checks the family as the limit of the M
    family at q = beta, on the M window (see ConeFamilyParams).
    """
    params = ConeFamilyParams(d, mu, "L", beta=beta, limit_target=limit_target)
    out = []
    if beta == 0.0:
        for el, residual, carrier in identity_residuals(params, n_max):
            out.append((f"laguerre-pde/{el.label}", residual / carrier))
    for m in range(n_max):
        for n in range(m + 1, n_max):
            out.append(
                (f"laguerre-recurrence/n{n}.m{m}", recurrence_residual(params, n, m))
            )
    return out
