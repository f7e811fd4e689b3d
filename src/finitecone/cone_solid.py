"""The finite orthogonal families on the solid cone, plus the Laguerre cone
family they degenerate to: bases, norms, Gram matrices, operator residuals,
recurrences, and limit relations.

Every cone element factorizes as radial(t) times the homogenization
t^m P(x/t) of a ball basis element of degree m.  The operator checks are
coefficient-wise polynomial identities via polyalg; the recurrence and
limit checks are identities in t alone, with the angular factor divided
out.  Quadrature enters only through the Gram matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
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
from .polyalg import MultiPoly, OperatorSpec, apply_table, euler_operator, key_digits, term_table
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

    A bundle builds its operator, its p - 2 companion and its radial
    factors once, on first use, and hands the same objects to every later
    check; ball_basis caches the angular bases.
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

    def balls(self, m: int, convention: str = "orthonormal") -> tuple:
        """The degree-m ball basis elements (cached per process); each
        multiplies out its poly and homogenization on first read."""
        return ball_basis(self.d, self.mu, m, convention).elements

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
        """t^m P(x/t), built on first read and kept by the ball_basis cache."""
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


_CHUNK_TERMS = 2**12  # angular terms per apply_table call, unless one m has more


def _angular_blocks(op: OperatorSpec, groups):
    """Per group of angular factors (one m each), the images L_i A_k under
    op.t_split, then A_k itself, as (x[k, a, slot, g], alphas, g0): a
    indexes alphas, the x-exponents, and g the total degree minus g0.  For
    a fixed x-exponent the total degree fixes the t exponent, so a factor
    in t alone acts along g.  apply_table runs once per L_i over each chunk
    of consecutive groups with at most _CHUNK_TERMS terms (or one group),
    which bounds the tables held at once."""
    ends = np.cumsum([0] + [sum(len(a.terms) for a in group) for group in groups])
    lo = 0
    while lo < len(groups):
        # the groups that end within _CHUNK_TERMS terms of group lo's start, or lo alone
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _CHUNK_TERMS, side="right")) - 1)
        yield from _chunk_blocks(op, groups[lo:hi])
        lo = hi


def _chunk_blocks(op: OperatorSpec, groups):
    """_angular_blocks on one chunk; a group's block is filled when it is
    asked for, and of the tables only each term's place in its block is
    kept until then."""
    ids, exps, coeffs = term_table([a for group in groups for a in group], op.dim_x)
    tables = [apply_table(li, ids, exps, coeffs) for li in op.t_split] + [(ids, exps, coeffs)]
    slots = np.repeat(np.arange(len(tables)), [len(table[0]) for table in tables])
    ids, exps, coeffs = (np.concatenate(column) for column in zip(*tables))
    del tables  # the concatenated columns replace them
    order = np.argsort(ids, kind="stable")
    ids, exps, coeffs, slots = ids[order], exps[order], coeffs[order], slots[order]
    # per group its first factor, first term and first alpha; per term its group
    first = np.cumsum([0] + [len(group) for group in groups])
    rows = np.searchsorted(ids, first)
    group = np.searchsorted(first, ids, side="right") - 1
    radix = int(exps.max(initial=0)) + 1
    digits = key_digits(len(groups), radix, op.dim_x)
    codes, alpha = np.unique(group * digits[-1] + exps[:, :-1] @ digits[:-1], return_inverse=True)
    alpha0 = np.searchsorted(codes, np.arange(len(first)) * digits[-1])
    degrees = exps.sum(axis=1)
    g0 = np.minimum.reduceat(degrees, rows[:-1])
    shapes = np.stack([np.diff(first), np.diff(alpha0), np.full(len(groups), len(op.t_split) + 1),
                       np.maximum.reduceat(degrees, rows[:-1]) - g0 + 1], axis=1)
    place = ((ids - first[group]) * shapes[group, 1] + alpha - alpha0[group]) * shapes[group, 2] + slots
    place = place * shapes[group, 3] + degrees - g0[group]
    alphas = codes[:, None] // digits[:-1] % radix
    # every cell holds one term, so bincount writes each coefficient to its place
    return ((np.bincount(place[lo:hi], coeffs[lo:hi], shape.prod()).reshape(shape), alphas[a:b], int(g))
            for lo, hi, shape, a, b, g in zip(rows, rows[1:], shapes, alpha0, alpha0[1:], g0))


def homogeneity_residuals(params: ConeFamilyParams, n_max: int, convention: str = "orthonormal"):
    """Per degree n <= n_max the largest relative Euler residual
    max|E A - m A| / max|A| over the angular factors A of the degrees m <= n,
    bit for bit (apply_operator(E, A) - A.scale(m)).rel_residual_against(A).
    One apply_table call gives every E A; the identity operator applied to
    the table of E A followed by that of -m A adds each monomial's two parts
    in that order."""
    groups = [params.balls(m, convention) for m in range(n_max + 1)]
    ids, exps, coeffs = term_table([b.homogeneous for group in groups for b in group], params.d)
    m = np.repeat(np.arange(n_max + 1), [len(group) for group in groups])
    image = apply_table(euler_operator(params.d), ids, exps, coeffs)
    table = map(np.concatenate, zip(image, (ids, exps, -1.0 * (m[ids] * coeffs))))
    residual_ids, _, residual = apply_table(OperatorSpec.from_pseudo(params.d, [(1.0, "id", 0)]), *table)
    # per factor: the largest residual term (none: 0) and the largest term of A
    worst, starts = np.zeros(len(m)), np.flatnonzero(np.diff(residual_ids, prepend=-1))
    worst[residual_ids[starts]] = np.maximum.reduceat(np.abs(residual), starts)
    rel = worst / np.maximum.reduceat(np.abs(coeffs), np.searchsorted(ids, np.arange(len(m))))
    per_m = np.maximum.reduceat(rel, np.searchsorted(m, np.arange(n_max + 1)))
    return np.maximum.accumulate(per_m).tolist()


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
    groups = [[b.homogeneous for b in params.balls(m, convention)] for m in range(len(bases))]
    blocks = _angular_blocks(params.operator, groups)
    for m, angular in enumerate(groups):
        angular_max = [a.max_abs_coeff() for a in angular]
        ns = range(m, len(bases))
        # no name holds the block, so it is freed before the next one is built
        residual = _block_residuals(params, m, ns, next(blocks)[0])
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
    ((x, alphas, g0),) = _angular_blocks(params.operator, [[element.angular]])
    res = _block_residuals(params, element.m, [element.n], x)[0, :, 0].tolist()
    return MultiPoly(params.d, {
        alpha + (g,): c
        for alpha, row in zip(map(tuple, alphas.tolist()), res)
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
    known-discrepancies).  For the N family both variants coincide, and so
    they do for the L family, whose recurrence is (n - m + 1) element_{n+1}
    = (2n + beta + 2mu + d - t) element_n - (n + m + beta + 2mu + d - 1)
    element_{n-1}.
    """
    if variant not in ("derived", "stated"):
        raise DomainError(f"unknown variant {variant!r}")
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
    shape, lead = d + params.beta + 2 * mu, n - m + 1
    return -1.0 / lead, (shape + 2 * n) / lead, (shape + m + n - 1) / lead


def recurrence_residual(params: ConeFamilyParams, n: int, m: int, variant: str = "derived") -> float:
    """Max-abs residual of the total-degree three-term recurrence, relative
    to the degree-(n+1) element, with Rodrigues-built radial parts (the
    explicit Laguerre sum for L).

    The three elements R_k A of a row share their angular factor A, a
    ball element homogenized to degree m, so the residual is r A with
    r = R_{n+1} - (a t + b) R_n + c R_{n-1}.  A is homogeneous of degree m
    (dims/homogeneity certifies it), so t^i A and t^j A share no monomial
    for i != j: every coefficient of r A is a single product r_i A_alpha,
    and max|r A| / max|R_{n+1} A| = max|r| / max|R_{n+1}|, whichever ball
    element A is.  So no angular factor is read."""
    if n < m + 1:
        raise DomainError("recurrence check needs n >= m + 1")
    params.require_valid(n + 1)
    a, b, c = recurrence_coefficients(params, n, m, variant)
    prev, cur, nxt = (params.radial(k, m, "rodrigues") for k in (n - 1, n, n + 1))
    residual = nxt - (cur.shift_up().scale(a) + cur.scale(b)) + prev.scale(c)
    return residual.rel_residual_against(nxt)


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


@dataclass(frozen=True)
class LimitReport:
    n: int
    m: int
    p_values: tuple
    deviations: tuple
    exponent: object  # float, or the string "exact"


def laguerre_limit(
    params: ShiftedRadial, n: int, m: int, angular: MultiPoly, grid, p_grid
) -> LimitReport:
    """Deviation between the rescaled M-family element R A of a cone or
    surface bundle and its Laguerre target (-1)^(n-m) (n-m)! L A across
    p_grid, with the fitted 1/p decay exponent; angular is the domain's
    first degree-m angular factor A and grid its sample points.

    Each element is R(t) A by construction, and A is homogeneous of degree
    m (dims/homogeneity certifies it for the ball factors; a harmonic is
    homogeneous in x), so p^m (R A)(x/p, t/p) = R(t/p) A: the deviation is
    (R(t/p) - target(t)) A at the grid, a difference in t alone."""
    from .verifier import convergence_fit

    if params.family != "M":
        raise DomainError("the limit relation starts from the M family")
    params.require_shape(params.q, "q")
    sign = -1.0 if (n - m) % 2 else 1.0
    target = replace(params, family="L", p=None, q=None, beta=params.q).radial(n, m)
    target = target.scale(sign * factorial_real(n - m))
    t, angular_vals = grid[:, -1], angular.evaluate_many(grid)
    deviations = []
    for p in p_grid:
        trial = replace(params, p=float(p))
        trial.require_valid(n)
        radial = trial.radial(n, m)
        scaled = UniPoly(tuple(c * float(p) ** (-k) for k, c in enumerate(radial.coeffs)))
        deviations.append(float(np.max(np.abs((scaled - target)(t) * angular_vals))))
    exponent = convergence_fit(list(zip(p_grid, deviations)))
    return LimitReport(n, m, tuple(float(p) for p in p_grid), tuple(deviations), exponent)


def limit_to_laguerre(
    params: ConeFamilyParams, n: int, m: int, p_grid=(1e2, 1e3, 1e4)
) -> LimitReport:
    """laguerre_limit on the solid cone: the angular factor is the first
    degree-m ball element homogenized, t^m P(x/t)."""
    angular = params.balls(m)[0].homogeneous
    return laguerre_limit(params, n, m, angular, cone_sample_grid(params.d), p_grid)


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
