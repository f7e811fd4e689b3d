"""One-variable polynomial families: the two finite classes on [0, inf),
plus Jacobi, Laguerre and Gegenbauer building blocks.

The finite families come with two independent construction paths:

* the three-term recurrence (primary evaluation path), and
* the Rodrigues formula expanded term by term (oracle path).

Both are exposed so every identity can be cross-checked; the Laguerre
family's oracle is its explicit sum.  The norms take Gamma ratios only at
integer offsets, so they are finite products of per-step quotients, which
stay in range and accurate however large the parameters are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import DegenerateParamError, DomainError, ValidityError
from .quadrature import Shift, WeightGammaExp, WeightInvExp, WeightMPQ
from .scalars import factorial_real, gamma_fn, pochhammer
from .unipoly import UniPoly, fsum_build


@dataclass(frozen=True)
class MParams:
    """Parameters (p, q) of the first finite class, weight x^q / (1+x)^(p+q)."""

    p: float
    q: float

    def require_valid(self, n: int) -> None:
        """Orthogonality up to degree n holds iff p > 2n+1 and q > -1."""
        if self.p <= 2 * n + 1:
            raise ValidityError("p > 2N+1", f"p = {self.p}, N = {n}")
        if self.q <= -1:
            raise ValidityError("q > -1", f"q = {self.q}")

    @property
    def max_degree(self) -> int:
        """Largest degree the family is orthogonal up to (may be -1)."""
        return largest_degree(self.p)


@dataclass(frozen=True)
class NParams:
    """Parameter p of the second finite class, weight x^(-p) exp(-1/x)."""

    p: float

    def require_valid(self, n: int) -> None:
        if self.p <= 2 * n + 1:
            raise ValidityError("p > 2N+1", f"p = {self.p}, N = {n}")

    @property
    def max_degree(self) -> int:
        return largest_degree(self.p)


def largest_degree(p: float) -> int:
    """Largest n with p > 2n + 1 (may be -1): the degree a finite class at
    parameter p stays orthogonal up to.  A cone or surface family passes
    its p shifted by c."""
    n = math.ceil((p - 1) / 2) - 1
    while p <= 2 * n + 1:
        n -= 1
    return n


def _check_step(p: float, k: int) -> None:
    """Recurrence step k divides by (p - (k+1)) and (p - 2k)."""
    if p - (k + 1) == 0.0 or p - 2 * k == 0.0:
        raise DegenerateParamError(f"recurrence denominator vanishes at step {k}: p = {p}")


def _m_step(p: float, q: float, k: int):
    _check_step(p, k)
    a = (p - (2 * k + 1)) * (p - (2 * k + 2)) / (p - (k + 1))
    b = (p - (2 * k + 1)) * (2 * k * (k + 1) - p * (q + 2 * k + 1)) / (
        (p - (k + 1)) * (p - 2 * k)
    )
    c = k * (p - (2 * k + 2)) * (p + q - k) * (q + k) / ((p - (k + 1)) * (p - 2 * k))
    return a, b, c


def _n_step(p: float, k: int):
    _check_step(p, k)
    a = (p - (2 * k + 2)) * (p - (2 * k + 1)) / (p - (k + 1))
    b = -p * (p - (2 * k + 1)) / ((p - (k + 1)) * (p - 2 * k))
    c = k * (p - (2 * k + 2)) / ((p - (k + 1)) * (p - 2 * k))
    return a, b, c


def eval_m(n: int, params: MParams, x: float) -> float:
    """First-class finite polynomial value by forward recurrence."""
    p, q = params.p, params.q
    if n == 0:
        return 1.0
    prev, cur = 1.0, (p - 2) * x - (q + 1)
    for k in range(1, n):
        a, b, c = _m_step(p, q, k)
        prev, cur = cur, (a * x + b) * cur - c * prev
    return cur


def eval_n(n: int, params: NParams, x: float) -> float:
    """Second-class finite polynomial value by forward recurrence."""
    p = params.p
    if n == 0:
        return 1.0
    prev, cur = 1.0, (p - 2) * x - 1.0
    for k in range(1, n):
        a, b, c = _n_step(p, k)
        prev, cur = cur, (a * x + b) * cur - c * prev
    return cur


class _Chain:
    """The members P_0 = 1, P_1 = first, P_2, ... of a three-term recurrence,
    P_(k+1) = step(k, P_(k-1), P_k), each computed once, on first request.
    A step that raises (a vanishing denominator) adds no member, so it
    raises again for every later degree."""

    def __init__(self, first: UniPoly, step):
        self.members, self.step = [UniPoly.one(), first], step

    def __getitem__(self, n: int) -> UniPoly:
        while len(self.members) <= n:
            self.members.append(self.step(len(self.members) - 1, *self.members[-2:]))
        return self.members[n]


def _three_term(prev: UniPoly, cur: UniPoly, a: float, b: float, c: float) -> UniPoly:
    """(a x + b) cur - c prev, the step of the two finite classes."""
    return cur.shift_up().scale(a) + cur.scale(b) - prev.scale(c)


def _m_chain(params: MParams) -> _Chain:
    p, q = params.p, params.q
    return _Chain(UniPoly((-(q + 1.0), p - 2.0)),
                  lambda k, prev, cur: _three_term(prev, cur, *_m_step(p, q, k)))


def _n_chain(params: NParams) -> _Chain:
    p = params.p
    return _Chain(UniPoly((-1.0, p - 2.0)),
                  lambda k, prev, cur: _three_term(prev, cur, *_n_step(p, k)))


def _laguerre_chain(alpha: float) -> _Chain:
    if alpha <= -1:
        raise ValidityError("alpha > -1", f"alpha = {alpha}")
    return _Chain(UniPoly((alpha + 1.0, -1.0)), lambda k, prev, cur: (
        cur.scale(2 * k + alpha + 1) - cur.shift_up() - prev.scale(k + alpha)).scale(1.0 / (k + 1)))


def coeffs_m(n: int, params: MParams) -> UniPoly:
    """Coefficient vector of the first-class polynomial (recurrence path)."""
    return _m_chain(params)[n]


def coeffs_n(n: int, params: NParams) -> UniPoly:
    """Coefficient vector of the second-class polynomial (recurrence path)."""
    return _n_chain(params)[n]


def coeffs_m_rodrigues(n: int, params: MParams) -> UniPoly:
    """First-class coefficients from the Rodrigues product, expanded exactly.

    The n-th derivative of x^(n+q) (1+x)^(n-p-q) is accumulated as a table of
    x^(n+q-i) (1+x)^(n-p-q-j) terms (i+j = n); multiplying by the prefactor
    (-1)^n (1+x)^(p+q) x^(-q) leaves x^(n-i) (1+x)^(n-j), which is expanded
    binomially with exact summation.  Independent of the recurrence path.
    """
    p, q = params.p, params.q
    terms = {(0, 0): 1.0}
    for _ in range(n):
        new: dict = {}
        for (i, j), c in terms.items():
            new[(i + 1, j)] = new.get((i + 1, j), 0.0) + c * (n + q - i)
            new[(i, j + 1)] = new.get((i, j + 1), 0.0) + c * (n - p - q - j)
        terms = new
    sign = -1.0 if n % 2 else 1.0
    pairs = []
    for (i, j), c in terms.items():
        for k in range(n - j + 1):
            pairs.append(((n - i) + k, sign * c * math.comb(n - j, k)))
    return fsum_build(pairs, n + 1)


def coeffs_n_rodrigues(n: int, params: NParams) -> UniPoly:
    """Second-class coefficients from the Rodrigues product.

    Each derivative of x^a exp(-1/x) contributes a x^(a-1) + x^(a-2); after n
    passes the prefactor x^p exp(1/x) shifts every exponent into 0..n.
    """
    p = params.p
    terms = {0: 1.0}  # offset from 2n - p
    for step in range(n):
        new: dict = {}
        for off, c in terms.items():
            b = (2 * n - p) + off
            new[off - 1] = new.get(off - 1, 0.0) + c * b
            new[off - 2] = new.get(off - 2, 0.0) + c
        terms = new
    sign = -1.0 if n % 2 else 1.0
    pairs = [(2 * n + off, sign * c) for off, c in terms.items()]
    return fsum_build(pairs, n + 1)


def norm_m(n: int, params: MParams) -> float:
    """Norm square h_n under the normalized first-class inner product,
    n! (q+1)_n Gamma(p-n) Gamma(p+q) / (Gamma(p-1) Gamma(p+q-n) (p-2n-1)),
    as a product of one quotient per step."""
    params.require_valid(n)
    p, q = params.p, params.q
    steps = range(1, n + 1)
    return (p - 1) / (p - 2 * n - 1) * math.prod(j * (q + j) / (p - j) * (p + q - j) for j in steps)


def norm_n(n: int, params: NParams) -> float:
    """Norm square h_n under the normalized second-class inner product,
    n! Gamma(p-n) / (Gamma(p-1) (p-2n-1)), as a product of one quotient
    per step."""
    params.require_valid(n)
    p = params.p
    return (p - 1) / (p - 2 * n - 1) * math.prod(j / (p - j) for j in range(1, n + 1))


def ode_residual_m(n: int, params: MParams) -> UniPoly:
    """Residual of x(1+x) y'' + ((2-p)x + (1+q)) y' - n(n+1-p) y."""
    p, q = params.p, params.q
    y = coeffs_m(n, params)
    y1 = y.derivative()
    y2 = y1.derivative()
    res = (
        y2.shift_up(1)
        + y2.shift_up(2)
        + y1.shift_up(1).scale(2 - p)
        + y1.scale(1 + q)
        - y.scale(n * (n + 1 - p))
    )
    return res


def ode_residual_n(n: int, params: NParams) -> UniPoly:
    """Residual of x^2 y'' + ((2-p)x + 1) y' - n(n+1-p) y."""
    p = params.p
    y = coeffs_n(n, params)
    y1 = y.derivative()
    y2 = y1.derivative()
    return (
        y2.shift_up(2)
        + y1.shift_up(1).scale(2 - p)
        + y1
        - y.scale(n * (n + 1 - p))
    )


def derivative_relation_residual(family: str, n: int, params, source: str = "recurrence") -> UniPoly:
    """Residual of the parameter-shifting derivative identity.

    d/dx of the degree-n member equals n (p-(n+1)) times the degree-(n-1)
    member at shifted parameters (p-2, q+1) resp. p-2.
    """
    if n < 1:
        raise DomainError("derivative relation needs n >= 1")
    if family == "M":
        build = coeffs_m if source == "recurrence" else coeffs_m_rodrigues
        lhs = build(n, params).derivative()
        shifted = MParams(params.p - 2.0, params.q + 1.0)
        rhs = build(n - 1, shifted).scale(n * (params.p - (n + 1)))
    elif family == "N":
        build = coeffs_n if source == "recurrence" else coeffs_n_rodrigues
        lhs = build(n, params).derivative()
        rhs = build(n - 1, NParams(params.p - 2.0)).scale(n * (params.p - (n + 1)))
    else:
        raise DomainError(f"unknown family {family!r}")
    return lhs - rhs


def laguerre_limit_error_m(n: int, q: float, x: float, p_grid) -> list:
    """|M_n at x/p minus the scaled Laguerre target| per grid value of p.

    The target is (-1)^n n! L_n^(q)(x); the error decays like 1/p.
    """
    trials = [MParams(float(p), q) for p in p_grid]
    for params in trials:  # names q > -1 before the target's alpha > -1
        params.require_valid(n)
    target = (-1.0) ** n * factorial_real(n) * eval_laguerre(n, q, x)
    return [abs(eval_m(n, params, x / params.p) - target) for params in trials]


# ---------------------------------------------------------------------------
# the shifted radial family of the solid cone and the conic surface
# ---------------------------------------------------------------------------


class ShiftedRadial:
    """The radial side of a family on the solid cone or the conic surface.

    The degree-n element of angular degree m carries the degree-(n - m)
    member of a univariate class at parameters shifted by c + 2m: M at
    (p - c - 2m, q + c + 2m), N at p - c - 2m, Laguerre at exponent
    beta + c + 2m, with c the domain's Shift.  So every window is the
    univariate one at m = 0: p > 2N + c + 1, q > -(c + 1), beta > -(c + 1).

    Mixed into frozen dataclasses with the fields family, p, q and beta
    and a shift property.
    """

    family: str
    p: Optional[float]
    q: Optional[float]
    beta: Optional[float]
    shift: Shift

    def __post_init__(self):
        if self.family not in ("M", "N", "L"):
            raise DomainError(f"unknown family {self.family!r}")
        if self.family == "M" and (self.p is None or self.q is None):
            raise DomainError("M family needs p and q")
        if self.family == "N" and self.p is None:
            raise DomainError("N family needs p")
        if self.family == "L" and self.beta is None:
            raise DomainError("L family needs beta")

    def require_shape(self, value: float, name: str) -> None:
        """The window value > -(c + 1) of q (M) or beta (L), named name."""
        if value + self.shift.c <= -1:
            raise ValidityError(
                f"{name} > {self.shift.minus}", f"{name} = {value}, {self.shift.context}"
            )

    def require_valid(self, n: int) -> None:
        """Validity window for orthogonality up to degree n."""
        if self.family != "L" and self.p - self.shift.c <= 2 * n + 1:
            raise ValidityError(
                f"p > 2N + {self.shift.plus}", f"p = {self.p}, N = {n}, {self.shift.context}"
            )
        if self.family == "M":
            self.require_shape(self.q, "q")
        elif self.family == "L":
            self.require_shape(self.beta, "beta")

    @property
    def max_degree(self) -> Optional[int]:
        """Finite-orthogonality ceiling; None when unbounded (L family)."""
        return None if self.family == "L" else largest_degree(self.p - self.shift.c)

    def radial_weight(self):
        if self.family == "M":
            return WeightMPQ(self.p, self.q)
        if self.family == "N":
            return WeightInvExp(self.p)
        return WeightGammaExp(self.beta)

    def _shifted(self, m: int):
        """Univariate parameters of the radial factor at angular degree m
        (a Laguerre exponent for the L family)."""
        c = self.shift.c
        if self.family == "M":
            return MParams(self.p - c - 2 * m, self.q + c + 2 * m)
        if self.family == "N":
            return NParams(self.p - c - 2 * m)
        return self.beta + c + 2 * m

    @cached_property
    def _chains(self) -> dict:
        return {}

    @cached_property
    def _rodrigues(self) -> dict:
        return {}

    def radial(self, n: int, m: int, source: str = "recurrence") -> UniPoly:
        """Radial factor of the degree-n element of angular degree m, by the
        recurrence or by the oracle (source "rodrigues": the Rodrigues
        expansion for M and N, the explicit sum for L).  A bundle runs one
        chain per m and builds each oracle factor once."""
        if source == "rodrigues":
            if (n, m) not in self._rodrigues:
                build = {"M": coeffs_m_rodrigues, "N": coeffs_n_rodrigues,
                         "L": coeffs_laguerre_explicit}[self.family]
                self._rodrigues[n, m] = build(n - m, self._shifted(m))
            return self._rodrigues[n, m]
        if m not in self._chains:
            chain = {"M": _m_chain, "N": _n_chain, "L": _laguerre_chain}[self.family]
            self._chains[m] = chain(self._shifted(m))
        return self._chains[m][n - m]

    def values(self, n: int, m: int, ts):
        """Radial factor at the points ts by the forward recurrence, which
        stays accurate where the coefficient form cancels (large p, small t)."""
        evaluate = {"M": eval_m, "N": eval_n, "L": eval_laguerre}[self.family]
        return evaluate(n - m, self._shifted(m), ts)

    @cached_property
    def _norms(self) -> dict:
        return {}

    def norm(self, m: int, n: int) -> float:
        """Norm square of a degree-n element of angular degree m with an
        orthonormal angular factor: the univariate norm at the shifted
        parameters times the Gamma ratio of the shifted weights'
        normalizations at 0 and at m, whose arguments differ by 2m, taken
        as a product of 2m quotients.  Computed once per bundle."""
        if (m, n) in self._norms:
            return self._norms[m, n]
        self.require_valid(n)
        a, b, steps = self._shifted(0), self._shifted(m), range(1, 2 * m + 1)
        if self.family == "M":
            norm = math.prod((a.q + j) / (a.p - 1 - j) for j in steps) * norm_m(n - m, b)
        elif self.family == "N":
            norm = math.prod(1 / (a.p - 1 - j) for j in steps) * norm_n(n - m, b)
        else:
            norm = math.prod(a + j for j in steps) * pochhammer(b + 1, n - m)
            norm /= factorial_real(n - m)
        self._norms[m, n] = norm
        return norm


# ---------------------------------------------------------------------------
# classical building blocks: Jacobi, Laguerre, Gegenbauer
# ---------------------------------------------------------------------------


def _require_jacobi(alpha: float, beta: float) -> None:
    if alpha <= -1 or beta <= -1:
        raise ValidityError("alpha > -1 and beta > -1", f"alpha = {alpha}, beta = {beta}")


def _jacobi_steps(n: int, alpha: float, beta: float):
    """(f0, f1, f2) with P_i = (f0 + f1 x) P_(i-1) - f2 P_(i-2), i = 2..n."""
    for i in range(2, n + 1):
        den = i * (i + alpha + beta) * (2 * i + alpha + beta - 2)
        f0 = (2 * i + alpha + beta - 1) * (alpha * alpha - beta * beta) / (2 * den)
        f1 = (
            (2 * i + alpha + beta - 1)
            * (2 * i + alpha + beta)
            * (2 * i + alpha + beta - 2)
            / (2 * den)
        )
        f2 = (i + alpha - 1) * (i + beta - 1) * (2 * i + alpha + beta) / den
        yield f0, f1, f2


def eval_jacobi(n: int, alpha: float, beta: float, t):
    """Jacobi polynomial by its three-term recurrence; t may be an array."""
    _require_jacobi(alpha, beta)
    if n == 0:
        return 1.0
    m2, m1 = 1.0, (alpha - beta) / 2 + (alpha + beta + 2) / 2 * t
    for f0, f1, f2 in _jacobi_steps(n, alpha, beta):
        m2, m1 = m1, m1 * f0 + t * m1 * f1 - m2 * f2
    return m1


def coeffs_jacobi(n: int, alpha: float, beta: float) -> UniPoly:
    _require_jacobi(alpha, beta)
    if n == 0:
        return UniPoly.one()
    m2, m1 = UniPoly.one(), UniPoly(((alpha - beta) / 2, (alpha + beta + 2) / 2))
    for f0, f1, f2 in _jacobi_steps(n, alpha, beta):
        m2, m1 = m1, m1.scale(f0) + m1.shift_up().scale(f1) - m2.scale(f2)
    return m1


def norm_jacobi(n: int, alpha: float, beta: float) -> float:
    """Norm square under the normalized Jacobi measure."""
    _require_jacobi(alpha, beta)
    return (
        pochhammer(alpha + 1, n)
        * pochhammer(beta + 1, n)
        * (alpha + beta + n + 1)
        / (factorial_real(n) * pochhammer(alpha + beta + 2, n) * (alpha + beta + 2 * n + 1))
    )


def eval_laguerre(n: int, alpha: float, t: float) -> float:
    """Laguerre polynomial by the standard three-term recurrence."""
    if alpha <= -1:
        raise ValidityError("alpha > -1", f"alpha = {alpha}")
    if n == 0:
        return 1.0
    prev, cur = 1.0, alpha + 1 - t
    for k in range(1, n):
        prev, cur = cur, ((2 * k + alpha + 1 - t) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def coeffs_laguerre(n: int, alpha: float) -> UniPoly:
    return _laguerre_chain(alpha)[n]


def coeffs_laguerre_explicit(n: int, alpha: float) -> UniPoly:
    """Laguerre coefficients from the explicit sum, the oracle the chain
    is checked against: coefficient j is (-1)^j (alpha+j+1)_(n-j) /
    ((n-j)! j!), a single product with no cancellation."""
    if alpha <= -1:
        raise ValidityError("alpha > -1", f"alpha = {alpha}")
    return UniPoly(
        (-1.0 if j % 2 else 1.0) * pochhammer(alpha + j + 1, n - j)
        / (math.factorial(n - j) * math.factorial(j))
        for j in range(n + 1)
    )


def _require_gegenbauer(m: int, mu: float) -> None:
    if mu <= -0.5:
        raise ValidityError("mu > -1/2", f"mu = {mu}")
    if mu == 0.0 and m >= 1:
        raise DegenerateParamError(
            "the hypergeometric Gegenbauer definition degenerates at mu = 0: "
            "every member of positive degree is identically zero and no "
            "Chebyshev renormalization is applied; use mu != 0"
        )


def eval_gegenbauer(m: int, mu: float, x):
    """Gegenbauer polynomial by its three-term recurrence; x may be an array."""
    _require_gegenbauer(m, mu)
    if m == 0:
        return 1.0
    m2, m1 = 1.0, 2 * mu * x
    for k in range(2, m + 1):
        m2, m1 = m1, (2 * (k + mu - 1) * x * m1 - (k + 2 * mu - 2) * m2) / k
    return m1


def coeffs_gegenbauer(m: int, mu: float) -> UniPoly:
    _require_gegenbauer(m, mu)
    if m == 0:
        return UniPoly.one()
    m2, m1 = UniPoly.one(), UniPoly((0.0, 2 * mu))
    for k in range(2, m + 1):
        nxt = (m1.shift_up().scale(2 * (k + mu - 1)) - m2.scale(k + 2 * mu - 2)).scale(1.0 / k)
        m2, m1 = m1, nxt
    return m1


def norm_gegenbauer(m: int, mu: float) -> float:
    """Raw orthogonality integral of the squared Gegenbauer polynomial
    against (1-x^2)^(mu-1/2) on [-1, 1] (no normalization of the measure)."""
    if mu <= -0.5:
        raise ValidityError("mu > -1/2", f"mu = {mu}")
    sqrt_pi = gamma_fn(0.5)
    if m == 0:
        return sqrt_pi * gamma_fn(mu + 0.5) / gamma_fn(mu + 1.0)
    _require_gegenbauer(m, mu)
    return (
        pochhammer(2 * mu, m)
        * gamma_fn(mu + 0.5)
        * sqrt_pi
        * mu
        / (factorial_real(m) * (m + mu) * gamma_fn(mu + 1.0))
    )
