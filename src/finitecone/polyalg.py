"""Sparse multivariate polynomial algebra over (x_1..x_d, t).

MultiPoly is the universal carrier for basis elements and operator
residuals: a map from exponent vectors (e_1..e_d, e_t) to real
coefficients, with exact formal differentiation.  OperatorSpec expands the
composite operators <x,grad_x>, <x,grad_x>^2 and Delta_x into elementary
(coefficient, derivative multi-index) terms, so applying a differential
operator is exact polynomial arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import add

import numpy as np

from .errors import DimensionMismatch, DomainError, ParityError
from .unipoly import UniPoly

def _normalize(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != 0.0}


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial in (x_1..x_d, t); exponent tuples have length dim_x + 1
    with the t exponent last."""

    dim_x: int
    terms: dict = field(default_factory=dict)

    @staticmethod
    def zero(dim_x: int) -> "MultiPoly":
        return MultiPoly(dim_x, {})

    @staticmethod
    def const(dim_x: int, c: float) -> "MultiPoly":
        if c == 0.0:
            return MultiPoly.zero(dim_x)
        return MultiPoly(dim_x, {(0,) * (dim_x + 1): float(c)})

    @staticmethod
    def var_x(dim_x: int, i: int) -> "MultiPoly":
        e = [0] * (dim_x + 1)
        e[i] = 1
        return MultiPoly(dim_x, {tuple(e): 1.0})

    @staticmethod
    def var_t(dim_x: int) -> "MultiPoly":
        e = [0] * dim_x + [1]
        return MultiPoly(dim_x, {tuple(e): 1.0})

    @staticmethod
    def from_unipoly_t(u: UniPoly, dim_x: int) -> "MultiPoly":
        """Lift a univariate polynomial in t into (x, t) space."""
        terms = {}
        for k, c in enumerate(u.coeffs):
            if c != 0.0:
                terms[(0,) * dim_x + (k,)] = c
        return MultiPoly(dim_x, terms)

    @staticmethod
    def from_unipoly_x(u: UniPoly, dim_x: int, i: int = 0) -> "MultiPoly":
        terms = {}
        for k, c in enumerate(u.coeffs):
            if c != 0.0:
                e = [0] * (dim_x + 1)
                e[i] = k
                terms[tuple(e)] = c
        return MultiPoly(dim_x, terms)

    def _check(self, other: "MultiPoly") -> None:
        if self.dim_x != other.dim_x:
            raise DimensionMismatch(f"dim_x {self.dim_x} vs {other.dim_x}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return MultiPoly(self.dim_x, _normalize(out))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return MultiPoly(self.dim_x, _normalize(out))

    def scale(self, s: float) -> "MultiPoly":
        if s == 0.0:
            return MultiPoly.zero(self.dim_x)
        return MultiPoly(self.dim_x, {e: s * c for e, c in self.terms.items()})

    def evaluate(self, point) -> float:
        """Evaluate at a point (x_1..x_d, t)."""
        if len(point) != self.dim_x + 1:
            raise DimensionMismatch(f"point length {len(point)}, need {self.dim_x + 1}")
        total = 0.0
        for e, c in self.terms.items():
            v = c
            for xj, ej in zip(point, e):
                if ej:
                    v *= xj ** ej
            total += v
        return total

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of points, shape (K, dim_x+1)."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[0])
        for e, c in self.terms.items():
            v = np.full(pts.shape[0], c)
            for j, ej in enumerate(e):
                if ej:
                    v = v * pts[:, j] ** ej
            out += v
        return out

    @property
    def degree(self) -> int:
        """Maximal total exponent; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def rel_residual_against(self, reference: "MultiPoly") -> float:
        ref = reference.max_abs_coeff()
        if ref == 0.0:
            return self.max_abs_coeff()
        return self.max_abs_coeff() / ref

    def is_zero(self) -> bool:
        return not self.terms

    def render(self, names=None) -> str:
        """Text form in sorted graded-lexicographic monomial order."""
        if not self.terms:
            return "0"
        if names is None:
            if self.dim_x == 1:
                names = ["x", "t"]
            else:
                names = [f"x{i+1}" for i in range(self.dim_x)] + ["t"]
        keys = sorted(self.terms, key=lambda e: (sum(e), tuple(-v for v in e)))
        parts = []
        for e in keys:
            c = self.terms[e]
            factors = []
            for name, ej in zip(names, e):
                if ej == 1:
                    factors.append(name)
                elif ej > 1:
                    factors.append(f"{name}^{ej}")
            mono = "*".join(factors)
            if not mono:
                parts.append(f"{c:.10g}")
            elif c == 1.0:
                parts.append(mono)
            elif c == -1.0:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c:.10g}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"


def homogenize(p_ball: MultiPoly, m: int) -> MultiPoly:
    """Map a ball polynomial P(x) of degree <= m to t^m P(x/t).

    Every degree-j term gains the factor t^(m-j); j must not exceed m and
    must share its parity, otherwise the result would not be a polynomial.
    """
    out = {}
    for e, c in p_ball.terms.items():
        if e[-1] != 0:
            raise DomainError("homogenize expects a polynomial in x only")
        j = sum(e)
        if j > m:
            raise ParityError(f"term of degree {j} exceeds homogenization degree {m}")
        if (m - j) % 2 != 0:
            raise ParityError(f"term of degree {j} has wrong parity for degree {m}")
        out[e[:-1] + (m - j,)] = c
    return MultiPoly(p_ball.dim_x, out)


_PSEUDO_KINDS = ("id", "euler", "euler2", "laplace")


@dataclass(frozen=True)
class OperatorSpec:
    """Linear differential operator as elementary (coefficient, multi-index)
    terms; built from pseudo-terms which expand symbolically and exactly."""

    dim_x: int
    terms: tuple  # of (MultiPoly coefficient, derivative multi-index)

    @staticmethod
    def from_pseudo(dim_x: int, pseudo_terms) -> "OperatorSpec":
        """pseudo_terms: iterable of (coeff, kind, dt_order) where coeff is a
        scalar or MultiPoly, kind one of id|euler|euler2|laplace."""
        elementary = []
        for coeff, kind, dt in pseudo_terms:
            if kind not in _PSEUDO_KINDS:
                raise DomainError(f"unknown operator kind {kind!r}")
            if not isinstance(coeff, MultiPoly):
                coeff = MultiPoly.const(dim_x, coeff)
            if coeff.is_zero():
                continue
            base_t = (0,) * dim_x + (dt,)
            if kind == "id":
                elementary.append((coeff, base_t))
            elif kind == "euler":
                for i in range(dim_x):
                    d = list(base_t)
                    d[i] += 1
                    elementary.append((coeff * MultiPoly.var_x(dim_x, i), tuple(d)))
            elif kind == "euler2":
                # <x,grad>^2 = sum_ij x_i x_j d_i d_j + sum_i x_i d_i
                for i in range(dim_x):
                    for j in range(dim_x):
                        d = list(base_t)
                        d[i] += 1
                        d[j] += 1
                        xij = MultiPoly.var_x(dim_x, i) * MultiPoly.var_x(dim_x, j)
                        elementary.append((coeff * xij, tuple(d)))
                for i in range(dim_x):
                    d = list(base_t)
                    d[i] += 1
                    elementary.append((coeff * MultiPoly.var_x(dim_x, i), tuple(d)))
            elif kind == "laplace":
                for i in range(dim_x):
                    d = list(base_t)
                    d[i] += 2
                    elementary.append((coeff, tuple(d)))
        return OperatorSpec(dim_x, tuple(elementary))

    @cached_property
    def compiled(self) -> tuple:
        """The terms as apply_operator walks them, compiled once: per
        elementary term its nonzero (slot, order) derivative steps and its
        coefficient monomials as (exponent shift f - deriv, coefficient)."""
        return tuple(
            (
                tuple((slot, order) for slot, order in enumerate(deriv) if order),
                tuple(
                    (tuple(f_i - d_i for f_i, d_i in zip(f, deriv)), c)
                    for f, c in coeff.terms.items()
                ),
            )
            for coeff, deriv in self.terms
        )

    @cached_property
    def t_split(self) -> tuple:
        """(L_0, L_1, ..): L(R A) = sum_i R^(i) L_i A for R in t alone, by the
        Leibniz rule in t, with L_i = sum C(dt, i) coeff d_t^(dt-i) d_x^alpha;
        L_0 is L itself."""
        return (self,) + tuple(
            OperatorSpec(self.dim_x, tuple(
                (coeff.scale(math.comb(d[-1], i)), d[:-1] + (d[-1] - i,))
                for coeff, d in self.terms if d[-1] >= i))
            for i in range(1, 1 + max(d[-1] for _, d in self.terms))
        )


def _derivatives(items, steps) -> list:
    """(e, c * falling factorials) of the terms that survive the derivative
    steps, in term order; the factorials multiply in one at a time, slot by
    slot, as repeated partial() calls would."""
    out = []
    for e, c in items:
        for slot, order in steps:
            k = e[slot]
            if k < order:
                break
            for j in range(order):
                c = c * (k - j)
        else:
            out.append((e, c))
    return out


def apply_operator(op: OperatorSpec, p: MultiPoly) -> MultiPoly:
    """Apply the expanded linear differential operator; exact.

    One pass over p per elementary term, in the floating-point order of
    differentiating, multiplying by the coefficient and adding term by term:
    each term's sum runs over (coefficient monomial, p monomial) pairs
    before it joins the output, and exact zeros are dropped at the end."""
    if op.dim_x != p.dim_x:
        raise DimensionMismatch(f"operator dim_x {op.dim_x} vs polynomial {p.dim_x}")
    items = list(p.terms.items())
    derived: dict = {}  # terms sharing a derivative multi-index share its table
    out: dict = {}
    for steps, monomials in op.compiled:
        dq = derived.get(steps)
        if dq is None:
            dq = derived[steps] = _derivatives(items, steps) if steps else items
        if len(monomials) == 1:
            # one contribution per output monomial: the term sum is the product
            ((shift, cf),) = monomials
            for e, c in dq:
                k = tuple(map(add, e, shift))
                out[k] = out.get(k, 0.0) + cf * c
            continue
        term: dict = {}
        for shift, cf in monomials:
            for e, c in dq:
                k = tuple(map(add, e, shift))
                term[k] = term.get(k, 0.0) + cf * c
        for k, c in term.items():
            out[k] = out.get(k, 0.0) + c
    return MultiPoly(p.dim_x, _normalize(out))


def euler_operator(dim_x: int) -> OperatorSpec:
    """t d/dt + <x, grad_x>; multiplies any homogeneous polynomial of degree
    m in (x, t) jointly by m."""
    t = MultiPoly.var_t(dim_x)
    return OperatorSpec.from_pseudo(dim_x, [(t, "id", 1), (1.0, "euler", 0)])
