"""Exact multivariate polynomial algebra and operator application."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitecone.cone_solid import diffdiff_operator, laguerre_operator, solid_m_operator
from finitecone.errors import DimensionMismatch, DomainError, ParityError
from finitecone.polyalg import (
    MultiPoly,
    OperatorSpec,
    apply_operator,
    euler_operator,
    homogenize,
)
from finitecone.unipoly import UniPoly
from oracles import VAR_T, apply_operator_termwise, ball_operator_spec, laplacian_x, partial


def x(i=0, d=1):
    return MultiPoly.var_x(d, i)


def t(d=1):
    return MultiPoly.var_t(d)


def random_sparse(rng, d, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        e = tuple(int(v) for v in rng.integers(0, max_exp + 1, size=d + 1))
        terms[e] = float(rng.uniform(-3, 3))
    return MultiPoly(d, terms)


def test_ring_ops():
    a = x() + t()
    b = x() - t()
    prod = a * b
    want = x() * x() - t() * t()
    assert (prod - want).is_zero()
    p = random_sparse(np.random.default_rng(0), 2)
    assert (p + MultiPoly.zero(2) - p).is_zero()
    assert (x(0, 2) * x(0, 2)).scale(4.0).terms == {(2, 0, 0): 4.0}


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        x(0, 1) + x(0, 2)
    with pytest.raises(DimensionMismatch):
        apply_operator(laplacian_x(2), x(0, 1))


def test_partial_and_evaluate():
    p = t() * t() * x()  # t^2 x
    assert partial(p, VAR_T).terms == {(1, 1): 2.0}
    q = x() * x() - t() * t()
    assert q.evaluate((1.0, 1.0)) == 0.0
    mu = 0.5
    p2 = (x() * x()).scale(2 * mu * (mu + 1)) - (t() * t()).scale(mu)
    assert partial(p2, 0).terms == {(1, 0): 3.0}


def random_int_sparse(rng, d, max_terms=6, max_exp=4):
    # integer coefficients keep every product and sum exact in doubles
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        e = tuple(int(v) for v in rng.integers(0, max_exp + 1, size=d + 1))
        c = int(rng.integers(-9, 10))
        if c:
            terms[e] = float(c)
    return MultiPoly(d, terms) if terms else MultiPoly.const(d, 1.0)


def test_leibniz_rule_exact():
    rng = np.random.default_rng(42)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        p = random_int_sparse(rng, d)
        q = random_int_sparse(rng, d)
        for var in list(range(d)) + [VAR_T]:
            lhs = partial(p * q, var)
            rhs = partial(p, var) * q + p * partial(q, var)
            assert (lhs - rhs).is_zero()


def test_leibniz_rule_float_coefficients():
    rng = np.random.default_rng(46)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        p = random_sparse(rng, d)
        q = random_sparse(rng, d)
        for var in list(range(d)) + [VAR_T]:
            lhs = partial(p * q, var)
            rhs = partial(p, var) * q + p * partial(q, var)
            ref = max(lhs.max_abs_coeff(), rhs.max_abs_coeff(), 1.0)
            assert (lhs - rhs).max_abs_coeff() < 1e-13 * ref


def test_evaluation_homomorphism():
    rng = np.random.default_rng(43)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        p = random_sparse(rng, d)
        q = random_sparse(rng, d)
        pt = tuple(float(v) for v in rng.uniform(-1.5, 1.5, size=d + 1))
        lhs = (p * q).evaluate(pt)
        rhs = p.evaluate(pt) * q.evaluate(pt)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_evaluate_many_matches_evaluate():
    rng = np.random.default_rng(44)
    p = random_sparse(rng, 2)
    pts = rng.uniform(-2, 2, size=(20, 3))
    vals = p.evaluate_many(pts)
    for row, v in zip(pts, vals):
        assert v == pytest.approx(p.evaluate(tuple(row)), rel=1e-13, abs=1e-13)


def test_homogenize_samples():
    mu = 0.7
    c1 = x().scale(2 * mu)
    h = homogenize(c1, 1)
    assert h.terms == {(1, 0): 2 * mu}
    c2 = (x() * x()).scale(2 * mu * (mu + 1)) + MultiPoly.const(1, -mu)
    h2 = homogenize(c2, 2)
    assert h2.terms == {(2, 0): 2 * mu * (mu + 1), (0, 2): -mu}
    assert homogenize(MultiPoly.const(1, 1.0), 0).terms == {(0, 0): 1.0}


def test_homogenize_errors():
    with pytest.raises(ParityError):
        homogenize(x(), 2)  # degree 1 term, wrong parity
    with pytest.raises(ParityError):
        homogenize(x() * x() * x(), 2)  # degree exceeds m
    with pytest.raises(DomainError):
        homogenize(t(), 1)  # not a pure x polynomial


def test_euler_identity_on_homogeneous():
    # integer coefficients: every flop is exact, so the identity is bitwise
    rng = np.random.default_rng(45)
    for d in (1, 2, 3):
        euler = euler_operator(d)
        for m in range(5):
            terms = {}
            for _ in range(4):
                while True:
                    e = tuple(int(v) for v in rng.integers(0, m + 1, size=d))
                    if sum(e) <= m and (m - sum(e)) % 2 == 0:
                        break
                terms[e + (0,)] = float(rng.integers(-9, 10)) or 1.0
            p = MultiPoly(d, terms)
            h = homogenize(p, m)
            res = apply_operator(euler, h) - h.scale(m)
            assert res.is_zero()


def test_euler_on_xt():
    h = x() * t()
    out = apply_operator(euler_operator(1), h)
    assert (out - h.scale(2.0)).is_zero()


def test_laplacian():
    p = x(0, 2) * x(0, 2) + x(1, 2) * x(1, 2)
    out = apply_operator(laplacian_x(2), p)
    assert out.terms == {(0, 0, 0): 4.0}


def test_solid_operator_on_constant():
    from finitecone.cone_solid import solid_m_operator

    op = solid_m_operator(2, 0.5, 10.0)
    v = MultiPoly.const(2, 1.0)
    assert apply_operator(op, v).is_zero()  # n = 0 eigenvalue is 0


def test_pseudo_expansion_is_elementary():
    op = OperatorSpec.from_pseudo(2, [(1.0, "euler2", 0), (2.0, "laplace", 1)])
    # euler2 expands to d^2 second-order terms plus d first-order ones;
    # laplace to d pure terms
    assert len(op.terms) == 4 + 2 + 2
    for coeff, deriv in op.terms:
        assert isinstance(coeff, MultiPoly)
        assert len(deriv) == 3
    with pytest.raises(DomainError):
        OperatorSpec.from_pseudo(1, [(1.0, "mystery", 0)])


def test_render_graded_lex():
    p = MultiPoly(2, {(0, 0, 2): 1.0, (2, 0, 0): 2.0, (0, 0, 0): -1.0})
    text = p.render()
    # graded order: the constant first, then the two degree-2 monomials with
    # x1 ahead of t
    assert text.index("-1") < text.index("2*x1^2") < text.index("t^2")


def test_from_unipoly():
    u = UniPoly((1.0, 0.0, -2.0))
    p = MultiPoly.from_unipoly_t(u, 2)
    assert p.terms == {(0, 0, 0): 1.0, (0, 0, 2): -2.0}
    p = MultiPoly.from_unipoly_x(u, 2, 1)
    assert p.terms == {(0, 0, 0): 1.0, (0, 2, 0): -2.0}


def test_unipoly_basics():
    u = UniPoly((0.0, 1.0, 0.0))
    assert u.degree == 1 and u.coeffs == (0.0, 1.0)
    v = UniPoly((1.0, 2.0))
    assert (u * v)(0.5) == pytest.approx(u(0.5) * v(0.5))
    assert u.derivative().coeffs == (1.0,)
    assert u.shift_up(2).coeffs == (0.0, 0.0, 0.0, 1.0)
    assert (u - u).is_zero()
    assert UniPoly((1.0, -3.0, 2.0)).max_abs() == 3.0


_OPERATORS = (
    ("solid_m_operator", lambda d, mu, p: solid_m_operator(d, mu, p)),
    ("diffdiff_operator", lambda d, mu, p: diffdiff_operator(d, mu, p)),
    ("laguerre_operator", lambda d, mu, p: laguerre_operator(d, mu)),
    ("ball_operator_spec", lambda d, mu, p: ball_operator_spec(d, mu)),
    ("euler_operator", lambda d, mu, p: euler_operator(d)),
    ("laplacian_x", lambda d, mu, p: laplacian_x(d)),
)


@st.composite
def sparse_polys(draw):
    d = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 5)] * (d + 1))
    coeffs = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False).filter(bool)
    return MultiPoly(d, draw(st.dictionaries(exponents, coeffs, min_size=1, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(
    sparse_polys(),
    st.sampled_from(_OPERATORS),
    st.floats(-0.45, 3.0),
    st.floats(0.5, 80.0),
)
def test_one_pass_kernel_matches_termwise_bit_for_bit(p, named_op, mu, p_param):
    # same key set and == on every coefficient: the kernel keeps the
    # floating-point order of the term-by-term algorithm
    _, build = named_op
    op = build(p.dim_x, mu, p_param)
    got = apply_operator(op, p)
    want = apply_operator_termwise(op, p)
    assert got.terms.keys() == want.terms.keys()
    assert all(got.terms[e] == c for e, c in want.terms.items())
