"""Ball bases: normalization, counts, Gram identity, operator residuals,
and the d = 1 Gegenbauer conventions."""

import math

import numpy as np
import pytest
from scipy import special

from finitecone.ball import (
    ball_basis,
    ball_dimension,
    ball_normalization,
)
from finitecone.errors import DegenerateParamError, DomainError, UnsupportedDimension, ValidityError
from finitecone.polyalg import MultiPoly
from finitecone.quadrature import ball_rule
from finitecone.univariate import coeffs_gegenbauer
from oracles import ball_operator_residual


def test_normalization_values():
    assert ball_normalization(1, 0.5) == pytest.approx(0.5, rel=1e-14)
    # d = 2, mu = 1/2: the weight is flat, mass is the disk area pi
    assert ball_normalization(2, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-13)
    assert ball_normalization(2, 1.0) == pytest.approx(3.0 / (2 * math.pi), rel=1e-13)
    with pytest.raises(ValidityError):
        ball_normalization(1, -0.6)


def test_normalization_against_quadrature_reciprocal():
    # the ball rule integrates against b times the weight, so its mass is
    # one, and b is the reciprocal of the raw mass
    # pi^(d/2) Gamma(mu + 1/2) / Gamma(mu + (d+1)/2)
    for d, mu in ((1, 0.5), (2, 0.5), (2, 1.7), (3, 0.25)):
        assert ball_rule(d, mu, 0).integrate(MultiPoly.const(d, 1.0)) == pytest.approx(
            1.0, rel=1e-12
        )
        mass = math.pi ** (d / 2) * special.gamma(mu + 0.5) / special.gamma(mu + (d + 1) / 2)
        assert ball_normalization(d, mu) == pytest.approx(1.0 / mass, rel=1e-12)


def test_basis_counts():
    for d in (1, 2, 3):
        for n in range(7):
            basis = ball_basis(d, 0.75, n)
            assert len(basis.elements) == ball_dimension(d, n) == math.comb(n + d - 1, n)


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        ball_basis(4, 0.5, 2)


def test_gram_identity_orthonormal():
    for d, mu in ((1, 0.5), (2, 0.5), (2, 1.3), (3, 0.5)):
        elements = []
        for n in range(5):
            elements.extend(ball_basis(d, mu, n).elements)
        rule = ball_rule(d, mu, 8)
        pts = np.hstack([rule.points, np.zeros((len(rule.points), 1))])
        vals = np.vstack([el.poly.evaluate_many(pts) for el in elements])
        gram = (vals * rule.weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(elements)))) < 1e-11


def test_gegenbauer_conventions_d1():
    basis = ball_basis(1, 0.5, 1, "paper-gegenbauer")
    # C_1 = 2 mu x = x at mu = 1/2
    assert basis.elements[0].poly.terms == {(1, 0): 1.0}
    raw = coeffs_gegenbauer(3, 0.8)
    got = ball_basis(1, 0.8, 3, "paper-gegenbauer").elements[0].poly
    assert got.terms[(3, 0)] == pytest.approx(raw.coeffs[3], rel=1e-14)
    # orthonormal convention scales by the closed-form norm
    ortho = ball_basis(1, 0.8, 3).elements[0].poly
    sq = ball_basis(1, 0.8, 3, "paper-gegenbauer").elements[0].sq_norm
    assert ortho.terms[(3, 0)] == pytest.approx(raw.coeffs[3] / math.sqrt(sq), rel=1e-13)


def test_gegenbauer_degeneracy_rejected():
    with pytest.raises(DegenerateParamError):
        ball_basis(1, 0.0, 1, "paper-gegenbauer")
    with pytest.raises(DegenerateParamError):
        ball_basis(1, 0.0, 2)  # orthonormal convention routes through the same family
    # degree 0 is fine at mu = 0
    assert len(ball_basis(1, 0.0, 0).elements) == 1


def test_convention_guard():
    with pytest.raises(DomainError):
        ball_basis(2, 0.5, 1, "paper-gegenbauer")
    with pytest.raises(DomainError):
        ball_basis(1, 0.5, 1, "mystery")


def test_operator_residuals():
    el0 = ball_basis(2, 0.5, 0).elements[0]
    assert ball_operator_residual(2, 0.5, el0).is_zero()
    el1 = ball_basis(1, 0.5, 1, "paper-gegenbauer").elements[0]
    assert ball_operator_residual(1, 0.5, el1).max_abs_coeff() < 1e-14
    for d, mu in ((2, 0.5), (3, 0.9), (1, 1.5)):
        for n in range(5):
            for el in ball_basis(d, mu, n).elements:
                res = ball_operator_residual(d, mu, el)
                assert res.rel_residual_against(el.poly) < 1e-12


def test_mu_validity():
    with pytest.raises(ValidityError):
        ball_basis(2, -0.5, 1)
