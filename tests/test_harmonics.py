"""Spherical harmonics: dimensions, exact harmonicity, orthonormality
under the sphere rules, and the rules' own exactness."""

import math

import numpy as np
import pytest

from finitecone.errors import UnsupportedDimension
from finitecone.harmonics import dim_harmonic, harmonic_basis, sphere_rule, surface_area
from finitecone.polyalg import apply_operator, euler_operator, homogenize
from oracles import laplacian_x


def test_dim_harmonic_values():
    for d in (1, 2, 3):
        assert dim_harmonic(d, 0) == 1
    assert dim_harmonic(3, 2) == 5
    assert dim_harmonic(1, 2) == 0
    assert dim_harmonic(2, 5) == 2
    assert [dim_harmonic(3, m) for m in range(5)] == [1, 3, 5, 7, 9]


def test_surface_area():
    assert surface_area(1) == pytest.approx(2.0, rel=1e-14)
    assert surface_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert surface_area(3) == pytest.approx(4 * math.pi, rel=1e-14)


def test_counts_match_dimension():
    for d in (1, 2, 3):
        for m in range(9):
            assert len(harmonic_basis(d, m).elements) == dim_harmonic(d, m)


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        harmonic_basis(4, 2)
    with pytest.raises(UnsupportedDimension):
        sphere_rule(0, 3)


def test_low_dim_bases():
    assert harmonic_basis(1, 1).elements[0].terms == {(1, 0): 1.0}
    b21 = harmonic_basis(2, 1)
    s = math.sqrt(2.0)
    assert b21.elements[0].terms == {(1, 0, 0): s}
    assert b21.elements[1].terms == {(0, 1, 0): s}
    assert harmonic_basis(3, 0).elements[0].terms == {(0, 0, 0, 0): 1.0}


def test_harmonicity_exact_on_generators():
    # the dyadic generators are bitwise harmonic; the normalized elements
    # differ only by one scalar multiplication per coefficient
    for d in (1, 2, 3):
        lap = laplacian_x(d)
        for m in range(9):
            for el in harmonic_basis(d, m, normalized=False).elements:
                assert apply_operator(lap, el).is_zero()


def test_harmonicity_of_normalized_elements():
    for d in (1, 2, 3):
        lap = laplacian_x(d)
        for m in range(9):
            for el in harmonic_basis(d, m).elements:
                res = apply_operator(lap, el)
                assert res.rel_residual_against(el) < 1e-13


def test_homogeneity_and_laplace_beltrami_eigenvalue():
    # homogeneous of degree m and harmonic together certify the sphere
    # operator eigenvalue -m(m+d-2); Euler is bitwise on the generators and
    # at rounding level once the normalization scale is folded in
    for d in (2, 3):
        euler = euler_operator(d)
        for m in range(6):
            for el in harmonic_basis(d, m, normalized=False).elements:
                h = homogenize(el, m)
                res = apply_operator(euler, h) - h.scale(m)
                assert res.is_zero()
            for el in harmonic_basis(d, m).elements:
                h = homogenize(el, m)
                res = apply_operator(euler, h) - h.scale(m)
                assert res.rel_residual_against(h) < 1e-13


def test_orthonormality_gram():
    for d in (1, 2, 3):
        elements = []
        for m in range(7):
            elements.extend((m, el) for el in harmonic_basis(d, m).elements)
        rule = sphere_rule(d, 12)
        pts = np.asarray(rule.points)
        pts = np.hstack([pts, np.zeros((len(pts), 1))])  # append t = 0 slot
        vals = np.vstack([el.evaluate_many(pts) for _, el in elements])
        gram = (vals * np.asarray(rule.weights)) @ vals.T
        want = np.eye(len(elements))
        assert np.max(np.abs(gram - want)) < 1e-12


def test_sphere_rule_examples():
    r1 = sphere_rule(1, 2)
    val = sum(w * p[0] ** 2 for p, w in zip(r1.points, r1.weights))
    assert val == pytest.approx(1.0, rel=1e-15)

    r2 = sphere_rule(2, 4)
    val = sum(w * p[0] ** 2 for p, w in zip(r2.points, r2.weights))
    assert val == pytest.approx(0.5, rel=1e-13)
    # odd frequencies up to the requested degree must vanish exactly
    val3 = sum(w * p[0] ** 3 for p, w in zip(r2.points, r2.weights))
    assert abs(val3) < 1e-14

    r3 = sphere_rule(3, 4)
    val = sum(w * p[2] ** 2 for p, w in zip(r3.points, r3.weights))
    assert val == pytest.approx(1.0 / 3.0, rel=1e-13)
    # brute-force high-order comparison for a mixed monomial
    r3b = sphere_rule(3, 16)
    f = lambda p: p[0] ** 2 * p[2] ** 2
    a = sum(w * f(p) for p, w in zip(r3.points, r3.weights))
    b = sum(w * f(p) for p, w in zip(r3b.points, r3b.weights))
    assert a == pytest.approx(b, rel=1e-12)


def test_sphere_rule_total_weight():
    for d in (1, 2, 3):
        rule = sphere_rule(d, 6)
        assert rule.total_weight == pytest.approx(1.0, rel=1e-13)
