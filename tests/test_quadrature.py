"""Quadrature checks: the mass-one rules against closed-form moment ratios
and scipy as an independent oracle, the transformed rules, and the product
rules."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from finitecone.errors import IntegrabilityError, ValidityError
from finitecone.polyalg import MultiPoly
from finitecone.quadrature import (
    WeightGammaExp,
    WeightInvExp,
    WeightMPQ,
    ball_rule,
    cone_rule,
    gauss_jacobi,
    gauss_laguerre,
    surface_rule,
)
from finitecone.unipoly import UniPoly
from finitecone.univariate import MParams, coeffs_m, norm_m


def jacobi_mass(a, b):
    """Total mass 2^(a+b+1) B(a+1, b+1) of (1-x)^a (1+x)^b on [-1, 1]."""
    return 2.0 ** (a + b + 1) * special.beta(a + 1, b + 1)


def mpq_moment(p, q, j):
    """Normalized moment of t^j against t^q/(1+t)^(p+q): a Beta ratio."""
    return special.beta(q + 1 + j, p - 1 - j) / special.beta(q + 1, p - 1)


def monomial(j):
    return UniPoly((0.0,) * j + (1.0,))


def test_gauss_rule_single_point_cases():
    nodes, weights = gauss_jacobi(1, 0.0, 0.0)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] * jacobi_mass(0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
    _, weights = gauss_jacobi(1, 1.0, 0.0)
    assert sum(weights) * jacobi_mass(1.0, 0.0) == pytest.approx(2.0, rel=1e-13)
    nodes, weights = gauss_laguerre(1, 0.0)
    assert nodes[0] == pytest.approx(1.0, rel=1e-14)
    assert weights[0] * special.gamma(1.0) == pytest.approx(1.0, rel=1e-14)


def test_gauss_rules_against_scipy():
    for n, a, b in ((4, 0.5, -0.3), (8, 2.0, 0.0), (12, 7.5, 1.25)):
        nodes, weights = gauss_jacobi(n, a, b)
        sx, sw = special.roots_jacobi(n, a, b)
        assert np.allclose(nodes, sx, rtol=1e-12, atol=1e-13)
        assert np.allclose(weights * jacobi_mass(a, b), sw, rtol=1e-11, atol=1e-14)
    for n, a in ((4, 0.0), (9, 1.7), (13, 4.0)):
        nodes, weights = gauss_laguerre(n, a)
        sx, sw = special.roots_genlaguerre(n, a)
        assert np.allclose(nodes, sx, rtol=1e-11, atol=1e-12)
        assert np.allclose(weights * special.gamma(a + 1), sw, rtol=1e-10, atol=1e-14)


def test_rule_moments_and_positivity():
    # moments, scaled back by the closed-form mass, against Gamma/Beta
    # closed forms; weights positive
    a, b, n = 1.5, 0.25, 9
    nodes, weights = gauss_jacobi(n, a, b)
    assert all(w > 0 for w in weights)
    mp.mp.dps = 40
    mass = float(mp.mpf(2) ** (a + b + 1) * mp.beta(a + 1, b + 1))
    for k in range(2 * n):
        moment = mass * sum(w * x**k for x, w in zip(nodes, weights))
        # closed form by expanding x^k about x = -1, in high precision (the
        # alternating sum cancels badly in doubles)
        exact = mp.mpf(0)
        for j in range(k + 1):
            exact += (
                mp.binomial(k, j) * (-1) ** (k - j) * mp.mpf(2) ** (a + j + b + 1)
                * mp.beta(a + 1, b + j + 1)
            )
        assert moment == pytest.approx(float(exact), rel=1e-12, abs=1e-13)
    a, n = 2.5, 7
    nodes, weights = gauss_laguerre(n, a)
    assert all(w > 0 for w in weights)
    mass = special.gamma(a + 1)
    for k in range(2 * n):
        moment = mass * sum(w * x**k for x, w in zip(nodes, weights))
        assert moment == pytest.approx(special.gamma(a + k + 1), rel=1e-11)


def test_gauss_rule_validity():
    with pytest.raises(ValidityError):
        gauss_jacobi(3, -1.0, 0.0)
    with pytest.raises(ValidityError):
        gauss_laguerre(3, -1.2)


def test_integrate_wpq_examples():
    # raw integrals 1/2 and 1/6 over the raw masses 1/2 and 1/3
    assert WeightMPQ(3.0, 0.0).rule(0).integrate(UniPoly.one()) == pytest.approx(
        mpq_moment(3.0, 0.0, 0), rel=1e-13
    )
    assert WeightMPQ(4.0, 0.0).rule(1).integrate(UniPoly.x()) == pytest.approx(
        (1.0 / 6.0) / (1.0 / 3.0), rel=1e-13
    )
    with pytest.raises(IntegrabilityError):
        WeightMPQ(3.0, 0.0).rule(2)
    with pytest.raises(IntegrabilityError):
        WeightMPQ(3.0, -1.0).rule(0)


def test_integrate_wpq_beta_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = float(rng.uniform(5.0, 120.0))
        q = float(rng.uniform(-0.9, 4.0))
        j = int(rng.integers(0, 4))
        if p <= j + 1:
            continue
        got = WeightMPQ(p, q).rule(j).integrate(monomial(j))
        assert got == pytest.approx(mpq_moment(p, q, j), rel=1e-12)


def test_integrate_wp_invexp_examples():
    # normalized moment of t^j against t^-p exp(-1/t): Gamma(p-1-j) / Gamma(p-1)
    assert WeightInvExp(3.0).rule(0).integrate(UniPoly.one()) == pytest.approx(1.0, rel=1e-13)
    assert WeightInvExp(4.0).rule(1).integrate(UniPoly.x()) == pytest.approx(
        special.gamma(2.0) / special.gamma(3.0), rel=1e-13
    )
    with pytest.raises(IntegrabilityError):
        WeightInvExp(3.0).rule(2)
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = float(rng.uniform(5.0, 60.0))
        j = int(rng.integers(0, 4))
        got = WeightInvExp(p).rule(j).integrate(monomial(j))
        assert got == pytest.approx(special.gamma(p - 1 - j) / special.gamma(p - 1), rel=1e-12)


def test_transform_exactness_under_order_doubling():
    f = UniPoly((0.3, -1.2, 2.0, 0.7))
    for weight in (WeightMPQ(20.5, 0.4), WeightInvExp(20.5), WeightGammaExp(0.4)):
        r1 = weight.rule(6)
        r2 = weight.rule(12)
        v1, v2 = r1.integrate(f), r2.integrate(f)
        assert abs(v1 - v2) < 1e-13 * abs(v1)


def test_kronecker_structure_with_shifts():
    # the shifted-parameter orthogonality that underlies the cone Gram:
    # <M_i^(P-2s, Q+2s) M_j^(P-2s, Q+2s) t^(2s)>_(w_PQ) = ratio * h_i * delta_ij
    # ratio = c_(P,Q) / c_(P-2s,Q+2s), with c_(p,q) = 1 / B(q+1, p-1)
    p_eff, q_eff = 20.0, 1.0
    weight = WeightMPQ(p_eff, q_eff)
    for s in (0, 1, 2):
        sub = MParams(p_eff - 2 * s, q_eff + 2 * s)
        ratio = special.beta(sub.q + 1, sub.p - 1) / special.beta(q_eff + 1, p_eff - 1)
        for i in range(5 - s):
            for j in range(i + 1):
                f = (coeffs_m(i, sub) * coeffs_m(j, sub)).shift_up(2 * s)
                val = weight.rule(f.degree).integrate(f)
                if i == j:
                    want = ratio * norm_m(i, sub)
                    assert val == pytest.approx(want, rel=1e-11)
                else:
                    scale = ratio * math.sqrt(norm_m(i, sub) * norm_m(j, sub))
                    assert abs(val) < 1e-11 * scale


def test_normalized_rules_have_unit_mass():
    for weight in (WeightMPQ(30.0, 0.0), WeightInvExp(25.0), WeightGammaExp(1.5)):
        rule = weight.rule(8)
        assert rule.total_weight == pytest.approx(1.0, rel=1e-13)
        assert all(w > 0 for w in rule.weights)


def test_large_parameter_rule_stays_finite():
    rule = WeightMPQ(202.0, 0.0).rule(16)
    assert rule.total_weight == pytest.approx(1.0, rel=1e-12)
    rule = WeightInvExp(300.0).rule(10)
    assert rule.total_weight == pytest.approx(1.0, rel=1e-12)


def ball_mass(d, mu):
    """Raw mass pi^(d/2) Gamma(mu + 1/2) / Gamma(mu + (d+1)/2) of the ball weight."""
    return math.pi ** (d / 2) * special.gamma(mu + 0.5) / special.gamma(mu + (d + 1) / 2)


def test_integrate_ball_examples():
    # each raw integral over the closed-form raw mass
    one = MultiPoly.const(1, 1.0)
    assert ball_rule(1, 0.5, 0).integrate(one) == pytest.approx(2.0 / ball_mass(1, 0.5), rel=1e-13)
    # d = 2: raw mass pi at mu = 1/2; 2 pi / 3 at mu = 1
    one2 = MultiPoly.const(2, 1.0)
    assert ball_rule(2, 0.5, 0).integrate(one2) == pytest.approx(
        math.pi / ball_mass(2, 0.5), rel=1e-12
    )
    assert ball_rule(2, 1.0, 0).integrate(one2) == pytest.approx(
        2 * math.pi / 3 / ball_mass(2, 1.0), rel=1e-12
    )
    # second moment on the d = 3 ball at mu = 1/2 (Lebesgue): 4 pi / 15
    x1sq = MultiPoly.var_x(3, 0) * MultiPoly.var_x(3, 0)
    assert ball_rule(3, 0.5, 2).integrate(x1sq) == pytest.approx(
        4 * math.pi / 15 / ball_mass(3, 0.5), rel=1e-11
    )


def test_integrate_cone_example():
    # d = 1, mu = 1/2: the weight is flat in x, so integrating x out leaves
    # 2t (1+t)^-4 (the separated radial factor t^(d + 2mu - 1) = t): raw
    # mass 2 B(2, 2) = 1/3, raw t-moment 2 B(3, 1) = 2/3
    one = MultiPoly.const(1, 1.0)
    got = cone_rule(1, 0.5, WeightMPQ(4.0, 0.0), 0).integrate(one)
    assert got == pytest.approx(1.0, rel=1e-12)
    t = MultiPoly.var_t(1)
    got = cone_rule(1, 0.5, WeightMPQ(4.0, 0.0), 1).integrate(t)
    assert got == pytest.approx(special.beta(3, 1) / special.beta(2, 2), rel=1e-12)
    # mu = 1 version, where the radial factor is t^2: raw mass
    # int_B (1-y^2)^(1/2) dy times B(3, 1) = (pi/2) / 3
    got = cone_rule(1, 1.0, WeightMPQ(4.0, 0.0), 0).integrate(one)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_integrate_surface_example():
    # d = 2: the measure is 2 pi t^(d-1) t^-4 exp(-1/t) dt, raw mass
    # 2 pi Gamma(2), raw t-moment 2 pi Gamma(1)
    one = MultiPoly.const(2, 1.0)
    got = surface_rule(2, WeightInvExp(4.0), 0).integrate(one)
    assert got == pytest.approx(1.0, rel=1e-12)
    t = MultiPoly.var_t(2)
    got = surface_rule(2, WeightInvExp(4.0), 1).integrate(t)
    assert got == pytest.approx(special.gamma(1.0) / special.gamma(2.0), rel=1e-12)


def test_cone_rule_integrability_messages():
    one = MultiPoly.const(1, 1.0)
    with pytest.raises(IntegrabilityError) as exc:
        cone_rule(1, 0.5, WeightMPQ(4.0, 0.0), 4)
    assert "2*mu + d" in exc.value.inequality
    with pytest.raises(IntegrabilityError):
        cone_rule(2, 0.5, WeightInvExp(5.0), 4)
    with pytest.raises(IntegrabilityError) as exc:
        surface_rule(2, WeightMPQ(5.0, 0.0), 4)
    assert "deg(f) + d" in exc.value.inequality
    del one


def test_ball_rule_normalized_mass_and_moment():
    for d, mu in ((1, 0.5), (2, 0.5), (3, 1.25)):
        rule = ball_rule(d, mu, 4)
        assert rule.total_weight == pytest.approx(1.0, rel=1e-12)
        # normalized second moment: b * int x_1^2 w = (radial Beta ratio) / d
        x1sq = MultiPoly.var_x(d, 0) * MultiPoly.var_x(d, 0)
        got = rule.integrate(x1sq)
        want = special.beta(d / 2 + 1, mu + 0.5) / special.beta(d / 2, mu + 0.5) / d
        assert got == pytest.approx(want, rel=1e-11)
