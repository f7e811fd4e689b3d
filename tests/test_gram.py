"""Separable Gram contraction: it must equal, entry by entry, the Gram
built on the materialized product rule from the full element polynomials,
for every cone and surface family, without multiplying out any ball
polynomial; and the shared window checks of the factor rules name the
violated inequality."""

import numpy as np
import pytest

from finitecone import ball, polyalg
from finitecone.cone_solid import ConeFamilyParams, cone_basis, cone_gram
from finitecone.cone_surface import SurfaceParams, surface_basis, surface_gram
from finitecone.errors import IntegrabilityError
from finitecone.quadrature import (
    WeightGammaExp,
    WeightMPQ,
    ball_rule,
    cone_factors,
    cone_rule,
    surface_factors,
    surface_rule,
)
from finitecone.verifier import run_suite

CONE_FAMILIES = (
    ("M", {"p": 30.0, "q": 0.4}),
    ("N", {"p": 28.0}),
    ("L", {"beta": 0.5}),
)


def _materialized(rule, polys):
    """Gram of full element polynomials on every product-rule point."""
    vals = np.vstack([poly.evaluate_many(rule.points) for poly in polys])
    return (vals * rule.weights) @ vals.T


def _assert_entrywise(separable, reference):
    scale = np.sqrt(np.outer(np.diag(reference), np.diag(reference)))
    assert np.all(np.abs(separable - reference) <= 1e-12 * scale)


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("family,kw", CONE_FAMILIES)
def test_cone_gram_matches_materialized_rule(family, kw, d):
    n_max = 4
    params = ConeFamilyParams(d, 0.75, family, **kw)
    res = cone_gram(params, n_max)
    rule = cone_rule(d, 0.75, params.radial_weight(), 2 * n_max)
    elements = [e for n in range(n_max + 1) for e in cone_basis(params, n)]
    _assert_entrywise(res.matrix, _materialized(rule, [e.poly for e in elements]))
    assert res.unit_norm_dev == abs(rule.total_weight - 1.0)


def test_cone_gram_paper_gegenbauer_matches_materialized_rule():
    params = ConeFamilyParams(1, 0.75, "M", p=30.0, q=0.4)
    res = cone_gram(params, 4, "paper-gegenbauer")
    rule = cone_rule(1, 0.75, params.radial_weight(), 8)
    elements = [e for n in range(5) for e in cone_basis(params, n, "paper-gegenbauer")]
    _assert_entrywise(res.matrix, _materialized(rule, [e.poly for e in elements]))


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("family,kw", CONE_FAMILIES)
def test_surface_gram_matches_materialized_rule(family, kw, d):
    n_max = 4
    params = SurfaceParams(d, family, **kw)
    res = surface_gram(params, n_max)
    rule = surface_rule(d, params.radial_weight(), 2 * n_max)
    elements = [e for n in range(n_max + 1) for e in surface_basis(params, n)]
    _assert_entrywise(res.matrix, _materialized(rule, [e.poly for e in elements]))
    assert res.unit_norm_dev == abs(rule.total_weight - 1.0)


def test_cone_gram_ball_factor_stays_accurate_at_high_degree():
    # the ball factors' monomial expansion cancels to 8e-11 here
    res = cone_gram(ConeFamilyParams(2, 0.5, "L", beta=0.0), 20)
    assert res.max_offdiag <= 1e-12


@pytest.mark.parametrize("d", (1, 2, 3))
def test_cone_gram_composes_no_ball_polynomial(monkeypatch, d):
    calls = []

    def counting(name, orig):
        def counted(*args):
            calls.append(name)
            return orig(*args)
        return counted

    ball.ball_basis.cache_clear()  # no element of an earlier test carries its poly in
    for owner, name in ((ball, "_compose_radial"), (ball, "homogenize"), (polyalg, "homogenize")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    desc = {"family": "cone-M", "d": d, "mu": 0.75, "p": 40.0, "q": 0.0, "n_max": 5}
    assert run_suite("gram", desc).passed
    assert calls == []
    run_suite("dims", desc)  # reads every homogenization: the counters see it
    assert "homogenize" in calls and ("_compose_radial" in calls) == (d > 1)


def test_cone_factors_cross_to_the_ball_rule():
    angular = cone_factors(3, 0.75, WeightMPQ(30.0, 0.0), 8).angular
    rule = ball_rule(3, 0.75, 8)
    assert np.array_equal(angular.points, rule.points)
    assert np.array_equal(angular.weights, rule.weights)


def test_factor_rules_tensor_is_the_product_rule():
    factors = cone_factors(2, 0.5, WeightMPQ(30.0, 0.0), 6)
    rule = factors.tensor()
    assert len(rule.points) == len(factors.t_rule.nodes) * len(factors.angular.points)
    t = rule.points[:, -1]
    radius = np.linalg.norm(rule.points[:, :-1], axis=1)
    assert np.all(radius <= t * (1 + 1e-15))
    sphere = surface_factors(3, WeightMPQ(30.0, 0.0), 6).tensor()
    radius = np.linalg.norm(sphere.points[:, :-1], axis=1)
    assert np.allclose(radius, sphere.points[:, -1], rtol=1e-14)


def test_factor_rule_windows_name_the_inequality():
    cases = (
        (lambda: cone_rule(2, 1.0, WeightMPQ(30.0, -4.5), 4), "q > -2*mu - d"),
        (lambda: cone_rule(2, 1.0, WeightGammaExp(-4.5), 4), "beta > -2*mu - d"),
        (lambda: surface_rule(2, WeightMPQ(30.0, -2.5), 4), "q > -d"),
        (lambda: surface_rule(2, WeightGammaExp(-2.5), 4), "beta > -d"),
        (lambda: surface_rule(2, WeightMPQ(5.0, 0.0), 4), "p > deg(f) + d"),
    )
    for build, inequality in cases:
        with pytest.raises(IntegrabilityError) as exc:
            build()
        assert exc.value.inequality == inequality
