"""Solid-cone families: construction against the explicit low-degree
samples, norms against quadrature, Gram matrices, operator identities,
recurrences (including the documented stated-form discrepancy), and the
Laguerre limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitecone.cone_solid import (
    ConeFamilyParams,
    cone_basis,
    cone_dimension,
    cone_gram,
    cone_sample_grid,
    diffdiff_residual_n,
    expected_sq_norm,
    identity_residuals,
    laguerre_cone_checks,
    laguerre_pde_residual,
    limit_to_laguerre,
    operator_residual_m,
    recurrence_residual,
    solid_m_operator,
)
from finitecone.errors import (
    DegenerateParamError,
    DomainError,
    QNotZeroError,
    ValidityError,
)
from finitecone.polyalg import MultiPoly, apply_operator
from finitecone.quadrature import cone_rule
from oracles import element_residual


def mp(d=1, mu=0.5, p=30.0, q=0.0):
    return ConeFamilyParams(d, mu, "M", p=p, q=q)


def np_params(d=1, mu=0.5, p=30.0):
    return ConeFamilyParams(d, mu, "N", p=p)


def test_params_validation():
    with pytest.raises(DomainError):
        ConeFamilyParams(1, 0.5, "M", p=10.0)  # missing q
    with pytest.raises(DomainError):
        ConeFamilyParams(1, 0.5, "X", p=10.0)
    with pytest.raises(ValidityError):
        mp(p=4.0).require_valid(1)  # p <= 2N + 2 mu + d
    with pytest.raises(ValidityError):
        mp(q=-2.0).require_valid(0)  # q <= -2 mu - d
    with pytest.raises(ValidityError):
        ConeFamilyParams(2, 0.5, "L", beta=-2.0).require_valid(0)
    assert mp(p=12.0).max_degree == 4  # p > 2N + 2 at d = 1, mu = 1/2
    assert ConeFamilyParams(1, 0.5, "L", beta=0.0).max_degree is None


def test_d1_sample_elements_match_explicit_forms():
    # the construction composed with the explicit univariate samples
    p, q, mu = 10.0, 0.0, 0.5
    params = mp(p=p, q=q, mu=mu)
    by_label = {
        el.label: el for n in range(3) for el in cone_basis(params, n, "paper-gegenbauer")
    }
    assert by_label["n0.m0.k0"].poly.terms == {(0, 0): 1.0}
    got = by_label["n1.m0.k0"].poly
    assert got.terms == {(0, 1): p - 2 * mu - 2, (0, 0): -(q + 2 * mu + 1)}
    assert by_label["n1.m1.k0"].poly.terms == {(1, 0): 2 * mu}
    got = by_label["n2.m0.k0"].poly.terms
    assert got[(0, 2)] == pytest.approx((p - 2 * mu - 4) * (p - 2 * mu - 3), rel=1e-14)
    assert got[(0, 1)] == pytest.approx(-2 * (p - 2 * mu - 3) * (q + 2 * mu + 2), rel=1e-14)
    assert got[(0, 0)] == pytest.approx((q + 2 * mu + 2) * (q + 2 * mu + 1), rel=1e-14)
    # radials carry shifted parameters, so the m = 1 slice of degree 2 is
    # M_1 at (p - 2mu - 2, q + 2mu + 2) times 2 mu x
    got = by_label["n2.m1.k0"].poly.terms
    assert got[(1, 1)] == pytest.approx(2 * mu * (p - 2 * mu - 4), rel=1e-14)
    assert got[(1, 0)] == pytest.approx(-2 * mu * (q + 2 * mu + 3), rel=1e-14)
    got = by_label["n2.m2.k0"].poly.terms
    assert got[(2, 0)] == pytest.approx(2 * mu * (mu + 1), rel=1e-14)
    assert got[(0, 2)] == pytest.approx(-mu, rel=1e-14)


def test_d1_sample_elements_second_family():
    p, mu = 12.0, 0.5
    params = np_params(p=p, mu=mu)
    by_label = {
        el.label: el for n in range(3) for el in cone_basis(params, n, "paper-gegenbauer")
    }
    assert by_label["n1.m0.k0"].poly.terms == {(0, 1): p - 2 * mu - 2, (0, 0): -1.0}
    assert by_label["n1.m1.k0"].poly.terms == {(1, 0): 2 * mu}
    got = by_label["n2.m2.k0"].poly.terms
    assert got[(2, 0)] == pytest.approx(2 * mu * (1 + mu), rel=1e-14)
    assert got[(0, 2)] == pytest.approx(-mu, rel=1e-14)


def test_counts():
    for d in (1, 2, 3):
        params = ConeFamilyParams(d, 0.5, "M", p=40.0, q=0.0)
        for n in range(6):
            elems = cone_basis(params, n)
            assert len(elems) == cone_dimension(d, n) == math.comb(n + d, n)


def test_norm_values_and_oracle():
    params = mp(p=10.0, q=0.0)
    assert params.norm(0, 0) == pytest.approx(1.0, rel=1e-13)
    assert params.norm(1, 1) == pytest.approx(1.0 / 7.0, rel=1e-13)
    # quadrature oracle: the element's square under the mass-one cone rule
    el = cone_basis(params, 1)[-1]
    assert el.m == 1
    sq = el.poly * el.poly
    got = cone_rule(1, 0.5, params.radial_weight(), sq.degree).integrate(sq)
    assert got == pytest.approx(1.0 / 7.0, rel=1e-11)

    pn = np_params(p=12.0)
    assert pn.norm(0, 1) == pytest.approx(1.0 / 8.0, rel=1e-13)
    el = cone_basis(pn, 1)[0]
    assert el.m == 0
    sq = el.poly * el.poly
    got = cone_rule(1, 0.5, pn.radial_weight(), sq.degree).integrate(sq)
    assert got == pytest.approx(1.0 / 8.0, rel=1e-11)


def test_gram_m_and_n():
    for d in (1, 2):
        res = cone_gram(mp(d=d, p=30.0), 4)
        assert res.max_offdiag < 1e-10
        assert res.max_diag_rel < 1e-9
        assert res.unit_norm_dev < 1e-12
        res = cone_gram(np_params(d=d, p=25.0), 3)
        assert res.max_offdiag < 1e-10
        assert res.max_diag_rel < 1e-9


def test_gram_large_parameters_stay_accurate():
    # recurrence-based radial evaluation keeps paper-scale parameters sharp
    res = cone_gram(np_params(d=1, p=300.0), 8)
    assert res.max_offdiag < 1e-10
    assert res.max_diag_rel < 1e-10
    res = cone_gram(mp(d=1, p=202.0, q=0.0), 8)
    assert res.max_diag_rel < 1e-9


def test_gram_boundary_rejected():
    n_max, d, mu = 4, 1, 0.5
    with pytest.raises(ValidityError):
        cone_gram(mp(d=d, mu=mu, p=2 * n_max + 2 * mu + d), n_max)


def test_gram_paper_gegenbauer_diagonal():
    params = mp(p=20.0, q=0.0)
    res = cone_gram(params, 3, "paper-gegenbauer")
    assert res.max_offdiag < 1e-10
    assert res.max_diag_rel < 1e-9  # expected diagonal includes the angular norm
    # the expected diagonal really differs from the orthonormal one
    ortho = cone_gram(params, 3)
    assert not np.allclose(res.expected_diag, ortho.expected_diag)


def test_operator_residual_m():
    params = mp(d=1, p=10.0, q=0.0)
    elems = cone_basis(params, 0)
    assert operator_residual_m(params, elems[0]).is_zero()
    # explicit eigenvalue check for the (n, m) = (2, 0) element
    el = [e for e in cone_basis(params, 2) if e.m == 0][0]
    op = solid_m_operator(1, 0.5, 10.0)
    image = apply_operator(op, el.poly)
    assert (image - el.poly.scale(-12.0)).rel_residual_against(el.poly) < 1e-12
    for d in (2, 3):
        params = mp(d=d, p=20.0, q=0.0)
        for n in range(4):
            for el in cone_basis(params, n):
                res = operator_residual_m(params, el)
                assert res.rel_residual_against(el.poly) < 1e-9


def test_operator_requires_q_zero():
    params = mp(p=20.0, q=1.0)
    el = cone_basis(params, 1)[0]
    with pytest.raises(QNotZeroError):
        operator_residual_m(params, el)


def test_diffdiff_residual_n():
    params = np_params(d=1, p=12.0)
    for el in cone_basis(params, 1):
        res = diffdiff_residual_n(params, el)
        assert res.rel_residual_against(el.poly) < 1e-12
    # pure angular element: the companion term vanishes
    el = [e for e in cone_basis(params, 2) if e.m == 2][0]
    assert diffdiff_residual_n(params, el).rel_residual_against(el.poly) < 1e-12
    for d in (2, 3):
        params = np_params(d=d, p=25.0)
        for n in range(5):
            for el in cone_basis(params, n):
                res = diffdiff_residual_n(params, el)
                assert res.rel_residual_against(el.poly) < 1e-9


_VIEWS = {"M": operator_residual_m, "N": diffdiff_residual_n, "L": laguerre_pde_residual}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from("MNL"),
    st.sampled_from(
        [(1, "orthonormal"), (1, "paper-gegenbauer"), (2, "orthonormal"), (3, "orthonormal")]
    ),
    st.integers(0, 5),
    st.floats(-0.45, 2.5).filter(lambda mu: abs(mu) >= 0.05),
    st.floats(0.05, 60.0),
)
def test_block_residuals_agree_with_the_per_element_oracle(family, dc, n_max, mu, margin):
    # the (n, m) blocks against apply_operator on the multiplied-out element,
    # at q = 0 (M) and beta = 0 (L), where the identities hold.  Both sides
    # round at the size of the terms that cancel, the image L(R A), which
    # is about |eigenvalue| times the element (up to 1.4e-13 of the element
    # for the oracle alone), so the bound is relative to that image
    d, convention = dc
    params = ConeFamilyParams(
        d, mu, family,
        p=None if family == "L" else 2 * n_max + 2 * mu + d + margin,
        q=0.0 if family == "M" else None,
        beta=0.0 if family == "L" else None,
    )
    view = _VIEWS[family]
    for el, residual, carrier in identity_residuals(params, n_max, convention):
        assert carrier == el.poly.max_abs_coeff()
        want = element_residual(params, el)
        got = view(params, el)
        tol = 1e-14 * max(carrier, apply_operator(params.operator, el.poly).max_abs_coeff())
        assert (got - want).max_abs_coeff() <= tol
        assert abs(residual - want.max_abs_coeff()) <= tol
        if el.n == 0:
            assert got.is_zero() and residual == 0.0


def test_recurrence_derived_vs_stated():
    params = mp(d=1, p=30.0, q=0.0)
    for m in range(3):
        for n in range(m + 1, 4):
            assert recurrence_residual(params, n, m) < 1e-9
    # the printed middle coefficient deviates systematically for m < n
    stated = recurrence_residual(params, 2, 0, variant="stated")
    assert stated > 1e-4
    # the second family's printed coefficients match the substitution
    pn = np_params(d=1, p=30.0)
    for m in range(3):
        for n in range(m + 1, 4):
            assert recurrence_residual(pn, n, m) < 1e-9
    params2 = mp(d=2, p=30.0, q=0.5)
    for m in range(3):
        for n in range(m + 1, 4):
            assert recurrence_residual(params2, n, m) < 1e-9


def test_recurrence_preconditions():
    params = mp(p=30.0)
    with pytest.raises(DomainError):
        recurrence_residual(params, 1, 1)  # needs n >= m + 1
    with pytest.raises(ValidityError):
        recurrence_residual(mp(p=10.0), 4, 0)  # n + 1 leaves the window
    # inside the validity window the recurrence denominators are bounded
    # away from zero, so the degeneracy guard only fires through the raw
    # coefficient interface
    from finitecone.cone_solid import recurrence_coefficients

    with pytest.raises(DegenerateParamError):
        recurrence_coefficients(mp(p=2 + 0 + 2 * 0.5 + 1.0), 2, 0)


def test_limit_reports():
    params = mp(d=1, p=1000.0, q=0.0)
    rep = limit_to_laguerre(params, 0, 0)
    assert rep.exponent == "exact" and all(v == 0.0 for v in rep.deviations)
    rep = limit_to_laguerre(params, 1, 1)
    assert rep.exponent == "exact"
    rep = limit_to_laguerre(params, 1, 0)
    assert 0.8 <= rep.exponent <= 1.2
    # deviations shrink by about a decade per decade of p
    assert rep.deviations[0] / rep.deviations[1] == pytest.approx(10.0, rel=0.2)
    assert rep.deviations[1] / rep.deviations[2] == pytest.approx(10.0, rel=0.2)
    for d in (1, 2):
        params = mp(d=d, p=500.0, q=0.0)
        for n in range(4):
            for m in range(n + 1):
                rep = limit_to_laguerre(params, n, m)
                if n == m:
                    assert rep.exponent == "exact"
                else:
                    assert 0.8 <= rep.exponent <= 1.2


def test_laguerre_cone_identities():
    for d in (1, 2):
        checks = laguerre_cone_checks(d, 0.5, 4)
        assert checks, "expected a nonempty list of checks"
        assert max(v for _, v in checks) < 1e-9
    # explicit spot: the degree-only eigenvalue at n = 0
    params = ConeFamilyParams(2, 0.5, "L", beta=0.0)
    el = cone_basis(params, 0)[0]
    assert laguerre_pde_residual(params, el).is_zero()
    with pytest.raises(DomainError):
        laguerre_pde_residual(ConeFamilyParams(2, 0.5, "L", beta=1.0), el)


def test_sample_grid_inside_cone():
    for d in (1, 2, 3):
        grid = cone_sample_grid(d)
        assert len(grid) == 50
        for pt in grid:
            x, t = pt[:-1], pt[-1]
            assert np.linalg.norm(x) <= t + 1e-12


def test_sample_grid_is_built_once_and_read_only():
    for d in (1, 2, 3):
        grid = cone_sample_grid(d)
        assert grid is cone_sample_grid(d)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
        fresh = cone_sample_grid.__wrapped__(d)
        assert fresh is not grid and np.array_equal(fresh, grid)


_LAZY_CASES = [
    (ConeFamilyParams(d, 0.5, family, p=30.0, q=0.5, beta=0.3), "orthonormal")
    for d in (1, 2, 3)
    for family in ("M", "N", "L")
] + [(mp(d=1, mu=0.7, p=30.0, q=0.5), "paper-gegenbauer")]


@pytest.mark.parametrize("params,convention", _LAZY_CASES)
def test_poly_is_built_on_first_read_as_the_eager_product(params, convention):
    """poly stays unbuilt through the Gram, and on read equals the product
    radial(t) * t^m P(x/t) multiplied out once per (n, m): same keys, == on
    every coefficient."""
    n_max = 4
    elements = cone_gram(params, n_max, convention).elements
    assert len(elements) == math.comb(n_max + params.d + 1, n_max)
    assert not any("poly" in vars(el) for el in elements)
    for n in range(n_max + 1):
        for m in range(n + 1):
            rad_mp = MultiPoly.from_unipoly_t(params.radial(n, m), params.d)
            built = [el for el in elements if (el.n, el.m) == (n, m)]
            balls = params.balls(m, convention)
            assert len(built) == len(balls)
            for el, b in zip(built, balls):
                eager = rad_mp * b.homogeneous
                assert el.poly.terms.keys() == eager.terms.keys()
                assert all(el.poly.terms[e] == c for e, c in eager.terms.items())
                assert el.poly is el.poly


def test_expected_sq_norm_orthonormal_is_cone_norm():
    params = mp(p=25.0, q=0.5)
    for el in cone_basis(params, 2):
        assert expected_sq_norm(params, el) == pytest.approx(
            params.norm(el.m, el.n), rel=1e-14
        )
