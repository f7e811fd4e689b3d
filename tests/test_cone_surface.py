"""Conic-surface families: dimensions, norms against quadrature, Gram, the
q = -1 operator identity, the difference-differential identity, and the
Laguerre limit."""

import math

import numpy as np
import pytest

from finitecone.cone_solid import cone_sample_grid
from finitecone.cone_surface import (
    SurfaceParams,
    laguerre_surface_ode_residual,
    surface_basis,
    surface_diffdiff_residual_n,
    surface_dimension,
    surface_gram,
    surface_limit_m,
    surface_ode_residual_m,
    surface_sample_grid,
)
from finitecone.errors import (
    DomainError,
    QNotMinusOneError,
    UnsupportedDimension,
    ValidityError,
)
from finitecone.harmonics import dim_harmonic, harmonic_basis
from finitecone.polyalg import MultiPoly
from finitecone.quadrature import surface_rule
from finitecone.verifier import run_suite


def test_params_validation():
    with pytest.raises(DomainError):
        SurfaceParams(2, "M", p=10.0)  # missing q
    with pytest.raises(UnsupportedDimension):
        SurfaceParams(5, "M", p=10.0, q=0.0)
    sp = SurfaceParams(2, "M", p=10.0, q=0.0)
    with pytest.raises(ValidityError):
        sp.require_valid(4)  # p <= 2N + d
    with pytest.raises(ValidityError):
        SurfaceParams(2, "M", p=10.0, q=-2.0).require_valid(0)
    with pytest.raises(ValidityError):
        SurfaceParams(2, "N", p=6.0).require_valid(2)
    assert SurfaceParams(2, "N", p=10.0).max_degree == 3
    assert SurfaceParams(3, "L", beta=0.0).max_degree is None


def test_dimension_formula_and_counts():
    assert surface_dimension(3, 2) == 9  # 1 + 3 + 5
    for d in (2, 3):
        rep = run_suite("dims", {"family": "surf-M", "d": d, "p": 40.0, "q": 0.0, "n_max": 6})
        split = [c.metric for c in rep.checks if c.name.startswith("dims/harmonic-sum/")]
        assert split == [0.0] * 7  # the harmonic split fills every degree
        params = SurfaceParams(d, "M", p=40.0, q=0.0)
        for n in range(7):
            elems = surface_basis(params, n)
            assert len(elems) == surface_dimension(d, n)
            assert len(elems) == math.comb(n + d - 1, n) + (
                math.comb(n + d - 2, n - 1) if n >= 1 else 0
            )
    # d = 1 is construction-only: two rays give at most two elements
    params = SurfaceParams(1, "M", p=40.0, q=0.0)
    assert len(surface_basis(params, 0)) == 1
    assert len(surface_basis(params, 3)) == 2


def test_radial_parameter_shift_sample():
    # d = 2, n = 1, m = 0: the radial factor is the degree-1 member at
    # parameters (p - 1, q + 1), i.e. (p - 3) t - (q + 2)
    p, q = 11.0, 0.5
    params = SurfaceParams(2, "M", p=p, q=q)
    el = [e for e in surface_basis(params, 1) if e.m == 0][0]
    assert el.radial.coeffs == pytest.approx((-(q + 2), p - 3))
    # second family analog: N_1 at p - d + 1 is (p - d - 1) t - 1
    pn = SurfaceParams(2, "N", p=12.0)
    el = [e for e in surface_basis(pn, 1) if e.m == 0][0]
    assert el.radial.coeffs == pytest.approx((-1.0, 12.0 - 2 - 1))


def test_norms_and_quadrature_oracle():
    assert SurfaceParams(2, "M", p=9.0, q=0.0).norm(0, 0) == pytest.approx(1.0, rel=1e-13)
    assert SurfaceParams(2, "N", p=9.0).norm(0, 0) == pytest.approx(1.0, rel=1e-13)
    pn = SurfaceParams(2, "N", p=10.0)
    assert pn.norm(0, 1) == pytest.approx(1.0 / 6.0, rel=1e-13)
    el = [e for e in surface_basis(pn, 1) if e.m == 0][0]
    sq = el.poly * el.poly
    got = surface_rule(2, pn.radial_weight(), sq.degree).integrate(sq)
    assert got == pytest.approx(1.0 / 6.0, rel=1e-11)
    # first family spot value cross-checked by quadrature
    pm = SurfaceParams(2, "M", p=10.0, q=0.0)
    el = [e for e in surface_basis(pm, 1) if e.m == 1][0]
    sq = el.poly * el.poly
    got = surface_rule(2, pm.radial_weight(), sq.degree).integrate(sq)
    assert got == pytest.approx(pm.norm(1, 1), rel=1e-11)


def test_gram():
    for d in (2, 3):
        res = surface_gram(SurfaceParams(d, "M", p=30.0, q=0.0), 4)
        assert res.max_offdiag < 1e-10
        assert res.max_diag_rel < 1e-9
        assert res.unit_norm_dev < 1e-12
    res = surface_gram(SurfaceParams(2, "N", p=25.0), 3)
    assert res.max_offdiag < 1e-11
    assert res.max_diag_rel < 1e-9


def test_gram_large_parameters_stay_accurate():
    res = surface_gram(SurfaceParams(3, "N", p=150.0), 6)
    assert res.max_offdiag < 1e-10
    assert res.max_diag_rel < 1e-10
    res = surface_gram(SurfaceParams(2, "M", p=400.0, q=0.0), 8)
    assert res.max_diag_rel < 1e-9


def test_gram_boundary():
    with pytest.raises(ValidityError):
        surface_gram(SurfaceParams(2, "M", p=2 * 4 + 2.0, q=0.0), 4)


def test_ode_q_minus_one():
    params = SurfaceParams(2, "M", p=10.0, q=-1.0)
    el0 = surface_basis(params, 0)[0]
    assert surface_ode_residual_m(params, el0).is_zero()
    for n in range(3):
        for el in surface_basis(params, n):
            res = surface_ode_residual_m(params, el)
            assert res.rel_residual_against(el.g) < 1e-9
    params3 = SurfaceParams(3, "M", p=20.0, q=-1.0)
    for n in range(4):
        for el in surface_basis(params3, n):
            res = surface_ode_residual_m(params3, el)
            assert res.rel_residual_against(el.g) < 1e-9


def test_ode_guards():
    params = SurfaceParams(2, "M", p=10.0, q=0.0)
    el = surface_basis(params, 1)[0]
    with pytest.raises(QNotMinusOneError):
        surface_ode_residual_m(params, el)
    # d = 1 never reaches the operator (and q = -1 is outside its q > -d
    # window anyway, so the element is borrowed from a valid bundle)
    el = surface_basis(SurfaceParams(1, "M", p=10.0, q=-0.5), 1)[0]
    with pytest.raises(UnsupportedDimension):
        surface_ode_residual_m(SurfaceParams(1, "M", p=10.0, q=-1.0), el)


def test_diffdiff():
    params = SurfaceParams(2, "N", p=12.0)
    for el in surface_basis(params, 1):
        res = surface_diffdiff_residual_n(params, el)
        assert res.rel_residual_against(el.g) < 1e-12
    for d, p in ((2, 20.0), (3, 20.0)):
        params = SurfaceParams(d, "N", p=p)
        for n in range(5):
            for el in surface_basis(params, n):
                res = surface_diffdiff_residual_n(params, el)
                assert res.rel_residual_against(el.g) < 1e-9
    # n = m: the companion term vanishes
    el = [e for e in surface_basis(SurfaceParams(2, "N", p=20.0), 2) if e.m == 2][0]
    res = surface_diffdiff_residual_n(SurfaceParams(2, "N", p=20.0), el)
    assert res.rel_residual_against(el.g) < 1e-12


def test_limit():
    params = SurfaceParams(2, "M", p=500.0, q=0.0)
    rep = surface_limit_m(params, 0, 0)
    assert rep.exponent == "exact"
    rep = surface_limit_m(params, 1, 0)
    assert 0.8 <= rep.exponent <= 1.2
    assert rep.deviations[0] / rep.deviations[1] == pytest.approx(10.0, rel=0.2)
    for n in range(4):
        for m in range(n + 1):
            rep = surface_limit_m(params, n, m)
            if n == m:
                assert rep.exponent == "exact"
            else:
                assert 0.8 <= rep.exponent <= 1.2


def test_laguerre_surface_ode():
    from finitecone.univariate import coeffs_laguerre

    for d in (2, 3):
        for n in range(5):
            for m in range(n + 1):
                res = laguerre_surface_ode_residual(SurfaceParams(d, "L", beta=-1.0), n, m)
                g = coeffs_laguerre(n - m, 2 * m + d - 2).shift_up(m)
                assert res.rel_residual_against(g) < 1e-9
    with pytest.raises(DomainError):
        laguerre_surface_ode_residual(SurfaceParams(2, "L", beta=0.0), 1, 0)
    with pytest.raises(UnsupportedDimension):
        laguerre_surface_ode_residual(SurfaceParams(1, "L", beta=-1.0), 1, 0)


def test_laguerre_surface_ode_rows_build_each_radial_once(chain_steps):
    # one chain per m = 0 .. 4, reaching degree 4 - m, so the 15 radials
    # (n, m) are computed once each: steps for degrees 2 .. 4 - m
    chains = chain_steps("_laguerre_chain")
    rep = run_suite("ode", {"family": "surf-L", "d": 2, "beta": -1.0, "n_max": 4})
    assert rep.passed and len(rep.checks) == 15
    assert chains == [[2, 3, 4], [2, 3], [2], [], []]


def test_harmonic_split_matches_dimension():
    for d in (2, 3):
        for n in range(7):
            assert sum(dim_harmonic(d, m) for m in range(n + 1)) == surface_dimension(d, n)


def test_sample_grid_is_built_once_read_only_and_on_the_surface():
    for d in (1, 2, 3):
        grid = surface_sample_grid(d)
        assert grid is surface_sample_grid(d)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
        fresh = np.array([
            list(np.asarray(pt[:d]) / np.linalg.norm(pt[:d]) * pt[d]) + [pt[d]]
            for pt in cone_sample_grid.__wrapped__(d)
        ])
        assert np.array_equal(fresh, grid)
        assert np.allclose(np.linalg.norm(grid[:, :d], axis=1), grid[:, d], rtol=1e-14)


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("family", ("M", "N", "L"))
def test_poly_is_built_on_first_read_as_the_eager_product(d, family):
    params = SurfaceParams(d, family, p=30.0, q=-0.5, beta=0.5)
    n_max = 4
    elements = surface_gram(params, n_max).elements
    assert len(elements) == sum(surface_dimension(d, n) for n in range(n_max + 1))
    assert not any("poly" in vars(el) for el in elements)
    for el in elements:
        assert el.harmonic is harmonic_basis(d, el.m).elements[el.l - 1]
        eager = MultiPoly.from_unipoly_t(params.radial(el.n, el.m), d) * el.harmonic
        assert el.poly.terms.keys() == eager.terms.keys()
        assert all(el.poly.terms[e] == c for e, c in eager.terms.items())
