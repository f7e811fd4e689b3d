"""Univariate family checks: golden samples, recurrence-vs-Rodrigues
agreement, norms against quadrature oracles, differential identities,
derivative shifts, and the Laguerre limit."""

import math

import numpy as np
import pytest
from scipy import special

from finitecone.errors import DegenerateParamError, ValidityError
from finitecone.quadrature import WeightInvExp, WeightMPQ
from finitecone.unipoly import UniPoly
from finitecone.univariate import (
    MParams,
    NParams,
    coeffs_gegenbauer,
    coeffs_jacobi,
    coeffs_laguerre,
    coeffs_m,
    coeffs_m_rodrigues,
    coeffs_n,
    coeffs_n_rodrigues,
    derivative_relation_residual,
    eval_gegenbauer,
    eval_jacobi,
    eval_laguerre,
    eval_m,
    eval_n,
    laguerre_limit_error_m,
    norm_gegenbauer,
    norm_jacobi,
    norm_m,
    norm_n,
    ode_residual_m,
    ode_residual_n,
)
from finitecone.verifier import convergence_fit
from oracles import norm_laguerre


def sample_m(n, p, q):
    """The explicit low-degree members of the first finite class."""
    if n == 0:
        return UniPoly((1.0,))
    if n == 1:
        return UniPoly((-(q + 1), p - 2))
    if n == 2:
        return UniPoly(((q + 2) * (q + 1), -2 * (p - 3) * (q + 2), (p - 4) * (p - 3)))
    if n == 3:
        return UniPoly(
            (
                -(q + 3) * (q + 2) * (q + 1),
                3 * (p - 4) * (q + 3) * (q + 2),
                -3 * (p - 5) * (p - 4) * (q + 3),
                (p - 6) * (p - 5) * (p - 4),
            )
        )
    raise ValueError(n)


def sample_n(n, p):
    """The explicit low-degree members of the second finite class."""
    if n == 0:
        return UniPoly((1.0,))
    if n == 1:
        return UniPoly((-1.0, p - 2))
    if n == 2:
        return UniPoly((1.0, -2 * (p - 3), (p - 4) * (p - 3)))
    if n == 3:
        return UniPoly((-1.0, 3 * (p - 4), -3 * (p - 5) * (p - 4), (p - 6) * (p - 5) * (p - 4)))
    raise ValueError(n)


def test_eval_m_samples():
    assert eval_m(0, MParams(5.3, 0.2), 1.7) == 1.0
    assert eval_m(1, MParams(10, 0), 1.0) == 7.0
    assert eval_m(2, MParams(10, 1), 2.0) == pytest.approx(90.0, rel=1e-14)


def test_eval_n_samples():
    assert eval_n(0, NParams(9.0), 0.3) == 1.0
    assert eval_n(1, NParams(10.0), 2.0) == 15.0
    assert eval_n(2, NParams(10.0), 1.0) == pytest.approx(29.0, rel=1e-14)


def test_rodrigues_coefficient_samples():
    assert coeffs_m_rodrigues(0, MParams(8, 1)).coeffs == (1.0,)
    assert coeffs_m_rodrigues(1, MParams(10, 0)).coeffs == (-1.0, 8.0)
    m3 = coeffs_m_rodrigues(3, MParams(12, 0))
    assert m3.coeffs[3] == pytest.approx(336.0, rel=1e-14)
    assert coeffs_n_rodrigues(0, NParams(7)).coeffs == (1.0,)
    assert coeffs_n_rodrigues(2, NParams(10)).coeffs == pytest.approx((1.0, -14.0, 42.0))
    assert coeffs_n_rodrigues(3, NParams(10)).coeffs == pytest.approx((-1.0, 18.0, -90.0, 120.0))


def test_rodrigues_matches_explicit_samples_random_params():
    rng = np.random.default_rng(3)
    for _ in range(12):
        p = float(rng.uniform(7.5, 40.0))
        q = float(rng.uniform(-0.9, 4.0))
        for n in range(4):
            got = coeffs_m_rodrigues(n, MParams(p, q))
            want = sample_m(n, p, q)
            assert (got - want).rel_residual_against(want) < 1e-13
            gotn = coeffs_n_rodrigues(n, NParams(p))
            wantn = sample_n(n, p)
            assert (gotn - wantn).rel_residual_against(wantn) < 1e-13


def test_recurrence_agrees_with_rodrigues_to_degree_8():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = float(rng.uniform(17.5, 60.0))
        q = float(rng.uniform(-0.9, 5.0))
        mp, np_ = MParams(p, q), NParams(p)
        for n in range(9):
            rec = coeffs_m(n, mp)
            rod = coeffs_m_rodrigues(n, mp)
            assert (rec - rod).rel_residual_against(rod) < 1e-9
            recn = coeffs_n(n, np_)
            rodn = coeffs_n_rodrigues(n, np_)
            assert (recn - rodn).rel_residual_against(rodn) < 1e-9


def test_eval_matches_coeffs():
    mp = MParams(21.0, 0.7)
    for n in range(7):
        poly = coeffs_m(n, mp)
        for x in (0.1, 0.9, 3.7):
            assert eval_m(n, mp, x) == pytest.approx(poly(x), rel=1e-11)


def test_degenerate_recurrence_denominator():
    with pytest.raises(DegenerateParamError):
        eval_m(3, MParams(3.0, 0.5), 1.0)  # p - (k+1) vanishes at k = 2
    with pytest.raises(DegenerateParamError):
        eval_n(3, NParams(4.0), 1.0)  # p - 2k vanishes at k = 2


def test_norm_m_values_and_validity():
    assert norm_m(0, MParams(9.2, 0.4)) == pytest.approx(1.0, rel=1e-13)
    assert norm_m(1, MParams(10, 0)) == pytest.approx(9.0 / 7.0, rel=1e-13)
    with pytest.raises(ValidityError):
        norm_m(2, MParams(5, 0))
    with pytest.raises(ValidityError):
        norm_m(1, MParams(10, -1.0))


def test_norm_n_values_and_validity():
    assert norm_n(0, NParams(6.6)) == pytest.approx(1.0, rel=1e-13)
    assert norm_n(1, NParams(10)) == pytest.approx(1.0 / 7.0, rel=1e-13)
    with pytest.raises(ValidityError):
        norm_n(3, NParams(7))


def test_norms_against_quadrature_oracle():
    mp = MParams(16.0, 0.5)
    for n in range(6):
        poly = coeffs_m(n, mp)
        val = WeightMPQ(mp.p, mp.q).rule(2 * n).integrate(poly * poly)
        assert val == pytest.approx(norm_m(n, mp), rel=1e-10)
    np_ = NParams(16.0)
    for n in range(6):
        poly = coeffs_n(n, np_)
        val = WeightInvExp(np_.p).rule(2 * n).integrate(poly * poly)
        assert val == pytest.approx(norm_n(n, np_), rel=1e-10)


def test_quadrature_orthogonality_and_boundary():
    # off-diagonals vanish below 2N+1 < p; at p = 2N+1 the Gram integral of
    # the top member is rejected by the integrability predicate
    mp = MParams(13.0, 0.0)
    weight = WeightMPQ(mp.p, mp.q)
    polys = [coeffs_m(n, mp) for n in range(6)]
    for i in range(6):
        for j in range(i):
            val = weight.rule(i + j).integrate(polys[i] * polys[j])
            assert abs(val) < 1e-11 * math.sqrt(norm_m(i, mp) * norm_m(j, mp))
    from finitecone.errors import IntegrabilityError

    top = polys[-1]
    with pytest.raises(IntegrabilityError):
        WeightMPQ(11.0, 0.0).rule((top * top).degree)  # p = 2N+1 exactly


def test_ode_residuals():
    assert ode_residual_m(0, MParams(9, 0)).is_zero()
    assert ode_residual_n(0, NParams(9)).is_zero()
    for p, q in ((20.0, 0.0), (31.5, 1.0), (44.0, 2.5)):
        for n in range(9):
            res = ode_residual_m(n, MParams(p, q))
            assert res.rel_residual_against(coeffs_m(n, MParams(p, q))) < 1e-9
            res = ode_residual_n(n, NParams(p))
            assert res.rel_residual_against(coeffs_n(n, NParams(p))) < 1e-9


def test_ode_residual_from_rodrigues_sample():
    # differentiate the explicit degree-2 sample directly
    p, q = 10.0, 0.0
    y = sample_m(2, p, q)
    y1, y2 = y.derivative(), y.derivative().derivative()
    res = (
        y2.shift_up(1) + y2.shift_up(2)
        + y1.shift_up(1).scale(2 - p) + y1.scale(1 + q)
        - y.scale(2 * (3 - p))
    )
    assert res.max_abs() < 1e-10


def test_derivative_relation():
    res = derivative_relation_residual("M", 1, MParams(10.0, 0.0))
    assert res.max_abs() < 1e-12  # d/dx M_1 = 8 = 1*(10-2) * M_0^{(8,1)}
    res = derivative_relation_residual("N", 1, NParams(10.0))
    assert res.max_abs() < 1e-12
    res = derivative_relation_residual("M", 3, MParams(20.0, 2.0), source="rodrigues")
    ref = coeffs_m_rodrigues(3, MParams(20.0, 2.0)).derivative()
    assert res.rel_residual_against(ref) < 1e-10
    for n in range(1, 7):
        res = derivative_relation_residual("M", n, MParams(25.0, 0.3))
        assert res.rel_residual_against(coeffs_m(n, MParams(25.0, 0.3)).derivative()) < 1e-10
        res = derivative_relation_residual("N", n, NParams(25.0))
        assert res.rel_residual_against(coeffs_n(n, NParams(25.0)).derivative()) < 1e-10


def test_laguerre_limit_errors():
    errs = laguerre_limit_error_m(1, 0.0, 1.0, [100.0])
    assert errs[0] == pytest.approx(0.02, rel=1e-10)
    assert laguerre_limit_error_m(0, 0.0, 1.0, [50.0, 100.0]) == [0.0, 0.0]
    e = laguerre_limit_error_m(2, 0.0, 1.0, [1e2, 1e3, 1e4])
    assert e[0] / e[1] == pytest.approx(10.0, rel=0.25)
    assert e[1] / e[2] == pytest.approx(10.0, rel=0.25)


def test_limit_decay_exponent_window():
    grid = [1e2, 1e3, 1e4]
    for n in range(5):
        errs = [
            max(laguerre_limit_error_m(n, 0.5, x, [p])[0] for x in (0.6, 1.4))
            for p in grid
        ]
        fit = convergence_fit(list(zip(grid, errs)))
        if fit == "exact":
            assert n == 0
        else:
            assert 0.8 <= fit <= 1.2


def test_jacobi():
    assert eval_jacobi(0, 0.3, -0.2, 0.7) == 1.0
    assert eval_jacobi(1, 0.0, 0.0, 0.3) == pytest.approx(0.3, rel=1e-14)
    assert norm_jacobi(1, 0.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    with pytest.raises(ValidityError):
        eval_jacobi(2, -1.0, 0.0, 0.1)
    # the coefficient path and the recurrence values (also on an array)
    # agree with scipy
    ts = np.array([-0.8, 0.1, 0.9])
    for n in range(6):
        poly = coeffs_jacobi(n, 0.7, -0.3)
        want = special.eval_jacobi(n, 0.7, -0.3, ts)
        assert np.allclose(eval_jacobi(n, 0.7, -0.3, ts), want, rtol=1e-12, atol=1e-14)
        for t, w in zip(ts, want):
            assert poly(t) == pytest.approx(w, rel=1e-12, abs=1e-14)


def test_laguerre_and_rodrigues_oracle():
    assert eval_laguerre(0, 0.0, 2.2) == 1.0
    assert eval_laguerre(1, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert norm_laguerre(2, 0.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValidityError):
        eval_laguerre(1, -1.5, 0.2)

    def laguerre_rodrigues(n, alpha):
        # n-th derivative of x^(n+alpha) e^-x, then strip the prefactor
        terms = {0: 1.0}
        for _ in range(n):
            new = {}
            for off, c in terms.items():
                a = n + alpha + off
                new[off - 1] = new.get(off - 1, 0.0) + c * a
                new[off] = new.get(off, 0.0) - c
            terms = new
        coeffs = [0.0] * (n + 1)
        for off, c in terms.items():
            coeffs[n + off] = c / math.factorial(n)
        return UniPoly(coeffs)

    for n in range(6):
        for alpha in (0.0, 1.3, 2.5):
            got = coeffs_laguerre(n, alpha)
            want = laguerre_rodrigues(n, alpha)
            assert (got - want).rel_residual_against(want) < 1e-13


def test_gegenbauer():
    assert eval_gegenbauer(1, 0.5, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert eval_gegenbauer(2, 1.0, 0.0) == pytest.approx(-1.0, rel=1e-14)
    assert norm_gegenbauer(0, 0.5) == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(DegenerateParamError):
        eval_gegenbauer(1, 0.0, 0.5)
    with pytest.raises(DegenerateParamError):
        coeffs_gegenbauer(2, 0.0)
    with pytest.raises(ValidityError):
        eval_gegenbauer(1, -0.7, 0.5)
    xs = np.array([-0.9, 0.2, 1.0])
    for m in range(6):
        poly = coeffs_gegenbauer(m, 0.8)
        want = special.eval_gegenbauer(m, 0.8, xs)
        assert np.allclose(eval_gegenbauer(m, 0.8, xs), want, rtol=1e-12, atol=1e-14)
        for x, w in zip(xs, want):
            assert poly(x) == pytest.approx(w, rel=1e-12, abs=1e-14)


def test_max_degree_property():
    assert MParams(12.0, 0.0).max_degree == 5
    assert MParams(13.0, 0.0).max_degree == 5  # p = 2N+1 not allowed at N = 6
    assert NParams(14.0).max_degree == 6
