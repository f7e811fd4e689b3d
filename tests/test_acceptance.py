"""Acceptance gate: one test per exit criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -s` to see the lines.

Tolerances are pinned here and nowhere else; every criterion is checked at
exactly its stated threshold.
"""

import math
import pathlib

import numpy as np
import pytest

from finitecone.ball import ball_basis
from finitecone.cone_solid import (
    ConeFamilyParams,
    cone_basis,
    cone_dimension,
    cone_gram,
    diffdiff_residual_n,
    laguerre_cone_checks,
    limit_to_laguerre,
    operator_residual_m,
    recurrence_residual,
)
from finitecone.cone_surface import (
    SurfaceParams,
    laguerre_surface_ode_residual,
    surface_basis,
    surface_diffdiff_residual_n,
    surface_dimension,
    surface_gram,
    surface_limit_m,
    surface_ode_residual_m,
)
from finitecone.errors import (
    DegenerateParamError,
    IntegrabilityError,
    ValidityError,
)
from finitecone.quadrature import WeightInvExp, WeightMPQ
from finitecone.univariate import (
    MParams,
    NParams,
    coeffs_laguerre,
    coeffs_m,
    coeffs_m_rodrigues,
    coeffs_n,
    coeffs_n_rodrigues,
    norm_m,
    norm_n,
)
from finitecone.verifier import run_suite

from test_univariate import sample_m, sample_n


def report(num, ok, text):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_univariate_golden():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        p = float(rng.uniform(8.0, 60.0))
        q = float(rng.uniform(-0.9, 5.0))
        for n in range(4):
            got = coeffs_m_rodrigues(n, MParams(p, q))
            worst = max(worst, (got - sample_m(n, p, q)).rel_residual_against(sample_m(n, p, q)))
            gotn = coeffs_n_rodrigues(n, NParams(p))
            worst = max(worst, (gotn - sample_n(n, p)).rel_residual_against(sample_n(n, p)))
    report(1, worst <= 1e-12, f"Rodrigues reproduces explicit degree<=3 samples (worst {worst:.2e})")


def test_criterion_2_finite_orthogonality_window():
    p, q, n_max = 12.0, 0.0, 5
    rule = WeightMPQ(p, q).rule(2 * n_max)
    polys = [coeffs_m(n, MParams(p, q)) for n in range(n_max + 1)]
    worst_diag = 0.0
    worst_off = 0.0
    for i in range(n_max + 1):
        hi = norm_m(i, MParams(p, q))
        worst_diag = max(worst_diag, abs(rule.integrate(polys[i] * polys[i]) - hi) / hi)
        for j in range(i):
            hj = norm_m(j, MParams(p, q))
            off = abs(rule.integrate(polys[i] * polys[j])) / math.sqrt(hi * hj)
            worst_off = max(worst_off, off)
    rejected = False
    try:
        run_suite("gram", {"family": "uni-M", "p": p, "q": q, "n_max": 6})
    except (ValidityError, IntegrabilityError):
        rejected = True

    rule_n = WeightInvExp(p).rule(2 * n_max)
    polys_n = [coeffs_n(n, NParams(p)) for n in range(n_max + 1)]
    worst_diag_n = 0.0
    for i in range(n_max + 1):
        hi = norm_n(i, NParams(p))
        worst_diag_n = max(worst_diag_n, abs(rule_n.integrate(polys_n[i] * polys_n[i]) - hi) / hi)
        for j in range(i):
            hj = norm_n(j, NParams(p))
            worst_off = max(worst_off, abs(rule_n.integrate(polys_n[i] * polys_n[j])) / math.sqrt(hi * hj))
    rejected_n = False
    try:
        run_suite("gram", {"family": "uni-N", "p": p, "n_max": 6})
    except (ValidityError, IntegrabilityError):
        rejected_n = True
    ok = worst_diag <= 1e-10 and worst_diag_n <= 1e-10 and rejected and rejected_n
    report(
        2, ok,
        f"p=12 Gram diagonal matches norms to 1e-10 (M {worst_diag:.2e}, N {worst_diag_n:.2e}), "
        f"off-diag {worst_off:.2e}, degree-6 request rejected both families",
    )


def test_criterion_3_solid_cone_orthogonality():
    worst_off = 0.0
    worst_diag = 0.0
    for d in (1, 2):
        res = cone_gram(ConeFamilyParams(d, 0.5, "M", p=30.0, q=0.0), 4)
        worst_off = max(worst_off, res.max_offdiag)
        worst_diag = max(worst_diag, res.max_diag_rel)
        res = cone_gram(ConeFamilyParams(d, 0.5, "N", p=25.0), 4)
        worst_off = max(worst_off, res.max_offdiag)
        worst_diag = max(worst_diag, res.max_diag_rel)
    params = ConeFamilyParams(1, 0.5, "M", p=10.0, q=0.0)
    spot = params.norm(1, 1)
    spot_ok = abs(spot - 1.0 / 7.0) <= 1e-12
    g = cone_gram(params, 1)
    quad = g.matrix[-1, -1]  # the (n, m) = (1, 1) diagonal entry
    quad_ok = abs(quad - 1.0 / 7.0) <= 1e-10
    ok = worst_off < 1e-10 and worst_diag <= 1e-9 and spot_ok and quad_ok
    report(
        3, ok,
        f"solid-cone Gram d in {{1,2}} (off {worst_off:.2e}, diag {worst_diag:.2e}); "
        f"H_11 = 1/7 confirmed by quadrature ({quad:.12f})",
    )


def test_criterion_4_pde_certification():
    worst = 0.0
    for d in (1, 2, 3):
        params = ConeFamilyParams(d, 0.5, "M", p=20.0, q=0.0)
        for n in range(5):
            for el in cone_basis(params, n):
                res = operator_residual_m(params, el)
                worst = max(worst, res.rel_residual_against(el.poly))
    report(
        4, worst <= 1e-9,
        f"solid-cone PDE residuals zero for q=0, n<=4, d in {{1,2,3}}, eigenvalue "
        f"n(n-p+2mu+d) independent of m (worst {worst:.2e})",
    )


def test_criterion_5_difference_differential():
    worst = 0.0
    for d in (1, 2, 3):
        params = ConeFamilyParams(d, 0.5, "N", p=25.0)
        for n in range(5):
            for el in cone_basis(params, n):
                res = diffdiff_residual_n(params, el)
                worst = max(worst, res.rel_residual_against(el.poly))
    for d in (2, 3):
        params = SurfaceParams(d, "N", p=25.0)
        for n in range(5):
            for el in surface_basis(params, n):
                res = surface_diffdiff_residual_n(params, el)
                worst = max(worst, res.rel_residual_against(el.g))
    report(
        5, worst <= 1e-9,
        f"difference-differential identities (solid + surface) with p-2 companions, "
        f"n<=4 (worst {worst:.2e})",
    )


def test_criterion_6_recurrence_certification():
    worst = 0.0
    for d in (1, 2):
        pm = ConeFamilyParams(d, 0.5, "M", p=30.0, q=0.0)
        pn = ConeFamilyParams(d, 0.5, "N", p=30.0)
        for m in range(4):
            for n in range(m + 1, 4):
                worst = max(worst, recurrence_residual(pm, n, m))
                worst = max(worst, recurrence_residual(pn, n, m))
    rep = run_suite(
        "recurrence", {"family": "cone-M", "d": 1, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 4}
    )
    entry = [c for c in rep.checks if c.name == "recurrence/stated-vs-derived"]
    surfaced = len(entry) == 1 and entry[0].verdict == "documented" and entry[0].metric > 1e-6
    docs = pathlib.Path(__file__).resolve().parent.parent / "docs" / "known-discrepancies.md"
    documented = docs.exists() and "three-term" in docs.read_text()
    ok = worst <= 1e-9 and surfaced and documented
    report(
        6, ok,
        f"three-term recurrences vs Rodrigues elements (worst {worst:.2e}); printed-form "
        f"discrepancy surfaced as a named, documented report entry",
    )


def test_criterion_7_limit_relations():
    ok = True
    detail = []
    for d in (1, 2):
        params = ConeFamilyParams(d, 0.5, "M", p=500.0, q=0.0)
        for n in range(4):
            for m in range(n + 1):
                rep = limit_to_laguerre(params, n, m, p_grid=(1e2, 1e3, 1e4))
                if n == m:
                    ok = ok and rep.exponent == "exact" and all(v == 0.0 for v in rep.deviations)
                else:
                    ok = ok and 0.8 <= rep.exponent <= 1.2
    sp = SurfaceParams(2, "M", p=500.0, q=0.0)
    for n in range(4):
        for m in range(n + 1):
            rep = surface_limit_m(sp, n, m, p_grid=(1e2, 1e3, 1e4))
            if n == m:
                ok = ok and rep.exponent == "exact"
            else:
                ok = ok and 0.8 <= rep.exponent <= 1.2
    worst = 0.0
    for d in (1, 2):
        worst = max(worst, max(v for _, v in laguerre_cone_checks(d, 0.5, 4, beta=0.0)))
    for d in (2, 3):
        for n in range(5):
            for m in range(n + 1):
                res = laguerre_surface_ode_residual(SurfaceParams(d, "L", beta=-1.0), n, m)
                g = coeffs_laguerre(n - m, 2 * m + d - 2).shift_up(m)
                worst = max(worst, res.rel_residual_against(g))
    ok = ok and worst <= 1e-9
    detail.append(f"limit targets residual worst {worst:.2e}")
    report(
        7, ok,
        "limit decay exponents in [0.8, 1.2] (exact when n=m); Laguerre-side PDE, "
        "surface ODE and recurrence at 1e-9; " + "; ".join(detail),
    )


def test_criterion_8_surface_orthogonality_and_eigenstructure():
    worst_diag = 0.0
    worst_off = 0.0
    for d in (2, 3):
        res = surface_gram(SurfaceParams(d, "M", p=30.0, q=0.0), 4)
        worst_diag = max(worst_diag, res.max_diag_rel)
        worst_off = max(worst_off, res.max_offdiag)
    worst_ode = 0.0
    for d in (2, 3):
        params = SurfaceParams(d, "M", p=20.0, q=-1.0)
        for n in range(5):
            for el in surface_basis(params, n):
                res = surface_ode_residual_m(params, el)
                worst_ode = max(worst_ode, res.rel_residual_against(el.g))
    ok = worst_diag <= 1e-9 and worst_ode <= 1e-9
    report(
        8, ok,
        f"surface Gram matches norm formulas at d in {{2,3}} (diag {worst_diag:.2e}, "
        f"off {worst_off:.2e}); q=-1 operator residuals {worst_ode:.2e} with eigenvalue n(n-p+d)",
    )


def test_criterion_9_dimension_bookkeeping():
    ok = True
    for d in (2, 3):
        pm = ConeFamilyParams(d, 0.5, "M", p=40.0, q=0.0)
        sm = SurfaceParams(d, "M", p=40.0, q=0.0)
        for n in range(7):
            ok = ok and len(cone_basis(pm, n)) == cone_dimension(d, n) == math.comb(n + d, n)
            want = math.comb(n + d - 1, n) + (math.comb(n + d - 2, n - 1) if n else 0)
            ok = ok and len(surface_basis(sm, n)) == surface_dimension(d, n) == want
    report(9, ok, "basis counts match binomial formulas for n<=6, d in {2,3}")


def test_criterion_10_adapted_worked_example():
    params = ConeFamilyParams(1, 0.5, "M", p=202.0, q=0.0)
    res = cone_gram(params, 8)
    diag_ok = res.max_diag_rel <= 1e-9
    rejected = False
    try:
        ball_basis(1, 0.0, 1)
    except DegenerateParamError as exc:
        rejected = "mu = 0" in str(exc)
    rejected_gram = False
    try:
        cone_gram(ConeFamilyParams(1, 0.0, "M", p=202.0, q=0.0), 8)
    except DegenerateParamError:
        rejected_gram = True
    ok = diag_ok and rejected and rejected_gram
    report(
        10, ok,
        f"d=1, p=202, q=0 instance at mu=1/2 reproduces norms for n<=8 "
        f"(diag rel {res.max_diag_rel:.2e}); mu=0 rejected with the documented "
        f"degeneracy message",
    )
