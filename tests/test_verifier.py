"""Verifier: convergence fitting, suite orchestration, boundary probing,
report determinism and serialization."""

import json
import re
import sys

import pytest

from finitecone import ball, harmonics, univariate
from finitecone.cli import main
from finitecone.cone_solid import ConeFamilyParams, cone_basis, laguerre_cone_checks
from finitecone.errors import DegenerateDataError, DomainError, FiniteConeError, ValidityError
from finitecone.polyalg import MultiPoly, OperatorSpec, euler_operator
from finitecone.verifier import (
    DEFAULT_THRESHOLDS,
    FAMILIES,
    FAMILY_SUITES,
    KNOWN_DISCREPANCY_NOTE,
    SUITES,
    Report,
    convergence_fit,
    parse_descriptor,
    run_suite,
)
from oracles import apply_operator_termwise


def test_convergence_fit_exact_inverse():
    assert convergence_fit([(1e2, 2e-2), (1e3, 2e-3), (1e4, 2e-4)]) == pytest.approx(1.0, abs=1e-12)


def test_convergence_fit_all_zero():
    assert convergence_fit([(1e2, 0.0), (1e3, 0.0), (1e4, 0.0)]) == "exact"


def test_convergence_fit_mixed_decay():
    errs = [(p, 1.0 / p + 5.0 / p**2) for p in (1e2, 1e3, 1e4)]
    fit = convergence_fit(errs)
    assert 0.95 <= fit <= 1.05


def test_convergence_fit_degenerate():
    with pytest.raises(DegenerateDataError):
        convergence_fit([(1e2, 1e-3), (1e3, 1e-4)])
    with pytest.raises(DegenerateDataError):
        convergence_fit([(1e2, 0.0), (1e3, 1e-4), (1e4, 1e-5)])


def test_dims_suite():
    rep = run_suite("dims", {"family": "cone-M", "d": 2, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 4})
    assert rep.passed
    assert any(c.identity == "basis-dimension" for c in rep.checks)
    assert any(c.identity == "homogeneity-euler" for c in rep.checks)
    rep = run_suite("dims", {"family": "surf-M", "d": 3, "p": 30.0, "q": 0.0, "n_max": 4})
    assert rep.passed


def test_gram_suite_and_probe():
    desc = {"family": "cone-M", "d": 1, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 4}
    rep = run_suite("gram", desc)
    assert rep.passed
    boundary = dict(desc, p=2 * 4 + 2 * 0.5 + 1)
    with pytest.raises(ValidityError):
        run_suite("gram", boundary)
    rep = run_suite("gram", dict(boundary, probe=True))
    assert rep.passed
    entries = [c for c in rep.checks if c.verdict == "expected-failure"]
    assert entries and "p > 2N + 2*mu + d" in entries[0].detail


def test_uni_gram_suite():
    rep = run_suite("gram", {"family": "uni-M", "p": 12.0, "q": 0.0, "n_max": 5})
    assert rep.passed
    rep = run_suite("gram", {"family": "uni-N", "p": 12.0, "n_max": 5})
    assert rep.passed
    with pytest.raises(ValidityError):
        run_suite("gram", {"family": "uni-M", "p": 12.0, "q": 0.0, "n_max": 6})


@pytest.mark.parametrize("p", (629.9997061636725, 66.5))
def test_uni_n_gram_at_low_degree(p):
    """The Gram comes from recurrence values at the rule nodes; the
    coefficient form of p_i p_j cancelled here to 3.7e-6 (p = 629.99...)."""
    rep = run_suite("gram", {"family": "uni-N", "p": p, "n_max": 4})
    assert rep.passed, [(c.name, c.metric) for c in rep.checks]


def test_all_suite_every_family():
    descriptors = [
        {"family": "uni-M", "p": 25.0, "q": 0.5, "n_max": 5},
        {"family": "uni-N", "p": 25.0, "n_max": 5},
        {"family": "cone-M", "d": 1, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 3},
        {"family": "cone-N", "d": 2, "mu": 0.5, "p": 25.0, "n_max": 3},
        {"family": "cone-L", "d": 2, "mu": 0.5, "beta": 0.0, "n_max": 3},
        {"family": "surf-M", "d": 2, "p": 30.0, "q": 0.0, "n_max": 3},
        {"family": "surf-N", "d": 2, "p": 25.0, "n_max": 3},
        {"family": "surf-L", "d": 2, "beta": 0.0, "n_max": 3},
    ]
    for desc in descriptors:
        rep = run_suite("all", desc)
        assert rep.passed, (desc, [c for c in rep.checks if c.verdict == "fail"][:3])


def test_surface_d1_is_construction_only():
    rep = run_suite("all", {"family": "surf-M", "d": 1, "p": 30.0, "q": 0.0, "n_max": 3})
    assert rep.passed
    skipped = [c for c in rep.checks if c.verdict == "not-applicable"]
    assert skipped and "construction-only" in skipped[0].detail
    # dims and gram still run for the two-ray surface
    assert any(c.name.startswith("gram/") for c in rep.checks)


def test_documented_discrepancy_entry():
    rep = run_suite(
        "recurrence", {"family": "cone-M", "d": 1, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 4}
    )
    assert rep.passed
    entry = [c for c in rep.checks if c.name == "recurrence/stated-vs-derived"]
    assert len(entry) == 1
    assert entry[0].verdict == "documented"
    assert entry[0].metric > 1e-4  # the printed form deviates systematically
    assert entry[0].detail == KNOWN_DISCREPANCY_NOTE


def test_suite_family_mismatch():
    with pytest.raises(DomainError):
        run_suite("ode", {"family": "cone-N", "d": 1, "mu": 0.5, "p": 30.0, "n_max": 2})
    with pytest.raises(DomainError):
        run_suite("mystery", {"family": "cone-M", "d": 1, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 2})
    with pytest.raises(DomainError):
        run_suite("gram", {"family": "cone-X", "n_max": 2})


def test_limit_suite_exponents():
    desc = {
        "family": "cone-M", "d": 1, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 2,
        "p_grid": [1e2, 1e3, 1e4],
    }
    rep = run_suite("limit", desc)
    assert rep.passed
    exact = [c for c in rep.checks if c.verdict == "exact"]
    fitted = [c for c in rep.checks if isinstance(c.metric, float) and c.name.startswith("limit/n")]
    assert exact and fitted
    for c in fitted:
        assert 0.8 <= c.metric <= 1.2


def test_report_determinism_and_roundtrip():
    desc = {"family": "cone-M", "d": 1, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 3}
    rep1 = run_suite("all", desc)
    rep2 = run_suite("all", dict(rep1.descriptor))  # re-run from the report
    m1 = [(c.name, c.metric) for c in rep1.checks]
    m2 = [(c.name, c.metric) for c in rep2.checks]
    assert m1 == m2  # bit-identical metrics


def test_report_serialization():
    desc = {"family": "uni-N", "p": 20.0, "n_max": 4}
    rep = run_suite("gram", desc)
    data = json.loads(rep.to_json())
    assert data["schema"] == "finitecone.report.v1"
    assert data["passed"] is True
    assert data["provenance"]["tool"] == "finitecone"
    assert len(data["checks"]) == len(rep.checks)
    csv_text = rep.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "name,identity,metric,threshold,verdict,detail"
    assert len(lines) == len(rep.checks) + 1


def test_threshold_override_can_fail():
    desc = {"family": "cone-M", "d": 1, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 3}
    rep = run_suite("gram", desc, thresholds={"gram_offdiag": 1e-30})
    assert not rep.passed
    assert any(c.verdict == "fail" for c in rep.checks)


def test_default_thresholds_present():
    for key in ("residual_rel", "gram_offdiag", "gram_diag_rel", "exponent_lo", "exponent_hi"):
        assert key in DEFAULT_THRESHOLDS


def test_report_passed_logic():
    rep = Report({}, {}, [], {})
    assert rep.passed


@pytest.mark.parametrize(
    "family,params",
    [("cone-M", {"p": 30.0, "q": 0.0}), ("cone-N", {"p": 30.0}), ("cone-L", {"beta": 0.0})],
)
@pytest.mark.parametrize("n_max", (0, 1))
def test_recurrence_below_degree_two_is_reported_skipped(family, params, n_max):
    desc = dict(params, family=family, d=2, mu=0.5, n_max=n_max)
    for suite in ("all", "recurrence"):
        rep = run_suite(suite, desc)
        assert rep.passed
        entries = [(c.name, c.verdict, c.detail) for c in rep.checks
                   if c.name.startswith("recurrence")]
        assert entries == [
            ("recurrence/skipped", "not-applicable", "the three-term recurrence needs n_max >= 2")
        ]


@pytest.mark.parametrize("mu,d,q", [(1.0, 2, -2.5), (1.5, 3, -5.5), (0.7, 1, -2.1)])
def test_limit_target_holds_on_the_m_window(mu, d, q):
    # -2mu - d < q <= -d: inside the M window, outside the L family's own
    desc = {"family": "cone-M", "d": d, "mu": mu, "p": 30.0, "q": q, "n_max": 2}
    for suite in ("all", "limit"):
        rep = run_suite(suite, desc)
        assert rep.passed
        assert any(c.name.startswith("limit/target/") for c in rep.checks)


def test_laguerre_cone_family_keeps_its_window():
    desc = {"family": "cone-L", "d": 2, "mu": 1.0, "beta": -2.5, "n_max": 2}
    for suite in ("all", "recurrence"):
        with pytest.raises(ValidityError, match=r"beta > -d"):
            run_suite(suite, desc)
    with pytest.raises(ValidityError, match=r"beta > -d"):
        laguerre_cone_checks(2, 1.0, 2, beta=-2.5)
    # as a limit target the family takes the M window, and rejects below it
    assert laguerre_cone_checks(2, 1.0, 2, beta=-2.5, limit_target=True)
    with pytest.raises(ValidityError, match=r"q > -2\*mu - d"):
        laguerre_cone_checks(2, 1.0, 2, beta=-4.5, limit_target=True)


@pytest.mark.parametrize("d,inside,outside", [(1, -0.35, -0.9), (2, -1.35, -1.9)])
def test_laguerre_cone_window_at_negative_mu(d, inside, outside):
    # for mu < 0 the integrability edge -2*mu - d lies above -d
    desc = {"family": "cone-L", "d": d, "mu": -0.3, "n_max": 2}
    for suite in ("all", "recurrence"):
        with pytest.raises(ValidityError, match=re.escape("requires beta > -2*mu - d (")):
            run_suite(suite, dict(desc, beta=outside))
    assert run_suite("all", dict(desc, beta=inside)).passed
    assert run_suite("all", dict(desc, beta=0.0)).passed


# CLI payloads start with their subcommand: tabulate and eval validate the
# descriptor as verify does, though they never reach run_suite
_MALFORMED = [
    ("api", {"family": "cone-N", "d": 2, "mu": 0.5, "p": float("nan"), "n_max": 2}, "p"),
    ("api", {"family": "cone-N", "d": 2, "mu": 0.5, "p": float("inf"), "n_max": 2}, "p"),
    ("cli", ["verify", "--family", "surf-N", "-d", "2", "-p", "nan", "-n", "2"], "p"),
    ("api", {"family": "uni-M", "p": 30.0, "n_max": 2}, "q"),
    ("api", {"family": "cone-M", "d": 2, "mu": 0.5, "p": "30", "q": 0.0, "n_max": 2}, "p"),
    ("cli", ["verify", "--family", "cone-N", "-d", "2", "-p", "30", "-n", "-1"], "n_max"),
    ("cli", ["tabulate", "--family", "cone-M", "-d", "1", "-p", "nan", "-q", "0", "-n", "1"], "p"),
    ("cli", ["tabulate", "--family", "surf-N", "-d", "2", "-p", "inf", "-n", "1"], "p"),
    ("cli", ["tabulate", "--family", "cone-N", "-d", "2", "--mu", "nan", "-p", "30", "-n", "1"], "mu"),
    ("cli", ["eval", "--family", "cone-L", "-d", "1", "--beta", "nan", "-n", "1",
             "--point", "0.5,1.0"], "beta"),
    ("api", {"family": "cone-N", "d": "2", "mu": 0.5, "p": 30.0, "n_max": 2}, "d"),
    ("api", {"family": "surf-N", "d": 2.5, "p": 30.0, "n_max": 2}, "d"),
    ("api", {"family": "cone-M", "d": 2, "p": 30.0, "q": 0.0, "n_max": 2, "convention": ["x"]},
     "convention"),
    ("api", {"family": "surf-N", "d": 2, "p": 30.0, "n_max": 2, "convention": "bogus"},
     "convention"),
    ("api", {"family": "uni-M", "p": 30.0, "q": 0.0, "n_max": 2, "convention": "bogus"},
     "convention"),
    ("api", {"family": "uni-M", "p": 30.0, "q": 0.0, "n_max": 2, "p_grid": [1e2, 1e2, 1e2]},
     "p_grid"),
    ("cli", ["verify", "--family", "uni-M", "-p", "30", "-q", "0", "-n", "2",
             "--p-grid", "1e2,1e2,1e2"], "p_grid"),
    ("api", ["family", "cone-M"], "descriptor"),
]


@pytest.mark.parametrize("via,payload,field", _MALFORMED)
def test_malformed_descriptor_is_a_domain_error_naming_the_field(via, payload, field, capsys):
    named = rf"\b{field} (must|is missing)"
    if via == "api":
        with pytest.raises(DomainError, match=named):
            run_suite("all", payload)
    else:
        assert main(payload) == 2
        assert re.search(named, capsys.readouterr().err)


@pytest.mark.parametrize(
    "desc",
    [
        {"family": family, "d": 2, "p": p, "q": q, "n_max": 2}
        for family in ("cone-M", "surf-M", "uni-M")
        for p, q in ((1e300, 0.0), (30.0, 1e300))
    ]
    + [{"family": "cone-L", "d": 2, "mu": 1e300, "beta": 0.0, "n_max": 2}],
)
def test_huge_parameters_are_a_domain_error_naming_the_jacobi_parameters(desc):
    for probe in (False, True):
        with pytest.raises(DomainError, match=r"alpha = \S+, beta = \S+"):
            run_suite("all", dict(desc, probe=probe))


HUGE_OUTSIDE_JACOBI = [
    ({"family": "uni-N", "p": 1e300, "n_max": 2}, "p"),
    ({"family": "cone-N", "d": 2, "p": 1e300, "n_max": 2}, "p"),
    ({"family": "cone-L", "d": 2, "beta": 1e300, "n_max": 2}, "beta"),
    ({"family": "surf-L", "d": 2, "beta": 1e300, "n_max": 2}, "beta"),
    ({"family": "cone-L", "d": 2, "mu": 1e150, "beta": 0.0, "n_max": 2}, "mu"),
]


@pytest.mark.parametrize("desc,key", HUGE_OUTSIDE_JACOBI)
def test_huge_parameters_outside_the_jacobi_rules_are_a_domain_error_naming_them(desc, key):
    # these overflowed in the t-rule, the radial values or the Gram
    # contraction and reported NaN metrics; under pytest's warning filter
    # an overflow warning would fail this test before any report
    for suite in ("all", "gram"):
        for probe in (False, True):
            with pytest.raises(DomainError, match=re.escape(f"{key} = {desc[key]} is too large")):
                run_suite(suite, dict(desc, probe=probe))


@pytest.mark.parametrize(
    "suite,desc",
    [
        ("ode", {"family": "cone-M", "d": 2, "mu": 0.5, "p": 1e300, "q": 0.0, "n_max": 2}),
        ("diffdiff", {"family": "cone-N", "d": 2, "mu": 0.5, "p": 1e300, "n_max": 2}),
    ],
)
def test_huge_p_in_the_solid_identities_is_a_domain_error_naming_it(suite, desc):
    # the radial coefficients overflow to inf and nan, and the block product
    # reported NaN and 7e283 rows with a RuntimeWarning
    for probe in (False, True):
        with pytest.raises(DomainError, match=re.escape("p = 1e+300 is too large")):
            run_suite(suite, dict(desc, probe=probe))


@pytest.mark.parametrize(
    "desc,inequality",
    [
        ({"family": "cone-M", "d": 2, "mu": 1.0, "p": 30.0, "q": -4.5, "n_max": 2}, "q > -2*mu - d"),
        ({"family": "surf-M", "d": 2, "p": 30.0, "q": -2.5, "n_max": 2}, "q > -d"),
        ({"family": "uni-M", "p": 30.0, "q": -2.0, "n_max": 4}, "q > -1"),
    ],
)
def test_limit_below_the_m_window_names_it(desc, inequality):
    # the Laguerre target sits at q, so the M shape window guards it
    with pytest.raises(ValidityError, match=re.escape(f"requires {inequality} (")):
        run_suite("limit", desc)
    rep = run_suite("limit", dict(desc, probe=True))
    assert [c.detail.split(" (")[0] for c in rep.checks] == [
        f"validity window violated: requires {inequality}"
    ]


@pytest.mark.parametrize(
    "suite,desc,inequality",
    [
        ("ode", {"family": "uni-N", "p": 4.0, "n_max": 3}, "p > 2N+1"),
        ("ode", {"family": "uni-M", "p": 30.0, "q": -1.5, "n_max": 3}, "q > -1"),
        ("recurrence", {"family": "uni-M", "p": 30.0, "q": -1.5, "n_max": 3}, "q > -1"),
    ],
)
def test_uni_identities_check_the_window_first(suite, desc, inequality):
    with pytest.raises(ValidityError, match=re.escape(f"requires {inequality} (")):
        run_suite(suite, desc)
    rep = run_suite(suite, dict(desc, probe=True))
    assert [(c.name, c.verdict) for c in rep.checks] == [(suite, "expected-failure")]
    assert f"requires {inequality} (" in rep.checks[0].detail


def test_descriptor_defaults():
    spec = parse_descriptor({"family": "cone-N", "p": 30.0, "n_max": 2})
    assert (spec.params.d, spec.params.mu, spec.convention) == (1, 0.5, "orthonormal")
    surf = {"family": "surf-N", "p": 30.0, "n_max": 2}
    assert parse_descriptor(surf).params.d == 2
    for suite in ("dims", "all"):
        rep = run_suite(suite, surf)
        assert rep.passed, [c for c in rep.checks if c.verdict == "fail"]


def _count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name: a static method when owner is a
    class, else a function, patched in every finitecone module bound to it."""
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, staticmethod(counted))
        return calls
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("finitecone") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "suite,desc",
    [
        ("ode", {"family": "cone-M", "d": 3, "mu": 0.5, "p": 40.0, "q": 0.0, "n_max": 5}),
        ("diffdiff", {"family": "cone-N", "d": 3, "mu": 0.5, "p": 40.0, "n_max": 5}),
    ],
)
def test_operators_and_ball_bases_are_built_once_per_suite(suite, desc, monkeypatch):
    specs = _count_calls(monkeypatch, OperatorSpec, "from_pseudo")
    ball.ball_basis.cache_clear()
    rep = run_suite(suite, desc)
    assert rep.passed
    elements = [c for c in rep.checks if c.name.startswith(f"{suite}/n")]
    assert len(elements) == 126  # every element of degree <= 5 at d = 3
    assert len(specs) <= 2
    assert ball.ball_basis.cache_info().misses <= desc["n_max"] + 1


@pytest.mark.parametrize(
    "desc",
    [
        {"family": "cone-M", "d": 2, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 4},
        {"family": "cone-L", "d": 3, "mu": 1.5, "beta": 0.5, "n_max": 4},
        {"family": "cone-N", "d": 1, "mu": 0.7, "p": 30.0, "n_max": 4,
         "convention": "paper-gegenbauer"},
    ],
)
def test_dims_homogeneity_rows_match_a_per_element_oracle(desc):
    spec = parse_descriptor(desc)
    fresh = ConeFamilyParams(spec.params.d, spec.params.mu, spec.params.family,
                             p=spec.params.p, q=spec.params.q, beta=spec.params.beta)
    euler = euler_operator(fresh.d)
    rows = {c.name: c.metric for c in run_suite("dims", desc).checks}
    for n in range(desc["n_max"] + 1):
        worst = 0.0
        for el in cone_basis(fresh, n, spec.convention):
            res = apply_operator_termwise(euler, el.angular) - el.angular.scale(el.m)
            worst = max(worst, res.rel_residual_against(el.angular))
        assert rows[f"dims/homogeneity/n{n}"] == worst


def test_dims_homogeneity_rows_fail_on_a_term_of_the_wrong_degree(monkeypatch):
    # every angular factor of degree 2 gains a t^3 term, which E A - 2 A
    # keeps: the rows from n = 2 on fail, those below stay at rounding level
    homogeneous = ball.BallElement.homogeneous.func

    def skewed(el):
        a = homogeneous(el)
        return a + MultiPoly(a.dim_x, {(0,) * a.dim_x + (3,): 1.0}) if el.degree == 2 else a

    monkeypatch.setattr(ball.BallElement, "homogeneous", property(skewed))
    desc = {"family": "cone-M", "d": 2, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 3}
    checks = {c.name: c for c in run_suite("dims", desc).checks}
    assert [checks[f"dims/homogeneity/n{n}"].verdict for n in range(4)] == ["pass", "pass", "fail", "fail"]
    assert checks["dims/homogeneity/n2"].metric > 0.1


def test_dims_builds_no_ball_basis_past_the_first_degree_outside_the_window(monkeypatch):
    # p = 9.5 admits degrees up to 3 at d = 2, mu = 0.5: the probe records
    # the window violation at n = 4 after the rows of n <= 3, and the Euler
    # check reads only the ball bases those degrees built
    built = []
    basis = ConeFamilyParams.balls

    def counted(self, m, convention="orthonormal"):
        built.append(m)
        return basis(self, m, convention)

    monkeypatch.setattr(ConeFamilyParams, "balls", counted)
    desc = {"family": "cone-M", "d": 2, "mu": 0.5, "p": 9.5, "q": 0.0, "n_max": 8, "probe": True}
    checks = run_suite("dims", desc).checks
    assert max(built) == 3
    assert [(c.name, c.verdict) for c in checks[-2:]] == [
        ("dims/homogeneity/n3", "pass"), ("dims/solid", "expected-failure")]


def test_harmonics_are_built_once_per_d_and_m(monkeypatch):
    harmonics.harmonic_basis.cache_clear()
    builds = _count_calls(monkeypatch, harmonics, "_generators")
    cone = {"family": "cone-M", "d": 3, "mu": 0.5, "p": 30.0, "q": 0.0, "n_max": 4}
    surf = {"family": "surf-M", "d": 3, "p": 30.0, "q": -1.0, "n_max": 4}
    for desc in (cone, surf):
        assert run_suite("all", desc).passed
    assert sorted(builds) == [(3, m) for m in range(5)]


@pytest.mark.parametrize(
    "suite,desc,builder,builds",
    [
        # 21 (n, m) pairs with m <= n <= 5, and the companion's 15 (n - 1, m), n > m
        ("diffdiff", {"family": "cone-N", "d": 3, "mu": 0.5, "p": 40.0, "n_max": 5}, "coeffs_n", 36),
        ("diffdiff", {"family": "surf-N", "d": 3, "p": 40.0, "n_max": 6}, "coeffs_n", 28 + 21),
        # the Rodrigues radials (k, m), m <= k <= 5, of the recurrences with m <= 3
        ("recurrence", {"family": "cone-M", "d": 2, "mu": 0.5, "p": 40.0, "q": 0.5, "n_max": 5},
         "coeffs_m_rodrigues", 6 + 5 + 4 + 3),
    ],
)
def test_each_radial_factor_is_built_once_per_bundle(suite, desc, builder, builds, monkeypatch,
                                                     chain_steps):
    """A bundle and its p - 2 companion build each radial factor once per
    (n, m) and construction path, however many elements and checks read it:
    a Rodrigues factor by one call, a recurrence factor (builder coeffs_n)
    as a member of the one chain its bundle runs for its m."""
    if builder == "coeffs_m_rodrigues":
        calls = _count_calls(monkeypatch, univariate, builder)
        assert run_suite(suite, desc).passed
        assert len(calls) == builds
        return
    chains = chain_steps("_n_chain")
    assert run_suite(suite, desc).passed
    # the bundle's chain of each m = 0 .. n_max reaches degree n_max - m, the
    # companion's of each m = 0 .. n_max - 1 degree n_max - 1 - m; a chain
    # starts with degrees 0 and 1, and its steps compute degrees 2, 3, ... once
    n_max = desc["n_max"]
    tops = [n_max - m for m in range(n_max + 1)] + [n_max - 1 - m for m in range(n_max)]
    assert sorted(len(degrees) for degrees in chains) == sorted(max(0, top - 1) for top in tops)
    assert all(degrees == list(range(2, len(degrees) + 2)) for degrees in chains)
    assert sum(top + 1 for top in tops) == builds


# in-window descriptors at the value where each family's eigenvalue
# identity holds: cone-M q = 0, surf-M q = -1, cone-L beta = 0, surf-L beta = -1
_AT_EIGEN = {
    "uni-M": {"p": 25.0, "q": 0.5},
    "uni-N": {"p": 25.0},
    "cone-M": {"d": 2, "p": 30.0, "q": 0.0},
    "cone-N": {"d": 2, "p": 30.0},
    "cone-L": {"d": 2, "beta": 0.0},
    "surf-M": {"d": 2, "p": 30.0, "q": -1.0},
    "surf-N": {"d": 2, "p": 30.0},
    "surf-L": {"d": 2, "beta": -1.0},
}


def test_eigen_descriptors_cover_every_family():
    assert tuple(_AT_EIGEN) == FAMILIES == tuple(FAMILY_SUITES)


@pytest.mark.parametrize("family", FAMILIES)
def test_suites_outside_the_table_do_not_apply(family):
    desc = dict(_AT_EIGEN[family], family=family, n_max=2)
    for suite in SUITES:
        if suite == "all" or suite in FAMILY_SUITES[family]:
            continue
        with pytest.raises(DomainError, match=f"suite '{suite}' does not apply to family"):
            run_suite(suite, desc)


@pytest.mark.parametrize("family", FAMILIES)
def test_all_at_the_eigen_value_shows_every_suite_of_the_family(family):
    rep = run_suite("all", dict(_AT_EIGEN[family], family=family, n_max=2))
    assert rep.passed, [c for c in rep.checks if c.verdict == "fail"]
    shown = {c.name.split("/")[0] for c in rep.checks}
    assert shown == set(FAMILY_SUITES[family])
    assert not [c.name for c in rep.checks if c.name.endswith("/skipped")]


def test_surface_laguerre_ode_holds_at_beta_minus_one_only():
    desc = {"family": "surf-L", "d": 2, "beta": 2.5, "n_max": 2}
    rep = run_suite("all", desc)
    assert rep.passed
    assert [(c.name, c.verdict, c.detail) for c in rep.checks if c.name.startswith("ode")] == [
        ("ode/skipped", "not-applicable", "the degree-only eigenvalue requires beta = -1")
    ]
    with pytest.raises(FiniteConeError, match="beta = -1"):
        run_suite("ode", desc)
    rep = run_suite("ode", dict(desc, beta=-1.0))
    assert rep.passed and len(rep.checks) == 6  # (n, m) with m <= n <= 2


def test_surface_limit_target_rows_only_at_q_minus_one():
    desc = {"family": "surf-M", "d": 2, "p": 30.0, "q": 0.5, "n_max": 3}
    for suite in ("limit", "all"):
        rep = run_suite(suite, desc)
        assert rep.passed and any(c.name.startswith("limit/n") for c in rep.checks)
        assert not [c.name for c in rep.checks if c.name.startswith("limit/target/")]
    rep = run_suite("limit", dict(desc, q=-1.0))
    assert rep.passed
    assert [c.name for c in rep.checks if c.name.startswith("limit/target/")][:2] == [
        "limit/target/sur-ode/n0.m0", "limit/target/sur-ode/n1.m0"
    ]


def test_laguerre_cone_ode_off_beta_zero_is_refused():
    desc = {"family": "cone-L", "d": 2, "mu": 0.5, "beta": 0.5, "n_max": 4}
    with pytest.raises(DomainError, match="the degree-only eigenvalue holds at beta = 0"):
        run_suite("ode", desc)
    outside = {"family": "cone-L", "d": 1, "mu": 0.7, "beta": -2.7, "n_max": 1}
    with pytest.raises(ValidityError, match=r"requires beta > -d \("):
        run_suite("ode", outside)
    rep = run_suite("ode", dict(outside, probe=True))
    assert [(c.name, c.verdict) for c in rep.checks] == [("ode", "expected-failure")]


@pytest.mark.parametrize(
    "family,functions",
    [
        ("uni-M", ("eval_m", "coeffs_m", "coeffs_m_rodrigues")),
        ("cone-M", ("cone_basis", "cone_gram", "identity_residuals", "limit_to_laguerre")),
        ("cone-N", ("identity_residuals",)),
        ("surf-M", ("surface_basis", "surface_gram", "surface_ode_residual_m", "surface_limit_m")),
        ("surf-N", ("surface_diffdiff_residual_n",)),
    ],
)
def test_checks_look_library_functions_up_at_call_time(family, functions, monkeypatch):
    """A tracer rebinds module names after import; the table's checks must
    still call through them."""
    import finitecone.verifier as verifier

    calls = {name: _count_calls(monkeypatch, verifier, name) for name in functions}
    assert run_suite("all", dict(_AT_EIGEN[family], family=family, n_max=2)).passed
    assert all(calls.values()), {name: len(c) for name, c in calls.items()}
