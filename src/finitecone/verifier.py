"""Orchestrates Gram, residual, recurrence, limit, and dimension checks
into structured reports with pass/fail verdicts.

A report is self-contained: its descriptor re-runs to bit-identical
metrics on one platform.  Boundary probes turn validity and integrability
rejections into structured expected-failure entries instead of exceptions,
so the finite-orthogonality window can be demonstrated from both sides.

Known systematic discrepancies between a printed closed form and the
oracle-validated one are reported as "documented" entries; see
docs/known-discrepancies.md in the repository.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ball import ball_dimension
from .cone_solid import (
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
from .cone_surface import (
    SurfaceParams,
    laguerre_surface_ode_residual,
    surface_basis,
    surface_diffdiff_residual_n,
    surface_dimension,
    surface_gram,
    surface_limit_m,
    surface_ode_residual_m,
)
from .errors import (
    DegenerateDataError,
    DegenerateParamError,
    DomainError,
    IntegrabilityError,
    ValidityError,
)
from .harmonics import dim_harmonic, harmonic_basis
from .polyalg import apply_operator, euler_operator
from .quadrature import WeightInvExp, WeightMPQ
from .univariate import (
    MParams,
    NParams,
    coeffs_m,
    coeffs_m_rodrigues,
    coeffs_n,
    coeffs_n_rodrigues,
    derivative_relation_residual,
    eval_m,
    eval_n,
    laguerre_limit_error_m,
    norm_m,
    norm_n,
    ode_residual_m,
    ode_residual_n,
)

DEFAULT_THRESHOLDS = {
    "residual_rel": 1e-9,
    "gram_offdiag": 1e-10,
    "gram_diag_rel": 1e-9,
    "unit_norm": 1e-12,
    "agreement_rel": 1e-9,
    "exponent_lo": 0.8,
    "exponent_hi": 1.2,
}

_PASSING_VERDICTS = ("pass", "exact", "documented", "expected-failure", "not-applicable")

KNOWN_DISCREPANCY_NOTE = (
    "printed middle coefficient of the solid-cone three-term recurrence omits "
    "the factor (p-2n-2mu-d)/(p-m-n-2mu-d); the substitution-derived "
    "coefficients pass at rounding level (docs/known-discrepancies.md)"
)


def convergence_fit(errors) -> object:
    """Least-squares decay exponent of e against 1/p.

    errors: sequence of (p, e) pairs.  Returns the slope of log e versus
    log(1/p), or the string "exact" when every error vanishes.
    """
    pts = list(errors)
    if len(pts) < 3:
        raise DegenerateDataError(f"need at least 3 grid points, got {len(pts)}")
    nonzero = [(p, e) for p, e in pts if e > 0.0]
    if not nonzero:
        return "exact"
    if len(nonzero) < 3:
        raise DegenerateDataError("fewer than 3 usable (positive) errors")
    xs = np.array([-math.log(p) for p, _ in nonzero])
    ys = np.array([math.log(e) for _, e in nonzero])
    xbar, ybar = xs.mean(), ys.mean()
    return float(((xs - xbar) @ (ys - ybar)) / ((xs - xbar) @ (xs - xbar)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    identity: str
    metric: object  # float, or a string marker such as "exact"
    threshold: object
    verdict: str
    detail: str = ""


@dataclass
class Report:
    descriptor: dict
    thresholds: dict
    checks: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.verdict in _PASSING_VERDICTS for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": "finitecone.report.v1",
            "descriptor": self.descriptor,
            "thresholds": self.thresholds,
            "provenance": self.provenance,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "identity": c.identity,
                    "metric": c.metric,
                    "threshold": c.threshold,
                    "verdict": c.verdict,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "identity", "metric", "threshold", "verdict", "detail"])
        for c in self.checks:
            writer.writerow([c.name, c.identity, c.metric, c.threshold, c.verdict, c.detail])
        return buf.getvalue()


_FAMILY_SUITES = {
    "uni-M": ("gram", "ode", "recurrence", "limit"),
    "uni-N": ("gram", "ode", "recurrence"),
    "cone-M": ("dims", "gram", "ode", "recurrence", "limit"),
    "cone-N": ("dims", "gram", "diffdiff", "recurrence"),
    "cone-L": ("dims", "gram", "ode", "recurrence"),
    "surf-M": ("dims", "gram", "ode", "limit"),
    "surf-N": ("dims", "gram", "diffdiff"),
    "surf-L": ("dims", "gram", "ode"),
}

SUITES = ("dims", "gram", "ode", "diffdiff", "recurrence", "limit", "all")


def _verdict(metric: float, threshold: float) -> str:
    return "pass" if metric <= threshold else "fail"


class _Collector:
    def __init__(self, probe: bool):
        self.probe = probe
        self.checks: list = []

    def add(self, name, identity, metric, threshold, detail=""):
        self.checks.append(
            CheckResult(name, identity, metric, threshold, _verdict(metric, threshold), detail)
        )

    def add_exact(self, name, identity, detail=""):
        self.checks.append(CheckResult(name, identity, "exact", None, "exact", detail))

    def add_skipped(self, name, identity, detail):
        self.checks.append(CheckResult(name, identity, None, None, "not-applicable", detail))

    def add_documented(self, name, identity, metric, detail):
        self.checks.append(CheckResult(name, identity, metric, None, "documented", detail))

    def add_exponent(self, name, identity, exponent, lo, hi, detail=""):
        if exponent == "exact":
            self.add_exact(name, identity, detail)
        else:
            verdict = "pass" if lo <= exponent <= hi else "fail"
            self.checks.append(
                CheckResult(name, identity, exponent, (lo, hi), verdict, detail)
            )

    def guarded(self, name, identity, fn):
        """Run fn(); on a window violation record an expected failure when
        probing, otherwise re-raise."""
        try:
            fn()
        except (ValidityError, IntegrabilityError, DegenerateParamError) as exc:
            if not self.probe:
                raise
            self.checks.append(
                CheckResult(name, identity, None, None, "expected-failure", str(exc))
            )


# parameters each family cannot do without; d and mu have defaults
_REQUIRED = {
    "uni-M": ("p", "q"),
    "uni-N": ("p",),
    "cone-M": ("p", "q"),
    "cone-N": ("p",),
    "cone-L": ("beta",),
    "surf-M": ("p", "q"),
    "surf-N": ("p",),
    "surf-L": ("beta",),
}


@dataclass(frozen=True)
class ParsedDescriptor:
    """A validated descriptor: the family name, its typed parameter bundle
    (MParams, NParams, ConeFamilyParams or SurfaceParams), and the run
    settings every suite reads."""

    family: str
    params: object
    n_max: int
    convention: str
    p_grid: tuple


def _finite_real(value) -> bool:
    return (
        not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    )


def parse_descriptor(desc: dict) -> ParsedDescriptor:
    """Validate a descriptor once and build its parameter bundle.

    Rejects with a DomainError naming the field: an unknown family, a
    missing n_max or required parameter, a p, q, beta or mu that is not a
    finite real number, an n_max or d that is not a non-negative int, or a
    p_grid that is not a list of positive finite numbers.  Other keys pass
    through.  Defaults: d = 1 on the solid cone, d = 2 on the surface,
    mu = 0.5.  Validity windows are left to the suites, so that probe mode
    can report them."""
    family = desc.get("family")
    if family not in _FAMILY_SUITES:
        raise DomainError(f"unknown family {family!r}; choose from {tuple(_FAMILY_SUITES)}")
    if desc.get("n_max") is None:
        raise DomainError("the descriptor needs n_max")
    required = _REQUIRED[family]
    for key in required:
        if desc.get(key) is None:
            raise DomainError(f"{family} needs {' and '.join(required)}; {key} is missing")
    for key in ("p", "q", "beta", "mu"):
        value = desc.get(key)
        if value is not None and not _finite_real(value):
            raise DomainError(f"{key} must be a finite real number, got {value!r}")
    domain, kind = family.split("-")
    n_max, d = desc["n_max"], desc.get("d", 2 if domain == "surf" else 1)
    for key, value in (("n_max", n_max), ("d", d)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise DomainError(f"{key} must be a non-negative int, got {value!r}")
    p_grid = desc.get("p_grid", (1e2, 1e3, 1e4))
    if not isinstance(p_grid, (list, tuple)) or not all(
        _finite_real(p) and p > 0 for p in p_grid
    ):
        raise DomainError(f"p_grid must be a list of positive finite numbers, got {p_grid!r}")

    p, q, beta = desc.get("p"), desc.get("q"), desc.get("beta")
    if domain == "uni":
        params = MParams(float(p), float(q)) if kind == "M" else NParams(float(p))
    elif domain == "cone":
        params = ConeFamilyParams(int(d), float(desc.get("mu", 0.5)), kind, p=p, q=q, beta=beta)
    else:
        params = SurfaceParams(int(d), kind, p=p, q=q, beta=beta)
    return ParsedDescriptor(
        family, params, n_max, desc.get("convention", "orthonormal"), tuple(p_grid)
    )


def _dims_checks(spec: ParsedDescriptor, col: _Collector, th):
    params, n_max = spec.params, spec.n_max
    d = params.d
    for m in range(n_max + 1):
        got = len(harmonic_basis(d, m).elements)
        col.add(
            f"dims/harmonic-count/m{m}",
            "basis-dimension",
            float(abs(got - dim_harmonic(d, m))),
            0.0,
        )
    if spec.family.startswith("cone"):
        def run():
            euler = euler_operator(d)
            homogeneity = []  # Euler residual of each angular factor, m then k
            for n in range(n_max + 1):
                elems = cone_basis(params, n, spec.convention)
                col.add(
                    f"dims/solid-count/n{n}",
                    "basis-dimension",
                    float(abs(len(elems) - cone_dimension(d, n))),
                    0.0,
                )
                ball_total = sum(ball_dimension(d, m) for m in range(n + 1))
                col.add(
                    f"dims/ball-sum/n{n}",
                    "basis-dimension",
                    float(abs(ball_total - cone_dimension(d, n))),
                    0.0,
                )
                # degree n adds the angular factors of degree m = n
                homogeneity.extend(
                    (apply_operator(euler, ang) - ang.scale(n)).rel_residual_against(ang)
                    for _, ang in params.angular(n, spec.convention)
                )
                worst = max([0.0, *homogeneity])
                col.add(f"dims/homogeneity/n{n}", "homogeneity-euler", worst, th["residual_rel"])

        col.guarded("dims/solid", "basis-dimension", run)
    else:
        def run():
            for n in range(n_max + 1):
                elems = surface_basis(params, n)
                col.add(
                    f"dims/surface-count/n{n}",
                    "basis-dimension",
                    float(abs(len(elems) - surface_dimension(d, n))),
                    0.0,
                )
                split = sum(dim_harmonic(d, m) for m in range(n + 1))
                col.add(
                    f"dims/harmonic-sum/n{n}",
                    "basis-dimension",
                    float(abs(split - surface_dimension(d, n))),
                    0.0,
                )

        col.guarded("dims/surface", "basis-dimension", run)


def _uni_gram(spec: ParsedDescriptor, col: _Collector, th):
    params, n_max = spec.params, spec.n_max

    def run():
        params.require_valid(n_max)
        if spec.family == "uni-M":
            weight, evaluate, norm = WeightMPQ(params.p, params.q), eval_m, norm_m
        else:
            weight, evaluate, norm = WeightInvExp(params.p), eval_n, norm_n
        rule = weight.rule(2 * n_max, normalized=True)
        # G = R W R^T with R the recurrence values at the nodes, as in
        # gram.separable_gram: the coefficient form of p_i p_j cancels.
        ts = np.asarray(rule.nodes)
        values = np.vstack(
            [np.broadcast_to(evaluate(n, params, ts), ts.shape) for n in range(n_max + 1)]
        )
        gram = (values * np.asarray(rule.weights)) @ values.T
        exp = np.array([norm(n, params) for n in range(n_max + 1)])
        off = gram / np.sqrt(np.outer(exp, exp))
        off = off - np.diag(np.diag(off))
        col.add("gram/unit-norm", "normalization-unit", abs(rule.total_weight - 1.0), th["unit_norm"])
        col.add("gram/offdiag-max", "orthogonality-gram", float(np.max(np.abs(off))), th["gram_offdiag"])
        col.add(
            "gram/diag-rel-max",
            "orthogonality-gram",
            float(np.max(np.abs(np.diag(gram) - exp) / exp)),
            th["gram_diag_rel"],
        )

    col.guarded("gram", "orthogonality-gram", run)


def _diag_rows(col: _Collector, res, th):
    """One check row per (n, m) diagonal block, with the predicted norm in
    the detail column so reports document the expected values."""
    groups: dict = {}
    for idx, el in enumerate(res.elements):
        key = (el.n, el.m)
        dev = abs(res.matrix[idx, idx] - res.expected_diag[idx]) / res.expected_diag[idx]
        prev = groups.get(key)
        if prev is None or dev > prev[0]:
            groups[key] = (dev, res.expected_diag[idx])
    for (n, m), (dev, expected) in sorted(groups.items()):
        col.add(
            f"gram/diag/n{n}.m{m}", "orthogonality-gram", dev, th["gram_diag_rel"],
            detail=f"expected norm square {expected:.12g}",
        )


def _gram_checks(spec: ParsedDescriptor, col: _Collector, th):
    if spec.family.startswith("uni"):
        _uni_gram(spec, col, th)
        return

    def run():
        if spec.family.startswith("cone"):
            res = cone_gram(spec.params, spec.n_max, spec.convention)
        else:
            res = surface_gram(spec.params, spec.n_max)
        col.add("gram/unit-norm", "normalization-unit", res.unit_norm_dev, th["unit_norm"])
        col.add("gram/offdiag-max", "orthogonality-gram", res.max_offdiag, th["gram_offdiag"])
        col.add("gram/diag-rel-max", "orthogonality-gram", res.max_diag_rel, th["gram_diag_rel"])
        _diag_rows(col, res, th)

    col.guarded("gram", "orthogonality-gram", run)


def _ode_checks(spec: ParsedDescriptor, col: _Collector, th):
    family, params, n_max = spec.family, spec.params, spec.n_max
    if family == "uni-M":
        for n in range(n_max + 1):
            res = ode_residual_m(n, params)
            col.add(
                f"ode/n{n}", "first-family-ode",
                res.rel_residual_against(coeffs_m(n, params)), th["residual_rel"],
            )
        return
    if family == "uni-N":
        for n in range(n_max + 1):
            res = ode_residual_n(n, params)
            col.add(
                f"ode/n{n}", "second-family-ode",
                res.rel_residual_against(coeffs_n(n, params)), th["residual_rel"],
            )
        return
    if family == "cone-M":
        def run():
            for n in range(n_max + 1):
                for el in cone_basis(params, n, spec.convention):
                    res = operator_residual_m(params, el)
                    col.add(
                        f"ode/{el.label}", "solid-first-family-pde",
                        res.rel_residual_against(el.poly), th["residual_rel"],
                        detail=f"eigenvalue n(n-p+2mu+d) = {el.n * (el.n - params.p + 2 * params.mu + params.d)}",
                    )

        col.guarded("ode", "solid-first-family-pde", run)
        return
    if family == "cone-L":
        def run():
            for name, value in laguerre_cone_checks(params.d, params.mu, n_max, params.beta):
                if name.startswith("laguerre-pde"):
                    col.add(f"ode/{name}", "laguerre-cone-pde", value, th["residual_rel"])

        col.guarded("ode", "laguerre-cone-pde", run)
        return
    if family == "surf-M":
        def run():
            for n in range(n_max + 1):
                for el in surface_basis(params, n):
                    res = surface_ode_residual_m(params, el)
                    col.add(
                        f"ode/{el.label}", "surface-first-family-ode",
                        res.rel_residual_against(el.g), th["residual_rel"],
                        detail=f"eigenvalue n(n-p+d) = {el.n * (el.n - params.p + params.d)}",
                    )

        col.guarded("ode", "surface-first-family-ode", run)
        return
    if family == "surf-L":
        def run():
            params.require_valid(0)
            _laguerre_surface_rows(col, th, params.d, n_max, "ode")

        col.guarded("ode", "laguerre-surface-ode", run)
        return
    raise DomainError(
        f"no second-order eigenvalue identity for {family}; use the diffdiff suite"
    )


def _laguerre_surface_rows(col: _Collector, th, d: int, n_max: int, prefix: str):
    """The beta = -1 Laguerre surface operator on every (n, m), relative to
    the reduced carrier."""
    target = SurfaceParams(d, "L", beta=-1.0)
    for n in range(n_max + 1):
        for m in range(n + 1):
            res = laguerre_surface_ode_residual(d, n, m)
            col.add(
                f"{prefix}/n{n}.m{m}", "laguerre-surface-ode",
                res.rel_residual_against(target.radial(n, m).shift_up(m)), th["residual_rel"],
            )


def _diffdiff_checks(spec: ParsedDescriptor, col: _Collector, th):
    family, params, n_max = spec.family, spec.params, spec.n_max
    if family == "cone-N":
        def run():
            for n in range(n_max + 1):
                for el in cone_basis(params, n, spec.convention):
                    res = diffdiff_residual_n(params, el)
                    col.add(
                        f"diffdiff/{el.label}", "solid-second-family-difference-differential",
                        res.rel_residual_against(el.poly), th["residual_rel"],
                    )

        col.guarded("diffdiff", "solid-second-family-difference-differential", run)
        return
    if family == "surf-N":
        def run():
            for n in range(n_max + 1):
                for el in surface_basis(params, n):
                    res = surface_diffdiff_residual_n(params, el)
                    col.add(
                        f"diffdiff/{el.label}", "surface-second-family-difference-differential",
                        res.rel_residual_against(el.g), th["residual_rel"],
                    )

        col.guarded("diffdiff", "surface-second-family-difference-differential", run)
        return
    raise DomainError(f"the diffdiff suite applies to the N families, not {family}")


def _recurrence_checks(spec: ParsedDescriptor, col: _Collector, th):
    family, params, n_max = spec.family, spec.params, spec.n_max
    if family.startswith("uni"):
        build, oracle = (
            (coeffs_m, coeffs_m_rodrigues) if family == "uni-M" else (coeffs_n, coeffs_n_rodrigues)
        )
        for n in range(n_max + 1):
            rec = build(n, params)
            rod = oracle(n, params)
            col.add(
                f"recurrence/agreement/n{n}", "univariate-recurrence-vs-rodrigues",
                (rec - rod).rel_residual_against(rod), th["agreement_rel"],
            )
        for n in range(1, n_max + 1):
            res = derivative_relation_residual(family[-1], n, params)
            col.add(
                f"recurrence/derivative-shift/n{n}", "derivative-parameter-shift",
                res.rel_residual_against(build(n, params).derivative()), th["residual_rel"],
            )
        return
    if family.startswith("cone"):
        def run():
            if n_max < 2:
                params.require_valid(n_max)
                col.add_skipped(
                    "recurrence/skipped", "solid-three-term-recurrence",
                    "the three-term recurrence needs n_max >= 2",
                )
                return
            worst_stated = 0.0
            for m in range(n_max):
                for n in range(m + 1, n_max):
                    col.add(
                        f"recurrence/n{n}.m{m}", "solid-three-term-recurrence",
                        recurrence_residual(params, n, m), th["residual_rel"],
                    )
                    if params.family == "M":
                        worst_stated = max(
                            worst_stated, recurrence_residual(params, n, m, variant="stated")
                        )
            if params.family == "M":
                col.add_documented(
                    "recurrence/stated-vs-derived", "solid-three-term-recurrence",
                    worst_stated, KNOWN_DISCREPANCY_NOTE,
                )

        col.guarded("recurrence", "solid-three-term-recurrence", run)
        return
    raise DomainError(f"no recurrence suite for {family}")


def _limit_checks(spec: ParsedDescriptor, col: _Collector, th):
    family, params, n_max, p_grid = spec.family, spec.params, spec.n_max, spec.p_grid
    lo, hi = th["exponent_lo"], th["exponent_hi"]
    if family == "uni-M":
        for n in range(min(n_max, 4) + 1):
            errs = []
            for p in p_grid:
                e = max(
                    laguerre_limit_error_m(n, params.q, x, [p])[0] for x in (0.6, 1.0, 1.7)
                )
                errs.append((p, e))
            exponent = convergence_fit(errs)
            col.add_exponent(f"limit/n{n}", "laguerre-limit", exponent, lo, hi)
        return
    if family == "cone-M":
        def run():
            for n in range(min(n_max, 3) + 1):
                for m in range(n + 1):
                    rep = limit_to_laguerre(params, n, m, p_grid=p_grid)
                    col.add_exponent(
                        f"limit/n{n}.m{m}", "laguerre-limit", rep.exponent, lo, hi,
                        detail=f"deviations {rep.deviations}",
                    )
            checks = laguerre_cone_checks(
                params.d, params.mu, min(n_max, 4), beta=params.q, limit_target=True
            )
            for name, value in checks:
                tag = "laguerre-cone-pde" if name.startswith("laguerre-pde") else "laguerre-cone-recurrence"
                col.add(f"limit/target/{name}", tag, value, th["residual_rel"])

        col.guarded("limit", "laguerre-limit", run)
        return
    if family == "surf-M":
        def run():
            for n in range(min(n_max, 3) + 1):
                for m in range(n + 1):
                    rep = surface_limit_m(params, n, m, p_grid=p_grid)
                    col.add_exponent(
                        f"limit/n{n}.m{m}", "laguerre-limit", rep.exponent, lo, hi,
                        detail=f"deviations {rep.deviations}",
                    )
            if params.d >= 2:
                _laguerre_surface_rows(col, th, params.d, min(n_max, 4), "limit/target/sur-ode")

        col.guarded("limit", "laguerre-limit", run)
        return
    raise DomainError(f"no limit suite for {family}")


_SUITE_FUNCS = {
    "dims": _dims_checks,
    "gram": _gram_checks,
    "ode": _ode_checks,
    "diffdiff": _diffdiff_checks,
    "recurrence": _recurrence_checks,
    "limit": _limit_checks,
}


def _skip_reason(suite: str, spec: ParsedDescriptor):
    """Why suite "all" skips a suite informationally instead of erroring:
    the degree-only eigenvalue identities exist at one parameter value, and
    the surface identities assume d >= 2.  None when the suite runs."""
    family, params = spec.family, spec.params
    if family.startswith("surf") and params.d == 1 and suite in ("ode", "diffdiff", "limit"):
        return "the surface identities assume d >= 2; d = 1 is construction-only"
    if suite != "ode":
        return None
    if family == "cone-M" and params.q != 0:
        return "degree-only eigenvalues require q = 0"
    if family == "surf-M" and params.q != -1:
        return "degree-only eigenvalues require q = -1"
    if family == "cone-L" and params.beta != 0:
        return "the degree-only eigenvalue requires beta = 0"
    return None


def run_suite(suite: str, descriptor: dict, thresholds: dict = None) -> Report:
    """Execute the named check suite for the descriptor and assemble a
    Report.  suite "all" runs every suite applicable to the family."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    spec = parse_descriptor(descriptor)
    family = spec.family
    th = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        th.update(thresholds)
    suites = _FAMILY_SUITES[family] if suite == "all" else (suite,)
    for s in suites:
        if s not in _FAMILY_SUITES[family]:
            raise DomainError(f"suite {s!r} does not apply to family {family!r}")
    col = _Collector(bool(descriptor.get("probe", False)))
    for s in suites:
        skip = _skip_reason(s, spec) if suite == "all" else None
        if skip:
            col.add_skipped(f"{s}/skipped", "eigenvalue-restriction", skip)
            continue
        _SUITE_FUNCS[s](spec, col, th)
    desc = dict(descriptor)
    desc["suite"] = suite
    report = Report(
        descriptor=desc,
        thresholds=th,
        checks=col.checks,
        provenance={
            "tool": "finitecone",
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    )
    return report
