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

import contextlib
import csv
import functools
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import __version__
from .ball import CONVENTIONS, ball_dimension
from .cone_solid import (
    ConeFamilyParams,
    cone_basis,
    cone_dimension,
    cone_gram,
    homogeneity_residuals,
    identity_residuals,
    laguerre_cone_checks,
    limit_to_laguerre,
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
    FiniteConeError,
    IntegrabilityError,
    ValidityError,
)
from .gram import separable_gram
from .harmonics import dim_harmonic, harmonic_basis
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


# parameters each kind of family cannot do without; d and mu have defaults
_REQUIRED = {"M": ("p", "q"), "N": ("p",), "L": ("beta",)}


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

    Rejects with a DomainError naming the field: a descriptor that is not a
    dict, an unknown family, a missing n_max or required parameter, a p, q,
    beta or mu that is not a finite real number, an n_max or d that is not
    a non-negative int, a convention outside CONVENTIONS, or a p_grid that
    is not a list of positive finite numbers with at least 3 distinct
    values.  Other keys pass through.  Defaults: d = 1 on the solid cone,
    d = 2 on the surface, mu = 0.5.  Validity windows are left to the
    suites, so that probe mode can report them."""
    if not isinstance(desc, dict):
        raise DomainError(f"descriptor must be a dict, got {type(desc).__name__}")
    family = desc.get("family")
    if family not in FAMILY_SUITES:
        raise DomainError(f"unknown family {family!r}; choose from {FAMILIES}")
    if desc.get("n_max") is None:
        raise DomainError("the descriptor needs n_max")
    domain, kind = family.split("-")
    required = _REQUIRED[kind]
    for key in required:
        if desc.get(key) is None:
            raise DomainError(f"{family} needs {' and '.join(required)}; {key} is missing")
    for key in ("p", "q", "beta", "mu"):
        value = desc.get(key)
        if value is not None and not _finite_real(value):
            raise DomainError(f"{key} must be a finite real number, got {value!r}")
    n_max, d = desc["n_max"], desc.get("d", 2 if domain == "surf" else 1)
    for key, value in (("n_max", n_max), ("d", d)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise DomainError(f"{key} must be a non-negative int, got {value!r}")
    convention = desc.get("convention", "orthonormal")
    if convention not in CONVENTIONS:
        raise DomainError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    p_grid = desc.get("p_grid", (1e2, 1e3, 1e4))
    # the limit fit needs 3 distinct p; fewer make its slope 0/0
    if (
        not isinstance(p_grid, (list, tuple))
        or not all(_finite_real(p) and p > 0 for p in p_grid)
        or len(set(p_grid)) < 3
    ):
        raise DomainError(
            f"p_grid must be a list of positive finite numbers with at least 3 distinct "
            f"values, got {p_grid!r}"
        )

    p, q, beta = desc.get("p"), desc.get("q"), desc.get("beta")
    if domain == "uni":
        params = MParams(float(p), float(q)) if kind == "M" else NParams(float(p))
    elif domain == "cone":
        params = ConeFamilyParams(int(d), float(desc.get("mu", 0.5)), kind, p=p, q=q, beta=beta)
    else:
        params = SurfaceParams(int(d), kind, p=p, q=q, beta=beta)
    return ParsedDescriptor(family, params, n_max, convention, tuple(p_grid))


# ---------------------------------------------------------------------------
# checks.  Each takes the row's arguments, then (spec, col, th, identity),
# and adds its rows to col; run_suite guards it once.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Domain:
    """What the dims, gram and element checks read of the solid cone or
    the surface.  The library functions sit inside lambdas, so every call
    looks them up in this module, where a tracer may have rebound them."""

    name: str  # "solid" or "surface"
    split: str  # the per-m counts that sum to the degree-n dimension
    split_dimension: object  # (d, m) -> count
    dimension: object  # (d, n) -> number of degree-n elements
    basis: object  # (params, n, convention) -> the degree-n elements
    gram: object  # (params, n_max, convention) -> GramResult
    homogeneity: bool  # whether dims checks the angular factors' degree


SOLID = _Domain(
    "solid", "ball-sum", ball_dimension, cone_dimension,
    lambda params, n, convention: cone_basis(params, n, convention),
    lambda params, n_max, convention: cone_gram(params, n_max, convention),
    True,
)
SURFACE = _Domain(
    "surface", "harmonic-sum", dim_harmonic, surface_dimension,
    lambda params, n, _convention: surface_basis(params, n),
    lambda params, n_max, _convention: surface_gram(params, n_max),
    False,
)


def _dims(dom: _Domain, spec: ParsedDescriptor, col: _Collector, th, identity):
    params, n_max = spec.params, spec.n_max
    d = params.d
    for m in range(n_max + 1):
        got = len(harmonic_basis(d, m).elements)
        col.add(
            f"dims/harmonic-count/m{m}",
            identity,
            float(abs(got - dim_harmonic(d, m))),
            0.0,
        )
    counts, error = [], None
    try:
        for n in range(n_max + 1):
            counts.append(len(dom.basis(params, n, spec.convention)))
    except FiniteConeError as exc:
        error = exc
    worst = None  # per degree that passed, the largest Euler residual of the angular factors up to it
    if dom.homogeneity and counts:
        worst = homogeneity_residuals(params, len(counts) - 1, spec.convention)
    for n, count in enumerate(counts):
        col.add(
            f"dims/{dom.name}-count/n{n}",
            identity,
            float(abs(count - dom.dimension(d, n))),
            0.0,
        )
        split = sum(dom.split_dimension(d, m) for m in range(n + 1))
        col.add(
            f"dims/{dom.split}/n{n}",
            identity,
            float(abs(split - dom.dimension(d, n))),
            0.0,
        )
        if worst:
            col.add(f"dims/homogeneity/n{n}", "homogeneity-euler", worst[n], th["residual_rel"])
    if error is not None:
        raise error


def _gram_rows(col: _Collector, res, th, identity):
    col.add("gram/unit-norm", "normalization-unit", res.unit_norm_dev, th["unit_norm"])
    col.add("gram/offdiag-max", identity, res.max_offdiag, th["gram_offdiag"])
    col.add("gram/diag-rel-max", identity, res.max_diag_rel, th["gram_diag_rel"])


@contextlib.contextmanager
def _finite(params):
    """Turn a floating-point overflow, or an invalid operation on one, into
    a DomainError naming the largest of p, q, beta and mu: the windows
    admit parameters too large for the rules and the Gram to carry in
    double precision."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        key = max(("p", "q", "beta", "mu"), key=lambda k: abs(getattr(params, k, None) or 0.0))
        value = getattr(params, key)
        raise DomainError(f"{key} = {value} is too large for double precision ({exc})") from exc


def _uni_gram(weight, evaluate, norm, spec: ParsedDescriptor, col: _Collector, th, identity):
    """The one-factor Gram R W R^T, with the degrees as elements and R the
    recurrence values at the nodes."""
    params, degrees = spec.params, range(spec.n_max + 1)
    params.require_valid(spec.n_max)
    with _finite(params):
        rule = weight(params).rule(2 * spec.n_max)
        ts = np.asarray(rule.nodes)
        factor = (np.asarray(rule.weights), lambda n: n, lambda n: evaluate(n, params, ts))
        res = separable_gram(
            degrees, [factor], [norm(n, params) for n in degrees], abs(rule.total_weight - 1.0)
        )
    _gram_rows(col, res, th, identity)


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


def _gram(dom: _Domain, spec: ParsedDescriptor, col: _Collector, th, identity):
    with _finite(spec.params):
        res = dom.gram(spec.params, spec.n_max, spec.convention)
    _gram_rows(col, res, th, identity)
    _diag_rows(col, res, th)


def _uni_ode(residual, build, spec: ParsedDescriptor, col: _Collector, th, identity):
    params = spec.params
    params.require_valid(spec.n_max)
    for n in range(spec.n_max + 1):
        res = residual(n, params)
        col.add(
            f"ode/n{n}", identity,
            res.rel_residual_against(build(n, params)), th["residual_rel"],
        )


def _elements(rows, prefix, detail, spec: ParsedDescriptor, col, th, identity):
    """The residual of the family's operator identity on every element of
    degree <= n_max, relative to the element: rows(spec) yields (element,
    residual, carrier) degree by degree; detail(params, el) or None fills
    the detail column."""
    for el, residual, carrier in rows(spec):
        col.add(
            f"{prefix}/{el.label}", identity, residual / carrier, th["residual_rel"],
            detail=detail(spec.params, el) if detail else "",
        )


def _solid_rows(spec: ParsedDescriptor):
    with _finite(spec.params):
        yield from identity_residuals(spec.params, spec.n_max, spec.convention)


def _surface_rows(residual, spec: ParsedDescriptor):
    """residual(params, el) on every element, carried by its univariate g."""
    params = spec.params
    for n in range(spec.n_max + 1):
        for el in surface_basis(params, n):
            if el.l == 1:  # the harmonics of one (n, m) share g, so they share the row
                row = residual(params, el).max_abs(), el.g.max_abs()
            yield (el, *row)


def _solid_m_eigenvalue(params, el) -> str:
    return f"eigenvalue n(n-p+2mu+d) = {el.n * (el.n - params.p + 2 * params.mu + params.d)}"


def _surface_m_eigenvalue(params, el) -> str:
    return f"eigenvalue n(n-p+d) = {el.n * (el.n - params.p + params.d)}"


def _laguerre_surface_rows(target: SurfaceParams, n_max: int, prefix: str, col: _Collector, th):
    """The Laguerre surface operator at target.beta on every (n, m),
    relative to the reduced carrier; it has degree-only eigenvalues at
    beta = -1 only, and rejects any other beta inside the window."""
    target.require_valid(0)
    for n in range(n_max + 1):
        for m in range(n + 1):
            res = laguerre_surface_ode_residual(target, n, m)
            col.add(
                f"{prefix}/n{n}.m{m}", "laguerre-surface-ode",
                res.rel_residual_against(target.radial(n, m).shift_up(m)), th["residual_rel"],
            )


def _uni_recurrence(kind, build, oracle, spec: ParsedDescriptor, col: _Collector, th, identity):
    params, n_max = spec.params, spec.n_max
    params.require_valid(n_max)
    for n in range(n_max + 1):
        rec = build(n, params)
        rod = oracle(n, params)
        col.add(
            f"recurrence/agreement/n{n}", identity,
            (rec - rod).rel_residual_against(rod), th["agreement_rel"],
        )
    for n in range(1, n_max + 1):
        res = derivative_relation_residual(kind, n, params)
        col.add(
            f"recurrence/derivative-shift/n{n}", "derivative-parameter-shift",
            res.rel_residual_against(build(n, params).derivative()), th["residual_rel"],
        )


def _cone_recurrence(stated: bool, spec: ParsedDescriptor, col: _Collector, th, identity):
    """The derived three-term recurrence on every (n, m); stated adds the
    documented deviation of the printed closed form."""
    params, n_max = spec.params, spec.n_max
    if n_max < 2:
        params.require_valid(n_max)
        col.add_skipped(
            "recurrence/skipped", identity, "the three-term recurrence needs n_max >= 2"
        )
        return
    worst_stated = 0.0
    for m in range(n_max):
        for n in range(m + 1, n_max):
            col.add(
                f"recurrence/n{n}.m{m}", identity,
                recurrence_residual(params, n, m), th["residual_rel"],
            )
            if stated:
                worst_stated = max(
                    worst_stated, recurrence_residual(params, n, m, variant="stated")
                )
    if stated:
        col.add_documented(
            "recurrence/stated-vs-derived", identity, worst_stated, KNOWN_DISCREPANCY_NOTE
        )


def _uni_limit(spec: ParsedDescriptor, col: _Collector, th, identity):
    params, lo, hi = spec.params, th["exponent_lo"], th["exponent_hi"]
    for n in range(min(spec.n_max, 4) + 1):
        errs = []
        for p in spec.p_grid:
            e = max(
                laguerre_limit_error_m(n, params.q, x, [p])[0] for x in (0.6, 1.0, 1.7)
            )
            errs.append((p, e))
        exponent = convergence_fit(errs)
        col.add_exponent(f"limit/n{n}", identity, exponent, lo, hi)


def _limit(relation, target, spec: ParsedDescriptor, col: _Collector, th, identity):
    """The fitted 1/p decay of relation(params, n, m) for n <= 3, then the
    Laguerre target's own identities."""
    lo, hi = th["exponent_lo"], th["exponent_hi"]
    for n in range(min(spec.n_max, 3) + 1):
        for m in range(n + 1):
            rep = relation(spec.params, n, m, p_grid=spec.p_grid)
            col.add_exponent(
                f"limit/n{n}.m{m}", identity, rep.exponent, lo, hi,
                detail=f"deviations {rep.deviations}",
            )
    target(spec, col, th)


def _solid_limit_target(spec: ParsedDescriptor, col: _Collector, th):
    params = spec.params
    checks = laguerre_cone_checks(
        params.d, params.mu, min(spec.n_max, 4), beta=params.q, limit_target=True
    )
    for name, value in checks:
        tag = "laguerre-cone-pde" if name.startswith("laguerre-pde") else "laguerre-cone-recurrence"
        col.add(f"limit/target/{name}", tag, value, th["residual_rel"])


def _surface_limit_target(spec: ParsedDescriptor, col: _Collector, th):
    """The target's operator identity, which holds at q = -1 only."""
    params = spec.params
    if params.d >= 2 and params.q == -1:
        target = SurfaceParams(params.d, "L", beta=params.q)
        _laguerre_surface_rows(target, min(spec.n_max, 4), "limit/target/sur-ode", col, th)


# ---------------------------------------------------------------------------
# the (family, suite) table
# ---------------------------------------------------------------------------


class _Row(NamedTuple):
    entry: str  # name of the expected-failure entry a probe records
    identity: str
    check: object  # check(spec, col, th, identity) adds the suite's rows
    skip: object = None  # params -> why suite "all" skips the suite, or None


_CONSTRUCTION_ONLY = "the surface identities assume d >= 2; d = 1 is construction-only"


def _surface_identity(params):
    return _CONSTRUCTION_ONLY if params.d == 1 else None


def _holds_at(key: str, value: float, reason: str, surface: bool = False):
    """Skip rule of a degree-only eigenvalue identity, which holds only
    where params.<key> == value and, on the surface, for d >= 2."""

    def skip(params):
        if surface and params.d == 1:
            return _CONSTRUCTION_ONLY
        return reason if getattr(params, key) != value else None

    return skip


def _shared(dom: _Domain, **rows) -> dict:
    """A cone or surface family's rows: dims and gram, then its own."""
    return {
        "dims": _Row(f"dims/{dom.name}", "basis-dimension", lambda *a: _dims(dom, *a)),
        "gram": _Row("gram", "orthogonality-gram", lambda *a: _gram(dom, *a)),
        **rows,
    }


# family -> suite -> row, in the order suite "all" runs them.  Checks name
# library functions inside lambdas for the reason _Domain gives.
_TABLE = {
    "uni-M": {
        "gram": _Row("gram", "orthogonality-gram", lambda *a: _uni_gram(
            lambda params: WeightMPQ(params.p, params.q), eval_m, norm_m, *a)),
        "ode": _Row("ode", "first-family-ode",
                    lambda *a: _uni_ode(ode_residual_m, coeffs_m, *a)),
        "recurrence": _Row("recurrence", "univariate-recurrence-vs-rodrigues",
                           lambda *a: _uni_recurrence("M", coeffs_m, coeffs_m_rodrigues, *a)),
        "limit": _Row("limit", "laguerre-limit", _uni_limit),
    },
    "uni-N": {
        "gram": _Row("gram", "orthogonality-gram", lambda *a: _uni_gram(
            lambda params: WeightInvExp(params.p), eval_n, norm_n, *a)),
        "ode": _Row("ode", "second-family-ode",
                    lambda *a: _uni_ode(ode_residual_n, coeffs_n, *a)),
        "recurrence": _Row("recurrence", "univariate-recurrence-vs-rodrigues",
                           lambda *a: _uni_recurrence("N", coeffs_n, coeffs_n_rodrigues, *a)),
    },
    "cone-M": _shared(
        SOLID,
        ode=_Row("ode", "solid-first-family-pde",
                 lambda *a: _elements(_solid_rows, "ode", _solid_m_eigenvalue, *a),
                 _holds_at("q", 0.0, "degree-only eigenvalues require q = 0")),
        recurrence=_Row("recurrence", "solid-three-term-recurrence",
                        lambda *a: _cone_recurrence(True, *a)),
        limit=_Row("limit", "laguerre-limit",
                   lambda *a: _limit(limit_to_laguerre, _solid_limit_target, *a)),
    ),
    "cone-N": _shared(
        SOLID,
        diffdiff=_Row("diffdiff", "solid-second-family-difference-differential",
                      lambda *a: _elements(_solid_rows, "diffdiff", None, *a)),
        recurrence=_Row("recurrence", "solid-three-term-recurrence",
                        lambda *a: _cone_recurrence(False, *a)),
    ),
    "cone-L": _shared(
        SOLID,
        ode=_Row("ode", "laguerre-cone-pde",
                 lambda *a: _elements(_solid_rows, "ode/laguerre-pde", None, *a),
                 _holds_at("beta", 0.0, "the degree-only eigenvalue requires beta = 0")),
        recurrence=_Row("recurrence", "solid-three-term-recurrence",
                        lambda *a: _cone_recurrence(False, *a)),
    ),
    "surf-M": _shared(
        SURFACE,
        ode=_Row("ode", "surface-first-family-ode",
                 lambda *a: _elements(functools.partial(_surface_rows, surface_ode_residual_m),
                                      "ode", _surface_m_eigenvalue, *a),
                 _holds_at("q", -1.0, "degree-only eigenvalues require q = -1", surface=True)),
        limit=_Row("limit", "laguerre-limit",
                   lambda *a: _limit(surface_limit_m, _surface_limit_target, *a),
                   _surface_identity),
    ),
    "surf-N": _shared(
        SURFACE,
        diffdiff=_Row("diffdiff", "surface-second-family-difference-differential",
                      lambda *a: _elements(
                          functools.partial(_surface_rows, surface_diffdiff_residual_n),
                          "diffdiff", None, *a),
                      _surface_identity),
    ),
    "surf-L": _shared(
        SURFACE,
        ode=_Row("ode", "laguerre-surface-ode",
                 lambda spec, col, th, _identity: _laguerre_surface_rows(
                     spec.params, spec.n_max, "ode", col, th),
                 _holds_at("beta", -1.0, "the degree-only eigenvalue requires beta = -1",
                           surface=True)),
    ),
}

FAMILY_SUITES = {family: tuple(rows) for family, rows in _TABLE.items()}
FAMILIES = tuple(FAMILY_SUITES)


def run_suite(suite: str, descriptor: dict, thresholds: dict = None) -> Report:
    """Execute the named check suite for the descriptor and assemble a
    Report.  suite "all" runs every suite applicable to the family."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    spec = parse_descriptor(descriptor)
    rows = _TABLE[spec.family]
    th = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        th.update(thresholds)
    if suite != "all" and suite not in rows:
        raise DomainError(f"suite {suite!r} does not apply to family {spec.family!r}")
    col = _Collector(bool(descriptor.get("probe", False)))
    for s in rows if suite == "all" else (suite,):
        row = rows[s]
        skip = row.skip(spec.params) if suite == "all" and row.skip else None
        if skip:
            col.add_skipped(f"{s}/skipped", "eigenvalue-restriction", skip)
            continue
        col.guarded(row.entry, row.identity, lambda: row.check(spec, col, th, row.identity))
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
