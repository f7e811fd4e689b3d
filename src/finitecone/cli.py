"""Command-line front end: tabulate bases, evaluate elements, run
verification suites, emit reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration or
validity error (the violated parameter window is printed).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .ball import CONVENTIONS
from .errors import DomainError, FiniteConeError
from .verifier import DEFAULT_THRESHOLDS, FAMILIES, SUITES, parse_descriptor, run_suite

_WINDOW_HELP = (
    "validity windows: uni-M/uni-N orthogonal up to degree N only while p > 2N+1 "
    "(and q > -1); cone-M needs p > 2N+2*mu+d and q > -2*mu-d; cone-N needs "
    "p > 2N+2*mu+d; surf-M needs p > 2N+d and q > -d; surf-N needs p > 2N+d; "
    "the Laguerre families need beta > -d (cone-L with mu < 0: beta > -2*mu-d)"
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True, choices=FAMILIES, help=_WINDOW_HELP)
    sub.add_argument(
        "-d", "--dim", type=int, default=None,
        help="ambient x-dimension d (1, 2 or 3); default 1 on the solid cone, 2 on the surface",
    )
    sub.add_argument("--mu", type=float, default=0.5, help="cone weight exponent mu > -1/2")
    sub.add_argument("-p", type=float, default=None, help="family parameter p (see validity windows)")
    sub.add_argument("-q", type=float, default=None, help="family parameter q (see validity windows)")
    sub.add_argument("--beta", type=float, default=None, help="Laguerre exponent beta > -d")
    sub.add_argument("-n", "--n-max", type=int, default=2, help="maximal total degree")
    sub.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default="orthonormal",
        help="angular basis convention (paper-gegenbauer is d = 1 only and "
        "rejects mu = 0, where the hypergeometric definition degenerates)",
    )


def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"{what}: {text!r} is not a number") from None


def _descriptor(args) -> dict:
    desc = {
        "family": args.family,
        "mu": args.mu,
        "n_max": args.n_max,
        "convention": args.convention,
    }
    if args.dim is not None:
        desc["d"] = args.dim
    if args.p is not None:
        desc["p"] = args.p
    if args.q is not None:
        desc["q"] = args.q
    if args.beta is not None:
        desc["beta"] = args.beta
    return desc


def _build_elements(args):
    """Family-dispatched basis construction for tabulate/eval: the parsed
    descriptor and the (label, polynomial) pairs."""
    spec = parse_descriptor(_descriptor(args))
    params, n_max = spec.params, spec.n_max
    if args.family.startswith("uni"):
        from .univariate import coeffs_m, coeffs_n

        params.require_valid(n_max)
        build = coeffs_m if args.family == "uni-M" else coeffs_n
        return spec, [(f"n{n}", build(n, params)) for n in range(n_max + 1)]
    if args.family.startswith("cone"):
        from .cone_solid import cone_basis

        elements = [el for n in range(n_max + 1) for el in cone_basis(params, n, spec.convention)]
    else:
        from .cone_surface import surface_basis

        elements = [el for n in range(n_max + 1) for el in surface_basis(params, n)]
    return spec, [(el.label, el.poly) for el in elements]


def cmd_tabulate(args) -> int:
    _, elements = _build_elements(args)
    for label, poly in elements:
        if hasattr(poly, "render"):
            print(f"{label}: {poly.render()}")
        else:
            print(f"{label}: {poly!r}")
    return 0


def _parse_points(texts, dim: int):
    """Points are comma-separated coordinates; semicolons separate several
    points inside one argument."""
    points = []
    for text in texts:
        for chunk in text.split(";"):
            if not chunk.strip():
                continue
            parts = [_float(v, "point coordinate") for v in chunk.split(",") if v.strip()]
            if len(parts) != dim + 1:
                raise DomainError(f"point {chunk!r} needs {dim + 1} coordinates (x..., t)")
            points.append(parts)
    return points


def cmd_eval(args) -> int:
    spec, elements = _build_elements(args)
    if args.element is not None:
        elements = [e for e in elements if e[0] == args.element]
        if not elements:
            raise DomainError(f"no element labelled {args.element!r}")
    if args.family.startswith("uni"):
        for x in [_float(v, "evaluation point (a single x value)") for v in args.point]:
            for label, poly in elements:
                print(f"{label}({x:g}) = {poly(x):.12g}")
        return 0
    points = _parse_points(args.point, spec.params.d)
    on_surface = args.family.startswith("surf")
    for pt in points:
        x, t = pt[:-1], pt[-1]
        r = math.sqrt(sum(v * v for v in x))
        if on_surface:
            if abs(r - t) > 1e-12 * max(1.0, abs(t)):
                raise DomainError(f"point {pt} is not on the surface |x| = t")
        elif r > t:
            raise DomainError(f"point {pt} is outside the cone |x| <= t")
        for label, poly in elements:
            val = poly.evaluate(pt)
            print(f"{label}{tuple(round(v, 6) for v in pt)} = {val:.12g}")
    return 0


def cmd_verify(args) -> int:
    desc = _descriptor(args)
    if args.p_grid:
        desc["p_grid"] = [_float(v, "p-grid entry") for v in args.p_grid.split(",")]
    if args.probe:
        desc["probe"] = True
    overrides = {}
    for item in args.threshold or ():
        key, _, value = item.partition("=")
        if key not in DEFAULT_THRESHOLDS:
            raise DomainError(f"unknown threshold {key!r}; known: {tuple(DEFAULT_THRESHOLDS)}")
        overrides[key] = _float(value, f"threshold {key}")
    report = run_suite(args.suite, desc, overrides or None)
    for c in report.checks:
        label = {"pass": "PASS", "fail": "FAIL"}.get(c.verdict, c.verdict.upper())
        metric = c.metric if c.metric is not None else "-"
        print(f"{label:>16}  {c.name}  metric={metric}  threshold={c.threshold}")
    out_path = args.out
    if out_path is None:
        out_dir = os.environ.get("FINITECONE_OUT_DIR")
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            ext = "csv" if args.format == "csv" else "json"
            out_path = os.path.join(out_dir, f"report-{args.family}-{args.suite}.{ext}")
    payload = report.to_csv() if args.format == "csv" else report.to_json()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"report written to {out_path}")
    elif args.format != "text":
        print(payload)
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitecone",
        description="Finite orthogonal polynomial families on the solid cone "
        "and conic surface: tabulation, evaluation, verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    tab = subs.add_parser("tabulate", help="print basis elements in graded monomial order")
    _add_common(tab)
    tab.set_defaults(func=cmd_tabulate)

    ver = subs.add_parser("verify", help="run a verification suite and emit a report")
    _add_common(ver)
    ver.add_argument("--suite", choices=SUITES, default="all")
    ver.add_argument("--format", choices=("json", "csv", "text"), default="text")
    ver.add_argument("--out", default=None, help="report path (default: $FINITECONE_OUT_DIR)")
    ver.add_argument("--p-grid", default=None, help="comma-separated p values for limit suites")
    ver.add_argument(
        "--probe",
        action="store_true",
        help="boundary-probe mode: validity violations become expected-failure entries",
    )
    ver.add_argument(
        "--threshold",
        action="append",
        metavar="NAME=VALUE",
        help=f"override a threshold; known: {tuple(DEFAULT_THRESHOLDS)}",
    )
    ver.set_defaults(func=cmd_verify)

    ev = subs.add_parser("eval", help="evaluate basis elements at points")
    _add_common(ev)
    ev.add_argument(
        "--point",
        action="append",
        required=True,
        help="comma-separated coordinates x_1,..,x_d,t (just x for uni families); repeatable",
    )
    ev.add_argument("--element", default=None, help="restrict to one element label, e.g. n1.m1.k0")
    ev.set_defaults(func=cmd_eval)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args keeps no state between
    calls, so main builds the argparse tree once."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FiniteConeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
