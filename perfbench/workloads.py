"""Seeded request lists for the three workloads, request execution, and the
outcome contract every request is judged by.

Nothing here asks the library where its windows lie: the inequalities are
the documented ones (README, `finitecone verify --help`), coded below, so a
library change cannot change which requests a workload sends.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("gram-deep", "identities-deep", "sweep-wide")

# Suites each family runs under "all", as documented; a report of an
# in-window request must show every one of them, as checks or as skipped.
FAMILY_SUITES = {
    "uni-M": ("gram", "ode", "recurrence", "limit"),
    "uni-N": ("gram", "ode", "recurrence"),
    "cone-M": ("dims", "gram", "ode", "recurrence", "limit"),
    "cone-N": ("dims", "gram", "diffdiff", "recurrence"),
    "cone-L": ("dims", "gram", "ode", "recurrence"),
    "surf-M": ("dims", "gram", "ode", "limit"),
    "surf-N": ("dims", "gram", "diffdiff"),
    "surf-L": ("dims", "gram", "ode"),
}

# Identity suites of identities-deep, at the parameter value where each
# identity holds (cone-M q = 0, cone-L beta = 0, surf-M q = -1).
IDENTITY_SUITES = {
    "cone-M": ("ode", "recurrence", "limit"),
    "cone-N": ("diffdiff", "recurrence"),
    "cone-L": ("ode", "recurrence"),
    "surf-M": ("ode", "limit"),
    "surf-N": ("diffdiff",),
}

P_MAX = 1000.0  # in-window p runs from just inside the window up to this
P_INSIDE = 0.05  # smallest distance of an in-window p from its edge
SHAPE_MAX = 3.0  # upper end of generic q and beta draws
DEEP_MU = (0.5, 1.0, 1.5)  # cycled within each class, the same for every seed


# ---------------------------------------------------------------------------
# documented windows
# ---------------------------------------------------------------------------


def p_edge(family: str, d: int, mu: float, n: int) -> float:
    """p must exceed this for orthogonality up to degree n."""
    if family.startswith("uni"):
        return 2 * n + 1
    if family.startswith("cone"):
        return 2 * n + 2 * mu + d
    return 2 * n + d


def shape_edge(family: str, d: int, mu: float) -> float:
    """q (M families) or beta (L families) must exceed this."""
    if family == "uni-M":
        return -1.0
    if family == "cone-M":
        return -2 * mu - d
    return -float(d)  # surf-M q, and beta of both L families


def window(desc: dict):
    """Documented inequalities of the descriptor's family as
    (text, holds) pairs; text is spelled as the documentation spells it."""
    family, n = desc["family"], desc["n_max"]
    d, mu = desc.get("d", 1), desc.get("mu", 0.5)
    kind = family.split("-")[1]
    out = []
    if family.startswith("cone"):
        out.append(("mu > -1/2", mu > -0.5))
    if kind in ("M", "N"):
        text = {"uni": "p > 2N+1", "cone": "p > 2N + 2*mu + d", "surf": "p > 2N + d"}[
            family.split("-")[0]
        ]
        out.append((text, desc["p"] > p_edge(family, d, mu, n)))
    if kind == "M":
        text = {"uni-M": "q > -1", "cone-M": "q > -2*mu - d", "surf-M": "q > -d"}[family]
        out.append((text, desc["q"] > shape_edge(family, d, mu)))
    if kind == "L":
        out.append(("beta > -d", desc["beta"] > shape_edge(family, d, mu)))
    return out


def violated(desc: dict):
    """First documented inequality the descriptor violates, or None."""
    for text, holds in window(desc):
        if not holds:
            return text
    return None


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


@dataclass
class Request:
    cls: tuple  # (family, d, n_max or band, variant, via)
    kind: str  # "in", "out", "out-probe" or "malformed"
    via: str  # "api" or "cli"
    suites: tuple  # run_suite calls, in order
    desc: dict
    inequality: str = None  # the violated window, for out-of-window kinds

    def key(self):
        return (self.cls, self.kind, self.via, self.suites, json.dumps(self.desc, sort_keys=True))


class _Strata:
    """Latin-hypercube draws: the k-th of `count` requests of one class
    gets a value in stratum perm[k] of [0, 1), one permutation per
    parameter, so every seed covers each parameter's range evenly."""

    def __init__(self, rng: random.Random, count: int):
        self.rng, self.count, self.perms = rng, count, {}

    def u(self, name: str, k: int) -> float:
        perm = self.perms.get(name)
        if perm is None:
            perm = list(range(self.count))
            self.rng.shuffle(perm)
            self.perms[name] = perm
        return (perm[k] + self.rng.random()) / self.count


def _in_p(family, d, mu, n, u):
    """Log-uniform distance from the window edge, P_INSIDE .. P_MAX."""
    edge = p_edge(family, d, mu, n)
    lo, hi = math.log(P_INSIDE), math.log(P_MAX - edge)
    return edge + math.exp(lo + u * (hi - lo))


def _in_shape(family, d, mu, u):
    edge = shape_edge(family, d, mu)
    return edge + (SHAPE_MAX - edge) * (0.02 + 0.98 * u)


def _descriptor(family, d, mu, n, u, variant):
    """In-window descriptor.  variant "eigen" puts q or beta at the value
    where the family's degree-only identity holds; "generic" draws it."""
    desc = {"family": family, "n_max": n}
    if not family.startswith("uni"):
        desc["d"] = d
    if family.startswith("cone"):
        desc["mu"] = mu
    kind = family.split("-")[1]
    if kind in ("M", "N"):
        desc["p"] = _in_p(family, d, mu, n, u("p"))
    eigen = {"cone-M": 0.0, "surf-M": -1.0, "cone-L": 0.0, "surf-L": -1.0}
    if kind in ("M", "L"):
        name = "q" if kind == "M" else "beta"
        if variant == "eigen" and family in eigen:
            desc[name] = eigen[family]
        else:
            desc[name] = _in_shape(family, d, mu, u(name))
    return desc


def _make(cls, suites, desc, via="api", probe=False, kind=None):
    if probe:
        desc = dict(desc, probe=True)
    inequality = None
    if kind is None:
        inequality = violated(desc)
        kind = "in" if inequality is None else ("out-probe" if probe else "out")
    return Request(cls, kind, via, suites, desc, inequality)


def _expand(templates, rounds, rng):
    """templates: (class key, builder) pairs, one per request of a round.
    build(u, k) returns the k-th request of its class; u(name) is the
    class's stratified draw for that turn."""
    by_class = Counter(cls for cls, _ in templates)
    strata = {cls: _Strata(rng, count * rounds) for cls, count in by_class.items()}
    seen = Counter()
    out = []
    for _ in range(rounds):
        for cls, build in templates:
            k = seen[cls]
            seen[cls] += 1
            out.append(build(lambda name, s=strata[cls], k=k: s.u(name, k), k))
    rng.shuffle(out)
    return out


def _gram_deep():
    templates = []
    # per round: (family, d, n_max, requests).  The mix puts the median and
    # the tail order statistic of a 2-round run inside clusters of similar
    # requests (surf n8 with cone-L n6; cone-M/N n6), not on a gap between
    # clusters, where host jitter would move them most.
    cone = ("cone-M", "cone-N", "cone-L")
    classes = [(f, 3, 7, 1) for f in cone] + [(f, 3, 6, 3) for f in cone]
    classes += [(f, 3, 5, 2) for f in cone] + [(f, 2, 8, 2) for f in cone]
    classes += [(f, 3, 8, 3) for f in ("surf-M", "surf-N")]
    for family, d, n, per_round in classes:
        cls = (family, d, n, "in", "api")

        def build(u, k, family=family, d=d, n=n, cls=cls):
            mu = DEEP_MU[k % len(DEEP_MU)]
            return _make(cls, ("gram",), _descriptor(family, d, mu, n, u, "generic"))

        templates += [(cls, build)] * per_round
    return templates


def _identities_deep():
    # one request per class and round, but three of the classes the median
    # and the tail order statistic of a 4-round run fall in (cone-L and
    # cone-N at d = 2, n_max = 9, cone-M at d = 2, n_max = 8; cone-N at
    # d = 3, n_max = 8), so both sit inside a dense cluster of similar
    # requests rather than near a gap
    tripled = {("cone-L", 2, 9), ("cone-N", 2, 9), ("cone-M", 2, 8), ("cone-N", 3, 8)}
    templates = []
    for family in IDENTITY_SUITES:
        for d, n in ((3, 6), (3, 7), (3, 8), (2, 8), (2, 9), (2, 10)):
            cls = (family, d, n, "in", "api")
            per_round = 3 if (family, d, n) in tripled else 1

            def build(u, k, family=family, d=d, n=n, cls=cls):
                mu = DEEP_MU[k % len(DEEP_MU)]
                desc = _descriptor(family, d, mu, n, u, "eigen")
                return _make(cls, IDENTITY_SUITES[family], desc)

            templates += [(cls, build)] * per_round
    return templates


# Malformed descriptors: (name, via, descriptor or argv tail).  The CLI ones
# pass through argument parsing or reach run_suite with a bad value.
_MALFORMED = (
    ("nan-p", "api", {"family": "cone-N", "d": 2, "mu": 0.5, "p": float("nan"), "n_max": 2}),
    ("missing-q", "api", {"family": "uni-M", "p": 30.0, "n_max": 2}),
    ("string-p", "api", {"family": "cone-M", "d": 2, "mu": 0.5, "p": "30", "q": 0.0, "n_max": 2}),
    ("negative-n", "api", {"family": "cone-N", "d": 2, "mu": 0.5, "p": 30.0, "n_max": -1}),
    ("string-p", "cli", {"family": "cone-M", "d": 2, "mu": 0.5, "p": "abc", "q": 0.0, "n_max": 2}),
    ("nan-p", "cli", {"family": "surf-N", "d": 2, "p": float("nan"), "n_max": 2}),
)


def _sweep_wide():
    templates = []
    groups = [("uni-M", 1), ("uni-N", 1)]
    groups += [(f, d) for f in FAMILY_SUITES if not f.startswith("uni") for d in (1, 2, 3)]
    for family, d in groups:
        for n in (1, 2, 3, 4):
            # one run_suite("all") and one CLI verify per (group, n_max).  q or
            # beta sits at its eigen value on one of the two, alternating with
            # n_max, except at n_max = 4: there cone-M d = 3 with its ode
            # suite would be a class of its own above all others, and the
            # tail order statistic would sit on that class's lower edge
            eigen_via = {1: "api", 2: "cli", 3: "api", 4: None}[n]
            for via in ("api", "cli"):
                variant = "eigen" if via == eigen_via else "generic"
                cls = (family, d, n, variant, via)

                def build(u, k, family=family, d=d, n=n, via=via, variant=variant, cls=cls):
                    desc = _descriptor(family, d, 2.0 * (1.0 - u("mu")), n, u, variant)
                    return _make(cls, ("all",), desc, via)

                templates.append((cls, build))
        # out of window: the p (or beta) edge without and with probe, and
        # the q edge of the M families without probe
        kind = family.split("-")[1]
        outs = [("edge", "api", False), ("edge", "cli", True)]
        if kind == "M":
            outs.append(("q-edge", "api", False))
        for which, via, probe in outs:
            cls = (family, d, "1-4", f"out-{which}" + ("-probe" if probe else ""), via)

            def build(u, k, family=family, d=d, which=which, via=via, probe=probe, cls=cls):
                kind = family.split("-")[1]
                n = 1 + int(u("n") * 4)
                mu = 2.0 * (1.0 - u("mu"))
                desc = _descriptor(family, d, mu, n, u, "generic")
                below = 0.5 * u("below")
                if which == "edge" and kind != "L":
                    desc["p"] = p_edge(family, d, mu, n) - below
                else:
                    desc["q" if kind == "M" else "beta"] = shape_edge(family, d, mu) - below
                return _make(cls, ("all",), desc, via, probe)

            templates.append((cls, build))
    for name, via, desc in _MALFORMED:
        cls = (desc["family"], desc.get("d", 1), desc["n_max"], f"malformed-{name}", via)
        templates.append(
            (cls, lambda u, k, cls=cls, via=via, desc=desc: _make(cls, ("all",), dict(desc), via, kind="malformed"))
        )
    return templates


_TEMPLATES = {"gram-deep": _gram_deep, "identities-deep": _identities_deep, "sweep-wide": _sweep_wide}

# Seconds one round of each workload takes on the reference host (2 vCPU,
# Python 3.11, numpy 2.4); a run of S seconds sends round(S / this) rounds.
ROUND_SECONDS = {"gram-deep": 12.5, "identities-deep": 7.5, "sweep-wide": 1.9}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int, rounds: int):
    """The workload's fixed request list: the class proportions are fixed,
    the seed draws only parameter values and the order."""
    rng = random.Random(f"{workload}:{seed}")
    return _expand(_TEMPLATES[workload](), rounds, rng)


def warmup_requests(workload: str):
    """One small request per family of the workload, independent of the
    seed, so lazy numpy/LAPACK set-up is paid before timing."""
    def u(name):
        return 0.5

    out = []
    if workload == "gram-deep":
        for family in ("cone-M", "cone-N", "cone-L", "surf-M", "surf-N"):
            out.append(_make(("warm-up",), ("gram",), _descriptor(family, 2, 0.5, 2, u, "generic")))
    elif workload == "identities-deep":
        for family, suites in IDENTITY_SUITES.items():
            out.append(_make(("warm-up",), suites, _descriptor(family, 2, 0.5, 2, u, "eigen")))
    else:
        for family in FAMILY_SUITES:
            out.append(_make(("warm-up",), ("all",), _descriptor(family, 2, 0.5, 1, u, "eigen")))
        out.append(_make(("warm-up",), ("all",), _descriptor("cone-M", 2, 0.5, 1, u, "eigen"), "cli"))
    return out


# ---------------------------------------------------------------------------
# execution and the outcome contract
# ---------------------------------------------------------------------------


def cli_argv(desc: dict, out_path: str):
    argv = ["verify", "--family", desc["family"], "-n", str(desc["n_max"])]
    for key, flag in (("d", "-d"), ("mu", "--mu"), ("p", "-p"), ("q", "-q"), ("beta", "--beta")):
        if key in desc:
            value = desc[key]
            argv += [flag, value if isinstance(value, str) else repr(value)]
    argv += ["--suite", "all", "--format", "json", "--out", out_path]
    if desc.get("probe"):
        argv.append("--probe")
    return argv


@dataclass
class Outcome:
    reports: list = None  # verifier.Report objects (api) or parsed JSON dicts (cli)
    payloads: list = None  # Report.to_json() output of "all" reports (api)
    exc: BaseException = None
    exit_code: int = None
    stderr: str = ""


class Executor:
    """Runs requests against one loaded copy of the library."""

    def __init__(self, lib, out_dir: str):
        self.lib = lib
        os.makedirs(out_dir, exist_ok=True)
        self.out_path = os.path.join(out_dir, "cli-report.json")

    def prepare(self, req: Request):
        """Untimed work before a request: no stale CLI report may be read."""
        if req.via == "cli" and os.path.exists(self.out_path):
            os.remove(self.out_path)

    def run(self, req: Request) -> Outcome:
        """The timed part: exactly what a user waits for."""
        if req.via == "cli":
            return self._run_cli(req)
        reports, payloads = [], []
        try:
            for suite in req.suites:
                report = self.lib.verifier.run_suite(suite, req.desc)
                reports.append(report)
                if suite == "all":
                    payloads.append((report, report.to_json()))
        except Exception as exc:  # judged below; any type may occur
            return Outcome(reports=reports, payloads=payloads, exc=exc)
        return Outcome(reports=reports, payloads=payloads)

    def _run_cli(self, req: Request) -> Outcome:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.lib.cli.main(cli_argv(req.desc, self.out_path))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:
            return Outcome(exc=exc, stderr=stderr.getvalue())
        return Outcome(exit_code=code, stderr=stderr.getvalue())

    def read_cli_report(self):
        if not os.path.exists(self.out_path):
            return None
        with open(self.out_path, encoding="utf-8") as fh:
            return json.load(fh)


def _squash(text: str) -> str:
    return "".join(text.split())


def _view(report):
    """(passed, [(check name, verdict)]) of a Report or of its JSON form."""
    if isinstance(report, dict):
        return report["passed"], [(c["name"], c["verdict"]) for c in report["checks"]]
    return report.passed, [(c.name, c.verdict) for c in report.checks]


def _failing_checks(checks):
    return ", ".join(name for name, verdict in checks if verdict == "fail")


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    # the library's outputs contradict each other, or it accepted a request
    # outside its window as if inside: only these make a run incorrect
    wrong_answer: bool = False


def judge(lib, req: Request, outcome: Outcome, cli_report=None) -> Verdict:
    """Apply the outcome contract of the request's kind."""
    error_type = lib.errors.FiniteConeError
    if req.via == "cli":
        if outcome.exc is not None:
            return Verdict(False, f"{type(outcome.exc).__name__}: {outcome.exc}")
        code = outcome.exit_code
        reports = [cli_report] if cli_report is not None else []
        if code == 0 and not reports:
            return Verdict(False, "exit 0 without a report", wrong_answer=True)
        if reports and code in (0, 1) and (code == 0) != reports[0]["passed"]:
            return Verdict(False, f"exit {code} disagrees with the report", wrong_answer=True)
    else:
        reports = outcome.reports
        for report, payload in outcome.payloads:
            if json.loads(payload)["passed"] != report.passed:
                return Verdict(False, "JSON report disagrees with the report", wrong_answer=True)

    if req.kind == "malformed":
        if req.via == "cli":
            if outcome.exit_code == 2:
                return Verdict(True)
            return Verdict(False, f"exit {outcome.exit_code}, expected 2", wrong_answer=bool(reports))
        if isinstance(outcome.exc, error_type):
            return Verdict(True)
        if outcome.exc is not None:
            return Verdict(False, f"{type(outcome.exc).__name__}: {outcome.exc}")
        return Verdict(False, "accepted a malformed descriptor", wrong_answer=True)

    if req.kind == "out":
        if req.via == "cli":
            text, raised = outcome.stderr, outcome.exit_code == 2
        else:
            text, raised = str(outcome.exc), isinstance(outcome.exc, error_type)
        if raised and _squash(req.inequality) in _squash(text):
            return Verdict(True)
        if raised:
            return Verdict(False, f"rejected without naming {req.inequality!r}: {text.strip()}")
        if outcome.exc is not None:
            return Verdict(False, f"{type(outcome.exc).__name__}: {outcome.exc}")
        return Verdict(False, f"accepted outside {req.inequality!r}", wrong_answer=True)

    if outcome.exc is not None:
        return Verdict(False, f"{type(outcome.exc).__name__}: {outcome.exc}")
    if not reports:
        return Verdict(False, f"exit {outcome.exit_code} without a report: {outcome.stderr.strip()}")

    if req.kind == "out-probe":
        passed, checks = _view(reports[0])
        if not any(verdict == "expected-failure" for _, verdict in checks):
            return Verdict(False, "probe report without expected-failure entries", wrong_answer=True)
        if not passed:
            return Verdict(False, "probe report fails: " + _failing_checks(checks))
        return Verdict(True)

    # in window: every report passes and shows every suite it ran, as
    # checks or as "<suite>/skipped"
    for suite, report in zip(req.suites, reports):
        passed, checks = _view(report)
        expected = FAMILY_SUITES[req.desc["family"]] if suite == "all" else (suite,)
        missing = [s for s in expected
                   if not any(name == s or name.startswith(s + "/") for name, _ in checks)]
        if missing:
            return Verdict(False, f"suites missing: {missing}")
        if not passed:
            return Verdict(False, "failing checks: " + _failing_checks(checks))
    return Verdict(True)


def class_counts(requests):
    return Counter((r.cls, r.kind) for r in requests)
