"""Command-line interface: tabulation, evaluation, verification, exit
codes, report files, and the output-directory environment variable."""

import csv
import io
import json
import os

import pytest

from finitecone import cli
from finitecone.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tabulate_cone_paper_convention(capsys):
    code, out, _ = run_cli(
        capsys, "tabulate", "--family", "cone-M", "-d", "1", "--mu", "0.5",
        "-p", "10", "-q", "0", "-n", "1", "--convention", "paper-gegenbauer",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n0.m0.k0: 1"
    assert lines[1] == "n1.m0.k0: -2 + 7*t"
    assert lines[2] == "n1.m1.k0: x"


def test_tabulate_univariate(capsys):
    code, out, _ = run_cli(capsys, "tabulate", "--family", "uni-N", "-p", "10", "-n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["n0: 1", "n1: -1 + 8*t", "n2: 1 - 14*t + 42*t^2"]


def test_tabulate_window_violation_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "tabulate", "--family", "cone-M", "-d", "1", "--mu", "0.5",
        "-p", "4", "-q", "0", "-n", "3",
    )
    assert code == 2
    assert "p > 2N + 2*mu + d" in err


def test_eval_samples(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "cone-M", "-d", "1", "--mu", "0.5",
        "-p", "10", "-q", "0", "-n", "1", "--convention", "paper-gegenbauer",
        "--element", "n1.m1.k0", "--point", "0.5,1.0",
    )
    assert code == 0
    assert "= 0.5" in out
    code, out, _ = run_cli(
        capsys, "eval", "--family", "cone-M", "-d", "1", "--mu", "0.5",
        "-p", "10", "-q", "0", "-n", "0", "--element", "n0.m0.k0",
        "--point", "0.2,0.9", "--point", "0.0,2.0",
    )
    assert code == 0
    assert out.count("= 1") == 2


def test_dim_defaults_per_family(capsys, tmp_path):
    # without -d the descriptor's per-family default applies: d = 2 on the
    # surface, where the diffdiff identity is certified, d = 1 on the cone
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--family", "surf-N", "-p", "30", "-n", "2",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert "d" not in report["descriptor"]
    names = [c["name"] for c in report["checks"]]
    assert "diffdiff/skipped" not in names
    assert any(name.startswith("diffdiff/n2.") for name in names)
    code, _, _ = run_cli(
        capsys, "eval", "--family", "surf-M", "-p", "20", "-q", "0", "-n", "1",
        "--point", "0.6,0.8,1.0",
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "tabulate", "--family", "cone-N", "-p", "10", "-n", "1")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("*x")  # one x variable: d = 1


def test_eval_outside_cone_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--family", "cone-M", "-d", "1", "--mu", "0.5",
        "-p", "10", "-q", "0", "-n", "1", "--point", "2,1",
    )
    assert code == 2
    assert "outside the cone" in err


def test_eval_surface_point_guard(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--family", "surf-M", "-d", "2", "-p", "20", "-q", "0",
        "-n", "1", "--point", "0.5,0.5,1.0",
    )
    assert code == 2
    assert "not on the surface" in err
    code, out, _ = run_cli(
        capsys, "eval", "--family", "surf-M", "-d", "2", "-p", "20", "-q", "0",
        "-n", "1", "--point", "0.6,0.8,1.0",
    )
    assert code == 0


def test_verify_text_and_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "cone-M", "-d", "1", "--mu", "0.5",
        "-p", "30", "-q", "0", "-n", "4", "--suite", "all",
    )
    assert code == 0
    assert "overall: PASS" in out
    # an impossible threshold turns the run into exit 1
    code, out, _ = run_cli(
        capsys, "verify", "--family", "cone-M", "-d", "1", "--mu", "0.5",
        "-p", "30", "-q", "0", "-n", "3", "--suite", "gram",
        "--threshold", "gram_offdiag=1e-30",
    )
    assert code == 1
    assert "overall: FAIL" in out


def test_verify_boundary_probe(capsys):
    args = [
        "verify", "--family", "cone-M", "-d", "1", "--mu", "0.5",
        "-p", "10", "-q", "0", "-n", "4", "--suite", "gram",
    ]
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "p > 2N + 2*mu + d" in err
    code, out, _ = run_cli(capsys, *args, "--probe")
    assert code == 0
    assert "EXPECTED-FAILURE" in out


def test_verify_csv_report(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--family", "surf-N", "-d", "2", "-p", "10", "-n", "3",
        "--suite", "gram", "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert rows and all(r["verdict"] == "pass" for r in rows)
    # the per-(n, m) diagonal rows expose the expected norm values: at
    # p = 10, (n, m) = (1, 0) the norm square is 1/6
    diag = [r for r in rows if r["name"] == "gram/diag/n1.m0"]
    assert diag and "0.1666666" in diag[0]["detail"]


def test_verify_json_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    args = [
        "verify", "--family", "uni-M", "-p", "20", "-q", "0.5", "-n", "4",
        "--suite", "gram", "--format", "json", "--out", str(out_file),
    ]
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    first = json.loads(out_file.read_text())
    code, _, _ = run_cli(capsys, *args)
    second = json.loads(out_file.read_text())
    assert [c["metric"] for c in first["checks"]] == [c["metric"] for c in second["checks"]]
    assert first["schema"] == "finitecone.report.v1"


def test_output_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FINITECONE_OUT_DIR", str(tmp_path / "reports"))
    code, out, _ = run_cli(
        capsys, "verify", "--family", "uni-N", "-p", "20", "-n", "3",
        "--suite", "gram", "--format", "json",
    )
    assert code == 0
    path = tmp_path / "reports" / "report-uni-N-gram.json"
    assert path.exists()
    assert json.loads(path.read_text())["passed"] is True


def test_p_grid_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "uni-M", "-p", "40", "-q", "0", "-n", "2",
        "--suite", "limit", "--p-grid", "1e2,1e3,1e4,1e5",
    )
    assert code == 0


def test_eval_univariate(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "uni-M", "-p", "10", "-q", "0", "-n", "1",
        "--point", "0.5",
    )
    assert code == 0
    assert "n1(0.5) = 3" in out  # (p-2) x - (q+1) at x = 1/2


def test_malformed_point_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--family", "uni-M", "-p", "10", "-q", "0", "-n", "1",
        "--point", "0.5,1.0",
    )
    assert code == 2
    assert "not a number" in err


def test_semicolon_separated_points(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "cone-M", "-d", "1", "--mu", "0.5",
        "-p", "10", "-q", "0", "-n", "0", "--point", "0.2,0.9;0.0,2.0",
    )
    assert code == 0
    assert out.count("= 1") == 2


def test_missing_family_parameter_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--family", "cone-M", "-d", "1", "--mu", "0.5",
        "-n", "2", "--suite", "dims",
    )
    assert code == 2
    assert "needs p and q" in err


def test_huge_parameter_exits_2_naming_the_jacobi_parameters(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "cone-M", "-d", "2", "-p", "1e300",
                           "-q", "0", "-n", "2")
    assert code == 2
    assert "alpha = 1e+300" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (("--family", "uni-N", "-p", "1e300"), "p = 1e+300"),
        (("--family", "cone-N", "-d", "2", "-p", "1e300"), "p = 1e+300"),
        (("--family", "cone-L", "-d", "2", "--beta", "1e300"), "beta = 1e+300"),
        (("--family", "surf-L", "-d", "2", "--beta", "1e300"), "beta = 1e+300"),
        (("--family", "cone-L", "-d", "2", "--mu", "1e150", "--beta", "0"), "mu = 1e+150"),
    ],
)
def test_huge_parameter_outside_the_jacobi_rules_exits_2_naming_it(capsys, argv, named):
    code, _, err = run_cli(capsys, "verify", *argv, "-n", "2")
    assert code == 2
    assert named in err
    assert "Traceback" not in err


def test_unknown_threshold(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--family", "uni-N", "-p", "20", "-n", "2",
        "--suite", "gram", "--threshold", "bogus=1",
    )
    assert code == 2
    assert "unknown threshold" in err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    cli._parser.cache_clear()
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    argv = ("verify", "--family", "surf-N", "-p", "30", "-n", "2", "--suite", "dims")
    first = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "cone-Q", "-p", "30"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run_cli(capsys, *argv) == first
    assert first[0] == 0 and "overall: PASS" in first[1]
    assert len(builds) == 1


def test_family_choices_are_the_verifier_families():
    from finitecone.verifier import FAMILIES

    subs = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for sub in subs.choices.values():
        family = next(a for a in sub._actions if a.dest == "family")
        assert tuple(family.choices) == FAMILIES


def test_verify_probe_below_the_uni_q_window(capsys):
    # every uni-M suite checks the window first, and the limit names q > -1
    args = ["verify", "--family", "uni-M", "-p", "30", "-q", "-1.5", "-n", "3"]
    code, _, err = run_cli(capsys, *args, "--suite", "limit")
    assert code == 2
    assert "requires q > -1" in err
    code, out, _ = run_cli(capsys, *args, "--probe")
    assert code == 0
    lines = [line.split()[:2] for line in out.splitlines() if "EXPECTED-FAILURE" in line]
    suites = ("gram", "ode", "recurrence", "limit")
    assert lines == [["EXPECTED-FAILURE", suite] for suite in suites]
