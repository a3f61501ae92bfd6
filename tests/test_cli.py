"""Tests for the homcert command-line interface.

Subcommands are exercised through cli.main() directly (fast, in-process);
one subprocess smoke test covers the real entry point.
"""

import json
import subprocess
import sys

import pytest

from homcert import bounds, cli, harness
from homcert import homomorphism as hm
from homcert.graphs import (
    complete,
    cycle,
    enumerated_form,
    petersen,
    write_graph6,
)
from homcert.spectral import trace_power


@pytest.fixture
def g6file(tmp_path):
    def write(name, g, header=False):
        p = tmp_path / name
        prefix = ">>graph6<<" if header else ""
        p.write_text(prefix + write_graph6(g) + "\n")
        return str(p)

    return write


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCount:
    def test_c5_in_petersen(self, capsys, g6file):
        code, doc = run_json(
            capsys, ["count", g6file("h.g6", cycle(5)), g6file("g.g6", petersen())]
        )
        assert code == 0
        assert doc["schema"] == "count-report/1"
        assert doc["hom"] == 120
        assert doc["inj"] == 120
        assert doc["t_inj"] == "12/1"

    def test_header_line_accepted(self, capsys, g6file):
        code, doc = run_json(
            capsys,
            [
                "count",
                g6file("h.g6", cycle(3), header=True),
                g6file("g.g6", complete(4)),
            ],
        )
        assert code == 0
        assert doc["inj"] == hm.inj_count(cycle(3), complete(4)) == 24

    def test_header_line_error_offset(self, capsys, g6file):
        # offsets count from the start of the line, header included
        path = g6file("h.g6", cycle(5), header=True)
        with open(path) as fh:
            line = fh.read().strip()
        with open(path, "w") as fh:
            # the last 6-bit group of C5 ends in two padding bits; set one
            fh.write(line[:-1] + chr((ord(line[-1]) - 63 | 1) + 63) + "\n")
        code = cli.main(["count", path, g6file("g.g6", petersen())])
        assert code == 1
        assert "byte offset 12" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys, g6file):
        code = cli.main(["count", g6file("h.g6", cycle(5)), "/nonexistent.g6"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_garbage_graph6_exits_1(self, tmp_path, capsys, g6file):
        bad = tmp_path / "bad.g6"
        bad.write_text("\x7f not graph6\n")
        code = cli.main(["count", g6file("h.g6", cycle(5)), str(bad)])
        assert code == 1


class TestSpectrum:
    def test_traces_and_multiplicities(self, capsys, g6file):
        g = petersen()
        code, doc = run_json(capsys, ["spectrum", g6file("g.g6", g)])
        assert code == 0
        assert doc["schema"] == "spectrum-report/1"
        assert doc["order"] == 10
        for k, t in enumerate(doc["traces"]):
            assert t == trace_power(g, k)
        assert sum(m for _, m in doc["eigenvalues"]) == 10
        mults = sorted(m for _, m in doc["eigenvalues"])
        assert mults == [1, 4, 5]


class TestBound:
    def test_c5_certificate_matches_library(self, capsys, g6file):
        code, doc = run_json(capsys, ["bound", g6file("h.g6", cycle(5))])
        assert code == 0
        expected = bounds.build_bound_poly(cycle(5)).to_json_dict()
        assert doc == json.loads(json.dumps(expected))


class TestCertify:
    @pytest.fixture
    def c5poly(self, tmp_path, g6file, capsys):
        out = tmp_path / "c5cert.json"
        assert cli.main(["bound", g6file("h.g6", cycle(5)), "--out", str(out)]) == 0
        capsys.readouterr()
        return str(out)

    def test_threshold_7(self, capsys, c5poly):
        code, doc = run_json(
            capsys,
            ["certify", "--poly", c5poly, "--parity", "non-bipartite",
             "--d-range", "2..12"],
        )
        assert code == 0
        assert doc["schema"] == "threshold-report/2"
        assert doc["threshold"] == 7
        assert doc["failures"] == [2, 3, 4, 5, 6]

    def test_old_parity_word_rejected(self, capsys, c5poly):
        code = cli.main(
            ["certify", "--poly", c5poly, "--parity", "odd", "--d-range", "7..9"]
        )
        assert code == 1

    def test_bare_coefficient_list_accepted(self, tmp_path, capsys):
        p = bounds.build_bound_poly(cycle(5)).poly
        f = tmp_path / "rows.json"
        f.write_text(json.dumps(p.coefficient_list()))
        code, doc = run_json(
            capsys,
            ["certify", "--poly", str(f), "--parity", "non-bipartite",
             "--d-range", "7..7"],
        )
        assert code == 0
        assert doc["threshold"] == 7

    def test_bad_range_syntax(self, capsys, c5poly):
        # Arabic-Indic digits are Unicode digits, but not a range
        for text in ("abc", "\u0662..\u0669"):
            code = cli.main(
                ["certify", "--poly", c5poly, "--parity", "non-bipartite",
                 "--d-range", text]
            )
            assert code == 1, text

    def test_inverted_range(self, capsys, c5poly):
        code = cli.main(
            ["certify", "--poly", c5poly, "--parity", "non-bipartite",
             "--d-range", "9..2"]
        )
        assert code == 1

    def test_bad_json_file(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code = cli.main(
            ["certify", "--poly", str(f), "--parity", "non-bipartite",
             "--d-range", "2..3"]
        )
        assert code == 1

    def test_json_without_poly_field(self, tmp_path, capsys):
        f = tmp_path / "empty.json"
        f.write_text("{}")
        code = cli.main(
            ["certify", "--poly", str(f), "--parity", "non-bipartite",
             "--d-range", "2..3"]
        )
        assert code == 1

    def test_coefficients_field_rejected(self, tmp_path, capsys):
        rows = bounds.build_bound_poly(cycle(5)).poly.coefficient_list()
        f = tmp_path / "coefficients.json"
        f.write_text(json.dumps({"coefficients": rows}))
        code = cli.main(
            ["certify", "--poly", str(f), "--parity", "non-bipartite",
             "--d-range", "7..7"]
        )
        assert code == 1
        assert "'poly' field" in capsys.readouterr().err

    def test_zero_denominator(self, tmp_path, capsys):
        f = tmp_path / "zero.json"
        f.write_text(json.dumps({"poly": [[5, 0, 1, 0]]}))
        code = cli.main(
            ["certify", "--poly", str(f), "--parity", "non-bipartite",
             "--d-range", "2..3"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "zero denominator" in err
        assert "Traceback" not in err

    def test_float_coefficient_rejected(self, tmp_path, capsys):
        f = tmp_path / "float.json"
        f.write_text(json.dumps({"poly": [[5, 0, 1.5, 1]]}))
        code = cli.main(
            ["certify", "--poly", str(f), "--parity", "non-bipartite",
             "--d-range", "2..3"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "must be ints" in err
        assert "Traceback" not in err


class TestSearch:
    def test_petersen_search(self, capsys, g6file):
        code, doc = run_json(
            capsys,
            [
                "search",
                "--pattern",
                g6file("h.g6", cycle(5)),
                "--d",
                "3",
                "--n-max",
                "10",
                "--connected",
            ],
        )
        assert code == 0
        assert doc["schema"] == "search-report/2"
        assert doc["best_density"] == "12/1"
        assert doc["maximizers"] == [
            [write_graph6(enumerated_form(petersen())), "12/1"]
        ]
        assert "per_graph_table" not in doc

    def test_table_flag(self, capsys, g6file):
        code, doc = run_json(
            capsys,
            [
                "search",
                "--pattern",
                g6file("h.g6", cycle(3)),
                "--d",
                "3",
                "--n-max",
                "6",
                "--table",
            ],
        )
        assert code == 0
        assert len(doc["per_graph_table"]) == 3  # K4, K_{3,3}, prism

    def test_infeasible_range_exits_1(self, capsys, g6file):
        code = cli.main(
            [
                "search",
                "--pattern",
                g6file("h.g6", cycle(5)),
                "--d",
                "3",
                "--n-max",
                "3",
            ]
        )
        assert code == 1

    def test_negative_degree_exits_1(self, capsys, g6file):
        code = cli.main(
            [
                "search",
                "--pattern",
                g6file("h.g6", cycle(5)),
                "--d",
                "-1",
                "--n-max",
                "5",
            ]
        )
        assert code == 1
        assert "degree must be nonnegative, got d=-1" in capsys.readouterr().err


class TestVerifyPaper:
    def test_full_campaign_green(self, capsys):
        code, doc = run_json(capsys, ["verify-paper"])
        assert code == 0
        assert doc["schema"] == "verify-paper/2"
        assert doc["ok"] is True
        assert all(c["ok"] for c in doc["checks"])
        assert len(doc["checks"]) == 20

    def test_document_holds_the_harness_report(self, capsys):
        report = harness.verify_paper()
        assert report.ok
        assert len(report.checks) == 20
        code, doc = run_json(capsys, ["verify-paper"])
        assert code == 0
        assert doc["checks"] == list(report.checks)

    def test_failed_check_exits_2(self, capsys, monkeypatch):
        failed = harness.CheckReport(
            name="verify-paper",
            checks=({"name": "x", "ok": False, "detail": {}},),
        )
        monkeypatch.setattr(harness, "verify_paper", lambda: failed)
        code, doc = run_json(capsys, ["verify-paper"])
        assert code == 2
        assert doc == {
            "schema": "verify-paper/2",
            "ok": False,
            "checks": [{"name": "x", "ok": False, "detail": {}}],
        }

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["verify-paper", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["ok"] is True


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_required_argument(self, capsys):
        assert cli.main(["count"]) == 1

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_subcommand_help_exits_0(self, capsys):
        assert cli.main(["certify", "--help"]) == 0


class TestSubprocess:
    def test_module_invocation(self, tmp_path):
        h = tmp_path / "h.g6"
        g = tmp_path / "g.g6"
        h.write_text(write_graph6(cycle(5)) + "\n")
        g.write_text(write_graph6(petersen()) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "homcert.cli", "count", str(h), str(g)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["inj"] == 120
