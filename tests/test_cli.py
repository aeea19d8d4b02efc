import io
import json

import pytest

from cycle_census import cli, density
from cycle_census.census import CensusReport
from cycle_census.density import DensityReport


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


class TestCensusCommand:
    def test_wreath_c3_c3_json(self):
        code, text = run(["census", "--family", "wreath",
                          "--inner", "c3", "--outer", "c3",
                          "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["cyclic_transitive_count"] == 6
        assert payload["order"] == 81
        report = CensusReport.from_json_dict(payload)
        assert report.n_cycle_count == 36

    def test_default_format_is_json(self):
        code, blob = run(["census", "--family", "wreath",
                          "--inner", "c3", "--outer", "c3"])
        assert code == 0
        assert json.loads(blob)["cyclic_transitive_count"] == 6

    def test_text_and_json_same_numbers(self):
        code_t, text = run(["census", "--family", "sharpness", "--k", "1",
                            "--format", "text"])
        code_j, blob = run(["census", "--family", "sharpness", "--k", "1",
                            "--format", "json"])
        assert code_t == code_j == 0
        payload = json.loads(blob)
        for key in ("degree", "order", "n_cycle_count", "class_count",
                    "cyclic_transitive_count", "phi_n"):
            assert f"{key}: {payload[key]}" in text

    def test_pgl(self):
        code, blob = run(["census", "--family", "pgl", "--d", "3", "--q", "2",
                          "--format", "json"])
        assert code == 0
        assert json.loads(blob)["class_count"] == 2

    def test_spec_file(self, tmp_path):
        path = tmp_path / "c4.grp"
        path.write_text("# expected_order 4\ndegree 4\ngen (1,2,3,4)\n")
        code, blob = run(["census", "--family", "spec",
                          "--spec-file", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(blob)["equality"] is True

    def test_cap_exceeded_is_an_error(self):
        code, _ = run(["census", "--family", "sym", "--n", "8",
                       "--cap", "1000"])
        assert code == 1

    def test_missing_flag(self):
        code, _ = run(["census", "--family", "cyclic"])
        assert code == 1

    def test_unknown_family(self):
        code, _ = run(["census", "--family", "nosuch"])
        assert code == 1

    def test_degree_above_64_is_an_error(self, capsys):
        code, text = run(["census", "--family", "cyclic", "--n", "65"])
        assert code == 1 and text == ""
        assert "degree 65 exceeds supported maximum 64" in capsys.readouterr().err


class TestDensityCommand:
    def test_json_roundtrip(self):
        code, blob = run(["density", "--poly", "x^2+1", "--bound", "5000",
                          "--predict", "c2", "--format", "json"])
        assert code == 0
        report = DensityReport.from_json_dict(json.loads(blob))
        assert report.ceiling.numerator == 1 and report.ceiling.denominator == 2
        assert report.predicted == report.ceiling

    def test_text_contains_numbers(self):
        code, text = run(["density", "--poly", "x^2+1", "--bound", "5000"])
        assert code == 0
        assert "primes_tested" in text and "ceiling" in text

    def test_bad_polynomial(self):
        code, _ = run(["density", "--poly", "x^", "--bound", "100"])
        assert code == 1

    def test_bound_past_int64_limit_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setattr(density, "sieve_primes", None)   # never reached
        code, text = run(["density", "--poly", "x^6+x^3+1",
                          "--bound", "1239850264"])
        assert code == 1 and text == ""
        assert "fits in int64" in capsys.readouterr().err


class TestExportSpec:
    def test_roundtrip_through_file(self, tmp_path):
        out_path = tmp_path / "exported.grp"
        code, _ = run(["export-spec", "--family", "holomorph", "--m", "9",
                       "--out", str(out_path)])
        assert code == 0
        code, blob = run(["census", "--family", "spec",
                          "--spec-file", str(out_path), "--format", "json"])
        assert code == 0
        assert json.loads(blob)["order"] == 54

    def test_stdout(self):
        code, text = run(["export-spec", "--family", "cyclic", "--n", "5"])
        assert code == 0
        assert "degree 5" in text and "# expected_order 5" in text


class TestWorkersFlag:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["census", "--family", "cyclic", "--n", "6"],
        ["verify", "--suite", "feit-jones", "--random-subgroups", "0"],
        ["density", "--poly", "x^2+1", "--bound", "100"],
    ])
    def test_below_one_is_an_error(self, argv, workers, capsys):
        # Only density takes --workers; census and verify refuse the flag.
        code, text = run(argv + ["--workers", workers])
        assert code == 1 and text == ""
        if argv[0] == "density":
            expected = f"workers must be at least 1, got {workers}"
        else:
            expected = f"unrecognized arguments: --workers {workers}"
        assert expected in capsys.readouterr().err


class TestCatalogCommand:
    def test_lists_families(self):
        code, text = run(["catalog"])
        assert code == 0
        for family in cli.FAMILIES:
            assert family in text
        assert "m11.grp" in text


class TestVerifyCommand:
    def test_small_verify_run(self):
        code, text = run(["verify", "--suite", "feit-jones",
                          "--random-subgroups", "5", "--instance-cap", "5000"])
        assert code == 0
        assert "violations 0" in text

    def test_unknown_suite(self):
        code, _ = run(["verify", "--suite", "nope"])
        assert code == 1

    def test_cap_is_refused(self, capsys):
        # verify bounds its work with --instance-cap; --cap selected nothing
        code, text = run(["verify", "--cap", "1", "--random-subgroups", "2",
                          "--instance-cap", "500"])
        assert code == 1 and text == ""
        assert "unrecognized arguments: --cap 1" in capsys.readouterr().err
