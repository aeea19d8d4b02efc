import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycle_census

from cycle_census import catalog, census, cli, density
from cycle_census.census import CensusReport
from cycle_census.density import DensityReport
from cycle_census.permutations import (DEFAULT_ELEMENT_CAP, Permutation,
                                       group_from_generators)


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

    def test_refused_spec_files(self, tmp_path, capsys):
        """A wrong annotation and a second one are each one error line;
        the second names its line."""
        for body, message in (
                ("# expected_order 99\n",
                 "error: bad.grp: constructed order 3 does not match "
                 "expected_order 99"),
                ("# expected_order 3\n# expected_order 7\n",
                 "error: bad.grp:4: duplicate expected_order annotation")):
            path = tmp_path / "bad.grp"
            path.write_text("degree 3\ngen (1,2,3)\n" + body)
            code, text = run(["census", "--family", "spec",
                              "--spec-file", str(path)])
            assert code == 1 and text == ""
            assert capsys.readouterr().err.splitlines() == [message]


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

    def test_coefficient_past_int64(self):
        """10^20 x^2 + 1 reports what the scalar route finds prime by prime."""
        code, blob = run(["density", "--poly", "100000000000000000000x^2+1",
                          "--bound", "100", "--format", "json"])
        assert code == 0
        report = DensityReport.from_json_dict(json.loads(blob))
        reductions = [density.reduce_mod_p((1, 0, 10 ** 20), p)
                      for p in density.sieve_primes(100)]
        good = [r for r in reductions if isinstance(r, density.PolyModP)]
        assert report.polynomial == (1, 0, 10 ** 20)
        assert report.primes_skipped == len(reductions) - len(good) == 2
        assert report.primes_tested == len(good)
        assert report.inert_count == sum(map(density.is_irreducible_mod_p, good))

    def test_predict_group_of_another_degree_is_an_error(self, capsys,
                                                         monkeypatch):
        """c5 on a sextic would print predicted 4/5, above the 1/3 ceiling;
        it is refused before any prime is classified."""
        monkeypatch.setattr(density, "density_report", None)   # never reached
        code, text = run(["density", "--poly", "x^6+x^3+1", "--bound", "1000",
                          "--predict", "c5"])
        assert code == 1 and text == ""
        assert "degree 5" in capsys.readouterr().err

    def test_empty_predict_is_an_error(self, capsys, monkeypatch):
        """An empty --predict is a family code like any other, not an absent
        flag: it is refused before any prime is classified."""
        monkeypatch.setattr(density, "density_report", None)   # never reached
        code, text = run(["density", "--poly", "x^6+x^3+1", "--bound", "1000",
                          "--predict", ""])
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: unknown family code ''")
        assert err.count("\n") == 1

    def test_bound_past_int64_limit_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setattr(density, "_sieve", None)   # never reached
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

    def test_empty_out_is_an_error(self, capsys):
        """An empty --out names no file; it does not mean stdout."""
        code, text = run(["export-spec", "--family", "cyclic", "--n", "5",
                          "--out", ""])
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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

    @pytest.mark.parametrize("flags", [
        ["--random-subgroups", "2", "--instance-cap", "100",
         "--subgroup-order-cap", "0"],
        ["--random-subgroups", "-3"],
        ["--instance-cap", "-1"]])
    def test_invalid_sweep_flags_are_errors(self, flags, capsys):
        code, text = run(["verify", *flags])
        err = capsys.readouterr().err
        assert code == 1 and text == ""
        assert "must be at least" in err and "VIOLATION" not in err

    def test_default_instance_cap_is_the_census_cap(self):
        args = cli.build_parser().parse_args(["verify"])
        assert args.instance_cap == DEFAULT_ELEMENT_CAP == 20_000_000

    def test_no_random_subgroups_is_valid(self):
        code, text = run(["verify", "--random-subgroups", "0",
                          "--instance-cap", "100"])
        assert code == 0 and "violations 0" in text

    def test_cap_is_refused(self, capsys):
        # verify bounds its work with --instance-cap; --cap selected nothing
        code, text = run(["verify", "--cap", "1", "--random-subgroups", "2",
                          "--instance-cap", "500"])
        assert code == 1 and text == ""
        assert "unrecognized arguments: --cap 1" in capsys.readouterr().err


class TestViolationExitCode:
    """Exit code 2 means a violated identity, with one line on stderr per
    violation; a failed random phase is refused with exit code 1."""

    @pytest.fixture
    def off_by_one(self, monkeypatch):
        original = census.count_n_cycles
        monkeypatch.setattr(census, "count_n_cycles",
                            lambda *args: original(*args) + 1)

    def test_census_invariant_violation(self, off_by_one, capsys):
        code, text = run(["census", "--family", "cyclic", "--n", "6"])
        err = capsys.readouterr().err.splitlines()
        assert (code, text) == (cli.EXIT_VIOLATION, "") and len(err) == 1
        assert err[0].startswith("CENSUS INVARIANT VIOLATION: ")

    def test_one_bound_violation_line_per_row(self, off_by_one, capsys):
        rows = [r for r in census.run_sweep(instance_cap=50, subgroup_count=0)
                if r.status == "violation"]
        code, text = run(["verify", "--random-subgroups", "0",
                          "--instance-cap", "50"])
        assert code == cli.EXIT_VIOLATION and rows
        assert f"violations {len(rows)}" in text
        assert capsys.readouterr().err.splitlines() == [
            f"BOUND VIOLATION in {r.name}: {r.detail}" for r in rows]

    def test_a_failed_random_phase(self, monkeypatch, capsys):
        """One intransitive parent, <(1 2)> on 3 points, skipped by the
        instance cap: every random pair is refused."""
        parent = group_from_generators(3, [Permutation((0, 2, 1))])
        monkeypatch.setattr(catalog, "standard_instances",
                            lambda include_m23=False: [("c2_on_3", parent)])
        with pytest.raises(ValueError, match="^only 0 random subgroups "
                           "found in 60 attempts$"):
            census.run_sweep(instance_cap=1, subgroup_count=1)
        code, text = run(["verify", "--random-subgroups", "1",
                          "--instance-cap", "1"])
        assert (code, text) == (cli.EXIT_ERROR, "")
        assert capsys.readouterr().err == (
            "error: only 0 random subgroups found in 60 attempts\n")


class TestModuleEntryPoints:
    """`python -m cycle_census` and `python -m cycle_census.cli` run the same
    CLI as cli.main, exit codes included."""

    @staticmethod
    def run_module(module, argv):
        src = str(Path(cycle_census.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    @pytest.mark.parametrize("module", ["cycle_census", "cycle_census.cli"])
    def test_bad_suite_exits_1(self, module):
        done = self.run_module(module, ["verify", "--suite", "nope"])
        assert done.returncode == 1
        assert done.stdout == ""
        assert "unknown suite 'nope'" in done.stderr

    @pytest.mark.parametrize("argv", [
        ["density", "--poly", "1/0x+1", "--bound", "100"],
        ["census", "--family", "cyclic", "--n", "0"],
        ["density", "--poly", "x^65+1", "--bound", "100"],
        ["census", "--family", "pgl", "--d", "3"],
        ["density", "--poly", f"x^{'9' * 5000}+1", "--bound", "100"],
        ["census", "--family", "wreath", "--inner", f"c{'9' * 5000}",
         "--outer", "c2"],
        # oversized family parameters, refused before any arithmetic on them
        # (the first took minutes to factor, hence run_module's timeout)
        ["census", "--family", "pgl", "--d", "2", "--q", "9" * 23],
        ["census", "--family", "pgl", "--d", "200000000", "--q", "2"],
        ["census", "--family", "sharpness", "--k", "10000"],
        ["census", "--family", "cyclic", "--n", "9" * 300],
        # an integer flag too long to convert, which argparse would quote in
        # full below its usage block; the error names the flag
        ["census", "--family", "cyclic", "--n", "9" * 5000],
        ["verify", "--seed", "9" * 5000],
    ])
    def test_bad_input_is_one_error_line(self, argv):
        done = self.run_module("cycle_census", argv)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error:")
        assert done.stderr.count("\n") == 1
        assert len(done.stderr) < 200
        assert "Traceback" not in done.stderr
        assert "Exceeds the limit" not in done.stderr
        if argv[-1] == "9" * 5000:
            assert done.stderr.startswith(f"error: argument {argv[-2]}: ")

    def test_other_bad_integers_keep_the_usage_error(self, capsys):
        code, _ = run(["census", "--family", "cyclic", "--n", "abc"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage: cycle-census census")
        assert err.endswith("cycle-census census: error: argument --n: "
                            "invalid int value: 'abc'\n")

    @pytest.mark.parametrize("module", ["cycle_census", "cycle_census.cli"])
    def test_census_prints_what_main_prints(self, module):
        argv = ["census", "--family", "cyclic", "--n", "6"]
        done = self.run_module(module, argv)
        code, text = run(argv)
        assert code == 0
        assert (done.returncode, done.stdout) == (code, text)
        assert json.loads(text)["n_cycle_count"] == 2


class TestOutputsArePinned:
    """Every subcommand's bytes, exit code and stderr, pinned as one digest.

    The list covers census text and json for every family, spec included,
    the missing-flag errors, verify and density in both formats, export-spec
    and catalog.  Paths that differ between checkouts (the spec file, the
    data directory) are replaced by placeholders before hashing.
    """

    ARGVS = [
        ["census", "--family", "cyclic", "--n", "6"],
        ["census", "--family", "cyclic", "--n", "6", "--format", "text"],
        ["census", "--family", "holomorph", "--m", "9", "--format", "text"],
        ["census", "--family", "holomorph", "--m", "9", "--format", "json"],
        ["census", "--family", "sym", "--n", "5", "--format", "text"],
        ["census", "--family", "sym", "--n", "5"],
        ["census", "--family", "alt", "--n", "5", "--format", "text"],
        ["census", "--family", "alt", "--n", "5"],
        ["census", "--family", "wreath", "--inner", "c3", "--outer", "c2",
         "--format", "text"],
        ["census", "--family", "wreath", "--inner", "hol5", "--outer", "c2"],
        ["census", "--family", "pgl", "--d", "3", "--q", "2", "--format", "text"],
        ["census", "--family", "pgl", "--d", "2", "--q", "4"],
        ["census", "--family", "pgammal", "--d", "2", "--q", "4", "--format", "text"],
        ["census", "--family", "pgammal", "--d", "2", "--q", "4"],
        ["census", "--family", "duality", "--d", "3", "--q", "2", "--format", "text"],
        ["census", "--family", "duality", "--d", "3", "--q", "2"],
        ["census", "--family", "sharpness", "--k", "1", "--format", "text"],
        ["census", "--family", "sharpness", "--k", "1"],
        ["census", "--family", "spec", "--spec-file", "<tmp>/c4.grp",
         "--format", "text"],
        ["census", "--family", "spec", "--spec-file", "<tmp>/c4.grp"],
        ["census", "--family", "cyclic"],
        ["census", "--family", "wreath", "--inner", "c3"],
        ["census", "--family", "wreath", "--inner", "c3", "--outer", "z2"],
        ["census", "--family", "pgl", "--d", "3"],
        ["census", "--family", "spec"],
        ["census", "--family", "sym", "--n", "8", "--cap", "1000"],
        ["verify", "--random-subgroups", "5", "--instance-cap", "5000"],
        ["verify", "--random-subgroups", "5", "--instance-cap", "5000",
         "--format", "json"],
        ["density", "--poly", "x^2+1", "--bound", "5000", "--predict", "c2"],
        ["density", "--poly", "x^2+1", "--bound", "5000", "--predict", "c2",
         "--format", "json"],
        ["density", "--poly", "x^6+x^3+1", "--bound", "1000", "--format", "text"],
        ["density", "--poly", "2x^5-3x+7", "--bound", "1000", "--format", "json"],
        ["export-spec", "--family", "holomorph", "--m", "5"],
        ["export-spec", "--family", "pgl", "--d", "2", "--q", "3"],
        ["catalog"],
    ]
    DIGEST = "7b0babb0d50969f942b1bf2fddf7c7c169c3088b19259e037ec4569b71a2f70f"

    def test_outputs_match_the_pinned_digest(self, tmp_path, capsys):
        (tmp_path / "c4.grp").write_text(
            "# expected_order 4\ndegree 4\ngen (1,2,3,4)\n")
        places = [(str(tmp_path), "<tmp>"),
                  (str(catalog.data_dir()), "<data>")]
        h = hashlib.sha256()
        for argv in self.ARGVS:
            code, text = run([a.replace("<tmp>", str(tmp_path)) for a in argv])
            err = capsys.readouterr().err
            for path, mark in places:
                text, err = text.replace(path, mark), err.replace(path, mark)
            h.update(repr((argv, code, text, err)).encode())
        assert h.hexdigest() == self.DIGEST
