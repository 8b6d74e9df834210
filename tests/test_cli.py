"""Command-line interface: subcommands, exit codes, determinism."""

import dataclasses
import enum
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextrep
from contextrep import VesselsConfig, is_product, parse_joint_csv
from contextrep.cli import _build_parser, _dumps, main
from oracles import report_text_oracle

ANIMAL_CSV = "label,count\nHorse,43\nBear,38\n"
ACT_JSON = '{"Growls": 39, "Whinnies": 42}'
JOINT_CSV = (
    "row_label,col_label,count\n"
    "Horse,Growls,4\nHorse,Whinnies,51\nBear,Growls,21\nBear,Whinnies,5\n"
)
JOINT_JSON = '{"rows": ["M", "L"], "cols": ["M", "L"], "counts": [[0, 500], [500, 0]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestRepresent:
    def test_csv_input(self, tmp_path, capsys):
        f = tmp_path / "animal.csv"
        f.write_text(ANIMAL_CSV)
        report = run_json(capsys, "represent", str(f))
        assert report["real_vector"]["Horse"]["display"] == "0.53"
        assert report["real_vector"]["Bear"]["exact"] == "38/81"
        assert report["moduli"]["Horse"]["display"] == "0.73"
        assert report["born_probabilities"]["Bear"] == pytest.approx(38 / 81)

    def test_json_input(self, tmp_path, capsys):
        f = tmp_path / "act.json"
        f.write_text(ACT_JSON)
        report = run_json(capsys, "represent", str(f))
        assert report["real_vector"]["Growls"]["display"] == "0.48"
        assert report["moduli"]["Whinnies"]["display"] == "0.72"

    def test_single_outcome(self, tmp_path, capsys):
        f = tmp_path / "one.json"
        f.write_text('{"X": 7}')
        report = run_json(capsys, "represent", str(f))
        assert report["real_vector"]["X"]["value"] == 1.0

    def test_three_outcomes(self, tmp_path, capsys):
        f = tmp_path / "three.json"
        f.write_text('{"A": 1, "B": 1, "C": 2}')
        report = run_json(capsys, "represent", str(f))
        values = [report["real_vector"][k]["value"] for k in ("A", "B", "C")]
        assert values == [0.25, 0.25, 0.5]

    def test_phases_file(self, tmp_path, capsys):
        f = tmp_path / "animal.csv"
        f.write_text(ANIMAL_CSV)
        phases = tmp_path / "phases.json"
        phases.write_text('{"Bear": 1.5707963267948966}')
        report = run_json(capsys, "represent", str(f), "--phases", str(phases))
        bear = report["complex_vector"]["amplitudes"][1]
        assert bear["re"] == pytest.approx(0.0, abs=1e-12)
        assert bear["im"] == pytest.approx((38 / 81) ** 0.5)
        # probabilities unaffected by the phase twist
        assert report["born_probabilities"]["Bear"] == pytest.approx(38 / 81)


class TestSimulate:
    def test_pass_flag_and_shape(self, tmp_path, capsys):
        f = tmp_path / "animal.csv"
        f.write_text(ANIMAL_CSV)
        report = run_json(
            capsys, "simulate", str(f), "--trials", "100000", "--seed", "5"
        )
        assert report["pass"] is True
        assert report["trials"] == 100000
        assert report["boundary_hits"] == 0
        assert set(report["three_sigma_bounds"]) == {"Horse", "Bear"}

    def test_certain_outcome(self, tmp_path, capsys):
        f = tmp_path / "sure.json"
        f.write_text('{"up": 9, "down": 0}')
        report = run_json(capsys, "simulate", str(f), "--trials", "2000", "--seed", "1")
        assert report["frequencies"]["up"] == 1.0
        assert report["frequencies"]["down"] == 0.0
        assert report["pass"] is True

    @pytest.mark.parametrize("command", [["simulate", "animal.csv"],
                                         ["scenario", "vessels", "--mode", "separate"]])
    def test_negative_seed_is_refused_by_name(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "animal.csv").write_text(ANIMAL_CSV)
        code, out, err = run(capsys, *command, "--trials", "10", "--seed", "-1")
        assert (code, out, err) == (3, "", "error: seed must be a nonnegative integer, got -1\n")

    def test_uniform_four_outcomes(self, tmp_path, capsys):
        f = tmp_path / "uniform.json"
        f.write_text('{"a": 1, "b": 1, "c": 1, "d": 1}')
        report = run_json(capsys, "simulate", str(f), "--trials", "100000", "--seed", "12")
        assert report["pass"] is True


class TestEntanglement:
    def test_animal_acts_joint(self, tmp_path, capsys):
        f = tmp_path / "joint.csv"
        f.write_text(JOINT_CSV)
        report = run_json(capsys, "entanglement", str(f))
        assert report["report"]["verdict"] == "entangled"
        assert report["report"]["residual_exact"] == "1051/6561"
        assert report["joint_real_vector"]["HorseWhinnies"]["display"] == "0.63"
        moduli = report["joint_complex_vector"]["moduli"]
        assert [f"{m:.2f}" for m in moduli] == ["0.22", "0.79", "0.51", "0.25"]

    def test_vessels_ideal_table(self, tmp_path, capsys):
        f = tmp_path / "vessels.json"
        f.write_text(JOINT_JSON)
        report = run_json(capsys, "entanglement", str(f))
        assert report["report"]["verdict"] == "entangled"
        assert report["report"]["witness"]["value"] == -0.25

    def test_product_table(self, tmp_path, capsys):
        f = tmp_path / "prod.json"
        f.write_text('{"rows": ["a", "b"], "cols": ["x", "y"], "counts": [[12, 4], [6, 2]]}')
        report = run_json(capsys, "entanglement", str(f))
        assert report["report"]["verdict"] == "product"
        assert report["report"]["witness"] is None

    def test_float_mode_tolerance_default(self, tmp_path, capsys):
        f = tmp_path / "prod.json"
        f.write_text('{"rows": ["a", "b"], "cols": ["x", "y"], "counts": [[12, 4], [6, 2]]}')
        report = run_json(capsys, "entanglement", str(f), "--float")
        assert report["config"]["arithmetic"] == "float"
        assert report["config"]["tolerance"] == 1e-9
        assert report["report"]["arithmetic"] == "float"
        assert report["report"]["verdict"] == "product"

    def test_float_rank_one_table_at_zero_tolerance_is_product(self, tmp_path, capsys):
        f = tmp_path / "prod.csv"
        f.write_text("row_label,col_label,count\na,x,1\na,y,5\nb,x,2\nb,y,10\n")
        report = run_json(capsys, "entanglement", str(f), "--float", "--tolerance", "0")
        assert report["report"]["verdict"] == "product"
        assert report["report"]["witness"] is None
        assert report["report"]["residual"] > 0

    def test_explicit_tolerance(self, tmp_path, capsys):
        f = tmp_path / "joint.csv"
        f.write_text(JOINT_CSV)
        report = run_json(capsys, "entanglement", str(f), "--tolerance", "0.5")
        assert report["report"]["verdict"] == "product"


class TestScenarios:
    def test_animal_acts(self, capsys):
        report = run_json(capsys, "scenario", "animal-acts")
        assert report["report"]["verdict"] == "entangled"
        assert report["animal"]["real_vector"]["Horse"]["display"] == "0.53"
        assert report["act"]["moduli"]["Whinnies"]["display"] == "0.72"
        assert report["joint"]["counts"] == [[4, 51], [21, 5]]

    def test_animal_acts_float_decides_the_float_table(self, capsys):
        report = run_json(capsys, "scenario", "animal-acts", "--float")
        assert report["config"]["arithmetic"] == "float"
        assert report["report"]["arithmetic"] == "float"
        assert report["report"]["tolerance"] == 1e-9
        assert report["report"]["verdict"] == "entangled"
        assert report["report"]["witness"]["value_exact"] is None
        assert report["report"]["witness"]["value"] == pytest.approx(-1051 / 6561)
        assert report["joint"]["counts"] is None

    def test_vessels_connected(self, capsys):
        report = run_json(
            capsys,
            "scenario",
            "vessels",
            "--mode",
            "connected",
            "--trials",
            "20000",
            "--seed",
            "9",
        )
        counts = report["outcome_counts"]
        assert counts["MM"] == 0 and counts["LL"] == 0
        assert report["report"]["verdict"] == "entangled"

    def test_vessels_separate(self, capsys):
        report = run_json(
            capsys,
            "scenario",
            "vessels",
            "--mode",
            "separate",
            "--trials",
            "50000",
            "--seed",
            "10",
        )
        assert report["report"]["verdict"] == "entangled"  # finite-sample noise
        assert float(report["report"]["residual"]) < 0.01

    def test_vessels_custom_geometry(self, capsys):
        report = run_json(
            capsys,
            "scenario",
            "vessels",
            "--mode",
            "connected",
            "--trials",
            "1000",
            "--seed",
            "0",
            "--capacity",
            "8",
            "--threshold",
            "4",
        )
        assert report["vessels"]["capacity"] == 8.0
        assert report["outcome_counts"]["MM"] == 0

    def test_vessels_default_geometry_is_the_library_default(self, capsys):
        report = run_json(capsys, "scenario", "vessels", "--mode", "separate", "--trials", "10")
        assert report["vessels"] == dataclasses.asdict(VesselsConfig("separate", 10, 0))


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("label,count\na,oops\n")
        code, _, err = run(capsys, "represent", str(f))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_is_2(self, capsys):
        code, _, err = run(capsys, "represent", "no-such-file.csv")
        assert code == 2

    def test_semantic_error_is_3(self, tmp_path, capsys):
        f = tmp_path / "dup.csv"
        f.write_text("label,count\na,1\na,2\n")
        code, _, err = run(capsys, "represent", str(f))
        assert code == 3
        assert "duplicate" in err

    def test_zero_total_is_3(self, tmp_path, capsys):
        f = tmp_path / "zero.json"
        f.write_text('{"a": 0, "b": 0}')
        code, _, err = run(capsys, "represent", str(f))
        assert code == 3

    def test_non_rectangular_joint_is_3(self, tmp_path, capsys):
        f = tmp_path / "ragged.csv"
        f.write_text("row_label,col_label,count\na,x,1\na,y,2\nb,x,3\n")
        code, _, err = run(capsys, "entanglement", str(f))
        assert code == 3

    def test_negative_joint_count_is_3_and_named(self, tmp_path, capsys):
        f = tmp_path / "neg.csv"
        f.write_text("row_label,col_label,count\nr,c,-1\nr,d,2\ns,c,1\ns,d,1\n")
        code, out, err = run(capsys, "entanglement", str(f))
        assert (code, out) == (3, "")
        assert err == "error: invalid count at cell (0, 0): -1 is not a nonnegative integer\n"

    def test_duplicate_joint_json_key_is_3_and_named(self, tmp_path, capsys):
        f = tmp_path / "dup.json"
        f.write_text('{"rows": ["a", "b"], "cols": ["x", "y"], '
                     '"counts": [[1, 0], [0, 1]], "counts": [[1, 1], [1, 1]]}')
        out = tmp_path / "out.json"
        code, stdout, err = run(capsys, "entanglement", str(f), "--output", str(out))
        assert (code, stdout) == (3, "")
        assert err == "error: duplicate key 'counts' in JSON counts\n"
        assert not out.exists()

    def test_negative_json_count_is_3_and_bool_is_2(self, tmp_path, capsys):
        f = tmp_path / "neg.json"
        f.write_text('{"a": 3, "b": -1}')
        code, _, err = run(capsys, "represent", str(f))
        assert code == 3
        assert "invalid count for 'b': -1" in err
        f.write_text('{"rows": ["r"], "cols": ["c"], "counts": [[true]]}')
        code, _, err = run(capsys, "entanglement", str(f))
        assert code == 2
        assert "joint count True is not an integer" in err

    def test_unknown_phase_label_is_3(self, tmp_path, capsys):
        f = tmp_path / "animal.csv"
        f.write_text(ANIMAL_CSV)
        phases = tmp_path / "phases.json"
        phases.write_text('{"Wolf": 0.5}')
        code, _, err = run(capsys, "represent", str(f), "--phases", str(phases))
        assert code == 3

    def test_bad_phases_json_is_2(self, tmp_path, capsys):
        f = tmp_path / "animal.csv"
        f.write_text(ANIMAL_CSV)
        phases = tmp_path / "phases.json"
        phases.write_text("{")
        code, _, err = run(capsys, "represent", str(f), "--phases", str(phases))
        assert code == 2
        phases.write_text('{\n  "Horse": 0.5,\n}')
        code, _, err = run(capsys, "represent", str(f), "--phases", str(phases))
        assert code == 2
        assert "invalid phases JSON" in err and "(line 3, column 1)" in err

    def test_duplicate_phase_key_is_3_and_named(self, tmp_path, capsys):
        """A repeated phase label is refused, not resolved to its last value."""
        f = tmp_path / "animal.csv"
        f.write_text(ANIMAL_CSV)
        phases = tmp_path / "phases.json"
        phases.write_text('{"Horse": 1.0, "Horse": 2.0}')
        code, stdout, err = run(capsys, "represent", str(f), "--phases", str(phases))
        assert (code, stdout) == (3, "")
        assert err == "error: duplicate key 'Horse' in JSON phases\n"

    def test_phase_too_large_for_a_float_is_3(self, tmp_path, capsys):
        f = tmp_path / "animal.csv"
        f.write_text(ANIMAL_CSV)
        phases = tmp_path / "phases.json"
        phases.write_text('{"Horse": 1' + "0" * 400 + "}")
        code, stdout, err = run(capsys, "represent", str(f), "--phases", str(phases))
        assert (code, stdout) == (3, "")
        assert err == "error: phase at index 0 is too large for a float\n"

    @pytest.mark.parametrize("value, shown", [('"x"', "'x'"), ("true", "True"), ("null", "None")])
    def test_phase_that_is_not_a_number_is_3(self, tmp_path, capsys, value, shown):
        """PhaseAssignment owns the number rule and names the phase by its index."""
        f = tmp_path / "animal.csv"
        f.write_text(ANIMAL_CSV)
        phases = tmp_path / "phases.json"
        phases.write_text('{"Horse": ' + value + "}")
        code, stdout, err = run(capsys, "represent", str(f), "--phases", str(phases))
        assert (code, stdout) == (3, "")
        assert err == f"error: phase at index 0 must be a number, got {shown}\n"

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_is_3(self, tmp_path, capsys, tolerance):
        f = tmp_path / "joint.csv"
        f.write_text(JOINT_CSV)
        code, out, err = run(capsys, "entanglement", str(f), "--tolerance", tolerance)
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["represent", "counts.csv", "--trials", "5"],
            ["simulate", "counts.csv", "--tolerance", "0.1"],
            ["scenario", "animal-acts", "--phases", "phases.json"],
            ["entanglement", "joint.csv", "--exact"],
        ],
    )
    def test_flag_of_another_subcommand_is_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "counts.csv").write_text(ANIMAL_CSV)
        (tmp_path / "joint.csv").write_text(JOINT_CSV)
        (tmp_path / "phases.json").write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", "out.json"])
        assert exc.value.code == 2
        assert not (tmp_path / "out.json").exists()
        capsys.readouterr()

    def test_bad_flag_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "vessels", "--mode", "sideways"])
        assert exc.value.code == 2
        capsys.readouterr()


    @pytest.mark.parametrize("kind", ["counts", "joint", "phases"])
    def test_non_utf8_file_is_2_and_named(self, tmp_path, capsys, kind):
        """Bytes that are not UTF-8 are unreadable input, not a semantic error."""
        bad = tmp_path / f"{kind}.json"
        bad.write_bytes(b'{"a": 1, "\xff": 2}')
        counts = tmp_path / "animal.csv"
        counts.write_text(ANIMAL_CSV)
        argv = {
            "counts": ["represent", str(bad)],
            "joint": ["entanglement", str(bad)],
            "phases": ["represent", str(counts), "--phases", str(bad)],
        }[kind]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad} is not UTF-8 text")


class TestReportKeys:
    @pytest.mark.parametrize(
        "argv, command, sections",
        [
            (["represent", "counts.csv"], "represent",
             ["context", "counts", "total", "real_vector", "complex_vector", "moduli",
              "born_probabilities"]),
            (["simulate", "counts.csv", "--trials", "50"], "simulate",
             ["context", "trials", "seed", "frequencies", "boundary_hits", "target",
              "max_abs_deviation", "three_sigma_bounds", "pass"]),
            (["entanglement", "joint.csv"], "entanglement",
             ["table", "report", "joint_real_vector", "joint_complex_vector"]),
            (["scenario", "animal-acts"], "scenario animal-acts",
             ["animal", "act", "joint", "report", "joint_real_vector", "joint_complex_vector"]),
            (["scenario", "vessels", "--mode", "connected", "--trials", "50"], "scenario vessels",
             ["vessels", "outcome_counts", "joint", "report", "joint_real_vector",
              "joint_complex_vector"]),
        ],
    )
    def test_command_then_config_then_sections(
        self, tmp_path, monkeypatch, capsys, argv, command, sections
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "counts.csv").write_text(ANIMAL_CSV)
        (tmp_path / "joint.csv").write_text(JOINT_CSV)
        report = run_json(capsys, *argv)
        assert list(report) == ["command", "config", *sections]
        assert report["command"] == command


class TestConfigBlock:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["represent", "counts.csv", "--phases", "phases.json"],
             [None, None, None, None, "phases.json"]),
            (["simulate", "counts.csv", "--seed", "4", "--trials", "50"],
             [None, None, 4, 50, None]),
            (["entanglement", "joint.csv", "--float"], [1e-9, "float", None, None, None]),
            (["scenario", "animal-acts", "--tolerance", "0.5"], [0.5, None, None, None, None]),
            (["scenario", "vessels", "--mode", "separate", "--trials", "100", "--seed", "2",
              "--float", "--tolerance", "0.25"], [0.25, "float", 2, 100, None]),
        ],
    )
    def test_five_keys_in_order(self, tmp_path, monkeypatch, capsys, argv, expected):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "counts.csv").write_text(ANIMAL_CSV)
        (tmp_path / "joint.csv").write_text(JOINT_CSV)
        (tmp_path / "phases.json").write_text('{"Horse": 0.5}')
        config = run_json(capsys, *argv)["config"]
        assert list(config.items()) == list(
            zip(["tolerance", "arithmetic", "seed", "trials", "phases"], expected)
        )

    def test_tolerance_refused_before_trials(self, capsys):
        argv = ["scenario", "vessels", "--mode", "separate", "--trials", "0"]
        code, out, err = run(capsys, *argv, "--tolerance=-1")
        assert (code, out, err) == (3, "", "error: tolerance must be nonnegative, got -1.0\n")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "error: trials must be at least 1, got 0\n")

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_refused_first(self, capsys, tolerance):
        """A NaN or infinite tolerance is named as such, before trials and any simulation."""
        argv = ["scenario", "vessels", "--mode", "separate", "--trials", "0"]
        code, out, err = run(capsys, *argv, f"--tolerance={tolerance}")
        assert (code, out, err) == (3, "", f"error: tolerance must be finite, got {tolerance}\n")

    @pytest.mark.parametrize("tolerance", ["-1.0", "nan", "inf", "-inf"])
    def test_library_and_cli_state_the_tolerance_rule_alike(self, tmp_path, capsys, tolerance):
        f = tmp_path / "joint.csv"
        f.write_text(JOINT_CSV)
        with pytest.raises(ValueError) as refused:
            is_product(parse_joint_csv(JOINT_CSV), tol=float(tolerance))
        code, out, err = run(capsys, "entanglement", str(f), f"--tolerance={tolerance}")
        assert (code, out) == (3, "")
        assert err == f"error: {refused.value}\n"


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize(
        "first, second",
        [
            (["entanglement", "joint.csv", "--float"], ["entanglement", "joint.csv"]),
            (["simulate", "counts.csv", "--seed", "5", "--trials", "40"],
             ["simulate", "counts.csv"]),
        ],
    )
    def test_second_call_sees_no_flag_of_the_first(
        self, tmp_path, monkeypatch, capsys, first, second
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "counts.csv").write_text(ANIMAL_CSV)
        (tmp_path / "joint.csv").write_text(JOINT_CSV)
        run_json(capsys, *first)
        report = run_json(capsys, *second)
        assert list(report["config"].values()) == [None] * 5
        if second[0] == "entanglement":
            assert report["report"]["arithmetic"] == "exact"
        else:
            assert (report["trials"], report["seed"]) == (100_000, 0)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        f = tmp_path / "joint.csv"
        f.write_text(JOINT_CSV)
        code1 = main(["entanglement", str(f)])
        first = capsys.readouterr().out
        code2 = main(["entanglement", str(f)])
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second

    def test_seeded_simulation_is_deterministic(self, capsys):
        argv = ["scenario", "vessels", "--mode", "separate", "--trials", "5000", "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        f = tmp_path / "joint.csv"
        f.write_text(JOINT_CSV)
        main(["entanglement", str(f)])
        stdout_text = capsys.readouterr().out
        out = tmp_path / "report.json"
        main(["entanglement", str(f), "--output", str(out)])
        capsys.readouterr()
        assert out.read_text() == stdout_text


#: Run in a fresh interpreter: execute `argv[1]`, then run `cli.main` on the
#: rest of argv, if any; print the exit code and whether numpy is loaded.
_COLD_START = """
import contextlib, io, sys
exec(sys.argv[1])
code = None
if sys.argv[2:]:
    import contextrep.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = contextrep.cli.main(sys.argv[2:])
        except SystemExit as exc:
            code = exc.code
print(code, "numpy" in sys.modules)
"""


class TestColdStart:
    """numpy is loaded only by a run that computes with it.

    The test process imported numpy long ago, so each case runs in a fresh
    interpreter.
    """

    @pytest.fixture
    def cold_run(self, tmp_path):
        (tmp_path / "animal.csv").write_text(ANIMAL_CSV)
        (tmp_path / "joint.csv").write_text(JOINT_CSV)
        (tmp_path / "prod.json").write_text(
            '{"rows": ["a", "b"], "cols": ["x", "y"], "counts": [[12, 4], [6, 2]]}')
        (tmp_path / "zero.json").write_text('{"a": 0, "b": 0}')
        env = dict(os.environ, PYTHONPATH=str(Path(contextrep.__file__).parents[1]))

        def cold_run(code, *argv):
            done = subprocess.run([sys.executable, "-c", _COLD_START, code, *argv],
                                  cwd=tmp_path, env=env, capture_output=True, text=True,
                                  check=True)
            exit_code, numpy_loaded = done.stdout.split()
            return exit_code, numpy_loaded == "True"

        return cold_run

    @pytest.mark.parametrize("code", [
        "import contextrep",
        "import contextrep.cli",
        # A refused `trials` is checked before numpy is imported.
        "from contextrep import monte_carlo_measurement as mc\n"
        "try: mc(None, 2.5, 0)\n"
        "except ValueError: pass",
    ], ids=["contextrep", "contextrep.cli", "refused-trials"])
    def test_imports_and_a_refused_call_leave_numpy_unloaded(self, cold_run, code):
        assert cold_run(code) == ("None", False)

    @pytest.mark.parametrize("argv, code", [
        (["represent", "animal.csv"], "0"),
        (["entanglement", "prod.json"], "0"),
        (["represent", "zero.json"], "3"),
        (["--help"], "0"),
    ], ids=["represent", "product", "refused-input", "help"])
    def test_numpy_free_reports_leave_numpy_unloaded(self, cold_run, argv, code):
        assert cold_run("", *argv) == (code, False)

    @pytest.mark.parametrize("argv", [
        ["simulate", "animal.csv", "--trials", "1000"],
        ["entanglement", "joint.csv"],
    ], ids=["simulate", "entangled"])
    def test_reports_that_compute_with_numpy_load_it(self, cold_run, argv):
        assert cold_run("", *argv) == ("0", True)


# Every code point, lone surrogates included, plus the characters json escapes.
_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800",
                     "\udfff", "\U0001f600", 'a"b\\c\n\td']),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507201e-308, 0.1, 1e16,
                     1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]),
    _TEXT,
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=40,
)


class _Level(enum.IntEnum):
    LOW = 1


def _circular():
    loop = [1]
    loop.append({"back": loop})
    return loop


class TestReportWriter:
    @settings(max_examples=500)
    @given(_TREES)
    def test_equals_the_stdlib_encoder(self, value):
        assert _dumps(value) == report_text_oracle(value)

    @pytest.mark.parametrize(
        "value",
        [
            {2: "int", 2.5: [1], True: None, False: 0, None: {"k": 0.1}, "s": -0.0},
            {"outer": [{"deep": (0, {3: 4})}], "after": "x"},
            {float("nan"): 1, float("inf"): 2, _Level.LOW: 3},
            {"level": _Level.LOW, "levels": [_Level.LOW, (_Level.LOW,)]},
            {"f64": np.float64(0.1), "nan": np.float64("nan"), "inf": [np.float64("-inf")]},
        ],
        ids=["scalar-keys", "nested-int-key", "non-finite-and-enum-keys", "intenum", "float64"],
    )
    def test_keys_and_subclasses_give_the_stdlib_text(self, value):
        assert _dumps(value) == report_text_oracle(value)

    @pytest.mark.parametrize(
        "value",
        [{"x": object()}, [1, {2, 3}], {"n": np.int64(3)}, {"b": [np.bool_(True)]},
         {"z": 1j}, {"raw": b"x"}, {(1, 2): 3}, _circular()],
        ids=["object", "set", "int64", "bool_", "complex", "bytes", "tuple-key", "circular"],
    )
    def test_unwritable_values_raise_the_stdlib_error(self, value):
        with pytest.raises((TypeError, ValueError)) as expected:
            report_text_oracle(value)
        with pytest.raises(expected.type) as got:
            _dumps(value)
        assert str(got.value) == str(expected.value)


class TestReportText:
    """Every subcommand prints what json's indent=2 encoder prints, to stdout
    and to --output alike."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["represent", "counts.csv", "--phases", "phases.json"],
            ["simulate", "counts.csv", "--trials", "2000", "--seed", "3"],
            ["entanglement", "joint.csv"],
            ["entanglement", "joint.csv", "--float"],
            ["scenario", "animal-acts"],
            ["scenario", "animal-acts", "--float"],
            ["scenario", "vessels", "--mode", "separate", "--trials", "2000", "--seed", "1"],
        ],
        ids=["represent-phases", "simulate", "entanglement", "entanglement-float",
             "animal-acts", "animal-acts-float", "vessels"],
    )
    def test_stdout_and_output_file_are_the_stdlib_text(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "counts.csv").write_text("label,count\nHorse,43\nB\u00e4r,38\n",
                                             encoding="utf-8")
        (tmp_path / "phases.json").write_text('{"B\\u00e4r": 0.5}')
        (tmp_path / "joint.csv").write_text(JOINT_CSV)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == report_text_oracle(json.loads(out)) + "\n"
        code, printed, err = run(capsys, *argv, "--output", "report.json")
        assert (code, printed, err) == (0, "", "")
        assert (tmp_path / "report.json").read_bytes() == out.encode("ascii")
