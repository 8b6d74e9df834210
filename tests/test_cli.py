"""Command-line interface: subcommands, exit codes, determinism."""

import dataclasses
import json

import pytest

from contextrep import VesselsConfig
from contextrep.cli import _build_parser, main

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
