import json

import pytest

from centroidal_mpc.cli import main

QUICK = """\
format_version = 1

[physical]
mass_kg = 1.0
com_height_nominal_m = 0.6

[mpc]
horizon_knots = 6
period_s = 0.1

[simulation]
duration_s = 0.3
substeps = 2

[contact left]
position_m = 0.0 0.08 0.0
surface_m = 0.20 0.10
active_s = 0.0 0.3

[contact right]
position_m = 0.0 -0.08 0.0
surface_m = 0.20 0.10
active_s = 0.0 0.3
"""


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "quick.txt"
    path.write_text(QUICK)
    return path


class TestRun:
    def test_run_exports_and_exits_zero(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", str(scenario_file), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "states.csv").exists()
        assert (out_dir / "run_manifest.json").exists()
        payload = json.loads((out_dir / "run_manifest.json").read_text())
        assert payload["steps"] == 3

    def test_run_with_override(self, scenario_file, tmp_path):
        out_dir = tmp_path / "out2"
        code = main([
            "run", str(scenario_file), "--out", str(out_dir),
            "--override", "simulation.substeps=5",
        ])
        assert code == 0
        payload = json.loads((out_dir / "run_manifest.json").read_text())
        assert payload["steps"] == 3

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("format_version = 1\n[physical]\nmass_kg = -1\n")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_misspelled_contact_section_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "typo.txt"
        bad.write_text(QUICK.replace("[contact right]", "[contactsfoot]"))
        assert main(["run", str(bad)]) == 2
        assert "unknown section [contactsfoot]" in capsys.readouterr().err

    def test_empty_value_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "empty.txt"
        bad.write_text(QUICK.replace("mass_kg = 1.0", "mass_kg ="))
        assert main(["run", str(bad)]) == 2
        assert "error: line 4: key 'mass_kg' expects a number, got ''" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["mpc.friction_mu=0", "mpc.normal_force_min_n=50", "mpc.normal_force_max_n=0"],
    )
    def test_bad_pyramid_exit_code(self, scenario_file, tmp_path, capsys, override):
        # the friction pyramid is checked while the scenario is parsed
        code = main(["run", str(scenario_file), "--out", str(tmp_path / "bad"),
                     "--override", override])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_missing_file_exit_code(self):
        assert main(["run", "/nonexistent/path.txt"]) == 2

    @pytest.mark.parametrize("command", ["run", "check-derivatives"])
    def test_directory_as_scenario_exit_code(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path)]) == 2
        assert_one_error_line(capsys.readouterr().err)

    def test_scenario_not_utf8_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(QUICK.replace("[physical]", "# caf\xe9\n[physical]").encode("latin-1"))
        assert main(["run", str(bad)]) == 2
        assert_one_error_line(capsys.readouterr().err)

    def test_degraded_completion_exit_code(self, tmp_path, capsys):
        # under a push, one solver iteration cannot converge; the run
        # completes degraded
        pushed = tmp_path / "pushed.txt"
        pushed.write_text(
            QUICK + "\n[disturbance]\nt_start_s = 0.0\nduration_s = 0.2\nforce_n = 3 1 0\n"
        )
        code = main([
            "run", str(pushed), "--out", str(tmp_path / "deg"),
            "--override", "mpc.max_iterations=1",
            "--override", "mpc.kkt_tolerance=1e-14",
        ])
        assert code == 3
        assert "degraded" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        # an unresisted kilonewton push on a 1 kg body leaves the sane region
        text = QUICK.replace("duration_s = 0.3", "duration_s = 4.0").replace(
            "active_s = 0.0 0.3", "active_s = 0.0 4.0"
        ) + "\n[disturbance]\nt_start_s = 0.0\nduration_s = 4.0\nforce_n = 1000 0 0\nestimated_force_n = 0 0 0\n"
        bad = tmp_path / "diverge.txt"
        bad.write_text(text)
        code = main(["run", str(bad), "--out", str(tmp_path / "div")])
        assert code == 1
        assert "diverged" in capsys.readouterr().err


class TestMetricsCommand:
    def test_prints_manifest_metrics(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", str(scenario_file), "--out", str(out_dir)])
        capsys.readouterr()
        assert main(["metrics", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "convergence_rate" in out

    def test_missing_manifest(self, tmp_path):
        assert main(["metrics", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text", ["{not json", '{"steps": 3}', "[1, 2]"])
    def test_unreadable_manifest_exit_code(self, tmp_path, capsys, text):
        # not JSON, no metrics key, not an object
        (tmp_path / "run_manifest.json").write_text(text)
        assert main(["metrics", str(tmp_path)]) == 2
        assert_one_error_line(capsys.readouterr().err)


class TestCheckDerivatives:
    def test_reports_small_error(self, scenario_file, capsys):
        code = main(["check-derivatives", str(scenario_file), "--points", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max rel error" in out

    @pytest.mark.parametrize(
        "flag, value",
        [("--points", "0"), ("--points", "-3"), ("--points", "two"),
         ("--seed", "-1"), ("--seed", str(2**32))],
    )
    def test_bad_point_count_or_seed_exit_code(self, scenario_file, capsys, flag, value):
        # rejected while the arguments are parsed, before any NLP is built
        with pytest.raises(SystemExit) as exc:
            main(["check-derivatives", str(scenario_file), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err

    def test_largest_seed_accepted(self, scenario_file, capsys):
        assert main(["check-derivatives", str(scenario_file), "--points", "1",
                     "--seed", str(2**32 - 1)]) == 0
        assert "checked 1 random points" in capsys.readouterr().out
