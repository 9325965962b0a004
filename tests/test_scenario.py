import numpy as np
import pytest

from centroidal_mpc import bundled_scenario
from centroidal_mpc.scenario import ScenarioError, apply_overrides, parse_scenario

MINIMAL = """\
format_version = 1

[physical]
mass_kg = 1.0
com_height_nominal_m = 0.6

[mpc]
horizon_knots = 10
period_s = 0.1

[simulation]
duration_s = 1.0
substeps = 2

[contact foot]
position_m = 0.0 0.0 0.0
corner_m = 0.0 0.0 0.0
active_s = 0.0 1.0
"""

PUSH = "\n[disturbance]\nt_start_s = 0.2\nduration_s = 0.3\nforce_n = 2 0 0\n"


class TestParsing:
    def test_minimal_scenario(self):
        cfg = parse_scenario(MINIMAL, name="mini")
        assert cfg.params.mass == 1.0
        assert cfg.plan.contact_ids == ["foot"]
        assert cfg.mpc.horizon_knots == 10
        assert cfg.substeps == 2
        assert cfg.disturbances == ()
        # defaults follow the documented parameter set
        assert cfg.mpc.pyramid.mu == 0.8
        assert cfg.mpc.pyramid.f_max == pytest.approx(3 * 9.81)
        np.testing.assert_allclose(cfg.mpc.box.upper, [0.15, 0.15, 0.0])

    def test_bundled_scenarios_parse(self):
        one = parse_scenario(bundled_scenario("one_leg_jump"), name="one")
        assert one.params.mass == 1.0
        assert one.plan.n_contacts == 1
        assert one.plan.contacts[0].geometry.n_corners == 1
        two = parse_scenario(bundled_scenario("two_leg_walk_run"), name="two")
        assert two.plan.n_contacts == 2
        assert all(c.geometry.n_corners == 4 for c in two.plan.contacts)

    def test_empty_file(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("")
        assert any("missing required section: physical" in p for p in err.value.problems)

    def test_negative_mass_named(self):
        bad = MINIMAL.replace("mass_kg = 1.0", "mass_kg = -2.0")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert any("mass_kg" in p for p in err.value.problems)

    @pytest.mark.parametrize(
        "line, message",
        [("friction_mu = 0", "friction coefficient"), ("normal_force_min_n = 50", "f_min")],
    )
    def test_bad_pyramid_is_scenario_error(self, line, message):
        bad = MINIMAL.replace("period_s = 0.1", f"period_s = 0.1\n{line}")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert any(message in p for p in err.value.problems)

    def test_unknown_key_with_line_number(self):
        bad = MINIMAL.replace("substeps = 2", "substeps = 2\nwarp_factor = 9")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert any("warp_factor" in p and "line" in p for p in err.value.problems)

    def test_disturbance_application_is_unknown_key(self):
        # Every push acts on the centre of mass; no key chooses where.
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINIMAL + PUSH + "application = com\n")
        assert any("application" in p and "line" in p for p in err.value.problems)

    def test_unknown_section(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINIMAL + "\n[telemetry]\nrate = 1\n")
        assert any("telemetry" in p for p in err.value.problems)

    @pytest.mark.parametrize("header", ["contactfoot", "contacts foot"])
    def test_misspelled_contact_section_rejected_at_its_line(self, header):
        # only "contact", whitespace and a name opens a contact section
        text = MINIMAL.replace("[contact foot]", f"[{header}]")
        line = text.splitlines().index(f"[{header}]") + 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert f"line {line}: unknown section [{header}]" in err.value.problems

    def test_missing_format_version(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINIMAL.replace("format_version = 1\n", ""))
        assert any("format_version" in p for p in err.value.problems)

    def test_multiple_problems_reported_together(self):
        bad = MINIMAL.replace("mass_kg = 1.0", "mass_kg = -2.0").replace(
            "duration_s = 1.0", "duration_s = -3.0"
        )
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert len(err.value.problems) >= 2

    def test_surface_and_corners_conflict(self):
        bad = MINIMAL.replace("corner_m = 0.0 0.0 0.0",
                              "corner_m = 0.0 0.0 0.0\nsurface_m = 0.2 0.1")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert any("surface_m or corner_m" in p for p in err.value.problems)

    def test_disturbance_outside_duration(self):
        bad = MINIMAL + "\n[disturbance]\nt_start_s = 0.8\nduration_s = 0.5\nforce_n = 1 0 0\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert any("outside simulation duration" in p for p in err.value.problems)

    def test_duration_must_align_with_period(self):
        bad = MINIMAL.replace("duration_s = 1.0", "duration_s = 1.05")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert any("integer multiple" in p for p in err.value.problems)

    def test_estimated_force_defaults_to_truth(self):
        text = MINIMAL + "\n[disturbance]\nt_start_s = 0.2\nduration_s = 0.3\nforce_n = 2 0 0\n"
        cfg = parse_scenario(text)
        event = cfg.disturbances[0]
        np.testing.assert_array_equal(event.force, event.estimated_force)
        assert event.active(0.2) and not event.active(0.5)

    def test_estimate_override(self):
        text = MINIMAL + (
            "\n[disturbance]\nt_start_s = 0.2\nduration_s = 0.3\n"
            "force_n = 2 0 0\nestimated_force_n = 0 0 0\n"
        )
        cfg = parse_scenario(text)
        assert cfg.disturbances[0].estimated_force.tolist() == [0, 0, 0]

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("mass_kg = 1.0", "mass_kg ="),
            ("duration_s = 1.0", "duration_s ="),
            ("com_height_nominal_m = 0.6", "com_height_nominal_m ="),
            ("position_m = 0.0 0.0 0.0", "position_m ="),
            ("force_n = 2 0 0", "force_n ="),
            ("t_start_s = 0.2", "t_start_s ="),
            ("duration_s = 1.0", "duration_s = inf"),
            ("duration_s = 0.3", "duration_s = nan"),
            ("mass_kg = 1.0", "mass_kg = abc"),
        ],
    )
    def test_bad_value_reported_at_its_line(self, line, bad):
        text = (MINIMAL + PUSH).replace(line, bad)
        lineno = text.splitlines().index(bad) + 1
        key = bad.split("=")[0].strip()
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any(p.startswith(f"line {lineno}: key {key!r} ") for p in err.value.problems)

    def test_config_hash_tracks_text(self):
        a = parse_scenario(MINIMAL)
        b = parse_scenario(MINIMAL.replace("substeps = 2", "substeps = 4"))
        assert a.config_hash != b.config_hash


class TestOverrides:
    def test_replace_existing_key(self):
        text = apply_overrides(MINIMAL, ["mpc.horizon_knots=20"])
        assert parse_scenario(text).mpc.horizon_knots == 20

    def test_append_missing_key(self):
        text = apply_overrides(MINIMAL, ["simulation.disturbances_enabled=false"])
        assert parse_scenario(text).disturbances_enabled is False

    def test_bad_override_shape(self):
        with pytest.raises(ScenarioError):
            apply_overrides(MINIMAL, ["horizon_knots=20"])
        with pytest.raises(ScenarioError):
            apply_overrides(MINIMAL, ["contact foot.position_m=1 1 1"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="kkt_tolernce"):
            apply_overrides(MINIMAL, ["mpc.kkt_tolernce=1e-5"])

    @pytest.mark.parametrize(
        "item, message",
        [
            ("simulation.substeps=abc", "expects an integer"),
            ("mpc.period_s=nan", "must be finite"),
            ("physical.gravity_mps2=0 -9.81", "expects 3 numbers"),
            ("simulation.disturbances_enabled=maybe", "expects true/false"),
            ("simulation.output_dir=", "expects a value"),
        ],
    )
    def test_bad_value_names_the_override(self, item, message):
        # Reported against the override, not against a line of the text it
        # rewrites (which need not exist in the file at all).
        with pytest.raises(ScenarioError) as err:
            apply_overrides(MINIMAL, [item])
        (problem,) = err.value.problems
        assert problem.startswith(f"override {item!r}") and message in problem
        assert "line" not in problem

    def test_override_is_textual_and_reparses(self):
        text = apply_overrides(MINIMAL, ["physical.mass_kg=2.5", "mpc.period_s=0.2"])
        cfg = parse_scenario(text)
        assert cfg.params.mass == 2.5
        assert cfg.mpc.period == 0.2
