import csv
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import centroidal_mpc
from centroidal_mpc import bundled_scenario, controller, qp, sim, transcription
from centroidal_mpc.scenario import apply_overrides, parse_scenario
from centroidal_mpc.sim import Touchdown, compute_metrics, export_csv, simulate, write_manifest

STANDING = """\
format_version = 1

[physical]
mass_kg = 1.0
com_height_nominal_m = 0.6

[mpc]
horizon_knots = 8
period_s = 0.1

[simulation]
duration_s = 0.5
substeps = 3

[contact left]
position_m = 0.0 0.08 0.0
surface_m = 0.20 0.10
active_s = 0.0 0.5

[contact right]
position_m = 0.0 -0.08 0.0
surface_m = 0.20 0.10
active_s = 0.0 0.5
"""

STEP_PLAN = """\
format_version = 1

[physical]
mass_kg = 1.0
com_height_nominal_m = 0.6

[mpc]
horizon_knots = 8
period_s = 0.1

[simulation]
duration_s = 1.0
substeps = 2

[contact left]
position_m = 0.0 0.08 0.0
surface_m = 0.20 0.10
active_s = 0.0 1.0

[contact right]
position_m = 0.0 -0.08 0.0
surface_m = 0.20 0.10
active_s = 0.0 0.3
active_s = 0.6 1.0
"""


@pytest.fixture(scope="module")
def standing_run():
    return simulate(parse_scenario(STANDING, name="standing"))


class TestSimulate:
    def test_row_counts(self, standing_run):
        traj, _ = standing_run
        assert traj.times.size == 6  # steps + 1
        assert traj.n_steps == 5
        assert traj.com.shape == (6, 3)

    def test_standing_stays_put(self, standing_run):
        traj, metrics = standing_run
        assert np.abs(traj.com[-1] - traj.com[0]).max() < 1e-2
        assert metrics.touchdown_count == 0
        assert metrics.mean_adjustment_m is None
        assert metrics.max_adjustment_m is None

    def test_active_positions_bit_constant(self, standing_run):
        traj, _ = standing_run
        for i in range(2):
            first = traj.contact_positions[0, i]
            for r in range(traj.times.size):
                assert np.array_equal(traj.contact_positions[r, i], first)

    def test_applied_forces_satisfy_pyramid(self, standing_run):
        traj, metrics = standing_run
        assert metrics.max_constraint_violation <= 1e-7

    def test_touchdown_commit(self):
        traj, metrics = simulate(parse_scenario(STEP_PLAN, name="step"))
        assert [td.contact_id for td in traj.touchdowns] == ["right"]
        assert traj.touchdowns[0].time == pytest.approx(0.6)
        assert metrics.touchdown_count == 1

    def test_determinism_bit_exact(self):
        cfg = parse_scenario(STEP_PLAN, name="step")
        a, _ = simulate(cfg)
        b, _ = simulate(cfg)
        assert np.array_equal(a.com, b.com)
        assert np.array_equal(a.momentum, b.momentum)
        assert np.array_equal(a.contact_positions, b.contact_positions)
        for fa, fb in zip(a.forces, b.forces):
            assert np.array_equal(fa, fb)
        assert a.statuses == b.statuses
        assert np.array_equal(a.iterations, b.iterations)

    def test_plant_matches_prediction_with_single_substep(self):
        cfg = parse_scenario(
            apply_overrides(STANDING, ["simulation.substeps=1"]), name="sub1"
        )
        traj, _ = simulate(cfg)
        for k in range(traj.n_steps):
            predicted = traj.predicted_next[k]
            actual = np.concatenate([traj.com[k + 1], traj.momentum[k + 1]])
            assert np.array_equal(predicted, actual)


    def test_one_plant_rollout_per_period_and_one_prediction_per_step(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(sim, "integrate_step", counting("plant", sim.integrate_step))
        monkeypatch.setattr(
            controller, "euler_step_batch", counting("prediction", controller.euler_step_batch)
        )
        traj, _ = simulate(parse_scenario(STANDING, name="standing"))
        # 5 periods of 3 substeps each
        assert traj.n_steps == 5
        assert counts == {"plant": 5, "prediction": 5}


class TestExportCsv:
    def test_files_and_row_counts(self, standing_run, tmp_path):
        traj, _ = standing_run
        files = export_csv(traj, tmp_path)
        assert sorted(f.name for f in files) == [
            "contacts.csv", "forces.csv", "solver.csv", "states.csv",
        ]
        states = (tmp_path / "states.csv").read_text().strip().splitlines()
        assert len(states) == 1 + traj.times.size
        solver = (tmp_path / "solver.csv").read_text().strip().splitlines()
        assert len(solver) == 1 + traj.n_steps

    def test_force_column_count(self, standing_run, tmp_path):
        traj, _ = standing_run
        export_csv(traj, tmp_path)
        header = (tmp_path / "forces.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 1 + 3 * sum(traj.corner_counts)

    def test_reexport_byte_identical(self, standing_run, tmp_path):
        traj, _ = standing_run
        export_csv(traj, tmp_path / "a")
        export_csv(traj, tmp_path / "b")
        for name in ("states.csv", "contacts.csv", "forces.csv", "solver.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("name", ["one_leg_jump", "two_leg_walk_run"])
    def test_every_row_has_its_headers_column_count(self, name, tmp_path):
        traj, _ = simulate(parse_scenario(bundled_scenario(name), name=name))
        for path in export_csv(traj, tmp_path):
            with path.open(newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and {len(row) for row in rows} == {len(header)}, path.name

    def test_manifest(self, standing_run, tmp_path):
        traj, metrics = standing_run
        path = write_manifest(traj, metrics, tmp_path)
        import json

        payload = json.loads(path.read_text())
        assert payload["config_sha256"] == traj.config_hash
        assert payload["metrics"]["touchdown_count"] == 0


class TestComputeMetrics:
    def test_single_touchdown_stats(self, standing_run):
        traj, _ = standing_run
        config = parse_scenario(STANDING, name="standing")
        td = Touchdown(1.0, "left", np.array([0.06, 0.08, 0.0]), np.array([0.0, 0.08, 0.0]))
        assert td.adjustment == pytest.approx(0.06)
        traj_patched = traj
        old = traj_patched.touchdowns
        traj_patched.touchdowns = [td]
        try:
            metrics = compute_metrics(traj_patched, config)
            assert metrics.mean_adjustment_m == pytest.approx(0.06)
            assert metrics.max_adjustment_m == pytest.approx(0.06)
            assert metrics.touchdown_count == 1
        finally:
            traj_patched.touchdowns = old

    def test_solve_time_stats_present(self, standing_run):
        _, metrics = standing_run
        assert metrics.solve_time_max_ms >= metrics.solve_time_mean_ms > 0
        assert 0.0 <= metrics.convergence_rate <= 1.0


def push_sweep_scenarios(seed):
    """(name, text) of perfbench's push_sweep scenarios for one seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.scenarios("push_sweep", seed, bundled_scenario)


# Simulates stdin's scenario text (named argv[2]) and exports its CSVs to argv[1].
_FRESH_RUN = """
import sys
from centroidal_mpc import export_csv, parse_scenario, simulate
traj, _ = simulate(parse_scenario(sys.stdin.read(), name=sys.argv[2]))
export_csv(traj, sys.argv[1])
"""


class TestQpWorkspaceTraffic:
    """The QP workspace of a run's horizon structure is set up with the
    structure, and no run leaves anything behind that a later run reads."""

    @pytest.mark.parametrize("name", ["one_leg_jump", "two_leg_walk_run"])
    def test_set_up_once_per_structure(self, name, monkeypatch):
        counts = Counter()
        set_up, ruiz = qp.QpWorkspace.__init__, qp._ruiz_scale

        def counting_set_up(self, *args, **kwargs):
            counts["workspace"] += 1
            set_up(self, *args, **kwargs)

        def counting_ruiz(*args):
            counts["ruiz"] += 1
            return ruiz(*args)

        monkeypatch.setattr(qp.QpWorkspace, "__init__", counting_set_up)
        monkeypatch.setattr(qp, "_ruiz_scale", counting_ruiz)
        # an empty structure memo, as in a fresh process
        monkeypatch.setattr(transcription, "_LAST_STRUCTURE", [None, None])
        config = parse_scenario(bundled_scenario(name), name=name)
        simulate(config)
        # one workspace and one equilibration, the structure's; none per QP
        assert counts == {"workspace": 1, "ruiz": 1}
        simulate(config)
        assert counts == {"workspace": 1, "ruiz": 1}

    @pytest.mark.parametrize("name", ["one_leg_jump", "two_leg_walk_run"])
    def test_qps_reuse_the_workspace_buffers(self, name, monkeypatch):
        # Once the structure is set up, an MPC step builds three compressed
        # matrices, all in solver.solve: the equality Jacobian and the two
        # transposed views.  Every QP loads into the structure workspace's
        # buffers and factors in its band array.
        config = parse_scenario(bundled_scenario(name), name=name)
        traj, _ = simulate(config)
        workspace = transcription._LAST_STRUCTURE[1].qp_workspace
        counts = Counter()
        for cls in (sp.csr_matrix, sp.csc_matrix, sp.csr_array, sp.csc_array):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                counts["matrices"] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        objects = set()
        load, dpbtrf = qp.QpWorkspace.load, qp.lapack.dpbtrf

        def recording_load(self, *args):
            load(self, *args)
            counts["qps"] += 1
            objects.update(id(a) for a in (self, self.scaled_P, self.scaled_A, self.scaled_AT,
                                           self.base))

        def recording_dpbtrf(band, **kwargs):
            objects.add(id(band.base))
            return dpbtrf(band, **kwargs)

        monkeypatch.setattr(qp.QpWorkspace, "load", recording_load)
        monkeypatch.setattr(qp.lapack, "dpbtrf", recording_dpbtrf)
        simulate(config)
        assert counts["qps"] > traj.n_steps
        assert counts["matrices"] <= 3 * traj.n_steps
        assert objects == {id(a) for a in (workspace, workspace.scaled_P, workspace.scaled_A,
                                           workspace.scaled_AT, workspace.base, workspace.band)}

    def test_run_after_another_exports_what_a_fresh_process_does(self, tmp_path):
        # First a run with the layout of the push scenarios but another
        # mass, so its subproblems differ from theirs from the first on;
        # then walk_run, jump and walk_run again, whose structures and QP
        # workspaces differ in size.
        heavier = apply_overrides(bundled_scenario("one_leg_jump"), ["physical.mass_kg=1.2"])
        sequences = (
            ([("heavier", heavier)], push_sweep_scenarios(1)[0]),
            ([(name, bundled_scenario(name)) for name in ("two_leg_walk_run", "one_leg_jump")],
             ("two_leg_walk_run", bundled_scenario("two_leg_walk_run"))),
        )
        src = str(Path(centroidal_mpc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for index, (earlier, (name, text)) in enumerate(sequences):
            for earlier_name, earlier_text in earlier:
                simulate(parse_scenario(earlier_text, name=earlier_name))
            traj, _ = simulate(parse_scenario(text, name=name))
            files = export_csv(traj, tmp_path / f"after_{index}")
            fresh = tmp_path / f"fresh_{index}"
            subprocess.run(
                [sys.executable, "-c", _FRESH_RUN, str(fresh), name],
                input=text, text=True, env=env, check=True, timeout=300,
            )
            assert files
            for path in files:
                assert Path(path).read_bytes() == (fresh / Path(path).name).read_bytes()
