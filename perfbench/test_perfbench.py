"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def program():
    return run.load_program()


@pytest.fixture(scope="module")
def short_jump(program):
    """The bundled jump shortened to 1.2 s (12 steps): push, flight, touchdown."""
    windows = "active_s = 0.0 1.4\nactive_s = 1.8 3.2\n"
    text = program.bundled_scenario("one_leg_jump")
    assert windows in text
    text = workloads.push_scenario(
        text.replace(windows, "active_s = 0.0 0.6\nactive_s = 0.8 1.2\n"),
        (0.3, 0.3, 5.0, 0.0),
    )
    text = program.scenario.apply_overrides(text, ["simulation.duration_s=1.2"])
    return [("short_jump", text)], [program.parse_scenario(text, name="short_jump")]


def _traced_objects(program):
    names = ("controller", "plan", "qp", "sim", "solver")
    modules = [import_module(f"{program.__name__}.{n}") for n in names]
    return modules + [modules[1].QuinticSpline]


def test_restore_puts_back_every_replaced_attribute(program):
    owners = _traced_objects(program)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracing.install(tracer, program)
    try:
        replaced = sum(
            1 for owner, old in zip(owners, before)
            for key, value in vars(owner).items() if old.get(key) is not value
        )
    finally:
        tracer.restore()
    assert replaced == 16
    for owner, old in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == old.keys(), owner
        for key, value in old.items():
            assert now[key] is value, f"{owner}.{key} not restored"


def test_traced_and_untraced_passes_export_identical_csvs(program, short_jump, tmp_path):
    _, configs = short_jump
    plain, _ = run.run_pass(program, 0, configs[0], tmp_path)
    tracer = tracing.Tracer()
    tracing.install(tracer, program)
    try:
        traced, _ = run.run_pass(program, 0, configs[0], tmp_path)
    finally:
        tracer.restore()
    assert traced.digest == plain.digest
    assert traced.steps == plain.steps == 12
    names = {span[0] for span in tracer.spans}
    for layer in ("controller.mpc_step", "transcription.build_nlp", "transcription.eq",
                  "solver.solve", "qp.solve_qp", "qp.factor", "model.rollout", "sim.plant"):
        assert layer in names
    steps = {span[4] for span in tracer.spans if span[0] == "qp.solve_qp"}
    assert steps <= set(range(12))


def test_every_metric_name_is_well_formed(program, short_jump, tmp_path):
    texts, configs = short_jump
    end_to_end, attempted, failed, problems, _ = run.measure_untraced(
        program, "short", texts, configs, 0.0, tmp_path, min_steps=1
    )
    assert not problems
    assert attempted == 24 and failed == 0
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    per_layer, _, _, problems, _ = run.measure_traced(
        program, "short", texts, configs, 0.0, tmp_path, tmp_path / "spans.csv"
    )
    assert not problems
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    assert per_layer["trace.attributed_share"][0] >= 0.9
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for measured in (end_to_end, per_layer):
        for name, (value, unit) in measured.items():
            assert NAME.fullmatch(name), name
            assert isinstance(value, (int, float)), name
            assert unit == units[name], name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]


def test_check_reports_a_violated_bound(program, short_jump, tmp_path):
    _, configs = short_jump
    _, (traj, metrics) = run.run_pass(program, 0, configs[0], tmp_path)
    assert run.check_pass("short", configs[0], traj, metrics) == []
    metrics.max_constraint_violation = 1e-3
    metrics.touchdown_count += 1
    problems = run.check_pass("short", configs[0], traj, metrics)
    assert len(problems) == 2


def test_push_sweep_is_seeded_and_spans_the_stated_ranges(program):
    first = workloads.scenarios("push_sweep", 7, program.bundled_scenario)
    assert first == workloads.scenarios("push_sweep", 7, program.bundled_scenario)
    assert first != workloads.scenarios("push_sweep", 8, program.bundled_scenario)
    forces = []
    for name, text in first:
        config = program.parse_scenario(text, name=name)
        (event,) = config.disturbances
        magnitude = float((event.force[:2] ** 2).sum() ** 0.5)
        assert event.force[2] == 0.0
        assert 3.0 <= magnitude <= 8.0
        assert 0.2 - 1e-9 <= event.duration <= 0.6 + 1e-9
        assert 0.1 - 1e-9 <= event.t_start
        assert event.t_start + event.duration <= config.duration + 1e-9
        forces.append(magnitude)
    # one push per force stratum, weakest first
    strata = [int((f - 3.0) / 5.0 * len(forces)) for f in forces]
    assert strata == list(range(len(forces)))


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "jump", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
