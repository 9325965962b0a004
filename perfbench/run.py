#!/usr/bin/env python3
"""Closed-loop benchmark of the centroidal MPC controller.

    python3 perfbench/run.py --workload jump --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one after another

Run from the root of a checkout; the program is imported from `src/`.  The
load is one closed loop with one client: one process, one thread (BLAS
threads pinned to 1), and each MPC step starts only after the previous one
returned.

A pass is one closed-loop run of one scenario: `simulate`, then
`export_csv` and `write_manifest`, as `centroidal-mpc run` does.  With
`--trace 0` the run times passes of the workload's scenario until `--seconds`
have elapsed and at least MIN_STEPS MPC steps were timed, so the step-time
p90 has at least ten samples beyond it; a multi-scenario workload
(push_sweep) runs one untimed warm-up pass of its first scenario and then
each scenario once.  With `--trace 1` it runs rounds until `--seconds` have
elapsed: each round is one untraced pass of the first scenario, then one
traced pass of every scenario.  Per-layer times are totals per round
(medians over rounds), counts must repeat exactly in every round, and the
tracing overhead is the traced minus the untraced time of the first
scenario.

Every pass is checked: repeated passes of one scenario, and the traced and
untraced passes, must export byte-identical CSVs; constraint violation and
touchdowns must meet the acceptance bounds.  A failed check prints the
problems, no timings, and exits 1.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  An MPC
step is one operation; a step whose solve did not converge is a failed one.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_STEPS = 100
SETUP_REPEATS = 5
PARSE_REPEATS = 5
# Stop starting passes after this long, so a run always ends within 180 s.
TIME_CAP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "converged_rate": "ratio",
    "peak_rss_mb": "MB",
}

# Bounds tests/test_acceptance.py applies to the bundled runs: criterion 6
# for the applied forces and committed touchdowns, criteria 1 and 2 for the
# mean landing adjustment.
PYRAMID_TOLERANCE = 1e-7
BOX_TOLERANCE = 1e-9
MEAN_ADJUSTMENT_M = {
    "jump": (0.05, 0.20),
    "walk_run": (0.03, 0.12),
    "walk_steady": (0.0, 0.02),
}

# Prints the seconds needed to import the package, parse the scenarios given
# on stdin and build their nominal CoM splines, in a fresh interpreter.
_SETUP_PROBE = """
import json, sys, time
texts = json.loads(sys.stdin.read())
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import centroidal_mpc
from centroidal_mpc.plan import nominal_com_trajectory
for name, text in texts:
    config = centroidal_mpc.parse_scenario(text, name=name)
    nominal_com_trajectory(config.plan, config.params)
print(repr(time.perf_counter() - start))
"""


def load_program():
    """Import centroidal_mpc from this checkout's src/ and nowhere else."""
    package = SRC / "centroidal_mpc" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import centroidal_mpc

    if Path(centroidal_mpc.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported centroidal_mpc from {centroidal_mpc.__file__}")
    import centroidal_mpc.sim  # noqa: F401  (the module whose functions a pass calls)

    return centroidal_mpc


class StepClock:
    """Times every mpc_step call made by `sim`, and nothing else."""

    def __init__(self, sim):
        self.samples_ms: list = []
        self._sim = sim
        self._original = None

    def __enter__(self):
        original = self._original = self._sim.mpc_step
        samples = self.samples_ms

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append((time.perf_counter() - start) * 1e3)

        self._sim.mpc_step = timed
        return self

    def __exit__(self, *exc):
        self._sim.mpc_step = self._original
        return False


@dataclass
class Pass:
    scenario: int
    wall_s: float
    cpu_s: float
    steps: int
    degraded: int
    digest: str


def run_pass(program, index: int, config, out_dir: Path) -> tuple:
    """One closed-loop pass; returns the Pass and its (traj, metrics)."""
    sim = program.sim
    target = out_dir / f"pass_{index}"
    wall0, cpu0 = time.perf_counter(), time.process_time()
    traj, metrics = sim.simulate(config)
    files = sim.export_csv(traj, target)
    sim.write_manifest(traj, metrics, target)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    digest = hashlib.sha256()
    for path in files:
        digest.update(Path(path).read_bytes())
    shutil.rmtree(target)
    record = Pass(index, wall, cpu, traj.n_steps, int(traj.degraded.sum()), digest.hexdigest())
    return record, (traj, metrics)


def check_pass(workload: str, config, traj, metrics) -> list:
    """Problems with one pass's outputs; empty when it meets every bound."""
    problems = []
    label = f"{workload}/{config.name}"
    expected_steps = int(round(config.duration / config.mpc.period))
    if traj.n_steps != expected_steps:
        problems.append(f"{label}: {traj.n_steps} steps, expected {expected_steps}")
    if not (np.all(np.isfinite(traj.com)) and np.all(np.isfinite(traj.momentum))):
        problems.append(f"{label}: non-finite state in the log")
    if not metrics.max_constraint_violation <= PYRAMID_TOLERANCE:
        problems.append(
            f"{label}: max constraint violation {metrics.max_constraint_violation:.3e}"
            f" > {PYRAMID_TOLERANCE:g}"
        )
    box = config.mpc.box
    for td in traj.touchdowns:
        contact = config.plan.contact(td.contact_id)
        residual = contact.orientation.T @ (contact.nominal_position - td.committed)
        gap = float(np.max(np.maximum(np.maximum(box.lower - residual, 0.0),
                                      residual - box.upper)))
        if not gap <= BOX_TOLERANCE:
            problems.append(f"{label}: touchdown at t={td.time:.2f} outside its box by {gap:.3e}")
    period = config.mpc.period
    onsets = sum(
        1
        for contact in config.plan.contacts
        for k in range(1, expected_steps)
        if contact.active_at(k * period) and not contact.active_at((k - 1) * period)
    )
    if metrics.touchdown_count != onsets:
        problems.append(
            f"{label}: {metrics.touchdown_count} touchdowns, the plan has {onsets} onsets"
        )
    bounds = MEAN_ADJUSTMENT_M.get(workload)
    mean = metrics.mean_adjustment_m
    if bounds is not None and not (mean is not None and bounds[0] <= mean <= bounds[1]):
        problems.append(f"{label}: mean adjustment {mean} m outside {list(bounds)}")
    return problems


def measure_setup(texts) -> float:
    """Median seconds of SETUP_REPEATS fresh-interpreter set-ups."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
            input=json.dumps(texts),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
            cwd=ROOT,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return float(np.median(samples))


def _record_digest(digests: dict, record: Pass, problems: list, what: str) -> None:
    first = digests.setdefault(record.scenario, record.digest)
    if record.digest != first:
        problems.append(f"scenario {record.scenario}: {what} CSVs differ from the first pass")


def measure_untraced(program, workload, texts, configs, seconds, out_dir, min_steps=MIN_STEPS):
    """End-to-end metrics; returns (metrics, attempted, failed, problems, info)."""
    problems: list = []
    digests: dict = {}
    setup_s = measure_setup(texts)
    if len(configs) > 1:
        record, (traj, metrics) = run_pass(program, 0, configs[0], out_dir)
        _record_digest(digests, record, problems, "warm-up")
        problems += check_pass(workload, configs[0], traj, metrics)
    passes: list = []
    start = time.perf_counter()
    with StepClock(program.sim) as clock:
        while True:
            index = len(passes) % len(configs)
            record, (traj, metrics) = run_pass(program, index, configs[index], out_dir)
            passes.append(record)
            _record_digest(digests, record, problems, "repeated")
            problems += check_pass(workload, configs[index], traj, metrics)
            elapsed = time.perf_counter() - start
            steps = sum(p.steps for p in passes)
            round_done = len(passes) % len(configs) == 0
            # one scenario: repeat it for the whole run; several: run each once
            enough = len(configs) > 1 or (len(passes) >= 2 and elapsed >= seconds)
            if (round_done and enough and steps >= min_steps) or elapsed > TIME_CAP_S:
                break
    samples = np.array(clock.samples_ms)
    attempted = sum(p.steps for p in passes)
    failed = sum(p.degraded for p in passes)
    values = {
        "setup_s": setup_s,
        "run_s": float(np.median([p.wall_s for p in passes])),
        "cpu_s": float(np.median([p.cpu_s for p in passes])),
        "step_ms_p50": float(np.percentile(samples, 50)),
        "step_ms_p90": float(np.percentile(samples, 90)),
        "converged_rate": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = (f"{len(passes)} timed passes, {attempted} MPC steps "
            f"({int(np.sum(samples > values['step_ms_p90']))} beyond p90), {failed} degraded")
    measured = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return measured, attempted, failed, problems, info


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or name == "plan.ms":
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def measure_traced(program, workload, texts, configs, seconds, out_dir, spans_path):
    """Per-layer metrics per traced round; returns (metrics, attempted, failed, problems, info)."""
    problems: list = []
    parse_samples = []
    for _ in range(PARSE_REPEATS):
        t0 = time.perf_counter()
        for name, text in texts:
            program.parse_scenario(text, name=name)
        parse_samples.append((time.perf_counter() - t0) * 1e3)

    digests: dict = {}
    tracer = tracing.Tracer()
    rounds: list = []
    overheads: list = []
    traced_s: list = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # each round: the first scenario untraced, then every scenario traced
        plain, (traj, metrics) = run_pass(program, 0, configs[0], out_dir)
        _record_digest(digests, plain, problems, "untraced")
        problems += check_pass(workload, configs[0], traj, metrics)
        tracer.counts.clear()
        lo = len(tracer.spans)
        tracing.install(tracer, program)
        try:
            for index, config in enumerate(configs):
                record, (traj, metrics) = run_pass(program, index, config, out_dir)
                _record_digest(digests, record, problems, "traced")
                problems += check_pass(workload, config, traj, metrics)
                attempted += record.steps
                failed += record.degraded
                if index == 0:
                    traced_s.append(record.wall_s)
                    overheads.append(record.wall_s - plain.wall_s)
        finally:
            tracer.restore()
        rounds.append(tracing.layer_metrics(tracer, lo, len(tracer.spans), tracer.counts))
        if time.perf_counter() - start >= min(seconds, TIME_CAP_S):
            break
    tracing.write_spans(tracer, spans_path)

    values = {}
    for name in rounds[0]:
        series = [r[name] for r in rounds]
        if _layer_unit(name) == "count":
            if any(v != series[0] for v in series):
                problems.append(f"{name} differs between traced rounds: {series}")
            values[name] = series[0]
        else:
            values[name] = float(np.median(series))
    values["scenario.parse_ms"] = float(np.median(parse_samples))
    values["trace.run_s"] = float(np.median(traced_s))
    values["trace.overhead_s"] = float(np.median(overheads))
    info = (f"{len(rounds)} traced rounds of {len(configs)} scenario(s), "
            f"{len(tracer.spans)} spans written to {spans_path}")
    return ({k: (v, _layer_unit(k)) for k, v in values.items()},
            attempted, failed, problems, info)


def run_workload(args) -> int:
    program = load_program()
    texts = workloads.scenarios(args.workload, args.seed, program.bundled_scenario)
    configs = [program.parse_scenario(text, name=name) for name, text in texts]
    out_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            result = measure_traced(
                program, args.workload, texts, configs, args.seconds, out_dir, spans_path
            )
        else:
            result = measure_untraced(
                program, args.workload, texts, configs, args.seconds, out_dir
            )
    except program.SimulationDiverged as exc:
        result = ({}, 1, 1, [f"{args.workload}: simulation diverged: {exc}"], "")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    metrics, attempted, failed, problems, info = result
    correct = not problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {info}")
    if correct:
        for name, (value, unit) in metrics.items():
            print(f"  {name:32s} {value:14.6g} {unit}")
        payload = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        for problem in problems:
            print(f"check failed: {problem}")
            print(f"check failed: {problem}", file=sys.stderr)
        payload = {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": payload}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined: dict = {}
    correct = True
    attempted = failed = 0
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
        correct = correct and done.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            combined[f"{workload}.{name}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined if correct else {}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
