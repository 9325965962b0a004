"""Command line front end.

Subcommands:
  run SCENARIO [--out DIR] [--override section.key=value ...]
  check-derivatives SCENARIO [--points N] [--seed S]
  metrics LOG_DIR

Exit codes: 0 success, 1 runtime failure, 2 validation error (an unreadable
scenario or manifest included), 3 completed with degraded solver steps.
CENTROIDAL_MPC_LOG=error|info|debug controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .controller import cold_start
from .model import CentroidalState
from .plan import horizon_schedule, nominal_com_trajectory
from .scenario import ScenarioError, apply_overrides, parse_scenario
from .sim import SimulationDiverged, export_csv, simulate, write_manifest
from .solver import check_derivatives
from .transcription import build_nlp

log = logging.getLogger("centroidal_mpc")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    level = os.environ.get("CENTROIDAL_MPC_LOG", "error").lower()
    if level not in _LOG_LEVELS:
        print(f"warning: unknown CENTROIDAL_MPC_LOG level {level!r}; using error",
              file=sys.stderr)
        level = "error"
    logging.basicConfig(level=_LOG_LEVELS[level], format="%(levelname)s %(message)s")


def _load_config(path: str, overrides):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if overrides:
        text = apply_overrides(text, overrides)
    return parse_scenario(text, name=Path(path).stem)


def _cmd_run(args) -> int:
    config = _load_config(args.scenario, args.override)
    traj, metrics = simulate(config)
    out_dir = args.out or config.output_dir or f"{config.name}_out"
    files = export_csv(traj, out_dir)
    manifest = write_manifest(traj, metrics, out_dir)
    print(f"wrote {len(files)} CSV files and {manifest.name} to {out_dir}")
    print(json.dumps(metrics.as_dict(), indent=2, sort_keys=True))
    if traj.degraded.any():
        print(f"warning: {int(traj.degraded.sum())} degraded solver steps", file=sys.stderr)
        return 3
    return 0


def _cmd_check_derivatives(args) -> int:
    config = _load_config(args.scenario, args.override)
    plan, params, options = config.plan, config.params, config.mpc
    schedule = horizon_schedule(plan, 0.0, options.horizon_knots, options.period)
    spline = nominal_com_trajectory(plan, params)
    samples = spline.sample(options.period * np.arange(options.horizon_knots + 1))
    state = CentroidalState(spline.position(0.0), np.zeros(3), np.zeros(3))
    problem = build_nlp(
        plan, state, plan.nominal_positions, schedule, samples, options.weights, options.pyramid,
        options.box, options.horizon_knots, options.period, params,
    )
    base = cold_start(plan, problem.layout, samples)
    rng = np.random.RandomState(args.seed)
    draws = [
        (base + rng.uniform(-0.5, 0.5, size=problem.dimension),
         rng.uniform(-700.0, 700.0, size=problem.n_eq))
        for _ in range(args.points)
    ]
    points, multipliers = map(np.array, zip(*draws))
    report = check_derivatives(problem, points, multipliers=multipliers)
    print(f"checked {args.points} random points: {report}")
    return 0 if report.max_relative_error < 1e-5 else 1


def _int_in(low: int, high: float):
    """An argparse type: an integer in [low, high)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not low <= value < high:
            raise argparse.ArgumentTypeError(f"expected an integer in [{low}, {high}), got {text!r}")
        return value

    return parse


def _cmd_metrics(args) -> int:
    manifest = Path(args.log_dir) / "run_manifest.json"
    try:
        payload = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        print(f"error: cannot read {manifest}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(payload, dict) or "metrics" not in payload:
        print(f"error: {manifest} holds no metrics", file=sys.stderr)
        return 2
    print(json.dumps(payload["metrics"], indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="centroidal-mpc",
                                     description="Centroidal MPC scenario runner")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and export CSV logs")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
    p_run.set_defaults(func=_cmd_run)

    p_chk = sub.add_parser("check-derivatives",
                           help="finite-difference audit of the scenario NLP")
    p_chk.add_argument("scenario")
    p_chk.add_argument("--points", type=_int_in(1, float("inf")), default=10)
    p_chk.add_argument("--seed", type=_int_in(0, 2**32), default=0)
    p_chk.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
    p_chk.set_defaults(func=_cmd_check_derivatives)

    p_met = sub.add_parser("metrics", help="print the metrics of a finished run")
    p_met.add_argument("log_dir")
    p_met.set_defaults(func=_cmd_metrics)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except SimulationDiverged as exc:
        print(f"error: simulation diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
