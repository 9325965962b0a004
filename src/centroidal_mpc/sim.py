"""Closed-loop plant, logging, metrics and CSV export.

The plant is the same gated centroidal model the controller predicts with,
integrated at a finer substep, one integrate_step rollout per control
period.  Gates are held constant over each control period (sampled at its
start); the true disturbance is applied per substep.
Adjusted touchdown positions are committed at contact onset, clamped into the
feasibility box as a hard guarantee.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .controller import MpcOutput, mpc_step
from .model import CentroidalState, integrate_step
from .plan import horizon_schedule, nominal_com_trajectory
from .scenario import ScenarioConfig

log = logging.getLogger("centroidal_mpc")


class SimulationDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class Touchdown:
    time: float
    contact_id: str
    committed: np.ndarray
    nominal: np.ndarray

    @property
    def adjustment(self) -> float:
        """Committed-to-nominal distance in the ground plane."""
        delta = self.committed[:2] - self.nominal[:2]
        return float(np.linalg.norm(delta))


@dataclass
class TrajectoryLog:
    """Uniformly timestamped run record: one row per control step plus one.

    forces (steps + 1, V, 3) holds the applied forces of the plan's corners
    in column order; corner_counts splits the corners by contact.
    """

    times: np.ndarray
    com: np.ndarray
    momentum: np.ndarray
    contact_positions: np.ndarray
    gamma: np.ndarray
    forces: np.ndarray
    nominal_com: np.ndarray
    nominal_contacts: np.ndarray
    contact_ids: list
    corner_counts: tuple
    touchdowns: list
    statuses: list
    iterations: np.ndarray
    kkt_residuals: np.ndarray
    violations: np.ndarray
    degraded: np.ndarray
    solve_times_ms: np.ndarray
    predicted_ang: np.ndarray
    predicted_schedules: np.ndarray
    predicted_next: np.ndarray
    config_hash: str
    scenario_name: str

    @property
    def n_steps(self) -> int:
        return len(self.statuses)


@dataclass
class Metrics:
    """Run summary; adjustment stats are None when no touchdown occurred."""

    touchdown_count: int
    mean_adjustment_m: float | None
    max_adjustment_m: float | None
    solve_time_mean_ms: float
    solve_time_max_ms: float
    solve_time_p95_ms: float
    convergence_rate: float
    max_constraint_violation: float

    def as_dict(self) -> dict:
        return asdict(self)


def _disturbance_wrenches(events, times: np.ndarray, estimated: bool) -> np.ndarray:
    """Summed (force, zero torque) wrench of the events active at each of
    `times`, shape times.shape + (6,)."""
    total = np.zeros(times.shape + (6,))
    for event in events:
        total[event.active(times), 0:3] += event.estimated_force if estimated else event.force
    return total


def simulate(config: ScenarioConfig) -> tuple[TrajectoryLog, Metrics]:
    """Run the receding-horizon loop over the whole scenario.

    Per-contact data lives in arrays in plan order; the gates of the run
    are one horizon_schedule over its control instants.
    """
    params = config.params
    plan = config.plan
    options = config.mpc
    period = options.period
    n_steps = int(round(config.duration / period))
    substeps = config.substeps
    dt_sub = period / substeps
    spline = nominal_com_trajectory(plan, params)
    events = config.active_events()
    n_c = plan.n_contacts

    times = np.arange(n_steps + 1) * period
    nominal_log = spline.sample(times)
    estimates = _disturbance_wrenches(events, times[:n_steps], estimated=True)
    # the true disturbance per substep
    plant_wrenches = _disturbance_wrenches(
        events, times[:n_steps, None] + np.arange(substeps) * dt_sub, estimated=False
    )

    state = CentroidalState(nominal_log[0], np.zeros(3), np.zeros(3))
    previous = None
    landings = plan.nominal_positions

    com_log = np.zeros((n_steps + 1, 3))
    momentum_log = np.zeros((n_steps + 1, 6))
    position_log = np.zeros((n_steps + 1, n_c, 3))
    position_log[0] = plan.nominal_positions
    gamma_log = np.zeros((n_steps + 1, n_c), dtype=bool)
    gamma_log[:n_steps] = horizon_schedule(plan, 0.0, n_steps, period)
    # horizon_schedule clamps t = duration inside the plan; the final row is
    # the gate at the end itself
    t_end = float(times[n_steps])
    gamma_log[n_steps] = [c.active_at(t_end) for c in plan.contacts]
    force_log = np.zeros((n_steps + 1, plan.corner_contact.size, 3))
    touchdowns: list = []
    statuses: list = []
    iterations = np.zeros(n_steps, dtype=int)
    kkts = np.zeros(n_steps)
    viols = np.zeros(n_steps)
    degraded = np.zeros(n_steps, dtype=bool)
    solve_times = np.zeros(n_steps)
    predicted_ang = np.zeros((n_steps, options.horizon_knots + 1, 3))
    predicted_schedules = np.zeros((n_steps, options.horizon_knots, n_c), dtype=bool)
    predicted_next = np.zeros((n_steps, 9))

    for k in range(n_steps):
        t = float(times[k])
        if k > 0:
            position_log[k] = position_log[k - 1]
            for i in np.flatnonzero(gamma_log[k] & ~gamma_log[k - 1]):
                contact = plan.contacts[i]
                committed = options.box.clamp_position(
                    landings[i], contact.nominal_position, contact.orientation
                )
                position_log[k, i] = committed
                touchdowns.append(
                    Touchdown(t, contact.contact_id, committed, contact.nominal_position)
                )
                log.info(
                    "t=%.2f touchdown %s at %s (nominal %s)",
                    t, contact.contact_id, committed, contact.nominal_position,
                )

        out: MpcOutput = mpc_step(
            state, position_log[k], plan, t, estimates[k], previous, options, params, spline
        )
        previous = out.solution
        landings = out.landings

        com_log[k] = state.p_com
        momentum_log[k] = state.momentum
        force_log[k] = out.forces
        statuses.append(out.solution.status)
        iterations[k] = out.solution.iterations
        kkts[k] = out.solution.kkt_residual
        viols[k] = out.solution.constraint_violation
        degraded[k] = not out.solution.converged
        solve_times[k] = out.solution.solve_time_ms
        predicted_ang[k] = out.predicted_momentum[:, 3:6]
        predicted_schedules[k] = out.schedule
        predicted_next[k] = np.concatenate([out.predicted_com[1], out.predicted_momentum[1]])

        state = integrate_step(
            state,
            position_log[k],
            force_log[k],
            gamma_log[k].astype(float),
            plan.corner_arms,
            plan.corner_contact,
            params,
            plant_wrenches[k],
            dt_sub,
        )
        if float(np.max(np.abs(state.p_com))) > 1e3:
            raise SimulationDiverged(
                f"CoM left the sane region at t={t + period:.3f}: {state.p_com}"
            )

    com_log[n_steps] = state.p_com
    momentum_log[n_steps] = state.momentum
    position_log[n_steps] = position_log[n_steps - 1]

    traj = TrajectoryLog(
        times=times,
        com=com_log,
        momentum=momentum_log,
        contact_positions=position_log,
        gamma=gamma_log,
        forces=force_log,
        nominal_com=nominal_log,
        nominal_contacts=plan.nominal_positions,
        contact_ids=plan.contact_ids,
        corner_counts=plan.corner_counts,
        touchdowns=touchdowns,
        statuses=statuses,
        iterations=iterations,
        kkt_residuals=kkts,
        violations=viols,
        degraded=degraded,
        solve_times_ms=solve_times,
        predicted_ang=predicted_ang,
        predicted_schedules=predicted_schedules,
        predicted_next=predicted_next,
        config_hash=config.config_hash,
        scenario_name=config.name,
    )
    return traj, compute_metrics(traj, config)


def compute_metrics(traj: TrajectoryLog, config: ScenarioConfig) -> Metrics:
    """Summarize a run; adjustment statistics cover only touchdowns that occurred."""
    adjustments = [td.adjustment for td in traj.touchdowns]
    mean_adj = float(np.mean(adjustments)) if adjustments else None
    max_adj = float(np.max(adjustments)) if adjustments else None
    solve = traj.solve_times_ms
    converged = np.array([s == "converged" for s in traj.statuses])
    worst = 0.0
    pyramid = config.mpc.pyramid
    plan = config.plan
    for corner, i in enumerate(plan.corner_contact):
        for k in np.flatnonzero(traj.gamma[: traj.n_steps, i]):
            worst = max(worst, pyramid.violation(traj.forces[k, corner], plan.orientations[i]))
    for td in traj.touchdowns:
        contact = plan.contact(td.contact_id)
        gap = config.mpc.box.gap(td.committed, contact.nominal_position, contact.orientation)
        worst = max(worst, gap)
    return Metrics(
        touchdown_count=len(traj.touchdowns),
        mean_adjustment_m=mean_adj,
        max_adjustment_m=max_adj,
        solve_time_mean_ms=float(solve.mean()) if solve.size else 0.0,
        solve_time_max_ms=float(solve.max()) if solve.size else 0.0,
        solve_time_p95_ms=float(np.percentile(solve, 95)) if solve.size else 0.0,
        convergence_rate=float(converged.mean()) if converged.size else 1.0,
        max_constraint_violation=worst,
    )


def _write_csv(path: Path, columns: list, table, fmt) -> Path:
    """One header line of `columns`, then one line per row of `table`."""
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(columns), comments="")
    return path


def export_csv(traj: TrajectoryLog, out_dir) -> list:
    """Write states/contacts/forces/solver CSVs; returns the file paths.

    Values carry 9 significant digits (`%.9g`); re-exporting the same log
    yields byte-identical files.  Wall-clock times stay out of the CSVs so
    repeated runs of one scenario compare equal.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ids = traj.contact_ids
    n_rows = traj.times.size
    offsets = traj.contact_positions[:, :, :2] - traj.nominal_contacts[:, :2]
    contacts = np.concatenate([traj.contact_positions, traj.gamma[:, :, None], offsets], axis=2)
    return [
        _write_csv(
            out / "states.csv",
            "time_s,com_x_m,com_y_m,com_z_m,h_lin_x,h_lin_y,h_lin_z,h_ang_x,h_ang_y,"
            "h_ang_z,nominal_com_x_m,nominal_com_y_m,nominal_com_z_m".split(","),
            np.column_stack([traj.times, traj.com, traj.momentum, traj.nominal_com]),
            "%.9g",
        ),
        _write_csv(
            out / "contacts.csv",
            ["time_s"] + [f"{cid}_{col}" for cid in ids for col in (
                "x_m", "y_m", "z_m", "active", "offset_x_m", "offset_y_m")],
            np.column_stack([traj.times, contacts.reshape(n_rows, -1)]),
            ["%.9g"] + ["%.9g", "%.9g", "%.9g", "%d", "%.9g", "%.9g"] * len(ids),
        ),
        _write_csv(
            out / "forces.csv",
            ["time_s"] + [f"{cid}_c{j}_f{axis}_n" for cid, nv in zip(ids, traj.corner_counts)
                          for j in range(nv) for axis in "xyz"],
            np.column_stack([traj.times, traj.forces.reshape(n_rows, -1)]),
            "%.9g",
        ),
        _write_csv(
            out / "solver.csv",
            "step,time_s,status,iterations,kkt_residual,constraint_violation,degraded".split(","),
            np.rec.fromarrays([
                np.arange(traj.n_steps), traj.times[: traj.n_steps], traj.statuses,
                traj.iterations, traj.kkt_residuals, traj.violations, traj.degraded,
            ]),
            ["%d", "%.9g", "%s", "%d", "%.9g", "%.9g", "%d"],
        ),
    ]


def write_manifest(traj: TrajectoryLog, metrics: Metrics, out_dir) -> Path:
    """Run manifest: config hash plus the metrics (includes wall-clock stats)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "run_manifest.json"
    payload = {
        "scenario": traj.scenario_name,
        "config_sha256": traj.config_hash,
        "steps": traj.n_steps,
        "metrics": metrics.as_dict(),
        "touchdowns": [
            {
                "time_s": td.time,
                "contact": td.contact_id,
                "committed_m": [float(v) for v in td.committed],
                "nominal_m": [float(v) for v in td.nominal],
                "adjustment_m": td.adjustment,
            }
            for td in traj.touchdowns
        ],
        "degraded_steps": int(traj.degraded.sum()),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
