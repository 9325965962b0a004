"""Receding-horizon controller around the transcribed problem.

Each control instant builds the horizon problem from the measured state and
the plan, solves it warm-started from the previous primal and dual solution,
both shifted one knot in time, and extracts the first control plus the
optimized landing positions of upcoming touchdowns.  The predicted
trajectory is reconstructed by rolling the solved controls out from the
measured state in one euler_step_batch call, the rollout the plant's
integrate_step makes, so prediction and plant agree exactly when their
inputs match.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .model import CentroidalState, PhysicalParams, euler_step_batch
from .plan import ContactPlan, QuinticSpline, horizon_schedule
from .solver import Solution, SolverOptions, solve
from .transcription import (
    ContactBox,
    DecisionLayout,
    FrictionPyramid,
    NlpProblem,
    Weights,
    build_nlp,
)

log = logging.getLogger("centroidal_mpc")


@dataclass(frozen=True)
class MpcOptions:
    """Horizon length and sampling period plus all weights and constraint bounds.

    The friction pyramid and the contact box check their own values when
    they are built, so a bad bound fails before the first MPC step.
    """

    horizon_knots: int = 30
    period: float = 0.1
    weights: Weights = field(default_factory=Weights)
    pyramid: FrictionPyramid = field(default_factory=lambda: FrictionPyramid(0.8, 0.0, 29.43))
    box: ContactBox = field(default_factory=lambda: ContactBox.planar(0.15, 0.15))
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.horizon_knots < 2:
            raise ValueError("horizon needs at least 2 knots")
        if not self.period > 0.0:
            raise ValueError("period must be positive")


@dataclass
class MpcOutput:
    """First control and landing positions extracted from one solve.

    forces[i] (n_v_i, 3) are contact i's knot-0 corner forces and
    landings[i] its box-clamped landing at its first touchdown ahead in the
    horizon, or its nominal position when none lies ahead; both in plan
    order.
    """

    forces: tuple
    landings: np.ndarray
    predicted_com: np.ndarray
    predicted_momentum: np.ndarray
    schedule: np.ndarray
    solution: Solution
    degraded: bool


def layout_for(plan: ContactPlan, options: MpcOptions) -> DecisionLayout:
    return DecisionLayout(options.horizon_knots, plan.corner_counts)


def cold_start(
    plan: ContactPlan, layout: DecisionLayout, nominal_samples: np.ndarray
) -> np.ndarray:
    """Nominal-CoM initialization: the nominal CoM samples (one per state
    knot) for the CoM knots, nominal positions for the contacts, zeros for
    momenta, forces and velocities."""
    x = np.zeros(layout.size)
    x[layout.com] = nominal_samples
    x[layout.contacts] = plan.nominal_positions
    return x


def shift_warm_start(x, layout: DecisionLayout) -> np.ndarray:
    """Advance a decision vector by one knot; the final knot duplicates its predecessor."""
    x = np.asarray(x, dtype=float)
    if x.size != layout.size:
        raise ValueError(f"warm start has {x.size} entries, layout expects {layout.size}")
    return x[layout.shift]


def shift_multipliers(multipliers, problem: NlpProblem) -> np.ndarray:
    """Advance constraint multipliers by one knot, as shift_warm_start does x."""
    y_prev = np.asarray(multipliers, dtype=float)
    if y_prev.size != problem.shift_rows.size:
        raise ValueError(
            f"multipliers have {y_prev.size} entries, problem has {problem.shift_rows.size} rows"
        )
    return y_prev[problem.shift_rows]


def _sanitize_forces(forces, schedule, pyramid: FrictionPyramid, rotations):
    """Zero gated-out forces and clamp the rest into the pyramid.

    Each contact's forces are rotated into its frame, clamped there by
    FrictionPyramid.clamp and rotated back.  Feasible output for any input;
    solutions within tolerance move by at most their violation.
    """
    cleaned = []
    for i, f_i in enumerate(forces):
        local = pyramid.clamp(np.einsum("ba,kjb->kja", rotations[i], f_i))
        world = np.einsum("ab,kjb->kja", rotations[i], local)
        world *= schedule[:, i, None, None]
        cleaned.append(world)
    return cleaned


def mpc_step(
    current_state: CentroidalState,
    contact_positions: np.ndarray,
    plan: ContactPlan,
    t: float,
    wrench: np.ndarray,
    previous: Solution | None,
    options: MpcOptions,
    params: PhysicalParams,
    nominal_spline: QuinticSpline,
) -> MpcOutput:
    """One receding-horizon solve at time t.

    contact_positions (n_c, 3) are the measured positions in plan order;
    wrench (6,) is the measured disturbance (force, then torque about the
    CoM), held constant over the prediction horizon.  Contact positions at
    knot 0 are pinned to their measured values, so adjustment applies only
    to touchdowns ahead of the current instant.
    """
    n_knots = options.horizon_knots
    period = options.period
    layout = layout_for(plan, options)
    schedule = horizon_schedule(plan, t, n_knots, period)
    nominal_samples = nominal_spline.sample(t + period * np.arange(n_knots + 1))
    profile = np.tile(np.asarray(wrench, dtype=float), (n_knots, 1))
    measured = np.asarray(contact_positions, dtype=float)
    problem = build_nlp(
        plan,
        current_state,
        measured,
        schedule,
        nominal_samples,
        options.weights,
        options.pyramid,
        options.box,
        n_knots,
        period,
        params,
        profile,
    )
    if previous is not None and previous.x.size == layout.size:
        warm = shift_warm_start(previous.x, layout)
        # duals from a solve that never converged mislead more than they help
        y0 = shift_multipliers(previous.multipliers, problem) if previous.converged else None
    else:
        warm = cold_start(plan, layout, nominal_samples)
        y0 = None
    solution = solve(problem, warm, options.solver, y0=y0)

    degraded = not solution.converged
    x_sol = solution.x
    if solution.status in ("infeasible", "numerical_failure") and previous is not None:
        # Hard failure: fall back to the previous solution advanced one knot.
        log.warning("solver returned %s at t=%.3f; reusing shifted solution",
                    solution.status, t)
        x_sol = shift_warm_start(previous.x, layout)

    forces_raw, velocities = layout.control_arrays(x_sol)
    gamma = schedule.astype(float)
    forces = _sanitize_forces(forces_raw, gamma, options.pyramid, plan.orientations)

    p_next, h_next, _ = euler_step_batch(
        current_state.p_com,
        current_state.momentum,
        measured,
        forces,
        velocities,
        gamma,
        plan.orientations,
        plan.corner_offsets,
        params.mass,
        params.gravity,
        profile,
        period,
    )
    predicted_com = np.concatenate([current_state.p_com[None], p_next])
    predicted_momentum = np.concatenate([current_state.momentum[None], h_next])

    _, _, contacts_sol = layout.state_arrays(x_sol)
    landings = plan.nominal_positions.copy()
    for i, contact in enumerate(plan.contacts):
        onsets = np.flatnonzero(schedule[1:, i] & ~schedule[:-1, i])
        if onsets.size:
            landings[i] = options.box.clamp_position(
                contacts_sol[onsets[0] + 1, i], contact.nominal_position, contact.orientation
            )
    return MpcOutput(
        forces=tuple(f[0] for f in forces),
        landings=landings,
        predicted_com=predicted_com,
        predicted_momentum=predicted_momentum,
        schedule=schedule,
        solution=solution,
        degraded=degraded,
    )
