import numpy as np
import pytest

from centroidal_mpc import controller
from centroidal_mpc.controller import (
    MpcOptions,
    _sanitize_forces,
    cold_start,
    mpc_step,
    shift_multipliers,
    shift_warm_start,
)
from centroidal_mpc.model import CentroidalState, ContactGeometry, PhysicalParams
from centroidal_mpc.plan import (
    ContactPlan,
    NominalContact,
    horizon_schedule,
    nominal_com_trajectory,
)
from centroidal_mpc.solver import Solution, SolverOptions
from centroidal_mpc.transcription import DecisionLayout, build_nlp

POINT = ContactGeometry.point()
RECT = ContactGeometry.rectangle(0.2, 0.1)


def standing_plan(duration=4.0):
    return ContactPlan(
        (
            NominalContact("l", [0, 0.1, 0], np.eye(3), RECT, ((0.0, duration),)),
            NominalContact("r", [0, -0.1, 0], np.eye(3), RECT, ((0.0, duration),)),
        ),
        duration,
    )


def hop_plan(duration=3.0):
    return ContactPlan(
        (NominalContact("foot", [0, 0, 0], np.eye(3), POINT, ((0.0, 1.2), (1.6, duration))),),
        duration,
    )


def yaw_matrix(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


PARAMS = PhysicalParams(mass=1.0, com_height_nominal=0.6)
OPTIONS = MpcOptions(horizon_knots=12, period=0.1)
NO_WRENCH = np.zeros(6)


def layout_of(plan):
    """The decision layout of `plan`'s horizon problems under OPTIONS."""
    return DecisionLayout(OPTIONS.horizon_knots, plan.corner_counts)


def push(fx):
    """A wrench of force (fx, 0, 0) and no torque."""
    return np.array([fx, 0.0, 0.0, 0.0, 0.0, 0.0])


class TestMpcOptions:
    @pytest.mark.parametrize("options, message", [
        (dict(horizon_knots=1), "at least 2 knots"), (dict(period=0.0), "period"),
        (dict(period=-0.1), "period"), (dict(period=float("nan")), "period"),
    ])
    def test_invalid_options_rejected(self, options, message):
        with pytest.raises(ValueError, match=message):
            MpcOptions(**options)


class TestShiftWarmStart:
    def test_constant_trajectory_identity(self):
        layout = layout_of(standing_plan())
        x = np.tile(np.arange(layout.state_dim, dtype=float), layout.n_knots + 1)
        x = np.concatenate(
            [x, np.tile(np.arange(layout.control_dim, dtype=float), layout.n_knots)]
        )
        shifted = shift_warm_start(x, layout)
        assert np.array_equal(shifted, x)

    def test_ramp_shifts_by_one(self):
        layout = layout_of(standing_plan())
        x = np.zeros(layout.size)
        x[: layout.n_state_vars] = np.repeat(np.arange(layout.n_knots + 1), layout.state_dim)
        x[layout.n_state_vars :] = np.repeat(np.arange(layout.n_knots), layout.control_dim)
        shifted = shift_warm_start(x, layout)
        states = shifted[: layout.n_state_vars].reshape(-1, layout.state_dim)
        expected = list(range(1, layout.n_knots + 1)) + [layout.n_knots]
        assert states[:, 0].tolist() == expected
        controls = shifted[layout.n_state_vars :].reshape(-1, layout.control_dim)
        assert controls[:, 0].tolist() == list(range(1, layout.n_knots)) + [layout.n_knots - 1]

    def test_dimension_preserved_and_checked(self):
        layout = layout_of(standing_plan())
        x = np.random.RandomState(0).randn(layout.size)
        assert shift_warm_start(x, layout).size == x.size
        with pytest.raises(ValueError):
            shift_warm_start(x[:-1], layout)


class TestShiftMultipliers:
    @staticmethod
    def problem(plan, t):
        n = OPTIONS.horizon_knots
        samples = nominal_com_trajectory(plan, PARAMS).sample(t + 0.1 * np.arange(n + 1))
        problem = build_nlp(
            plan, CentroidalState(samples[0], np.zeros(3), np.zeros(3)),
            np.array([c.nominal_position for c in plan.contacts]),
            horizon_schedule(plan, t, n, OPTIONS.period), samples, OPTIONS.weights,
            OPTIONS.pyramid, OPTIONS.box, n, OPTIONS.period, PARAMS,
        )
        return problem.layout, problem

    def test_block_k_takes_block_k_plus_1_and_the_last_is_duplicated(self):
        for plan in (standing_plan(), hop_plan()):
            layout, problem = self.problem(plan, 1.0)
            n = layout.n_knots
            # (blocks, rows per block): the knot-0 pin and one defect per
            # step, pyramid rows per step, box rows per knot 1..N
            kinds = [(n + 1, layout.state_dim), (n, 6 * sum(layout.corner_counts)),
                     (n, 3 * layout.n_contacts)]
            codes = [1000 * kind + 10 * np.repeat(np.arange(count), size)
                     + np.tile(np.arange(size), count) / size
                     for kind, (count, size) in enumerate(kinds)]
            shifted = shift_multipliers(np.concatenate(codes), problem)
            expected = [code.reshape(count, size)[np.minimum(np.arange(count) + 1, count - 1)]
                        for code, (count, size) in zip(codes, kinds)]
            assert np.array_equal(shifted, np.concatenate([e.ravel() for e in expected]))

    def test_size_checked(self):
        _, problem = self.problem(hop_plan(), 0.0)
        with pytest.raises(ValueError):
            shift_multipliers(np.zeros(problem.n_eq + problem.n_ineq - 1), problem)


class TestColdStart:
    def test_com_from_spline_everything_else_zero(self):
        plan = hop_plan()
        layout = layout_of(plan)
        spline = nominal_com_trajectory(plan, PARAMS)
        times = 0.2 + OPTIONS.period * np.arange(layout.n_knots + 1)
        x = cold_start(plan, layout, spline.sample(times))
        for k in range(layout.n_knots + 1):
            np.testing.assert_allclose(
                x[layout.com[k]], spline.position(0.2 + 0.1 * k), atol=1e-12
            )
            assert np.array_equal(x[layout.momentum[k]], np.zeros(6))
            np.testing.assert_allclose(x[layout.contacts[k, 0]], [0, 0, 0], atol=1e-12)
        assert np.array_equal(x[layout.n_state_vars :],
                              np.zeros(layout.n_knots * layout.control_dim))


class TestMpcStep:
    def test_standing_equilibrium(self):
        plan = standing_plan()
        spline = nominal_com_trajectory(plan, PARAMS)
        state = CentroidalState(spline.position(0.0), np.zeros(3), np.zeros(3))
        out = mpc_step(state, plan.nominal_positions, plan, 0.0, NO_WRENCH, None,
                       OPTIONS, PARAMS, spline)
        assert out.solution.converged
        total = out.forces.sum(axis=0)
        np.testing.assert_allclose(total, [0, 0, 9.81], atol=1e-3)
        # no upcoming touchdown in a standing plan: every landing is nominal
        assert np.array_equal(out.landings, plan.nominal_positions)
        # prediction stays near nominal
        assert np.abs(out.predicted_com - spline.position(0.0)).max() < 1e-2

    def test_aerial_prediction_conserves_angular_momentum(self):
        plan = hop_plan()
        spline = nominal_com_trajectory(plan, PARAMS)
        options = MpcOptions(horizon_knots=12, period=0.1)
        state = CentroidalState(spline.position(0.9), [0, 0, 0.5], [0, 0.01, 0])
        out = mpc_step(state, np.zeros((1, 3)), plan, 0.9, NO_WRENCH, None,
                       options, PARAMS, spline)
        aerial = ~out.schedule.any(axis=1)
        assert aerial.any()
        h_ang = out.predicted_momentum[:, 3:6]
        for k in np.where(aerial)[0]:
            assert np.array_equal(h_ang[k + 1], h_ang[k])

    def test_inactive_contact_forces_zeroed_exactly(self):
        plan = hop_plan()
        spline = nominal_com_trajectory(plan, PARAMS)
        state = CentroidalState(spline.position(1.3), [0, 0, 0.8], [0, 0, 0])
        out = mpc_step(state, np.zeros((1, 3)), plan, 1.3, NO_WRENCH,
                       None, MpcOptions(horizon_knots=10, period=0.1), PARAMS, spline)
        assert not out.schedule[0, 0]
        assert np.array_equal(out.forces, np.zeros((1, 3)))

    def test_push_shifts_upcoming_touchdown(self):
        plan = hop_plan()
        spline = nominal_com_trajectory(plan, PARAMS)
        options = MpcOptions(horizon_knots=15, period=0.1)
        state = CentroidalState(spline.position(1.0), np.zeros(3), np.zeros(3))
        out = mpc_step(state, np.zeros((1, 3)), plan, 1.0, push(5.0), None,
                       options, PARAMS, spline)
        assert out.landings.shape == (1, 3)
        landing = out.landings[0]
        assert landing[0] > 0.01  # shifted along the push
        contact = plan.contacts[0]
        assert options.box.gap(landing, contact.nominal_position, contact.orientation) <= 1e-9

    def test_adjusted_contacts_respect_box_even_for_degraded_solve(self):
        plan = hop_plan()
        spline = nominal_com_trajectory(plan, PARAMS)
        tight = MpcOptions(
            horizon_knots=15, period=0.1,
            solver=SolverOptions(max_iterations=1, kkt_tolerance=1e-12),
        )
        state = CentroidalState(spline.position(1.0), [2.0, 0, 0], [0, 0, 0])
        out = mpc_step(state, np.zeros((1, 3)), plan, 1.0,
                       push(5.0), None, tight, PARAMS, spline)
        assert out.degraded
        for contact, landing in zip(plan.contacts, out.landings):
            assert tight.box.gap(landing, contact.nominal_position, contact.orientation) <= 1e-9

    def test_hard_failure_reuses_shifted_previous_solution(self, monkeypatch):
        plan = standing_plan()
        spline = nominal_com_trajectory(plan, PARAMS)
        state = CentroidalState(spline.position(0.0), [0.3, 0, 0], np.zeros(3))
        positions = plan.nominal_positions
        previous = mpc_step(state, positions, plan, 0.0, push(2.0), None,
                            OPTIONS, PARAMS, spline).solution
        assert previous.converged

        def failed_solve(problem, warm_start, options=None, y0=None):
            return Solution(
                x=np.full(problem.dimension, np.nan), status="numerical_failure",
                iterations=1, kkt_residual=np.inf, constraint_violation=np.inf,
                solve_time_ms=0.0, cost=np.nan,
                multipliers=np.zeros(problem.n_eq + problem.n_ineq),
            )

        monkeypatch.setattr(controller, "solve", failed_solve)
        out = mpc_step(state, positions, plan, 0.1, NO_WRENCH, previous,
                       OPTIONS, PARAMS, spline)
        assert out.degraded
        layout = layout_of(plan)
        shifted = shift_warm_start(previous.x, layout)[layout.forces]
        expected = _sanitize_forces(shifted, out.schedule.astype(float), OPTIONS.pyramid, plan)
        assert np.all(np.isfinite(out.forces))
        assert np.array_equal(out.forces, expected[0])

    def test_forces_satisfy_pyramid_after_sanitize(self):
        plan = standing_plan()
        spline = nominal_com_trajectory(plan, PARAMS)
        state = CentroidalState(spline.position(0.0) + np.array([0.05, 0, -0.02]),
                                [0.5, 0.2, 0], [0, 0.05, 0])
        out = mpc_step(state, plan.nominal_positions, plan, 0.0, push(3.0), None,
                       OPTIONS, PARAMS, spline)
        pyramid = OPTIONS.pyramid
        for f, i in zip(out.forces, plan.corner_contact):
            assert pyramid.violation(f, plan.contacts[i].orientation) <= 1e-9

    def test_forces_and_landings_in_plan_order(self):
        # a rectangle foot in stance and a point foot that lands at t = 0.8
        plan = ContactPlan(
            (
                NominalContact("stance", [0, 0.1, 0], np.eye(3), RECT, ((0.0, 3.0),)),
                NominalContact("swing", [0.1, -0.1, 0], yaw_matrix(0.3), POINT,
                               ((0.0, 0.4), (0.8, 3.0))),
            ),
            3.0,
        )
        spline = nominal_com_trajectory(plan, PARAMS)
        state = CentroidalState(spline.position(0.5), [0.3, 0, 0], np.zeros(3))
        out = mpc_step(state, plan.nominal_positions, plan, 0.5, push(2.0), None,
                       OPTIONS, PARAMS, spline)
        assert out.solution.converged
        layout = layout_of(plan)
        raw = out.solution.x[layout.forces]
        expected = _sanitize_forces(raw, out.schedule.astype(float), OPTIONS.pyramid, plan)
        # the stance foot's four corners, then the swing foot's one
        assert out.forces.shape == (5, 3)
        assert np.array_equal(plan.corner_contact, [0, 0, 0, 0, 1])
        assert np.array_equal(out.forces, expected[0])
        assert out.landings.shape == (2, 3)
        # the stance foot has no touchdown ahead: its nominal position
        assert np.array_equal(out.landings[0], plan.nominal_positions[0])
        # the swing foot lands at its first onset knot, clamped into its box
        k_land = 1 + int(np.flatnonzero(out.schedule[1:, 1] & ~out.schedule[:-1, 1])[0])
        _, _, contacts = layout.state_arrays(out.solution.x)
        swing = plan.contacts[1]
        assert np.array_equal(
            out.landings[1],
            OPTIONS.box.clamp_position(contacts[k_land, 1], swing.nominal_position,
                                       swing.orientation),
        )


class TestWarmStartRegression:
    def test_warm_solves_not_slower_than_cold(self):
        plan = standing_plan()
        spline = nominal_com_trajectory(plan, PARAMS)
        state = CentroidalState(spline.position(0.0), np.zeros(3), np.zeros(3))
        positions = plan.nominal_positions
        cold_iters = []
        warm_iters = []
        previous = None
        for k in range(6):
            t = 0.1 * k
            out_cold = mpc_step(state, positions, plan, t, NO_WRENCH, None,
                                OPTIONS, PARAMS, spline)
            out_warm = mpc_step(state, positions, plan, t, NO_WRENCH, previous,
                                OPTIONS, PARAMS, spline)
            cold_iters.append(out_cold.solution.iterations)
            warm_iters.append(out_warm.solution.iterations)
            previous = out_warm.solution
        ok = sum(w <= c for w, c in zip(warm_iters[1:], cold_iters[1:]))
        assert ok >= 0.9 * len(warm_iters[1:])
