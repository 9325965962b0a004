import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from centroidal_mpc import bundled_scenario, controller, parse_scenario
from centroidal_mpc.model import (
    CentroidalState,
    ContactGeometry,
    PhysicalParams,
    euler_step_batch,
)
from centroidal_mpc.plan import (
    ContactPlan,
    NominalContact,
    horizon_schedule,
    nominal_com_trajectory,
)
from centroidal_mpc.qp import _POLISH_REG, QpWorkspace
from centroidal_mpc.sim import simulate
from centroidal_mpc.solver import check_derivatives
from centroidal_mpc.transcription import (
    ContactBox,
    DecisionLayout,
    FrictionPyramid,
    NlpStructure,
    Weights,
    build_nlp,
)

from cost_terms import (
    centroidal_tracking_cost,
    contact_regularization_cost,
    force_rate_cost,
    force_regularization_cost,
    horizon_cost,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def yaw(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


class TestCostTerms:
    def test_force_reg_equal_corners(self):
        forces = np.tile([1.0, 2.0, 3.0], (4, 1))
        assert force_regularization_cost(forces, 1.0) == 0.0

    def test_force_reg_single_corner(self):
        assert force_regularization_cost([[5.0, -2.0, 7.0]], 1.0) == 0.0

    def test_force_reg_two_corners(self):
        # mean (0,0,1); each corner deviates by 1 -> 1/2 + 1/2
        assert force_regularization_cost([[0, 0, 2.0], [0, 0, 0.0]], 1.0) == pytest.approx(1.0)

    def test_force_rate_zero(self):
        assert force_rate_cost([1, 2, 3], [1, 2, 3], 0.1, 1.0) == 0.0

    def test_force_rate_unit(self):
        assert force_rate_cost([0, 0, 0], [0, 0, 1], 1.0, 1.0) == pytest.approx(0.5)

    def test_force_rate_scaling_with_period(self):
        slow = force_rate_cost([0, 0, 0], [0, 0, 1], 2.0, 1.0)
        fast = force_rate_cost([0, 0, 0], [0, 0, 1], 1.0, 1.0)
        assert slow == pytest.approx(fast / 4.0)

    def test_tracking_zero_at_nominal(self):
        state = CentroidalState([1, 2, 3], [0, 0, 0], [0, 0, 0])
        assert centroidal_tracking_cost(state, [0, 0, 0], [1, 2, 3], 1.0, 1.0) == 0.0

    def test_tracking_ang_momentum(self):
        state = CentroidalState([0, 0, 0], [0, 0, 0], [0, 0, 1.0])
        assert centroidal_tracking_cost(state, [0, 0, 0], [0, 0, 0], 1.0, 1.0) == pytest.approx(0.5)

    def test_tracking_com_weighted(self):
        state = CentroidalState([0.1, 0, 0], [0, 0, 0], [0, 0, 0])
        cost = centroidal_tracking_cost(state, [0, 0, 0], [0, 0, 0], 1.0, 100.0)
        assert cost == pytest.approx(0.5)

    def test_contact_reg(self):
        assert contact_regularization_cost([0, 0, 0], [0, 0, 0], 1.0) == 0.0
        assert contact_regularization_cost([0.1, 0, 0], [0, 0, 0], 1.0) == pytest.approx(0.005)

    def test_contact_reg_axis_permutation(self):
        vals = [
            contact_regularization_cost(np.roll([0.1, 0, 0], i), [0, 0, 0], 1.0)
            for i in range(3)
        ]
        assert vals[0] == vals[1] == vals[2]

    @pytest.mark.parametrize("name", ["one_leg_jump", "two_leg_walk_run"])
    def test_assembled_cost_is_the_sum_of_the_terms(self, name):
        config = parse_scenario(bundled_scenario(name), name=name)
        plan, params, options = config.plan, config.params, config.mpc
        n, period = options.horizon_knots, options.period
        spline = nominal_com_trajectory(plan, params)
        samples = spline.sample(period * np.arange(n + 1))
        problem = build_nlp(
            plan, CentroidalState(samples[0], np.zeros(3), np.zeros(3)),
            plan.nominal_positions, horizon_schedule(plan, 0.0, n, period), samples,
            options.weights, options.pyramid, options.box, n, period, params,
        )
        layout = DecisionLayout(n, plan.corner_counts)
        rng = np.random.RandomState(7)
        for _ in range(3):
            x = rng.uniform(-2.0, 2.0, size=layout.size)
            expected = horizon_cost(
                layout, x, options.weights, samples, plan.nominal_positions, period
            )
            assert problem.cost(x) == pytest.approx(expected, rel=1e-12, abs=0.0)


def pyramids():
    """Pyramids with mu in [0.05, 2] and 0 <= f_min < f_max <= 1100."""
    return st.builds(
        lambda mu, f_min, width: FrictionPyramid(mu, f_min, f_min + width),
        st.floats(0.05, 2.0), st.floats(0.0, 100.0), st.floats(0.1, 1000.0),
    )


class TestFrictionPyramid:
    def test_pure_normal_inside(self):
        pyr = FrictionPyramid(1.0, 0.0, 30.0)
        assert pyr.violation([0, 0, 1.0], np.eye(3)) <= 0.0

    def test_tangential_violation(self):
        pyr = FrictionPyramid(0.7, 0.0, 30.0)
        # 2 > 0.7/sqrt(2) * 1
        assert pyr.violation([2.0, 0, 1.0], np.eye(3)) > 0.0

    def test_pulling_force_forbidden(self):
        pyr = FrictionPyramid(0.7, 0.0, 30.0)
        assert pyr.violation([0, 0, -1.0], np.eye(3)) > 0.0

    def test_rotation_invariance(self):
        pyr = FrictionPyramid(0.8, 0.0, 30.0)
        rng = np.random.RandomState(7)
        for _ in range(20):
            angle = rng.uniform(-np.pi, np.pi)
            world_rot = yaw(angle)
            f = rng.randn(3) * 4
            base = pyr.violation(f, np.eye(3))
            rotated = pyr.violation(world_rot @ f, world_rot @ np.eye(3))
            assert base == pytest.approx(rotated, abs=1e-10)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            FrictionPyramid(0.0, 0.0, 30.0)
        with pytest.raises(ValueError):
            FrictionPyramid(0.5, 5.0, 5.0)

    def test_rows_derived_once_and_read_only(self):
        pyr = FrictionPyramid(0.8, 1.0, 30.0)
        np.testing.assert_array_equal(pyr.b, [0, 0, 0, 0, -1.0, 30.0])
        assert pyr.A[0, 2] == -0.8 / np.sqrt(2.0)
        with pytest.raises(ValueError):
            pyr.A[0, 0] = 2.0
        assert pyr == FrictionPyramid(0.8, 1.0, 30.0)

    @PROPERTY
    @given(pyramids(), st.tuples(*[st.floats(-1e6, 1e6)] * 3))
    def test_clamp_is_feasible_and_idempotent(self, pyr, force):
        f = np.array(force)
        out = pyr.clamp(f)
        assert np.all(pyr.A @ out - pyr.b <= 1e-12 * max(1.0, np.linalg.norm(f)))
        assert pyr.clamp(out).tobytes() == out.tobytes()

    @PROPERTY
    @given(pyramids(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def test_clamp_keeps_a_force_strictly_inside(self, pyr, s, tx, ty):
        fz = pyr.f_min + s * (pyr.f_max - pyr.f_min)
        f = np.array([tx * pyr.slope * fz, ty * pyr.slope * fz, fz])
        assume(np.all(pyr.A @ f < pyr.b))
        assert pyr.clamp(f).tobytes() == f.tobytes()


# A point box's gap is the largest distance, per axis, of the offset from
# that point.
def point_box(point):
    return ContactBox(point, point)


class TestContactBox:
    def test_zero_residual_feasible(self):
        box = ContactBox.planar(0.1, 0.1)
        assert point_box(np.zeros(3)).gap([1, 2, 0], [1, 2, 0], np.eye(3)) == 0.0
        assert box.gap([1, 2, 0], [1, 2, 0], np.eye(3)) <= 0.0

    def test_x_overflow(self):
        box = ContactBox((-0.1, -0.1, 0), (0.1, 0.1, 0))
        assert box.gap([0, 0, 0], [0.15, 0, 0], np.eye(3)) > 0.0

    def test_yaw_maps_axes(self):
        # a 90-degree yaw maps an x offset into the y component of the check
        box = ContactBox((-0.2, -0.01, 0), (0.2, 0.01, 0))
        R = yaw(np.pi / 2)
        assert point_box([0, -0.05, 0]).gap([0, 0, 0], [0.05, 0, 0], R) <= 1e-12
        assert box.gap([0, 0, 0], [0.05, 0, 0], R) > 0.0

    def test_clamp_position(self):
        box = ContactBox.planar(0.1, 0.1)
        clamped = box.clamp_position([0.5, 0, 0.2], [0, 0, 0], np.eye(3))
        assert box.gap(clamped, [0, 0, 0], np.eye(3)) <= 1e-12

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ContactBox((0.1, 0, 0), (-0.1, 0, 0))


class TestDecisionLayout:
    def test_smallest_problem_dimension(self):
        # N=1, one contact, one corner: 2*(9+3) + 3 = 27
        assert DecisionLayout(1, [1]).size == 27

    def test_index_map_is_bijection(self):
        layout = DecisionLayout(3, [4, 1])
        blocks = [layout.com, layout.momentum, layout.contacts, layout.forces]
        assert [b.shape for b in blocks] == [(4, 3), (4, 6), (4, 2, 3), (3, 5, 3)]
        # together the blocks list every index of the vector exactly once
        assert np.array_equal(np.sort(np.concatenate([b.ravel() for b in blocks])),
                              np.arange(layout.size))
        for block in blocks + [layout.shift]:
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 0

    @pytest.mark.parametrize("n_knots, counts, message", [
        (0, [1], "at least one step"), (1, [], "at least one contact"),
        (1, [4, 0], "corner counts"),
    ])
    def test_invalid_layout_rejected(self, n_knots, counts, message):
        with pytest.raises(ValueError, match=message):
            DecisionLayout(n_knots, counts)

    def test_views_round_trip(self):
        layout = DecisionLayout(2, [2])
        rng = np.random.RandomState(0)
        x = rng.randn(layout.size)
        com, momentum, contacts = layout.state_arrays(x)
        forces = x[layout.forces]
        # three knots of 12 states (CoM, momentum, one contact), then two
        # steps of 6 controls (two corner forces)
        np.testing.assert_array_equal(com[1], x[12:15])
        np.testing.assert_array_equal(momentum[2], x[27:33])
        np.testing.assert_array_equal(contacts[0, 0], x[9:12])
        np.testing.assert_array_equal(forces[1, 1], x[45:48])
        assert layout.size == 48


def two_contact_problem(n_knots=4, period=0.1, disturbance=True, seed=0):
    left = NominalContact(
        "l", [0, 0.1, 0], np.eye(3), ContactGeometry.rectangle(0.2, 0.1), ((0.0, 0.2),)
    )
    right = NominalContact("r", [0, -0.1, 0], yaw(0.4), ContactGeometry.point(), ((0.1, 0.4),))
    plan = ContactPlan((left, right), 0.4)
    params = PhysicalParams(mass=2.0, com_height_nominal=0.8)
    rng = np.random.RandomState(seed)
    schedule = np.array(
        [[k * period < 0.2, 0.1 <= k * period < 0.4] for k in range(n_knots)]
    )
    nominal = np.array([[0.0, 0.0, 0.8]]) + 0.05 * rng.randn(n_knots + 1, 3)
    state = CentroidalState([0.02, 0.01, 0.8], [0.1, 0, 0], [0, 0.02, 0])
    measured = np.array([[0, 0.1, 0], [0, -0.1, 0.0]])
    profile = 0.3 * rng.randn(n_knots, 6) if disturbance else None
    problem = build_nlp(
        plan,
        state,
        measured,
        schedule,
        nominal,
        Weights(),
        FrictionPyramid(0.8, 0.0, 60.0),
        ContactBox.planar(0.15, 0.15),
        n_knots,
        period,
        params,
        profile,
    )
    return problem, plan, params, schedule, state, measured, profile


class TestBuildNlp:
    def test_dimensions(self):
        problem, plan, *_ = two_contact_problem()
        layout = DecisionLayout(4, [4, 1])
        assert problem.dimension == layout.size
        # the CoM and momentum rows of the pin and of four defects
        assert problem.n_eq == 9 * 5
        # pyramid rows per step and corner, box rows per knot 1-4 and
        # contact, contact rows per knot 0-4 and contact
        assert problem.n_ineq == 6 * 5 * 4 + 3 * 2 * 4 + 3 * 2 * 5

    def test_warm_start_cost_finite(self):
        problem, plan, params, schedule, state, measured, _ = two_contact_problem()
        x = np.zeros(problem.dimension)
        assert np.isfinite(problem.cost(x))

    def test_defects_zero_on_rollout(self):
        problem, plan, params, schedule, state, measured, profile = two_contact_problem()
        layout = DecisionLayout(4, [4, 1])
        rng = np.random.RandomState(5)
        x = np.zeros(layout.size)
        x[layout.n_state_vars:] = 2.0 * rng.randn(layout.n_knots * layout.control_dim)
        x[layout.contacts] = measured
        forces = x[layout.forces]
        p, h = state.p_com[None], state.momentum[None]
        x[layout.com[0]], x[layout.momentum[0]] = p[0], h[0]
        gamma = schedule.astype(float)
        for k in range(4):
            p, h = euler_step_batch(
                p, h, measured[None], forces[k : k + 1], gamma[k : k + 1],
                plan.corner_arms, plan.corner_contact, params.mass, params.gravity,
                profile[k : k + 1], 0.1,
            )
            x[layout.com[k + 1]], x[layout.momentum[k + 1]] = p[0], h[0]
        assert np.abs(problem.eq(x)).max() == 0.0
        # the contacts held at their measured positions meet the contact rows
        rows = slice(problem.n_ineq - layout.contacts.size, None)
        values = problem.structure.ineq_matrix[rows] @ x
        assert np.all(problem.ineq_lower[rows] <= values)
        assert np.all(values <= problem.ineq_upper[rows])

    def test_gated_forces_absent_from_defects(self):
        problem, *_ = two_contact_problem()
        layout = DecisionLayout(4, [4, 1])
        rng = np.random.RandomState(2)
        x = rng.randn(problem.dimension)
        base = problem.eq(x)
        # contact r is inactive at step 0: its force there is dynamics-irrelevant
        x2 = x.copy()
        x2[layout.forces[0, 4]] += 37.0  # corner 4 is contact r's only one
        assert np.array_equal(problem.eq(x2), base)

    def test_derivatives_match_finite_differences(self):
        problem, *_ = two_contact_problem()
        rng = np.random.RandomState(11)
        report = check_derivatives(problem, rng.randn(3, problem.dimension))
        assert report.max_relative_error < 1e-5

    def test_dense_fd_validates_declared_sparsity(self):
        # small problem: full dense FD of the equality Jacobian, entry by entry
        problem, *_ = two_contact_problem(n_knots=2)
        rng = np.random.RandomState(4)
        x = rng.randn(problem.dimension)
        jac = problem.structure.eq_jac_pattern.copy()
        jac.data = problem.eq_jac(x)
        J = jac.toarray()
        h = 1e-6
        dense = np.zeros_like(J)
        for c in range(problem.dimension):
            e = np.zeros(problem.dimension)
            e[c] = 1.0
            dense[:, c] = (problem.eq(x + h * e) - problem.eq(x - h * e)) / (2 * h)
        assert np.abs(J - dense).max() < 1e-6

    def test_cost_zero_iff_perfect_tracking(self):
        problem, plan, params, schedule, state, measured, _ = two_contact_problem(
            disturbance=False
        )
        layout = DecisionLayout(4, [4, 1])
        # zero cost requires: forces uniform (zero works), com on nominal,
        # h_ang zero, contacts at nominal -- build such a vector
        x = np.zeros(layout.size)
        nominal = np.array([[0.0, 0.0, 0.8]])
        problem2 = build_nlp(
            plan, state, measured, schedule, np.tile(nominal, (5, 1)), Weights(),
            FrictionPyramid(0.8, 0, 60.0), ContactBox.planar(0.15, 0.15),
            4, 0.1, params,
        )
        x[layout.com] = nominal[0]
        x[layout.contacts] = [[0, 0.1, 0], [0, -0.1, 0]]
        assert problem2.cost(x) == pytest.approx(0.0, abs=1e-10)
        x[layout.momentum[2]] = [0, 0, 0, 0.1, 0, 0]
        assert problem2.cost(x) > 1e-3

    def test_structural_errors(self):
        problem, plan, params, schedule, state, measured, _ = two_contact_problem()
        with pytest.raises(ValueError, match="schedule"):
            build_nlp(
                plan, state, measured, schedule[:2], np.zeros((5, 3)), Weights(),
                FrictionPyramid(0.8, 0, 60.0), ContactBox.planar(0.15, 0.15),
                4, 0.1, params,
            )
        with pytest.raises(ValueError, match="samples"):
            build_nlp(
                plan, state, measured, schedule, np.zeros((3, 3)), Weights(),
                FrictionPyramid(0.8, 0, 60.0), ContactBox.planar(0.15, 0.15),
                4, 0.1, params,
            )

    def test_input_shapes_checked(self):
        problem, plan, params, schedule, state, measured, profile = two_contact_problem()
        args = (Weights(), FrictionPyramid(0.8, 0, 60.0), ContactBox.planar(0.15, 0.15), 4,
                0.1, params)
        with pytest.raises(ValueError, match="initial contact positions"):
            build_nlp(plan, state, measured[:1], schedule, np.zeros((5, 3)), *args, profile)
        with pytest.raises(ValueError, match="disturbance profile shape"):
            build_nlp(plan, state, measured, schedule, np.zeros((5, 3)), *args, profile[:3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_disturbance_profile_rejected(self, bad):
        problem, plan, params, schedule, state, measured, profile = two_contact_problem()
        profile = profile.copy()
        profile[2, 4] = bad
        with pytest.raises(ValueError, match="disturbance profile"):
            build_nlp(
                plan, state, measured, schedule, np.zeros((5, 3)), Weights(),
                FrictionPyramid(0.8, 0, 60.0), ContactBox.planar(0.15, 0.15),
                4, 0.1, params, profile,
            )


@st.composite
def contact_schedules(draw):
    """1-5 steps of two_contact_problem's plan: a gate per step and contact,
    and measured contact positions."""
    n_knots = draw(st.integers(1, 5))
    schedule = draw(arrays(bool, (n_knots, 2)))
    measured = draw(arrays(np.float64, (2, 3), elements=st.floats(-10.0, 10.0)))
    return n_knots, schedule, measured


class TestContactRows:
    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(contact_schedules())
    def test_bounds_hold_the_stance_steps_and_pin_knot_0(self, drawn):
        n_knots, schedule, measured = drawn
        _, plan, params, *_ = two_contact_problem()
        problem = build_nlp(
            plan, CentroidalState.zero(), measured, schedule, np.zeros((n_knots + 1, 3)),
            Weights(), FrictionPyramid(0.8, 0.0, 60.0), ContactBox.planar(0.15, 0.15),
            n_knots, 0.1, params,
        )
        layout = problem.structure.layout
        # the last rows, three per knot and contact, knot-major
        rows = slice(problem.n_ineq - layout.contacts.size, None)
        shape = layout.contacts.shape
        lower = problem.ineq_lower[rows].reshape(shape)
        upper = problem.ineq_upper[rows].reshape(shape)
        assert np.array_equal(lower[0], measured) and np.array_equal(upper[0], measured)
        on = np.broadcast_to(schedule[:, :, None], (n_knots, 2, 3))
        assert np.all(lower[1:][on] == 0.0) and np.all(upper[1:][on] == 0.0)
        assert np.all(lower[1:][~on] == -np.inf) and np.all(upper[1:][~on] == np.inf)
        # the rows are p_0, then p_k - p_k-1
        x = np.random.RandomState(n_knots).randn(problem.dimension)
        p = x[layout.contacts]
        values = (problem.structure.ineq_matrix[rows] @ x).reshape(shape)
        assert np.array_equal(values, np.concatenate([p[:1], p[1:] - p[:-1]]))


@pytest.fixture(scope="module", params=["one_leg_jump", "two_leg_walk_run"])
def bundled_pass(request):
    """One closed-loop pass of a bundled scenario: every MPC step's problem
    and solution, and every load of a QP workspace with the least diagonal
    entry of the band base it left."""
    steps, loads = [], []
    solve, load = controller.solve, QpWorkspace.load

    def recording_solve(problem, *args, **kwargs):
        steps.append((problem, solve(problem, *args, **kwargs)))
        return steps[-1][1]

    def recording_load(workspace, *args):
        load(workspace, *args)
        loads.append((workspace, float(workspace.base[:, -1].min())))

    config = parse_scenario(bundled_scenario(request.param), name=request.param)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "solve", recording_solve)
        patch.setattr(QpWorkspace, "load", recording_load)
        simulate(config)
    return request.param, steps, loads


class TestBundledHorizon:
    def test_sizes(self, bundled_pass):
        # CoM, momentum and contacts per knot, corner forces per step; nine
        # equality rows per knot; a band one stage wide
        name, steps, _ = bundled_pass
        expected = {"one_leg_jump": (462, 279, 642, 15),
                    "two_leg_walk_run": (1185, 279, 2085, 39)}[name]
        for problem, _ in steps:
            sizes = (problem.dimension, problem.n_eq, problem.n_eq + problem.n_ineq,
                     problem.structure.qp_workspace.width)
            assert sizes == expected

    def test_no_variable_is_held_only_by_the_regularization(self, bundled_pass):
        # Every subproblem's condensed diagonal has more than _POLISH_REG in
        # every variable: each variable has a cost or an equality row.
        _, steps, loads = bundled_pass
        workspace = steps[0][0].structure.qp_workspace
        diagonals = [least for ws, least in loads if ws is workspace]
        assert len(diagonals) >= len(steps)
        assert min(diagonals) > _POLISH_REG

    def test_swing_contact_rows_have_zero_multipliers(self, bundled_pass):
        _, steps, _ = bundled_pass
        swing_rows = 0
        for problem, solution in steps:
            rows = slice(problem.n_ineq - problem.structure.layout.contacts.size, None)
            swing = problem.ineq_lower[rows] == -np.inf
            y = solution.multipliers[problem.n_eq:][rows]
            assert np.all(y[swing] == 0.0)
            swing_rows += swing.sum()
        assert swing_rows > 0


class TestWeights:
    def test_scalar_expansion(self):
        w = Weights(force_reg=2.0)
        np.testing.assert_allclose(w.force_reg, [2, 2, 2])

    @pytest.mark.parametrize("value", [[1.0, 2.0], np.ones(4), np.ones((2, 2))])
    def test_diagonal_of_another_size_rejected(self, value):
        with pytest.raises(ValueError, match="3 diagonal entries"):
            Weights(force_rate=value)

    def test_positive_definite_required(self):
        with pytest.raises(ValueError):
            Weights(com_tracking=0.0)
        with pytest.raises(ValueError):
            Weights(ang_momentum=[1.0, -1.0, 1.0])


class TestNlpStructure:
    @staticmethod
    def compressed(fmt, shape, indices):
        """A CSR or CSC matrix of ones holding `indices` in its first row or column."""
        n_major = shape[0] if fmt == "csr" else shape[1]
        matrix = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
        return matrix((np.ones(len(indices)), indices, [0] + [len(indices)] * n_major),
                      shape=shape)

    @pytest.mark.parametrize("field", ["hess_pattern", "eq_jac_pattern", "ineq_matrix"])
    def test_pattern_not_canonical_rejected(self, field):
        patterns = {"hess_pattern": sp.csc_matrix(np.eye(2)),
                    "eq_jac_pattern": sp.csr_matrix(np.ones((1, 2))),
                    "ineq_matrix": sp.csr_matrix(np.ones((1, 2)))}
        fmt, shape = patterns[field].format, patterns[field].shape
        # a repeated entry, unsorted indices, the other format
        for bad in (self.compressed(fmt, shape, [1, 1]), self.compressed(fmt, shape, [1, 0]),
                    patterns[field].asformat("csr" if fmt == "csc" else "csc")):
            with pytest.raises(ValueError, match=f"{field} is not a {fmt.upper()} matrix"):
                NlpStructure(**{**patterns, field: bad})

    def test_sizes_derive_from_the_patterns(self):
        structure = NlpStructure(sp.csc_matrix(np.eye(3)), sp.csr_matrix(np.ones((2, 3))))
        assert (structure.dimension, structure.n_eq, structure.n_ineq) == (3, 2, 0)
        assert structure.ineq_matrix.shape == (0, 3)
        bare = NlpStructure(sp.csc_matrix(np.eye(2)))
        assert bare.eq_jac_pattern.shape == bare.ineq_matrix.shape == (0, 2)

    def test_equality_jacobian_values_are_stored_once(self):
        # The transposed equality Jacobian stores its values in the head of
        # the subproblems' constraint values, so one write sets both.
        jac = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
        ineq = sp.csr_matrix(np.array([[0.0, 5.0, 6.0]]))
        jacobians = NlpStructure(sp.csc_matrix(np.eye(3)), jac, ineq).jacobians
        assert np.shares_memory(jacobians.eq_jac_t.data, jacobians.a_values)
        jacobians.write(np.array([7.0, 8.0, 9.0]))
        assert np.array_equal(jacobians.a_values, [7.0, 8.0, 9.0, 5.0, 6.0])
        assert np.array_equal(jacobians.eq_jac_t.toarray(), [[7.0, 0.0], [0.0, 9.0], [8.0, 0.0]])
        assert np.array_equal(jacobians.ineq_t.toarray(), ineq.T.toarray())
