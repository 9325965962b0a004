import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroidal_mpc import bundled_scenario, parse_scenario
from centroidal_mpc.model import ContactGeometry, PhysicalParams
from centroidal_mpc.plan import (
    ContactPlan,
    NominalContact,
    QuinticSpline,
    horizon_schedule,
    nominal_com_trajectory,
    support_phases,
)

POINT = ContactGeometry.point()
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
TIME = st.floats(min_value=-5.0, max_value=10.0, allow_nan=False)


def bits(a) -> np.ndarray:
    """The IEEE bit patterns of a float64 array, so -0.0 != 0.0."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def scalar_position(spline, t):
    """Position at one time as the spline evaluated it one sample at a time,
    with the scalar power `tau ** p` of a numpy float."""
    times = spline.knot_times
    if times.size == 1:
        return spline.knot_points[0].copy()
    if t <= times[0]:
        seg, tau = 0, 0.0
    elif t >= times[-1]:
        seg, tau = len(times) - 2, times[-1] - times[-2]
    else:
        seg = min(int(np.searchsorted(times, t, side="right") - 1), len(times) - 2)
        tau = t - times[seg]
    out = np.zeros(spline.dim)
    for p in range(6):
        out += 1.0 * tau ** p * spline._coeffs[seg][p]
    return out


def scalar_schedule(plan, t0, n_knots, period):
    """horizon_schedule one entry at a time through active_at, clamped below the plan end."""
    t_max = np.nextafter(plan.duration, -np.inf)
    return np.array(
        [[c.active_at(min(t0 + k * period, t_max)) for c in plan.contacts]
         for k in range(n_knots)],
        dtype=bool,
    ).reshape(n_knots, plan.n_contacts)


@st.composite
def splines(draw):
    """1-6 knots at increasing times in [0, 4] with points in a 2 m cube."""
    n = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n))
    times = np.cumsum(gaps) - gaps[0]
    point = st.floats(min_value=-2.0, max_value=2.0)
    points = np.array(draw(st.lists(st.tuples(point, point, point), min_size=n, max_size=n)))
    return QuinticSpline(times, points)


def simple_plan(windows, duration=3.0, position=(0, 0.1, 0)):
    return ContactPlan(
        (NominalContact("c", position, np.eye(3), POINT, tuple(windows)),), duration
    )


class TestActivation:
    def test_inside_window(self):
        assert simple_plan([(0, 1)]).contact("c").active_at(0.5) is True

    def test_half_open_boundary(self):
        assert simple_plan([(0, 1)]).contact("c").active_at(1.0) is False

    def test_gap_between_windows(self):
        assert simple_plan([(0, 1), (2, 3)]).contact("c").active_at(1.5) is False

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            simple_plan([(0, 1)]).contact("nope").active_at(0.5)

    def test_time_shift_equivariance(self):
        base = [(0.2, 1.0), (1.5, 2.0)]
        shift = 0.7
        plan_a = simple_plan(base)
        plan_b = simple_plan([(a + shift, b + shift) for a, b in base], duration=3.7)
        for t in np.linspace(0, 2.9, 60):
            assert plan_a.contact("c").active_at(t) == plan_b.contact("c").active_at(t + shift)


class TestHorizonSchedule:
    def test_column(self):
        sched = horizon_schedule(simple_plan([(0, 1)]), 0.0, 3, 0.5)
        assert sched[:, 0].tolist() == [True, True, False]

    def test_all_true(self):
        plan = ContactPlan(
            (
                NominalContact("l", [0, 0.1, 0], np.eye(3), POINT, ((0.0, 5.0),)),
                NominalContact("r", [0, -0.1, 0], np.eye(3), POINT, ((0.0, 5.0),)),
            ),
            5.0,
        )
        assert horizon_schedule(plan, 0.0, 10, 0.25).all()

    def test_aerial_rows_in_running_plan(self):
        plan = ContactPlan(
            (
                NominalContact("l", [0, 0.1, 0], np.eye(3), POINT, ((0.0, 0.3), (0.6, 0.9))),
                NominalContact("r", [0, -0.1, 0], np.eye(3), POINT, ((0.4, 0.5),)),
            ),
            1.0,
        )
        sched = horizon_schedule(plan, 0.0, 10, 0.1)
        expected = [plan.contact("l").active_at(0.1 * k) for k in range(10)]
        assert sched[:, 0].tolist() == expected
        aerial_rows = ~sched.any(axis=1)
        assert aerial_rows.any()
        assert aerial_rows[3] and aerial_rows[5]

    @pytest.mark.parametrize("n_knots, period, message", [
        (3, 0.0, "period"), (3, -0.1, "period"), (3, float("nan"), "period"),
        (0, 0.1, "n_knots"),
    ])
    def test_invalid_arguments_rejected(self, n_knots, period, message):
        with pytest.raises(ValueError, match=message):
            horizon_schedule(simple_plan([(0.0, 1.0)]), 0.0, n_knots, period)

    def test_matches_activation_pointwise(self):
        plan = simple_plan([(0.25, 1.05), (2.0, 2.5)])
        sched = horizon_schedule(plan, 0.1, 14, 0.2)
        for k in range(14):
            assert sched[k, 0] == plan.contact("c").active_at(0.1 + 0.2 * k)

    def test_clamp_to_duration(self):
        plan = simple_plan([(2.0, 3.0)])
        clamped = horizon_schedule(plan, 2.5, 5, 0.5)
        assert clamped[:, 0].tolist() == [True] * 5

    @PROPERTY
    @given(
        st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=2, max_size=6),
        st.floats(min_value=0.0, max_value=4.0),
        st.integers(1, 40),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_equals_scalar_active_at_reference(self, cuts, t0, n_knots, period):
        cuts = sorted(set(cuts))
        windows = [(a, b) for a, b in zip(cuts[::2], cuts[1::2])]
        plan = ContactPlan(
            (
                NominalContact("c", (0, 0.1, 0), np.eye(3), POINT, tuple(windows)),
                NominalContact("d", (0, -0.1, 0), np.eye(3), POINT, ((0.0, 3.0),)),
            ),
            3.0,
        )
        expected = scalar_schedule(plan, t0, n_knots, period)
        assert np.array_equal(horizon_schedule(plan, t0, n_knots, period), expected)

    def test_bundled_plans_equal_scalar_reference_past_their_end(self):
        for name in ("one_leg_jump", "two_leg_walk_run"):
            plan = parse_scenario(bundled_scenario(name), name=name).plan
            for t0 in np.arange(0.0, plan.duration + 0.05, 0.1):
                expected = scalar_schedule(plan, t0, 30, 0.1)
                assert np.array_equal(horizon_schedule(plan, t0, 30, 0.1), expected)


class TestQuinticSpline:
    def test_single_knot_constant(self):
        s = QuinticSpline([1.0], np.array([[0, 0, 1.0]]))
        np.testing.assert_allclose(s.position(0.3), [0, 0, 1.0])
        assert np.array_equal(s.velocity(7.0), np.zeros(3))
        assert np.array_equal(s.acceleration(-2.0), np.zeros(3))

    def test_two_knot_boundary_conditions(self):
        s = QuinticSpline([0.0, 2.0], np.array([[0, 0, 1.0], [1, 0, 1.0]]))
        np.testing.assert_allclose(s.position(0.0), [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(s.position(2.0), [1, 0, 1], atol=1e-12)
        for t in (0.0, 2.0):
            np.testing.assert_allclose(s.velocity(t), np.zeros(3), atol=1e-9)
            np.testing.assert_allclose(s.acceleration(t), np.zeros(3), atol=1e-9)

    def test_two_knot_midpoint_symmetry(self):
        # symmetric boundary conditions force the temporal midpoint to the mean
        s = QuinticSpline([0.0, 2.0], np.array([[0, 0, 1.0], [1, 0, 1.0]]))
        np.testing.assert_allclose(s.position(1.0), [0.5, 0, 1.0], atol=1e-12)

    def test_interpolates_all_knots(self):
        times = [0.0, 0.8, 2.1, 3.0, 4.5]
        rng = np.random.RandomState(3)
        pts = rng.randn(5, 3)
        s = QuinticSpline(times, pts)
        for t, p in zip(times, pts):
            assert np.abs(s.position(t) - p).max() < 1e-9

    def test_c2_continuity(self):
        times = [0.0, 1.0, 2.5, 4.0]
        pts = np.array([[0, 0, 1], [0.5, 0.1, 1.1], [1.0, -0.1, 0.9], [1.5, 0, 1.0]])
        s = QuinticSpline(times, pts)
        eps = 1e-7
        for t in times[1:-1]:
            np.testing.assert_allclose(s.velocity(t - eps), s.velocity(t + eps), atol=1e-5)
            np.testing.assert_allclose(
                s.acceleration(t - eps), s.acceleration(t + eps), atol=1e-4
            )

    def test_clamps_outside_span(self):
        s = QuinticSpline([0.0, 2.0], np.array([[0, 0, 1.0], [1, 0, 1.0]]))
        assert np.array_equal(s.position(-5.0), s.position(0.0))
        assert np.array_equal(s.position(99.0), s.position(2.0))

    def test_rejects_length_mismatch_and_no_knot(self):
        with pytest.raises(ValueError, match="disagree in length"):
            QuinticSpline([0.0, 1.0], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="at least one knot"):
            QuinticSpline([], np.zeros((0, 3)))

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            QuinticSpline([1.0, 0.5], np.zeros((2, 3)))

    @PROPERTY
    @given(splines(), st.lists(TIME, min_size=1, max_size=40))
    def test_sample_equals_scalar_evaluation_bit_for_bit(self, spline, times):
        # times before the first knot, inside the span and after the last
        times = times + [spline.knot_times[0] - 1.0, spline.knot_times[-1] + 1.0]
        sampled = spline.sample(times)
        assert sampled.shape == (len(times), 3)
        assert np.array_equal(bits(sampled), bits([scalar_position(spline, t) for t in times]))
        assert np.array_equal(bits(sampled), bits([spline.position(t) for t in times]))

    def test_one_knot_sample(self):
        s = QuinticSpline([1.0], np.array([[0.5, -0.5, 1.0]]))
        times = [-1.0, 1.0, 3.0]
        assert np.array_equal(s.sample(times), np.tile([0.5, -0.5, 1.0], (3, 1)))
        assert np.array_equal(s.sample(times), [scalar_position(s, t) for t in times])

    def test_bundled_references_equal_scalar_evaluation(self):
        for name in ("one_leg_jump", "two_leg_walk_run"):
            config = parse_scenario(bundled_scenario(name), name=name)
            spline = nominal_com_trajectory(config.plan, config.params)
            for t0 in np.arange(0.0, config.duration + 0.05, 0.1):
                times = t0 + 0.1 * np.arange(31)
                expected = [scalar_position(spline, t) for t in times]
                assert np.array_equal(bits(spline.sample(times)), bits(expected))


class TestNominalComTrajectory:
    def test_single_contact_constant(self):
        plan = simple_plan([(0.0, 3.0)], position=(0, 0, 0))
        spline = nominal_com_trajectory(plan, PhysicalParams(mass=1.0, com_height_nominal=1.0))
        for t in (0.0, 1.0, 2.9):
            np.testing.assert_allclose(spline.position(t), [0, 0, 1.0], atol=1e-12)
            np.testing.assert_allclose(spline.velocity(t), np.zeros(3), atol=1e-12)

    def test_support_centroid_waypoints(self):
        plan = ContactPlan(
            (
                NominalContact("l", [0, 0.1, 0], np.eye(3), POINT, ((0.0, 1.0),)),
                NominalContact("r", [0.4, -0.1, 0], np.eye(3), POINT, ((0.5, 1.5),)),
            ),
            1.5,
        )
        params = PhysicalParams(mass=1.0, com_height_nominal=0.8)
        spline = nominal_com_trajectory(plan, params)
        # phases: [0, .5) l only; [.5, 1) both; [1, 1.5) r only
        np.testing.assert_allclose(spline.position(0.25), [0, 0.1, 0.8], atol=1e-9)
        np.testing.assert_allclose(spline.position(0.75), [0.2, 0.0, 0.8], atol=1e-9)
        np.testing.assert_allclose(spline.position(1.25), [0.4, -0.1, 0.8], atol=1e-9)

    def test_aerial_phases_contribute_no_knot(self):
        plan = simple_plan([(0.0, 1.0), (2.0, 3.0)], position=(0, 0, 0))
        spline = nominal_com_trajectory(plan, PhysicalParams(mass=1.0, com_height_nominal=0.6))
        assert spline.knot_times.tolist() == [0.5, 2.5]

    def test_all_aerial_plan_rejected(self):
        plan = simple_plan([(1.0, 2.0)], duration=3.0)
        phases = support_phases(plan)
        assert phases[0][2] == [] and phases[-1][2] == []
        # a contact without activation windows never grounds the plan
        aerial = simple_plan([], duration=3.0)
        assert [ids for _, _, ids in support_phases(aerial)] == [[]]
        with pytest.raises(ValueError, match="no grounded phase"):
            nominal_com_trajectory(aerial, PhysicalParams(mass=1.0))

    def test_phase_decomposition(self):
        plan = simple_plan([(0.0, 1.0), (1.5, 2.0)], duration=2.5)
        spans = support_phases(plan)
        assert [(a, b) for a, b, _ in spans] == [(0.0, 1.0), (1.0, 1.5), (1.5, 2.0), (2.0, 2.5)]
        assert [ids for _, _, ids in spans] == [["c"], [], ["c"], []]


class TestPlanValidation:
    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            simple_plan([(0.0, 1.0), (0.5, 2.0)])

    def test_window_outside_duration(self):
        with pytest.raises(ValueError, match="duration"):
            simple_plan([(0.0, 5.0)], duration=3.0)

    def test_empty_window(self):
        with pytest.raises(ValueError, match="empty"):
            simple_plan([(1.0, 1.0)])

    def test_no_contact(self):
        with pytest.raises(ValueError, match="at least one contact"):
            ContactPlan((), 2.0)

    def test_duplicate_ids(self):
        c = NominalContact("c", [0, 0, 0], np.eye(3), POINT, ((0.0, 1.0),))
        with pytest.raises(ValueError, match="duplicate"):
            ContactPlan((c, c), 2.0)

    def test_orientation_checked(self):
        def contact(orientation):
            return NominalContact("c", [0, 0, 0], orientation, POINT, ((0.0, 1.0),))

        with pytest.raises(ValueError, match="orthonormal"):
            contact(np.eye(3) * 2.0)
        # determinant -1 (reflection) rejected
        with pytest.raises(ValueError, match="determinant"):
            contact(np.diag([1.0, 1.0, -1.0]))


class TestStackedArrays:
    def test_stacked_in_contact_order_and_read_only(self):
        yaw = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rect = ContactGeometry.rectangle(0.2, 0.1)
        plan = ContactPlan(
            (
                NominalContact("l", [0, 0.1, 0], yaw, rect, ((0.0, 1.0),)),
                NominalContact("r", [0.2, -0.1, 0.05], np.eye(3), POINT, ((0.5, 2.0),)),
            ),
            2.0,
        )
        assert np.array_equal(plan.orientations, [yaw, np.eye(3)])
        assert np.array_equal(plan.nominal_positions, [[0, 0.1, 0], [0.2, -0.1, 0.05]])
        assert plan.corner_counts == (4, 1)
        assert np.array_equal(plan.corner_contact, [0, 0, 0, 0, 1])
        assert np.array_equal(plan.corner_arms[4], np.zeros(3))
        for arr in (plan.orientations, plan.nominal_positions):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            plan.orientations[0, 0, 0] = 2.0

    def test_corner_arms_are_each_contacts_rotated_offsets(self):
        c, s = np.cos(0.3), np.sin(0.3)
        yaw = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        geometries = (
            ContactGeometry.rectangle(0.2, 0.1), POINT, ContactGeometry.rectangle(0.3, 0.06)
        )
        plan = ContactPlan(
            tuple(
                NominalContact(name, [0.1 * i, 0, 0], R, geometry, ((0.0, 1.0),))
                for i, (name, R, geometry) in enumerate(
                    zip("abc", (yaw, np.eye(3), yaw.T), geometries)
                )
            ),
            1.0,
        )
        expected = np.concatenate(
            [g.offsets_matrix() @ R.T for g, R in zip(geometries, plan.orientations)]
        )
        assert plan.corner_arms.shape == (9, 3)
        assert np.array_equal(plan.corner_arms.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(plan.corner_contact, np.repeat([0, 1, 2], [4, 1, 4]))

    def test_corner_arrays_are_read_only(self):
        plan = ContactPlan(
            (NominalContact("c", [0, 0, 0], np.eye(3), ContactGeometry.rectangle(0.2, 0.1),
                            ((0.0, 1.0),)),),
            1.0,
        )
        for arr in (plan.corner_contact, plan.corner_arms):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
