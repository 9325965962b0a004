import numpy as np
import pytest

from centroidal_mpc.model import (
    CentroidalState,
    ContactGeometry,
    PhysicalParams,
    check_rotation,
    euler_step_batch,
    integrate_step,
)

POINT = ContactGeometry.point()
NO_WRENCH = np.zeros((1, 6))
# One point contact: its corner sits at the contact, the corner of contact 0.
POINT_ARMS, POINT_CONTACT = np.zeros((1, 3)), np.zeros(1, dtype=int)


def rate(state, params, position, force, active=True, wrench=NO_WRENCH):
    """Momentum rate of one point contact, one knot: the momentum after one
    euler_step_batch step of dt = 1 from zero momentum."""
    _, momentum, _ = euler_step_batch(
        state.p_com[None], np.zeros((1, 6)), np.asarray(position, float).reshape(1, 1, 3),
        np.asarray(force, float).reshape(1, 1, 3), np.zeros((1, 1, 3)),
        np.array([[float(active)]]), POINT_ARMS, POINT_CONTACT,
        params.mass, params.gravity, wrench, 1.0,
    )
    return momentum[0]


def plant_step(state, params, position, force, active=True, dt=0.1, steps=1):
    """integrate_step of one point contact held over `steps` unforced substeps."""
    return integrate_step(
        state, np.asarray(position, float).reshape(1, 3),
        np.asarray(force, float).reshape(1, 3), np.array([float(active)]),
        POINT_ARMS, POINT_CONTACT, params, np.zeros((steps, 6)), dt,
    )


def contact_step(position, velocity, active, dt=0.1):
    """Position of one contact after one euler_step_batch step of sliding velocity."""
    _, _, moved = euler_step_batch(
        np.zeros(3), np.zeros(6), np.asarray(position, float).reshape(1, 3),
        np.zeros((1, 1, 3)), np.asarray(velocity, float).reshape(1, 1, 3),
        np.array([[float(active)]]), POINT_ARMS, POINT_CONTACT,
        1.0, np.array([0.0, 0.0, -9.81]), NO_WRENCH, dt,
    )
    return moved[0, 0]


class TestMomentumDerivative:
    def test_static_equilibrium(self):
        params = PhysicalParams(mass=1.0)
        state = CentroidalState([0, 0, 1.0], [0, 0, 0], [0, 0, 0])
        np.testing.assert_allclose(
            rate(state, params, [0, 0, 0], [0, 0, 9.81]), np.zeros(6), atol=1e-12
        )

    def test_offset_com_produces_torque(self):
        # hand cross-product oracle: (-0.1, 0, -1) x (0, 0, 9.81) = (0, 0.981, 0)
        params = PhysicalParams(mass=1.0)
        state = CentroidalState([0.1, 0, 1.0], [0, 0, 0], [0, 0, 0])
        out = rate(state, params, [0, 0, 0], [0, 0, 9.81])
        np.testing.assert_allclose(out[:3], [0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(out[3:], [0, 0.981, 0], atol=1e-12)

    def test_inactive_forces_have_exactly_zero_effect(self):
        params = PhysicalParams(mass=2.5)
        state = CentroidalState([0, 0, 1.0], [1, 2, 3], [0.1, 0, 0])
        loud = rate(state, params, [3, 1, 0], [55, 3, 14], active=False)
        quiet = rate(state, params, [3, 1, 0], [0, 0, 0], active=False)
        assert np.array_equal(loud, quiet)
        np.testing.assert_allclose(loud, [0, 0, -9.81 * 2.5, 0, 0, 0], atol=1e-12)

    def test_superposition_in_forces(self):
        params = PhysicalParams(mass=1.0)
        state = CentroidalState([0.2, -0.1, 0.9], [0, 0, 0], [0, 0, 0])
        rng = np.random.RandomState(1)
        f1, f2 = rng.randn(3), rng.randn(3)
        base = rate(state, params, [0, 0, 0], f1)
        plus = rate(state, params, [0, 0, 0], f1 + f2)
        only = rate(state, params, [0, 0, 0], f2)
        grav = rate(state, params, [0, 0, 0], [0, 0, 0])
        np.testing.assert_allclose(plus - base, only - grav, atol=1e-12)

    def test_disturbance_additivity(self):
        params = PhysicalParams(mass=1.0)
        state = CentroidalState([0, 0, 1.0], [0.5, 0, 0], [0, 0, 0])
        wrench = np.array([5, -1, 2, 0.3, 0, -0.1])
        with_d = rate(state, params, [0.1, 0, 0], [1, 2, 3], wrench=wrench[None])
        without = rate(state, params, [0.1, 0, 0], [1, 2, 3])
        np.testing.assert_allclose(with_d - without, wrench, atol=1e-14)

    def test_non_finite_force_rejected(self):
        params = PhysicalParams(mass=1.0)
        state = CentroidalState.zero()
        for active in (True, False):
            with pytest.raises(ValueError, match="non-finite"):
                plant_step(state, params, [0, 0, 0], [np.nan, 0, 0], active=active)


class TestComVelocity:
    """The CoM moves with velocity h_lin / m over each plant step."""

    def displacement(self, h_lin, mass, dt=0.5):
        params = PhysicalParams(mass=mass)
        state = CentroidalState([0.3, -0.2, 1.0], h_lin, [0, 0, 0])
        nxt = plant_step(state, params, [0, 0, 0], [0, 0, 0], active=False, dt=dt)
        return (nxt.p_com - state.p_com) / dt

    def test_zero(self):
        assert np.array_equal(self.displacement([0, 0, 0], 1.0), np.zeros(3))

    def test_unit_mass_identity(self):
        np.testing.assert_allclose(self.displacement([2, 0, 0], 1.0), [2, 0, 0])

    def test_scalar_division(self):
        np.testing.assert_allclose(self.displacement([3, -1.5, 0.6], 3.0), [1, -0.5, 0.2])


class TestContactPositionDerivative:
    """A contact moves with (1 - gate) * v: frozen while it is active."""

    def test_active_contact_frozen(self):
        start = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(contact_step(start, [5, 5, 5], active=True), start)

    def test_inactive_moves(self):
        np.testing.assert_allclose(
            contact_step([0, 0, 0], [1, 2, 3], active=False, dt=0.5), [0.5, 1.0, 1.5]
        )

    def test_zero_velocity(self):
        start = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(contact_step(start, [0, 0, 0], active=False), start)


class TestIntegrateStep:
    def test_flight_single_step(self):
        params = PhysicalParams(mass=1.0)
        state = CentroidalState([0, 0, 1.0], [0, 0, 0], [0, 0, 0])
        nxt = plant_step(state, params, [0, 0, 0], [9, 9, 9], active=False)
        np.testing.assert_allclose(nxt.h_lin, [0, 0, -0.981], atol=1e-15)

    def test_static_fixed_point(self):
        params = PhysicalParams(mass=1.0)
        state = CentroidalState([0, 0, 1.0], [0, 0, 0], [0, 0, 0])
        nxt = plant_step(state, params, [0, 0, 0], [0, 0, 9.81], dt=0.37)
        assert np.array_equal(nxt.p_com, state.p_com)
        assert np.array_equal(nxt.momentum, state.momentum)

    def test_active_contact_position_bit_exact(self):
        # The plant holds its contacts; an active contact given a sliding
        # velocity in the rollout stays put, so both integrate bit for bit.
        params = PhysicalParams(mass=1.0)
        state = CentroidalState([0.2, -0.1, 1.0], [0.3, 0, 0], [0, 0, 0])
        start = np.array([1.0, 2.0, 3.0])
        force = [2.0, -1.0, 9.0]
        steps, dt = 4, 0.1
        position = start.copy()
        nxt = plant_step(state, params, position, force, dt=dt, steps=steps)
        assert np.array_equal(position, start)
        p_com, momentum, moved = euler_step_batch(
            state.p_com, state.momentum, start.reshape(1, 3),
            np.broadcast_to(np.reshape(force, (1, 1, 3)), (steps, 1, 3)),
            np.full((steps, 1, 3), 5.0), np.ones((steps, 1)), POINT_ARMS,
            POINT_CONTACT, params.mass, params.gravity, np.zeros((steps, 6)), dt,
        )
        assert np.array_equal(moved[:, 0], np.broadcast_to(start, (steps, 3)))
        assert np.array_equal(nxt.p_com, p_com[-1])
        assert np.array_equal(nxt.momentum, momentum[-1])
        assert np.any(nxt.h_ang != 0.0)

    def test_ballistic_parabola_and_momentum_conservation(self):
        params = PhysicalParams(mass=2.0)
        state = CentroidalState([0, 0, 1.0], [2.0, 0, 1.0], [0.1, -0.2, 0.3])
        dt, steps = 1e-3, 500
        h_ang0 = state.h_ang.copy()
        for _ in range(steps):
            state = plant_step(state, params, [0, 0, 0], [3, 3, 3], active=False, dt=dt)
        t = dt * steps
        v0 = np.array([1.0, 0, 0.5])
        expected = np.array([0, 0, 1.0]) + v0 * t + 0.5 * np.array([0, 0, -9.81]) * t * t
        np.testing.assert_allclose(state.p_com, expected, atol=5e-3)
        assert np.array_equal(state.h_ang, h_ang0)

    def test_invalid_dt(self):
        params = PhysicalParams(mass=1.0)
        with pytest.raises(ValueError, match="dt"):
            plant_step(CentroidalState.zero(), params, [0, 0, 0], [0, 0, 0], dt=0.0)

    def test_wrenches_must_be_finite_rows_of_six(self):
        params = PhysicalParams(mass=1.0)
        args = (
            CentroidalState.zero(), np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1),
            POINT_ARMS, POINT_CONTACT, params,
        )
        for bad in (np.zeros(6), np.zeros((0, 6)), np.zeros((2, 3))):
            with pytest.raises(ValueError, match="shape"):
                integrate_step(*args, bad, 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            integrate_step(*args, np.full((2, 6), np.inf), 0.1)

    def test_forces_must_match_corner_counts(self):
        # One corner force against the four arms of a rectangle would
        # broadcast, and the torque would use the first arm alone.
        params = PhysicalParams(mass=1.0)
        rectangle = ContactGeometry.rectangle(0.2, 0.1).offsets_matrix()
        one_contact = (CentroidalState.zero(), np.zeros((1, 3)))
        for forces, arms, contact in (
            (np.ones((1, 3)), rectangle, np.zeros(4, dtype=int)),
            (np.ones((4, 2)), rectangle, np.zeros(4, dtype=int)),
            (np.ones((4, 3)), np.tile(rectangle, (2, 1)), np.zeros(8, dtype=int)),
        ):
            with pytest.raises(ValueError, match="corner"):
                integrate_step(
                    *one_contact, forces, np.ones(1), arms, contact, params, NO_WRENCH, 0.1
                )

    def test_rates_reject_forces_of_another_corner_count(self):
        # One force against a rectangle's four arms would take the torque
        # of the first arm alone; four forces against one arm would all act
        # at that arm.
        params = PhysicalParams(mass=1.0)
        rectangle = ContactGeometry.rectangle(0.2, 0.1).offsets_matrix()
        for n_forces, arms in ((1, rectangle), (4, rectangle[:1])):
            with pytest.raises(ValueError, match="corner"):
                euler_step_batch(
                    np.zeros((1, 3)), np.zeros((1, 6)), np.zeros((1, 1, 3)),
                    np.ones((1, n_forces, 3)), np.zeros((1, 1, 3)), np.ones((1, 1)), arms,
                    np.zeros(len(arms), dtype=int), params.mass, params.gravity, NO_WRENCH,
                    0.1,
                )


class TestTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="mass"):
            PhysicalParams(mass=-1.0)
        with pytest.raises(ValueError, match="gravity"):
            PhysicalParams(mass=1.0, gravity=[0, 0, 0])

    @pytest.mark.parametrize("value", [[0.0, 0.0], np.zeros(4), np.zeros((2, 3))])
    def test_vector_of_another_size_rejected(self, value):
        with pytest.raises(ValueError, match="p_com must have 3 components"):
            CentroidalState(value, [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match="gravity must have 3 components"):
            PhysicalParams(mass=1.0, gravity=value)

    @pytest.mark.parametrize("matrix", [np.eye(2), np.eye(4), np.ones(9)])
    def test_rotation_of_another_shape_rejected(self, matrix):
        with pytest.raises(ValueError, match="must be 3x3"):
            check_rotation(matrix)

    def test_state_requires_finite(self):
        with pytest.raises(ValueError):
            CentroidalState([np.inf, 0, 0], [0, 0, 0], [0, 0, 0])

    def test_geometry_needs_corner(self):
        with pytest.raises(ValueError):
            ContactGeometry(())

    def test_rectangle_corners(self):
        rect = ContactGeometry.rectangle(0.2, 0.1)
        assert rect.n_corners == 4
        corners = rect.offsets_matrix()
        assert np.allclose(np.abs(corners[:, 0]), 0.1)
        assert np.allclose(np.abs(corners[:, 1]), 0.05)
