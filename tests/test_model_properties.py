"""Property tests of the Euler step kernel (derandomized, small example counts).

A step per knot of euler_step_batch must agree bit for bit with h + dt
times the momentum rate in the per-corner np.cross form that the batched
kernel replaced, and a K-knot call must agree bit for bit with K one-knot
calls: the transcription's defects evaluate all knots at once.  The rollout that the
controller's prediction and the plant make (euler_step_batch from one start
state, and integrate_step over the wrenches of several substeps) must agree
bit for bit with the same steps chained one call at a time.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from centroidal_mpc.model import (
    CentroidalState,
    ContactGeometry,
    PhysicalParams,
    cross_rows,
    euler_step_batch,
    integrate_step,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Every finite double: signed zeros, subnormals and magnitudes whose products
# overflow (the inf - inf of such a product is NaN on both sides).
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODERATE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def bits(a: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of a float64 array, so -0.0 != 0.0 and NaN == NaN."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def per_corner_oracle(
    p_com, p_contacts, forces, gamma, corner_arms, corner_contact, mass, gravity, wrench
):
    """The momentum rate as it was written before the batched kernel: one np.cross per corner."""
    k = p_com.shape[0]
    rate_lin = np.broadcast_to(mass * gravity, (k, 3)) + wrench[:, 0:3]
    rate_lin = np.ascontiguousarray(rate_lin)
    rate_ang = wrench[:, 3:6].copy()
    for v, i in enumerate(corner_contact):
        f = gamma[:, i : i + 1] * forces[:, v, :]
        arm = p_contacts[:, i, :] + corner_arms[v] - p_com
        rate_lin += f
        rate_ang += np.cross(arm, f)
    return np.concatenate([rate_lin, rate_ang], axis=1)


def corner_contact_of(counts):
    """Each corner's contact, for contacts of `counts` corners numbered in order."""
    return np.repeat(np.arange(len(counts)), counts)


@st.composite
def vector_pairs(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), 3)
    return (
        draw(arrays(np.float64, shape, elements=ANY_FINITE)),
        draw(arrays(np.float64, shape, elements=ANY_FINITE)),
    )


RATE_ARGS = ("p_com", "p_contacts", "forces", "gamma", "corner_arms", "corner_contact",
             "mass", "gravity", "wrench")


@st.composite
def kernel_inputs(draw):
    """Arguments of one euler_step_batch step per knot: 1-4 knots, 1-3
    contacts of 1 or 4 corners.  The momentum is -0.0 and dt is 1, so the
    stepped momentum is the rate itself, bit for bit: -0.0 + r is r for
    every float r, signed zeros included."""
    k = draw(st.integers(1, 4))
    counts = draw(st.lists(st.sampled_from([1, 4]), min_size=1, max_size=3))
    n_c, n_v = len(counts), sum(counts)

    def values(shape):
        return draw(arrays(np.float64, shape, elements=MODERATE))

    return dict(
        p_com=values((k, 3)),
        momentum=np.full((k, 6), -0.0),
        p_contacts=values((k, n_c, 3)),
        forces=values((k, n_v, 3)),
        gamma=draw(arrays(np.float64, (k, n_c), elements=st.sampled_from([0.0, 1.0]))),
        corner_arms=values((n_v, 3)),
        corner_contact=corner_contact_of(counts),
        mass=draw(st.floats(min_value=0.1, max_value=100.0)),
        gravity=values((3,)),
        wrench=values((k, 6)),
        dt=1.0,
    )


class TestCrossRows:
    @PROPERTY
    @given(vector_pairs())
    @example((np.array([[0.0, -0.0, 0.0]]), np.array([[-0.0, 0.0, -0.0]])))
    @example((np.array([[1e200, -1e200, 3.0]]), np.array([[1e200, 1e200, -0.0]])))
    @example((np.array([[5e-324, 1.0, -0.0]]), np.array([[-0.0, 5e-324, 1e308]])))
    def test_equals_np_cross_bit_for_bit(self, pair):
        a, b = pair
        with np.errstate(all="ignore"):
            ours, reference = cross_rows(a, b), np.cross(a, b)
        assert np.array_equal(bits(ours), bits(reference))


class TestMomentumRateBatch:
    @PROPERTY
    @given(kernel_inputs())
    def test_equals_per_corner_np_cross_oracle(self, args):
        with np.errstate(all="ignore"):
            _, ours = euler_step_batch(**args)
            rate = per_corner_oracle(**{name: args[name] for name in RATE_ARGS})
            reference = args["momentum"] + args["dt"] * rate
        assert np.array_equal(bits(ours), bits(reference))

    @PROPERTY
    @given(kernel_inputs())
    def test_batch_equals_stacked_single_knot_calls(self, args):
        per_knot = ("p_com", "momentum", "p_contacts", "forces", "gamma", "wrench")
        with np.errstate(all="ignore"):
            batched = euler_step_batch(**args)
            single = [
                euler_step_batch(**{**args, **{name: args[name][k : k + 1] for name in per_knot}})
                for k in range(args["p_com"].shape[0])
            ]
        for ours, column in zip(batched, zip(*single)):
            assert np.array_equal(bits(ours), bits(np.concatenate(column)))


@st.composite
def rollout_inputs(draw):
    """Arguments of a rollout: one start state, 1-30 steps, 1-3 contacts of 1
    or 4 corners, each at its own position and in stance or swing at every
    step, a wrench per step."""
    k = draw(st.integers(1, 30))
    counts = draw(st.lists(st.sampled_from([1, 4]), min_size=1, max_size=3))
    n_c, n_v = len(counts), sum(counts)

    def values(shape):
        return draw(arrays(np.float64, shape, elements=MODERATE))

    return dict(
        p_com=values((3,)),
        momentum=values((6,)),
        p_contacts=values((k, n_c, 3)),
        forces=values((k, n_v, 3)),
        gamma=draw(arrays(np.float64, (k, n_c), elements=st.sampled_from([0.0, 1.0]))),
        corner_arms=values((n_v, 3)),
        corner_contact=corner_contact_of(counts),
        mass=draw(st.floats(min_value=0.1, max_value=100.0)),
        gravity=values((3,)),
        wrench=values((k, 6)),
        dt=draw(st.floats(min_value=1e-3, max_value=0.5)),
    )


STATE = ("p_com", "momentum")


def chained_steps(args):
    """The rollout as K one-knot euler_step_batch calls, each from the last one's end."""
    fixed_names = ("corner_arms", "corner_contact", "mass", "gravity", "dt")
    fixed = {name: args[name] for name in fixed_names}
    p, h = (args[name][None] for name in STATE)
    rows = []
    for k in range(args["gamma"].shape[0]):
        p, h = euler_step_batch(
            p, h,
            p_contacts=args["p_contacts"][k : k + 1],
            forces=args["forces"][k : k + 1],
            gamma=args["gamma"][k : k + 1],
            wrench=args["wrench"][k : k + 1],
            **fixed,
        )
        rows.append((p[0], h[0]))
    return [np.stack(column) for column in zip(*rows)]


# Contacts at signed zeros, in stance and in swing, and a momentum at signed
# zeros: the rollout must sum their arms and rates as the chained steps do.
SIGNED_ZERO_STANCE = dict(
    p_com=np.array([0.1, -0.2, 0.9]),
    momentum=np.array([-0.0, 0.0, 1.0, -0.0, 0.0, -0.0]),
    p_contacts=np.array([[[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]] * 3),
    forces=np.concatenate([np.full((3, 1, 3), -0.0), np.ones((3, 4, 3))], axis=1),
    gamma=np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    corner_arms=np.concatenate([np.zeros((1, 3)), -np.ones((4, 3))]),
    corner_contact=corner_contact_of([1, 4]),
    mass=2.0,
    gravity=np.array([0.0, 0.0, -9.81]),
    wrench=np.zeros((3, 6)),
    dt=0.1,
)


class TestRollout:
    @PROPERTY
    @given(rollout_inputs())
    @example(SIGNED_ZERO_STANCE)
    def test_equals_chained_single_steps_bit_for_bit(self, args):
        with np.errstate(all="ignore"):
            rolled = euler_step_batch(**args)
            chained = chained_steps(args)
        for ours, reference in zip(rolled, chained):
            assert ours.shape == reference.shape
            assert np.array_equal(bits(ours), bits(reference))

    @PROPERTY
    @given(rollout_inputs())
    def test_knot_states_step_as_the_one_step_formula(self, args):
        # with a state per knot the steps are independent Euler steps
        k = args["gamma"].shape[0]
        rng = np.random.RandomState(k)
        p = rng.randn(k, 3)
        h = rng.randn(k, 6)
        inputs = {name: args[name] for name in args if name not in STATE}
        with np.errstate(all="ignore"):
            ours = euler_step_batch(p, h, **inputs)
            rate = per_corner_oracle(
                p, args["p_contacts"], args["forces"], args["gamma"], args["corner_arms"],
                args["corner_contact"], args["mass"], args["gravity"], args["wrench"],
            )
            dt = args["dt"]
            reference = (p + (dt / args["mass"]) * h[:, 0:3], h + dt * rate)
        for a, b in zip(ours, reference):
            assert np.array_equal(bits(a), bits(b))


def _yaw(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@st.composite
def plant_inputs(draw):
    """A state, 1-3 held contacts (point or rectangle, stance or swing) and
    1-12 substep wrenches, as integrate_step's arguments."""
    def values(shape):
        return draw(arrays(np.float64, shape, elements=MODERATE))

    n_c = draw(st.integers(1, 3))
    geometries = [
        draw(st.sampled_from([ContactGeometry.point(), ContactGeometry.rectangle(0.2, 0.1)]))
        for _ in range(n_c)
    ]
    rotations = [_yaw(draw(st.floats(min_value=-3.0, max_value=3.0))) for _ in range(n_c)]
    counts = [g.n_corners for g in geometries]
    return dict(
        state=CentroidalState(values((3,)), values((3,)), values((3,))),
        p_contacts=values((n_c, 3)),
        forces=values((sum(counts), 3)),
        gamma=draw(arrays(np.float64, (n_c,), elements=st.sampled_from([0.0, 1.0]))),
        corner_arms=np.concatenate(
            [g.offsets_matrix() @ R.T for g, R in zip(geometries, rotations)]
        ),
        corner_contact=corner_contact_of(counts),
        params=PhysicalParams(mass=draw(st.floats(min_value=0.1, max_value=100.0))),
        wrenches=values((draw(st.integers(1, 12)), 6)),
        dt=draw(st.floats(min_value=1e-3, max_value=0.1)),
    )


class TestIntegrateStep:
    @PROPERTY
    @given(plant_inputs())
    def test_substep_wrenches_equal_chained_single_wrench_calls(self, args):
        with np.errstate(all="ignore"):
            ours = integrate_step(**args)
            chained = args["state"]
            for w in args["wrenches"]:
                chained = integrate_step(**{**args, "state": chained, "wrenches": w[None]})
        assert np.array_equal(bits(ours.p_com), bits(chained.p_com))
        assert np.array_equal(bits(ours.momentum), bits(chained.momentum))

    @PROPERTY
    @given(plant_inputs())
    @example(
        dict(
            state=CentroidalState([0.0, 0.0, 0.6], [-0.0, 0.0, 0.0], [0.0, -0.0, 0.0]),
            p_contacts=np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]),
            forces=np.array([[0.0, 0.0, 9.81], [1.0, 1.0, 1.0]]),
            gamma=np.array([1.0, 0.0]),
            corner_arms=np.zeros((2, 3)),
            corner_contact=corner_contact_of([1, 1]),
            params=PhysicalParams(mass=1.0),
            wrenches=np.zeros((3, 6)),
            dt=0.01,
        )
    )
    def test_single_wrench_is_one_euler_step(self, args):
        state, params, dt = args["state"], args["params"], args["dt"]
        wrench = args["wrenches"][:1]
        with np.errstate(all="ignore"):
            ours = integrate_step(**{**args, "wrenches": wrench})
            rate = per_corner_oracle(
                state.p_com[None], args["p_contacts"][None], args["forces"][None],
                args["gamma"][None], args["corner_arms"], args["corner_contact"],
                params.mass, params.gravity, wrench,
            )[0]
            h_next = state.momentum + dt * rate
            p_next = state.p_com + (dt / params.mass) * state.h_lin
        assert np.array_equal(bits(ours.p_com), bits(p_next))
        assert np.array_equal(bits(ours.momentum), bits(h_next))
