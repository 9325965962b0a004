"""Property tests of the momentum-rate kernel (derandomized, small example counts).

The kernel must agree bit for bit with the per-corner np.cross form it
replaced, and a K-knot call must agree bit for bit with K one-knot calls: the
controller's rollout and the plant step one knot at a time, while the
transcription's defects evaluate all knots at once.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from centroidal_mpc.model import cross_rows, momentum_rate_batch

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Every finite double: signed zeros, subnormals and magnitudes whose products
# overflow (the inf - inf of such a product is NaN on both sides).
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODERATE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def bits(a: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of a float64 array, so -0.0 != 0.0 and NaN == NaN."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def per_corner_oracle(
    p_com, p_contacts, forces, gamma, rotations, corner_offsets, mass, gravity, wrench
):
    """The momentum-rate kernel as it was written before: one np.cross per corner."""
    k = p_com.shape[0]
    rate_lin = np.broadcast_to(mass * gravity, (k, 3)) + wrench[:, 0:3]
    rate_lin = np.ascontiguousarray(rate_lin)
    rate_ang = wrench[:, 3:6].copy()
    for i, force_i in enumerate(forces):
        offsets_world = corner_offsets[i] @ rotations[i].T
        gate = gamma[:, i : i + 1]
        for j in range(force_i.shape[1]):
            f = gate * force_i[:, j, :]
            arm = p_contacts[:, i, :] + offsets_world[j] - p_com
            rate_lin += f
            rate_ang += np.cross(arm, f)
    return np.concatenate([rate_lin, rate_ang], axis=1)


@st.composite
def vector_pairs(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), 3)
    return (
        draw(arrays(np.float64, shape, elements=ANY_FINITE)),
        draw(arrays(np.float64, shape, elements=ANY_FINITE)),
    )


@st.composite
def kernel_inputs(draw):
    """Arguments of momentum_rate_batch: 1-4 knots, 1-3 contacts of 1 or 4 corners."""
    k = draw(st.integers(1, 4))
    counts = draw(st.lists(st.sampled_from([1, 4]), min_size=1, max_size=3))
    n_c = len(counts)

    def values(shape):
        return draw(arrays(np.float64, shape, elements=MODERATE))

    return dict(
        p_com=values((k, 3)),
        p_contacts=values((k, n_c, 3)),
        forces=[values((k, c, 3)) for c in counts],
        gamma=draw(arrays(np.float64, (k, n_c), elements=st.sampled_from([0.0, 1.0]))),
        rotations=values((n_c, 3, 3)),
        corner_offsets=[values((c, 3)) for c in counts],
        mass=draw(st.floats(min_value=0.1, max_value=100.0)),
        gravity=values((3,)),
        wrench=values((k, 6)),
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
            ours = momentum_rate_batch(**args)
            reference = per_corner_oracle(**args)
        assert np.array_equal(bits(ours), bits(reference))

    @PROPERTY
    @given(kernel_inputs())
    def test_batch_equals_stacked_single_knot_calls(self, args):
        per_knot = ("p_com", "p_contacts", "gamma", "wrench")
        with np.errstate(all="ignore"):
            batched = momentum_rate_batch(**args)
            single = [
                momentum_rate_batch(
                    **{
                        **args,
                        **{name: args[name][k : k + 1] for name in per_knot},
                        "forces": [f[k : k + 1] for f in args["forces"]],
                    }
                )
                for k in range(args["p_com"].shape[0])
            ]
        assert np.array_equal(bits(batched), bits(np.concatenate(single)))
