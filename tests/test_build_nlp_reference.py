"""build_nlp against a reference builder that assembles every row knot by knot.

`reference_structure` is the per-knot loop form of the equality Jacobian,
the inequality rows and their bounds, the cost Hessian, the cost's linear
term and the row shift; it reads only the positions of single knots' quantities from the
layout's index blocks.  build_nlp builds the parts the schedule does not set
once per (layout, weights, period, rotations, corner offsets, pyramid) and
fills the rest vectorized over knots; both must give the same entries in the
same order, bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from centroidal_mpc import bundled_scenario, transcription
from centroidal_mpc.controller import horizon_problem
from centroidal_mpc.model import CentroidalState, ContactGeometry, PhysicalParams
from centroidal_mpc.plan import ContactPlan, NominalContact, nominal_com_trajectory
from centroidal_mpc.scenario import parse_scenario
from centroidal_mpc.sim import simulate
from centroidal_mpc.transcription import (
    ContactBox,
    DecisionLayout,
    FrictionPyramid,
    Weights,
    build_nlp,
)

N_KNOTS = 6
PERIOD = 0.1
PYRAMID = FrictionPyramid(0.8, 0.0, 60.0)
BOX = ContactBox((-0.15, -0.1, -0.02), (0.12, 0.15, 0.03))
PARAMS = PhysicalParams(mass=2.5, com_height_nominal=0.8)


def yaw(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def make_plan(geometries):
    contacts = tuple(
        NominalContact(f"c{i}", [0.0513 * i + 0.0123, 0.1071 - 0.2 * i, 0.0137 * i],
                       yaw(0.3 * i + 0.1), g, ((0.0, 1.0),))
        for i, g in enumerate(geometries)
    )
    return ContactPlan(contacts, 1.0)


def make_problem(plan, schedule, seed=0):
    rng = np.random.RandomState(seed)
    n_c = plan.n_contacts
    state = CentroidalState(rng.randn(3), rng.randn(3), rng.randn(3))
    measured = np.array([c.nominal_position for c in plan.contacts]) + 0.01 * rng.randn(n_c, 3)
    nominal = np.array([0.0, 0.0, 0.8]) + 0.05 * rng.randn(N_KNOTS + 1, 3)
    profile = 0.3 * rng.randn(N_KNOTS, 6)
    return build_nlp(
        plan, state, measured, np.asarray(schedule, dtype=bool), nominal, Weights(),
        PYRAMID, BOX, N_KNOTS, PERIOD, PARAMS, profile,
    ), (nominal, measured)


@pytest.fixture
def structure_builds(monkeypatch):
    """Every _HorizonStructure built during the test, starting from an empty memo."""
    built = []
    build = transcription._HorizonStructure

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(transcription, "_HorizonStructure", counting)
    monkeypatch.setattr(transcription, "_LAST_STRUCTURE", [None, None])
    return built


def reference_structure(plan, schedule, nominal_com_samples, measured):
    """Equality-Jacobian entries, inequality rows, cost terms and row shift, knot by knot.

    `measured` (n_c, 3) are the contact positions the knot-0 pin holds.
    """
    n_knots, period, mass = N_KNOTS, PERIOD, PARAMS.mass
    n_c = plan.n_contacts
    layout = DecisionLayout(n_knots, [c.geometry.n_corners for c in plan.contacts])
    schedule = np.asarray(schedule, dtype=bool)
    gamma = schedule.astype(float)
    rotations = np.array([c.orientation for c in plan.contacts])
    corner_offsets = [c.geometry.offsets_matrix() for c in plan.contacts]
    nominal_contacts = np.array([c.nominal_position for c in plan.contacts])
    weights = Weights()
    first_corner = np.cumsum((0,) + layout.corner_counts)

    def force(k, i, j):
        return layout.forces[k, first_corner[i] + j]

    c_lin = np.zeros(layout.size)
    constant = 0.0
    for k in range(n_knots + 1):
        c_lin[layout.com[k]] -= weights.com_tracking * nominal_com_samples[k]
        constant += 0.5 * float(np.sum(weights.com_tracking * nominal_com_samples[k] ** 2))
        for i in range(n_c):
            c_lin[layout.contacts[k, i]] -= weights.contact_reg * nominal_contacts[i]
            constant += 0.5 * float(np.sum(weights.contact_reg * nominal_contacts[i] ** 2))

    # The cost Hessian entry block by entry block; the CSR conversion adds
    # the blocks that share an entry in the order listed.
    hess_rows, hess_cols, hess_vals = [], [], []

    def put(rows, cols, values):
        hess_rows.append(rows)
        hess_cols.append(cols)
        hess_vals.append(values)

    for k in range(n_knots + 1):
        put(layout.com[k], layout.com[k], weights.com_tracking)
        put(layout.momentum[k, 3:], layout.momentum[k, 3:], weights.ang_momentum)
        for i in range(n_c):
            put(layout.contacts[k, i], layout.contacts[k, i], weights.contact_reg)
    # corner-force deviation from the contact's average: (I - 1/nv 11^T) x force_reg
    for i, nv in enumerate(layout.corner_counts):
        if nv < 2:
            continue
        centering = np.eye(nv) - np.full((nv, nv), 1.0 / nv)
        for k in range(n_knots):
            for j in range(nv):
                for w in range(nv):
                    put(force(k, i, j), force(k, i, w), centering[j, w] * weights.force_reg)
    rate = weights.force_rate / period**2
    for i, nv in enumerate(layout.corner_counts):
        for j in range(nv):
            for k in range(n_knots - 1):
                now, later = force(k, i, j), force(k + 1, i, j)
                put(now, now, rate)
                put(later, later, rate)
                put(now, later, -rate)
                put(later, now, -rate)
    cost_hess = sp.coo_matrix(
        (np.concatenate(hess_vals), (np.concatenate(hess_rows), np.concatenate(hess_cols))),
        shape=(layout.size, layout.size),
    ).tocsr()

    const_rows, const_cols, const_vals = [], [], []

    def put_diag(row0, col0, count, value):
        const_rows.append(row0 + np.arange(count))
        const_cols.append(col0 + np.arange(count))
        const_vals.append(np.full(count, value) if np.isscalar(value) else value)

    # Nine equality rows per knot, the CoM's and then the momentum's: the
    # knot-0 pin, then defect k's in the rows of knot k + 1.
    put_diag(0, layout.com[0, 0], 3, 1.0)
    put_diag(3, layout.momentum[0, 0], 6, 1.0)
    for k in range(n_knots):
        rb = 9 + 9 * k
        put_diag(rb, layout.com[k + 1, 0], 3, 1.0)
        put_diag(rb, layout.com[k, 0], 3, -1.0)
        put_diag(rb, layout.momentum[k, 0], 3, -period / mass)
        put_diag(rb + 3, layout.momentum[k + 1, 0], 6, 1.0)
        put_diag(rb + 3, layout.momentum[k, 0], 6, -1.0)
        for i in range(n_c):
            for j in range(layout.corner_counts[i]):
                put_diag(rb + 3, force(k, i, j)[0], 3, -period * gamma[k, i])

    const_entries = list(zip(*(np.concatenate(a) for a in (const_rows, const_cols, const_vals))))

    # The angular rows of step k hold -T gamma_ki (p_i + R_i c_j - r) x f_ij,
    # and component c of a x f is a[c+1] f[c+2] - a[c+2] f[c+1]: six
    # products (c, a, b, sign) of an arm component a and a force component
    # b.  Each is listed for the contact position, offset by R_i c_j, and
    # then, sign negated, for the CoM, corner by corner.
    products = [(c, (c + 1) % 3, (c + 2) % 3, 1.0) for c in range(3)]
    products += [(c, (c + 2) % 3, (c + 1) % 3, -1.0) for c in range(3)]
    bilinear = []  # (row, arm column, force column, scale, arm offset)
    for k in range(n_knots):
        for i in range(n_c):
            world = corner_offsets[i] @ rotations[i].T
            p_col = layout.contacts[k, i, 0]
            for j in range(layout.corner_counts[i]):
                f_col = force(k, i, j)[0]
                for c, a, b, sign in products:
                    row, scale = 9 + 9 * k + 6 + c, sign * (-period * gamma[k, i])
                    bilinear.append((row, p_col + a, f_col + b, scale, world[j, a]))
                for c, a, b, sign in products:
                    row, scale = 9 + 9 * k + 6 + c, -sign * (-period * gamma[k, i])
                    bilinear.append((row, layout.com[k, a], f_col + b, scale, 0.0))
    # of each cross product's 3x3 blocks, the six off-diagonal entries
    positions = {(row, col) for row, col, _ in const_entries}
    positions |= {(row, col) for row, arm, force, *_ in bilinear for col in (arm, force)}

    def eq_jac(x):
        # Entries of one position add up from 0.0 in the order listed: the
        # constant entries, then per term its derivatives by the arm and by
        # the force.
        sums = {}
        for row, col, value in const_entries:
            sums[row, col] = sums.get((row, col), 0.0) + value
        for row, arm, force, scale, offset in bilinear:
            sums[row, arm] = sums.get((row, arm), 0.0) + scale * x[force]
            sums[row, force] = sums.get((row, force), 0.0) + scale * (x[arm] + offset)
        rows, cols = np.array(list(sums)).T
        return sp.coo_matrix(
            (list(sums.values()), (rows, cols)), shape=(9 + 9 * n_knots, layout.size)
        ).tocsr()

    # Every pyramid, box and contact row exists for every schedule; the
    # schedule and the measured positions set only the bounds, (-inf, inf)
    # where a row does not apply.  `blocks` names each row by (kind, knot,
    # position in its block), so that the row of the same constraint one
    # knot later can be looked up.
    blocks = [("eq", k, r) for k in range(n_knots + 1) for r in range(9)]
    in_rows, in_cols, in_vals, lower, upper = [], [], [], [], []
    row = 0
    pyr_local = [PYRAMID.A @ rotations[i].T for i in range(n_c)]
    dead_contact = [not schedule[:, i].any() for i in range(n_c)]
    free = np.full(6, np.inf)
    for k in range(n_knots):
        position = 0
        for i in range(n_c):
            for j in range(layout.corner_counts[i]):
                in_rows.append(row + np.repeat(np.arange(6), 3))
                in_cols.append(np.tile(force(k, i, j), 6))
                in_vals.append(pyr_local[i].ravel())
                if dead_contact[i]:
                    # faces x - c z, y - c z and z held at zero pin the force
                    lower.append(np.array([0.0, -np.inf, 0.0, -np.inf, -np.inf, 0.0]))
                    upper.append(np.array([0.0, np.inf, 0.0, np.inf, np.inf, 0.0]))
                else:
                    lower.append(-free)
                    upper.append(PYRAMID.b)
                blocks += [("pyramid", k, position + r) for r in range(6)]
                position += 6
                row += 6
    movable = np.zeros(n_c, dtype=bool)
    for k in range(1, n_knots + 1):
        movable = movable | ~schedule[k - 1]
        for i in range(n_c):
            in_rows.append(row + np.repeat(np.arange(3), 3))
            in_cols.append(np.tile(layout.contacts[k, i], 3))
            in_vals.append(rotations[i].T.ravel())
            anchor = rotations[i].T @ nominal_contacts[i]
            if movable[i]:
                lower.append(anchor - BOX.upper)
                upper.append(anchor - BOX.lower)
            else:
                lower.append(-free[:3])
                upper.append(free[:3])
            blocks += [("box", k, 3 * i + r) for r in range(3)]
            row += 3
    # The contact rows: p_0 pinned to the measured position, then p_k -
    # p_k-1 held at zero while the contact's gate at step k - 1 is on.
    for k in range(n_knots + 1):
        for i in range(n_c):
            in_rows.append(row + np.arange(3))
            in_cols.append(layout.contacts[k, i])
            in_vals.append(np.ones(3))
            if k == 0:
                lower.append(measured[i])
                upper.append(measured[i])
            else:
                in_rows.append(row + np.arange(3))
                in_cols.append(layout.contacts[k - 1, i])
                in_vals.append(-np.ones(3))
                held = schedule[k - 1, i]
                lower.append(np.zeros(3) if held else -free[:3])
                upper.append(np.zeros(3) if held else free[:3])
            blocks += [("contact", k, 3 * i + r) for r in range(3)]
            row += 3
    index = {block: r for r, block in enumerate(blocks)}
    shift_rows = np.array(
        [index.get((kind, k + 1, r), own) for own, (kind, k, r) in enumerate(blocks)]
    )
    ineq_matrix = sp.coo_matrix(
        (np.concatenate(in_vals), (np.concatenate(in_rows), np.concatenate(in_cols))),
        shape=(row, layout.size),
    ).tocsr()
    return dict(
        eq_pattern=np.array(sorted(positions)).T,
        eq_jac=eq_jac,
        ineq_matrix=ineq_matrix,
        ineq_lower=np.concatenate(lower),
        ineq_upper=np.concatenate(upper),
        cost_hess=cost_hess,
        c_lin=c_lin,
        constant=constant,
        shift_rows=shift_rows,
    )


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def same_csr(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(bits(a.data), bits(b.data))
    )


def jacobian(problem, x):
    """The equality Jacobian at x: eq_jac's values in the declared pattern."""
    jac = problem.structure.eq_jac_pattern.copy()
    jac.data = problem.eq_jac(x)
    return jac


def hessian(problem, x, y):
    """The Lagrangian Hessian at (x, y): lagrangian_hess's values in the declared pattern."""
    hess = problem.structure.hess_pattern.copy()
    hess.data = problem.lagrangian_hess(x, y)
    return hess


def stored_entries(matrix):
    """(row, col) of every stored entry, explicit zeros included, row-major."""
    coo = matrix.tocsr().tocoo()
    return coo.row, coo.col


def assert_matches_reference(plan, schedule, seed=0):
    problem, (nominal, measured) = make_problem(plan, schedule, seed)
    ref = reference_structure(plan, schedule, nominal, measured)
    rng = np.random.RandomState(seed + 100)
    for _ in range(2):
        x = rng.randn(problem.dimension)
        jac = jacobian(problem, x)
        assert same_csr(jac, ref["eq_jac"](x))
        # every declared entry is stored, the gated-out ones as zeros
        for ours, theirs in zip(stored_entries(jac), ref["eq_pattern"]):
            assert np.array_equal(ours, theirs)
        hess = hessian(problem, x, np.zeros(problem.n_eq))
        # at zero multipliers, the cost Hessian plus the curvature entries
        # as zeros, some of them -0.0, which adding 0.0 makes +0.0
        assert np.array_equal(bits(hess.toarray() + 0.0), bits(ref["cost_hess"].toarray()))
        expected_cost = float(0.5 * x @ (hess @ x) + ref["c_lin"] @ x + ref["constant"])
        assert bits(problem.cost(x)) == bits(expected_cost)
        assert np.array_equal(bits(problem.cost_grad(x)), bits(hess @ x + ref["c_lin"]))
    structure = problem.structure
    assert same_csr(structure.ineq_matrix, ref["ineq_matrix"])
    assert problem.n_ineq == ref["ineq_matrix"].shape[0]
    assert np.array_equal(bits(problem.ineq_lower), bits(ref["ineq_lower"]))
    assert np.array_equal(bits(problem.ineq_upper), bits(ref["ineq_upper"]))
    for ours, theirs in zip(stored_entries(structure.ineq_matrix),
                            stored_entries(ref["ineq_matrix"])):
        assert np.array_equal(ours, theirs)
    assert np.array_equal(structure.shift_rows, ref["shift_rows"])
    return problem


RECT = ContactGeometry.rectangle(0.2, 0.1)
POINT = ContactGeometry.point()
ON, OFF = True, False


class TestMatchesKnotByKnotReference:
    def test_mixed_corner_counts_with_liftoff_and_touchdown(self):
        # rectangle lifts off mid-horizon; the point foot touches down
        schedule = [[ON, OFF], [ON, OFF], [ON, ON], [OFF, ON], [OFF, ON], [ON, ON]]
        assert_matches_reference(make_plan([RECT, POINT]), schedule)

    def test_contact_dead_over_whole_horizon(self):
        schedule = [[OFF, ON]] * 3 + [[OFF, OFF]] * 3
        assert_matches_reference(make_plan([RECT, POINT]), schedule, seed=1)

    def test_two_dead_contacts_beside_an_always_on_one(self):
        schedule = [[ON, OFF, OFF]] * N_KNOTS
        assert_matches_reference(make_plan([POINT, POINT, RECT]), schedule, seed=2)

    def test_flight_phase_and_single_contact(self):
        schedule = [[ON], [ON], [OFF], [OFF], [ON], [ON]]
        assert_matches_reference(make_plan([RECT]), schedule, seed=3)


class TestLayoutTemplateMemo:
    def test_alternating_layouts_each_get_their_own_jacobian(self):
        one_leg = make_plan([POINT])
        two_legs = make_plan([RECT, POINT])
        first = assert_matches_reference(one_leg, [[ON]] * 2 + [[OFF]] * 4)
        assert_matches_reference(two_legs, [[ON, OFF]] * 3 + [[ON, ON]] * 3, seed=1)
        again = assert_matches_reference(one_leg, [[ON]] * 2 + [[OFF]] * 4)
        x = np.random.RandomState(9).randn(first.dimension)
        assert same_csr(jacobian(first, x), jacobian(again, x))

    def test_shared_template_arrays_are_read_only(self, structure_builds):
        plan = make_plan([RECT, POINT])
        problem, _ = make_problem(plan, [[ON, OFF]] * N_KNOTS)
        structure = transcription._horizon_structure(N_KNOTS, Weights(), PERIOD, plan, PYRAMID)
        # the accessor returns the structure build_nlp built, without a rebuild
        assert len(structure_builds) == 1 and structure is structure_builds[0]
        assert problem.structure is structure
        hess = structure.hess_pattern
        jac = structure.eq_jac_pattern
        shared = [structure.eq_slots, jac.data, jac.indices, jac.indptr,
                  structure.linear_sources, hess.data, hess.indices, hess.indptr,
                  structure.bilinear_rows, structure.bilinear_arms, structure.bilinear_forces,
                  structure.bilinear_signs, structure.bilinear_gates, structure.bilinear_offsets,
                  structure.shift_rows, structure.qp_workspace.perm]
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # returned values are the caller's own to modify
        x = np.zeros(problem.dimension)
        assert problem.eq_jac(x).flags.writeable
        assert problem.lagrangian_hess(x, np.ones(problem.n_eq)).flags.writeable
        # the inequality matrix is the template's, shared by every schedule
        ineq = structure.ineq_matrix
        for array in (ineq.data, ineq.indices, ineq.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_rows_are_identical_for_every_schedule_of_a_layout(self):
        # every schedule of two contacts over three knots, dead contacts
        # included: the schedule sets the inequality bounds and nothing else
        n_knots = 3
        plan = make_plan([RECT, POINT])
        first, bounds, pyramid_and_box = None, set(), set()
        for bits_ in range(2 ** (2 * n_knots)):
            schedule = (bits_ >> np.arange(2 * n_knots) & 1).astype(bool).reshape(n_knots, 2)
            problem = build_nlp(
                plan, CentroidalState(np.zeros(3), np.zeros(3), np.zeros(3)),
                np.array([c.nominal_position for c in plan.contacts]), schedule,
                np.zeros((n_knots + 1, 3)), Weights(), PYRAMID, BOX, n_knots, PERIOD, PARAMS,
            )
            if first is None:
                first = problem
            n_rows = 6 * 5 * n_knots + 3 * 2 * n_knots
            assert problem.n_ineq == first.n_ineq == n_rows + 3 * 2 * (n_knots + 1)
            assert problem.structure is first.structure
            lower, upper = bits(problem.ineq_lower), bits(problem.ineq_upper)
            bounds.add((lower.tobytes(), upper.tobytes()))
            pyramid_and_box.add((lower[:n_rows].tobytes(), upper[:n_rows].tobytes()))
        # the contact rows carry every gate, so every schedule has its own
        # bounds; of the pyramid and box rows, five bound sets per contact:
        # dead, or bearing load with the box from knot 1, 2, 3 or never
        assert len(bounds) == 2 ** (2 * n_knots)
        assert len(pyramid_and_box) == 5 * 5


def dense_lagrangian_hessian(problem, x, y, h=1e-6):
    """Column by column central differences of cost_grad + eq_jac' y."""
    def grad(z):
        return problem.cost_grad(z) + jacobian(problem, z).T @ y

    out = np.empty((problem.dimension, problem.dimension))
    for c in range(problem.dimension):
        e = np.zeros(problem.dimension)
        e[c] = h
        out[:, c] = (grad(x + e) - grad(x - e)) / (2.0 * h)
    return out


class TestLagrangianHessian:
    @pytest.mark.parametrize("geometries, schedule", [
        ([RECT, POINT], [[ON, OFF], [ON, OFF], [ON, ON], [OFF, ON], [OFF, ON], [ON, ON]]),
        ([RECT, POINT], [[OFF, ON]] * 3 + [[OFF, OFF]] * 3),
        ([RECT], [[ON], [ON], [OFF], [OFF], [ON], [ON]]),
    ])
    def test_matches_dense_finite_differences(self, geometries, schedule):
        problem, _ = make_problem(make_plan(geometries), schedule)
        rng = np.random.RandomState(5)
        x = rng.randn(problem.dimension)
        y = 300.0 * rng.randn(problem.n_eq)
        hess = hessian(problem, x, y)
        dense = dense_lagrangian_hessian(problem, x, y)
        scale = np.maximum(1.0, np.abs(dense))
        assert np.max(np.abs(hess.toarray() - dense) / scale) < 1e-6

    def test_curvature_couples_variables_of_one_stage(self):
        # so it stays inside the band of the stage-wise ordering
        problem, _ = make_problem(make_plan([RECT, POINT]), [[ON, ON]] * N_KNOTS)
        layout = DecisionLayout(N_KNOTS, [4, 1])
        x = np.zeros(problem.dimension)
        curvature = (
            hessian(problem, x, np.ones(problem.n_eq)) - hessian(problem, x, np.zeros(problem.n_eq))
        ).tocoo()
        assert curvature.nnz == 4 * 6 * N_KNOTS * 5  # (f, p), (f, r) and transposes
        knot = np.concatenate([
            np.repeat(np.arange(N_KNOTS + 1), layout.state_dim),
            np.repeat(np.arange(N_KNOTS), layout.control_dim),
        ])
        assert np.array_equal(knot[curvature.row], knot[curvature.col])
        position = np.empty(problem.dimension, dtype=int)
        workspace = problem.structure.qp_workspace
        position[workspace.perm] = np.arange(problem.dimension)
        spread = np.abs(position[curvature.row] - position[curvature.col])
        assert spread.max() <= workspace.width

    @pytest.mark.parametrize("geometries, width", [
        ([POINT], 15), ([RECT, POINT], 30), ([RECT, RECT], 39),
    ])
    def test_band_is_one_stage_wide(self, geometries, width):
        # every coupling between knots reaches at most one stage ahead
        problem, _ = make_problem(make_plan(geometries), [[ON] * len(geometries)] * N_KNOTS)
        layout = DecisionLayout(N_KNOTS, [g.n_corners for g in geometries])
        width_of = problem.structure.qp_workspace.width
        assert width_of == layout.state_dim + layout.control_dim == width

    def test_pattern_is_identical_for_every_schedule_of_a_layout(self):
        # every schedule of two contacts over three knots, dead contacts
        # included; gated-out blocks stay as explicit zeros
        n_knots = 3
        plan = make_plan([RECT, POINT])
        layout = DecisionLayout(n_knots, [4, 1])
        rng = np.random.RandomState(8)
        x = rng.randn(layout.size)
        y = rng.randn(9 * (n_knots + 1))
        first = None
        for bits_ in range(2 ** (2 * n_knots)):
            schedule = (bits_ >> np.arange(2 * n_knots) & 1).astype(bool).reshape(n_knots, 2)
            problem = build_nlp(
                plan, CentroidalState(np.zeros(3), np.zeros(3), np.zeros(3)),
                np.array([c.nominal_position for c in plan.contacts]), schedule,
                np.zeros((n_knots + 1, 3)), Weights(), PYRAMID, BOX, n_knots, PERIOD, PARAMS,
            )
            pattern = problem.structure.hess_pattern
            assert pattern.format == "csc" and pattern.has_canonical_format
            if first is None:
                first = pattern
            assert np.array_equal(pattern.indptr, first.indptr)
            assert np.array_equal(pattern.indices, first.indices)
            hess = hessian(problem, x, y)
            # a contact gated out at knot k adds no curvature there
            for k, i in zip(*np.nonzero(~schedule)):
                for j in range(layout.corner_counts[i]):
                    corner = sum(layout.corner_counts[:i]) + j
                    block = hess[layout.forces[k, corner]][:, layout.contacts[k, i]]
                    assert block.nnz == 6 and not np.any(block.data)

    def test_alternating_layouts_each_get_their_own_hessian(self, structure_builds):
        one_leg = make_plan([POINT])
        two_legs = make_plan([RECT, POINT])
        first, _ = make_problem(one_leg, [[ON]] * N_KNOTS)
        y = np.random.RandomState(3).randn(first.n_eq)
        x = np.zeros(first.dimension)
        expected = hessian(first, x, y)
        other, _ = make_problem(two_legs, [[ON, ON]] * N_KNOTS, seed=1)
        assert other.lagrangian_hess(np.zeros(other.dimension), np.ones(other.n_eq)
                                     ).shape == other.structure.hess_pattern.data.shape
        again, _ = make_problem(one_leg, [[ON]] * N_KNOTS)
        assert same_csr(hessian(again, x, y).tocsr(), expected.tocsr())
        # the memo holds the one-leg structure, so the accessor builds nothing
        structure = transcription._horizon_structure(N_KNOTS, Weights(), PERIOD, one_leg, PYRAMID)
        assert len(structure_builds) == 3 and structure is structure_builds[-1]
        pattern = structure.hess_pattern
        for array in (pattern.indices, pattern.indptr, structure.curvature_slots, pattern.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_alternating_weights_and_periods_each_get_their_own_cost_hessian(
        self, structure_builds
    ):
        plan = make_plan([RECT, POINT])
        layout = DecisionLayout(N_KNOTS, [4, 1])
        schedule = np.array([[ON, OFF]] * 3 + [[ON, ON]] * 3)
        other = Weights(force_reg=0.7, force_rate=(0.02, 0.03, 0.05), ang_momentum=4.0,
                        com_tracking=50.0, contact_reg=300.0)
        # consecutive keys differ in the period alone or in the weights alone
        keys = [(Weights(), PERIOD), (Weights(), 0.05), (other, 0.05), (other, PERIOD),
                (Weights(), PERIOD)]
        x = np.random.RandomState(4).randn(layout.size)
        hessians = []
        for weights, period in keys:
            problem = build_nlp(
                plan, CentroidalState(np.zeros(3), np.zeros(3), np.zeros(3)),
                np.array([c.nominal_position for c in plan.contacts]), schedule,
                np.zeros((N_KNOTS + 1, 3)), weights, PYRAMID, BOX, N_KNOTS, period, PARAMS,
            )
            cost_hess = hessian(problem, x, np.zeros(problem.n_eq))
            rows, cols, values = transcription._cost_hessian(
                layout, weights, period, plan.corner_contact
            )
            expected = np.zeros((layout.size, layout.size))
            np.add.at(expected, (rows, cols), values)
            assert np.array_equal(cost_hess.toarray(), expected)
            hessians.append(cost_hess.toarray().tobytes())
        # every change of key rebuilds, and four keys give four cost Hessians
        assert len(structure_builds) == len(keys)
        assert len(set(hessians)) == 4 and hessians[-1] == hessians[0]


class TestHorizonStructureTraffic:
    @pytest.mark.parametrize("name", ["one_leg_jump", "two_leg_walk_run"])
    def test_one_build_per_fresh_run_and_none_on_a_repeat(self, structure_builds, name):
        config = parse_scenario(bundled_scenario(name), name=name)
        traj, _ = simulate(config)
        assert traj.n_steps > 1
        assert len(structure_builds) == 1
        simulate(config)
        assert len(structure_builds) == 1

    def test_problems_of_a_structure_share_its_layout_and_buffers(self, structure_builds):
        # The structure, with its layout, QP workspace and the SQP's
        # Jacobian buffers, is one object for every schedule; a new layout
        # comes with a new structure only.
        one_leg, two_legs = make_plan([POINT]), make_plan([RECT, POINT])
        problems = [make_problem(one_leg, [[ON]] * 2 + [[OFF]] * 4, seed=seed)[0]
                    for seed in range(3)]
        structure = structure_builds[-1]
        assert len(structure_builds) == 1
        for problem in problems:
            assert problem.structure is structure
        assert structure.layout.corner_counts == (1,)
        other, _ = make_problem(two_legs, [[ON, OFF]] * 3 + [[ON, ON]] * 3)
        assert len(structure_builds) == 2
        assert other.structure is structure_builds[-1] is not structure
        assert other.structure.layout is not structure.layout
        assert other.structure.layout.corner_counts == (4, 1)
        assert other.structure.qp_workspace is not structure.qp_workspace
        assert other.structure.jacobians is not structure.jacobians


def bundled_problem(name):
    """The horizon problem of a bundled scenario at t = 0, as check-derivatives builds it."""
    config = parse_scenario(bundled_scenario(name), name=name)
    plan, params = config.plan, config.params
    spline = nominal_com_trajectory(plan, params)
    state = CentroidalState(spline.position(0.0), np.zeros(3), np.zeros(3))
    return horizon_problem(
        state, plan.nominal_positions, plan, 0.0, np.zeros(6), config.mpc, params, spline
    )[0]


def dense_eq_jacobian(problem, x, h=1e-6):
    """Column by column central differences of eq."""
    out = np.empty((problem.n_eq, problem.dimension))
    for c in range(problem.dimension):
        e = np.zeros(problem.dimension)
        e[c] = h
        out[:, c] = (problem.eq(x + e) - problem.eq(x - e)) / (2.0 * h)
    return out


class TestBilinearDefects:
    @pytest.mark.parametrize("name", ["liftoff_touchdown", "one_leg_jump", "two_leg_walk_run"])
    def test_second_order_remainder_is_the_curvature(self, name):
        # The defects are affine plus bilinear, so y'(eq(x + d) - eq(x) -
        # J(x) d) equals d'(H(x, y) - H(x, 0)) d / 2 up to rounding.  A
        # missing, misplaced or mis-signed bilinear term breaks the equality;
        # finite-difference checks would let it pass at their 1e-5.
        if name == "liftoff_touchdown":
            schedule = [[ON, OFF], [ON, OFF], [ON, ON], [OFF, ON], [OFF, ON], [ON, ON]]
            problem, _ = make_problem(make_plan([RECT, POINT]), schedule)
        else:
            problem = bundled_problem(name)
        rng = np.random.RandomState(6)
        no_multipliers = np.zeros(problem.n_eq)
        for _ in range(3):
            x, d = rng.randn(2, problem.dimension)
            y = 300.0 * rng.randn(problem.n_eq)
            jac = jacobian(problem, x)
            eq_x, eq_moved = problem.eq(x), problem.eq(x + d)
            remainder = y @ (eq_moved - eq_x - jac @ d)
            curvature = hessian(problem, x, y) - hessian(problem, x, no_multipliers)
            expected = 0.5 * d @ (curvature @ d)
            scale = np.abs(y) @ (np.abs(eq_moved) + np.abs(eq_x) + abs(jac) @ np.abs(d))
            assert abs(expected) > 1e-5 * scale
            assert abs(remainder - expected) <= 1e-13 * scale

    def test_corner_offsets_set_their_own_jacobian(self, structure_builds):
        # same layout and rotations, other corners: the table holds each
        # corner's R_i c_j, so one plan must not get the other's structure
        wide = make_plan([RECT, POINT])
        long = make_plan([ContactGeometry.rectangle(0.3, 0.06), POINT])
        rng = np.random.RandomState(12)
        for plan in (wide, long, wide):
            problem, _ = make_problem(plan, [[ON, ON]] * N_KNOTS)
            x = rng.randn(problem.dimension)
            jac = jacobian(problem, x).toarray()
            assert np.abs(jac - dense_eq_jacobian(problem, x)).max() < 1e-6
        assert len(structure_builds) == 3
