"""Multiple-shooting transcription of the centroidal control problem.

Decision variables per knot k in [0, N]: CoM position, 6-vector momentum and
one location per contact; per knot k in [0, N-1]: corner forces and one
sliding velocity per contact.  Equality constraints are the explicit-Euler
defects between consecutive knots plus a pin of knot 0 to the measured state.
Inequalities are friction-pyramid rows on every corner force and box rows
keeping each contact near its nominal location; FrictionPyramid and
ContactBox own their rows, checks and clamps.  All first derivatives and
the Hessian of the Lagrangian are analytic and sparse.

The structure of a horizon problem (its DecisionLayout, every constraint
row, the sparsity patterns of the Jacobians and of the Lagrangian Hessian,
the row shift, the QP workspace with its variable ordering and the SQP's
JacobianBuffers) is built once per (layout, weights, period, contact
rotations and corner arms, friction coefficient) and shared by every
problem of that key, read-only apart from the workspace's and the
buffers' values, which every solve overwrites.  The cost Hessian lives
in the Lagrangian Hessian's pattern, as the values it holds, and nowhere
else.  The contact schedule sets only values and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .model import (
    CentroidalState,
    PhysicalParams,
    _as_vector,
    euler_step_batch,
)
from .plan import ContactPlan
from .qp import QpWorkspace


def _as_diag3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.size == 1:
        arr = np.full(3, arr[0])
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a scalar or 3 diagonal entries")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} diagonal entries must be positive, got {arr}")
    return arr


@dataclass(frozen=True)
class Weights:
    """Diagonal weights of the four cost terms (positive definite)."""

    force_reg: np.ndarray = 0.1
    force_rate: np.ndarray = 0.01
    ang_momentum: np.ndarray = 10.0
    com_tracking: np.ndarray = 100.0
    contact_reg: np.ndarray = 1000.0

    def __post_init__(self):
        for name in ("force_reg", "force_rate", "ang_momentum", "com_tracking", "contact_reg"):
            object.__setattr__(self, name, _as_diag3(getattr(self, name), name))


@dataclass(frozen=True)
class FrictionPyramid:
    """Inner pyramid approximation of the friction cone with normal-force bounds.

    Half-space rows A (R^T f) <= b on the contact-frame force: the faces
    x - c z, -x - c z, y - c z and -y - c z with the conservative slope
    c = mu / sqrt(2), then -z <= -f_min and z <= f_max.  A and b are derived
    once from (mu, f_min, f_max) and are read-only.
    """

    mu: float
    f_min: float
    f_max: float
    A: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    # Faces x - c z, y - c z and z: their normals are independent, so holding
    # all three at zero holds the contact-frame force, and with it the force,
    # at zero.
    PIN_FACES = (0, 2, 5)

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"friction coefficient must be positive, got {self.mu}")
        if not (0.0 <= self.f_min < self.f_max):
            raise ValueError(f"need 0 <= f_min < f_max, got [{self.f_min}, {self.f_max}]")
        c = self.slope
        A = np.array([[1.0, 0.0, -c], [-1.0, 0.0, -c], [0.0, 1.0, -c], [0.0, -1.0, -c],
                      [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
        b = np.array([0.0, 0.0, 0.0, 0.0, -self.f_min, self.f_max])
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def slope(self) -> float:
        """Tangential face slope c = mu / sqrt(2)."""
        return self.mu / np.sqrt(2.0)

    def violation(self, force_world, rotation) -> float:
        f_local = np.asarray(rotation, dtype=float).T @ _as_vector(force_world, 3, "force")
        return float(np.max(self.A @ f_local - self.b))

    def clamp(self, local) -> np.ndarray:
        """Contact-frame forces (..., 3) clamped componentwise into the pyramid.

        The normal component goes into [f_min, f_max] first, then each
        tangential component against its two faces.  The result is feasible
        for any input, and a force already inside comes back unchanged.
        """
        out = np.array(local, dtype=float)
        out[..., 2] = np.clip(out[..., 2], self.f_min, self.f_max)
        cap = self.slope * out[..., 2, None]
        out[..., :2] = np.clip(out[..., :2], -cap, cap)
        return out


@dataclass(frozen=True)
class ContactBox:
    """Bounds [lower, upper] on a contact's offset R^T (nominal - position)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _as_vector(self.lower, 3, "lower")
        upper = _as_vector(self.upper, 3, "upper")
        if np.any(lower > upper):
            raise ValueError(f"box lower {lower} exceeds upper {upper}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @staticmethod
    def planar(half_x: float, half_y: float) -> "ContactBox":
        """Symmetric x/y bounds with the z offset pinned to the contact plane."""
        return ContactBox((-half_x, -half_y, 0.0), (half_x, half_y, 0.0))

    @staticmethod
    def _offset(position, nominal, rotation) -> np.ndarray:
        R = np.asarray(rotation, dtype=float)
        return R.T @ (_as_vector(nominal, 3, "nominal") - _as_vector(position, 3, "position"))

    def gap(self, position, nominal, rotation) -> float:
        """Largest bound violation of the offset: positive outside the box."""
        offset = self._offset(position, nominal, rotation)
        return float(np.max(np.maximum(self.lower - offset, offset - self.upper)))

    def clamp_position(self, position, nominal, rotation) -> np.ndarray:
        """Nearest position (in the contact frame) whose offset lies in the box."""
        clipped = np.clip(self._offset(position, nominal, rotation), self.lower, self.upper)
        return np.asarray(nominal, dtype=float) - np.asarray(rotation, dtype=float) @ clipped


class DecisionLayout:
    """Index map of the decision vector, the only place that knows its order.

    States knot-major first ([com, momentum, contact positions] per knot),
    then controls knot-major ([corner forces per contact, contact
    velocities] per knot).  Each read-only block holds the position in the
    vector of every entry of one quantity: `com` (N+1, 3), `momentum`
    (N+1, 6), `contacts` (N+1, n_c, 3), `forces` (N, corners, 3), with the
    corners of all contacts numbered in the order of their columns, and
    `velocities` (N, n_c, 3).  x[block] reads a quantity and x[block] = v
    writes it.  The equality rows of the transcription are numbered like
    the states they define, so the state blocks number those rows too.
    `shift` advances a vector by one knot, x[shift], with the last knot of
    the states and of the controls repeated.
    """

    def __init__(self, n_knots: int, corner_counts: Sequence[int]):
        if n_knots < 1:
            raise ValueError(f"need at least one step, got N={n_knots}")
        if not corner_counts:
            raise ValueError("need at least one contact")
        self.n_knots = int(n_knots)
        self.corner_counts = tuple(int(c) for c in corner_counts)
        if any(c < 1 for c in self.corner_counts):
            raise ValueError(f"corner counts must be >= 1, got {self.corner_counts}")
        self.n_contacts = len(self.corner_counts)
        n, n_c, n_v = self.n_knots, self.n_contacts, sum(self.corner_counts)
        self.state_dim = 9 + 3 * n_c
        self.control_dim = 3 * n_v + 3 * n_c
        self.n_state_vars = (n + 1) * self.state_dim
        self.size = self.n_state_vars + n * self.control_dim
        index = np.arange(self.size)
        states = index[: self.n_state_vars].reshape(n + 1, self.state_dim)
        controls = index[self.n_state_vars :].reshape(n, self.control_dim)
        self.com = states[:, 0:3]
        self.momentum = states[:, 3:9]
        self.contacts = states[:, 9:].reshape(n + 1, n_c, 3)
        self.forces = controls[:, : 3 * n_v].reshape(n, n_v, 3)
        self.velocities = controls[:, 3 * n_v :].reshape(n, n_c, 3)
        self.shift = np.concatenate([
            np.concatenate([block[1:], block[-1:]]).ravel() for block in (states, controls)
        ])
        for block in (self.com, self.momentum, self.contacts, self.forces, self.velocities,
                      self.shift):
            block.flags.writeable = False

    def stage_order(self) -> np.ndarray:
        """Permutation listing the stages from the last knot to the first.

        It is the reverse of the list [h_ang_k, com_k, h_lin_k, p_k, f_k,
        v_k] for k = 0..N-1, then [h_ang_N, com_N, h_lin_N, p_N].  In that
        list every coupling between stages goes from a slot of stage k to
        the same or a later slot of stage k + 1: the CoM row couples com_k+1
        with h_lin_k, the linear-momentum row h_lin_k+1 with f_k, the
        angular-momentum row h_ang_k+1 with h_ang_k, com_k, p_k and f_k, the
        contact-position row p_k+1 with v_k, and the force-rate cost f_k
        with f_k+1.  So the condensed QP matrices are banded with a width of
        one stage, state_dim + control_dim.  Reversed, their Cholesky factor
        eliminates the horizon from the terminal stage, as a Riccati
        recursion does; factored forwards, the same band fills with values
        that underflow to subnormals, which cost far more time per
        operation.
        """
        n = self.n_knots
        contacts = self.contacts.reshape(n + 1, -1)
        states = np.concatenate(
            [self.momentum[:, 3:], self.com, self.momentum[:, :3], contacts], axis=1
        )
        controls = np.concatenate(
            [self.forces.reshape(n, -1), self.velocities.reshape(n, -1)], axis=1
        )
        stages = np.concatenate([states[:-1], controls], axis=1)
        return np.concatenate([stages.ravel(), states[-1]])[::-1].copy()

    def state_arrays(self, x: np.ndarray):
        """(com (N+1,3), momentum (N+1,6), contact positions (N+1,n_c,3))."""
        return x[self.com], x[self.momentum], x[self.contacts]


class JacobianBuffers:
    """The SQP's constraint matrices on one problem's patterns, set up once.

    `eq_jac` is a CSR matrix on eq_jac_pattern's index arrays with values of
    its own, and `eq_jac_t` and `ineq_t` the CSC views of eq_jac and of
    ineq_matrix transposed, made once on their arrays.  `a_values` holds
    the values of every SQP subproblem's constraint matrix [eq_jac;
    ineq_matrix]: the equality Jacobian's, then ineq_matrix's.  `write`
    puts one iterate's equality-Jacobian values into eq_jac and the head of
    a_values.  They are two copies, because scipy copies a CSR's values
    when they are a view shorter than half its base array.  The buffers
    hold one iterate at a time: a solve overwrites them.
    """

    def __init__(self, eq_jac_pattern: sp.csr_matrix, ineq_matrix: sp.csr_matrix):
        self.eq_jac = sp.csr_matrix(
            (np.zeros(eq_jac_pattern.nnz), eq_jac_pattern.indices, eq_jac_pattern.indptr),
            shape=eq_jac_pattern.shape,
        )
        self.eq_jac_t, self.ineq_t = self.eq_jac.T, ineq_matrix.T
        self.a_values = np.concatenate([self.eq_jac.data, ineq_matrix.data])

    def write(self, eq_jac_values: np.ndarray):
        self.eq_jac.data[:] = self.a_values[: eq_jac_values.size] = eq_jac_values


@dataclass
class NlpProblem:
    """Callbacks and bounds of one transcribed problem.

    The problem declares the stored entries of its two derivative matrices
    once, as pattern matrices: `hess_pattern` (CSC) for the Lagrangian
    Hessian and `eq_jac_pattern` (CSR) for the equality Jacobian, in
    canonical format (sorted indices, no duplicates; ValueError otherwise),
    explicit zeros counting as entries.  The callbacks return value vectors
    in the order of those stored entries, never matrices, so the patterns
    hold at every point.

    Equality constraints are eq(x) = 0, one per row of eq_jac_pattern
    (`n_eq`), and eq_jac(x) returns their Jacobian's values.  A problem
    without them leaves eq_jac_pattern None: its pattern reads as a (0,
    dimension) matrix, and eq and eq_jac become callbacks that return empty
    arrays, so the solver takes one path with or without equality rows.
    Inequalities are linear interval rows, data rather than callbacks:
    ineq_lower <= ineq_matrix @ x <= ineq_upper, with ineq_matrix canonical
    CSR.  A problem without them reads as a (0, dimension) matrix and empty
    bounds.

    `lagrangian_hess(x, y_eq)` returns the values of the Hessian of cost(x)
    + y_eq' eq(x) at x; at y_eq = 0 it is the Gauss-Newton Hessian.  It is
    the only curvature the solver asks for; the linear inequalities add
    none.

    `qp_workspace` is the QpWorkspace of every SQP subproblem: its P has
    hess_pattern's entries, its A eq_jac_pattern's rows over ineq_matrix's,
    and the subproblems bring values only.  When not given, it is set up
    from those matrices, equilibrated on the values they hold with the cost
    unscaled, in the natural variable order.  build_nlp gives its
    structure's, equilibrated the same way and ordered so that the Hessian
    plus the constraint Jacobians' Gram matrix is narrow-banded.

    `jacobians` are the JacobianBuffers the SQP writes each iterate's
    equality Jacobian into; set up from the patterns when not given.
    build_nlp gives its structure's, shared by every problem of the
    structure like the QP workspace.

    `shift_rows`, when set, lists per constraint row (equality rows, then
    inequality rows) the row of the same constraint one knot later; the
    rows of the last knot list themselves.  Multipliers y of one control
    instant, read as y[shift_rows], seed those of the next, as
    controller.shift_warm_start seeds x.

    `layout`, when set, is the DecisionLayout that numbers x.
    """

    dimension: int
    cost: Callable[[np.ndarray], float]
    cost_grad: Callable[[np.ndarray], np.ndarray]
    lagrangian_hess: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_pattern: sp.csc_matrix
    eq: Callable[[np.ndarray], np.ndarray] | None = None
    eq_jac: Callable[[np.ndarray], np.ndarray] | None = None
    eq_jac_pattern: sp.csr_matrix | None = None
    ineq_matrix: sp.csr_matrix | None = None
    ineq_lower: np.ndarray | None = None
    ineq_upper: np.ndarray | None = None
    shift_rows: np.ndarray | None = None
    qp_workspace: QpWorkspace | None = None
    jacobians: JacobianBuffers | None = None
    layout: DecisionLayout | None = None

    def __post_init__(self):
        if self.eq_jac_pattern is None:
            self.eq_jac_pattern = sp.csr_matrix((0, self.dimension))
            self.eq = self.eq_jac = lambda x: np.zeros(0)
        if self.ineq_matrix is None:
            self.ineq_matrix = sp.csr_matrix((0, self.dimension))
            self.ineq_lower = self.ineq_upper = np.zeros(0)
        for name, fmt in (("hess_pattern", "csc"), ("eq_jac_pattern", "csr"),
                          ("ineq_matrix", "csr")):
            matrix = getattr(self, name)
            if not (sp.issparse(matrix) and matrix.format == fmt and matrix.has_canonical_format):
                raise ValueError(f"{name} is not a {fmt.upper()} matrix in canonical format")
        if self.qp_workspace is None:
            self.qp_workspace = QpWorkspace(
                self.hess_pattern, sp.vstack([self.eq_jac_pattern, self.ineq_matrix], format="csr")
            )
        if self.jacobians is None:
            self.jacobians = JacobianBuffers(self.eq_jac_pattern, self.ineq_matrix)

    @property
    def n_eq(self) -> int:
        return self.eq_jac_pattern.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.ineq_matrix.shape[0]


def _flat_entries(terms) -> list:
    """Sparse entries listed term by term, as one flat array per tuple position.

    A term is a tuple of arrays, such as (rows, cols, values), broadcast
    against each other: it lists one entry per element of the broadcast.
    """
    columns = zip(*(np.broadcast_arrays(*term) for term in terms))
    return [np.concatenate([a.ravel() for a in column]) for column in columns]


def _cost_hessian(
    layout: DecisionLayout, weights: Weights, period: float, corner_contact: np.ndarray
) -> list:
    """Entries (rows, cols, values) of the summed quadratic costs' Hessian, term by term.

    Terms share entries (the force diagonal: centering, then the rates to
    the next and to the previous step); _add_lagrangian_hessian adds them
    in the order listed here.
    """
    ang_momentum = layout.momentum[:, 3:]
    terms = [
        (layout.com, layout.com, weights.com_tracking),
        (ang_momentum, ang_momentum, weights.ang_momentum),
        (layout.contacts, layout.contacts, weights.contact_reg),
    ]
    # Corner-force deviation from the per-contact average: (I - 1/nv 11^T) x Lambda.
    for i in range(layout.n_contacts):
        forces = layout.forces[:, corner_contact == i]
        nv = forces.shape[1]
        if nv > 1:
            centering = np.eye(nv) - np.full((nv, nv), 1.0 / nv)
            terms.append((forces[:, :, None], forces[:, None, :],
                          centering[:, :, None] * weights.force_reg))
    rate = weights.force_rate / period**2
    now, later = layout.forces[:-1], layout.forces[1:]
    terms += [(now, now, rate), (later, later, rate), (now, later, -rate), (later, now, -rate)]
    return _flat_entries(terms)


def _linear_values(period: float, mass: float, gamma: np.ndarray) -> np.ndarray:
    """Values of the equality Jacobian's linear entries, by _HorizonStructure.linear_sources.

    1 and -1 (the identity chains), -T/m (the momentum in the CoM rows),
    then -T gamma and -T (1 - gamma) per (step, contact): the gated corner
    forces in the linear momentum rows and the gated velocities in the
    contact rows.
    """
    return np.concatenate(
        [[1.0, -1.0, -period / mass], (-period * gamma).ravel(), (-period * (1.0 - gamma)).ravel()]
    )


def _number_pattern(rows: np.ndarray, cols: np.ndarray, shape: tuple):
    """CSR structure of a fixed (row, col) pattern and each entry's slot in it.

    Returns (indices, indptr, slots), columns sorted within each row;
    repeated entries share one slot, and data[slots] = values fills the
    matrix.  Given (cols, rows) and the transposed shape, it numbers the CSC
    structure instead.
    """
    n_cols = shape[1]
    keys = rows.astype(np.int64) * n_cols + cols
    unique = np.unique(keys)
    indices = (unique % n_cols).astype(np.int32)
    indptr = np.searchsorted(unique // n_cols, np.arange(shape[0] + 1)).astype(np.int32)
    return indices, indptr, np.searchsorted(unique, keys)


class _HorizonStructure:
    """Everything of a horizon problem that its contact schedule does not set.

    Built by _horizon_structure once per (layout, weights, period, the
    plan's contact rotations and corner arms, friction coefficient) and
    shared by every problem of that key, so every array is read-only.  The
    schedule, the measured state and the references set only values and
    bounds (build_nlp, _inequality_bounds).  It holds the table of the
    defects' bilinear terms, which both of their derivatives read,
    NlpProblem's `eq_jac_pattern`, `hess_pattern` and `ineq_matrix` (see the
    _add_* methods), `shift_rows`, `qp_workspace` and `jacobians`, and the
    `layout` that numbers its problems.  The cost Hessian is stored once, as
    the values of hess_pattern, and the variable ordering once, as the
    workspace's `perm` (DecisionLayout.stage_order).  The QP workspace and
    the SQP's JacobianBuffers are the structure's mutable scratch: every
    solve of one of its problems overwrites them.
    """

    def __init__(
        self,
        layout: DecisionLayout,
        weights: Weights,
        period: float,
        plan: ContactPlan,
        pyramid: FrictionPyramid,
    ):
        self.layout = layout
        self._add_bilinear_table(layout, plan)
        self._add_eq_jacobian(layout, plan.corner_contact)
        self._add_lagrangian_hessian(
            layout, _cost_hessian(layout, weights, period, plan.corner_contact)
        )
        self._add_inequality_matrix(layout, plan, pyramid)
        self.shift_rows = _shift_rows(layout)
        # Equilibrated on the values the patterns hold, which this structure
        # fixes, with the cost unscaled: the gradient that sets its size
        # changes with every subproblem.
        self.qp_workspace = QpWorkspace(
            self.hess_pattern,
            sp.vstack([self.eq_jac_pattern, self.ineq_matrix], format="csr"),
            layout.stage_order(),
        )
        self.jacobians = JacobianBuffers(self.eq_jac_pattern, self.ineq_matrix)
        for value in vars(self).values():
            arrays = (value.data, value.indices, value.indptr) if sp.issparse(value) else (value,)
            for array in arrays:
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False

    def _add_bilinear_table(self, layout: DecisionLayout, plan: ContactPlan):
        """The table of the angular-momentum defects' bilinear terms, one per entry.

        With the arm a = p_i + R_i c_j - r, R_i c_j being the plan's corner
        arm, defect k holds -T gamma_ki a x f_ij in its angular rows, and
        component c of a x f is a[c+1] f[c+2] - a[c+2] f[c+1] (indices mod
        3).  Term t is sign_t (x[arm_t] + offset_t) x[force_t] in equality
        row `bilinear_rows[t]`, scaled by -T gamma of the gate
        `bilinear_gates[t]` (k n_c + i).  Each product of a x f gives a
        contact-position term (arm a component of p_i, offset that component
        of R_i c_j) and a CoM term (arm a component of r, offset 0, sign
        negated): 12 terms per corner and step, ordered (step, contact,
        corner, [contact-position terms, CoM terms], product).
        """
        n_knots, n_c = layout.n_knots, layout.n_contacts
        # The six products of a x f: row component, arm and force components, sign.
        xyz = np.arange(3)
        row, arm, force = np.tile(xyz, 2), np.r_[xyz + 1, xyz + 2] % 3, np.r_[xyz + 2, xyz + 1] % 3
        sign = np.repeat([1.0, -1.0], 3)
        # Axes (step, corner, [contact position, CoM], product).
        contact_of = plan.corner_contact
        offsets = plan.corner_arms[:, arm]
        com = np.broadcast_to(layout.com[:-1, None, arm], (n_knots, contact_of.size, 6))
        shape = (n_knots, contact_of.size, 2, 6)

        def terms(values):
            return np.broadcast_to(values, shape).ravel()

        # Defect k's rows are numbered like the knot k + 1 states they define.
        ang_rows = layout.momentum[1:, 3:]
        self.bilinear_rows = terms(ang_rows[:, None, None, row])
        self.bilinear_arms = terms(np.stack([layout.contacts[:-1, contact_of][..., arm], com], 2))
        self.bilinear_forces = terms(layout.forces[:, :, None, force])
        self.bilinear_signs = terms(np.stack([sign, -sign]))
        self.bilinear_gates = terms(n_c * np.arange(n_knots)[:, None, None, None]
                                    + contact_of[:, None, None])
        self.bilinear_offsets = terms(np.stack([offsets, np.zeros_like(offsets)], axis=1))

    def _add_eq_jacobian(self, layout: DecisionLayout, corner_contact: np.ndarray):
        """Entries of the equality-constraint Jacobian and their slots in its pattern.

        build_nlp lists the entries in this order: the linear ones, whose
        values do not depend on x, then every bilinear term's derivative by
        its arm, at (row, arm), then by its force, at (row, force).  The
        linear entries are the unit diagonal of every state row (the knot-0
        pin and each defect's next state), then per defect its previous
        state, the momentum in the CoM rows, and the gated corner forces and
        velocities; linear entry e takes value `linear_sources[e]` of
        _linear_values.  Entry e goes to stored entry `eq_slots[e]` of the
        CSR pattern `eq_jac_pattern`; entries of one position add up, in the
        order listed.  So of each cross product's 3x3 blocks only the six
        off-diagonal entries are stored, gated-out ones as zeros.  The
        pattern holds the values this structure fixes, which its QP
        workspace is equilibrated on: the unit entries, with the others (set
        by the period, the mass, the schedule and the iterate) as zeros.
        """
        com, momentum, contacts = layout.com, layout.momentum, layout.contacts
        states = np.concatenate([com, momentum, contacts.reshape(layout.n_knots + 1, -1)], axis=1)
        gates = np.arange(layout.n_knots * layout.n_contacts).reshape(layout.n_knots, -1)
        rows, cols, self.linear_sources = _flat_entries([
            (states, states, 0),
            (states[1:], states[:-1], 1),
            (com[1:], momentum[:-1, :3], 2),
            (momentum[1:, None, :3], layout.forces, 3 + gates[:, corner_contact, None]),
            (contacts[1:], layout.velocities, 3 + gates.size + gates[:, :, None]),
        ])
        shape = (layout.n_state_vars, layout.size)
        indices, indptr, self.eq_slots = _number_pattern(
            np.concatenate([rows, self.bilinear_rows, self.bilinear_rows]),
            np.concatenate([cols, self.bilinear_arms, self.bilinear_forces]),
            shape,
        )
        # At period 0 the values set by the period, the mass and the schedule are zeros.
        units = _linear_values(0.0, 1.0, np.zeros((layout.n_knots, layout.n_contacts)))
        values = np.bincount(
            self.eq_slots,
            np.concatenate([units[self.linear_sources], np.zeros(2 * self.bilinear_rows.size)]),
        )
        self.eq_jac_pattern = sp.csr_matrix((values, indices, indptr), shape=shape)

    def _add_lagrangian_hessian(self, layout: DecisionLayout, cost_entries: list):
        """CSC pattern of the Lagrangian Hessian, holding its cost part.

        y_eq' eq(x) is bilinear: term t of the table adds its scaled sign
        times y_eq[bilinear_rows[t]] at (force_t, arm_t) and (arm_t,
        force_t), and no two terms share such a pair.  The pattern
        `hess_pattern` is the union of the cost Hessian's entries
        (`cost_entries`, _cost_hessian's) and those pairs, for every knot and
        contact (gated-out ones too).  It holds the cost Hessian, the cost
        entries of one position summed in their order, and zeros elsewhere:
        the only copy of the cost Hessian, which cost and cost_grad multiply
        with.

        `curvature_slots` lists the stored entries of (force_t, arm_t) for
        every term, then those of (arm_t, force_t).
        """
        arms, forces, n = self.bilinear_arms, self.bilinear_forces, layout.size
        rows, cols, values = cost_entries
        indices, indptr, slots = _number_pattern(
            np.concatenate([arms, forces, cols]), np.concatenate([forces, arms, rows]), (n, n)
        )
        self.curvature_slots = slots[: 2 * arms.size]
        values = np.bincount(slots[2 * arms.size :], values, minlength=indices.size)
        self.hess_pattern = sp.csc_matrix((values, indices, indptr), shape=(n, n))

    def _add_inequality_matrix(
        self, layout: DecisionLayout, plan: ContactPlan, pyramid: FrictionPyramid
    ):
        """The inequality matrix `ineq_matrix` (CSR).

        Rows come in two blocks: six pyramid rows per (step, contact,
        corner), step-major, then three box rows per (knot 1..N, contact),
        knot-major.
        """
        rotations = plan.orientations
        pyr_local = np.array([pyramid.A @ R.T for R in rotations])
        # Axes (step or knot, corner or contact, row, column of the row).
        cols, vals = _flat_entries([
            (layout.forces[:, :, None, :], pyr_local[plan.corner_contact]),
            (layout.contacts[1:, :, None, :], rotations.transpose(0, 2, 1)),
        ])
        n_rows = vals.size // 3
        self.ineq_matrix = sp.coo_matrix(
            (vals, (np.repeat(np.arange(n_rows), 3), cols)), shape=(n_rows, layout.size)
        ).tocsr()


# The latest (key, result) of _horizon_structure, a pure function of its
# key.  A run keeps one layout, one set of weights, one period, one set of
# contact rotations and corner arms and one friction coefficient (the
# pyramid's rows depend on mu alone), so one entry serves all of its horizon
# problems.
_LAST_STRUCTURE: list = [None, None]


def _horizon_structure(
    layout: DecisionLayout,
    weights: Weights,
    period: float,
    plan: ContactPlan,
    pyramid: FrictionPyramid,
) -> _HorizonStructure:
    """The _HorizonStructure of its key, rebuilt only when the key changes."""
    key = (
        layout.n_knots,
        layout.corner_counts,
        period,
        tuple(tuple(getattr(weights, f.name)) for f in fields(weights)),
        plan.orientations.tobytes(),
        plan.corner_arms.tobytes(),
        pyramid.mu,
    )
    if _LAST_STRUCTURE[0] != key:
        _LAST_STRUCTURE[:] = [key, _HorizonStructure(layout, weights, period, plan, pyramid)]
    return _LAST_STRUCTURE[1]


def _decision_layout(n_knots: int, corner_counts) -> DecisionLayout:
    """The latest horizon structure's layout when it has these knots and corners, else a new one."""
    last = _LAST_STRUCTURE[1]
    if last is not None and (last.layout.n_knots, last.layout.corner_counts) == (
        n_knots, tuple(corner_counts)
    ):
        return last.layout
    return DecisionLayout(n_knots, corner_counts)


def _cost_linear_terms(
    layout: DecisionLayout,
    weights: Weights,
    nominal_com_samples: np.ndarray,
    nominal_contacts: np.ndarray,
):
    """Linear term and constant of the summed quadratic costs.

    The angular-momentum reference is zero, so that term adds nothing to the
    linear term or the constant.
    """
    c = np.zeros(layout.size)
    c[layout.com] -= weights.com_tracking * nominal_com_samples
    c[layout.contacts] -= weights.contact_reg * nominal_contacts
    # The constant is summed term by term in (knot, CoM then contacts) order;
    # np.add.accumulate adds in sequence.
    com_terms = 0.5 * np.sum(weights.com_tracking * nominal_com_samples**2, axis=1)
    contact_terms = 0.5 * np.sum(weights.contact_reg * nominal_contacts**2, axis=1)
    terms = np.column_stack(
        [com_terms, np.broadcast_to(contact_terms, (com_terms.size, contact_terms.size))]
    )
    return c, float(np.add.accumulate(terms.ravel())[-1])


def _inequality_bounds(
    layout: DecisionLayout,
    schedule: np.ndarray,
    plan: ContactPlan,
    pyramid: FrictionPyramid,
    box: ContactBox,
):
    """Lower and upper bounds of the inequality rows under this schedule.

    The rows are _HorizonStructure.ineq_matrix's, the same for every
    schedule.  The schedule sets only the bounds, and a row that does not
    apply gets (-inf, inf), which the QP never activates.  Pyramid rows hold
    the pyramid's bounds at every step of a contact that bears load
    somewhere in the horizon, gated-out steps included; those of any other
    contact hold the pyramid's PIN_FACES at zero, which pins its forces to
    zero.  Box rows hold the box from the first knot the contact can move to.
    """
    n_knots = layout.n_knots
    # A contact gated out over the entire horizon leaves its forces with no
    # dynamic or cost anchor: a flat optimal manifold whose boundary is the
    # cone apex.  Pin those dead variables to their exact optimum (zero)
    # with the three independent PIN_FACES held at zero; the other three are
    # free.
    dead = ~schedule.any(axis=0)[plan.corner_contact]
    face_lower = np.full((dead.size, 6), -np.inf)
    face_upper = np.where(dead[:, None], np.inf, pyramid.b)
    if dead.any():
        face_lower[np.ix_(dead, pyramid.PIN_FACES)] = 0.0
        face_upper[np.ix_(dead, pyramid.PIN_FACES)] = 0.0
    # While a contact has been gated on since knot 0, the defect chain pins
    # its whole position trajectory to the measured (already box-checked)
    # value; box rows there would only duplicate equalities, and the
    # redundant pairs admit arbitrary multiplier splits that first-order
    # methods never shake off.  Impose the box only from the first knot the
    # position can actually move to (row k - 1 of `movable` is knot k).
    movable = np.logical_or.accumulate(~schedule, axis=0)[:, :, None]
    box_lower = np.where(movable, plan.box_anchors - box.upper, -np.inf)
    box_upper = np.where(movable, plan.box_anchors - box.lower, np.inf)
    lower = np.concatenate([np.tile(face_lower.ravel(), n_knots), box_lower.ravel()])
    upper = np.concatenate([np.tile(face_upper.ravel(), n_knots), box_upper.ravel()])
    return lower, upper


def _shift_rows(layout: DecisionLayout) -> np.ndarray:
    """Per constraint row, the row of the same constraint one knot later.

    Equality rows come first: the knot-0 pin and then one defect block per
    step, so the pin maps to the first defect, whose multipliers are the
    costate of knot 1.  Then the pyramid rows, one block per step, and the
    box rows, one block per knot.  Block k maps to block k + 1, and the last
    block of each kind to itself, the rule of controller.shift_warm_start.
    """
    blocks = (
        (layout.n_knots + 1, layout.state_dim),
        (layout.n_knots, 6 * sum(layout.corner_counts)),
        (layout.n_knots, 3 * layout.n_contacts),
    )
    out, start = [], 0
    for count, size in blocks:
        rows = np.arange(start, start + count * size)
        out.append(np.where(rows < start + (count - 1) * size, rows + size, rows))
        start += count * size
    return np.concatenate(out)


def build_nlp(
    plan: ContactPlan,
    initial_state: CentroidalState,
    initial_contact_positions,
    schedule: np.ndarray,
    nominal_com_samples: np.ndarray,
    weights: Weights,
    pyramid: FrictionPyramid,
    box: ContactBox,
    n_knots: int,
    period: float,
    params: PhysicalParams,
    disturbance_profile: np.ndarray | None = None,
) -> NlpProblem:
    """Assemble the horizon problem for one control instant.

    schedule holds the gate per step (n_knots rows); nominal_com_samples
    covers all n_knots + 1 state knots.  The disturbance profile (one wrench
    per step) enters the momentum defects as a known input.  Everything but
    values and bounds is the shared _HorizonStructure of (layout, weights,
    period, the plan's rotations and corner arms, pyramid.mu); the schedule
    sets the equality Jacobian's gated values, the scale of the bilinear
    terms and the inequality bounds (_inequality_bounds).  The problem's
    `layout` numbers its decision vector; it is the structure's, so
    consecutive control instants of a run share one.
    """
    n_c = plan.n_contacts
    layout = _decision_layout(n_knots, plan.corner_counts)
    schedule = np.asarray(schedule)
    if schedule.shape != (n_knots, n_c):
        raise ValueError(
            f"schedule shape {schedule.shape} does not match ({n_knots}, {n_c})"
        )
    nominal_com_samples = np.asarray(nominal_com_samples, dtype=float)
    if nominal_com_samples.shape != (n_knots + 1, 3):
        raise ValueError(
            f"nominal CoM samples shape {nominal_com_samples.shape} does not match "
            f"({n_knots + 1}, 3)"
        )
    initial_contacts = np.asarray(initial_contact_positions, dtype=float)
    if initial_contacts.shape != (n_c, 3):
        raise ValueError(
            f"initial contact positions shape {initial_contacts.shape} != ({n_c}, 3)"
        )
    if disturbance_profile is None:
        wrench_profile = np.zeros((n_knots, 6))
    else:
        wrench_profile = np.asarray(disturbance_profile, dtype=float)
        if wrench_profile.shape != (n_knots, 6):
            raise ValueError(
                f"disturbance profile shape {wrench_profile.shape} != ({n_knots}, 6)"
            )
        if not np.all(np.isfinite(wrench_profile)):
            raise ValueError("disturbance profile contains non-finite values")

    gamma = schedule.astype(float)
    mass, gravity = params.mass, params.gravity
    m_eq = layout.n_state_vars
    pin_momentum = initial_state.momentum

    structure = _horizon_structure(layout, weights, period, plan, pyramid)
    hess = structure.hess_pattern
    c_lin, c0 = _cost_linear_terms(layout, weights, nominal_com_samples, plan.nominal_positions)

    def cost(x: np.ndarray) -> float:
        return float(0.5 * x @ (hess @ x) + c_lin @ x + c0)

    def cost_grad(x: np.ndarray) -> np.ndarray:
        return hess @ x + c_lin

    def eq(x: np.ndarray) -> np.ndarray:
        com, momentum, contacts = layout.state_arrays(x)
        p_next, h_next, pc_next = euler_step_batch(
            com[:-1],
            momentum[:-1],
            contacts[:-1],
            x[layout.forces],
            x[layout.velocities],
            gamma,
            plan.corner_arms,
            plan.corner_contact,
            mass,
            gravity,
            wrench_profile,
            period,
        )
        # The pin's rows are numbered like knot 0's states, defect k's like
        # those of knot k + 1.
        out = np.empty(m_eq)
        out[layout.com] = com - np.concatenate([initial_state.p_com[None], p_next])
        out[layout.momentum] = momentum - np.concatenate([pin_momentum[None], h_next])
        out[layout.contacts] = contacts - np.concatenate([initial_contacts[None], pc_next])
        return out

    # The linear Jacobian values; the derivatives of the bilinear terms
    # follow them and are refreshed on every call.
    linear_values = _linear_values(period, mass, gamma)[structure.linear_sources]
    scaled = structure.bilinear_signs * (-period * gamma.ravel())[structure.bilinear_gates]

    def eq_jac(x: np.ndarray) -> np.ndarray:
        by_arm = scaled * x[structure.bilinear_forces]
        by_force = scaled * (x[structure.bilinear_arms] + structure.bilinear_offsets)
        return np.bincount(structure.eq_slots, np.concatenate([linear_values, by_arm, by_force]))

    def lagrangian_hess(x: np.ndarray, y_eq: np.ndarray) -> np.ndarray:
        curvature = scaled * np.asarray(y_eq, dtype=float)[structure.bilinear_rows]
        values = structure.hess_pattern.data.copy()
        values[structure.curvature_slots] = np.concatenate([curvature, curvature])
        return values

    ineq_lower, ineq_upper = _inequality_bounds(layout, schedule, plan, pyramid, box)
    return NlpProblem(
        dimension=layout.size,
        cost=cost,
        cost_grad=cost_grad,
        lagrangian_hess=lagrangian_hess,
        hess_pattern=structure.hess_pattern,
        eq=eq,
        eq_jac=eq_jac,
        eq_jac_pattern=structure.eq_jac_pattern,
        ineq_matrix=structure.ineq_matrix,
        ineq_lower=ineq_lower,
        ineq_upper=ineq_upper,
        shift_rows=structure.shift_rows,
        qp_workspace=structure.qp_workspace,
        jacobians=structure.jacobians,
        layout=layout,
    )
