"""Sparse QP solver.

Solves   min 1/2 x' P x + q' x   s.t.  lower <= A x <= upper
by a primal-dual active-set iteration on equilibrated data: each iteration
solves the equality-constrained QP of one active set with a factor of the
condensed system P + reg I + rho A_act' A_act (banded Cholesky under a
variable ordering that makes it narrow-banded) and iterative refinement,
then updates the set from the solution's violated rows and wrong-sign
multipliers.  Equality rows are expressed as lower == upper.

Everything that depends only on the sparsity patterns of P and A is set up
once, in a QpWorkspace: the patterns of P and A, the band slot of every
entry of the condensed system, one Ruiz equilibration, and the buffers of
one QP (its scaled data, the stacked operator [P; A] and band arrays).
The QPs on those patterns then bring values only, as in the setup/update
split of OSQP.  A solve loads its QP into the buffers instead of
allocating (QpWorkspace.load), and its helpers take the workspace: there
is no per-QP object.  So the pattern arrays are read-only, a workspace
holds one QP at a time, and a factor's solve is valid until the next
factorization on the same workspace.  solve_qp sets up a one-off workspace
when it is given none.

A refinement pass evaluates the KKT residual of the active set with two
sparse products, [P; A] x and A' y (only A' y at x = 0, where the others
are known bit for bit), and keeps it as one vector [r_dua; r_pri] with one
divide by the units [c d; e] into original units.  The refinement's
products call the compiled kernels of scipy's `@` directly (_product).  The KKT test of each
iteration reads what the last pass computed: the gaps of the active rows
are r_pri, the primal and dual parts of the error decide whether the set
is inconsistent or unbounded, and the dual part is the stationarity of
the test unless the test clips a multiplier to its sign, which then takes
a product of its own.

P may be indefinite, but on the null space of every active set the
iteration visits, P + reg I must be positive definite.  With rho large that
holds exactly when the Cholesky factorization succeeds, so a breakdown ends
the solve with status non_convex (inertia test, no factor of a shifted
matrix is tried).  A convex QP (P positive semidefinite) always passes it.
Everything is deterministic: no randomized pivoting, no time-based stopping.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse import _sparsetools

_DIV_GUARD = 1e-30
_EPS_ABS = 1e-6
# Violation (original units) beyond which an inactive row joins the active
# set, also when the point already meets _EPS_ABS.
_EPS_ACTIVATE = 1e-9
_EPS_INFEASIBLE = 1e-9
_SCALING_ITERATIONS = 10
# Iterations of the plain active-set rule before one row per iteration takes
# over, also without a repeated set: on general QPs the plain rule can wander
# through new sets for long.  The closed-loop QPs of the bundled scenarios
# and of perfbench's push sweep need at most 12 iterations.
_PLAIN_ITERATIONS = 20
# Equality-constrained solve: refinement stops once the KKT residual of the
# active set (original units) is at most min(_POLISH_FORCING * r0,
# _EPS_ACTIVATE), r0 being the residual it started from: an inexact-Newton
# forcing term, which tightens by itself as the SQP converges.  It also
# stops once a pass cuts the residual by less than a tenth, which ends it on
# an inconsistent or unbounded active set, but not while a nearly dependent
# set converges slowly.
_POLISH_REG = 1e-9
_POLISH_REFINE_STEPS = 25
_POLISH_FORCING = 1e-6
# Weight of the active rows in the condensed matrix (scaled units): the
# inverse of the dual regularization of the saddle system it replaces.
_POLISH_RHO = 1e6


@dataclass(frozen=True)
class QpOptions:
    """The active-set iteration cap, the one setting callers choose per solve."""

    max_iterations: int = 20000


@dataclass
class QpResult:
    x: np.ndarray
    y: np.ndarray
    status: str
    iterations: int
    polished: bool = False

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def _product(matrix, x: np.ndarray) -> np.ndarray:
    """matrix @ x, for a CSR or CSC matrix of floats and a float vector x.

    Runs the compiled kernel that scipy's `@` runs, into zeros as `@` does,
    so every bit is the same.  On the refinement's sizes the Python dispatch
    of `@` around that kernel takes about as long as the kernel itself.
    Nothing checks the shapes: x must have one entry per column, as the
    workspace's arrays do.
    """
    out = np.zeros(matrix.shape[0])
    matvec = _sparsetools.csr_matvec if matrix.format == "csr" else _sparsetools.csc_matvec
    matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, out)
    return out


def _column_max(abs_data: np.ndarray, indices: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    np.maximum.at(out, indices, abs_data)
    return out


def _ruiz_scale(workspace, p_data: np.ndarray, a_data: np.ndarray, q, free):
    """Modified Ruiz equilibration (d, e, c) of P and A on the workspace's patterns.

    Scaled, P is c D P D, q is c D q and A is E A D, with d and e the
    diagonals of D and E.  Rows marked in `free` (no finite bound; None
    marks none) take no part in the norms, so they leave the scaling of the
    other rows and of the variables as it would be without them.  The cost
    is scaled as well only when its gradient q is given; c = 1 otherwise.
    Works on copies of the nonzero data, which keeps the cost linear in nnz
    per sweep.
    """
    m, n = workspace.shape
    p_row, p_col = workspace.p_row, workspace.p_col
    a_row, a_col = workspace.a_row, workspace.a_col
    d = np.ones(n)
    e = np.ones(m)
    c = 1.0
    ps = p_data.copy()
    a_abs = np.abs(a_data) if free is None else np.where(free[a_row], 0.0, np.abs(a_data))
    qs = None if q is None else q.copy()
    for _ in range(_SCALING_ITERATIONS):
        norm_x = _column_max(np.abs(ps), p_col, n)
        np.maximum.at(norm_x, a_col, a_abs)
        delta_x = 1.0 / np.sqrt(np.where(norm_x > _DIV_GUARD, norm_x, 1.0))
        row_a = _column_max(a_abs, a_row, m)
        delta_e = 1.0 / np.sqrt(np.where(row_a > _DIV_GUARD, row_a, 1.0))
        a_abs *= delta_e[a_row] * delta_x[a_col]
        e *= delta_e
        ps *= delta_x[p_row] * delta_x[p_col]
        d *= delta_x
        if qs is None:
            continue
        qs *= delta_x
        col_p = _column_max(np.abs(ps), p_col, n)
        denom = max(float(col_p.mean()) if n else 0.0, float(np.abs(qs).max(initial=0.0)))
        gamma = 1.0 / denom if denom > _DIV_GUARD else 1.0
        ps *= gamma
        qs *= gamma
        c *= gamma
    return d, e, c


class QpWorkspace:
    """What every QP on one pair of sparsity patterns shares, and the QP loaded on it.

    `P` and `A` are the patterns: P read as CSC and A as CSR, each with its
    duplicates summed, holding the values given here.  A QP on the
    workspace brings the value vectors of both, in the order of their
    stored entries (P.data, A.data).  The workspace also holds the band
    slot of every entry of P + A' diag(w) A under `ordering` (the natural
    order when not given; `perm`) and the pairs of A's entries behind it,
    and one equilibration (d, e, c) by _ruiz_scale of the values of P and A
    given here, `free` and `q` as there.  These arrays are read-only.

    A workspace holds one QP at a time, which `load` writes into its
    buffers; there is no per-QP object.  Loaded, it holds the QP
    equilibrated: `scaled_P` = c D P D, `scaled_q` = c D q and `scaled_A` =
    E A D on the patterns' index arrays (`scaled_AT` the CSC view of
    scaled_A, made once on its arrays), the bounds `scaled_lower` = E l and
    `scaled_upper` = E u, and the equality rows `eq`.  `stacked` is the CSR
    operator [scaled_P; scaled_A] of a refinement pass: its P block holds
    P's rows, gathered from scaled_P through the fixed map `p_rows_order`,
    so each row sums its products in the order scaled_P @ x does and both
    blocks equal the separate products bit for bit; its A block is the one
    copy of scaled_A's values, which scaled_A and scaled_AT store theirs
    in.  `units` = [c d; e] turns the scaled residual [r_dua; r_pri] into
    original units.  `condensed(rows)` writes the band of the condensed
    system P + reg I + rho A_act' A_act of any active set into the `band`
    array, which dpbtrf overwrites with its factor.  Under the horizon's
    stage order (DecisionLayout.stage_order) these are narrow band
    matrices: bandwidth 18 for the 552 variables of the one-leg horizon, 45
    for the 1365 of the two-leg one.  The equality
    rows are active in every set, so their share, with P and reg I, is
    summed once per QP (`base`, an (n, w + 1) array in C order that is
    LAPACK's band transposed); the band of an active set adds to it only the
    pair products of its active inequality rows, which are few.  Every load
    and every factorization overwrites these buffers, so a factor's solve is
    valid until the next factorization on the workspace.
    """

    def __init__(self, P, A, ordering=None, q=None, free=None):
        self.P = P = sp.csc_matrix(P, dtype=float, copy=True)
        self.A = A = sp.csr_matrix(A, dtype=float, copy=True)
        P.sum_duplicates()
        A.sum_duplicates()
        m, n = self.shape = A.shape
        if P.shape != (n, n):
            raise ValueError(f"P of shape {P.shape} does not fit A's {n} columns")
        lens = np.diff(A.indptr)
        self.a_row, self.a_col = np.repeat(np.arange(m), lens), A.indices
        self.p_row, self.p_col = P.indices, np.repeat(np.arange(n), np.diff(P.indptr))
        self._add_band(ordering, lens)
        self.d, self.e, self.c = _ruiz_scale(self, P.data, A.data, q, free)
        self.p_scale = self.c * self.d[self.p_row] * self.d[self.p_col]
        self.a_scale = self.e[self.a_row] * self.d[self.a_col]
        self.units = np.concatenate([self.c * self.d, self.e])
        # P's entries in row order, as P.tocsr() stores them: a row of the
        # stacked operator adds its products column by column, from +0.0, as
        # the CSC product scaled_P @ x adds them into that row.
        self.p_rows_order = np.lexsort((self.p_col, self.p_row))
        stacked_indptr = np.concatenate([
            np.searchsorted(self.p_row[self.p_rows_order], np.arange(n + 1)),
            P.nnz + A.indptr[1:],
        ])
        stacked_indices = np.concatenate([self.p_col[self.p_rows_order], A.indices])
        for value in (*vars(self).values(), P.data, P.indptr, A.data, A.indptr,
                      stacked_indices, stacked_indptr):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.scaled_P = sp.csc_matrix((np.empty(P.nnz), P.indices, P.indptr), shape=(n, n))
        self.stacked = sp.csr_matrix(
            (np.empty(P.nnz + A.nnz), stacked_indices, stacked_indptr), shape=(n + m, n)
        )
        # scaled_A and its CSC view scaled_AT store their values in the
        # stacked operator's A block.  Their constructors would copy a view
        # shorter than half its base, so the view is bound afterwards.
        self.scaled_A = sp.csr_matrix((np.empty(A.nnz), A.indices, A.indptr), shape=(m, n))
        self.scaled_AT = self.scaled_A.T
        self.scaled_A.data = self.scaled_AT.data = self.stacked.data[P.nnz :]
        self.scaled_q = np.empty(n)
        self.scaled_lower, self.scaled_upper = np.empty(m), np.empty(m)
        self.eq = np.empty(m, dtype=bool)
        self.a_eq = np.empty(A.nnz)
        self.weights = np.empty(self.band_slot.size)
        self.right_values = np.empty(self.pair_right.size)
        self.base = np.empty((n, self.width + 1))
        self.band = np.empty((n, self.width + 1))

    def _add_band(self, ordering, lens):
        """Band slots of P's entries and of every pair of A's entries in a row.

        The pairs (left, right) of nonzeros sharing a row of A, left at or
        before right, come row by row: those of row r are
        pair_ptr[r]:pair_ptr[r + 1].
        """
        n = self.shape[1]
        indices = self.A.indices
        entries = np.arange(indices.size)
        after = self.A.indptr[1:][self.a_row] - entries
        left = np.repeat(entries, after)
        right = left + (np.arange(left.size) - np.repeat(np.cumsum(after) - after, after))
        ordering = np.arange(n) if ordering is None else np.asarray(ordering)
        if (
            ordering.shape != (n,)
            or ordering.dtype.kind not in "iu"
            or not np.array_equal(np.sort(ordering), np.arange(n))
        ):
            raise ValueError("ordering is not a permutation of the variables")
        self.perm = ordering.copy()
        position = np.empty(n, dtype=np.int64)
        position[self.perm] = np.arange(n)
        pi, pj = position[indices[left]], position[indices[right]]
        lo, hi = np.minimum(pi, pj), np.maximum(pi, pj)
        qi, qj = position[self.p_row], position[self.p_col]
        self.p_entries = np.flatnonzero(qi <= qj)
        qi, qj = qi[self.p_entries], qj[self.p_entries]
        self.width = w = int(max(np.max(hi - lo, initial=0), np.max(qj - qi, initial=0)))
        self.pair_left, self.pair_right = left, right
        self.pair_ptr = np.concatenate([[0], np.cumsum(lens * (lens + 1) // 2)])
        # LAPACK's upper band storage is column-major: entry (i, j), i <= j,
        # at [w + i - j, j] of a (w + 1, n) array, so at j (w + 1) + w + i - j
        # of its transpose in C order.
        self.pair_slot = hi * (w + 1) + (w + lo - hi)
        self.band_slot = np.concatenate([qj * (w + 1) + (w + qi - qj), self.pair_slot])

    def load(self, p_values, a_values, q, lower, upper):
        """Equilibrate one QP into the buffers, with the base of its condensed systems."""
        p_data = np.multiply(p_values, self.p_scale, out=self.scaled_P.data)
        a_data = np.multiply(a_values, self.a_scale, out=self.scaled_A.data)
        np.take(p_data, self.p_rows_order, out=self.stacked.data[: p_data.size], mode="clip")
        np.multiply(self.units[: self.shape[1]], q, out=self.scaled_q)
        np.multiply(self.e, lower, out=self.scaled_lower)
        np.multiply(self.e, upper, out=self.scaled_upper)
        eq = np.equal(lower, upper, out=self.eq)
        eq &= np.isfinite(lower)
        # With the equality rows scaled by sqrt(rho) and the others by zero,
        # a pair's product is its weighted share of the base or else zero.
        a_eq = np.multiply(a_data, np.sqrt(_POLISH_RHO), out=self.a_eq)
        a_eq[~eq[self.a_row]] = 0.0
        # The indices are in range; np.take's default mode would copy `out`
        # to guard against indices that are not.
        weights, n_p = self.weights, self.p_entries.size
        np.take(p_data, self.p_entries, out=weights[:n_p], mode="clip")
        np.take(a_eq, self.pair_left, out=weights[n_p:], mode="clip")
        weights[n_p:] *= np.take(a_eq, self.pair_right, out=self.right_values, mode="clip")
        # An in-order scatter-add onto zeros sums each slot's weights in the
        # order a weighted bincount over the band slots does, bit for bit.
        self.base.fill(0.0)
        np.add.at(self.base.reshape(-1), self.band_slot, weights)
        self.base[:, -1] += _POLISH_REG

    def condensed(self, rows: np.ndarray) -> np.ndarray:
        """Upper band storage, permuted, with the inequality `rows` active.

        The band array, overwritten, as a (w + 1, n) view in LAPACK's
        column-major layout, which dpbtrf can overwrite with the factor
        without a copy.
        """
        start = self.pair_ptr[rows]
        count = self.pair_ptr[rows + 1] - start
        pairs = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
        a_data = self.scaled_A.data
        values = a_data[self.pair_left[pairs]] * a_data[self.pair_right[pairs]]
        np.copyto(self.band, self.base)
        np.add.at(self.band.reshape(-1), self.pair_slot[pairs], values * _POLISH_RHO)
        return self.band.T


class _NotPositiveDefinite(Exception):
    """The condensed system of an active set has no Cholesky factor."""


def _factor_kkt(ws: QpWorkspace, rows: np.ndarray):
    """Banded Cholesky factor of P + reg I + rho A_act' A_act of the loaded QP.

    The active rows are the equality rows and the inequality `rows`.  Much
    smaller and fills far less than the equivalent 2x2 saddle form.  With
    large weights on the active rows, the matrix is positive definite
    exactly when P + reg I is positive definite on their null space
    (Finsler's lemma), so a breakdown of the factorization is the inertia
    test of the active set: it raises _NotPositiveDefinite.  Returns the
    solve with the factor, in the original order of the variables; the
    factor is the workspace's band array, so the solve holds until the next
    factorization on the workspace.
    """
    factor, info = lapack.dpbtrf(ws.condensed(rows), overwrite_ab=True)
    if info > 0:
        raise _NotPositiveDefinite
    perm = ws.perm

    def solve(rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs)
        out[perm] = lapack.dpbtrs(factor, rhs[perm])[0]
        return out

    return solve


def _certificate(ws: QpWorkspace, lower, upper, dx, dy):
    """The infeasibility a scaled step (dx, dy) of the loaded QP certifies, or None.

    Every test is made in original units, in which the step is (d dx,
    e dy / c).  dy certifies primal infeasibility when A' dy = 0 while its
    support function over the bounds is negative (Farkas); dx certifies an
    unbounded objective when it is a descent direction of zero curvature
    along which no finite bound is reached.  Returns the status name, or
    None.
    """
    d, e, c = ws.d, ws.e, ws.c
    x_step, y_step = d * dx, e * dy / c
    norm_dy = float(np.max(np.abs(y_step), initial=0.0))
    if norm_dy > _DIV_GUARD:
        at_dy = float(np.max(np.abs(ws.scaled_AT @ dy) / (c * d), initial=0.0))
        up = np.where(np.isfinite(upper) & (y_step > 0), upper, 0.0) * np.maximum(y_step, 0.0)
        lo = np.where(np.isfinite(lower) & (y_step < 0), lower, 0.0) * np.minimum(y_step, 0.0)
        support = float(np.sum(up) + np.sum(lo))
        unbounded_push = bool(
            np.any((y_step > _EPS_INFEASIBLE * norm_dy) & ~np.isfinite(upper))
            or np.any((y_step < -_EPS_INFEASIBLE * norm_dy) & ~np.isfinite(lower))
        )
        if (
            not unbounded_push
            and at_dy <= _EPS_INFEASIBLE * norm_dy
            and support <= -_EPS_INFEASIBLE * norm_dy
        ):
            return "primal_infeasible"
    norm_dx = float(np.max(np.abs(x_step), initial=0.0))
    if norm_dx > _DIV_GUARD:
        tol = _EPS_INFEASIBLE * norm_dx
        adx = (ws.scaled_A @ dx) / e
        if (
            float(np.max(np.abs(ws.scaled_P @ dx) / (c * d), initial=0.0)) <= tol
            and float(ws.scaled_q @ dx) / c < -tol
            and np.all(adx[np.isfinite(lower)] >= -tol)
            and np.all(adx[np.isfinite(upper)] <= tol)
        ):
            return "dual_infeasible"
    return None


def solve_qp(
    P,
    q,
    A=None,
    lower=None,
    upper=None,
    options: QpOptions | None = None,
    y0=None,
    workspace: QpWorkspace | None = None,
) -> QpResult:
    """Solve the interval-constrained QP; see module docstring.

    The status is solved, max_iterations (returning the best point seen),
    primal_infeasible, dual_infeasible (unbounded objective), non_convex
    (P not positive definite on the null space of an active set) or
    numerical_failure: P, q or A holds a non-finite value or a bound is NaN
    (x and y are then zero, after no iteration), or the solution of an
    active set is not finite (returning the best point seen).  With a
    `workspace`, P and A are value vectors in the order of the stored
    entries of its patterns (QpWorkspace.P.data, .A.data), and the solve
    takes its variable ordering and equilibration; values of another size
    raise ValueError.  Without one, P and A are matrices (A None for a QP
    without rows): solve_qp sets up a workspace for this QP alone,
    equilibrated on its P, q and A, and solves on its values; a q that
    does not have one entry per column of P raises the same ValueError
    before the workspace is set up.  Each iteration's KKT test reuses the
    residuals of the refinement's last pass (see the module docstring).  A
    `y0` of other than m entries raises ValueError.  The first active set is the
    sign pattern of `y0` (no inequality row without it), so a warm start
    that carries the right active set costs one iteration.  A row whose
    bounds are both infinite never becomes active and changes neither the
    scaling nor the solution; its multiplier is zero.
    """
    opts = options or QpOptions()
    q = np.asarray(q, dtype=float).reshape(-1)
    if A is None and workspace is None:
        A, lower, upper = sp.csr_matrix((0, q.size)), np.zeros(0), np.zeros(0)
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    ws = workspace
    if ws is None:
        P, A = sp.csc_matrix(P, dtype=float), sp.csr_matrix(A, dtype=float)
        data = P.data, A.data
        if q.size != P.shape[1]:
            raise ValueError(
                f"P, A and q hold {P.nnz}, {A.nnz} and {q.size} values; P has"
                f" {P.shape[1]} columns"
            )
    else:
        data = P, A = np.asarray(P, dtype=float), np.asarray(A, dtype=float)
        n = ws.shape[1]
        if P.shape != ws.P.data.shape or A.shape != ws.A.data.shape or q.size != n:
            raise ValueError(
                f"P, A and q hold {P.size}, {A.size} and {q.size} values; the workspace's"
                f" patterns store {ws.P.nnz} and {ws.A.nnz} over {n} variables"
            )
    # Checked before any scaling: NaN data would pass the KKT test below,
    # since Python's max(0.0, nan) is 0.0.
    finite = all(np.isfinite(v).all() for v in (*data, q))
    if not finite or np.isnan(lower).any() or np.isnan(upper).any():
        return QpResult(np.zeros(q.size), np.zeros(lower.size), "numerical_failure", 0)
    if ws is None:
        ws = QpWorkspace(P, A, q=q, free=~(np.isfinite(lower) | np.isfinite(upper)))
        P, A = ws.P.data, ws.A.data
    m, n = ws.shape
    if lower.size != m or upper.size != m:
        raise ValueError("constraint bounds do not match the number of rows")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound on some row")
    if y0 is not None and np.asarray(y0).size != m:
        raise ValueError(f"y0 has {np.asarray(y0).size} entries, the QP has {m} rows")
    ws.load(P, A, q, lower, upper)
    d, e, c = ws.d, ws.e, ws.c
    ls, us, eq = ws.scaled_lower, ws.scaled_upper, ws.eq

    # Primal-dual active-set iteration: solve the equality-constrained QP on
    # the active set, then activate the inactive rows its solution violates
    # and release the active rows whose multipliers have the wrong sign.
    # Once a set would repeat, the rule could cycle; from then on (or after
    # _PLAIN_ITERATIONS) each iteration changes one row, as the dual
    # active-set method of Goldfarb and Idnani does: release the row whose
    # multiplier first changes sign on the way from the current point to the
    # new solution (stepping to that point), or else activate the most
    # violated row.
    x = np.zeros(n)
    if y0 is not None:
        y = c * np.asarray(y0, dtype=float).reshape(-1) / e
    else:
        y = np.zeros(m)
    low = ~eq & (y < 0.0) & np.isfinite(lower)
    upp = ~eq & (y > 0.0) & np.isfinite(upper)
    y = np.where(eq | low | upp, y, 0.0)
    seen = set()
    one_row = False
    status = "max_iterations"
    best = (np.inf, x, y)
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        seen.add(np.concatenate([low, upp]).tobytes())
        try:
            found = _polish_point(ws, x, y, low, upp)
        except _NotPositiveDefinite:
            status = "non_convex"
            break
        if found is None:
            status = "numerical_failure"
            break
        x_new, y_new, ax, gradient, (gap, primal_error, dual_error), correction = found
        sign_tol = 1e-10 * max(1.0, float(np.abs(y_new).max(initial=0.0)))
        wrong = (upp & (y_new < -sign_tol)) | (low & (y_new > sign_tol))
        # Active rows the solution cannot meet are inconsistent; the stalled
        # refinement moves their multipliers along the gaps (its primal
        # residual: A x minus the bound of every active row, zero elsewhere).
        # Release the row whose multiplier that move takes to zero first.
        inconsistent = primal_error > _EPS_ABS
        if inconsistent:
            inward = (low & (gap > 0.0)) | (upp & (gap < 0.0))
            if inward.any():
                reach = np.abs(y_new) / np.where(inward, np.abs(gap), 1.0)
                wrong[np.flatnonzero(inward)[np.argmin(reach[inward])]] = True
        inactive = ~(eq | low | upp)
        below, above = ls - ax, ax - us
        under = inactive & (below / e > _EPS_ACTIVATE)
        over = inactive & (above / e > _EPS_ACTIVATE)

        # The KKT test in original units: bound violation of every row,
        # distance of every active row from its bound, and stationarity with
        # the multipliers clipped to their signs.  Unclipped, stationarity is
        # the refinement's dual error.
        signed = np.where(upp, np.maximum(y_new, 0.0), np.where(low, np.minimum(y_new, 0.0), y_new))
        off = np.maximum(np.maximum(below, above), np.abs(gap))
        pri = float((off / e).max(initial=0.0))
        if np.array_equal(signed, y_new):
            dua = dual_error
        else:
            dua = float((np.abs(gradient + _product(ws.scaled_AT, signed)) / (c * d)).max())
        done = max(pri, dua) <= _EPS_ABS and not (wrong | under | over).any()
        if done or max(pri, dua) < best[0]:
            best = (max(pri, dua), x_new, signed)
        if done:
            status = "solved"
            break
        # Certificates are read only off an active set the refinement could
        # not solve, since the step after a solved one is rounding noise.
        unbounded = dual_error > _EPS_ABS
        certified = (inconsistent or unbounded) and _certificate(
            ws, lower, upper, *correction()
        )
        if certified:
            status = certified
            break

        if not one_row:
            new_low, new_upp = (low & ~wrong) | under, (upp & ~wrong) | over
            one_row = (
                np.concatenate([new_low, new_upp]).tobytes() in seen
                or iterations >= _PLAIN_ITERATIONS
            )
            if not one_row:
                low, upp = new_low, new_upp
                x, y = x_new, np.where(eq | low | upp, y_new, 0.0)
                continue
        if wrong.any():
            right = np.where(upp, (y > 0.0) & (y_new < 0.0), (y < 0.0) & (y_new > 0.0))
            ratio = np.where(wrong & right, y / np.where(right, y - y_new, 1.0), 0.0)
            row = int(np.flatnonzero(wrong)[np.argmin(ratio[wrong])])
            x, y = x + ratio[row] * (x_new - x), y + ratio[row] * (y_new - y)
            y[row] = 0.0
            low[row] = upp[row] = False
        elif (under | over).any():
            x, y = x_new, y_new
            row = int(np.argmax(np.where(under, below, np.where(over, above, -np.inf))))
            low[row], upp[row] = bool(under[row]), bool(over[row])
        else:
            break

    kkt, xs, ys = best
    return QpResult(d * xs, (e * ys) / c, status, iterations, polished=bool(np.isfinite(kkt)))


def _polish_point(ws: QpWorkspace, x_est, y_est, low, upp):
    """Solve the equality-constrained QP of one active set of the loaded QP.

    The equality rows and the inequality rows marked in `low` (held at their
    lower bound) and `upp` (at their upper bound) are active.  Works on the
    scaled data and returns a scaled (x, y, A x, P x + q, residuals,
    correction), or None when the solution is not finite; _factor_kkt raises
    _NotPositiveDefinite when P is not positive definite on the null space
    of the active rows.  The equality-constrained QP is solved by iterative
    refinement with the factor of P + _POLISH_REG I + _POLISH_RHO A_act'
    A_act, the regularized saddle system with its multiplier block
    eliminated.  The refinement starts from (x_est, y_est) and keeps the
    component of y_est that the active rows leave undetermined.  It stops
    once the active set's KKT residual, in original units as in solve_qp's
    test, is at most min(_POLISH_FORCING * r0, _EPS_ACTIVATE) with r0 the
    residual at (x_est, y_est), once a pass stalls (see the constants), or
    after _POLISH_REFINE_STEPS passes.

    `residuals` are what the KKT test reads of the last pass: r_pri, the
    gap of every active row from its bound (A x minus the bound, zero on
    the other rows), and the largest primal and dual residuals in original
    units, max |r_pri| / e and max |P x + q + A' y| / (c d).

    correction() returns the scaled refinement step (dx, dy) that would
    follow (x, y), computed only when called, whichever test ended the
    refinement.  Where the active rows are
    inconsistent the refinement stalls with the multipliers running off
    along dy, a Farkas direction of those rows; where the objective is
    unbounded on them, x runs off along dx.
    """
    A, AT = ws.scaled_A, ws.scaled_AT
    m, n = ws.shape
    active = ws.eq | low | upp
    inactive = ~active
    targets = np.where(ws.eq | upp, ws.scaled_upper, np.where(low, ws.scaled_lower, 0.0))
    weight = np.where(active, _POLISH_RHO, 0.0)
    solve = _factor_kkt(ws, np.flatnonzero(low | upp))

    def step(r_pri, r_dua):
        dx = solve(-(r_dua + _product(AT, weight * r_pri)))
        return dx, weight * (r_pri + _product(A, dx))

    xh = x_est
    yh = np.where(active, y_est, 0.0)
    # Iterative refinement in correction form: each pass solves the
    # regularized system for a step (dx, dy) against the exact KKT
    # residuals, so rounding in the steps shrinks with the steps.  The
    # residuals are one vector [r_dua; r_pri], in original units once
    # divided by the workspace's units [c d; e].
    r, scaled = np.empty(n + m), np.empty(n + m)
    r_dua, r_pri = r[:n], r[n:]
    residual = np.inf
    stop = None
    for passes in range(_POLISH_REFINE_STEPS + 1):
        if passes or x_est.any():
            product = _product(ws.stacked, xh)
            gradient, ax = product[:n], product[n:]
            gradient += ws.scaled_q
        else:
            # At x = 0 (of either sign), A x is +0.0 and P x + q is q + 0.0,
            # bit for bit, since every row sum of the products starts at +0.0.
            gradient, ax = ws.scaled_q + 0.0, np.zeros(m)
        np.add(gradient, _product(AT, yh), out=r_dua)
        np.subtract(ax, targets, out=r_pri)
        r_pri[inactive] = 0.0
        np.abs(r, out=scaled)
        last, residual = residual, float(scaled.max(initial=0.0))
        scaled /= ws.units
        error = float(scaled.max(initial=0.0))
        if stop is None:
            stop = min(_POLISH_FORCING * error, _EPS_ACTIVATE)
        if error <= stop or residual > 0.9 * last or passes == _POLISH_REFINE_STEPS:
            break
        dx, dy = step(r_pri, r_dua)
        xh = xh + dx
        yh = yh + dy
    if not (np.isfinite(xh).all() and np.isfinite(yh).all()):
        return None
    primal_error = float(scaled[n:].max(initial=0.0))
    residuals = r_pri, primal_error, float(scaled[:n].max(initial=0.0))
    return xh, yh, ax, gradient, residuals, functools.partial(step, r_pri, r_dua)
