"""SQP with the exact Lagrangian Hessian over the transcribed problem.

Each iteration solves a QP built from the Hessian of the Lagrangian at the
current iterate and multipliers (the quadratic cost Hessian plus the
multiplier-weighted curvature of the bilinear torque defects) and the
current constraint linearizations, then backtracks on an l1 merit function.
The exact Hessian is indefinite; the QP's banded Cholesky tests, on each
active set, that it is positive definite on the constraints' null space.
When that test fails the same iteration is solved again with the
Gauss-Newton Hessian, the Lagrangian Hessian at the same iterate with zero
multipliers, the only safeguard.  The subproblems bring values only to the
problem's QP workspace, in the order of its declared patterns.  While a
solve runs, scipy's OpenBLAS is held at one thread (process-wide): its
threaded banded Cholesky is slower on these narrow bands than one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

from .qp import QpOptions, solve_qp

_ARMIJO_FACTOR = 1e-4
_BACKTRACK_RATIO = 0.5
_MAX_BACKTRACKS = 30
_ELASTIC_WEIGHT = 1e6
# Every subproblem is solved to full accuracy by the QP's active-set
# iteration, started from the active set of the current multipliers.  One
# subproblem never deserves a long search: a capped, slightly inexact step
# still makes progress under the merit test.
_SUBPROBLEM_OPTIONS = QpOptions(max_iterations=500)
# The step of check_derivatives' central differences.
_FD_STEP = 1e-6


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 100
    kkt_tolerance: float = 1e-6
    constraint_tolerance: float = 1e-7

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("kkt_tolerance", "constraint_tolerance"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Solution:
    """Solver outcome.

    kkt_residual is the stationarity/complementarity residual scaled by
    max(1, |multipliers|_inf / 100): the same primal point must pass the test
    regardless of a positive rescaling of the cost.  Every exit applies the
    same test, and status names the exit:

    - converged: kkt_residual <= kkt_tolerance and constraint violation
      <= constraint_tolerance;
    - line_search_stall: no step along the QP direction lowered the merit
      function, and the iterate fails that test;
    - max_iterations: the iteration limit was reached;
    - infeasible: a subproblem was primal_infeasible, and elastic mode
      found no step or found one along which the merit function did not
      fall;
    - numerical_failure: non-finite values, a subproblem that is unbounded
      or non-convex under the Gauss-Newton Hessian too, or a subproblem
      that the QP ends numerical_failure (non-finite data, or a solution
      that is not finite).

    Any status other than converged returns the best iterate seen.
    """

    x: np.ndarray
    status: str
    iterations: int
    kkt_residual: float
    constraint_violation: float
    solve_time_ms: float
    cost: float
    multipliers: np.ndarray
    merit_history: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _kkt_scale(y: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(y), initial=0.0)) / 100.0)


def _kkt_residual(g, j_eq_t, j_in_t, v_in, lo, hi, y) -> float:
    """Scaled max of stationarity and complementarity at one iterate.

    j_eq_t and j_in_t are the transposed equality Jacobian and inequality
    matrix.  A multiplier counts toward complementarity by its distance to
    the bound its sign selects: y > 0 pairs with the upper bound, y < 0 with
    the lower one, and a wrong-sign multiplier on a row without that bound
    is counted in full.
    """
    m_eq = j_eq_t.shape[1]
    grad_lagrangian = g + j_eq_t @ y[:m_eq] + j_in_t @ y[m_eq:]
    stationarity = float(np.max(np.abs(grad_lagrangian), initial=0.0))
    comp = 0.0
    if v_in.size:
        y_in = y[m_eq:]
        slack_hi = np.where(np.isfinite(hi), hi - v_in, np.inf)
        slack_lo = np.where(np.isfinite(lo), v_in - lo, np.inf)
        slack = np.where(y_in > 0, slack_hi, np.where(y_in < 0, slack_lo, 0.0))
        comp = float(np.max(np.minimum(np.abs(y_in), np.maximum(slack, 0.0)), initial=0.0))
    return max(stationarity, comp) / _kkt_scale(y)


def _checked(pattern, values, block: str) -> np.ndarray:
    """`values` as floats, one per stored entry of `pattern`, in their order.

    `values` are what the callback `block` returned; another count raises
    ValueError.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != pattern.data.shape:
        raise ValueError(
            f"{block} returned {values.size} values; its pattern stores {pattern.data.size}"
        )
    return values


def _stored(pattern, values, block: str):
    """The matrix of `pattern`'s format and entries that stores `values` (see _checked)."""
    values = _checked(pattern, values, block)
    return type(pattern)((values, pattern.indices, pattern.indptr), shape=pattern.shape)


def _interval_violation(values, lower, upper) -> np.ndarray:
    return np.maximum(lower - values, 0.0) + np.maximum(values - upper, 0.0)


def _l1_infeasibility(c_eq, in_gap) -> float:
    return float(np.sum(np.abs(c_eq))) + float(np.sum(in_gap))


def _constraint_values(problem, x):
    """eq(x) and the inequality rows at x."""
    return problem.eq(x), problem.ineq_matrix @ x


def _evaluate(problem, x, values=None):
    """Cost, gradient, constraint values and equality-Jacobian values at x.

    `values` are _constraint_values at x when the caller has them already
    (the accepted line-search trial); they are not evaluated again.
    """
    f = problem.cost(x)
    g = problem.cost_grad(x)
    c_eq, v_in = _constraint_values(problem, x) if values is None else values
    jac = _checked(problem.eq_jac_pattern, problem.eq_jac(x), "eq_jac")
    return f, g, c_eq, jac, v_in


def _elastic_qp(P, g, j_eq, c_eq, j_in, lo, hi, n):
    """Relax the inequality rows with l1-penalized slacks and re-solve."""
    m_in = j_in.shape[0]
    if m_in == 0:
        return None
    eye = sp.eye(m_in, format="csc")
    A = sp.bmat([[j_eq, None], [j_in, -eye], [j_in, eye], [None, eye]], format="csc")
    inf = np.inf * np.ones(m_in)
    lower = np.concatenate([-c_eq, -inf, lo, np.zeros(m_in)])
    upper = np.concatenate([-c_eq, hi, inf, inf])
    P_aug = sp.block_diag([P, 1e-8 * sp.eye(m_in)], format="csc")
    g_aug = np.concatenate([g, _ELASTIC_WEIGHT * np.ones(m_in)])
    res = solve_qp(P_aug, g_aug, A, lower, upper)
    if res.status != "solved":
        return None
    m_eq = c_eq.size
    y_eq = res.y[:m_eq]
    y_in = res.y[m_eq : m_eq + m_in] + res.y[m_eq + m_in : m_eq + 2 * m_in]
    return res.x[:n], np.concatenate([y_eq, y_in])


@functools.cache
def _openblas():
    """scipy's bundled OpenBLAS through ctypes, or None where it is not found.

    scipy's wheels ship it as libscipy_openblas in scipy.libs (scipy/.dylibs
    on macOS); opening the file again yields the library scipy has loaded.
    """
    root = Path(scipy.__file__).parent
    for path in sorted([*root.parent.glob("scipy.libs/libscipy_openblas*"),
                        *root.glob(".dylibs/libscipy_openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
            lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold scipy's OpenBLAS at one thread, then restore the caller's count.

    The count is process-wide.  Where the library is not found, nothing
    changes.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(threads)


@_one_blas_thread()
def solve(problem, warm_start, options: SolverOptions | None = None, y0=None) -> Solution:
    """Run the SQP iteration from the given starting point.

    y0 optionally seeds the multipliers, one per constraint row (equality
    rows first), e.g. from the previous solve of a problem with the same
    rows; they shape the first subproblem's Hessian and active set.  The
    solve holds scipy's OpenBLAS at one thread (_one_blas_thread).
    """
    opts = options or SolverOptions()
    x = np.array(warm_start, dtype=float).reshape(-1)
    if x.size != problem.dimension:
        raise ValueError(
            f"warm start has {x.size} entries, problem has {problem.dimension}"
        )
    t_start = time.perf_counter()
    m_eq = problem.n_eq
    m_in = problem.n_ineq
    if y0 is None:
        y = np.zeros(m_eq + m_in)
    else:
        y = np.array(y0, dtype=float).reshape(-1)
        if y.size != m_eq + m_in:
            raise ValueError(f"y0 has {y.size} entries, problem has {m_eq + m_in} rows")
    lo, hi = problem.ineq_lower, problem.ineq_upper
    # The patterns are fixed and the inequality rows constant: one equality
    # Jacobian and one transposed view of it and of the inequality rows per
    # solve.  Each iteration overwrites the Jacobian's values, in it and in
    # the head of the subproblems' constraint values, whose tail is the
    # inequality rows'.
    j_in = problem.ineq_matrix
    j_eq = _stored(problem.eq_jac_pattern, np.zeros(problem.eq_jac_pattern.nnz), "eq_jac")
    a_values = np.concatenate([j_eq.data, j_in.data])
    j_eq_t, j_in_t = j_eq.T, j_in.T

    status = "max_iterations"
    iterations = 0
    kkt = np.inf
    viol = np.inf
    cost_value = np.inf
    nu = 1.0
    merit_history: list = []
    best = None  # (key, x, y, kkt, viol, f)
    values = None  # _constraint_values at x, once a line search has them

    for it in range(opts.max_iterations + 1):
        f, g, c_eq, jac, v_in = _evaluate(problem, x, values)
        j_eq.data[:] = a_values[: jac.size] = jac
        finite = (
            np.isfinite(f)
            and np.all(np.isfinite(g))
            and np.all(np.isfinite(c_eq))
            and np.all(np.isfinite(v_in))
        )
        if not finite:
            status = "numerical_failure"
            break
        viol_eq = float(np.max(np.abs(c_eq), initial=0.0))
        in_gap = _interval_violation(v_in, lo, hi)
        viol = max(viol_eq, float(np.max(in_gap, initial=0.0)))
        cost_value = f
        kkt = _kkt_residual(g, j_eq_t, j_in_t, v_in, lo, hi, y)
        iterations = it

        phase = 0 if viol <= opts.constraint_tolerance else 1
        key = (phase, viol if phase else f)
        if best is None or key < best[0]:
            best = (key, x.copy(), y.copy(), kkt, viol, f)

        if kkt <= opts.kkt_tolerance and viol <= opts.constraint_tolerance:
            status = "converged"
            break
        if it == opts.max_iterations:
            break

        lower = np.concatenate([-c_eq, lo - v_in])
        upper = np.concatenate([-c_eq, hi - v_in])
        # The exact Hessian first; the Gauss-Newton one (zero multipliers)
        # only for a subproblem that the exact one makes non-convex.
        for y_hess in (y[:m_eq], np.zeros(m_eq)):
            hess = problem.lagrangian_hess(x, y_hess)
            qp_res = solve_qp(
                hess, g, a_values, lower, upper,
                options=_SUBPROBLEM_OPTIONS,
                y0=y, workspace=problem.qp_workspace,
            )
            if qp_res.status != "non_convex":
                break
        if qp_res.status == "primal_infeasible":
            elastic = _elastic_qp(
                _stored(problem.hess_pattern, hess, "lagrangian_hess"),
                g, j_eq, c_eq, j_in, lo - v_in, hi - v_in, problem.dimension,
            )
            if elastic is None:
                status = "infeasible"
                break
            d, y_new = elastic
        elif qp_res.status in ("dual_infeasible", "non_convex", "numerical_failure"):
            status = "numerical_failure"
            break
        else:
            d = qp_res.x
            y_new = qp_res.y
        if not np.all(np.isfinite(d)):
            status = "numerical_failure"
            break

        nu = max(nu, 1.5 * float(np.max(np.abs(y_new), initial=0.0)) + 1e-6)
        infeas0 = _l1_infeasibility(c_eq, in_gap)
        merit0 = f + nu * infeas0
        descent = float(g @ d) - nu * infeas0
        alpha = 1.0
        accepted = False
        merit_try = merit0
        for _ in range(_MAX_BACKTRACKS):
            x_try = x + alpha * d
            f_try = problem.cost(x_try)
            values = _constraint_values(problem, x_try)
            infeas_try = _l1_infeasibility(values[0], _interval_violation(values[1], lo, hi))
            merit_try = f_try + nu * infeas_try
            if np.isfinite(merit_try) and merit_try <= merit0 + _ARMIJO_FACTOR * alpha * min(
                descent, 0.0
            ):
                accepted = True
                break
            alpha *= _BACKTRACK_RATIO
        merit_history.append((merit0, merit_try if accepted else merit0, nu))
        if not accepted:
            # No merit progress along the QP direction; adopt the multipliers
            # and let the same KKT test as at the loop head decide.  After an
            # elastic step the linearized constraints were inconsistent, and
            # the relaxation can make no more progress on them: infeasible.
            y = y_new
            kkt = _kkt_residual(g, j_eq_t, j_in_t, v_in, lo, hi, y)
            iterations = it + 1
            if kkt <= opts.kkt_tolerance and viol <= opts.constraint_tolerance:
                status = "converged"
            elif qp_res.status == "primal_infeasible":
                status = "infeasible"
            else:
                status = "line_search_stall"
            break
        x = x_try
        y = y_new

    if status != "converged" and best is not None:
        _, x_best, y_best, kkt_best, viol_best, f_best = best
        x, y, kkt, viol, cost_value = x_best, y_best, kkt_best, viol_best, f_best
    elapsed_ms = (time.perf_counter() - t_start) * 1e3
    return Solution(
        x=x,
        status=status,
        iterations=iterations,
        kkt_residual=kkt,
        constraint_violation=viol,
        solve_time_ms=elapsed_ms,
        cost=cost_value,
        multipliers=y,
        merit_history=merit_history,
    )


@dataclass
class DerivativeReport:
    max_relative_error: float
    worst_block: str
    worst_row: int
    worst_col: int
    gradient_error: float
    eq_error: float
    hessian_error: float

    def __str__(self):
        return (
            f"max rel error {self.max_relative_error:.3e} in {self.worst_block}"
            f"[{self.worst_row}, {self.worst_col}] "
            f"(grad {self.gradient_error:.2e}, eq {self.eq_error:.2e}, "
            f"hess {self.hessian_error:.2e})"
        )


def _rel_err(analytic, estimate):
    """Elementwise |analytic - estimate| / max(1, |analytic|, |estimate|)."""
    scale = np.maximum(np.maximum(1.0, np.abs(analytic)), np.abs(estimate))
    return np.abs(analytic - estimate) / scale


def _color_groups(pattern_rows, pattern_cols, n_cols):
    """Greedy column grouping: columns in one group share no constraint row.

    Returns the groups (arrays of columns) and each column's rows.
    """
    order = np.argsort(pattern_cols, kind="stable")
    sorted_cols = pattern_cols[order]
    sorted_rows = pattern_rows[order]
    boundaries = np.searchsorted(sorted_cols, np.arange(n_cols + 1))
    col_rows = [sorted_rows[boundaries[c] : boundaries[c + 1]] for c in range(n_cols)]
    groups = []
    group_masks = []
    n_rows = int(pattern_rows.max()) + 1 if pattern_rows.size else 1
    for c in range(n_cols):
        rows = col_rows[c]
        placed = False
        for g, mask in enumerate(group_masks):
            if not mask[rows].any():
                groups[g].append(c)
                mask[rows] = True
                placed = True
                break
        if not placed:
            mask = np.zeros(n_rows, dtype=bool)
            mask[rows] = True
            groups.append([c])
            group_masks.append(mask)
    return tuple(np.array(group) for group in groups), tuple(col_rows)


def _fd_jacobian_check(fun, jac_matrix, x, h, m_rows, coloring):
    """Compare an analytic sparse Jacobian against grouped central differences.

    `coloring` is _color_groups of the matrix's own stored entries (explicit
    zeros included).  Within each probe, rows claimed by exactly one
    perturbed column estimate that column's entries; rows claimed by no
    column must stay zero, which catches entries missing from the sparsity.
    """
    n = x.size
    jac = jac_matrix.tocsc()
    groups, col_rows = coloring
    worst = (0.0, -1, -1)
    for group in groups:
        direction = np.zeros(n)
        direction[group] = 1.0
        delta = (fun(x + h * direction) - fun(x - h * direction)) / (2.0 * h)
        # The group's entries in column, then row order, so the first strict
        # maximum is the entry a scan in that order would keep; a NaN error
        # never beats the running worst.
        rows = np.concatenate([col_rows[c] for c in group])
        cols = np.repeat(group, [col_rows[c].size for c in group])
        if rows.size:
            err = _rel_err(np.asarray(jac[rows, cols]).ravel(), delta[rows])
            k = int(np.argmax(np.where(np.isnan(err), -np.inf, err)))
            if err[k] > worst[0]:
                worst = (err[k], int(rows[k]), int(cols[k]))
        claimed = np.zeros(m_rows, dtype=bool)
        claimed[rows] = True
        stray = np.abs(np.where(claimed, 0.0, delta))
        r = int(np.argmax(stray)) if stray.size else 0
        if stray.size and stray[r] > worst[0]:
            # A nonzero outside the declared pattern of every probed column.
            worst = (float(stray[r]), r, int(group[0]))
    return worst


def check_derivatives(problem, points, multipliers=None) -> DerivativeReport:
    """Central-difference audit of the gradient, the equality Jacobian and
    the Lagrangian Hessian at every row of `points`, of shape (P, n), P >= 1.

    Each matrix is audited on the stored entries of its declared pattern
    (NlpProblem.eq_jac_pattern, hess_pattern), whose columns are grouped
    once; a callback that returns another number of values raises
    ValueError naming it.  The inequality rows are a constant matrix, with
    nothing to audit.  The Hessian at a point is audited at that point's
    row of `multipliers`, shape (P, n_eq), all ones when not given, against
    grouped differences of the Lagrangian's gradient cost_grad(x) +
    eq_jac(x)' y.  Each block's error is its maximum over the points, and
    the worst entry is the first strict maximum in point order.  Every
    difference steps _FD_STEP.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] != problem.dimension:
        raise ValueError(
            f"points has shape {points.shape}, not (P, {problem.dimension}) with P >= 1"
        )
    shape = (points.shape[0], problem.n_eq)
    ys = np.ones(shape) if multipliers is None else np.asarray(multipliers, dtype=float)
    if ys.shape != shape:
        raise ValueError(f"multipliers has shape {ys.shape}, not {shape}")
    h = _FD_STEP
    worst = (0.0, "cost_grad", -1, -1)
    errors = dict.fromkeys(("cost_grad", "eq_jac", "lagrangian_hess"), 0.0)
    patterns = {"eq_jac": problem.eq_jac_pattern, "lagrangian_hess": problem.hess_pattern}
    colorings = {}  # each pattern's columns, grouped once
    for block, pattern in patterns.items():
        coo = pattern.tocoo()
        colorings[block] = _color_groups(coo.row, coo.col, coo.shape[1])

    def eq_jac(z):
        return _stored(problem.eq_jac_pattern, problem.eq_jac(z), "eq_jac")

    for x, y in zip(points, ys):
        g = problem.cost_grad(x)
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = 1.0
            fd = (problem.cost(x + h * e) - problem.cost(x - h * e)) / (2.0 * h)
            err = _rel_err(g[i], fd)
            errors["cost_grad"] = max(errors["cost_grad"], err)
            if err > worst[0]:
                worst = (err, "cost_grad", 0, i)

        def lagrangian_grad(z):
            return problem.cost_grad(z) + eq_jac(z).T @ y

        # (block, function, the values of its analytic Jacobian at x) per audit
        audits = (
            ("eq_jac", problem.eq, problem.eq_jac(x)),
            ("lagrangian_hess", lagrangian_grad, problem.lagrangian_hess(x, y)),
        )
        for block, fun, values in audits:
            jac = _stored(patterns[block], values, block)
            err, r, c = _fd_jacobian_check(fun, jac, x, h, jac.shape[0], colorings[block])
            errors[block] = max(errors[block], err)
            if err > worst[0]:
                worst = (err, block, r, c)

    return DerivativeReport(
        max_relative_error=worst[0],
        worst_block=worst[1],
        worst_row=worst[2],
        worst_col=worst[3],
        gradient_error=errors["cost_grad"],
        eq_error=errors["eq_jac"],
        hessian_error=errors["lagrangian_hess"],
    )
