"""Sparse QP solver.

Solves   min 1/2 x' P x + q' x   s.t.  lower <= A x <= upper
by a primal-dual active-set iteration on Ruiz-scaled data: each iteration
solves the equality-constrained QP of one active set with a factor of the
condensed system P + reg I + rho A_act' A_act (banded Cholesky under a
variable ordering that makes it narrow-banded) and iterative refinement,
then updates the set from the solution's violated rows and wrong-sign
multipliers.  Equality rows are expressed as lower == upper.

P may be indefinite, but on the null space of every active set the
iteration visits, P + reg I must be positive definite.  With rho large that
holds exactly when the Cholesky factorization succeeds, so a breakdown ends
the solve with status non_convex (inertia test, no factor of a shifted
matrix is tried).  A convex QP (P positive semidefinite) always passes it.
Everything is deterministic: no randomized pivoting, no time-based stopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

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
# Equality-constrained solve: refinement stops once a pass cuts the KKT
# residual by less than a tenth, which ends it at rounding level and on an
# inconsistent or unbounded active set, but not while a nearly dependent
# set converges slowly.
_POLISH_REG = 1e-9
_POLISH_REFINE_STEPS = 25
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
    primal_residual: float
    dual_residual: float
    polished: bool = False
    scaling: tuple | None = None

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def _column_max(abs_data: np.ndarray, indices: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    np.maximum.at(out, indices, abs_data)
    return out


def _ruiz_scale(
    P: sp.csc_matrix, q: np.ndarray, A: sp.csc_matrix, free: np.ndarray, iterations: int
):
    """Modified Ruiz equilibration of the stacked KKT data plus cost scaling.

    Rows marked `free` (no finite bound) take no part in the norms, so they
    leave the scaling of the other rows, the variables and the cost as it
    would be without them.  Operates in place on copies of the nonzero data,
    which keeps the cost linear in nnz per sweep.
    """
    n, m = q.size, A.shape[0]
    d = np.ones(n)
    e = np.ones(m)
    c = 1.0
    Ps = P.tocsc(copy=True)
    As = A.tocsc(copy=True)
    qs = q.copy()
    p_col = np.repeat(np.arange(n), np.diff(Ps.indptr))
    p_row = Ps.indices
    a_col = np.repeat(np.arange(n), np.diff(As.indptr))
    a_row = As.indices
    counted = ~free[a_row]
    for _ in range(iterations):
        abs_p = np.abs(Ps.data)
        abs_a = np.where(counted, np.abs(As.data), 0.0)
        norm_x = _column_max(abs_p, p_col, n)
        if m:
            np.maximum.at(norm_x, a_col, abs_a)
        delta_x = 1.0 / np.sqrt(np.where(norm_x > _DIV_GUARD, norm_x, 1.0))
        if m:
            row_a = _column_max(abs_a, a_row, m)
            delta_e = 1.0 / np.sqrt(np.where(row_a > _DIV_GUARD, row_a, 1.0))
            As.data *= delta_e[a_row] * delta_x[a_col]
            e *= delta_e
        Ps.data *= delta_x[p_row] * delta_x[p_col]
        qs *= delta_x
        d *= delta_x
        col_p = _column_max(np.abs(Ps.data), p_col, n)
        denom = max(float(col_p.mean()) if n else 0.0, float(np.abs(qs).max(initial=0.0)))
        gamma = 1.0 / denom if denom > _DIV_GUARD else 1.0
        Ps.data *= gamma
        qs *= gamma
        c *= gamma
    return Ps, qs, As, d, e, c


class _BandPattern:
    """Where each entry of P + A' diag(w) A lands in banded storage.

    Depends only on the sparsity patterns of P and A and on the variable
    ordering, which the SQP subproblems of one horizon problem share.
    """

    def __init__(self, P: sp.csc_matrix, A: sp.csr_matrix, ordering):
        n = P.shape[0]
        # Every pair (left, right) of nonzeros sharing a row of A, with left
        # at or before right within the row.
        lens = np.diff(A.indptr)
        entry_row = np.repeat(np.arange(A.shape[0], dtype=np.int32), lens)
        after = A.indptr[1:][entry_row] - np.arange(A.nnz)
        left = np.repeat(np.arange(A.nnz, dtype=np.int32), after)
        right = left + (np.arange(left.size) - np.repeat(np.cumsum(after) - after, after))
        p_col = np.repeat(np.arange(n), np.diff(P.indptr))
        p_row = P.indices
        if ordering is None:
            graph = sp.coo_matrix(
                (np.ones(left.size + P.nnz),
                 (np.concatenate([A.indices[left], p_row]),
                  np.concatenate([A.indices[right], p_col]))),
                shape=(n, n),
            )
            ordering = reverse_cuthill_mckee((graph + graph.T).tocsr(), symmetric_mode=True)
        self.perm = ordering.copy()
        position = np.empty(n, dtype=np.int64)
        position[self.perm] = np.arange(n)
        pi, pj = position[A.indices[left]], position[A.indices[right]]
        lo, hi = np.minimum(pi, pj), np.maximum(pi, pj)
        qi, qj = position[p_row], position[p_col]
        self.p_entries = np.flatnonzero(qi <= qj)
        qi, qj = qi[self.p_entries], qj[self.p_entries]
        self.width = w = int(max(np.max(hi - lo, initial=0), np.max(qj - qi, initial=0)))
        self.pair_slot = (w + lo - hi) * n + hi
        self.pair_left = left
        self.pair_right = right.astype(np.int32)
        self.pair_row = entry_row[left]
        self.p_slot = (w + qi - qj) * n + qj
        for array in (self.perm, self.p_entries, self.pair_slot, self.pair_left,
                      self.pair_right, self.pair_row, self.p_slot):
            array.flags.writeable = False


# The latest (key, result) of _band_pattern, a pure function of its key.
# build_nlp's constraint rows depend on the layout alone, so the QPs of a
# whole run share a pattern: in the bundled runs the single entry serves 63
# of 64 lookups (one leg) and 67 of 68 (two legs), the first QP of the run
# building it.
_LAST_PATTERN: list = [None, None]


def _band_pattern(P: sp.csc_matrix, A: sp.csr_matrix, ordering) -> _BandPattern:
    """The _BandPattern of (P, A, ordering), rebuilt only when the key changes."""
    key = (
        P.shape[0],
        P.indptr.tobytes(), P.indices.tobytes(),
        A.indptr.tobytes(), A.indices.tobytes(),
        None if ordering is None else ordering.tobytes(),
    )
    if _LAST_PATTERN[0] != key:
        _LAST_PATTERN[:] = [key, _BandPattern(P, A, ordering)]
    return _LAST_PATTERN[1]


class _CondensedSystem:
    """The matrices P + sigma I + A' diag(w) A of one QP in banded storage.

    Under a stage-wise ordering of the variables these matrices are narrow
    band matrices: bandwidth 26 for the 552 variables of the one-leg
    horizon, 53 for the 1365 of the two-leg one.  Reverse Cuthill-McKee, the
    ordering used when none is given, reaches 55 and 65-69 on them.  With
    the band slot of every entry known (_BandPattern), each factorization,
    for any sigma and row weights w, is one weighted bincount plus LAPACK's
    banded Cholesky.
    """

    def __init__(self, P: sp.csc_matrix, A: sp.csc_matrix, ordering=None):
        Ar = sp.csr_matrix(A)
        Ar.sum_duplicates()
        self.pattern = pattern = _band_pattern(P, Ar, ordering)
        self.shape = (pattern.width + 1, P.shape[0])
        self.pair_value = Ar.data[pattern.pair_left] * Ar.data[pattern.pair_right]
        self.p_band = np.bincount(
            pattern.p_slot, weights=P.data[pattern.p_entries], minlength=np.prod(self.shape)
        ).reshape(self.shape).astype(float)

    def band(self, sigma: float, weights: np.ndarray) -> np.ndarray:
        """Upper band storage of P + sigma I + A' diag(weights) A, permuted."""
        band = self.p_band + np.bincount(
            self.pattern.pair_slot,
            weights=self.pair_value * weights[self.pattern.pair_row],
            minlength=np.prod(self.shape),
        ).reshape(self.shape)
        band[-1] += sigma
        return band


class _BandedCholesky:
    """LAPACK banded Cholesky factor plus the ordering it was computed in."""

    def __init__(self, factor: np.ndarray, perm: np.ndarray):
        self.factor = factor
        self.perm = perm

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs)
        out[self.perm] = lapack.dpbtrs(self.factor, rhs[self.perm])[0]
        return out


class _NotPositiveDefinite(Exception):
    """The condensed system of an active set has no Cholesky factor."""


def _factor_kkt(system: _CondensedSystem, sigma: float, weights: np.ndarray):
    """Banded Cholesky factor of P + sigma I + A' diag(weights) A.

    Much smaller and fills far less than the equivalent 2x2 saddle form.
    With large weights on the active rows, the matrix is positive definite
    exactly when P + sigma I is positive definite on their null space
    (Finsler's lemma), so a breakdown of the factorization is the inertia
    test of the active set: it raises _NotPositiveDefinite.
    """
    factor, info = lapack.dpbtrf(system.band(sigma, weights))
    if info > 0:
        raise _NotPositiveDefinite
    return _BandedCholesky(factor, system.pattern.perm)


@dataclass
class _ScaledQp:
    """Equilibrated data: P = c D P0 D, q = c D q0, A = E A0 D, bounds E l0, E u0."""

    P: sp.csc_matrix
    q: np.ndarray
    A: sp.csc_matrix
    AT: sp.csr_matrix
    lower: np.ndarray
    upper: np.ndarray
    eq: np.ndarray
    d: np.ndarray
    e: np.ndarray
    c: float
    system: _CondensedSystem

    def unscale(self, x: np.ndarray, y: np.ndarray):
        return self.d * x, (self.e * y) / self.c


def _certificate(P, q, A, lower, upper, dx, dy):
    """The infeasibility a step (dx, dy) in original units certifies, or None.

    dy certifies primal infeasibility when A' dy = 0 while its support
    function over the bounds is negative (Farkas); dx certifies an unbounded
    objective when it is a descent direction of zero curvature along which
    no finite bound is reached.  Returns the status name, or None.
    """
    norm_dy = float(np.max(np.abs(dy), initial=0.0))
    if norm_dy > _DIV_GUARD:
        at_dy = float(np.max(np.abs(A.T @ dy), initial=0.0))
        up_term = np.where(np.isfinite(upper) & (dy > 0), upper, 0.0) * np.maximum(dy, 0.0)
        lo_term = np.where(np.isfinite(lower) & (dy < 0), lower, 0.0) * np.minimum(dy, 0.0)
        support = float(np.sum(up_term) + np.sum(lo_term))
        unbounded_push = bool(
            np.any((dy > _EPS_INFEASIBLE * norm_dy) & ~np.isfinite(upper))
            or np.any((dy < -_EPS_INFEASIBLE * norm_dy) & ~np.isfinite(lower))
        )
        if (
            not unbounded_push
            and at_dy <= _EPS_INFEASIBLE * norm_dy
            and support <= -_EPS_INFEASIBLE * norm_dy
        ):
            return "primal_infeasible"
    norm_dx = float(np.max(np.abs(dx), initial=0.0))
    if norm_dx > _DIV_GUARD:
        tol = _EPS_INFEASIBLE * norm_dx
        adx = A @ dx
        if (
            float(np.max(np.abs(P @ dx), initial=0.0)) <= tol
            and float(q @ dx) < -tol
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
    scaling: tuple | None = None,
    ordering=None,
) -> QpResult:
    """Solve the interval-constrained QP; see module docstring.

    The status is solved, max_iterations (returning the best point seen),
    primal_infeasible, dual_infeasible (unbounded objective) or non_convex
    (P not positive definite on the null space of an active set).
    `scaling` may carry (d, e, c) equilibration vectors from a previous solve
    of a structurally identical problem, saving the Ruiz sweeps.  `ordering`
    is a permutation of range(n) under which P + A'A is narrow-banded
    (reverse Cuthill-McKee when not given); any other array raises
    ValueError, as do a `scaling` of other sizes than (n, m) and a `y0` of
    other than m entries.  The first active set is the sign pattern of `y0`
    (no inequality row without it), so a warm start that carries the right
    active set costs one iteration.  A row whose bounds are both infinite
    never becomes active and changes neither the scaling nor the solution;
    its multiplier is zero.
    """
    opts = options or QpOptions()
    q = np.asarray(q, dtype=float).reshape(-1)
    n = q.size
    P = sp.csc_matrix(P, shape=(n, n), dtype=float)
    if A is None or (hasattr(A, "shape") and A.shape[0] == 0):
        A = sp.csc_matrix((0, n))
        lower = np.zeros(0)
        upper = np.zeros(0)
    else:
        A = sp.csc_matrix(A, dtype=float)
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    m = A.shape[0]
    if lower.size != m or upper.size != m:
        raise ValueError("constraint bounds do not match the number of rows")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound on some row")
    if ordering is not None:
        ordering = np.asarray(ordering)
        if (
            ordering.shape != (n,)
            or ordering.dtype.kind not in "iu"
            or not np.array_equal(np.sort(ordering), np.arange(n))
        ):
            raise ValueError("ordering is not a permutation of the variables")
    if y0 is not None and np.asarray(y0).size != m:
        raise ValueError(f"y0 has {np.asarray(y0).size} entries, the QP has {m} rows")
    if scaling is not None and (scaling[0].size, scaling[1].size) != (n, m):
        raise ValueError(
            f"scaling has {scaling[0].size} variable and {scaling[1].size} row factors,"
            f" the QP has {n} and {m}"
        )

    if scaling is not None:
        d, e, c = scaling[0].copy(), scaling[1].copy(), float(scaling[2])
        Ps = P.tocsc(copy=True)
        Ps.data *= c * d[Ps.indices] * d[np.repeat(np.arange(n), np.diff(Ps.indptr))]
        As = A.tocsc(copy=True)
        if m:
            As.data *= e[As.indices] * d[np.repeat(np.arange(n), np.diff(As.indptr))]
        qs = c * d * q
    else:
        free = ~(np.isfinite(lower) | np.isfinite(upper))
        Ps, qs, As, d, e, c = _ruiz_scale(P, q, A, free, _SCALING_ITERATIONS)
    ls = e * lower
    us = e * upper
    eq = np.isfinite(lower) & (lower == upper)
    data = _ScaledQp(
        Ps, qs, As, As.T.tocsr(), ls, us, eq, d, e, c, _CondensedSystem(Ps, As, ordering)
    )

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
        y = c * np.asarray(y0, dtype=float).reshape(-1) / np.where(e > 0, e, 1.0)
    else:
        y = np.zeros(m)
    low = ~eq & (y < 0.0) & np.isfinite(lower)
    upp = ~eq & (y > 0.0) & np.isfinite(upper)
    y = np.where(eq | low | upp, y, 0.0)
    seen = set()
    one_row = False
    status = "max_iterations"
    best = (np.inf, x, y, np.inf, np.inf)
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        seen.add(np.concatenate([low, upp]).tobytes())
        try:
            found = _polish_point(data, x, y, low, upp)
        except _NotPositiveDefinite:
            status = "non_convex"
            break
        if found is None:
            break
        x_new, y_new, dx, dy = found
        ax = As @ x_new
        sign_tol = 1e-10 * max(1.0, float(np.max(np.abs(y_new), initial=0.0)))
        wrong = (upp & (y_new < -sign_tol)) | (low & (y_new > sign_tol))
        # Active rows the solution cannot meet are inconsistent; the stalled
        # refinement moves their multipliers along the gaps.  Release the
        # row whose multiplier that move takes to zero first.
        gap = np.where(low, ax - ls, np.where(upp | eq, ax - us, 0.0))
        inconsistent = float(np.max(np.abs(gap) / e, initial=0.0)) > _EPS_ABS
        inward = (low & (gap > 0.0)) | (upp & (gap < 0.0))
        if inconsistent and np.any(inward):
            reach = np.abs(y_new) / np.where(inward, np.abs(gap), 1.0)
            wrong[np.flatnonzero(inward)[np.argmin(reach[inward])]] = True
        inactive = ~(eq | low | upp)
        under = inactive & ((ls - ax) / e > _EPS_ACTIVATE)
        over = inactive & ((ax - us) / e > _EPS_ACTIVATE)

        # The KKT test in original units: bound violation of every row,
        # distance of every active row from its bound, and stationarity with
        # the multipliers clipped to their signs.
        signed = np.where(upp, np.maximum(y_new, 0.0), np.where(low, np.minimum(y_new, 0.0), y_new))
        off = np.maximum(np.maximum(ls - ax, ax - us), np.abs(gap))
        pri = float(np.max(off / e, initial=0.0))
        gradient = Ps @ x_new + qs
        dua = float(np.max(np.abs(gradient + data.AT @ signed) / (c * d)))
        done = max(pri, dua) <= _EPS_ABS and not np.any(wrong | under | over)
        if done or max(pri, dua) < best[0]:
            best = (max(pri, dua), x_new, signed, pri, dua)
        if done:
            status = "solved"
            break
        # Certificates are read only off an active set the refinement could
        # not solve, since the step after a solved one is rounding noise.
        stationary = np.abs(gradient + data.AT @ y_new) / (c * d)
        unbounded = float(np.max(stationary, initial=0.0)) > _EPS_ABS
        certified = (inconsistent or unbounded) and _certificate(
            P, q, A, lower, upper, d * dx, e * dy / c
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
        if np.any(wrong):
            right = np.where(upp, (y > 0.0) & (y_new < 0.0), (y < 0.0) & (y_new > 0.0))
            ratio = np.where(wrong & right, y / np.where(right, y - y_new, 1.0), 0.0)
            row = int(np.flatnonzero(wrong)[np.argmin(ratio[wrong])])
            x, y = x + ratio[row] * (x_new - x), y + ratio[row] * (y_new - y)
            y[row] = 0.0
            low[row] = upp[row] = False
        elif np.any(under | over):
            x, y = x_new, y_new
            row = int(np.argmax(np.where(under, ls - ax, np.where(over, ax - us, -np.inf))))
            low[row], upp[row] = bool(under[row]), bool(over[row])
        else:
            break

    kkt, xs, ys, pri, dua = best
    if status == "max_iterations" and kkt <= _EPS_ABS:
        status = "solved"
    return QpResult(
        *data.unscale(xs, ys), status, iterations, pri, dua,
        polished=bool(np.isfinite(kkt)), scaling=(d, e, c),
    )


def _polish_point(data: _ScaledQp, x_est, y_est, low, upp):
    """Solve the equality-constrained QP of one active set.

    The equality rows and the inequality rows marked in `low` (held at their
    lower bound) and `upp` (at their upper bound) are active.  Works on the
    scaled data and returns a scaled (x, y, dx, dy), or None when the
    solution is not finite; _factor_kkt raises _NotPositiveDefinite when P
    is not positive definite on the null space of the active rows.  The
    equality-constrained QP is solved by iterative refinement with the
    factor of P + _POLISH_REG I + _POLISH_RHO A_act' A_act, the regularized
    saddle system with its multiplier block eliminated.  The refinement
    starts from (x_est, y_est) and keeps the component of y_est that the
    active rows leave undetermined.

    (dx, dy) is the refinement step that would follow (x, y).  Where the
    active rows are inconsistent the refinement stalls with the multipliers
    running off along dy, a Farkas direction of those rows; where the
    objective is unbounded on them, x runs off along dx.
    """
    active = data.eq | low | upp
    targets = np.where(data.eq | upp, data.upper, np.where(low, data.lower, 0.0))
    weight = np.where(active, _POLISH_RHO, 0.0)
    factor = _factor_kkt(data.system, _POLISH_REG, weight)
    xh = x_est
    yh = np.where(active, y_est, 0.0)
    # Iterative refinement in correction form: each pass solves the
    # regularized system for a step (dx, dy) against the exact KKT
    # residuals, so rounding in the steps shrinks with the steps.
    residual = np.inf
    for _ in range(_POLISH_REFINE_STEPS):
        r_pri = np.where(active, data.A @ xh - targets, 0.0)
        r_dua = data.P @ xh + data.q + data.AT @ yh
        last, residual = residual, max(
            float(np.max(np.abs(r_pri), initial=0.0)), float(np.max(np.abs(r_dua)))
        )
        dx = factor.solve(-(r_dua + data.AT @ (weight * r_pri)))
        dy = weight * (r_pri + data.A @ dx)
        if residual > 0.9 * last:
            break
        xh = xh + dx
        yh = yh + dy
    if not (np.all(np.isfinite(xh)) and np.all(np.isfinite(yh))):
        return None
    return xh, yh, dx, dy


def qp_solve(
    hessian,
    gradient,
    eq_matrix=None,
    eq_rhs=None,
    ineq_matrix=None,
    ineq_lower=None,
    ineq_upper=None,
    x_lower=None,
    x_upper=None,
    options: QpOptions | None = None,
):
    """Convenience front end with equality rows, interval rows and variable bounds.

    Returns (x, eq_multipliers, ineq_multipliers, QpResult); bound multipliers
    are folded into the result's trailing rows.
    """
    gradient = np.asarray(gradient, dtype=float).reshape(-1)
    n = gradient.size
    blocks, lows, highs = [], [], []
    m_eq = m_in = 0
    if eq_matrix is not None:
        eq_rhs = np.asarray(eq_rhs, dtype=float).reshape(-1)
        blocks.append(sp.csc_matrix(eq_matrix))
        lows.append(eq_rhs)
        highs.append(eq_rhs)
        m_eq = eq_rhs.size
    if ineq_matrix is not None:
        blocks.append(sp.csc_matrix(ineq_matrix))
        lo = -np.inf * np.ones(blocks[-1].shape[0]) if ineq_lower is None else ineq_lower
        hi = np.inf * np.ones(blocks[-1].shape[0]) if ineq_upper is None else ineq_upper
        lows.append(np.asarray(lo, dtype=float))
        highs.append(np.asarray(hi, dtype=float))
        m_in = blocks[-1].shape[0]
    if x_lower is not None or x_upper is not None:
        lo = -np.inf * np.ones(n) if x_lower is None else np.asarray(x_lower, dtype=float)
        hi = np.inf * np.ones(n) if x_upper is None else np.asarray(x_upper, dtype=float)
        finite = np.isfinite(lo) | np.isfinite(hi)
        if np.any(finite):
            idx = np.where(finite)[0]
            eye = sp.eye(n, format="csr")[idx]
            blocks.append(sp.csc_matrix(eye))
            lows.append(lo[idx])
            highs.append(hi[idx])
    if blocks:
        A = sp.vstack(blocks, format="csc")
        lower = np.concatenate(lows)
        upper = np.concatenate(highs)
    else:
        A = lower = upper = None
    result = solve_qp(hessian, gradient, A, lower, upper, options=options)
    y_eq = result.y[:m_eq]
    y_in = result.y[m_eq : m_eq + m_in]
    return result.x, y_eq, y_in, result
