"""Sparse convex QP solver.

Solves   min 1/2 x' P x + q' x   s.t.  lower <= A x <= upper
with P positive semidefinite, by operator splitting: Ruiz-scaled data, one
factorization of the condensed system P + sigma I + A' diag(rho) A (banded
Cholesky under a variable ordering that makes it narrow-banded), a step
size per constraint row, and an active-set polish, always on, for
high-accuracy solutions.  Equality rows are expressed as lower == upper.
Everything is deterministic: no randomized pivoting, no time-based stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

_DIV_GUARD = 1e-30
_SIGMA = 1e-6
_RHO = 0.1
_RHO_EQ_SCALE = 1e3
_RELAXATION = 1.6
_EPS_ABS = 1e-6
_EPS_REL = 1e-6
_EPS_INFEASIBLE = 1e-9
_CHECK_INTERVAL = 25
_ADAPTIVE_RHO_INTERVAL = 100
_ADAPTIVE_RHO_TOLERANCE = 5.0
_MAX_REFACTORIZATIONS = 4
_SCALING_ITERATIONS = 10
# Active-set polish: a successful polish ends the solve at machine accuracy
# long before the first-order iteration would grind down to _EPS_ABS on its
# own.  Refinement stops early once a pass no longer halves the KKT residual.
_POLISH_REG = 1e-9
_POLISH_REFINE_STEPS = 25
# Weight of the active rows in the polish's condensed matrix (scaled units):
# the inverse of the dual regularization of the saddle system it replaces.
_POLISH_RHO = 1e6


@dataclass(frozen=True)
class QpOptions:
    """The ADMM iteration cap, the one setting callers choose per solve."""

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
    rho_final: float = 0.1

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def _column_max(abs_data: np.ndarray, indices: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    np.maximum.at(out, indices, abs_data)
    return out


def _ruiz_scale(P: sp.csc_matrix, q: np.ndarray, A: sp.csc_matrix, iterations: int):
    """Modified Ruiz equilibration of the stacked KKT data plus cost scaling.

    Operates in place on copies of the nonzero data, which keeps the cost
    linear in nnz per sweep.
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
    for _ in range(iterations):
        abs_p = np.abs(Ps.data)
        abs_a = np.abs(As.data)
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
# The QPs of one MPC step share a pattern, which changes only with the
# contact schedule.  In the bundled runs a single entry serves 114 of 130
# lookups (one leg) and 91 of 114 (two legs); an unbounded memo would serve
# 114 and 94.
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
        self.P, self.A = P, A
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

    def matrix(self, sigma: float, weights: np.ndarray) -> sp.csc_matrix:
        M = self.P + sigma * sp.eye(self.P.shape[0], format="csc")
        if self.A.shape[0]:
            M = M + self.A.T @ sp.diags(weights) @ self.A
        return sp.csc_matrix(M)


class _BandedCholesky:
    """LAPACK banded Cholesky factor plus the ordering it was computed in."""

    def __init__(self, factor: np.ndarray, perm: np.ndarray):
        self.factor = factor
        self.perm = perm

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs)
        out[self.perm] = lapack.dpbtrs(self.factor, rhs[self.perm])[0]
        return out


def _factor_kkt(system: _CondensedSystem, sigma: float, rho_vec: np.ndarray):
    """Factor the condensed system P + sigma I + A' diag(rho) A.

    Much smaller and fills far less than the equivalent 2x2 saddle form; the
    consensus iterate follows as z_tilde = A x_tilde.  A sparse LU takes over
    should rounding make the banded Cholesky break down.
    """
    factor, info = lapack.dpbtrf(system.band(sigma, rho_vec))
    if info == 0:
        return _BandedCholesky(factor, system.pattern.perm)
    return spla.splu(system.matrix(sigma, rho_vec), permc_spec="MMD_AT_PLUS_A")


@dataclass
class _ScaledQp:
    """Equilibrated data: P = c D P0 D, q = c D q0, A = E A0 D, bounds E l0, E u0."""

    P: sp.csc_matrix
    q: np.ndarray
    A: sp.csc_matrix
    AT: sp.csr_matrix
    lower: np.ndarray
    upper: np.ndarray
    d: np.ndarray
    e: np.ndarray
    c: float
    system: _CondensedSystem

    def unscale(self, x: np.ndarray, y: np.ndarray):
        return self.d * x, (self.e * y) / self.c

    def residuals(self, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        """Primal and dual residuals in original units, with their references."""
        ax = (self.A @ x) / self.e
        pri = float(np.max(np.abs(ax - z / self.e), initial=0.0))
        px = (self.P @ x) / (self.c * self.d)
        aty = (self.AT @ y) / (self.c * self.d)
        qs = self.q / (self.c * self.d)
        dua = float(np.max(np.abs(px + aty + qs), initial=0.0))
        pri_ref = max(
            float(np.max(np.abs(ax), initial=0.0)),
            float(np.max(np.abs(z / self.e), initial=0.0)),
        )
        dua_ref = max(
            float(np.max(np.abs(px), initial=0.0)),
            float(np.max(np.abs(aty), initial=0.0)),
            float(np.max(np.abs(qs), initial=0.0)),
        )
        return pri, dua, pri_ref, dua_ref


def solve_qp(
    P,
    q,
    A=None,
    lower=None,
    upper=None,
    options: QpOptions | None = None,
    y0=None,
    scaling: tuple | None = None,
    rho0: float | None = None,
    ordering=None,
) -> QpResult:
    """Solve the interval-constrained convex QP; see module docstring.

    `scaling` may carry (d, e, c) equilibration vectors from a previous solve
    of a structurally identical problem, saving the Ruiz sweeps; `rho0`
    similarly seeds the step size with the value a previous related solve
    adapted to.  `ordering` is a permutation of range(n) under which
    P + A'A is narrow-banded (reverse Cuthill-McKee when not given); any
    other array raises ValueError.  With `y0`, the active set its signs
    suggest is polished before any ADMM iteration; when that point already
    meets _EPS_ABS it is returned with 0 iterations.
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

    if scaling is not None and scaling[0].size == n and scaling[1].size == m:
        d, e, c = scaling[0].copy(), scaling[1].copy(), float(scaling[2])
        Ps = P.tocsc(copy=True)
        Ps.data *= c * d[Ps.indices] * d[np.repeat(np.arange(n), np.diff(Ps.indptr))]
        As = A.tocsc(copy=True)
        if m:
            As.data *= e[As.indices] * d[np.repeat(np.arange(n), np.diff(As.indptr))]
        qs = c * d * q
    else:
        Ps, qs, As, d, e, c = _ruiz_scale(P, q, A, _SCALING_ITERATIONS)
    ls = e * lower
    us = e * upper
    data = _ScaledQp(
        Ps, qs, As, As.T.tocsr(), ls, us, d, e, c, _CondensedSystem(Ps, As, ordering)
    )
    AsT = data.AT
    eq_mask = np.isfinite(lower) & np.isfinite(upper) & (lower == upper)
    rho_base = float(rho0) if rho0 is not None else _RHO
    rho_vec = np.where(eq_mask, rho_base * _RHO_EQ_SCALE, rho_base)

    x = np.zeros(n)
    warm_duals = y0 is not None and np.asarray(y0).size == m
    if warm_duals:
        y = c * np.asarray(y0, dtype=float) / np.where(e > 0, e, 1.0)
    else:
        y = np.zeros(m)
    z = np.clip(As @ x, ls, us) if m else np.zeros(0)

    def polished_result(xs, ys, status_out, iters):
        pri, dua, _, _ = data.residuals(xs, ys, np.clip(As @ xs, ls, us))
        return QpResult(
            *data.unscale(xs, ys), status_out, iters, pri, dua,
            polished=True, scaling=(d, e, c), rho_final=rho_base,
        )

    guess_prev = None
    guesses_tried = set()
    if warm_duals:
        # A warm start from a related solve often carries the right active
        # set already; polishing it first can skip the ADMM phase entirely.
        guess_prev = np.sign(y[~eq_mask]).astype(np.int8).tobytes()
        guesses_tried.add(guess_prev)
        warm = _polish_point(data, x, y)
        if warm is not None:
            warm = polished_result(*warm, "solved", 0)
            if max(warm.primal_residual, warm.dual_residual) <= _EPS_ABS:
                return warm

    lu = _factor_kkt(data.system, _SIGMA, rho_vec)
    refactorizations = 0
    status = "max_iterations"
    iterations = opts.max_iterations
    pri_res = np.inf
    dua_res = np.inf
    x_prev_chk = x.copy()
    y_prev_chk = y.copy()
    At = A.T
    for it in range(1, opts.max_iterations + 1):
        if m:
            rhs = _SIGMA * x - qs + AsT @ (rho_vec * z - y)
        else:
            rhs = _SIGMA * x - qs
        x_tilde = lu.solve(rhs)
        x = _RELAXATION * x_tilde + (1.0 - _RELAXATION) * x
        if m:
            z_tilde = As @ x_tilde
            w = _RELAXATION * z_tilde + (1.0 - _RELAXATION) * z + y / rho_vec
            z_new = np.clip(w, ls, us)
            y = rho_vec * (w - z_new)
            z = z_new

        if it % _CHECK_INTERVAL and it != opts.max_iterations:
            continue
        pri_res, dua_res, pri_ref, dua_ref = data.residuals(x, y, z)
        eps_pri = _EPS_ABS + _EPS_REL * pri_ref
        eps_dua = _EPS_ABS + _EPS_REL * dua_ref
        if pri_res <= eps_pri and dua_res <= eps_dua:
            status = "solved"
            iterations = it
            break
        # The active-set guess (the sign pattern of y on the inequality rows)
        # settles long before the residuals reach eps; once it has held over
        # a whole check interval, polish it, and try each settled guess only
        # once.
        guess = np.sign(y[~eq_mask]).astype(np.int8).tobytes()
        if guess == guess_prev and guess not in guesses_tried:
            guesses_tried.add(guess)
            early = _polish_point(data, x, y)
            if early is not None:
                early = polished_result(*early, "solved", it)
                if max(early.primal_residual, early.dual_residual) <= _EPS_ABS:
                    return early
        guess_prev = guess

        dy = (e * (y - y_prev_chk)) / c if m else np.zeros(0)
        dx = d * (x - x_prev_chk)
        if m and float(np.max(np.abs(dy), initial=0.0)) > _DIV_GUARD:
            norm_dy = float(np.max(np.abs(dy)))
            at_dy = float(np.max(np.abs((At @ dy) / d), initial=0.0))
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
                status = "primal_infeasible"
                iterations = it
                break
        norm_dx = float(np.max(np.abs(dx), initial=0.0))
        if norm_dx > _DIV_GUARD:
            p_dx = float(np.max(np.abs(P @ dx), initial=0.0))
            q_dx = float(q @ dx)
            tol = _EPS_INFEASIBLE * norm_dx
            if m:
                adx = A @ dx
                directions_ok = bool(
                    np.all(adx[np.isfinite(lower)] >= -tol)
                    and np.all(adx[np.isfinite(upper)] <= tol)
                )
            else:
                directions_ok = True
            if p_dx <= tol and q_dx < -tol and directions_ok:
                status = "dual_infeasible"
                iterations = it
                break
        x_prev_chk = x.copy()
        y_prev_chk = y.copy()

        if (
            m
            and it % _ADAPTIVE_RHO_INTERVAL == 0
            and refactorizations < _MAX_REFACTORIZATIONS
            and it < opts.max_iterations
        ):
            scale = np.sqrt(
                max(pri_res / max(pri_ref, _DIV_GUARD), _DIV_GUARD)
                / max(dua_res / max(dua_ref, _DIV_GUARD), _DIV_GUARD)
            )
            if scale > _ADAPTIVE_RHO_TOLERANCE or scale < 1.0 / _ADAPTIVE_RHO_TOLERANCE:
                rho_base = float(np.clip(rho_base * scale, 1e-6, 1e5))
                rho_vec = np.where(eq_mask, rho_base * _RHO_EQ_SCALE, rho_base)
                lu = _factor_kkt(data.system, _SIGMA, rho_vec)
                refactorizations += 1

    x_out, y_out = data.unscale(x, y)
    result = QpResult(x_out, y_out, status, iterations, pri_res, dua_res,
                      scaling=(d, e, c), rho_final=rho_base)

    if status in ("solved", "max_iterations"):
        # Also salvages an iteration-capped run: the active-set guess is
        # often already right, and the polished point is then essentially
        # exact.
        found = _polish_point(data, x, y)
        if found is not None:
            polished = polished_result(*found, status, iterations)
            worst = max(polished.primal_residual, polished.dual_residual)
            if worst <= _EPS_ABS:
                result = replace(polished, status="solved")
            elif worst <= max(pri_res, dua_res):
                result = polished
    return result


def _polish_point(data: _ScaledQp, x_est, y_est):
    """Solve the equality-constrained problem on the active set guessed from y.

    Works on the scaled data and returns a scaled (x, y), or None.  The
    equality-constrained QP is solved by iterative refinement with the
    factor of P + _POLISH_REG I + _POLISH_RHO A_act' A_act, the regularized
    saddle system with its multiplier block eliminated; it has the band
    structure of the ADMM matrix.  The multipliers start from the estimate
    y_est (sign-correct where it comes from the ADMM projection), and the
    refinement keeps their component that the active rows leave undetermined.

    The multiplier signs only suggest the active set; a guessed row whose
    solution does not actually sit on the targeted bound (for example because
    a true equality row already fixes those variables) is dropped and the
    reduced system re-solved.  Without this refinement a phantom multiplier
    on a slack row survives warm start after warm start and permanently
    blocks the complementarity test downstream.  A row whose multiplier comes
    out with the wrong sign for its bound is dropped the same way: where more
    rows meet than there are variables (a friction-pyramid apex) the reduced
    system is free to split the multipliers with either sign, and such a
    point is not a KKT point of the original problem.

    Returns None when the reduced system cannot be factored, produces
    non-finite values, or the active-set guess keeps disagreeing with its own
    solution.
    """
    lower, upper = data.lower, data.upper
    eq_rows = np.isfinite(lower) & np.isfinite(upper) & (lower == upper)
    guess_low = (~eq_rows) & (y_est < 0.0) & np.isfinite(lower)
    guess_upp = (~eq_rows) & (y_est > 0.0) & np.isfinite(upper)
    for _ in range(3):
        active = eq_rows | guess_low | guess_upp
        targets = np.where(eq_rows | guess_upp, upper, np.where(guess_low, lower, 0.0))
        weight = np.where(active, _POLISH_RHO, 0.0)
        try:
            factor = _factor_kkt(data.system, _POLISH_REG, weight)
        except RuntimeError:
            return None
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
            if residual > 0.5 * last:
                break
            dx = factor.solve(-(r_dua + data.AT @ (weight * r_pri)))
            xh = xh + dx
            yh = yh + weight * (r_pri + data.A @ dx)
        if not (np.all(np.isfinite(xh)) and np.all(np.isfinite(yh))):
            return None
        gap = (data.A @ xh - targets) / data.e
        sign_tol = 1e-10 * max(1.0, float(np.max(np.abs(yh), initial=0.0)))
        wrong = (guess_low | guess_upp) & (
            (np.abs(gap) > 1e-6 * (1.0 + np.abs(targets / data.e)))
            | np.where(guess_upp, yh < -sign_tol, yh > sign_tol)
        )
        if not np.any(wrong):
            # Clear the rounding-level wrong-sign remainders sign_tol let pass.
            yh = np.where(guess_upp, np.maximum(yh, 0.0), yh)
            yh = np.where(guess_low, np.minimum(yh, 0.0), yh)
            return xh, yh
        guess_low[wrong] = False
        guess_upp[wrong] = False
    return None


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
