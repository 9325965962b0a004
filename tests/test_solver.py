import numpy as np
import pytest
import scipy.sparse as sp

from centroidal_mpc import solver
from centroidal_mpc.solver import (
    SolverOptions,
    _color_groups,
    _fd_jacobian_check,
    check_derivatives,
    solve,
)
from centroidal_mpc.transcription import NlpProblem


def quadratic_problem(H, g0, eq=None, ineq=None):
    """NlpProblem wrapper around min 1/2 x'Hx + g0'x with linear constraints."""
    H = np.asarray(H, float)
    g0 = np.asarray(g0, float)
    n = g0.size
    A_eq, b_eq = eq if eq else (None, None)
    A_in, lo, hi = ineq if ineq else (None, None, None)
    m_eq = 0 if A_eq is None else np.asarray(b_eq).size
    m_in = 0 if A_in is None else np.asarray(A_in).shape[0]
    return NlpProblem(
        dimension=n,
        cost=lambda x: float(0.5 * x @ H @ x + g0 @ x),
        cost_grad=lambda x: H @ x + g0,
        lagrangian_hess=lambda x, y_eq: sp.csc_matrix(H),
        n_eq=m_eq,
        eq=(lambda x: np.asarray(A_eq) @ x - b_eq) if m_eq else None,
        eq_jac=(lambda x: sp.csr_matrix(A_eq)) if m_eq else None,
        ineq_matrix=sp.csr_matrix(A_in) if m_in else None,
        ineq_lower=None if lo is None else np.asarray(lo, float),
        ineq_upper=None if hi is None else np.asarray(hi, float),
    )


TIGHT = SolverOptions(kkt_tolerance=1e-10, constraint_tolerance=1e-10)


class TestAnalyticOracles:
    def test_equality_qp_one_iteration(self):
        rng = np.random.RandomState(5)
        H = np.diag([2.0, 3.0, 4.0])
        g0 = rng.randn(3)
        A = rng.randn(1, 3)
        b = np.array([1.0])
        kkt = np.block([[H, A.T], [A, np.zeros((1, 1))]])
        expected = np.linalg.solve(kkt, np.concatenate([-g0, b]))[:3]
        # the subproblem is the problem itself, so its exact Newton step lands
        sol = solve(quadratic_problem(H, g0, eq=(A, b)), np.zeros(3), TIGHT)
        assert sol.converged and sol.iterations == 1
        np.testing.assert_allclose(sol.x, expected, atol=1e-8)

    def test_stationary_warm_start_returns_immediately(self):
        H = np.diag([2.0, 3.0])
        g0 = np.array([-2.0, -3.0])
        sol = solve(quadratic_problem(H, g0), np.array([1.0, 1.0]), TIGHT)
        assert sol.converged and sol.iterations <= 1

    def test_halfspace_projection(self):
        problem = quadratic_problem(
            np.eye(2), np.zeros(2),
            ineq=(np.array([[1.0, 0.0]]), np.array([1.0]), np.array([np.inf])),
        )
        sol = solve(problem, np.array([5.0, 3.0]), TIGHT)
        assert sol.converged
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-8)


class TestNonlinearEquality:
    @staticmethod
    def bilinear_problem():
        H = 2 * np.eye(3)
        swap = np.zeros((3, 3))
        swap[0, 1] = swap[1, 0] = 1.0
        g0 = np.array([-4.0, -4.0, -2.0])

        def eq(v):
            return np.array([v[0] * v[1] - 1.0])

        def eq_jac(v):
            return sp.csr_matrix(np.array([[v[1], v[0], 0.0]]))

        return NlpProblem(
            dimension=3,
            cost=lambda x: float(x @ x - 4 * x[0] - 4 * x[1] - 2 * x[2] + 9),
            cost_grad=lambda x: 2 * x + g0,
            lagrangian_hess=lambda x, y_eq: sp.csc_matrix(H + y_eq[0] * swap),
            n_eq=1,
            eq=eq,
            eq_jac=eq_jac,
        )

    def test_converges_to_known_solution(self):
        sol = solve(self.bilinear_problem(), np.array([0.5, 0.5, 0.0]))
        assert sol.converged
        np.testing.assert_allclose(sol.x, [1.0, 1.0, 1.0], atol=1e-5)
        assert sol.constraint_violation <= 1e-7

    def test_merit_non_increasing_per_accepted_step(self):
        # the far warm start exercises a long run of accepted steps
        sol = solve(self.bilinear_problem(), np.array([3.0, 0.2, -1.0]))
        assert len(sol.merit_history) > 5
        for before, after, nu in sol.merit_history:
            assert after <= before + 1e-9 * (1 + abs(before))

    def test_accepted_trial_is_not_evaluated_again(self):
        # Every loop head after the first reuses the constraint values of
        # the line-search trial it accepted, so without backtracks eq runs
        # once per iterate: cost, called at every head and every trial,
        # shows there were none.
        problem = self.bilinear_problem()
        calls = {"eq": 0, "cost": 0}

        def counted(name, fn):
            def wrapper(x):
                calls[name] += 1
                return fn(x)
            return wrapper

        problem.eq = counted("eq", problem.eq)
        problem.cost = counted("cost", problem.cost)
        sol = solve(problem, np.array([0.5, 0.5, 0.0]))
        assert sol.converged and sol.iterations >= 2
        assert calls["cost"] == 2 * sol.iterations + 1
        assert calls["eq"] == sol.iterations + 1

    def test_constraints_hold_at_solution_independently(self):
        problem = self.bilinear_problem()
        sol = solve(problem, np.array([0.5, 0.5, 0.0]))
        assert abs(problem.eq(sol.x)[0]) <= 1e-7


class TestRobustness:
    def test_determinism(self):
        problem = TestNonlinearEquality.bilinear_problem()
        a = solve(problem, np.array([0.5, 0.5, 0.0]))
        b = solve(problem, np.array([0.5, 0.5, 0.0]))
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations
        assert a.status == b.status

    def test_cost_scaling_leaves_primal_unchanged(self):
        base = quadratic_problem(
            np.eye(2), np.zeros(2),
            ineq=(np.array([[1.0, 0.0]]), np.array([1.0]), np.array([np.inf])),
        )
        scaled = quadratic_problem(
            1e3 * np.eye(2), np.zeros(2),
            ineq=(np.array([[1.0, 0.0]]), np.array([1.0]), np.array([np.inf])),
        )
        opts = SolverOptions()
        a = solve(base, np.array([5.0, 3.0]), opts)
        b = solve(scaled, np.array([5.0, 3.0]), opts)
        assert a.converged and b.converged
        assert np.abs(a.x - b.x).max() <= 10 * opts.kkt_tolerance

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("start", [0.0, 0.3, -2.0, 5.0])
    def test_infeasible_status(self, start, scale):
        # x >= 1 and x <= -1: the status must not depend on where the
        # elastic steps end or on how small the last one is.
        problem = quadratic_problem(
            scale * np.eye(1), np.zeros(1),
            ineq=(np.array([[1.0], [1.0]]), np.array([1.0, -np.inf]),
                  np.array([np.inf, -1.0])),
        )
        sol = solve(problem, np.array([start]))
        assert sol.status == "infeasible"

    def test_nan_cost_reports_numerical_failure(self):
        problem = quadratic_problem(np.eye(2), np.zeros(2))
        problem.cost = lambda x: float("nan")
        sol = solve(problem, np.ones(2))
        assert sol.status == "numerical_failure"

    def test_converged_solution_meets_tolerances(self):
        problem = TestNonlinearEquality.bilinear_problem()
        opts = SolverOptions()
        sol = solve(problem, np.array([0.5, 0.5, 0.0]), opts)
        assert sol.converged
        assert sol.kkt_residual <= opts.kkt_tolerance
        assert sol.constraint_violation <= opts.constraint_tolerance

    def test_warm_start_dimension_checked(self):
        problem = quadratic_problem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="warm start"):
            solve(problem, np.zeros(3))


class TestGaussNewtonFallback:
    """The exact-Hessian subproblem that is non-convex is solved again with
    the Gauss-Newton Hessian, at the same iterate."""

    @staticmethod
    def hyperbola_problem(t=1.5):
        # min 1/2 |x - (t, t)|^2  s.t.  x0 x1 = 1: for t = 1.5 the solution
        # is (1, 1) with multiplier 0.5.  The Lagrangian Hessian
        # I + y [[0, 1], [1, 0]] is negative along the constraint's tangent
        # when y is large.
        target = np.array([t, t])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        return NlpProblem(
            dimension=2,
            cost=lambda x: float(0.5 * np.sum((x - target) ** 2)),
            cost_grad=lambda x: x - target,
            lagrangian_hess=lambda x, y_eq: sp.csc_matrix(np.eye(2) + y_eq[0] * swap),
            n_eq=1,
            eq=lambda x: np.array([x[0] * x[1] - 1.0]),
            eq_jac=lambda x: sp.csr_matrix(np.array([[x[1], x[0]]])),
        )

    @staticmethod
    def spy_statuses(monkeypatch):
        statuses = []
        original = solver.solve_qp

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            statuses.append(result.status)
            return result

        monkeypatch.setattr(solver, "solve_qp", spy)
        return statuses

    def test_breakdown_is_resolved_with_gauss_newton(self, monkeypatch):
        statuses = self.spy_statuses(monkeypatch)
        sol = solve(self.hyperbola_problem(), np.array([1.2, 0.9]), TIGHT, y0=[5.0])
        assert statuses[:2] == ["non_convex", "solved"]
        assert "non_convex" not in statuses[2:]
        assert sol.converged
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-8)
        assert sol.multipliers[0] == pytest.approx(0.5, abs=1e-8)

    def test_resolve_takes_the_hessian_at_the_iterate_with_zero_multipliers(
        self, monkeypatch
    ):
        # From this start toward (3, 3) the first step brings multipliers
        # near 1.9, and the exact Hessian of the second subproblem is
        # indefinite on the constraint's tangent.
        statuses = self.spy_statuses(monkeypatch)
        problem = self.hyperbola_problem(t=3.0)
        exact = problem.lagrangian_hess
        calls = []

        def spy(x, y_eq):
            calls.append((x.copy(), np.array(y_eq, dtype=float)))
            return exact(x, y_eq)

        problem.lagrangian_hess = spy
        start = np.array([1.2, 0.9])
        sol = solve(problem, start, TIGHT)
        assert sol.converged
        assert len(calls) == len(statuses)  # one Hessian per subproblem
        retried = [i for i, status in enumerate(statuses) if status == "non_convex"]
        assert retried and not np.array_equal(calls[retried[0]][0], start)
        for i in retried:
            x, y_eq = calls[i]
            assert y_eq[0] != 0.0 and statuses[i + 1] == "solved"
            assert np.array_equal(calls[i + 1][0], x)
            assert np.array_equal(calls[i + 1][1], np.zeros(1))

    def test_multipliers_of_another_row_count_raise(self):
        with pytest.raises(ValueError, match="y0"):
            solve(self.hyperbola_problem(), np.array([1.2, 0.9]), TIGHT, y0=[0.5, 0.5])

    def test_exact_hessian_converges_quadratically(self, monkeypatch):
        statuses = self.spy_statuses(monkeypatch)
        exact = solve(self.hyperbola_problem(), np.array([1.2, 0.9]), TIGHT, y0=[0.5])
        problem = self.hyperbola_problem()
        lagrangian_hess = problem.lagrangian_hess
        problem.lagrangian_hess = lambda x, y_eq: lagrangian_hess(x, np.zeros_like(y_eq))
        gauss_newton = solve(problem, np.array([1.2, 0.9]), TIGHT, y0=[0.5])
        assert exact.converged and gauss_newton.converged
        assert "non_convex" not in statuses
        assert exact.iterations < gauss_newton.iterations

    def test_gauss_newton_breakdown_is_numerical_failure(self, monkeypatch):
        # Curvature -1 along the free variable, in the cost itself.
        statuses = self.spy_statuses(monkeypatch)
        H = np.diag([1.0, -1.0])
        problem = quadratic_problem(H, np.zeros(2), eq=(np.array([[1.0, 0.0]]), np.array([1.0])))
        sol = solve(problem, np.zeros(2))
        assert statuses == ["non_convex", "non_convex"]
        assert sol.status == "numerical_failure"


class TestRejectedStepExit:
    @staticmethod
    def circle_problem():
        # min |x - (2, 0)|^2  s.t.  |x|^2 = 1,  x0 <= 1.5
        target = np.array([2.0, 0.0])
        return NlpProblem(
            dimension=2,
            cost=lambda x: float(np.sum((x - target) ** 2)),
            cost_grad=lambda x: 2.0 * (x - target),
            lagrangian_hess=lambda x, y_eq: sp.csc_matrix((2.0 + 2.0 * y_eq[0]) * np.eye(2)),
            n_eq=1,
            eq=lambda x: np.array([x @ x - 1.0]),
            eq_jac=lambda x: sp.csr_matrix(2.0 * x[None, :]),
            ineq_matrix=sp.csr_matrix(np.array([[1.0, 0.0]])),
            ineq_lower=np.array([-np.inf]),
            ineq_upper=np.array([1.5]),
        )

    @staticmethod
    def loop_head_kkt(problem, x, y):
        """Stationarity and complementarity, scaled as Solution documents."""
        y_eq, y_in = y[: problem.n_eq], y[problem.n_eq :]
        grad = problem.cost_grad(x) + problem.eq_jac(x).T @ y_eq + problem.ineq_matrix.T @ y_in
        v = problem.ineq_matrix @ x
        slack = np.where(y_in > 0, problem.ineq_upper - v,
                         np.where(y_in < 0, v - problem.ineq_lower, 0.0))
        comp = np.max(np.minimum(np.abs(y_in), np.maximum(slack, 0.0)))
        return max(np.max(np.abs(grad)), comp) / max(1.0, np.max(np.abs(y)) / 100.0)

    @pytest.mark.parametrize("start", [[0.05, 0.3], [-1.5, 0.5]])
    def test_status_and_residual_from_loop_head_test(self, start, monkeypatch):
        # One trial step per line search: the full Gauss-Newton step on the
        # curved equality raises the merit, so the solve ends in the
        # rejected-step exit instead of running to max_iterations.
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 1)
        problem = self.circle_problem()
        opts = SolverOptions()
        sol = solve(problem, np.array(start), opts)
        assert sol.status == "line_search_stall"
        assert sol.iterations < opts.max_iterations
        assert sol.kkt_residual == pytest.approx(
            self.loop_head_kkt(problem, sol.x, sol.multipliers), rel=1e-12
        )
        assert sol.converged == (
            sol.kkt_residual <= opts.kkt_tolerance
            and sol.constraint_violation <= opts.constraint_tolerance
        )


class TestCheckDerivatives:
    def test_quadratic_gradient_at_noise_level(self):
        problem = quadratic_problem(np.diag([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0]))
        report = check_derivatives(problem, np.array([[0.3, -0.7, 1.1]]))
        assert report.gradient_error < 1e-8

    @staticmethod
    def product_problem(fault):
        """x'x s.t. x0 x1 = 1, x2 = 2, whose Jacobian stores `fault(x)` at
        (0, 2), where the true derivative is zero."""

        def eq_jac(v):
            data = [v[1], v[0], fault(v), 1.0]
            return sp.csr_matrix((data, [0, 1, 2, 2], [0, 3, 4]), shape=(2, 3))

        return NlpProblem(
            dimension=3,
            cost=lambda x: float(x @ x),
            cost_grad=lambda x: 2 * x,
            lagrangian_hess=lambda x, y_eq: sp.csc_matrix(
                2 * np.eye(3) + y_eq[0] * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
            ),
            n_eq=2,
            eq=lambda v: np.array([v[0] * v[1] - 1.0, v[2] - 2.0]),
            eq_jac=eq_jac,
        )

    def test_corrupted_jacobian_flagged_at_exact_index(self):
        problem = self.product_problem(lambda v: 0.5)
        report = check_derivatives(problem, np.array([[0.3, 0.7, 0.2]]))
        assert report.worst_block == "eq_jac"
        assert (report.worst_row, report.worst_col) == (0, 2)
        assert report.max_relative_error > 0.1

    def test_points_report_the_maximum_of_each_block(self):
        # The fault shows only where x2 > 1: at the second point.
        problem = self.product_problem(lambda v: 0.5 if v[2] > 1.0 else 0.0)
        points = np.array([[0.3, 0.7, 0.2], [0.4, -0.6, 1.3]])
        y = np.array([[0.5, -1.0], [2.0, 0.3]])
        both = check_derivatives(problem, points, multipliers=y)
        first, second = (
            check_derivatives(problem, points[[k]], multipliers=y[[k]]) for k in range(2)
        )
        assert first.eq_error < 1e-8 < 0.1 < second.eq_error
        for block in ("gradient_error", "eq_error", "hessian_error"):
            assert getattr(both, block) == max(getattr(first, block), getattr(second, block))
        worst = ("max_relative_error", "worst_block", "worst_row", "worst_col")
        assert [getattr(both, f) for f in worst] == [getattr(second, f) for f in worst]
        assert (both.worst_block, both.worst_row, both.worst_col) == ("eq_jac", 0, 2)

    def test_pattern_that_changes_between_points_raises(self):
        # csr_matrix of the dense Jacobian (x1, x0) drops the entry x0 = 0.
        problem = TestGaussNewtonFallback.hyperbola_problem()
        check_derivatives(problem, [[0.3, -1.1]])
        with pytest.raises(ValueError, match="eq_jac"):
            check_derivatives(problem, [[0.3, -1.1], [0.0, -1.1]])

    @pytest.mark.parametrize(
        "points, multipliers",
        [(np.zeros(3), None), (np.zeros((0, 3)), None), (np.zeros((1, 2)), None),
         (np.zeros((2, 3)), np.zeros((1, 2))), (np.zeros((1, 3)), np.zeros(2))],
    )
    def test_shape_validation(self, points, multipliers):
        problem = self.product_problem(lambda v: 0.0)
        with pytest.raises(ValueError, match="shape"):
            check_derivatives(problem, points, multipliers=multipliers)

    @pytest.mark.parametrize("fault", ["value", "missing"])
    def test_corrupted_hessian_flagged_at_exact_index(self, fault):
        problem = TestGaussNewtonFallback.hyperbola_problem()
        exact = problem.lagrangian_hess
        y = np.array([0.7])
        x = np.array([0.3, -1.1])
        good = check_derivatives(problem, [x], multipliers=[y])
        assert good.hessian_error < 1e-8 and good.max_relative_error < 1e-8

        def corrupted(v, y_eq):
            hess = exact(v, y_eq).toarray()
            if fault == "value":
                hess[1, 0] += 0.25
            else:
                hess[1, 0] = hess[0, 1] = 0.0  # dropped from the pattern too
            return sp.csc_matrix(hess)

        problem.lagrangian_hess = corrupted
        report = check_derivatives(problem, [x], multipliers=[y])
        assert report.worst_block == "lagrangian_hess"
        if fault == "value":
            assert (report.worst_row, report.worst_col) == (1, 0)
            assert report.hessian_error == pytest.approx(0.25)
        else:
            # Both columns share one probe; row 0 sees 1 + 0.7 for its 1.
            assert (report.worst_row, report.worst_col) == (0, 0)
            assert report.hessian_error == pytest.approx(0.7 / 1.7)

    @staticmethod
    def entry_by_entry_scan(fun, jac_matrix, x, h, m_rows, coloring):
        """Reference for _fd_jacobian_check: one entry at a time, in group,
        column and row order, keeping the first strict maximum."""
        n = x.size
        dense = jac_matrix.toarray()
        groups, col_rows = coloring
        worst = (0.0, -1, -1)
        for group in groups:
            direction = np.zeros(n)
            direction[group] = 1.0
            delta = (fun(x + h * direction) - fun(x - h * direction)) / (2.0 * h)
            claimed = np.zeros(m_rows, dtype=bool)
            for c in group:
                claimed[col_rows[c]] = True
                for r in col_rows[c]:
                    a, e = dense[r, c], delta[r]
                    err = abs(a - e) / max(1.0, abs(a), abs(e))
                    if err > worst[0]:
                        worst = (err, int(r), int(c))
            stray = np.abs(np.where(claimed, 0.0, delta))
            r = int(np.argmax(stray))
            if stray[r] > worst[0]:
                worst = (float(stray[r]), r, int(group[0]))
        return worst

    @pytest.mark.parametrize("case", ["ties", "nan", "stray"])
    @pytest.mark.parametrize("seed", range(3))
    def test_grouped_check_matches_entry_by_entry_scan(self, seed, case):
        # A corrupted entry of 1e20 scores exactly 1.0.  "ties": every entry
        # of two columns is corrupted, so the order of the scan decides the
        # reported index.  "nan": the first entry of such a column is NaN.
        # "stray": an entry missing from the declared pattern scores 2.5.
        rng = np.random.RandomState(seed)
        m, n = 10, 14
        mask = rng.rand(m, n) < 0.3
        mask[:3, :2] = True
        coef = rng.randn(m, n) * mask
        stray_r, stray_c = np.argwhere(~mask)[rng.randint((~mask).sum())]
        stray_coef = 2.5 if case == "stray" else 0.5

        def fun(v):
            out = coef @ np.sin(v)
            out[stray_r] += stray_coef * v[stray_c]
            return out

        x = rng.randn(n)
        jac = coef * np.cos(x)[None, :]
        columns = rng.choice(n, size=2, replace=False) if case == "ties" else [0, 1]
        for c in columns:
            jac[mask[:, c], c] = 1e20
        if case == "nan":
            jac[0, 0] = np.nan
        jac = sp.csr_matrix(jac)
        assert np.array_equal(jac.toarray() != 0, mask)  # the stray entry is not stored
        pattern = jac.tocoo()
        args = (fun, jac, x, 1e-6, m, _color_groups(pattern.row, pattern.col, n))
        assert _fd_jacobian_check(*args) == self.entry_by_entry_scan(*args)

    def test_fd_step_validation(self):
        problem = quadratic_problem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            check_derivatives(problem, np.zeros((1, 2)), fd_step=0.0)
