import functools
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from centroidal_mpc import bundled_scenario, parse_scenario, qp, transcription
from centroidal_mpc.qp import QpWorkspace, solve_qp

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def brute_force_qp(P, q, A, lower, upper):
    """Enumerate candidate active sets and return the verified optimum."""
    m = A.shape[0]
    best = None
    for r in range(m + 1):
        for combo in itertools.combinations(range(m), r):
            for signs in itertools.product([0, 1], repeat=r):
                bounds = np.array(
                    [upper[i] if s else lower[i] for i, s in zip(combo, signs)]
                )
                if not np.all(np.isfinite(bounds)):
                    continue
                A_act = A[list(combo)]
                kkt = np.block([[P, A_act.T], [A_act, np.zeros((r, r))]])
                rhs = np.concatenate([-q, bounds])
                try:
                    t = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    continue
                x, y = t[: len(q)], t[len(q):]
                v = A @ x
                if np.any(v < lower - 1e-9) or np.any(v > upper + 1e-9):
                    continue
                if not all(
                    (mult >= -1e-9) if s else (mult <= 1e-9)
                    for s, mult in zip(signs, y)
                ):
                    continue
                value = 0.5 * x @ P @ x + q @ x
                if best is None or value < best[0]:
                    best = (value, x)
    return best[1]


def free_rows(lower, upper):
    return ~(np.isfinite(lower) | np.isfinite(upper))


def one_off_workspace(P, q, A, lower, upper):
    """The workspace solve_qp sets up for this QP when it is given none."""
    return QpWorkspace(sp.csc_matrix(P), sp.csc_matrix(A), q=q, free=free_rows(lower, upper))


def values(P, A):
    """The value vectors of dense P and A on their own patterns, CSC and CSR."""
    return sp.csc_matrix(P).data, sp.csr_matrix(A).data


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


@functools.cache
def structure_workspace(name):
    """The QP workspace of a bundled scenario's horizon structure, set up as a run does."""
    config = parse_scenario(bundled_scenario(name), name=name)
    mpc = config.mpc
    structure = transcription._HorizonStructure(
        mpc.horizon_knots, mpc.weights, mpc.period, config.plan, mpc.pyramid
    )
    return structure.qp_workspace


def scaled_p(workspace, p_values):
    """c D P D of the values `p_values` of P as a CSC matrix on P's pattern,
    built apart from the workspace's buffers: entry (i, j) times c d_i d_j."""
    P = workspace.P
    cols = np.repeat(np.arange(P.shape[1]), np.diff(P.indptr))
    scale = workspace.c * workspace.d[P.indices] * workspace.d[cols]
    return sp.csc_matrix((p_values * scale, P.indices, P.indptr), shape=P.shape)


def assert_stacked_product_exact(workspace, p_values, x, y):
    """With `p_values` loaded, [P; A] x of the stacked operator is the scaled
    P times x over scaled_A @ x, bit for bit, and the refinement's products
    are scipy's."""
    n = workspace.shape[1]
    product = qp._product(workspace.stacked, x)
    assert np.array_equal(bits(workspace.p_data), bits(scaled_p(workspace, p_values).data))
    assert np.array_equal(bits(product), bits(workspace.stacked @ x))
    assert np.array_equal(bits(product[:n]), bits(scaled_p(workspace, p_values) @ x))
    assert np.array_equal(bits(product[n:]), bits(workspace.scaled_A @ x))
    assert np.array_equal(bits(qp._product(workspace.scaled_A, x)), bits(workspace.scaled_A @ x))
    assert np.array_equal(bits(qp._product(workspace.scaled_AT, y)),
                          bits(workspace.scaled_AT @ y))


def assert_same_result(res, other, atol=1e-9):
    assert res.status == other.status
    np.testing.assert_allclose(res.x, other.x, rtol=0, atol=atol)
    np.testing.assert_allclose(res.y, other.y, rtol=0, atol=atol)


def random_qp(seed, n=5, m=4):
    """A strictly convex QP with interval rows, dense P and A (full patterns)."""
    rng = np.random.RandomState(seed)
    M = rng.randn(n, n)
    P = M @ M.T + 0.5 * np.eye(n)
    return (P, rng.randn(n), rng.randn(m, n),
            -np.abs(rng.randn(m)) - 0.1, np.abs(rng.randn(m)) + 0.1)


class TestAnalyticProblems:
    def test_unconstrained_minimum(self):
        res = solve_qp(np.eye(2), [-1.0, -1.0])
        assert res.solved
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)

    def test_minimum_norm_on_line(self):
        res = solve_qp(np.eye(2), [0, 0], [[1.0, 1.0]], [1.0], [1.0])
        assert res.solved
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-9)
        # stationarity: x + A' y = 0
        np.testing.assert_allclose(res.x + np.array([1.0, 1.0]) * res.y[0], 0.0, atol=1e-8)

    def test_halfspace_projection(self):
        res = solve_qp(np.eye(2), [0, 0], [[1.0, 0.0]], [1.0], [np.inf])
        assert res.solved
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-9)
        assert res.y[0] == pytest.approx(-1.0, abs=1e-7)

    def test_variable_bounds(self):
        res = solve_qp(np.eye(3), [-10.0, 0.0, 2.0], np.eye(3), [0, 0, 0], [1, 1, 1])
        assert res.solved
        np.testing.assert_allclose(res.x, [1.0, 0.0, 0.0], atol=1e-8)

    def test_degenerate_equality_interval(self):
        # l == u rows are equalities in disguise
        res = solve_qp(
            np.eye(3), [0, 0, -1.0], [[1, 1, 0], [0, 0, 1]], [1.0, 0.0], [1.0, 0.0]
        )
        assert res.solved
        np.testing.assert_allclose(res.x, [0.5, 0.5, 0.0], atol=1e-8)


    def test_nearly_dependent_equality_rows(self):
        # The rows differ by 3e-4 in their second entry.  Refinement
        # converges at about 0.71 per pass here, and must not stop at the
        # first pass that fails to halve the residual.  x1 = 1 is known only
        # to the residual over 3e-4.
        A = np.array([[1.0, 0.0, 0.0], [1.0, 3e-4, 0.0]])
        b = np.array([1.0, 1.0003])
        q = np.array([-1.0, 2.0, -3.0])
        res = solve_qp(sp.eye(3, format="csc"), q, sp.csc_matrix(A), b, b)
        assert res.solved
        assert kkt_violation(np.eye(3), q, A, b, b, res.x, res.y) <= 1e-6
        np.testing.assert_allclose(res.x, [1.0, 1.0, 3.0], atol=1e-2)

def kkt_violation(P, q, A, lower, upper, x, y):
    """Largest violation of the KKT conditions of (x, y), multipliers relative."""
    v = A @ x
    primal = np.max(np.maximum(np.maximum(lower - v, v - upper), 0.0), initial=0.0)
    stationarity = np.max(np.abs(P @ x + q + A.T @ y)) / max(1.0, np.max(np.abs(y), initial=0.0))
    # y > 0 pushes against the upper bound, y < 0 against the lower one.
    sign = np.max(np.where(np.isfinite(upper), 0.0, y), initial=0.0)
    sign = max(sign, np.max(np.where(np.isfinite(lower), 0.0, -y), initial=0.0))
    slack = np.where(y > 0, upper - v, np.where(y < 0, v - lower, 0.0))
    comp = np.max(np.where(y == 0, 0.0, np.minimum(np.abs(y), np.abs(slack))), initial=0.0)
    return max(primal, stationarity, sign, comp)


@st.composite
def bounded_qps(draw):
    """A feasible QP whose objective is bounded below, with its warm duals.

    The structure is drawn: the rank of P, the kind of each row (interval,
    one-sided, equality or free), a duplicated row and the warm start.  The
    bounds enclose A x_f, so x_f is feasible; q = -P c keeps the objective
    bounded on every set, also for singular P.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 6))
    rank = draw(st.integers(0, n))
    kinds = draw(st.lists(
        st.sampled_from(["interval", "lower", "upper", "equality", "free"]),
        min_size=m, max_size=m,
    ))
    duplicate = m >= 2 and draw(st.booleans())
    warm = draw(st.sampled_from([None, 1.0, 100.0]))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    M = rng.randn(n, rank)
    P = M @ M.T + (0.5 * np.eye(n) if rank == n else 0.0)
    A = rng.randn(m, n)
    if duplicate:
        A[-1] = rng.choice([1.0, -2.0, 0.5]) * A[0]
    v = A @ rng.randn(n)
    # Zero widths put a bound exactly on the feasible point.
    lower = v - rng.choice([0.0, 0.3, 1.0], size=m) * np.abs(rng.randn(m))
    upper = v + rng.choice([0.0, 0.3, 1.0], size=m) * np.abs(rng.randn(m))
    kinds = np.array(kinds, dtype=object)
    lower[(kinds == "upper") | (kinds == "free")] = -np.inf
    upper[(kinds == "lower") | (kinds == "free")] = np.inf
    lower[kinds == "equality"] = upper[kinds == "equality"] = v[kinds == "equality"]
    q = -P @ rng.randn(n)
    y0 = None if warm is None else warm * rng.randn(m)
    return P, q, A, lower, upper, y0, rank == n


class TestRandomAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_enumeration(self, seed):
        P, q, A, lower, upper = random_qp(seed)
        expected = brute_force_qp(P, q, A, lower, upper)
        res = solve_qp(sp.csc_matrix(P), q, sp.csc_matrix(A), lower, upper)
        assert res.solved
        np.testing.assert_allclose(res.x, expected, atol=1e-7)

    @PROPERTY
    @given(bounded_qps())
    def test_every_feasible_bounded_qp_is_solved(self, case):
        P, q, A, lower, upper, y0, definite = case
        res = solve_qp(sp.csc_matrix(P), q, sp.csc_matrix(A), lower, upper, y0=y0)
        assert res.solved, res.status
        assert kkt_violation(P, q, A, lower, upper, res.x, res.y) <= 1e-7
        if definite:
            np.testing.assert_allclose(res.x, brute_force_qp(P, q, A, lower, upper), atol=1e-7)


def plain_active_sets(P, q, A, lower, upper):
    """Active sets of the unguarded rule from a cold start, up to the first repeat.

    Each step solves the equality-constrained QP of the set densely, then
    activates every violated row and releases every wrong-sign multiplier.
    Returns the sets as (low, upp) masks, the repeated one last, or None if
    the rule settles.
    """
    m = A.shape[0]
    low = np.zeros(m, dtype=bool)
    upp = np.zeros(m, dtype=bool)
    sets = []
    while True:
        sets.append((low, upp))
        rows = np.flatnonzero(low | upp)
        kkt = np.block([[P, A[rows].T], [A[rows], np.zeros((rows.size, rows.size))]])
        t = np.where(upp, upper, lower)[rows]
        solution = np.linalg.solve(kkt, np.concatenate([-q, t]))
        y = np.zeros(m)
        y[rows] = solution[q.size:]
        v = A @ solution[: q.size]
        wrong = (upp & (y < 0)) | (low & (y > 0))
        inactive = ~(low | upp)
        low = (low & ~wrong) | (inactive & (v < lower - 1e-9))
        upp = (upp & ~wrong) | (inactive & (v > upper + 1e-9))
        if np.array_equal(low, sets[-1][0]) and np.array_equal(upp, sets[-1][1]):
            return None
        if any(np.array_equal(low, a) and np.array_equal(upp, b) for a, b in sets):
            return sets + [(low, upp)]


class TestCyclingSafeguard:
    """The fallback to one row per iteration, after a repeat or a budget."""

    P = np.array([[0.1, 0.2, -0.1], [0.2, 3.7, -1.6], [-0.1, -1.6, 0.9]])
    q = np.array([-1.7, 4.1, 0.2])
    A = np.array([[1.5, 0.8, 0.5], [-0.2, 0.4, 1.8], [-0.4, -1.0, -0.6]])
    lower = np.array([-2.0, -2.1, -1.2])
    upper = np.array([2.3, 0.3, 1.4])

    def test_one_row_per_iteration_after_the_first_repeat(self, monkeypatch):
        # On this QP the unguarded rule revisits an active set after five.
        plain = plain_active_sets(self.P, self.q, self.A, self.lower, self.upper)
        assert plain is not None and len(plain) == 6
        visited = []
        polish = qp._polish_point

        def recording(data, x, y, low, upp):
            visited.append((low.copy(), upp.copy()))
            return polish(data, x, y, low, upp)

        monkeypatch.setattr(qp, "_polish_point", recording)
        res = solve_qp(
            sp.csc_matrix(self.P), self.q, sp.csc_matrix(self.A), self.lower, self.upper
        )
        assert res.solved
        np.testing.assert_allclose(
            res.x, brute_force_qp(self.P, self.q, self.A, self.lower, self.upper), atol=1e-7
        )
        # The same sets as the unguarded rule up to the repeat; instead of
        # the repeated set, a set one row away from the last one.
        for (low, upp), (plain_low, plain_upp) in zip(visited[:5], plain[:5]):
            assert np.array_equal(low, plain_low) and np.array_equal(upp, plain_upp)
        changed = (visited[5][0] != visited[4][0]) | (visited[5][1] != visited[4][1])
        assert changed.sum() == 1

    def test_budget_ends_a_wander_without_repeats(self, monkeypatch):
        # On this QP the unguarded rule passes through new sets for more
        # than 200 iterations; after _PLAIN_ITERATIONS the one-row rule
        # solves it.
        rng = np.random.RandomState(3)
        n, m = 10, 20
        M = rng.randn(n, n)
        P = M @ M.T + 0.1 * np.eye(n)
        q = 3.0 * rng.randn(n)
        A = rng.randn(m, n)
        v = A @ rng.randn(n)
        lower, upper = v - np.abs(rng.randn(m)), v + np.abs(rng.randn(m))
        args = (sp.csc_matrix(P), q, sp.csc_matrix(A), lower, upper)
        res = solve_qp(*args, options=qp.QpOptions(max_iterations=200))
        assert res.solved
        assert kkt_violation(P, q, A, lower, upper, res.x, res.y) <= 1e-7
        monkeypatch.setattr(qp, "_PLAIN_ITERATIONS", 10**9)
        assert not solve_qp(*args, options=qp.QpOptions(max_iterations=200)).solved


class TestInfeasibility:
    def test_primal_infeasible_detected(self):
        res = solve_qp(
            sp.eye(1, format="csc"), np.zeros(1),
            sp.csc_matrix(np.array([[1.0], [1.0]])),
            np.array([1.0, -np.inf]), np.array([np.inf, -1.0]),
        )
        assert res.status == "primal_infeasible"

    def test_single_point_feasible_set_is_not_infeasible(self):
        # Three equality rows fix x, and row 2's lower bound sits exactly
        # there.  The warm signs make an inconsistent set active; a Farkas
        # test with its 1e-9 tolerances must not take that for infeasibility.
        A = np.array([[-0.768094391819956], [-0.8874833011514502], [0.03943134829648476],
                      [-1.0067271787490701], [-1.3368876699538101], [0.560545716741833],
                      [-0.8874833011514502]])
        lower = np.array([-1.5050692506205556, -np.inf, 0.07726512582773754,
                          -2.173688279236797, -2.619611007461811, 1.0983807860335864, -np.inf])
        upper = np.array([-1.5050692506205556, -1.7163798912864, 0.4694061461209763,
                          np.inf, -2.619611007461811, 1.0983807860335864, np.inf])
        y0 = np.array([0.18872116557751945, -0.21620351176915437, 0.026327383569634433,
                       0.12113310528166671, -0.18703180942952888, 0.056507494956781694,
                       0.14729281331893998])
        res = solve_qp(sp.csc_matrix((1, 1)), np.zeros(1), sp.csc_matrix(A), lower, upper, y0=y0)
        assert res.solved, res.status
        assert res.x[0] == pytest.approx(lower[0] / A[0, 0], abs=1e-9)

    @pytest.mark.parametrize("y0", [None, [1.0], [-1.0]])
    def test_unbounded_objective_detected(self, y0):
        # x1 has no curvature, a falling cost and no bound.
        res = solve_qp(
            sp.diags([1.0, 0.0], format="csc"), np.array([0.0, -1.0]),
            sp.csc_matrix(np.array([[1.0, 0.0]])), np.array([-1.0]), np.array([1.0]),
            y0=y0,
        )
        assert res.status == "dual_infeasible"


class TestNonConvex:
    """P may be indefinite; it must be positive definite on the null space
    of every active set the iteration visits, and a breakdown of the banded
    Cholesky says it is not."""

    P = sp.diags([1.0, -1.0], format="csc")

    def test_indefinite_on_the_active_null_space(self):
        # x0 = 1 leaves x1 free, along which the curvature is -1.
        res = solve_qp(self.P, np.zeros(2), sp.csc_matrix(np.array([[1.0, 0.0]])),
                       np.array([1.0]), np.array([1.0]))
        assert res.status == "non_convex"
        assert not res.solved

    def test_definite_on_the_active_null_space_is_solved(self):
        # x1 = 1 leaves x0 free, along which the curvature is +1.
        q = np.array([-2.0, 0.5])
        res = solve_qp(self.P, q, sp.csc_matrix(np.array([[0.0, 1.0]])),
                       np.array([1.0]), np.array([1.0]))
        assert res.solved
        np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-9)
        # stationarity: P x + q + A' y = 0
        assert res.y[0] == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("y0, expected", [(None, "non_convex"), ([1.0], "solved")])
    def test_every_visited_set_is_tested(self, y0, expected):
        # 0 <= x1 <= 1 with the curvature -1 along x1: the empty set that a
        # cold start visits first breaks down; warm duals that start at the
        # upper bound, a local minimum, never visit it.
        res = solve_qp(self.P, np.zeros(2), sp.csc_matrix(np.array([[0.0, 1.0]])),
                       np.array([0.0]), np.array([1.0]), y0=y0)
        assert res.status == expected
        if expected == "solved":
            np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-9)

    def test_no_factor_of_another_matrix_is_tried(self, monkeypatch):
        calls = []
        original = qp._factor_kkt

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(qp, "_factor_kkt", counted)
        res = solve_qp(self.P, np.zeros(2), sp.csc_matrix(np.array([[1.0, 0.0]])),
                       np.array([1.0]), np.array([1.0]))
        assert res.status == "non_convex" and len(calls) == 1


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng = np.random.RandomState(3)
        P = sp.csc_matrix(np.diag(rng.rand(6) + 0.5))
        q = rng.randn(6)
        A = sp.csc_matrix(rng.randn(4, 6))
        lower = -np.ones(4)
        upper = np.ones(4)
        first = solve_qp(P, q, A, lower, upper)
        second = solve_qp(P, q, A, lower, upper)
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.y, second.y)
        assert first.iterations == second.iterations


class TestPolish:
    def test_polish_reaches_machine_accuracy(self):
        rng = np.random.RandomState(9)
        n, m = 8, 6
        M = rng.randn(n, n)
        P = sp.csc_matrix(M @ M.T + np.eye(n))
        q = rng.randn(n)
        A = sp.csc_matrix(rng.randn(m, n))
        lower = -np.abs(rng.randn(m)) - 0.2
        upper = np.abs(rng.randn(m)) + 0.2
        res = solve_qp(P, q, A, lower, upper)
        assert res.solved and res.polished
        grad = P @ res.x + q + A.T @ res.y
        assert np.abs(grad).max() < 1e-9

    def test_refinement_stops_at_tolerance(self, monkeypatch):
        # The QP of test_polish_reaches_machine_accuracy: refinement stops at
        # the forcing term's accuracy, a few solves per factor, not at
        # rounding level.
        rng = np.random.RandomState(9)
        n, m = 8, 6
        M = rng.randn(n, n)
        P = sp.csc_matrix(M @ M.T + np.eye(n))
        q = rng.randn(n)
        A = sp.csc_matrix(rng.randn(m, n))
        lower = -np.abs(rng.randn(m)) - 0.2
        upper = np.abs(rng.randn(m)) + 0.2
        calls = {"dpbtrf": 0, "dpbtrs": 0}

        def counting(name, routine):
            def counted(*args, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(qp.lapack, name, counting(name, getattr(qp.lapack, name)))
        res = solve_qp(P, q, A, lower, upper)
        assert res.solved
        assert calls["dpbtrf"] >= 1
        assert calls["dpbtrs"] <= 3 * calls["dpbtrf"]
        grad = P @ res.x + q + A.T @ res.y
        assert np.abs(grad).max() < 1e-9

    def test_phantom_multiplier_rejected(self):
        # An equality row fixes x0 strictly inside an interval row's bounds;
        # a multiplier on the interval row would be pure phantom.  Seed the
        # solve with exactly that poison and require a clean dual.
        P = sp.eye(2, format="csc")
        q = np.array([0.0, -1.0])
        A = sp.csc_matrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        lower = np.array([0.05, -0.15, -np.inf])
        upper = np.array([0.05, 0.15, 0.5])
        y_poison = np.array([75.0, -75.0, 0.0])
        res = solve_qp(P, q, A, lower, upper, y0=y_poison)
        assert res.solved
        np.testing.assert_allclose(res.x, [0.05, 0.5], atol=1e-7)
        v = A @ res.x
        slack_hi = upper - v
        slack_lo = v - lower
        comp = np.where(
            res.y > 0, np.minimum(res.y, np.maximum(slack_hi, 0.0)),
            np.minimum(-res.y, np.maximum(slack_lo, 0.0)),
        )
        comp[np.isfinite(lower) & np.isfinite(upper) & (lower == upper)] = 0.0
        assert np.max(comp) < 1e-6


    def test_inconsistent_warm_set_is_left(self):
        # The warm signs make all four rows active on one variable, at
        # three different points, and the multipliers keep those signs while
        # the refinement stalls.  The feasible set is the single point where
        # the upper bound of row 0 meets the lower bound of row 1.
        P = np.array([[0.00015638594609633]])
        q = np.array([9.402329616622116e-05])
        A = np.array([[0.3494260234561596], [1.2155754258052294],
                      [-1.7804872742488906], [1.2155754258052294]])
        lower = np.array([-1.036524429282732, -2.501819540956858,
                          3.231437008146509, -2.572053336829391])
        upper = np.array([-0.7191662771747592, -2.2954949495532344, np.inf, np.inf])
        y0 = np.array([121.00807398587243, -240.7666340132455,
                       -139.4961533974582, -61.09353735516348])
        res = solve_qp(sp.csc_matrix(P), q, sp.csc_matrix(A), lower, upper, y0=y0)
        assert res.solved
        assert kkt_violation(P, q, A, lower, upper, res.x, res.y) <= 1e-7
        assert res.x[0] == pytest.approx(upper[0] / A[0, 0], abs=1e-9)


    def test_pass_cap_leaves_the_next_step_as_correction(self, monkeypatch):
        # The rows of test_nearly_dependent_equality_rows need many passes.
        # Capped at one pass, the refinement returns the step the next pass
        # takes: a cap of two lands where the first point plus it does.
        A = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [1.0, 3e-4, 0.0]]))
        b = np.array([1.0, 1.0003])
        q = np.array([-1.0, 2.0, -3.0])
        workspace = QpWorkspace(sp.eye(3, format="csc"), A, q=q)
        workspace.load(workspace.P.data, workspace.A.data, q, b, b)
        none = np.zeros(2, dtype=bool)
        points = []
        for cap in (1, 2):
            monkeypatch.setattr(qp, "_POLISH_REFINE_STEPS", cap)
            x, y, ax, _, _, correction = qp._polish_point(
                workspace, np.zeros(3), np.zeros(2), none, none
            )
            # the products are those of the point returned
            assert np.array_equal(ax, workspace.scaled_A @ x)
            points.append((x, y, correction()))
        (x1, y1, (dx, dy)), (x2, y2, _) = points
        assert not np.array_equal(x1, x2)
        assert np.array_equal(x2, x1 + dx) and np.array_equal(y2, y1 + dy)


class TestNumericalFailure:
    """Data or a refinement that is not finite ends the solve numerical_failure."""

    @pytest.mark.parametrize("where, bad", [
        *((where, bad) for where in ("P", "q", "A") for bad in (np.nan, np.inf, -np.inf)),
        ("lower", np.nan), ("upper", np.nan),
    ])
    def test_non_finite_data(self, where, bad):
        # Python's max(0.0, nan) is 0.0: unchecked, NaN data passed the KKT
        # test and the QP was reported solved at x = 0.  Infinite bounds are
        # no bounds, and stay allowed.
        data = dict(P=np.eye(2), q=np.array([1.0, 0.0]), A=np.array([[1.0, 1.0]]),
                    lower=np.array([-1.0]), upper=np.array([1.0]))
        data[where] = data[where].copy()
        data[where].flat[0] = bad
        res = solve_qp(**data)
        assert res.status == "numerical_failure" and res.iterations == 0
        assert not res.polished
        workspace = QpWorkspace(sp.csc_matrix(np.eye(2)), sp.csr_matrix([[1.0, 1.0]]))
        values = dict(data, P=sp.csc_matrix(data["P"]).data, A=sp.csr_matrix(data["A"]).data)
        res = solve_qp(**values, workspace=workspace)
        assert res.status == "numerical_failure" and res.iterations == 0

    def test_refinement_that_overflows(self):
        # Unscaled, a gradient of 1e308 takes the second refinement to
        # infinity; that exit kept the default status max_iterations.
        P, A = sp.csc_matrix(np.eye(2)), sp.csr_matrix([[1.0, 1.0]])
        workspace = QpWorkspace(P, A)
        with np.errstate(over="ignore", invalid="ignore"):
            res = solve_qp(workspace.P.data, [1e308, 0.0], workspace.A.data, [-1.0], [1.0],
                           workspace=workspace)
        assert res.status == "numerical_failure"
        assert res.iterations < qp.QpOptions().max_iterations


class TestPyramidApex:
    """Friction-pyramid apex: four faces and the normal row (f_min = 0) meet
    at zero force, five active rows on three variables.  The reduced system
    of the polish may then split the multipliers with either sign; a solved
    result must still be a KKT point with multipliers of the right sign."""

    @staticmethod
    def pyramid_rows():
        c = 0.8 / np.sqrt(2.0)
        return np.array([
            [1.0, 0.0, -c],
            [-1.0, 0.0, -c],
            [0.0, 1.0, -c],
            [0.0, -1.0, -c],
            [0.0, 0.0, -1.0],
        ])

    def test_solved_results_are_kkt_points(self):
        A = self.pyramid_rows()
        lower = np.full(5, -np.inf)
        upper = np.zeros(5)
        rng = np.random.RandomState(0)
        failures = []
        solved = 0
        for case in range(200):
            a = rng.randn(3)
            a[2] = -abs(a[2]) - 0.5
            res = solve_qp(sp.eye(3, format="csc"), -a, sp.csc_matrix(A), lower, upper)
            if not res.solved:
                continue
            solved += 1
            v = A @ res.x
            kkt = max(
                float(np.abs(res.x - a + A.T @ res.y).max()),
                float(max(v.max(), 0.0)),
                float(np.abs(res.y * v).max()),
            )
            if res.y.min() < -1e-9 or kkt > 1e-8:
                failures.append((case, res.y.min(), kkt))
        assert failures == []
        # Every case is a strictly convex QP with a solution; a solve that
        # gives up must not pass this test by dropping out of the check.
        assert solved == 200


def with_free_rows(A, lower, upper, y0, count, rng):
    """The QP's rows with `count` random rows of bounds (-inf, inf) spread in.

    Returns the new (A, lower, upper, y0) and the positions of the free rows;
    the free rows get random warm multipliers, which the QP must ignore.
    """
    m, n = A.shape
    free = np.sort(rng.choice(m + count, size=count, replace=False))
    kept = np.setdiff1d(np.arange(m + count), free)
    A_all = np.empty((m + count, n))
    A_all[kept], A_all[free] = A, rng.randn(count, n)
    lower_all = np.full(m + count, -np.inf)
    upper_all = np.full(m + count, np.inf)
    lower_all[kept], upper_all[kept] = lower, upper
    y0_all = None
    if y0 is not None:
        y0_all = 100.0 * rng.randn(m + count)
        y0_all[kept] = y0
    return A_all, lower_all, upper_all, y0_all, free


def assert_free_rows_change_nothing(P, q, A, lower, upper, y0, count, seed):
    base = solve_qp(sp.csc_matrix(P), q, sp.csc_matrix(A), lower, upper, y0=y0)
    A_all, lower_all, upper_all, y0_all, free = with_free_rows(
        A, lower, upper, y0, count, np.random.RandomState(seed)
    )
    res = solve_qp(sp.csc_matrix(P), q, sp.csc_matrix(A_all), lower_all, upper_all, y0=y0_all)
    assert res.status == base.status
    np.testing.assert_allclose(res.x, base.x, rtol=0, atol=1e-9)
    assert np.all(res.y[free] == 0.0)
    np.testing.assert_allclose(np.delete(res.y, free), base.y, rtol=0, atol=1e-9)


class TestFreeRows:
    """A row with both bounds infinite never becomes active: adding such rows
    changes neither the status nor the solution, and their multipliers are
    zero.  build_nlp relies on this to keep one row set per layout."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_qps(self, seed):
        rng = np.random.RandomState(seed)
        M = rng.randn(5, 5)
        P = M @ M.T + 0.5 * np.eye(5)
        A = rng.randn(4, 5)
        lower = -np.abs(rng.randn(4)) - 0.1
        upper = np.abs(rng.randn(4)) + 0.1
        assert_free_rows_change_nothing(P, rng.randn(5), A, lower, upper, None, 3, seed)

    @PROPERTY
    @given(bounded_qps(), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_every_feasible_bounded_qp(self, case, count, seed):
        P, q, A, lower, upper, y0, _ = case
        assert_free_rows_change_nothing(P, q, A, lower, upper, y0, count, seed)


class TestOptions:
    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            solve_qp(sp.eye(1, format="csc"), [0.0], sp.csc_matrix([[1.0]]), [2.0], [1.0])

    def test_shapes_that_do_not_fit_raise(self):
        A = sp.csr_matrix(np.ones((1, 2)))
        with pytest.raises(ValueError, match="does not fit"):
            QpWorkspace(sp.eye(3, format="csc"), A)
        for lower, upper in (([0.0, 0.0], [1.0, 1.0]), ([0.0], [1.0, 1.0])):
            with pytest.raises(ValueError, match="bounds"):
                solve_qp(sp.eye(2, format="csc"), np.zeros(2), A, lower, upper)

    def test_ordering_is_used_and_checked(self):
        P = sp.diags([1.0, 2.0, 3.0], format="csc")
        q = -np.ones(3)
        A = sp.csc_matrix(np.eye(3))
        workspace = QpWorkspace(P, A, ordering=[2, 0, 1], q=q)
        assert np.array_equal(workspace.perm, [2, 0, 1])
        res = solve_qp(workspace.P.data, q, workspace.A.data, np.zeros(3), np.ones(3),
                       workspace=workspace)
        assert res.solved
        np.testing.assert_allclose(res.x, [1.0, 0.5, 1.0 / 3.0], atol=1e-8)
        for bad in ([0, 1], [0, 1, 1], [0.0, 1.0, 2.0], [0, 1, 3]):
            with pytest.raises(ValueError):
                QpWorkspace(P, A, ordering=bad, q=q)

    def test_warm_start_of_another_size_raises(self):
        P = sp.diags([1.0, 2.0, 3.0], format="csc")
        q = -np.ones(3)
        A = sp.csc_matrix(np.eye(3)[:2])
        lower, upper = np.zeros(2), np.full(2, 0.5)
        first = solve_qp(P, q, A, lower, upper, y0=[1.0, 0.0])
        assert first.solved
        # matching sizes are taken: the duals of a previous solve, on a
        # workspace equilibrated as the one-off one
        workspace = QpWorkspace(P, A, q=q)
        p_values, a_values = workspace.P.data, workspace.A.data
        again = solve_qp(p_values, q, a_values, lower, upper, y0=first.y, workspace=workspace)
        assert again.solved
        np.testing.assert_allclose(again.x, first.x, atol=1e-12)
        for y0 in ([1.0], [1.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="y0 has"):
                solve_qp(P, q, A, lower, upper, y0=y0)
            with pytest.raises(ValueError, match="y0 has"):
                solve_qp(p_values, q, a_values, lower, upper, y0=y0, workspace=workspace)
        with pytest.raises(ValueError, match="y0 has 1 entries, the QP has 0 rows"):
            solve_qp(P, q, y0=[1.0])
        # without a workspace, a q of another size is refused before one is set up
        with pytest.raises(ValueError, match="P, A and q hold 2, 2 and 3 values"):
            solve_qp(np.eye(2), [1.0, 2.0, 3.0], [[1.0, 1.0]], [-1.0], [1.0])
        # values of a QP of other sizes are refused, as the scaling of one was
        for p_other, q_other, a_other, bounds in (
            (p_values, q, a_values[:1], 1),
            (p_values, q, np.ones(3), 3),
            (p_values[:2], q[:2], a_values, 2),
        ):
            with pytest.raises(ValueError, match="values"):
                solve_qp(p_other, q_other, a_other, np.zeros(bounds), np.ones(bounds),
                         workspace=workspace)


class TestWorkspace:
    """A QpWorkspace set up once serves every QP on its patterns."""

    @pytest.mark.parametrize("seed", range(12))
    def test_workspace_solve_matches_one_off(self, seed):
        P, q, A, lower, upper = random_qp(seed)
        one_off = solve_qp(sp.csc_matrix(P), q, sp.csc_matrix(A), lower, upper)
        workspace = one_off_workspace(P, q, A, lower, upper)
        p_values, a_values = values(P, A)
        res = solve_qp(p_values, q, a_values, lower, upper, workspace=workspace)
        assert_same_result(res, one_off, atol=0.0)

    @PROPERTY
    @given(bounded_qps())
    def test_every_bounded_qp_matches_one_off(self, case):
        P, q, A, lower, upper, y0, _ = case
        one_off = solve_qp(sp.csc_matrix(P), q, sp.csc_matrix(A), lower, upper, y0=y0)
        workspace = one_off_workspace(P, q, A, lower, upper)
        p_values, a_values = values(P, A)
        res = solve_qp(p_values, q, a_values, lower, upper, y0=y0, workspace=workspace)
        assert_same_result(res, one_off, atol=0.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_reuse_for_new_values_matches_a_fresh_workspace(self, seed):
        # The second QP has the patterns of the first and new values; the
        # workspace, equilibrated on the first, solves it as a fresh one
        # equilibrated the same way does, and carries nothing from the
        # first solve over.
        first = random_qp(seed)
        P, q, A, lower, upper = random_qp(seed + 100)
        workspace = one_off_workspace(*first)
        p_first, a_first = values(first[0], first[2])
        solve_qp(p_first, first[1], a_first, *first[3:], workspace=workspace)
        p_values, a_values = values(P, A)
        reused = solve_qp(p_values, q, a_values, lower, upper, workspace=workspace)
        fresh = solve_qp(p_values, q, a_values, lower, upper,
                         workspace=one_off_workspace(*first))
        assert_same_result(reused, fresh, atol=0.0)
        assert reused.solved
        assert kkt_violation(P, q, A, lower, upper, reused.x, reused.y) <= 1e-7
        np.testing.assert_allclose(reused.x, brute_force_qp(P, q, A, lower, upper), atol=1e-7)

    @PROPERTY
    @given(bounded_qps(), st.lists(st.integers(0, 2**31 - 1), min_size=2, max_size=4))
    def test_qps_in_turn_match_a_fresh_workspace(self, case, seeds):
        # One workspace solves QPs whose equality rows and first active sets
        # change from QP to QP.  Each solve overwrites the scaled matrices
        # and band buffers the one before it left, so each result must be
        # bitwise that of a fresh workspace set up the same way.
        P, q, A, lower, upper, _, _ = case
        m, n = A.shape
        workspace = one_off_workspace(P, q, A, lower, upper)
        p_values, a_values = values(P, A)
        for seed in seeds:
            rng = np.random.RandomState(seed)
            v = A @ rng.randn(n)
            width = rng.choice([0.0, 0.3, 1.0], size=m) * np.abs(rng.randn(m))
            equality = rng.rand(m) < 0.4
            width[equality] = 0.0
            lo = np.where(np.isfinite(lower) | equality, v - width, -np.inf)
            up = np.where(np.isfinite(upper) | equality, v + width, np.inf)
            q_turn = -P @ rng.randn(n)
            y0 = None if rng.rand() < 0.3 else rng.choice([1.0, 100.0]) * rng.randn(m)
            fresh = solve_qp(p_values, q_turn, a_values, lo, up, y0=y0,
                             workspace=one_off_workspace(P, q, A, lower, upper))
            res = solve_qp(p_values, q_turn, a_values, lo, up, y0=y0, workspace=workspace)
            assert res.iterations == fresh.iterations
            assert_same_result(res, fresh, atol=0.0)

    @PROPERTY
    @given(st.sampled_from(["one_leg_jump", "two_leg_walk_run"]), st.integers(0, 2**31 - 1))
    def test_stacked_product_of_a_structure_workspace(self, name, seed):
        # The refinement's [P; A] x sums each row of P in the order of the
        # CSC product, so both blocks keep the bits of the separate products.
        workspace = structure_workspace(name)
        # scaled_A and its transposed view store their values in the A block
        assert np.shares_memory(workspace.scaled_A.data, workspace.stacked.data)
        assert workspace.scaled_AT.data is workspace.scaled_A.data
        m, n = workspace.shape
        rng = np.random.RandomState(seed)
        p_values = rng.randn(workspace.P.nnz)
        workspace.load(p_values, rng.randn(workspace.A.nnz), rng.randn(n),
                       -np.abs(rng.randn(m)), np.abs(rng.randn(m)))
        assert_stacked_product_exact(workspace, p_values,
                                     rng.randn(n) * rng.choice([1e-3, 1.0, 1e3], n),
                                     rng.randn(m))

    @PROPERTY
    @given(bounded_qps(), st.integers(0, 2**31 - 1))
    def test_refinement_returns_the_residuals_of_the_kkt_test(self, case, seed):
        # Equilibrated with a cost (c != 1), the stacked product keeps the
        # bits of the separate ones, and the refinement hands the KKT test
        # the gaps and both error parts it used to compute itself.
        P, _, A, lower, upper, _, _ = case
        m, n = A.shape
        rng = np.random.RandomState(seed)
        # a gradient large against the scaled P, so that the cost is scaled
        q = 1e3 * rng.randn(n)
        workspace = one_off_workspace(P, q, A, lower, upper)
        assume(workspace.c != 1.0)
        p_values, a_values = values(P, A)
        workspace.load(p_values, a_values, q, lower, upper)
        assert_stacked_product_exact(workspace, p_values, rng.randn(n), rng.randn(m))
        ls, us, eq = workspace.scaled_lower, workspace.scaled_upper, workspace.eq
        low = ~eq & np.isfinite(lower) & (rng.rand(m) < 0.4)
        upp = ~eq & ~low & np.isfinite(upper) & (rng.rand(m) < 0.4)
        start = np.zeros(n) if rng.rand() < 0.5 else rng.randn(n)
        try:
            found = qp._polish_point(workspace, start, rng.randn(m), low, upp)
        except qp._NotPositiveDefinite:
            return
        assert found is not None
        x, y, ax, gradient, (gap, primal_error, dual_error), _ = found
        assert np.array_equal(bits(ax), bits(workspace.scaled_A @ x))
        assert np.array_equal(bits(gradient),
                              bits(scaled_p(workspace, p_values) @ x + workspace.scaled_q))
        expected = np.where(low, ax - ls, np.where(upp | eq, ax - us, 0.0))
        assert np.array_equal(bits(gap), bits(expected))
        assert primal_error == float(np.max(np.abs(expected) / workspace.e, initial=0.0))
        stationarity = np.abs(gradient + workspace.scaled_AT @ y) / (workspace.c * workspace.d)
        assert dual_error == float(np.max(stationarity))

    def test_kkt_test_with_clipped_multipliers_takes_its_own_product(self, monkeypatch):
        # Warm multipliers of random signs make rows active whose refined
        # multipliers take the wrong sign.  The KKT test clips those and
        # only then computes stationarity itself, with one more product.
        equal, outcomes = np.array_equal, []

        def recording(a, b, *args, **kwargs):
            outcomes.append(equal(a, b, *args, **kwargs))
            return outcomes[-1]

        for seed in range(12):
            P, q, A, lower, upper = random_qp(seed)
            y0 = 10.0 * np.random.RandomState(seed).randn(A.shape[0])
            with monkeypatch.context() as patch:
                patch.setattr(np, "array_equal", recording)
                res = solve_qp(sp.csc_matrix(P), q, sp.csc_matrix(A), lower, upper, y0=y0)
            assert res.solved
            assert kkt_violation(P, q, A, lower, upper, res.x, res.y) <= 1e-7
            np.testing.assert_allclose(res.x, brute_force_qp(P, q, A, lower, upper), atol=1e-7)
        assert True in outcomes and False in outcomes

    def test_values_that_do_not_fit_raise(self):
        # With a workspace, P and A are value vectors of its patterns'
        # sizes, and q has one entry per variable.
        P, q, A, lower, upper = random_qp(1)
        workspace = QpWorkspace(sp.csc_matrix(P), sp.csc_matrix(A), q=q)
        p_values, a_values = workspace.P.data, workspace.A.data
        assert solve_qp(p_values, q, a_values, lower, upper, workspace=workspace).solved
        for args in (
            (p_values[:-1], q, a_values),
            (np.append(p_values, 1.0), q, a_values),
            (p_values, q, a_values[:-1]),
            (p_values, q[:4], a_values),
            (P, q, a_values),  # a dense matrix is no value vector
            (p_values, q, None),
        ):
            with pytest.raises(ValueError, match="values"):
                solve_qp(*args, lower, upper, workspace=workspace)

    def test_arrays_are_read_only(self):
        P, q, A, lower, upper = random_qp(2)
        workspace = QpWorkspace(sp.csc_matrix(P), sp.csc_matrix(A), q=q)
        for array in (workspace.d, workspace.e, workspace.perm, workspace.band_slot,
                      *(getattr(matrix, name) for matrix in (workspace.P, workspace.A)
                        for name in ("data", "indices", "indptr"))):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
