"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS/FAIL line with the measured quantities.  The
bundled scenario runs are shared module-scoped fixtures so the whole suite
performs each closed-loop simulation exactly once (plus the determinism
re-runs, which need fresh executions by design).
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from centroidal_mpc import bundled_scenario, controller, qp
from centroidal_mpc.controller import cold_start
from centroidal_mpc.model import CentroidalState, euler_step_batch
from centroidal_mpc.plan import nominal_com_trajectory
from centroidal_mpc.qp import solve_qp
from centroidal_mpc.scenario import apply_overrides, parse_scenario
from centroidal_mpc.sim import export_csv, simulate
from centroidal_mpc.solver import SolverOptions, check_derivatives, solve
from centroidal_mpc.transcription import NlpProblem, NlpStructure

import scipy.sparse as sp


def _report(criterion: str, passed: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@dataclass
class SolveRecord:
    """What the controller handed to `solve` over one run, and what came back."""

    calls: list = field(default_factory=list)  # (problem, y0, solution) per MPC step
    factorizations: int = 0
    # smallest magnitude of a nonzero entry, per successful band factor
    factor_floors: list = field(default_factory=list)


def _recorded_simulation(config):
    """simulate(config), recording every solve call and counting KKT factorizations."""
    record = SolveRecord()
    real_solve, real_factor = controller.solve, qp._factor_kkt
    real_dpbtrf = qp.lapack.dpbtrf

    def recording_solve(problem, warm_start, options=None, y0=None):
        solution = real_solve(problem, warm_start, options, y0=y0)
        record.calls.append((problem, y0, solution))
        return solution

    def counting_factor(*args):
        record.factorizations += 1
        return real_factor(*args)

    def recording_dpbtrf(*args, **kwargs):
        factor, info = real_dpbtrf(*args, **kwargs)
        if info == 0:
            record.factor_floors.append(float(np.min(np.abs(factor[factor != 0.0]))))
        return factor, info

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "solve", recording_solve)
        patch.setattr(qp, "_factor_kkt", counting_factor)
        patch.setattr(qp.lapack, "dpbtrf", recording_dpbtrf)
        traj, metrics = simulate(config)
    return traj, metrics, record


@pytest.fixture(scope="module")
def one_leg_push():
    config = parse_scenario(bundled_scenario("one_leg_jump"), name="one_leg_jump")
    start = time.perf_counter()
    traj, metrics, record = _recorded_simulation(config)
    return config, traj, metrics, time.perf_counter() - start, record


@pytest.fixture(scope="module")
def one_leg_baseline():
    text = apply_overrides(
        bundled_scenario("one_leg_jump"), ["simulation.disturbances_enabled=false"]
    )
    config = parse_scenario(text, name="one_leg_baseline")
    start = time.perf_counter()
    traj, metrics = simulate(config)
    return config, traj, metrics, time.perf_counter() - start


@pytest.fixture(scope="module")
def two_leg_push():
    config = parse_scenario(bundled_scenario("two_leg_walk_run"), name="two_leg_walk_run")
    return (config, *_recorded_simulation(config))


def _scenario_nlp(config):
    """(problem, nominal samples, schedule, state) of the scenario's horizon
    problem at t = 0 from the nominal CoM at rest, the contacts at their
    nominal positions and no wrench, as check-derivatives builds it."""
    plan, params = config.plan, config.params
    spline = nominal_com_trajectory(plan, params)
    state = CentroidalState(spline.position(0.0), np.zeros(3), np.zeros(3))
    problem, schedule, samples, _ = controller.horizon_problem(
        state, plan.nominal_positions, plan, 0.0, np.zeros(6), config.mpc, params, spline
    )
    return problem, samples, schedule, state


class TestCriterion1:
    def test_one_leg_jump_with_push(self, one_leg_push, one_leg_baseline):
        _, _, pushed, t_push, _ = one_leg_push
        _, _, base, t_base = one_leg_baseline
        runtime = t_push + t_base
        ok = (
            pushed.mean_adjustment_m is not None
            and 0.05 <= pushed.mean_adjustment_m <= 0.20
            and (base.mean_adjustment_m or 0.0) < 0.02
            and runtime < 60.0
        )
        _report(
            "1 (one-leg jump with push)",
            ok,
            f"disturbed mean adjustment {pushed.mean_adjustment_m:.4f} m in [0.05, 0.20], "
            f"baseline {base.mean_adjustment_m or 0.0:.4f} m < 0.02, "
            f"runtime {runtime:.1f} s < 60",
        )


class TestCriterion2:
    def test_two_leg_walk_to_run(self, two_leg_push):
        _, traj, metrics, _ = two_leg_push
        # completion: simulate() raising SimulationDiverged would have failed
        # the fixture; also require genuinely aerial prediction knots
        aerial_knots = 0
        worst_drift = 0.0
        for k in range(traj.n_steps):
            aerial = ~traj.predicted_schedules[k].any(axis=1)
            for idx in np.where(aerial)[0]:
                aerial_knots += 1
                drift = np.abs(
                    traj.predicted_ang[k][idx + 1] - traj.predicted_ang[k][idx]
                ).max()
                worst_drift = max(worst_drift, drift)
        executed_aerial = (~traj.gamma.any(axis=1)).sum()
        ok = (
            metrics.mean_adjustment_m is not None
            and 0.03 <= metrics.mean_adjustment_m <= 0.12
            and aerial_knots > 0
            and executed_aerial > 0
            and worst_drift <= 1e-12
        )
        _report(
            "2 (two-leg walk-to-run)",
            ok,
            f"mean adjustment {metrics.mean_adjustment_m:.4f} m in [0.03, 0.12], "
            f"{executed_aerial} aerial plant steps completed, "
            f"h_ang drift across {aerial_knots} aerial prediction knots "
            f"= {worst_drift:.1e} (machine precision)",
        )

    def test_plant_angular_momentum_conserved_in_aerial_intervals(self, two_leg_push):
        # all pushes act at the CoM, so the plant's angular momentum is
        # bit-constant across every logged aerial step
        _, traj, _, _ = two_leg_push
        aerial_steps = np.where(~traj.gamma[: traj.n_steps].any(axis=1))[0]
        assert aerial_steps.size > 0
        for k in aerial_steps:
            assert np.array_equal(traj.momentum[k + 1, 3:6], traj.momentum[k, 3:6])

    def test_no_spurious_adjustment_without_disturbance(self):
        text = apply_overrides(
            bundled_scenario("two_leg_walk_run"),
            ["simulation.disturbances_enabled=false"],
        )
        _, metrics = simulate(parse_scenario(text, name="two_leg_baseline"))
        assert metrics.mean_adjustment_m is not None
        assert metrics.mean_adjustment_m < 0.02


class TestCriterion3:
    def test_solve_time_budget(self, one_leg_push, two_leg_push):
        _, traj_one, _, _, _ = one_leg_push
        _, traj_two, _, _ = two_leg_push
        times = np.concatenate([traj_one.solve_times_ms, traj_two.solve_times_ms])
        statuses = traj_one.statuses + traj_two.statuses
        p95 = float(np.percentile(times, 95))
        rate = float(np.mean([s == "converged" for s in statuses]))
        ok = p95 <= 250.0 and rate >= 0.95
        _report(
            "3 (solve-time budget)",
            ok,
            f"p95 solve time {p95:.0f} ms (budget 250 ms), "
            f"convergence rate {rate * 100:.1f}% (needs >= 95%) "
            f"over {times.size} MPC steps of both bundled scenarios",
        )


class TestNoDegradedSteps:
    """Criterion 3 lets 5 % of the steps miss convergence; the bundled
    scenarios must have none, so `centroidal-mpc run` exits 0 on both."""

    def test_every_mpc_step_converges(self, one_leg_push, two_leg_push):
        runs = {"one_leg_jump": one_leg_push[1], "two_leg_walk_run": two_leg_push[1]}
        missed = {
            name: [(k, s) for k, s in enumerate(traj.statuses) if s != "converged"]
            for name, traj in runs.items()
        }
        assert missed == {name: [] for name in runs}
        assert not any(traj.degraded.any() for traj in runs.values())


class TestSqpIterationCount:
    """The exact Lagrangian Hessian converges fast after the push: no MPC
    step of the bundled runs needs more than a handful of SQP iterations
    (the Gauss-Newton model needed up to 9 on one leg and 10 on two)."""

    def test_iterations_per_step(self, one_leg_push, two_leg_push):
        worst = {
            "one_leg_jump": int(one_leg_push[1].iterations.max()),
            "two_leg_walk_run": int(two_leg_push[1].iterations.max()),
        }
        assert worst["one_leg_jump"] <= 4, worst
        assert worst["two_leg_walk_run"] <= 5, worst


class TestFactorizationCount:
    """Warm-started from the shifted primal-dual solution, the bundled runs
    factor the QP's condensed KKT matrix 71 times (one leg) and 99 times
    (two legs); with the multipliers mostly dropped they took 89 and 110."""

    def test_factorizations_per_run(self, one_leg_push, two_leg_push):
        counts = {
            "one_leg_jump": one_leg_push[4].factorizations,
            "two_leg_walk_run": two_leg_push[3].factorizations,
        }
        assert counts["one_leg_jump"] <= 75, counts
        assert counts["two_leg_walk_run"] <= 100, counts

    def test_band_factors_hold_no_underflowing_fill(self, two_leg_push):
        # Factored from the terminal stage, no fill entry of the band
        # factor decays towards the subnormal range, where every operation
        # on it costs many times more; entries of at least 1e-150 keep every
        # product of two of them out of that range.
        floors = two_leg_push[3].factor_floors
        assert floors
        assert min(floors) >= 1e-150, sum(f < 1e-150 for f in floors)


class TestDualWarmStart:
    """After a converged step, the next solve gets the previous multipliers
    shifted one knot, at full size: the constraint rows of a layout do not
    change with the schedule."""

    def test_every_step_after_a_converged_one_gets_shifted_multipliers(
        self, one_leg_push, two_leg_push
    ):
        for record in (one_leg_push[4], two_leg_push[3]):
            assert record.calls[0][1] is None
            for (_, _, previous), (problem, y0, _) in zip(record.calls, record.calls[1:]):
                assert previous.converged
                assert y0 is not None and y0.size == problem.n_eq + problem.n_ineq
                assert np.array_equal(y0, previous.multipliers[problem.structure.shift_rows])


class TestCriterion4:
    def test_derivative_correctness(self, one_leg_push, two_leg_push):
        rng = np.random.RandomState(2024)
        multiplier_rng = np.random.RandomState(2025)
        worst = worst_hess = 0.0
        points_total = 0
        for config in (one_leg_push[0], two_leg_push[0]):
            problem, samples, _, _ = _scenario_nlp(config)
            layout = problem.structure.layout
            base = cold_start(config.plan, layout, samples)
            points = base + rng.uniform(-0.5, 0.5, size=(50, layout.size))
            # multipliers of the size seen after a push (100-700)
            y = multiplier_rng.uniform(-700.0, 700.0, size=(50, problem.n_eq))
            report = check_derivatives(problem, points, multipliers=y)
            worst = max(worst, report.max_relative_error)
            worst_hess = max(worst_hess, report.hessian_error)
            points_total += len(points)
        ok = worst < 1e-5
        _report(
            "4 (derivative correctness)",
            ok,
            f"max relative error {worst:.2e} < 1e-5 (Lagrangian Hessian {worst_hess:.2e}) "
            f"across {points_total} random points and multipliers on both scenario NLPs "
            f"(central differences, step 1e-6)",
        )


class TestCriterion5:
    def test_defects_on_rollout(self, two_leg_push):
        config = two_leg_push[0]
        problem, _, schedule, state = _scenario_nlp(config)
        plan, params, options = config.plan, config.params, config.mpc
        measured = plan.nominal_positions
        layout = problem.structure.layout
        rng = np.random.RandomState(7)
        x = np.zeros(layout.size)
        x[layout.n_state_vars:] = 3.0 * rng.randn(layout.n_knots * layout.control_dim)
        x[layout.contacts] = measured
        forces = x[layout.forces]
        p, h = state.p_com[None], state.momentum[None]
        x[layout.com[0]], x[layout.momentum[0]] = p[0], h[0]
        gamma = schedule.astype(float)
        wrench = np.zeros((layout.n_knots, 6))
        for k in range(layout.n_knots):
            p, h = euler_step_batch(
                p, h, measured[None], forces[k : k + 1], gamma[k : k + 1],
                plan.corner_arms, plan.corner_contact, params.mass, params.gravity,
                wrench[k : k + 1], options.period,
            )
            x[layout.com[k + 1]], x[layout.momentum[k + 1]] = p[0], h[0]
        worst_defect = float(np.abs(problem.eq(x)).max())
        defects_ok = worst_defect < 1e-12
        _report(
            "5a (defects on integrate_step rollout)",
            defects_ok,
            f"max defect residual {worst_defect:.2e} < 1e-12",
        )

    def test_plant_matches_knot0_prediction_exactly(self):
        # disturbance events are aligned to the control grid, so the estimate
        # matches the true disturbance over every control period
        text = apply_overrides(
            bundled_scenario("two_leg_walk_run"), ["simulation.substeps=1"]
        )
        config = parse_scenario(text, name="two_leg_sub1")
        traj, _ = simulate(config)
        exact = all(
            np.array_equal(
                traj.predicted_next[k],
                np.concatenate([traj.com[k + 1], traj.momentum[k + 1]]),
            )
            for k in range(traj.n_steps)
        )
        _report(
            "5b (plant-model one-step agreement, substeps=1)",
            exact,
            f"all {traj.n_steps} plant steps bit-identical to the knot-0 prediction",
        )


class TestCriterion6:
    def test_feasibility_suite(self, one_leg_push, two_leg_push):
        worst_pyramid = 0.0
        worst_box = 0.0
        stance_constant = True
        for config, traj in ((one_leg_push[0], one_leg_push[1]),
                             (two_leg_push[0], two_leg_push[1])):
            pyramid = config.mpc.pyramid
            corner_contact = config.plan.corner_contact
            for i, contact in enumerate(config.plan.contacts):
                active = traj.gamma[: traj.n_steps, i]
                for k in np.where(active)[0]:
                    for j in np.flatnonzero(corner_contact == i):
                        worst_pyramid = max(
                            worst_pyramid,
                            pyramid.violation(traj.forces[k, j], contact.orientation),
                        )
                # bit-constant positions across each maximal stance interval
                runs = np.where(np.diff(active.astype(int)) != 0)[0] + 1
                for seg in np.split(np.arange(traj.n_steps), runs):
                    if seg.size == 0 or not active[seg[0]]:
                        continue
                    first = traj.contact_positions[seg[0], i]
                    for r in seg:
                        if not np.array_equal(traj.contact_positions[r, i], first):
                            stance_constant = False
            for td in traj.touchdowns:
                contact = config.plan.contact(td.contact_id)
                residual = contact.orientation.T @ (contact.nominal_position - td.committed)
                gap = np.maximum(config.mpc.box.lower - residual, 0.0)
                gap = np.maximum(gap, residual - config.mpc.box.upper)
                worst_box = max(worst_box, float(gap.max()))
        ok = worst_pyramid <= 1e-7 and worst_box <= 1e-9 and stance_constant
        _report(
            "6 (feasibility suite)",
            ok,
            f"max pyramid violation of applied forces {worst_pyramid:.2e} <= 1e-7, "
            f"max box violation of committed touchdowns {worst_box:.2e}, "
            f"stance positions bit-constant: {stance_constant}",
        )


class TestCriterion7:
    def test_solver_unit_oracles(self):
        tight = SolverOptions(kkt_tolerance=1e-10, constraint_tolerance=1e-10)
        failures = []

        # equality-constrained QP vs analytic KKT solution
        rng = np.random.RandomState(5)
        H = np.diag([2.0, 3.0, 4.0])
        g0 = rng.randn(3)
        A = rng.randn(1, 3)
        b = np.array([1.0])
        kkt = np.block([[H, A.T], [A, np.zeros((1, 1))]])
        expected = np.linalg.solve(kkt, np.concatenate([-g0, b]))[:3]
        problem = NlpProblem(
            NlpStructure(sp.csc_matrix(H), sp.csr_matrix(A)),
            cost=lambda x: float(0.5 * x @ H @ x + g0 @ x),
            cost_grad=lambda x: H @ x + g0,
            lagrangian_hess=lambda x, y_eq: np.diag(H),
            eq=lambda x: A @ x - b,
            eq_jac=lambda x: A.ravel(),
        )
        sol = solve(problem, np.zeros(3), tight)
        if not (sol.converged and sol.iterations <= 2
                and np.abs(sol.x - expected).max() <= 1e-8):
            failures.append(f"equality QP error {np.abs(sol.x - expected).max():.1e}")

        # half-space projection: min 1/2||x||^2 s.t. x1 >= 1
        proj = NlpProblem(
            NlpStructure(sp.csc_matrix(np.eye(2)),
                         ineq_matrix=sp.csr_matrix(np.array([[1.0, 0.0]]))),
            cost=lambda x: float(0.5 * x @ x),
            cost_grad=lambda x: x.copy(),
            lagrangian_hess=lambda x, y_eq: np.ones(2),
            ineq_lower=np.array([1.0]),
            ineq_upper=np.array([np.inf]),
        )
        sol2 = solve(proj, np.array([5.0, 3.0]), tight)
        if not (sol2.converged and np.abs(sol2.x - [1.0, 0.0]).max() <= 1e-8):
            failures.append(f"projection error {np.abs(sol2.x - [1.0, 0.0]).max():.1e}")

        # direct QP oracles
        x = solve_qp(np.eye(2), [-1.0, -1.0]).x
        if np.abs(x - 1.0).max() > 1e-8:
            failures.append("unconstrained QP")
        x = solve_qp(np.eye(2), [0, 0], [[1.0, 1.0]], [1.0], [1.0]).x
        if np.abs(x - 0.5).max() > 1e-8:
            failures.append("minimum-norm line QP")
        x = solve_qp(np.eye(2), [0, 0], [[1.0, 0.0]], [1.0], [np.inf]).x
        if np.abs(x - [1.0, 0.0]).max() > 1e-8:
            failures.append("half-space QP")

        _report(
            "7 (solver unit oracles)",
            not failures,
            "all analytic QP/projection answers within 1e-8"
            if not failures
            else "; ".join(failures),
        )


class TestCriterion8:
    @pytest.mark.parametrize("name", ["one_leg_jump", "two_leg_walk_run"])
    def test_byte_identical_csv(self, name, tmp_path):
        config = parse_scenario(bundled_scenario(name), name=name)
        traj_a, _ = simulate(config)
        traj_b, _ = simulate(config)
        export_csv(traj_a, tmp_path / "a")
        export_csv(traj_b, tmp_path / "b")
        identical = all(
            (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
            for f in ("states.csv", "contacts.csv", "forces.csv", "solver.csv")
        )
        _report(
            f"8 (determinism, {name})",
            identical,
            "two runs produced byte-identical CSV outputs",
        )
