"""Spans around the calls into each layer, recorded from outside the program.

No source file of the program is edited.  `install` replaces the module
attributes through which one layer calls the next (the public functions as
bound in their caller, plus the module-level helpers that `solver` and `qp`
look up at call time) with wrappers that record a span per call, and
`Tracer.restore` puts every original back.

A span is [name, start, end, parent, step]: perf_counter seconds, the index
of the enclosing span (-1 at the root) and the index of the MPC step it
belongs to.  Spans stay in memory until `write_spans` at the end of a run.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter
from importlib import import_module
from time import perf_counter

import numpy as np

# Callbacks of the NlpProblem returned by build_nlp, each timed as its own span.
_CALLBACKS = ("cost", "cost_grad", "cost_hess", "eq", "eq_jac", "ineq", "ineq_jac")
_EXACT_RETRY_ITERATIONS = 20000
_SQP_STATUSES = ("converged", "max_iterations", "infeasible", "numerical_failure")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.step = -1
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording one span per call; `after` may replace the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.step]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                result = after(record, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by its traced wrapper until `restore`."""
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def restore(self):
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def parent_name(self, record) -> str | None:
        return self.spans[record[3]][0] if record[3] >= 0 else None


def install(tracer: Tracer, program) -> None:
    """Trace every layer boundary of `program` (the centroidal_mpc package)."""
    controller, plan, qp, sim, solver = (
        import_module(f"{program.__name__}.{m}")
        for m in ("controller", "plan", "qp", "sim", "solver")
    )
    counts = tracer.counts

    def next_step():
        tracer.step += 1

    def after_build(record, args, kwargs, problem):
        for attr in _CALLBACKS:
            fn = getattr(problem, attr, None)
            if fn is not None:
                object.__setattr__(
                    problem, attr, tracer.wrap(f"transcription.{attr}", fn)
                )
        return problem

    def after_solve(record, args, kwargs, solution):
        counts["solver.sqp_iters"] += solution.iterations
        counts["solver.sqp_iters_max"] = max(
            counts["solver.sqp_iters_max"], solution.iterations
        )
        counts[f"solver.status.{solution.status}"] += 1
        counts["solver.line_searches"] += len(solution.merit_history)
        return solution

    def after_qp(record, args, kwargs, result):
        options = kwargs.get("options") or qp.QpOptions()
        counts["qp.admm_iters"] += result.iterations
        counts["qp.capped"] += result.iterations >= options.max_iterations
        counts["qp.polished"] += bool(result.polished)
        if tracer.parent_name(record) == "solver.solve":
            counts["solver.qp_calls"] += 1
            if options.max_iterations == _EXACT_RETRY_ITERATIONS:
                counts["solver.exact_retry.calls"] += 1
                # solve() runs a second line search only on a solved retry
                if result.solved and np.all(np.isfinite(result.x)):
                    counts["solver.line_searches"] += 1
        return result

    tracer.patch(sim, "simulate", "sim.simulate")
    tracer.patch(sim, "mpc_step", "controller.mpc_step", before=next_step)
    tracer.patch(sim, "integrate_step", "sim.plant")
    tracer.patch(sim, "export_csv", "sim.export_csv")
    tracer.patch(sim, "write_manifest", "sim.write_manifest")
    tracer.patch(controller, "horizon_schedule", "plan.horizon_schedule")
    tracer.patch(plan.QuinticSpline, "sample", "plan.sample")
    tracer.patch(controller, "build_nlp", "transcription.build_nlp", after=after_build)
    tracer.patch(controller, "solve", "solver.solve", after=after_solve)
    tracer.patch(controller, "euler_step_batch", "model.rollout")
    tracer.patch(solver, "_evaluate", "solver.evaluate")
    tracer.patch(solver, "_elastic_qp", "solver.elastic")
    tracer.patch(solver, "solve_qp", "qp.solve_qp", after=after_qp)
    tracer.patch(qp, "_ruiz_scale", "qp.ruiz")
    tracer.patch(qp, "_factor_kkt", "qp.factor")
    tracer.patch(qp, "_polish_point", "qp.polish")


def _totals(spans, lo: int, hi: int):
    """Per span name: calls, total seconds and self seconds over spans[lo:hi]."""
    child = [0.0] * (hi - lo)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent - lo] += end - start
    calls, total, own = Counter(), Counter(), Counter()
    for offset, (name, start, end, _, _) in enumerate(spans[lo:hi]):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[offset]
    return calls, total, own


def layer_metrics(tracer: Tracer, lo: int, hi: int, counts: Counter) -> dict:
    """Per-layer values of spans[lo:hi]: times in ms, counts as recorded."""
    calls, total, own = _totals(tracer.spans, lo, hi)

    def ms(counter, *names):
        return 1e3 * sum(counter[n] for n in names)

    step_ms = ms(total, "controller.mpc_step")
    controller_self = ms(own, "controller.mpc_step")
    polish_calls = calls["qp.polish"]
    out = {
        "plan.ms": ms(total, "plan.horizon_schedule", "plan.sample"),
        "transcription.build_nlp_ms": ms(total, "transcription.build_nlp"),
        "transcription.build_nlp.calls": calls["transcription.build_nlp"],
        "transcription.eq_ms": ms(total, "transcription.eq"),
        "transcription.eq.calls": calls["transcription.eq"],
        "transcription.eq_jac_ms": ms(total, "transcription.eq_jac"),
        "transcription.eq_jac.calls": calls["transcription.eq_jac"],
        "transcription.cost.calls": calls["transcription.cost"],
        "transcription.other_ms": ms(
            total, *(f"transcription.{c}" for c in _CALLBACKS if c not in ("eq", "eq_jac"))
        ),
        "solver.self_ms": ms(own, "solver.solve", "solver.evaluate", "solver.elastic"),
        "solver.sqp_iters": counts["solver.sqp_iters"],
        "solver.sqp_iters_max": counts["solver.sqp_iters_max"],
        "solver.qp_calls": counts["solver.qp_calls"],
        # every cost call outside _evaluate is one line-search trial
        "solver.backtracks": calls["transcription.cost"]
        - calls["solver.evaluate"]
        - counts["solver.line_searches"],
        "solver.exact_retry.calls": counts["solver.exact_retry.calls"],
        "solver.elastic.calls": calls["solver.elastic"],
    }
    for status in _SQP_STATUSES:
        out[f"solver.status.{status}"] = counts[f"solver.status.{status}"]
    out["solver.status.other"] = sum(
        v for k, v in counts.items()
        if k.startswith("solver.status.") and k[len("solver.status."):] not in _SQP_STATUSES
    )
    out.update(
        {
            "qp.solve_ms": ms(total, "qp.solve_qp"),
            "qp.calls": calls["qp.solve_qp"],
            "qp.admm_iters": counts["qp.admm_iters"],
            "qp.admm_ms": ms(own, "qp.solve_qp"),
            "qp.factor.calls": calls["qp.factor"],
            "qp.factor_ms": ms(total, "qp.factor"),
            "qp.polish.calls": polish_calls,
            "qp.polish_ms": ms(total, "qp.polish"),
            "qp.polish_accept_ratio": counts["qp.polished"] / polish_calls if polish_calls else 0.0,
            "qp.ruiz_ms": ms(total, "qp.ruiz"),
            "qp.capped": counts["qp.capped"],
            "model.rollout_ms": ms(total, "model.rollout"),
            "controller.mpc_step.calls": calls["controller.mpc_step"],
            "controller.mpc_step_ms": step_ms,
            "controller.self_ms": controller_self,
            "sim.plant_ms": ms(total, "sim.plant"),
            "sim.plant.calls": calls["sim.plant"],
            "sim.self_ms": ms(own, "sim.simulate"),
            "sim.export_ms": ms(total, "sim.export_csv", "sim.write_manifest"),
            # share of mpc_step time spent inside the named layers it calls
            "trace.attributed_share": 1.0 - controller_self / step_ms if step_ms else 0.0,
            "trace.spans": hi - lo,
        }
    )
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One CSV row per span, times in microseconds from the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["index", "name", "start_us", "end_us", "parent", "step"])
        for index, (name, start, end, parent, step) in enumerate(tracer.spans):
            out.writerow(
                [index, name, f"{(start - origin) * 1e6:.1f}", f"{(end - origin) * 1e6:.1f}",
                 parent, step]
            )
