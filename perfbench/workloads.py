"""Scenario texts of the benchmark workloads.

Every workload is a list of (name, scenario text) pairs.  The program only
ever receives the text; everything seed-dependent is generated here.

- jump: bundled one_leg_jump as shipped (552 variables, point foot).
- walk_run: bundled two_leg_walk_run as shipped (1365 variables), with the
  contact-transition tail and its degraded step.
- walk_steady: two_leg_walk_run with its disturbance switched off, so every
  step converges in a few SQP iterations; a convergence fix should not move
  it, a linear-algebra change shows its full effect.  BENCHMARK.json does not
  list it: the benchmark's total time limit holds 40-second runs of two
  workloads but not of three, and 20-second runs were too noisy on a shared
  2-core host (jump's step_ms_p90 spread 0.15 and 0.26 of its median in two
  sets of ten).
  Every layer it exercises is measured on jump and walk_run as well.
- push_sweep: the one-leg system with its bundled push replaced by pushes
  drawn from the seed, one scenario per push.  The only workload whose
  inputs change with the seed, so a claim can be re-checked on unseen
  pushes, and the only one that drives steps into the SQP iteration cap.
  BENCHMARK.json does not list it: one push costs 1.5 s to over 15 s
  depending on the draw, so its figures spread across seeds by more than
  any bound the benchmark may set (in two sets of five seeds, 0.20 and 0.42
  of the median for run_s, 0.43 and 0.51 for step_ms_p90).
  `run.py --workload push_sweep` and the all-workloads mode still run and
  check it.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("jump", "walk_run", "walk_steady", "push_sweep")

# Push ranges of the sweep; the stated ranges are the workload's definition
# and must not be narrowed to keep its degraded steps out of sight.
PUSH_FORCE_N = (3.0, 8.0)
PUSH_DURATION_S = (0.2, 0.6)
PUSH_COUNT = 6
_GRID_S = 0.1


def _strip_disturbances(text: str) -> str:
    """Drop every [disturbance] section, keeping all other lines verbatim."""
    kept = []
    inside = False
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            inside = stripped[1:-1].strip() == "disturbance"
        if not inside:
            kept.append(line)
    return "\n".join(kept).rstrip("\n") + "\n"


def _disable_disturbances(text: str) -> str:
    """Insert `disturbances_enabled = false` at the top of [simulation]."""
    out = []
    for line in text.splitlines():
        out.append(line)
        if line.split("#", 1)[0].strip() == "[simulation]":
            out.append("disturbances_enabled = false")
    if len(out) == len(text.splitlines()):
        raise ValueError("scenario text has no [simulation] section")
    return "\n".join(out) + "\n"


def _duration_s(text: str) -> float:
    section = None
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
        elif section == "simulation" and stripped.split("=", 1)[0].strip() == "duration_s":
            return float(stripped.split("=", 1)[1])
    raise ValueError("scenario text has no [simulation] duration_s")


def push_events(seed: int, count: int = PUSH_COUNT, horizon_s: float = 3.2) -> list:
    """Draw `count` lateral pushes as (t_start_s, duration_s, fx_n, fy_n).

    Latin-hypercube draws: each of force, direction, onset and duration is
    split into `count` equal strata and every stratum is used once, so one
    run covers each range evenly.  Force strata are in ascending order, which
    puts the weakest push first; the other pairings are shuffled.  Onsets and
    durations sit on the 0.1 s control grid, so the controller's estimate
    matches the plant's push over whole control periods.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    perm_dir = rng.sample(range(count), count)
    perm_dur = rng.sample(range(count), count)
    perm_on = rng.sample(range(count), count)
    events = []
    f_lo, f_hi = PUSH_FORCE_N
    d_lo, d_hi = PUSH_DURATION_S
    n_durations = int(round((d_hi - d_lo) / _GRID_S)) + 1
    for i in range(count):
        force = f_lo + (f_hi - f_lo) * (i + rng.random()) / count
        angle = 2.0 * math.pi * (perm_dir[i] + rng.random()) / count
        # durations: count strata over the discrete grid values
        u = (perm_dur[i] + rng.random()) / count
        duration_ticks = int(round(d_lo / _GRID_S)) + min(int(u * n_durations), n_durations - 1)
        # onsets: any grid time from 0.1 s on that lets the push end in time
        n_onsets = int(round(horizon_s / _GRID_S)) - duration_ticks
        u = (perm_on[i] + rng.random()) / count
        onset_ticks = 1 + min(int(u * n_onsets), n_onsets - 1)
        events.append(
            (
                onset_ticks * _GRID_S,
                duration_ticks * _GRID_S,
                force * math.cos(angle),
                force * math.sin(angle),
            )
        )
    return events


def push_scenario(base_text: str, event) -> str:
    t_start, duration, fx, fy = event
    return _strip_disturbances(base_text) + (
        "\n[disturbance]\n"
        f"t_start_s = {t_start:.1f}\n"
        f"duration_s = {duration:.1f}\n"
        f"force_n = {fx:.6f} {fy:.6f} 0.0\n"
    )


def scenarios(workload: str, seed: int, bundled) -> list:
    """(name, text) pairs of a workload; `bundled(name)` returns shipped text."""
    if workload == "jump":
        return [("one_leg_jump", bundled("one_leg_jump"))]
    if workload == "walk_run":
        return [("two_leg_walk_run", bundled("two_leg_walk_run"))]
    if workload == "walk_steady":
        return [("two_leg_walk_steady", _disable_disturbances(bundled("two_leg_walk_run")))]
    if workload == "push_sweep":
        base = bundled("one_leg_jump")
        horizon = _duration_s(base)
        return [
            (f"push_{i}", push_scenario(base, event))
            for i, event in enumerate(push_events(seed, horizon_s=horizon))
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
