"""Contact plans and the nominal CoM reference trajectory.

A plan is a set of named contacts, each with one nominal pose, a contact
surface geometry, and a list of half-open activation windows.  The nominal
CoM reference is a quintic spline through support-centroid waypoints with
zero velocity and acceleration at both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import ContactGeometry, PhysicalParams, _as_vector, check_rotation

# Positions a spline keeps for times sampled before; past this many it
# starts over.
_SAMPLE_MEMO = 4096


@dataclass(frozen=True)
class NominalContact:
    """One planned contact: nominal pose, surface geometry, activation windows."""

    contact_id: str
    nominal_position: np.ndarray
    orientation: np.ndarray
    geometry: ContactGeometry
    activation_windows: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "nominal_position", _as_vector(self.nominal_position, 3, "nominal_position")
        )
        object.__setattr__(self, "orientation", check_rotation(self.orientation))
        windows = []
        for start, end in self.activation_windows:
            start, end = float(start), float(end)
            if not start < end:
                raise ValueError(
                    f"contact {self.contact_id!r}: window [{start}, {end}) is empty"
                )
            windows.append((start, end))
        windows.sort()
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            if next_start < prev_end:
                raise ValueError(f"contact {self.contact_id!r}: overlapping windows")
        object.__setattr__(self, "activation_windows", tuple(windows))

    def active_at(self, t: float) -> bool:
        return any(start <= t < end for start, end in self.activation_windows)


@dataclass(frozen=True)
class ContactPlan:
    """Timed contact sequence over [0, duration].

    The stacked arrays of its contacts are derived once and are read-only:
    orientations (n_c, 3, 3) and nominal positions (n_c, 3) in contact
    order, and the corner counts.  The V corners of all contacts are
    numbered in contact order, as the columns of the corner forces:
    `corner_contact` (V,) holds each corner's contact and `corner_arms`
    (V, 3) its offset from the contact in the world frame, R c.
    `box_anchors` (n_c, 3) holds each contact's nominal position in its own
    frame, R^T p, the point about which a contact box bounds the contact.
    """

    contacts: tuple
    duration: float
    orientations: np.ndarray = field(init=False, repr=False, compare=False)
    corner_counts: tuple = field(init=False, repr=False, compare=False)
    corner_contact: np.ndarray = field(init=False, repr=False, compare=False)
    corner_arms: np.ndarray = field(init=False, repr=False, compare=False)
    nominal_positions: np.ndarray = field(init=False, repr=False, compare=False)
    box_anchors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        contacts = tuple(self.contacts)
        if not contacts:
            raise ValueError("a plan needs at least one contact")
        ids = [c.contact_id for c in contacts]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate contact ids: {ids}")
        for contact in contacts:
            for start, end in contact.activation_windows:
                if start < 0.0 or end > self.duration:
                    raise ValueError(
                        f"contact {contact.contact_id!r}: window [{start}, {end}) "
                        f"outside plan duration {self.duration}"
                    )
        object.__setattr__(self, "contacts", contacts)
        counts = tuple(c.geometry.n_corners for c in contacts)
        orientations = np.array([c.orientation for c in contacts])
        nominal_positions = np.array([c.nominal_position for c in contacts])
        derived = {
            "orientations": orientations,
            "corner_contact": np.repeat(np.arange(len(contacts)), counts),
            "corner_arms": np.concatenate(
                [c.geometry.offsets_matrix() @ R.T for c, R in zip(contacts, orientations)]
            ),
            "nominal_positions": nominal_positions,
            "box_anchors": np.array([R.T @ p for R, p in zip(orientations, nominal_positions)]),
        }
        for name, arr in derived.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "corner_counts", counts)

    @property
    def n_contacts(self) -> int:
        return len(self.contacts)

    @property
    def contact_ids(self) -> list[str]:
        return [c.contact_id for c in self.contacts]

    def contact(self, contact_id: str) -> NominalContact:
        for c in self.contacts:
            if c.contact_id == contact_id:
                return c
        raise KeyError(f"unknown contact id {contact_id!r}")


def horizon_schedule(
    plan: ContactPlan,
    t0: float,
    n_knots: int,
    period: float,
) -> np.ndarray:
    """Gate matrix of shape (n_knots, n_contacts); entry [k, i] = gate at t0 + k*period.

    Sample times beyond the plan end are clamped just inside the final
    instant, so the last planned phase persists.
    """
    if not period > 0.0:
        raise ValueError(f"period must be positive, got {period}")
    if n_knots < 1:
        raise ValueError(f"n_knots must be >= 1, got {n_knots}")
    times = np.minimum(t0 + np.arange(n_knots) * period, np.nextafter(plan.duration, -np.inf))
    out = np.zeros((n_knots, plan.n_contacts), dtype=bool)
    for i, contact in enumerate(plan.contacts):
        for start, end in contact.activation_windows:
            out[:, i] |= (start <= times) & (times < end)
    return out


class QuinticSpline:
    """Piecewise degree-5 interpolant, C2 (in fact C4) across segments.

    Velocity and acceleration vanish at the first and last knot.  Evaluation
    outside the knot span clamps to the boundary values.
    """

    def __init__(self, knot_times: Sequence[float], knot_points):
        times = np.asarray(knot_times, dtype=float).reshape(-1)
        points = np.asarray(knot_points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if times.size != points.shape[0]:
            raise ValueError("knot_times and knot_points disagree in length")
        if times.size < 1:
            raise ValueError("need at least one knot")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("knot times must be strictly increasing")
        self.knot_times = times
        self.knot_points = points
        self.dim = points.shape[1]
        self._coeffs = self._solve_coefficients(times, points)
        self._samples: dict = {}

    @staticmethod
    def _solve_coefficients(times: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Coefficients (n_seg, 6, dim) in local time tau in [0, h_s]."""
        n = times.size
        if n == 1:
            coeffs = np.zeros((1, 6, points.shape[1]))
            coeffs[0, 0] = points[0]
            return coeffs
        n_seg = n - 1
        n_unknowns = 6 * n_seg
        A = np.zeros((n_unknowns, n_unknowns))
        b = np.zeros((n_unknowns, points.shape[1]))
        h = np.diff(times)

        def basis(tau, order):
            row = np.zeros(6)
            for p in range(order, 6):
                fact = 1.0
                for q in range(order):
                    fact *= p - q
                row[p] = fact * tau ** (p - order)
            return row

        r = 0
        for s in range(n_seg):
            A[r, 6 * s : 6 * s + 6] = basis(0.0, 0)
            b[r] = points[s]
            r += 1
            A[r, 6 * s : 6 * s + 6] = basis(h[s], 0)
            b[r] = points[s + 1]
            r += 1
        for s in range(n_seg - 1):
            for order in (1, 2, 3, 4):
                A[r, 6 * s : 6 * s + 6] = basis(h[s], order)
                A[r, 6 * (s + 1) : 6 * (s + 1) + 6] = -basis(0.0, order)
                r += 1
        for order in (1, 2):
            A[r, 0:6] = basis(0.0, order)
            r += 1
            A[r, 6 * (n_seg - 1) : 6 * n_seg] = basis(h[-1], order)
            r += 1
        assert r == n_unknowns
        coeffs = np.linalg.solve(A, b)
        return coeffs.reshape(n_seg, 6, points.shape[1])

    def _evaluate(self, times, order: int) -> np.ndarray:
        """Derivative `order` at each of `times` (1-D), one row per time.

        The powers of the local times are taken one by one with math.pow:
        numpy's array power differs in the last bit from the scalar
        `tau ** p` for some values, and the exported CSVs hold these samples.
        """
        times = np.asarray(times, dtype=float).reshape(-1)
        out = np.zeros((times.size, self.dim))
        knots = self.knot_times
        if knots.size == 1:
            if order == 0:
                out[:] = self.knot_points[0]
            return out
        seg = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, knots.size - 2)
        tau = np.where(times <= knots[0], 0.0, times - knots[seg])
        tau = np.where(times >= knots[-1], knots[-1] - knots[-2], tau).tolist()
        powers = np.array([[math.pow(x, e) for e in range(6 - order)] for x in tau])
        facts = [math.prod(range(p - order + 1, p + 1)) for p in range(order, 6)]
        terms = (facts * powers.reshape(times.size, -1))[:, :, None] * self._coeffs[seg, order:]
        # The terms of each row added one by one onto zeros, in power order.
        return np.add.accumulate(np.concatenate([out[:, None], terms], axis=1), axis=1)[:, -1]

    def position(self, t: float) -> np.ndarray:
        return self._evaluate(t, 0)[0]

    def velocity(self, t: float) -> np.ndarray:
        return self._evaluate(t, 1)[0]

    def acceleration(self, t: float) -> np.ndarray:
        return self._evaluate(t, 2)[0]

    def sample(self, times) -> np.ndarray:
        """Positions at `times`, one row each, equal to position(t) bit for bit.

        Each position is kept, keyed on the bits of its time, and a time
        sampled before is not evaluated again: on the receding horizon's
        grid most times of one control instant were sampled at an earlier
        one.  A time outside the knot span is keyed as the end of the span
        it lies beyond, whose position it equals bit for bit.
        """
        times = np.asarray(times, dtype=float).reshape(-1)
        span = self.knot_times[[0, -1]]
        keys = np.clip(times, *span).view(np.int64).tolist()
        memo = self._samples
        if len(memo) > _SAMPLE_MEMO:
            memo.clear()
        new = [i for i, key in enumerate(keys) if key not in memo]
        if new:
            memo.update(zip([keys[i] for i in new], self._evaluate(times[new], 0)))
        return np.array([memo[key] for key in keys]).reshape(-1, self.dim)


def support_phases(plan: ContactPlan) -> list[tuple[float, float, list[str]]]:
    """Maximal intervals with a constant set of active contacts.

    Returns (start, end, active ids) triples covering [0, duration]; aerial
    intervals have an empty id list.
    """
    boundaries = {0.0, plan.duration}
    for contact in plan.contacts:
        for start, end in contact.activation_windows:
            boundaries.add(start)
            boundaries.add(end)
    cuts = sorted(b for b in boundaries if 0.0 <= b <= plan.duration)
    phases = []
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        active = [c.contact_id for c in plan.contacts if c.active_at(mid)]
        phases.append((a, b, active))
    return phases


def nominal_com_trajectory(plan: ContactPlan, params: PhysicalParams) -> QuinticSpline:
    """Quintic CoM reference through support centroids lifted by the nominal height.

    One waypoint per grounded phase, at the phase midpoint; aerial phases
    contribute no waypoint and the spline flies through them smoothly.
    """
    knot_times = []
    knot_points = []
    lift = np.array([0.0, 0.0, params.com_height_nominal])
    for start, end, active in support_phases(plan):
        if not active:
            continue
        centroid = np.mean([plan.contact(cid).nominal_position for cid in active], axis=0)
        knot_times.append(0.5 * (start + end))
        knot_points.append(centroid + lift)
    if not knot_times:
        raise ValueError("plan has no grounded phase; cannot build a CoM reference")
    return QuinticSpline(knot_times, np.array(knot_points))
