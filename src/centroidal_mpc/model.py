"""Contact-gated centroidal dynamics and explicit Euler integration.

The state is the CoM position plus the aggregate linear/angular momentum taken
about the CoM in an inertially-oriented frame.  Contact wrenches are
represented by pure forces at the corners of each contact surface; a binary
gate per contact switches its forces in and out of the dynamics and freezes
the contact location while the contact bears load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_GRAVITY = (0.0, 0.0, -9.81)

_ORTHONORMAL_TOL = 1e-9

# Component c of a cross product pairs components c+1 and c+2 (mod 3).
_NEXT = np.array([1, 2, 0])
_AFTER_NEXT = np.array([2, 0, 1])


def _as_vector(value, size: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have {size} components, got shape {np.shape(value)}")
    return arr


def _require_finite(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis (length 3), equal to np.cross bit for bit.

    Component c is a[c+1] * b[c+2] - a[c+2] * b[c+1] (indices mod 3), the
    float operations np.cross performs, without its per-call axis handling.
    """
    return a[..., _NEXT] * b[..., _AFTER_NEXT] - a[..., _AFTER_NEXT] * b[..., _NEXT]


@dataclass(frozen=True)
class PhysicalParams:
    """Plant constants: total mass, gravity vector, nominal CoM height."""

    mass: float
    gravity: np.ndarray = field(default=DEFAULT_GRAVITY)
    com_height_nominal: float = 0.6

    def __post_init__(self):
        object.__setattr__(self, "gravity", _as_vector(self.gravity, 3, "gravity"))
        if not (self.mass > 0.0):
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not np.linalg.norm(self.gravity) > 0.0:
            raise ValueError("gravity must be non-zero")
        _require_finite(self.gravity, "gravity")


@dataclass(frozen=True)
class CentroidalState:
    """CoM position, linear momentum and angular momentum about the CoM."""

    p_com: np.ndarray
    h_lin: np.ndarray
    h_ang: np.ndarray

    def __post_init__(self):
        for name in ("p_com", "h_lin", "h_ang"):
            vec = _as_vector(getattr(self, name), 3, name)
            _require_finite(vec, name)
            object.__setattr__(self, name, vec)

    @property
    def momentum(self) -> np.ndarray:
        """Stacked 6-vector (h_lin, h_ang)."""
        return np.concatenate([self.h_lin, self.h_ang])

    @staticmethod
    def zero(p_com=(0.0, 0.0, 0.0)) -> "CentroidalState":
        return CentroidalState(np.asarray(p_com, dtype=float), np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class ContactGeometry:
    """Corner offsets of one contact surface, expressed in the contact frame."""

    corner_offsets: tuple

    def __post_init__(self):
        offsets = tuple(_as_vector(c, 3, "corner offset") for c in self.corner_offsets)
        if len(offsets) < 1:
            raise ValueError("a contact needs at least one corner")
        object.__setattr__(self, "corner_offsets", offsets)

    @property
    def n_corners(self) -> int:
        return len(self.corner_offsets)

    def offsets_matrix(self) -> np.ndarray:
        return np.array(self.corner_offsets)

    @staticmethod
    def point() -> "ContactGeometry":
        return ContactGeometry((np.zeros(3),))

    @staticmethod
    def rectangle(length: float, width: float) -> "ContactGeometry":
        hx, hy = 0.5 * length, 0.5 * width
        return ContactGeometry(
            (
                np.array([hx, hy, 0.0]),
                np.array([hx, -hy, 0.0]),
                np.array([-hx, -hy, 0.0]),
                np.array([-hx, hy, 0.0]),
            )
        )


def check_rotation(matrix, name: str = "orientation") -> np.ndarray:
    R = np.asarray(matrix, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got {R.shape}")
    if np.abs(R.T @ R - np.eye(3)).max() > _ORTHONORMAL_TOL:
        raise ValueError(f"{name} is not orthonormal within {_ORTHONORMAL_TOL}")
    if abs(np.linalg.det(R) - 1.0) > _ORTHONORMAL_TOL:
        raise ValueError(f"{name} must have determinant +1")
    return R


def _gated_forces(forces, gamma: np.ndarray, corner_contact: np.ndarray) -> np.ndarray:
    """forces (K, V, 3), each corner's times its contact's gate.

    Raises ValueError unless V is len(corner_contact): one corner force
    would broadcast against four arms in the torques, and four forces
    against one arm.  Every rate and rollout gates its forces here before
    it sums them.
    """
    if np.shape(forces)[1:] != (len(corner_contact), 3):
        raise ValueError(
            f"forces must have shape (K, {len(corner_contact)}, 3), one row per corner, "
            f"got {np.shape(forces)}"
        )
    return gamma[:, corner_contact, None] * forces


def _force_rate(gated, mass: float, gravity: np.ndarray, wrench: np.ndarray) -> np.ndarray:
    """Linear momentum rate (K, 3): weight, disturbance force, gated corner forces."""
    rate = mass * gravity + wrench[:, 0:3]
    for j in range(gated.shape[1]):
        rate += gated[:, j]
    return rate


def _torque_rate(p_com, p_contacts, gated, corner_arms, corner_contact, wrench) -> np.ndarray:
    """Angular momentum rate (K, 3) about the CoM: disturbance torque plus corner torques."""
    rate = wrench[:, 3:6].copy()
    arms = p_contacts[:, corner_contact] + corner_arms - p_com[:, None, :]
    torques = cross_rows(arms, gated)
    for j in range(gated.shape[1]):
        rate += torques[:, j]
    return rate


def momentum_rate_batch(
    p_com: np.ndarray,
    p_contacts: np.ndarray,
    forces: np.ndarray,
    gamma: np.ndarray,
    corner_arms: np.ndarray,
    corner_contact: np.ndarray,
    mass: float,
    gravity: np.ndarray,
    wrench: np.ndarray,
) -> np.ndarray:
    """Gated momentum rate, batched over a leading knot axis.

    p_com (K, 3), p_contacts (K, n_c, 3), forces (K, V, 3) of the V
    corners, gamma (K, n_c), corner_arms (V, 3) of each corner's offset
    from its contact in the world frame, corner_contact (V,) of each
    corner's contact, wrench (K, 6).  Returns (K, 6) stacked (linear,
    angular) rates.  Forces of another corner count than corner_contact
    raise ValueError.

    The gated forces, lever arms and torques of all corners are computed at
    once (torques by `cross_rows`, the float operations of np.cross); each
    corner's force and torque are then added to the rates in an explicit
    loop over the corners, so the summation order is identical for any K.
    This keeps single-step rollouts bit-identical to batched evaluations of
    the same quantities.
    """
    gated = _gated_forces(forces, gamma, corner_contact)
    return np.concatenate(
        [
            _force_rate(gated, mass, gravity, wrench),
            _torque_rate(p_com, p_contacts, gated, corner_arms, corner_contact, wrench),
        ],
        axis=1,
    )


def _chain(start: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """start, start + increments[0], ... as K + 1 rows; np.add.accumulate adds in sequence."""
    return np.add.accumulate(np.concatenate([start[None], increments]), axis=0)


def euler_step_batch(
    p_com: np.ndarray,
    momentum: np.ndarray,
    p_contacts: np.ndarray,
    forces: np.ndarray,
    contact_velocities: np.ndarray,
    gamma: np.ndarray,
    corner_arms: np.ndarray,
    corner_contact: np.ndarray,
    mass: float,
    gravity: np.ndarray,
    wrench: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K explicit Euler steps of the gated dynamics, batched over knots.

    forces (K, V, 3), contact_velocities (K, n_c, 3), gamma (K, n_c) and
    wrench (K, 6) drive the K steps, with the corners' arms and contacts as
    in momentum_rate_batch.  With states per knot, p_com (K, 3),
    momentum (K, 6) and p_contacts (K, n_c, 3), step k starts from row k
    (the steps are independent, as in the transcription's defects).  With one
    start state, p_com (3,), momentum (6,) and p_contacts (n_c, 3), the steps
    are chained into a rollout: step k starts where step k - 1 ended.
    Returns the states after the steps, (p_com (K, 3), momentum (K, 6),
    p_contacts (K, n_c, 3)).  Active contact positions are carried over
    bit-exactly.

    The rollout takes prefix sums in place of K calls.  Linear momentum, CoM
    and contact positions do not depend on the angular momentum, so each is
    one accumulate; one batched rate evaluation at those states gives every
    step's torque, and one more accumulate chains the angular momentum.
    Each row equals K chained single-step calls bit for bit.
    """
    gated = _gated_forces(forces, gamma, corner_contact)
    force_rate = _force_rate(gated, mass, gravity, wrench)
    held = (gamma > 0.5)[..., None]
    slide = dt * ((1.0 - gamma)[..., None] * contact_velocities)
    if p_com.ndim == 1:
        h_lin = _chain(momentum[0:3], dt * force_rate)
        com = _chain(p_com, (dt / mass) * h_lin[:-1])
        # adding -0.0 leaves every float as it is, the sign of a zero too
        contacts = _chain(p_contacts, np.where(held, -0.0, slide))
        torque = _torque_rate(com[:-1], contacts[:-1], gated, corner_arms, corner_contact, wrench)
        h_ang = _chain(momentum[3:6], dt * torque)
        return com[1:], np.concatenate([h_lin[1:], h_ang[1:]], axis=1), contacts[1:]
    torque = _torque_rate(p_com, p_contacts, gated, corner_arms, corner_contact, wrench)
    momentum_next = momentum + dt * np.concatenate([force_rate, torque], axis=1)
    p_com_next = p_com + (dt / mass) * momentum[:, 0:3]
    p_contacts_next = np.where(held, p_contacts, p_contacts + slide)
    return p_com_next, momentum_next, p_contacts_next


def integrate_step(
    state: CentroidalState,
    p_contacts: np.ndarray,
    forces: np.ndarray,
    gamma: np.ndarray,
    corner_arms: np.ndarray,
    corner_contact: np.ndarray,
    params: PhysicalParams,
    wrenches: np.ndarray,
    dt: float,
) -> CentroidalState:
    """S explicit Euler steps of length dt, one per row of `wrenches`.

    p_contacts (n_c, 3), forces (V, 3), gamma (n_c,), corner_arms (V, 3),
    corner_contact (V,) as in momentum_rate_batch, and wrenches (S, 6) of
    stacked (force, torque about the CoM); forces of another corner count
    than corner_contact raise ValueError.  The contacts (positions,
    gates, forces) are held over all steps and do not slide.  The steps are
    one euler_step_batch rollout, so S rows equal S chained one-row calls
    bit for bit.  The CoM moves with the pre-step linear momentum.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    wrenches = np.asarray(wrenches, dtype=float)
    if wrenches.ndim != 2 or wrenches.shape[0] < 1 or wrenches.shape[1] != 6:
        raise ValueError(f"wrenches must have shape (S, 6), got {wrenches.shape}")
    _require_finite(wrenches, "wrenches")
    steps, n_c = wrenches.shape[0], len(gamma)
    p_next, h_next, _ = euler_step_batch(
        state.p_com,
        state.momentum,
        p_contacts,
        np.broadcast_to(forces, (steps,) + np.shape(forces)),
        np.zeros((steps, n_c, 3)),
        np.broadcast_to(gamma, (steps, n_c)),
        corner_arms,
        corner_contact,
        params.mass,
        params.gravity,
        wrenches,
        dt,
    )
    if not (np.all(np.isfinite(p_next)) and np.all(np.isfinite(h_next))):
        raise ValueError("integration produced non-finite state")
    return CentroidalState(p_next[-1], h_next[-1, 0:3], h_next[-1, 3:6])
