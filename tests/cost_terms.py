"""The four cost terms of the horizon problem, one knot or corner at a time.

build_nlp assembles their sum over the horizon as one quadratic form; these
scalar definitions are the reference it is checked against.
"""

import numpy as np

from centroidal_mpc.model import CentroidalState, _as_vector
from centroidal_mpc.transcription import _as_diag3


def force_regularization_cost(corner_forces, weight) -> float:
    """Weighted squared deviation of each corner force from the corner average."""
    forces = np.asarray(corner_forces, dtype=float).reshape(-1, 3)
    lam = _as_diag3(weight, "weight")
    deviation = forces.mean(axis=0) - forces
    return float(0.5 * np.sum(deviation * deviation * lam))


def force_rate_cost(force_k, force_next, period: float, weight) -> float:
    """Forward-difference force-rate penalty over one sampling period."""
    if not period > 0.0:
        raise ValueError(f"period must be positive, got {period}")
    lam = _as_diag3(weight, "weight")
    rate = (_as_vector(force_next, 3, "force_next") - _as_vector(force_k, 3, "force_k")) / period
    return float(0.5 * np.sum(rate * rate * lam))


def centroidal_tracking_cost(
    state: CentroidalState, nominal_ang_momentum, nominal_com, ang_weight, com_weight
) -> float:
    """Tracking error of angular momentum and CoM position against the references."""
    lam_h = _as_diag3(ang_weight, "ang_weight")
    lam_c = _as_diag3(com_weight, "com_weight")
    e_h = _as_vector(nominal_ang_momentum, 3, "nominal_ang_momentum") - state.h_ang
    e_c = _as_vector(nominal_com, 3, "nominal_com") - state.p_com
    return float(0.5 * np.sum(e_h * e_h * lam_h) + 0.5 * np.sum(e_c * e_c * lam_c))


def contact_regularization_cost(position, nominal, weight) -> float:
    """Weighted squared distance of a contact location from its nominal spot."""
    lam = _as_diag3(weight, "weight")
    e = _as_vector(nominal, 3, "nominal") - _as_vector(position, 3, "position")
    return float(0.5 * np.sum(e * e * lam))


def horizon_cost(layout, x, weights, nominal_com_samples, nominal_contacts, period) -> float:
    """The four terms summed over the horizon of decision vector x.

    Every state knot tracks its CoM sample and a zero angular momentum and
    keeps each contact near its nominal spot; every step regularizes each
    contact's corner forces; every pair of consecutive steps penalizes each
    corner force's rate.  Contact velocities carry no cost.
    """
    com, momentum, contacts = layout.state_arrays(x)
    # each contact's corner forces, (N, n_v_i, 3), its corners numbered in order
    forces = np.split(x[layout.forces], np.cumsum(layout.corner_counts)[:-1], axis=1)
    total = 0.0
    for k in range(layout.n_knots + 1):
        state = CentroidalState(com[k], momentum[k, 0:3], momentum[k, 3:6])
        total += centroidal_tracking_cost(
            state, np.zeros(3), nominal_com_samples[k], weights.ang_momentum, weights.com_tracking
        )
        for i in range(layout.n_contacts):
            total += contact_regularization_cost(
                contacts[k, i], nominal_contacts[i], weights.contact_reg
            )
    for f in forces:
        for k in range(layout.n_knots):
            total += force_regularization_cost(f[k], weights.force_reg)
            if k + 1 < layout.n_knots:
                for j in range(f.shape[1]):
                    total += force_rate_cost(f[k, j], f[k + 1, j], period, weights.force_rate)
    return total
