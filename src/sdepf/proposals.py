"""Data-driven proposal construction from approximate Gaussian filtering.

The recipe per particle and measurement interval: start an extended
Kalman prediction from the particle's current state (a Dirac, so the
initial covariance is zero), carry the covariance of the linearized
Euler chain as a square-root factor so that it stays positive
semidefinite, condition the predicted Gaussian on the upcoming
measurement, and turn the resulting endpoint marginal of the
noise-driven component into a constant-coefficient bridge proposal

    g = (m_k - x_prev) / dt,        B = sqrt(P_k / (q dt)),

whose Euler endpoint has exactly mean m_k and variance P_k.  The
Girsanov weights are exact for any such proposal, so the EKF only has
to be good and cheap: from a Dirac start it runs no eigendecomposition.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import symmetrize
from .exceptions import IntegrationError
from .girsanov import ImportanceSpec
from .raoblackwell import _gaussian_condition

__all__ = ["EkfMoments", "ekf_predict", "ekf_condition", "build_bridge"]


@dataclass
class EkfMoments:
    """Mean and covariance of an extended Kalman prediction.

    Attributes:
        mean: (..., n).
        cov: (..., n, n); starts at zero when predicting from a particle.
    """

    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def from_states(cls, states):
        """Dirac moments at the given states (zero covariance)."""
        states = np.asarray(states, dtype=float)
        n = states.shape[-1]
        return cls(states.copy(), np.zeros(states.shape[:-1] + (n, n)))


def ekf_predict(moments, drift, jacobian, q_mat, grid):
    """Extended Kalman prediction along the linearized Euler chain.

    Each Euler step x <- x + f(x, t) dt + L dbeta, linearized at the
    running mean, moves the moments by

        m <- m + f(m, t) dt
        P <- A P A^T + Q dt,     A = I + F(m, t) dt,

    which is the chain the bridge proposals and every kernel simulate.
    P is carried as a factor G with P = G G^T: each step multiplies G by
    A and appends the columns sqrt(dt) L_Q, where Q = L_Q L_Q^T keeps
    the positive eigenvalues of Q.  So the prediction is positive
    semidefinite by construction and needs no repair.  The factor's
    width, n columns for the initial covariance plus rank(Q) per step,
    depends on shapes only, so each particle's arithmetic is the same
    however the particles are batched.

    Args:
        moments: EkfMoments at grid.t0.  A nonzero initial covariance is
            factored by an eigendecomposition whose negative eigenvalues
            count as zero.
        drift: callable (x, t) -> (..., n), the full-state drift.
        jacobian: callable (x, t) -> (..., n, n), its state Jacobian.
        q_mat: process noise covariance injected per unit time, (n, n)
            (zeros on noise-free components); its negative eigenvalues
            count as zero.
        grid: TimeGrid.

    Returns:
        EkfMoments at grid.t1 with symmetrized covariance.

    Raises:
        IntegrationError: if q_mat, the drift or the moments are not
            finite.
    """
    mean = np.asarray(moments.mean, dtype=float).copy()
    cov = np.asarray(moments.cov, dtype=float)
    n = mean.shape[-1]
    dt = grid.dt
    q_mat = np.asarray(q_mat, dtype=float)
    if not np.all(np.isfinite(q_mat)):
        raise IntegrationError("EKF process noise non-finite")
    w, v = np.linalg.eigh(q_mat)
    keep = w > 0.0
    step_cols = np.sqrt(dt) * (v[:, keep] * np.sqrt(w[keep]))
    r = step_cols.shape[-1]
    batch = np.broadcast_shapes(mean.shape[:-1], cov.shape[:-2])
    # Two factor buffers written in turn.  Both hold step_cols in every
    # step's columns up front: step j writes only the n + j r columns
    # before its own into the other buffer, so those stay valid there.
    fac = np.empty(batch + (n, n + grid.n_steps * r))
    fac[..., n:] = np.tile(step_cols, grid.n_steps)
    spare = fac.copy()
    fac[..., :n] = _psd_factor(cov)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(grid.n_steps):
            t = grid.t0 + j * dt
            f_val = np.asarray(drift(mean, t), dtype=float)
            f_jac = np.asarray(jacobian(mean, t), dtype=float)
            if not (np.all(np.isfinite(f_val)) and np.all(np.isfinite(f_jac))):
                raise IntegrationError("EKF drift non-finite at t=%g" % t)
            a_mat = np.multiply(f_jac, dt, order="C")
            a_mat.reshape(-1, n * n)[:, ::n + 1] += 1.0
            used = n + j * r
            np.matmul(a_mat, fac[..., :used], out=spare[..., :used])
            fac, spare = spare, fac
            mean = mean + f_val * dt
        cov = symmetrize(np.matmul(fac, np.swapaxes(fac, -1, -2)))
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise IntegrationError("EKF moments non-finite at t=%g" % grid.t1)
    return EkfMoments(mean, cov)


def _psd_factor(cov):
    """Square factors G with G G^T = cov, negative eigenvalues counted as
    zero; all-zero covariances (Dirac moments) skip the eigh."""
    fac = np.zeros(cov.shape)
    nonzero = np.any(cov != 0.0, axis=(-2, -1))
    if np.any(nonzero):
        w, v = np.linalg.eigh(cov[nonzero])
        fac[nonzero] = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    return fac


def ekf_condition(moments, h_mat, r_mat, y):
    """Condition predicted moments on a measurement y = H x + N(0, R).

    Runs the same arithmetic as the Kalman measurement update (shared
    implementation) and returns its symmetrized covariance.  Unlike
    kalman_update it skips repair_cov: ekf_predict's covariance is
    positive semidefinite by construction, the Kalman update keeps it
    so up to rounding, and build_bridge floors the one variance the
    proposal reads (VAR_FLOOR).

    Args:
        moments: EkfMoments before the update.
        h_mat: (..., m, n) measurement matrix (1-d input treated as one row).
        r_mat: (..., m, m) noise covariance; scalars promoted.
        y: measurement value(s).

    Returns:
        EkfMoments after the update.
    """
    mean, cov, _, _, _ = _gaussian_condition(moments.mean, moments.cov,
                                             h_mat, r_mat, y)
    return EkfMoments(mean, cov)


# Relative floor on the target variance, in units of the prior endpoint
# variance q * dt; keeps B away from zero when the EKF collapses.
VAR_FLOOR = 1e-8


def build_bridge(x_prev, posterior, dt, q, index):
    """Importance spec driving one component toward a Gaussian endpoint.

    Args:
        x_prev: particle states at the interval start, (..., n).
        posterior: EkfMoments conditioned on the upcoming measurement.
        dt: interval length.
        q: diffusion coefficient of the bridged component.
        index: which state component the Brownian noise drives.

    Returns:
        ImportanceSpec whose drift is the constant (m_k - x_prev) / dt per
        particle and whose dispersion is sqrt(P_k / (q dt)); simulating it
        with Euler steps reproduces mean m_k and variance P_k at the
        interval end exactly.  P_k is floored at VAR_FLOOR * q * dt.

    Raises:
        ValueError: unless dt > 0 and q > 0.
    """
    if dt <= 0 or q <= 0:
        raise ValueError("bridge needs dt > 0 and q > 0")
    dt, q = float(dt), float(q)
    x_prev = np.asarray(x_prev, dtype=float)
    m_k = np.asarray(posterior.mean, dtype=float)[..., index]
    p_k = np.asarray(posterior.cov, dtype=float)[..., index, index]
    p_k = np.maximum(p_k, VAR_FLOOR * q * dt)

    g_const = (m_k - x_prev[..., index]) / dt
    b_mat = np.sqrt(p_k / (q * dt))[..., None, None]

    def drift(*args):
        # Last positional is t, second to last the stochastic block state.
        block = args[-2]
        return np.broadcast_to(g_const[..., None], np.shape(block))

    return ImportanceSpec(drift=drift, dispersion=b_mat)
