"""Data-driven proposal construction from approximate Gaussian filtering.

One recipe builds every bridge, per particle and measurement interval:
start an extended Kalman prediction from the particle's current state (a
Dirac, so the initial covariance is zero), carry the covariance of the
linearized Euler chain as a square-root factor so that it stays positive
semidefinite, condition the predicted Gaussian on the upcoming (pseudo)
measurement, and steer the noise-driven component toward the conditioned
mean m_k with the constant drift

    g = (m_k - x_prev) / dt

and the model's own dispersion L, as every proposal keeps.  A model
declares only its linearization, process noise, steered component and
measurement (ekf_bridge_builder).  The endpoint of the steered component
is m_k plus the model noise, N(m_k, q dt) per particle, so the EKF
supplies only the target mean.  The Girsanov weights are exact for any
such proposal, so the EKF only has to be good and cheap: it linearizes
once per Euler step and runs no eigendecomposition of a covariance.
"""

import numpy as np

from ._linalg import symmetrize
from .exceptions import IntegrationError
from .girsanov import ImportanceSpec
from .raoblackwell import GaussianBlock, _gaussian_condition

__all__ = ["ekf_predict", "ekf_condition", "build_bridge",
           "ekf_bridge_builder"]


def ekf_predict(x0, linearize, q_mat, grid):
    """Extended Kalman prediction from a Dirac start along the linearized
    Euler chain.

    Each Euler step x <- x + f(x, t) dt + L dbeta, linearized at the
    running mean, moves the moments by

        m <- m + f(m, t) dt
        P <- A P A^T + Q dt,     A = I + F(m, t) dt,

    which is the chain the bridge proposals and every kernel simulate.
    P is carried as a factor G with P = G G^T: each step multiplies G by
    A and appends the columns sqrt(dt) L_Q, where Q = L_Q L_Q^T keeps
    the positive eigenvalues of Q.  So the prediction is positive
    semidefinite by construction and needs no repair.  The Dirac start
    contributes no column, so the factor's width is rank(Q) per step;
    it depends on shapes only, so each particle's arithmetic is the
    same however the particles are batched.

    Args:
        x0: states at grid.t0, (..., n); the prediction starts from a
            Dirac at each.
        linearize: callable (x, t) -> (f, F), the full-state drift
            (..., n) and its state Jacobian (..., n, n) at the same
            point; called once per step at the running mean.
        q_mat: process noise covariance injected per unit time, (n, n)
            (zeros on noise-free components); its negative eigenvalues
            count as zero.
        grid: TimeGrid.

    Returns:
        GaussianBlock at grid.t1 with symmetrized covariance.

    Raises:
        IntegrationError: if q_mat, the drift or the moments are not
            finite.
    """
    mean = np.asarray(x0, dtype=float)
    n = mean.shape[-1]
    dt = grid.dt
    q_mat = np.asarray(q_mat, dtype=float)
    if not np.all(np.isfinite(q_mat)):
        raise IntegrationError("EKF process noise non-finite")
    w, v = np.linalg.eigh(q_mat)
    keep = w > 0.0
    step_cols = np.sqrt(dt) * (v[:, keep] * np.sqrt(w[keep]))
    r = step_cols.shape[-1]
    # Two factor buffers written in turn.  Both hold step_cols in every
    # step's columns up front: step j writes only the j r columns before
    # its own into the other buffer, so those stay valid there.
    fac = np.tile(step_cols, mean.shape[:-1] + (1, grid.n_steps))
    spare = fac.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(grid.n_steps):
            t = grid.t0 + j * dt
            f_val, f_jac = linearize(mean, t)
            f_val = np.asarray(f_val, dtype=float)
            f_jac = np.asarray(f_jac, dtype=float)
            if not (np.all(np.isfinite(f_val)) and np.all(np.isfinite(f_jac))):
                raise IntegrationError("EKF drift non-finite at t=%g" % t)
            a_mat = np.multiply(f_jac, dt, order="C")
            a_mat.reshape(-1, n * n)[:, ::n + 1] += 1.0
            used = j * r
            np.matmul(a_mat, fac[..., :used], out=spare[..., :used])
            fac, spare = spare, fac
            mean = mean + f_val * dt
        cov = symmetrize(np.matmul(fac, np.swapaxes(fac, -1, -2)))
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise IntegrationError("EKF moments non-finite at t=%g" % grid.t1)
    return GaussianBlock(mean, cov)


def ekf_condition(moments, h_mat, r_mat, y):
    """Condition predicted moments on a measurement y = H x + N(0, R).

    Runs the same arithmetic as the Kalman measurement update (shared
    implementation) and returns its symmetrized covariance.  Unlike
    rb_gauss_step's update it skips repair_cov: ekf_predict's covariance is
    positive semidefinite by construction, the Kalman update keeps it
    so up to rounding, and build_bridge reads only the mean.

    Args:
        moments: GaussianBlock before the update.
        h_mat: (..., m, n) measurement matrix (1-d input treated as one row).
        r_mat: (..., m, m) noise covariance; a scalar is 1x1 and a 1-d
            array one variance per particle (m = 1).
        y: measurement value(s).

    Returns:
        GaussianBlock after the update; its mean is the bridge target.
    """
    mean, cov, _, _, _ = _gaussian_condition(moments.mean, moments.cov,
                                             h_mat, r_mat, y)
    return GaussianBlock(mean, cov)


def build_bridge(x_prev, posterior, dt, index):
    """Importance spec driving one component toward a Gaussian mean.

    Args:
        x_prev: particle states at the interval start, (..., n).
        posterior: GaussianBlock conditioned on the upcoming measurement;
            only its mean is read.
        dt: interval length.
        index: which state component the Brownian noise drives.

    Returns:
        ImportanceSpec whose drift is the constant (m_k - x_prev) / dt per
        particle.  With the model's own dispersion the Euler endpoint of
        the bridged component is m_k plus the summed model noise, so
        N(m_k, q dt) with q the component's diffusion.

    Raises:
        ValueError: unless dt > 0.
    """
    if not dt > 0:
        raise ValueError("bridge needs dt > 0")
    x_prev = np.asarray(x_prev, dtype=float)
    m_k = np.asarray(posterior.mean, dtype=float)[..., index]
    g_const = (m_k - x_prev[..., index]) / float(dt)

    def drift(*args):
        # Last positional is t, second to last the stochastic block state.
        block = args[-2]
        return np.broadcast_to(g_const[..., None], np.shape(block))

    return ImportanceSpec(drift=drift)


def ekf_bridge_builder(linearize, q_mat, index, measure):
    """Bridge proposal builder from a model's declared linearization.

    Per interval: ekf_predict from the particles' states, ekf_condition
    on the (pseudo) reading that measure gives, and build_bridge toward
    the conditioned mean.

    Args:
        linearize: callable (x, t) -> (f, F), as ekf_predict takes it.
        q_mat: process noise covariance per unit time, (n, n).
        index: the state component the Brownian noise drives.
        measure: callable (pset, y) -> (H, R, y'): the reading
            y' = H x + N(0, R) the prediction is conditioned on, in the
            forms ekf_condition takes.

    Returns:
        Builder callable (pset, grid, y) -> ImportanceSpec.
    """
    # The three steps are looked up as module globals on every call, so
    # a wrapper set on this module's binding sees every builder's calls.
    def builder(pset, grid, y):
        mom = ekf_predict(pset.states, linearize, q_mat, grid)
        mom = ekf_condition(mom, *measure(pset, y))
        return build_bridge(pset.states, mom, grid.span, index)

    return builder
