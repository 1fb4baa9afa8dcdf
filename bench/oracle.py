"""Exact Kalman filter over the Euler chain the particle filters weight.

For a linear drift dx = A x dt + L dbeta the filters propagate particles
along x_{j+1} = (I + A dt) x_j + L dbeta_j with dbeta_j ~ N(0, Q dt), so
a Kalman filter stepped on the same sub-grid gives the exact filtering
law they converge to, whatever random numbers they draw.  Written with
plain loops; it shares no code with the package under test.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class ChainKalman:
    """Posterior moments at the measurement times and the log marginal.

    Attributes:
        means: (K, n) filtered means.
        variances: (K, n) filtered marginal variances.
        log_ml: total log marginal likelihood of the measurements.
    """

    means: np.ndarray
    variances: np.ndarray
    log_ml: float


def chain_kalman(a_mat, l_mat, q_mat, h_vec, r_var, m0, p0, times, ys,
                 n_steps, t0=0.0):
    """Kalman filter for the Euler chain of dx = A x dt + L dbeta.

    Args:
        a_mat: (n, n) drift matrix.
        l_mat: (n, s) dispersion.
        q_mat: (s, s) diffusion of beta.
        h_vec: (n,) weights of the scalar measurement y = h . x + N(0, r).
        r_var: measurement noise variance.
        m0, p0: initial mean (n,) and covariance (n, n).
        times, ys: measurement times and values.
        n_steps: Euler steps per measurement interval.
        t0: time of the initial law.

    Returns:
        ChainKalman.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    l_mat = np.asarray(l_mat, dtype=float)
    lql = l_mat @ np.asarray(q_mat, dtype=float) @ l_mat.T
    n = a_mat.shape[0]
    h = np.asarray(h_vec, dtype=float)
    m = np.asarray(m0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    means, variances, log_ml = [], [], 0.0
    t_prev = t0
    for t_k, y_k in zip(times, ys):
        dt = (t_k - t_prev) / n_steps
        step = np.eye(n) + a_mat * dt
        for _ in range(n_steps):
            m = step @ m
            p = step @ p @ step.T + lql * dt
        s_var = h @ p @ h + r_var
        gain = p @ h / s_var
        resid = float(y_k) - h @ m
        m = m + gain * resid
        p = p - np.outer(gain, gain) * s_var
        p = 0.5 * (p + p.T)
        log_ml += -0.5 * (np.log(2.0 * np.pi * s_var) + resid * resid / s_var)
        means.append(m.copy())
        variances.append(np.diag(p).copy())
        t_prev = t_k
    return ChainKalman(np.array(means), np.array(variances), float(log_ml))
