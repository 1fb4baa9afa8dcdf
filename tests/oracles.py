"""Independent reference implementations used to pin test values.

Everything here is written with plain loops and textbook formulas and
shares no code with the package under test beyond its exception types.
The particle filters in the package weight paths of the Euler chain

    x_{j+1} = x_j + f(x_j) dt + L dbeta_j,    dbeta_j ~ N(0, Q dt),

so for linear drifts an ordinary Kalman filter over the fine steps gives
the exact distribution the particle approximation converges to, with no
discretization gap to account for.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special
from scipy.special import gammaln

from sdepf.exceptions import SingularMatrixError


@dataclass
class ChainKalmanResult:
    """Exact filter for a linear Euler chain with scalar measurements.

    Attributes:
        means: posterior means at measurement times, (K, n).
        covs: posterior covariances, (K, n, n).
        pred_means: predicted measurement means H m^-, (K,).
        pred_vars: innovation variances H P^- H' + R, (K,).
        log_ml_increments: per-measurement log marginal likelihood, (K,).
        log_ml: total log marginal likelihood.
    """

    means: np.ndarray
    covs: np.ndarray
    pred_means: np.ndarray
    pred_vars: np.ndarray
    log_ml_increments: np.ndarray
    log_ml: float


def chain_kalman_filter(a_mat, l_mat, q_mat, h_vec, r_var, m0, p0,
                        times, ys, t0=0.0, n_steps=10):
    """Kalman filter for the Euler chain of dx = A x dt + L dbeta.

    Args:
        a_mat: drift matrix A, (n, n).
        l_mat: dispersion L, (n, s).
        q_mat: diffusion Q, (s, s).
        h_vec: measurement weight vector, (n,) (scalar measurements).
        r_var: measurement noise variance.
        m0, p0: initial Gaussian law.
        times: measurement times, strictly increasing.
        ys: scalar measurements.
        t0: time of the initial law.
        n_steps: Euler steps per measurement interval (must match the
            filter under test for exact agreement).

    Returns:
        ChainKalmanResult.
    """
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    l_mat = np.asarray(l_mat, dtype=float)
    if l_mat.ndim < 2:
        l_mat = np.atleast_2d(l_mat).T if l_mat.ndim == 1 else l_mat.reshape(1, 1)
    q_mat = np.atleast_2d(np.asarray(q_mat, dtype=float))
    n = a_mat.shape[0]
    h = np.asarray(h_vec, dtype=float).reshape(1, n)
    m = np.asarray(m0, dtype=float).reshape(n).copy()
    p = np.atleast_2d(np.asarray(p0, dtype=float)).copy()
    lql = l_mat @ q_mat @ l_mat.T

    means, covs, preds, pvars, increments = [], [], [], [], []
    t_prev = t0
    for t_k, y_k in zip(times, ys):
        dt = (t_k - t_prev) / n_steps
        f_step = np.eye(n) + a_mat * dt
        w_step = lql * dt
        for _ in range(n_steps):
            m = f_step @ m
            p = f_step @ p @ f_step.T + w_step
        pred = (h @ m).item()
        s_var = (h @ p @ h.T).item() + r_var
        gain = (p @ h.T / s_var).reshape(n)
        resid = float(y_k) - pred
        m = m + gain * resid
        p = p - np.outer(gain, gain) * s_var
        p = 0.5 * (p + p.T)
        means.append(m.copy())
        covs.append(p.copy())
        preds.append(pred)
        pvars.append(s_var)
        increments.append(-0.5 * (np.log(2.0 * np.pi * s_var)
                                  + resid * resid / s_var))
        t_prev = t_k
    increments = np.array(increments)
    return ChainKalmanResult(np.array(means), np.array(covs),
                             np.array(preds), np.array(pvars),
                             increments, float(np.sum(increments)))


def pendulum_ekf(a, q, obs_var, m0, p0, times, ys, t0=0.0, n_steps=10):
    """Continuous-discrete extended Kalman filter for the noisy pendulum.

    Dynamics dx1 = x2 dt, dx2 = -a sin(x1) dt + dbeta with diffusion q,
    measurements y = x1 + N(0, obs_var).  Moment equations are stepped
    with forward Euler on the same sub-grid as the particle filters.

    Returns:
        (means, covs) at the measurement times, shapes (K, 2), (K, 2, 2).
    """
    m = np.asarray(m0, dtype=float).reshape(2).copy()
    p = np.atleast_2d(np.asarray(p0, dtype=float)).copy()
    lql = np.array([[0.0, 0.0], [0.0, q]])
    h = np.array([[1.0, 0.0]])
    means, covs = [], []
    t_prev = t0
    for t_k, y_k in zip(times, ys):
        dt = (t_k - t_prev) / n_steps
        for _ in range(n_steps):
            jac = np.array([[0.0, 1.0], [-a * np.cos(m[0]), 0.0]])
            m = m + np.array([m[1], -a * np.sin(m[0])]) * dt
            p = p + (jac @ p + p @ jac.T + lql) * dt
        s_var = (h @ p @ h.T).item() + obs_var
        gain = (p @ h.T / s_var).reshape(2)
        m = m + gain * (float(y_k) - m[0])
        p = p - np.outer(gain, gain) * s_var
        p = 0.5 * (p + p.T)
        means.append(m.copy())
        covs.append(p.copy())
        t_prev = t_k
    return np.array(means), np.array(covs)


def invchi2_logpdf(v, nu, s2):
    """Log density of the scaled inverse chi-squared law at variance v."""
    half = 0.5 * nu
    return (half * (np.log(nu) + np.log(s2) - np.log(2.0)) - gammaln(half)
            - (1.0 + half) * np.log(v) - 0.5 * nu * s2 / v)


def invchi2_marginal_quad(r, nu, s2):
    """Log of int N(r; 0, v) InvChi2(v; nu, s2) dv by adaptive quadrature.

    Integrates over w = log v to keep the integrand well scaled.
    """
    def integrand(w):
        v = np.exp(w)
        log_norm = -0.5 * (np.log(2.0 * np.pi * v) + r * r / v)
        return np.exp(log_norm + invchi2_logpdf(v, nu, s2) + w)

    center = np.log(s2)
    val, _ = integrate.quad(integrand, center - 40.0, center + 40.0,
                            limit=400, epsabs=1e-14, epsrel=1e-12)
    return np.log(val)


def gamma_poisson_marginal_quad(d, theta, alpha, beta):
    """Log of int Poisson(d; theta N) Gamma(N; alpha, beta) dN by quadrature."""
    def integrand(n_val):
        log_pois = (d * np.log(theta * n_val) - theta * n_val
                    - gammaln(d + 1.0)) if d > 0 else -theta * n_val
        log_gamma = (alpha * np.log(beta) + (alpha - 1.0) * np.log(n_val)
                     - beta * n_val - gammaln(alpha))
        return np.exp(log_pois + log_gamma)

    mode = max((alpha + d) / (beta + theta), 1e-6)
    val, _ = integrate.quad(integrand, 0.0, mode * 60.0, limit=400,
                            epsabs=1e-300, epsrel=1e-12)
    return np.log(val)


def mixture_cdf(kind, stats, weights, t):
    """CDF at t of the weighted mixture of per-particle posteriors.

    Args:
        kind: "invchi2" (rows (nu, s2), theta = nu s2 / chi2_nu) or
            "gamma" (rows (alpha, beta), theta ~ Gamma(alpha, rate beta)).
        stats: (N, 2) posterior statistics.
        weights: (N,) mixture weights summing to one.
        t: point, > 0.

    Returns:
        sum_i w_i P(theta_i <= t), from the regularized incomplete gamma
        function: P(nu s2 / X <= t) = Q(nu / 2, nu s2 / (2 t)) for
        X ~ chi2_nu, and P(G / beta <= t) = P(alpha, beta t).
    """
    a, b = stats[:, 0], stats[:, 1]
    if kind == "invchi2":
        comp = special.gammaincc(0.5 * a, 0.5 * a * b / t)
    elif kind == "gamma":
        comp = special.gammainc(a, b * t)
    else:
        raise ValueError(kind)
    return float(np.dot(weights, comp))


def mixture_quantiles(kind, stats, weights, qs):
    """Exact quantiles of the mixture in mixture_cdf.

    Brackets each quantile by doubling and halving from 1, then solves
    mixture_cdf = q with brentq to a relative tolerance of 1e-13.
    """
    out = []
    for q in qs:
        f = lambda t: mixture_cdf(kind, stats, weights, t) - q
        lo = hi = 1.0
        while f(hi) < 0:
            hi *= 2.0
        while f(lo) > 0:
            lo *= 0.5
        out.append(optimize.brentq(f, lo, hi, xtol=1e-300, rtol=1e-13))
    return np.array(out)


def _gauss_legendre(a, b, n_nodes, n_panels):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return ((half[:, None] * x + mid[:, None]).ravel(),
            (half[:, None] * w).ravel())


def epidemic_week1_posterior(d, g, alpha0, beta0, beta_a, beta_b, lam_mean,
                             lam_var, t1=1.0, n_steps=10, n_y=100, n_lam=200,
                             n_panels=4, lam_max=20.0):
    """Posterior moments after the first weekly death count, by quadrature.

    Model: y0 ~ Beta(beta_a, beta_b), x0 = 1 - y0, lam ~ N(lam_mean,
    lam_var); (x, y) follow n_steps forward Euler steps of

        dx/dt = -g e^lam y x,   dy/dt = g e^lam y x - g y

    over [0, t1], clipped to [0, 1] after each step, with lam clipped to
    [-lam_max, lam_max]; theta = (x0 + y0) - (x1 + y1), floored at 1e-12;
    d ~ Poisson(N theta) with N ~ Gamma(alpha0, beta0) integrated out,
    which gives the negative binomial likelihood

        p(d | theta) ∝ (beta0 / (beta0 + theta))^alpha0
                       * (theta / (beta0 + theta))^d.

    The log rate is held at lam over the week.  In the filter it also
    diffuses, with variance q t1 by t1; for q = 0.001 that moves E[e^lam]
    by a factor near exp(q t1 / 2) = 1.0005, far below Monte Carlo error
    at any particle count a test can afford.

    The 2-d integral runs over u = Beta cdf(y0) in (0, 1) and lam itself
    (the e^lam moment weights the prior's upper tail, which a cdf
    transform would squeeze against u = 1), each with composite
    Gauss-Legendre rules.

    Returns:
        dict with "indicator" = E[e^lam x1 | d] and "rate" = E[e^lam | d].
    """
    u, w_u = _gauss_legendre(0.0, 1.0, n_y, n_panels)
    sd = np.sqrt(lam_var)
    lam, w_lam = _gauss_legendre(lam_mean - 10.0 * sd,
                                 min(lam_mean + 10.0 * sd, lam_max),
                                 n_lam, n_panels)
    w_lam = w_lam * np.exp(-0.5 * ((lam - lam_mean) / sd) ** 2)
    y0 = special.betaincinv(beta_a, beta_b, u)[:, None]
    rate = np.exp(np.clip(lam, -lam_max, lam_max))[None, :]
    x, y = 1.0 - y0, y0
    dt = t1 / n_steps
    for _ in range(n_steps):
        flow = g * rate * y * x
        x, y = x - flow * dt, y + (flow - g * y) * dt
        x, y = np.clip(x, 0.0, 1.0), np.clip(y, 0.0, 1.0)
    theta = np.maximum(1.0 - (x + y), 1e-12)
    loglik = (alpha0 * (np.log(beta0) - np.log(beta0 + theta))
              + d * (np.log(theta) - np.log(beta0 + theta)))
    post = np.outer(w_u, w_lam) * np.exp(loglik - loglik.max())
    z = post.sum()
    return {"indicator": float(np.sum(post * rate * x) / z),
            "rate": float(np.sum(post * rate) / z)}


def weighted_rmse(estimates, truths):
    """Root mean squared error between two aligned sequences."""
    e = np.asarray(estimates, dtype=float) - np.asarray(truths, dtype=float)
    return float(np.sqrt(np.mean(e * e)))


def svd_guarded_inv(mat):
    """The SVD-based matrix guard, kept as the reference for guarded_inv.

    Every batch once went through this check: a full SVD condition
    number, limited to 1e12, then LAPACK's inverse.  The package now
    inverts 1x1 batches in closed form; this version pins which inputs
    must raise.

    Raises:
        SingularMatrixError: where the package's guard must raise.
    """
    try:
        with np.errstate(all="ignore"):
            cond = np.linalg.cond(mat)
            inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular")
    if not np.all(np.isfinite(inv)) or np.any(~np.isfinite(cond)) \
            or np.any(cond > 1e12):
        raise SingularMatrixError("singular or badly conditioned")
    return inv
