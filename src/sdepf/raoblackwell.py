"""Marginalized (Rao-Blackwellized) particle filtering.

Two flavors of analytic sub-structure are supported:

* a conditionally linear-Gaussian state block x1, whose conditional
  moments follow moment ODEs between measurements and a Kalman update at
  measurements, while the remaining states (x2, x3) are sampled;
* static parameters with a conjugate prior, carried per particle as
  sufficient statistics that are updated at measurement times, with the
  predictive (marginal) likelihood supplying the weight factor.

Conditionally linear dynamics, given the sampled states:

    dx1 = (F(x2, x3, t) x1 + f1(x2, x3, t)) dt + V(x2, x3, t) d eta
    dx2/dt = f2(x2, x3, t)
    dx3 = f3(x2, x3, t) dt + L(t) d beta
    y_k = H x1(t_k) + r_k,   r_k ~ N(0, R)
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._linalg import (TimeMatrix, guarded_inv, log_mvn_density, mat_vec,
                      symmetrize)
from .exceptions import IntegrationError
from .filtering import (_chunk_map, _propagate, draw_increments, finish_step,
                        init_particle_set)
from .girsanov import _LlrOps, _llr_kernel, _matrix_at, _matrix_constant
from .sde import DiffusionSpec

__all__ = [
    "GaussianBlock", "CondGaussModel", "ConjugateFamily",
    "propagate_gaussian_block", "kalman_update", "repair_cov",
    "init_rb_gauss_set", "rb_gauss_step", "rb_param_step", "eval_mixture",
    "invchi2_family", "gamma_poisson_family",
]


@dataclass
class GaussianBlock:
    """Conditional Gaussian moments, batched over particles.

    Attributes:
        mean: (..., p).
        cov: (..., p, p).
    """

    mean: np.ndarray
    cov: np.ndarray


@dataclass
class CondGaussModel:
    """Conditionally linear-Gaussian SDE model (see module docstring).

    The callables F, f1 and V take (x2, x3, t) and are batched over
    leading axes.  H and R may be constant arrays or callables of
    (x2, x3).  dim_det may be zero (no x2 block).
    """

    dim_lin: int
    dim_det: int
    dim_stoch: int
    lin_coeff: object
    lin_shift: object
    lin_noise: object
    lin_diffusion: object
    drift_det: object
    drift_stoch: object
    dispersion: object
    diffusion: object
    meas_matrix: object
    meas_cov: object
    initial_sampler: object = None
    init_gauss: object = None

    def __post_init__(self):
        if not isinstance(self.diffusion, DiffusionSpec):
            self.diffusion = DiffusionSpec(self.diffusion)
        if not isinstance(self.lin_diffusion, DiffusionSpec):
            self.lin_diffusion = DiffusionSpec(self.lin_diffusion)
        if not isinstance(self.dispersion, TimeMatrix):
            self.dispersion = TimeMatrix(self.dispersion, "dispersion L")

    def split(self, x):
        return x[..., :self.dim_det], x[..., self.dim_det:]


def repair_cov(cov):
    """Symmetrize a covariance and clamp tiny negative eigenvalues."""
    cov = symmetrize(cov)
    if cov.shape[-1] == 1:
        return np.maximum(cov, 0.0)
    w = np.linalg.eigvalsh(cov)
    if np.min(w) >= 0.0:
        return cov
    w2, v = np.linalg.eigh(cov)
    w2 = np.maximum(w2, 0.0)
    return symmetrize(np.matmul(v * w2[..., None, :], np.swapaxes(v, -1, -2)))


def _block_step(mean, cov, f_mat, shift, v_mat, q_eta, dt):
    mean_new = mean + (mat_vec(f_mat, mean) + shift) * dt
    fp = np.matmul(f_mat, cov)
    vqv = np.matmul(np.matmul(v_mat, q_eta), np.swapaxes(v_mat, -1, -2))
    cov_new = cov + (fp + np.swapaxes(fp, -1, -2) + vqv) * dt
    return mean_new, symmetrize(cov_new)


def propagate_gaussian_block(block, f_mat, shift, v_mat, q_eta, t, dt):
    """One Euler step of the conditional moment ODEs.

    Args:
        block: GaussianBlock at time t.
        f_mat: F evaluated at the sampled states, (..., p, p).
        shift: f1 evaluated likewise, (..., p).
        v_mat: V evaluated likewise, (..., p, r).
        q_eta: diffusion of the block noise, (r, r) array or DiffusionSpec.
        t: current time (diagnostics only).
        dt: step size.

    Returns:
        GaussianBlock at t + dt with symmetrized covariance.
    """
    q = q_eta.at(t) if isinstance(q_eta, DiffusionSpec) else _matrix_at(q_eta, t)
    mean, cov = _block_step(np.asarray(block.mean, dtype=float),
                            np.asarray(block.cov, dtype=float),
                            np.asarray(f_mat, dtype=float),
                            np.asarray(shift, dtype=float),
                            np.asarray(v_mat, dtype=float), q, dt)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise IntegrationError("Gaussian block moments non-finite at t=%g" % t)
    return GaussianBlock(mean, cov)


def _gaussian_condition(mean, cov, h_mat, r_mat, y):
    """Condition N(mean, cov) on y = H x + N(0, R).  Shared Kalman math.

    Returns (mean', cov', predicted mean, innovation covariance).
    """
    pred = mat_vec(h_mat, mean)
    pht = np.matmul(cov, np.swapaxes(h_mat, -1, -2))
    s_mat = np.matmul(h_mat, pht) + r_mat
    gain = np.matmul(pht, guarded_inv(s_mat, "innovation covariance"))
    resid = np.asarray(y, dtype=float) - pred
    mean_new = mean + mat_vec(gain, resid)
    cov_new = cov - np.matmul(np.matmul(gain, s_mat),
                              np.swapaxes(gain, -1, -2))
    return mean_new, repair_cov(cov_new), pred, s_mat


def kalman_update(block, h_mat, r_mat, y):
    """Kalman measurement update of a Gaussian block.

    Args:
        block: GaussianBlock prior to the update.
        h_mat: measurement matrix (..., m, p).
        r_mat: measurement noise covariance (..., m, m); scalars allowed.
        y: measurement, scalar or (..., m).

    Returns:
        (GaussianBlock, predicted measurement mean, innovation covariance);
        the last two feed the weight factor N(y; mu, S).
    """
    h = np.asarray(h_mat, dtype=float)
    if h.ndim == 1:
        h = h[None, :]
    r = np.asarray(r_mat, dtype=float)
    if r.ndim == 0:
        r = r.reshape(1, 1)
    mean, cov, pred, s_mat = _gaussian_condition(
        np.asarray(block.mean, dtype=float),
        np.asarray(block.cov, dtype=float), h, r, y)
    return GaussianBlock(mean, cov), pred, s_mat


def init_rb_gauss_set(model, rng, n, *, init_sampler=None, init_gauss=None):
    """Equally weighted initial set of n particles drawn from rng, with a
    shared initial Gaussian block."""
    sampler = init_sampler or model.initial_sampler
    if sampler is None:
        raise ValueError("no initial sampler available")
    gauss = init_gauss or model.init_gauss
    if gauss is None:
        raise ValueError("no initial Gaussian block available")
    m0 = np.asarray(gauss[0], dtype=float).reshape(-1)
    p0 = np.asarray(gauss[1], dtype=float)
    if p0.ndim == 0:
        p0 = p0.reshape(1, 1)
    block = GaussianBlock(np.tile(m0, (n, 1)), np.tile(p0, (n, 1, 1)))
    return init_particle_set(sampler, rng, n, gauss=block)


def rb_gauss_step(pset, model, imp, y, grid, *, builder=None,
                  ess_threshold=0.5, resample_rng=None, noise_rng,
                  threads=1):
    """One cycle of the marginalized filter for CondGaussModel.

    Samples (x2, x3) under the proposal with likelihood-ratio weights,
    advances each particle's conditional moments along its sampled path,
    applies the Kalman update at the measurement, and weights by
    Z * N(y; H m^-, S).

    Args:
        pset: ParticleSet with states (N, d2+d3) and a gauss payload.
        model: CondGaussModel.
        imp: ImportanceSpec with drift g3(x2, x3, t); ignored when a
            builder is given.
        y: measurement at grid.t1.
        grid: TimeGrid of the interval.
        noise_rng: generator for the interval's noise block, drawn for
            all particles before they are split into chunks.

    Returns:
        (ParticleSet, StepStats).
    """
    if builder is None:
        builder = lambda chunk, g, yy: imp
    incs = draw_increments(grid, model.diffusion, noise_rng, pset.n)

    def phase(sl):
        chunk = pset.take(sl)
        imp_c = builder(chunk, grid, y)
        x2, x3 = model.split(chunk.states)
        s2, s3 = x2.copy(), x3.copy()
        s2s, s3s = x2.copy(), x3.copy()
        mean = np.asarray(chunk.gauss.mean, dtype=float).copy()
        cov = np.asarray(chunk.gauss.cov, dtype=float).copy()
        vals = incs.values[sl]
        llr = np.zeros(s3.shape[:-1])
        dt = grid.dt
        hoisted = model.dispersion.constant and model.diffusion.constant \
            and _matrix_constant(imp_c.dispersion)
        ops = _LlrOps(model.dispersion.at(grid.t0),
                      _matrix_at(imp_c.dispersion, grid.t0),
                      model.diffusion.at(grid.t0), grid.t0) if hoisted else None
        for j in range(grid.n_steps):
            t = grid.t0 + j * dt
            if not hoisted:
                ops = _LlrOps(model.dispersion.at(t),
                              _matrix_at(imp_c.dispersion, t),
                              model.diffusion.at(t), t)
            g_val = np.asarray(imp_c.drift(s2, s3, t), dtype=float)
            f3_star = np.asarray(model.drift_stoch(s2s, s3s, t), dtype=float)
            f2_plain = np.asarray(model.drift_det(s2, s3, t), dtype=float)
            f2_star = np.asarray(model.drift_det(s2s, s3s, t), dtype=float)
            f_mat = np.asarray(model.lin_coeff(s2s, s3s, t), dtype=float)
            shift = np.asarray(model.lin_shift(s2s, s3s, t), dtype=float)
            v_mat = np.asarray(model.lin_noise(s2s, s3s, t), dtype=float)
            q_eta = model.lin_diffusion.at(t)
            db = vals[..., j, :]
            noise_mat = ops.l_mat if ops.b_mat is None else ops.b_mat
            ds3 = g_val * dt + mat_vec(noise_mat, db)
            llr = _llr_kernel(llr, f3_star, g_val, ops, dt, db)
            mean, cov = _block_step(mean, cov, f_mat, shift, v_mat, q_eta, dt)
            s2 = s2 + f2_plain * dt
            s3 = s3 + ds3
            s2s = s2s + f2_star * dt
            s3s = s3s + ds3 if ops.scale is None \
                else s3s + mat_vec(ops.scale, ds3)
        for arr in (s2s, s3s, mean, cov, llr):
            if not np.all(np.isfinite(arr)):
                raise IntegrationError("non-finite values while propagating "
                                       "to t=%g" % grid.t1)
        states = np.concatenate([s2s, s3s], axis=-1)
        return states, mean, cov, llr

    states, mean, cov, llr = _chunk_map(pset, threads, phase)
    x2s, x3s = model.split(states)
    h = model.meas_matrix(x2s, x3s) if callable(model.meas_matrix) \
        else np.asarray(model.meas_matrix, dtype=float)
    if h.ndim == 1:
        h = h[None, :]
    r = model.meas_cov(x2s, x3s) if callable(model.meas_cov) \
        else _matrix_at(model.meas_cov, grid.t1)
    mean_post, cov_post, pred, s_mat = _gaussian_condition(mean, cov, h, r, y)
    resid = np.asarray(y, dtype=float) - pred
    loglik = log_mvn_density(resid, s_mat)
    gauss = GaussianBlock(mean_post, cov_post)
    return finish_step(pset, states, llr, loglik, grid.t1, gauss=gauss,
                       ess_threshold=ess_threshold, resample_rng=resample_rng)


def rb_param_step(pset, model, imp, family, y, grid, *, cond_fn,
                  builder=None, ess_threshold=0.5, resample_rng=None,
                  noise_rng, threads=1):
    """One cycle of the conjugate-parameter marginalized filter.

    Particles are propagated as in the plain filter; the measurement
    weight is the family's predictive likelihood evaluated with each
    particle's statistics from before this measurement, and statistics
    are advanced afterwards.

    Args:
        pset: ParticleSet with a stats payload (N, ...).
        model: SdeModel or SplitSdeModel.
        imp: ImportanceSpec; ignored when a builder is given.
        family: ConjugateFamily.
        y: measurement at grid.t1.
        grid: TimeGrid of the interval.
        cond_fn: maps (x_prev, x_new) full states to the value u_k the
            family conditions on (e.g. a state component, or an interval
            statistic of the two endpoints).
        noise_rng: generator for the interval's noise block.

    Returns:
        (ParticleSet, StepStats).
    """
    if builder is None:
        builder = lambda chunk, g, yy: imp
    states, llr = _propagate(pset, model, builder, y, grid, noise_rng,
                             threads)
    u = np.asarray(cond_fn(pset.states, states), dtype=float)
    loglik = np.asarray(family.log_marginal(y, u, pset.stats), dtype=float)
    stats_new = family.update(pset.stats, u, y)
    return finish_step(pset, states, llr, loglik, grid.t1, stats=stats_new,
                       ess_threshold=ess_threshold, resample_rng=resample_rng)


def eval_mixture(pset, x):
    """Weighted Gaussian-mixture density of the marginalized block.

    Args:
        pset: ParticleSet with a gauss payload.
        x: evaluation points; scalar, (q,) for 1-d blocks, or (q, p).

    Returns:
        Density values, scalar or (q,).
    """
    mean = np.asarray(pset.gauss.mean, dtype=float)
    cov = np.asarray(pset.gauss.cov, dtype=float)
    p = mean.shape[-1]
    pts = np.asarray(x, dtype=float)
    scalar_in = pts.ndim == 0
    if scalar_in:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None] if p == 1 else pts[None, :]
    resid = pts[:, None, :] - mean[None, :, :]
    logd = log_mvn_density(resid, cov)
    dens = np.exp(logd) @ pset.weights
    return float(dens[0]) if scalar_in else dens


@dataclass
class ConjugateFamily:
    """A conjugate prior family carried as per-particle statistics.

    All callables are vectorized over the particle axis of the stats
    array.

    Attributes:
        name: short identifier.
        init_stats: callable n -> initial stats (n, k).
        update: (stats, u, y) -> updated stats.
        log_marginal: (y, u, stats) -> predictive log likelihood (n,).
        mean: stats -> posterior mean of the parameter (NaN if undefined).
        point_estimate: stats -> always-finite point value (posterior
            mean with a fallback), used by proposal builders.
        sample: (stats, rng, m) -> (n, m) posterior draws.
    """

    name: str
    init_stats: object
    update: object
    log_marginal: object
    mean: object
    point_estimate: object
    sample: object


def invchi2_family(nu0, s20):
    """Scaled inverse chi-squared prior for a Gaussian noise variance.

    Measurements are y = u + e with e ~ N(0, sigma2) and prior
    sigma2 ~ Inv-chi2(nu0, s20).  Statistics per particle are (nu, s2);
    one residual r = y - u updates them to

        nu' = nu + 1,   s2' = (nu s2 + r^2) / (nu + 1),

    and the predictive density of y is Student-t with nu degrees of
    freedom, location u and squared scale s2.

    Args:
        nu0: prior degrees of freedom, > 0.
        s20: prior scale, > 0.

    Returns:
        ConjugateFamily.
    """
    if nu0 <= 0 or s20 <= 0:
        raise ValueError("need nu0 > 0 and s20 > 0")

    def init_stats(n):
        return np.tile(np.array([float(nu0), float(s20)]), (n, 1))

    def update(stats, u, y):
        nu, s2 = stats[..., 0], stats[..., 1]
        r = np.asarray(y, dtype=float) - u
        return np.stack([nu + 1.0, (nu * s2 + r * r) / (nu + 1.0)], axis=-1)

    def log_marginal(y, u, stats):
        nu, s2 = stats[..., 0], stats[..., 1]
        r = np.asarray(y, dtype=float) - u
        return (gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu)
                - 0.5 * np.log(nu * np.pi * s2)
                - 0.5 * (nu + 1.0) * np.log1p(r * r / (nu * s2)))

    def mean(stats):
        nu, s2 = stats[..., 0], stats[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(nu > 2.0, nu * s2 / (nu - 2.0), np.nan)

    def point_estimate(stats):
        nu, s2 = stats[..., 0], stats[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(nu > 2.0, nu * s2 / (nu - 2.0), s2)

    def sample(stats, rng, m):
        nu, s2 = stats[..., 0], stats[..., 1]
        chi = rng.chisquare(np.broadcast_to(nu[:, None], (nu.size, m)))
        return (nu * s2)[:, None] / chi

    return ConjugateFamily("invchi2", init_stats, update, log_marginal,
                           mean, point_estimate, sample)


def gamma_poisson_family(alpha0, beta0):
    """Gamma prior for the rate scale of Poisson counts.

    Counts are d ~ Poisson(N theta) with exposure theta > 0 per interval
    and N ~ Gamma(alpha0, beta0) (shape, rate).  Statistics per particle
    are (alpha, beta); an observation (theta, d) updates them to
    (alpha + d, beta + theta).  The predictive mass function of d is
    negative binomial:

        p(d | theta) = C(alpha + d - 1, d)
                       * (beta / (beta + theta))^alpha
                       * (theta / (beta + theta))^d.

    Args:
        alpha0: prior shape, > 0.
        beta0: prior rate, > 0.

    Returns:
        ConjugateFamily.
    """
    if alpha0 <= 0 or beta0 <= 0:
        raise ValueError("need alpha0 > 0 and beta0 > 0")

    def init_stats(n):
        return np.tile(np.array([float(alpha0), float(beta0)]), (n, 1))

    def update(stats, theta, d):
        alpha, beta = stats[..., 0], stats[..., 1]
        return np.stack([alpha + float(d), beta + theta], axis=-1)

    def log_marginal(d, theta, stats):
        d = float(d)
        if d < 0 or d != round(d):
            raise ValueError("counts must be nonnegative integers, got %r" % d)
        alpha, beta = stats[..., 0], stats[..., 1]
        theta = np.asarray(theta, dtype=float)
        if np.any(theta <= 0):
            raise ValueError("exposure theta must be positive")
        denom = beta + theta
        return (gammaln(alpha + d) - gammaln(alpha) - gammaln(d + 1.0)
                + alpha * (np.log(beta) - np.log(denom))
                + d * (np.log(theta) - np.log(denom)))

    def mean(stats):
        return stats[..., 0] / stats[..., 1]

    def sample(stats, rng, m):
        alpha, beta = stats[..., 0], stats[..., 1]
        return rng.gamma(np.broadcast_to(alpha[:, None], (alpha.size, m)),
                         1.0 / np.broadcast_to(beta[:, None], (beta.size, m)))

    return ConjugateFamily("gamma_poisson", init_stats, update, log_marginal,
                           mean, mean, sample)
