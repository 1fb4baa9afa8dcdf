"""Marginalized (Rao-Blackwellized) particle filtering.

Two flavors of analytic sub-structure are supported:

* a conditionally linear-Gaussian state block x1, whose conditional
  moments follow moment ODEs between measurements and a Kalman update at
  measurements, while the remaining states (x2, x3) are sampled;
* static parameters with a conjugate prior, carried per particle as
  sufficient statistics that are updated at measurement times, with the
  predictive (marginal) likelihood supplying the weight factor.
  Optionally each resampling is followed by resample-move sweeps
  (Gilks & Berzuini 2001): Metropolis-Hastings moves on each particle's
  initial state and standardized model noise, which regenerate the
  diversity that resampling removes from these nearly static states.

Conditionally linear dynamics, given the sampled states:

    dx1 = (F(x2, x3, t) x1 + f1(x2, x3, t)) dt + V(x2, x3, t) d eta
    dx2/dt = f2(x2, x3, t)
    dx3 = f3(x2, x3, t) dt + L(t) d beta
    y_k = H x1(t_k) + r_k,   r_k ~ N(0, R)
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import (as_matrix, guarded_inv, log_mvn_density, mat_mul,
                      mat_vec, symmetrize)
from .exceptions import IntegrationError
from .filtering import (ParticleSet, _advance, _as_builder, _chunk_map,
                        _propagate, draw_increments, finish_step,
                        init_particle_set)
from .girsanov import _coupled_loop, prior_proposal
from .sde import BrownianIncrements, DiffusionSpec, _check_shape, _wrap_noise

__all__ = [
    "GaussianBlock", "CondGaussModel", "ConjugateFamily", "repair_cov",
    "init_rb_gauss_set", "rb_gauss_step", "rb_param_step", "PathRecord",
    "replay_path", "eval_mixture", "invchi2_family", "gamma_poisson_family",
]

# Autocorrelation rho of the Crank-Nicolson noise proposal
# Z' = rho Z + sqrt(1 - rho^2) xi.
PCN_RHO = 0.9


@dataclass
class GaussianBlock:
    """Gaussian moments (a conditional block or an EKF prediction).

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
    leading axes.  H (m x dim_lin, or one row) and R are constant
    arrays, L and Q dim_stoch x dim_stoch.  dim_det may be zero (no x2
    block).
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
        _wrap_noise(self, self.dim_stoch, self.dim_stoch)
        if not isinstance(self.lin_diffusion, DiffusionSpec):
            self.lin_diffusion = DiffusionSpec(self.lin_diffusion)
        h_shape = np.shape(self.meas_matrix)
        _check_shape("H", h_shape, h_shape[:-1] + (self.dim_lin,))
        if self.init_gauss is not None:
            self.init_gauss = (np.ravel(self.init_gauss[0]).astype(float),
                               as_matrix(self.init_gauss[1], "init_gauss P0"))
            _check_shape("init_gauss (m0, P0)",
                         tuple(np.shape(v) for v in self.init_gauss),
                         ((self.dim_lin,), (self.dim_lin,) * 2))

    def split(self, x):
        return x[..., :self.dim_det], x[..., self.dim_det:]


def repair_cov(cov):
    """Symmetrize a covariance and clamp tiny negative eigenvalues.

    Works matrix by matrix: only the matrices of a batch with a negative
    (or NaN) eigenvalue are rebuilt, and every other one is returned
    symmetrized, with the same bits whatever its neighbours hold.
    """
    cov = symmetrize(cov)
    if cov.shape[-1] == 1:
        return np.maximum(cov, 0.0)
    bad = ~(np.linalg.eigvalsh(cov).min(axis=-1) >= 0.0)
    if np.any(bad):
        w, v = np.linalg.eigh(cov[bad])
        w = np.maximum(w, 0.0)
        cov[bad] = symmetrize(np.matmul(v * w[..., None, :],
                                        np.swapaxes(v, -1, -2)))
    return cov


def _block_step(mean, cov, f_mat, shift, v_mat, q_eta, dt):
    """One Euler step of the block's moment ODEs, with F, f1 and V at the
    sampled states and q_eta the block noise's diffusion; the covariance
    comes back symmetrized."""
    mean_new = mean + (mat_vec(f_mat, mean) + shift) * dt
    fp = mat_mul(f_mat, cov)
    vqv = mat_mul(mat_mul(v_mat, q_eta), np.swapaxes(v_mat, -1, -2))
    cov_new = cov + (fp + np.swapaxes(fp, -1, -2) + vqv) * dt
    return mean_new, symmetrize(cov_new)


def _gaussian_condition(mean, cov, h_mat, r_mat, y, t=None):
    """Condition N(mean, cov) on y = H x + N(0, R).  Shared Kalman math.

    Inputs are taken as float arrays; a 1-d H is one row, a scalar R is
    1x1 and a 1-d R holds one variance per particle (m = 1).  t, if
    given, is reported when the innovation covariance is singular.

    Returns (mean', symmetrized cov', predicted mean, innovation
    covariance S and its inverse); the weight factor is N(y; pred, S).
    Callers that need cov' clamped to a positive semidefinite matrix
    apply repair_cov themselves.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    h_mat = np.asarray(h_mat, dtype=float)
    if h_mat.ndim == 1:
        h_mat = h_mat[None, :]
    r_mat = np.asarray(r_mat, dtype=float)
    if r_mat.ndim == 0:
        r_mat = r_mat.reshape(1, 1)
    elif r_mat.ndim == 1:
        r_mat = r_mat[:, None, None]
    pred = mat_vec(h_mat, mean)
    pht = mat_mul(cov, np.swapaxes(h_mat, -1, -2))
    s_mat = mat_mul(h_mat, pht) + r_mat
    s_inv = guarded_inv(s_mat, "innovation covariance", t)
    gain = mat_mul(pht, s_inv)
    resid = np.asarray(y, dtype=float) - pred
    mean_new = mean + mat_vec(gain, resid)
    cov_new = cov - mat_mul(mat_mul(gain, s_mat), np.swapaxes(gain, -1, -2))
    return mean_new, symmetrize(cov_new), pred, s_mat, s_inv


def init_rb_gauss_set(model, rng, n):
    """Equally weighted initial set of n particles drawn from rng by the
    model's initial sampler, with the model's init_gauss as every
    particle's Gaussian block."""
    if model.init_gauss is None:
        raise ValueError("no initial Gaussian block available")
    m0, p0 = model.init_gauss
    block = GaussianBlock(np.tile(m0, (n, 1)), np.tile(p0, (n, 1, 1)))
    return init_particle_set(model.initial_sampler, rng, n, gauss=block)


def rb_gauss_step(pset, model, proposal, y, grid, *, ess_threshold=0.5,
                  resample_rng=None, noise_rng, threads=1):
    """One cycle of the marginalized filter for CondGaussModel.

    Samples (x2, x3) under the proposal with likelihood-ratio weights by
    the coupled Euler/Lambda loop of every filter, whose per-step hook
    advances each particle's conditional moments along its sampled path;
    then applies the Kalman update at the measurement and weights by
    Z * N(y; H m^-, S).

    Args:
        pset: ParticleSet with states (N, d2+d3) and a gauss payload.
        model: CondGaussModel.
        proposal: ImportanceSpec with drift g3(x2, x3, t), or a builder
            (chunk, grid, y) -> ImportanceSpec.
        y: measurement at grid.t1.
        grid: TimeGrid of the interval.
        noise_rng: generator for the interval's noise block, drawn for
            all particles before they are split into chunks.

    Returns:
        (ParticleSet, StepStats).
    """
    builder = _as_builder(proposal)
    incs = draw_increments(grid, model.diffusion, noise_rng, pset.n)

    def phase(sl):
        chunk = pset.take(sl)
        imp = builder(chunk, grid, y)
        mean = np.asarray(chunk.gauss.mean, dtype=float)
        cov = np.asarray(chunk.gauss.cov, dtype=float)

        def advance_moments(s2s, s3s, t):
            nonlocal mean, cov
            mean, cov = _block_step(
                mean, cov,
                np.asarray(model.lin_coeff(s2s, s3s, t), dtype=float),
                np.asarray(model.lin_shift(s2s, s3s, t), dtype=float),
                np.asarray(model.lin_noise(s2s, s3s, t), dtype=float),
                model.lin_diffusion.at(t), grid.dt)

        x2, x3 = model.split(chunk.states)
        res = _coupled_loop(model, imp, x2, x3, grid, incs.values[sl],
                            on_step=advance_moments)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise IntegrationError("Gaussian block moments non-finite at "
                                   "t=%g" % grid.t1)
        return res.state, mean, cov, res.llr

    states, mean, cov, llr = _chunk_map(pset, threads, phase)
    mean_post, cov_post, pred, s_mat, s_inv = _gaussian_condition(
        mean, cov, model.meas_matrix, model.meas_cov, y, grid.t1)
    resid = np.asarray(y, dtype=float) - pred
    loglik = log_mvn_density(resid, s_mat, s_inv)
    gauss = GaussianBlock(mean_post, repair_cov(cov_post))
    return finish_step(pset, states, llr, loglik, grid.t1, gauss=gauss,
                       ess_threshold=ess_threshold, resample_rng=resample_rng)


@dataclass
class PathRecord:
    """Per-particle path coordinates for resample-move.

    Together with the shared grids and measurements, (x0, noise) fixes a
    particle's whole path under the model's own Euler chain, and with it
    the particle's state and conjugate statistics.

    Attributes:
        x0: initial states (N, n).
        noise: standardized model noise of every Euler step so far
            (N, J, s).
        loglik: sum over past measurements of the family's predictive
            log likelihood along each path (N,).
        grids: TimeGrid of each past interval.
        ys: measurement at the end of each past interval.
    """

    x0: np.ndarray
    noise: np.ndarray
    loglik: np.ndarray
    grids: tuple = ()
    ys: tuple = ()

    @classmethod
    def start(cls, states, dim_noise):
        """Empty record for a population at its initial states."""
        n = states.shape[0]
        return cls(states.copy(), np.empty((n, 0, dim_noise)), np.zeros(n))

    def take(self, idx):
        return PathRecord(self.x0[idx], self.noise[idx], self.loglik[idx],
                          self.grids, self.ys)

    def extend(self, noise, loglik, grid, y):
        """Record after one more interval (noise (N, n_steps, s))."""
        return PathRecord(self.x0, np.concatenate([self.noise, noise], 1),
                          self.loglik + loglik, self.grids + (grid,),
                          self.ys + (y,))


def _standard_noise(grid, diffusion, increments):
    """Standard normals z with BrownianIncrements.from_noise(grid,
    diffusion, z).values equal to increments (..., n_steps, s)."""
    chols = np.sqrt(grid.dt) * np.stack([diffusion.chol(t)
                                         for t in grid.times[:-1]])
    return np.linalg.solve(chols, increments[..., None])[..., 0]


def replay_path(model, family, cond_fn, path):
    """Re-simulate recorded paths under the model itself.

    Runs the propagation kernel with the bootstrap proposal (so Lambda is
    zero), constraints included, over every recorded interval from
    path.x0 with path.noise, and rebuilds the conjugate statistics.

    Args:
        model: SdeModel or SplitSdeModel.
        family: ConjugateFamily.
        cond_fn: as in rb_param_step.
        path: PathRecord (its loglik is not used).

    Returns:
        (states (N, n), stats (N, ...), loglik (N,)): the end states, the
        statistics after the last measurement and the summed predictive
        log likelihood of the recorded measurements.
    """
    prior = prior_proposal(model)
    x = path.x0
    n = x.shape[0]
    stats = family.init_stats(n)
    loglik = np.zeros(n)
    start = 0
    for grid, y in zip(path.grids, path.ys):
        z = path.noise[:, start:start + grid.n_steps]
        start += grid.n_steps
        incs = BrownianIncrements.from_noise(grid, model.diffusion, z)
        x_new = _advance(model, prior, x, grid, incs.values)[0]
        u = np.asarray(cond_fn(x, x_new), dtype=float)
        loglik = loglik + family.log_marginal(y, u, stats)
        stats = family.update(stats, u, y)
        x = x_new
    return x, stats, loglik


def _mh_sweep(model, family, cond_fn, chunk, x0_new, xi, log_u):
    """One Metropolis-Hastings sweep over a chunk's path coordinates.

    The two proposals, a fresh initial state and a Crank-Nicolson move of
    the noise, are each reversible with respect to the model's own law of
    (x0, noise), so the acceptance ratio is the likelihood ratio alone.
    """
    path = chunk.path
    x0, noise, loglik = path.x0, path.noise, path.loglik
    states, stats = chunk.states, chunk.stats
    pcn = PCN_RHO * noise + np.sqrt(1.0 - PCN_RHO ** 2) * xi
    for i in range(2):
        # First a fresh initial state, then the noise move from the
        # initial state that the first proposal left.
        cand = PathRecord(x0_new, noise, None, path.grids, path.ys) if i == 0 \
            else PathRecord(x0, pcn, None, path.grids, path.ys)
        c_states, c_stats, c_loglik = replay_path(model, family, cond_fn,
                                                  cand)
        with np.errstate(invalid="ignore"):
            acc = log_u[:, i] < c_loglik - loglik
        x0 = np.where(acc[:, None], cand.x0, x0)
        noise = np.where(acc[:, None, None], cand.noise, noise)
        states = np.where(acc[:, None], c_states, states)
        stats = np.where(acc.reshape((-1,) + (1,) * (stats.ndim - 1)),
                         c_stats, stats)
        loglik = np.where(acc, c_loglik, loglik)
    return states, stats, x0, noise, loglik


def _resample_move(pset, model, family, cond_fn, sweeps, rng, threads=1):
    """Resample-move rejuvenation of an equally weighted population.

    Each sweep draws one block from rng before the particles are
    chunked: n fresh initial states from model.initial_sampler (called
    in slot order, as at initialization), a standard-normal block shaped
    like the recorded noise and two uniforms per particle.  It then
    proposes, per particle, the fresh initial state with the noise kept,
    and after that Z' = PCN_RHO Z + sqrt(1 - PCN_RHO^2) xi with the
    initial state kept.
    Each proposal is accepted with probability min(1, exp(l' - l)), l
    being the path's summed predictive log likelihood.  The posterior
    over paths (and hence the filtering distribution) is invariant, and
    the result does not depend on the thread count.

    Args:
        pset: ParticleSet with stats and path payloads.
        model: SdeModel or SplitSdeModel.
        family: ConjugateFamily.
        cond_fn: as in rb_param_step.
        sweeps: number of sweeps.
        rng: generator for the move draws.
        threads: worker threads.

    Returns:
        ParticleSet with moved states, statistics and path record.
    """
    n = pset.n
    for _ in range(sweeps):
        x0_new = init_particle_set(model.initial_sampler, rng, n).states
        xi = rng.standard_normal(pset.path.noise.shape)
        log_u = np.log(rng.random((n, 2)))

        def phase(sl, cur=pset):
            return _mh_sweep(model, family, cond_fn, cur.take(sl),
                             x0_new[sl], xi[sl], log_u[sl])

        states, stats, x0, noise, loglik = _chunk_map(pset, threads, phase)
        pset = ParticleSet(states, pset.log_weights, pset.gauss, stats,
                           PathRecord(x0, noise, loglik, pset.path.grids,
                                      pset.path.ys))
    return pset


def rb_param_step(pset, model, proposal, family, y, grid, *, cond_fn,
                  ess_threshold=0.5, resample_rng=None, noise_rng, threads=1,
                  move_steps=0, move_rng=None):
    """One cycle of the conjugate-parameter marginalized filter.

    Particles are propagated as in the plain filter; the measurement
    weight is the family's predictive likelihood evaluated with each
    particle's statistics from before this measurement, and statistics
    are advanced afterwards.  When pset carries a PathRecord, each
    particle's model noise is recorded; with move_steps > 0, every
    resampling is followed by _resample_move.

    Args:
        pset: ParticleSet with a stats payload (N, ...).
        model: SdeModel or SplitSdeModel.
        proposal: ImportanceSpec, or a builder (chunk, grid, y) ->
            ImportanceSpec.
        family: ConjugateFamily.
        y: measurement at grid.t1.
        grid: TimeGrid of the interval.
        cond_fn: maps (x_prev, x_new) full states to the value u_k the
            family conditions on (e.g. a state component, or an interval
            statistic of the two endpoints).
        noise_rng: generator for the interval's noise block.
        move_steps: resample-move sweeps after a resampling (needs a
            PathRecord payload).
        move_rng: generator for the move draws; the moves draw fresh
            initial states from model.initial_sampler.

    Returns:
        (ParticleSet, StepStats).
    """
    record = pset.path is not None
    if move_steps and not record:
        raise ValueError("resample-move needs a PathRecord payload")
    out = _propagate(pset, model, proposal, y, grid, noise_rng, threads,
                     record_noise=record)
    states, llr = out[:2]
    u = np.asarray(cond_fn(pset.states, states), dtype=float)
    loglik = np.asarray(family.log_marginal(y, u, pset.stats), dtype=float)
    stats_new = family.update(pset.stats, u, y)
    path = pset.path.extend(_standard_noise(grid, model.diffusion, out[2]),
                            loglik, grid, y) if record else None
    new, st = finish_step(pset, states, llr, loglik, grid.t1,
                          stats=stats_new, path=path,
                          ess_threshold=ess_threshold,
                          resample_rng=resample_rng)
    if st.resampled and move_steps:
        new = _resample_move(new, model, family, cond_fn, move_steps,
                             move_rng, threads)
    return new, st


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
        init_stats: callable n -> initial stats (n, k).
        update: (stats, u, y) -> updated stats.
        log_marginal: (y, u, stats) -> predictive log likelihood (n,).
        mean: stats -> posterior mean of the parameter (NaN if undefined).
        point_estimate: stats -> always-finite point value (posterior
            mean with a fallback), used by proposal builders.
        sample: (stats, rng, counts) -> posterior draws, counts[i] from
            particle i (counts an int or an (n,) array), concatenated
            in particle order.
    """

    init_stats: object
    update: object
    log_marginal: object
    mean: object
    point_estimate: object
    sample: object


def _by_counts(shape, scale, counts):
    """(shape, number, scale) for counts[i] draws of row i, in row order.
    A shape all rows share, as in a filter, is passed as a scalar: numpy
    draws the same numbers from it, faster."""
    counts = np.broadcast_to(counts, shape.shape)
    shared = np.all(shape == shape[0])
    return (shape[0] if shared else np.repeat(shape, counts), counts.sum(),
            np.repeat(scale, counts))


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
    # Imported here so that only runs with a conjugate family load
    # scipy.special, which costs more than the rest of the package.
    from scipy.special import gammaln

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

    def sample(stats, rng, counts):
        nu, m, nu_s2 = _by_counts(stats[..., 0], stats[..., 0] * stats[..., 1],
                                  counts)
        # Divide into the freshly repeated scales: two K-sized blocks.
        return np.divide(nu_s2, rng.chisquare(nu, m), out=nu_s2)

    return ConjugateFamily(init_stats, update, log_marginal, mean,
                           point_estimate, sample)


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
    from scipy.special import gammaln   # see invchi2_family

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

    def sample(stats, rng, counts):
        alpha, m, scale = _by_counts(stats[..., 0], 1 / stats[..., 1], counts)
        # rng.gamma(a, b) is b * rng.standard_gamma(a), bit for bit.
        return rng.standard_gamma(alpha, m) * scale

    return ConjugateFamily(init_stats, update, log_marginal, mean, mean,
                           sample)
