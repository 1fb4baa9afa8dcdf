"""Particle sets, weight bookkeeping, resampling and filter loops.

Weights are carried in log domain and normalized after every measurement
update.  All randomness comes from one seed tree: the master seed spawns
five generators, for initial states, Brownian noise, resampling,
summaries and resample-move sweeps.
Each interval draws one standard-normal block for the whole population
on the calling thread, before the particles are split into chunks, and
each chunk propagates with its slot slice of that block.  So runs are
reproducible, independent of the thread count, and the noise drawn does
not depend on whether resampling happened.
"""

import concurrent.futures
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegeneracyError, IntegrationError, SdepfError
from .girsanov import propagate_coupled, propagate_coupled_split
from .sde import (SplitSdeModel, TimeGrid, _check_shape,
                  sample_brownian_increments)

__all__ = [
    "ParticleSet", "MeasurementModel", "StepStats", "FilterConfig",
    "SummaryRow", "FilterResult", "seed_streams", "init_particle_set",
    "draw_increments", "gaussian_measurement", "systematic_counts",
    "systematic_resample_indices", "systematic_resample", "finish_step",
    "sir_step", "run_filter",
]


@dataclass
class ParticleSet:
    """A weighted particle population.

    Attributes:
        states: sampled states, shape (N, n).  For split models this is
            the concatenated (x1, x2) state.
        log_weights: normalized log weights, shape (N,).
        gauss: optional marginalized Gaussian block (mean (N, p),
            cov (N, p, p)).
        stats: optional per-particle sufficient statistics array (N, ...).
        path: optional per-particle path record with a take(idx) method
            (the resample-move coordinates of the conjugate filter).
    """

    states: np.ndarray
    log_weights: np.ndarray
    gauss: object = None
    stats: object = None
    path: object = None

    @property
    def n(self):
        return self.states.shape[0]

    @property
    def weights(self):
        return np.exp(self.log_weights)

    def take(self, idx):
        """Sub-population (idx slice or index array), payloads included."""
        gauss = None if self.gauss is None \
            else type(self.gauss)(self.gauss.mean[idx], self.gauss.cov[idx])
        stats = None if self.stats is None else self.stats[idx]
        path = None if self.path is None else self.path.take(idx)
        return ParticleSet(self.states[idx], self.log_weights[idx], gauss,
                           stats, path)


@dataclass
class MeasurementModel:
    """Discrete-time measurement density.

    Attributes:
        log_likelihood: callable (y, states) -> log p(y | x) with states
            batched (N, n), returning (N,).
    """

    log_likelihood: object


def gaussian_measurement(h, var):
    """Scalar Gaussian measurement y = x[h] + noise, noise ~ N(0, var).

    Args:
        h: index (int) of the measured state component.
        var: measurement noise variance.

    Returns:
        MeasurementModel.
    """
    if not isinstance(h, (int, np.integer)):
        raise ValueError("measurement index must be an int, got %r" % (h,))
    var = float(var)
    if not 0 < var < np.inf:
        raise ValueError("measurement variance must be positive and finite")
    const = -0.5 * np.log(2.0 * np.pi * var)

    def loglik(y, states):
        r = np.asarray(y, dtype=float) - states[..., h]
        return const - 0.5 * r * r / var

    return MeasurementModel(log_likelihood=loglik)


@dataclass
class StepStats:
    """Diagnostics from one measurement update."""

    ess: float
    resampled: bool
    log_ml_increment: float


def seed_streams(seed):
    """The run's generators, one per use of randomness.

    Args:
        seed: master seed (int or SeedSequence entropy).

    Returns:
        (init_rng, noise_rng, resample_rng, summary_rng, move_rng), the
        five children of SeedSequence(seed): initial state draws,
        Brownian noise blocks, resampling draws, summary sampling (e.g.
        posterior quantiles) and resample-move sweeps.  A child depends
        only on its index, so a run that never moves draws the same
        numbers from the first four as one that does.
    """
    children = np.random.SeedSequence(seed).spawn(5)
    return tuple(np.random.default_rng(c) for c in children)


def init_particle_set(sampler, rng, n, *, gauss=None, stats=None):
    """Draw an equally weighted initial population.

    Args:
        sampler: callable rng -> one state draw, a scalar or (d,); called
            n times in slot order on rng, and the draws become one float
            array (ValueError if ragged).  None (a model without an
            initial sampler) raises ValueError.
        rng: numpy Generator for the initial draws.
        n: number of particles.
        gauss: optional initial Gaussian block payload.
        stats: optional initial sufficient statistics (N, ...).

    Returns:
        ParticleSet with uniform weights.
    """
    if sampler is None:
        raise ValueError("no initial sampler available")
    if n < 1:
        raise ValueError("need at least one particle, got n=%d" % n)
    states = np.array([sampler(rng) for _ in range(n)], dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if not np.all(np.isfinite(states)):
        raise IntegrationError("initial sampler produced non-finite states")
    lw = np.full(n, -np.log(n))
    return ParticleSet(states, lw, gauss, stats)


def draw_increments(grid, diffusion, noise_rng, n):
    """One interval's increments, sample_brownian_increments's single
    (n, n_steps, s) block from noise_rng: slot i's path is the same
    however the slots are later split into chunks."""
    return sample_brownian_increments(grid, diffusion, noise_rng, n_paths=n)


def systematic_resample_indices(weights, rng):
    """Systematic resampling: one uniform, N evenly spaced positions,
    i.e. the systematic_counts of N draws listed as ancestor indices.

    Args:
        weights: normalized weights (N,).
        rng: numpy Generator used for the single uniform draw.

    Returns:
        Ancestor indices (N,) int array; offspring counts of index i are
        floor(N w_i) or ceil(N w_i).
    """
    w = np.asarray(weights, dtype=float)
    return np.repeat(np.arange(w.size), systematic_counts(w, w.size, rng))


def systematic_counts(weights, k, rng):
    """Counts of k systematic draws over normalized weights w (N,), from
    one uniform u of rng: ceil(k c_i - u) - ceil(k c_(i-1) - u), c the
    cumsum of w; they sum to k, each within one of k w_i, 0 if w_i = 0."""
    edges = np.minimum(np.ceil(k * np.cumsum(weights) - rng.random()), k)
    edges[-1] = k
    return np.diff(edges, prepend=0.0).astype(np.int64)


def systematic_resample(pset, rng):
    """Resample a particle set back to uniform weights.

    States and per-particle payloads are reordered by ancestry.  Noise
    comes from its own generator in a block of fixed size, so later
    draws do not depend on the resampling outcome.

    Args:
        pset: ParticleSet with normalized log weights.
        rng: numpy Generator for the resampling draw.

    Returns:
        New ParticleSet with weights 1/N.
    """
    idx = systematic_resample_indices(np.exp(pset.log_weights), rng)
    out = pset.take(idx)
    out.log_weights = np.full(pset.n, -np.log(pset.n))
    return out


def finish_step(pset, new_states, llr, loglik, t, *, gauss=None, stats=None,
                path=None, ess_threshold=0.5, resample_rng=None):
    """Shared tail of every filter step: weight, normalize, resample.

    The one place where weights are normalized (by their log-sum-exp, the
    step's log-ML increment) and ESS = 1 / sum(w^2) is taken.  A NaN or
    +inf weight raises IntegrationError, all -inf DegeneracyError; both
    name t, and run_filter adds the step.

    Args:
        pset: particle set before the step (normalized log weights).
        new_states: propagated states (N, n).
        llr: log likelihood ratios from propagation (N,).
        loglik: measurement log likelihoods (N,); -inf entries allowed.
        t: measurement time (named in errors).
        gauss, stats, path: payloads carried into the new set.
        ess_threshold: resample when ESS < threshold * N.
        resample_rng: generator used if resampling triggers.

    Returns:
        (ParticleSet, StepStats).
    """
    lw_un = pset.log_weights + llr + loglik
    if np.any(np.isnan(lw_un)) or np.any(lw_un == np.inf):
        raise IntegrationError("non-finite log weights at t=%g" % t)
    m = np.max(lw_un)
    if m == -np.inf:
        raise DegeneracyError("all particle weights vanished at t=%g" % t)
    log_ml_inc = float(m + np.log(np.sum(np.exp(lw_un - m))))
    lw = lw_un - log_ml_inc
    w = np.exp(lw)
    ess = float(1.0 / np.sum(w * w))
    out = ParticleSet(new_states, lw, gauss, stats, path)
    resampled = ess < ess_threshold * pset.n
    if resampled:
        if resample_rng is None:
            raise ValueError("resampling triggered but no resample_rng given")
        out = systematic_resample(out, resample_rng)
    return out, StepStats(ess=ess, resampled=resampled,
                          log_ml_increment=log_ml_inc)


def _advance(model, imp, states, grid, vals, record_noise=False):
    """Propagate full states (N, n) over one interval with the increments
    vals (N, n_steps, s).

    Returns:
        (states (N, n), llr (N,), model increments (N, n_steps, s) or
        None when not recorded).
    """
    if isinstance(model, SplitSdeModel):
        res = propagate_coupled_split(model, imp, *model.split(states), grid,
                                      vals, record_noise=record_noise)
    else:
        res = propagate_coupled(model, imp, states, grid, vals,
                                record_noise=record_noise)
    return res.state, res.llr, res.model_noise


def _as_builder(proposal):
    """The per-chunk proposal builder (chunk, grid, y) -> ImportanceSpec
    of a step's proposal argument: a builder as it is, or a constant
    ImportanceSpec."""
    return proposal if callable(proposal) else (lambda chunk, grid, y: proposal)


def _propagate(pset, model, proposal, y, grid, noise_rng, threads=1,
               record_noise=False):
    """Draw one interval's noise block and propagate every particle.

    The block is drawn here, before the particles are chunked; each
    chunk builds its proposal and propagates with its slot slice of it.

    Args:
        pset: ParticleSet before the interval.
        model: SdeModel, or SplitSdeModel (states hold (x1, x2)).
        proposal: ImportanceSpec, or a builder (chunk, grid, y) ->
            ImportanceSpec.
        y: measurement at grid.t1 (passed to a builder).
        grid: TimeGrid of the interval.
        noise_rng: generator for the noise block.
        threads: worker threads for the propagation.
        record_noise: also return the model increments of each path.

    Returns:
        (states (N, n), llr (N,)), plus the model increments
        (N, n_steps, s) when record_noise is set.
    """
    builder = _as_builder(proposal)
    incs = draw_increments(grid, model.diffusion, noise_rng, pset.n)

    def phase(sl):
        chunk = pset.take(sl)
        out = _advance(model, builder(chunk, grid, y), chunk.states, grid,
                       incs.values[sl], record_noise)
        return out if record_noise else out[:2]

    return _chunk_map(pset, threads, phase)


def sir_step(pset, model, proposal, meas_model, y, grid, *, ess_threshold=0.5,
             resample_rng=None, noise_rng, threads=1):
    """One measurement cycle of the sequential importance resampling filter.

    Propagates every particle under the importance SDE over the interval,
    multiplies weights by exp(Lambda) and the measurement likelihood,
    normalizes, and resamples if the effective sample size drops below
    ess_threshold * N.

    Args:
        pset: current ParticleSet (states (N, n)).
        model: SdeModel, or SplitSdeModel with (x1, x2) concatenated.
        proposal: ImportanceSpec for this interval, or a builder
            (chunk, grid, y) -> ImportanceSpec.
        meas_model: MeasurementModel for y.
        y: measurement value at grid.t1.
        grid: TimeGrid from the previous measurement time to this one.
        noise_rng: generator for the interval's noise block.

    Returns:
        (ParticleSet, StepStats).
    """
    states, llr = _propagate(pset, model, proposal, y, grid, noise_rng,
                             threads)
    loglik = np.asarray(meas_model.log_likelihood(y, states), dtype=float)
    return finish_step(pset, states, llr, loglik, grid.t1,
                       ess_threshold=ess_threshold, resample_rng=resample_rng)


# The conjugate filter's parameter quantiles come from
# K = ceil(THETA_SAMPLES_PER_ESS * ESS) posterior draws in all, allocated
# over the particles by weight.  The particles already leave a quantile
# error of order 1 / sqrt(ESS); the draws add one of order 1 / sqrt(K),
# so the total sd grows by a factor of about sqrt(1 + 1/16), 3%.
THETA_SAMPLES_PER_ESS = 16


@dataclass
class FilterConfig:
    """Run-level settings for run_filter.

    Attributes:
        n_particles: particle count N.
        n_steps: Euler steps per measurement interval.
        ess_threshold: resampling trigger as a fraction of N.
        seed: master seed; all randomness derives from it.
        threads: worker threads for the propagation phase.  Results are
            identical for any thread count: each interval's noise block
            is drawn before the particles are split across threads.
        move_steps: resample-move sweeps for method "rb_param" (0 turns
            the move off).  After each resampling, every particle gets
            this many Metropolis-Hastings sweeps over its path
            coordinates (initial state and standardized model noise),
            each proposing a fresh initial state and then a
            Crank-Nicolson perturbation of the noise; both leave the
            posterior invariant.  Sweeps draw from the seed tree's
            fifth child, so with 0 nothing extra is stored or drawn and
            the other four children draw the same numbers.  Cost per
            resampling is about 2 * move_steps re-simulations of every
            path from t = 0.
    """

    n_particles: int
    n_steps: int = 10
    ess_threshold: float = 0.5
    seed: int = 0
    threads: int = 1
    move_steps: int = 0


@dataclass
class SummaryRow:
    """Per-step filter summary (weighted moments and diagnostics)."""

    k: int
    t: float
    mean: np.ndarray
    var: np.ndarray
    ess: float
    log_marginal: float
    resampled: bool
    extra: dict = field(default_factory=dict)


@dataclass
class FilterResult:
    summaries: list
    final_set: ParticleSet
    log_marginal: float


def _chunk_map(pset, threads, phase):
    """Run a propagation phase over contiguous slot ranges.

    phase maps a slot slice of pset to a tuple of arrays (leading axis
    is the particle axis); outputs are concatenated in slot order, so the
    result does not depend on the number of threads.
    """
    n = pset.n
    if threads <= 1 or n < 2 * threads:
        return phase(slice(None))
    bounds = np.linspace(0, n, threads + 1).astype(int)
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
        parts = list(ex.map(phase, slices))
    return tuple(np.concatenate(cols, axis=0) for cols in zip(*parts))


def _weighted_mean_var(states, w):
    mean = w @ states
    var = w @ (states - mean) ** 2
    return mean, var


def _uniform_quantile(v, q):
    """np.interp(q, (arange(K) + 1) / K, v) of sorted v, from two entries."""
    k = v.size
    j = min(max(int(q * k) - 1, 0), max(k - 2, 0))
    return float(np.interp(q, [(j + 1) / k, (j + 2) / k],
                           v[[j, min(j + 1, k - 1)]]))


def _theta_quantiles(family, stats, weights, k, rng):
    """q05, q50, q95 of the particles' weighted posterior mixture, read
    from k draws allocated by systematic_counts and sorted."""
    draws = family.sample(stats, rng, systematic_counts(weights, k, rng))
    draws.sort()
    return [_uniform_quantile(draws, q) for q in (0.05, 0.5, 0.95)]


def run_filter(model, proposal, meas_model, times, ys, config, *,
               method="sir", family=None, cond_fn=None, step_callback=None):
    """Run a complete filter over a measurement sequence.

    The config, the method and its inputs are checked before any work;
    the initial population and the step are then bound once for the
    whole run.

    Args:
        model: SdeModel or SplitSdeModel (methods "sir" and "rb_param"),
            or CondGaussModel ("rb_gauss"); its initial_sampler draws the
            initial states, and a CondGaussModel's init_gauss gives the
            initial Gaussian block.
        proposal: ImportanceSpec used for every interval, or a builder
            callable (pset, grid, y) -> ImportanceSpec evaluated per
            interval (and per chunk when threads > 1).
        meas_model: MeasurementModel, required by "sir"; ignored for
            "rb_gauss" (the model carries H and R) and "rb_param" (the
            family marginal is the likelihood).
        times: finite, strictly increasing measurement times > 0; the
            initial population is at t = 0.
        ys: finite measurements aligned with times.
        config: FilterConfig.
        method: "sir", "rb_gauss" or "rb_param".
        family: ConjugateFamily, required by "rb_param".
        cond_fn: for "rb_param", maps (x_prev, x_new) to the value the
            family conditions on; defaults to the new state's first
            component.
        step_callback: optional callable (k, t, pset, stats) run after
            each measurement update.

    Returns:
        FilterResult; summaries[0] describes the initial population.
        With "rb_gauss", means and variances list the Gaussian block
        first; with "rb_param", each row's extra holds theta_mean,
        theta_q05, theta_q50 and theta_q95, in that order.

    Raises:
        SdepfError: an error raised inside step k comes back with its
            type and the message "step k: <message>".
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be 1-d")
    ys = np.asarray(ys)
    if not (np.all(np.isfinite(times))
            and np.all(np.isfinite(np.asarray(ys, dtype=float)))):
        raise ValueError("measurement times and values must be finite")
    if times.size and (times[0] <= 0.0 or np.any(np.diff(times) <= 0)):
        raise ValueError("measurement times must be strictly increasing "
                         "and positive (the filter starts at t = 0)")
    if ys.shape[:1] != times.shape:
        raise ValueError("ys must align with times")
    for key, low in (("n_particles", 1), ("n_steps", 1), ("threads", 1),
                     ("move_steps", 0)):
        value = getattr(config, key)
        if not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError("%s must be an int >= %d, got %r"
                             % (key, low, value))
    if not 0.0 <= config.ess_threshold <= 1.0:
        raise ValueError("ess_threshold must be in [0, 1], got %r"
                         % (config.ess_threshold,))

    from . import raoblackwell as rb
    n = config.n_particles
    if method in ("sir", "rb_param") and isinstance(model, rb.CondGaussModel):
        raise ValueError("method %r needs an SdeModel or SplitSdeModel, got "
                         "CondGaussModel" % (method,))
    if method == "rb_param":
        if family is None:
            raise ValueError("method 'rb_param' needs a conjugate family")
        cond_fn = cond_fn or (lambda x_prev, x_new: x_new[..., 0])
        init = lambda rng: init_particle_set(model.initial_sampler, rng, n,
                                             stats=family.init_stats(n))
        step = lambda pset, y, grid, **kw: rb.rb_param_step(
            pset, model, proposal, family, y, grid, cond_fn=cond_fn, **kw)
    elif config.move_steps:
        raise ValueError("move_steps applies to method 'rb_param' only")
    elif method == "sir":
        if meas_model is None:
            raise ValueError("method 'sir' needs a MeasurementModel")
        init = lambda rng: init_particle_set(model.initial_sampler, rng, n)
        step = lambda pset, y, grid, **kw: sir_step(
            pset, model, proposal, meas_model, y, grid, **kw)
    elif method == "rb_gauss":
        if not isinstance(model, rb.CondGaussModel):
            raise ValueError("method 'rb_gauss' needs a CondGaussModel, got "
                             "%s" % type(model).__name__)
        init = lambda rng: rb.init_rb_gauss_set(model, rng, n)
        step = lambda pset, y, grid, **kw: rb.rb_gauss_step(
            pset, model, proposal, y, grid, **kw)
    else:
        raise ValueError("unknown method %r" % (method,))

    init_rng, noise_rng, resample_rng, summary_rng, move_rng = seed_streams(
        config.seed)
    pset = init(init_rng)
    _check_shape("initial states", pset.states.shape, (n, (
        model.dim_det + model.dim_stoch if method == "rb_gauss"
        else model.dim_state)))
    step_kw = dict(ess_threshold=config.ess_threshold,
                   resample_rng=resample_rng, noise_rng=noise_rng,
                   threads=config.threads)
    if config.move_steps:
        pset.path = rb.PathRecord.start(pset.states, model.dim_noise)
        step_kw.update(move_steps=config.move_steps, move_rng=move_rng)

    def summarize(pset, k, t, ess, log_ml, resampled):
        w = pset.weights
        mean, var = _weighted_mean_var(pset.states, w)
        extra = {}
        if pset.gauss is not None:
            mean_b = w @ pset.gauss.mean
            diag = np.diagonal(pset.gauss.cov, axis1=-2, axis2=-1)
            var_b = w @ (diag + (pset.gauss.mean - mean_b) ** 2)
            mean = np.concatenate([mean_b, mean])
            var = np.concatenate([var_b, var])
        if pset.stats is not None:
            est = family.mean(pset.stats)
            extra["theta_mean"] = float(w @ est) if np.all(np.isfinite(est)) \
                else float("nan")
            k_draws = math.ceil(THETA_SAMPLES_PER_ESS * ess)
            extra["theta_q05"], extra["theta_q50"], extra["theta_q95"] = \
                _theta_quantiles(family, pset.stats, w, k_draws, summary_rng)
        return SummaryRow(k=k, t=t, mean=mean, var=var, ess=ess,
                          log_marginal=log_ml, resampled=resampled, extra=extra)

    summaries = [summarize(pset, 0, 0.0, float(pset.n), 0.0, False)]
    log_ml = 0.0
    t_prev = 0.0
    for k, (t_k, y_k) in enumerate(zip(times, ys), start=1):
        grid = TimeGrid(t_prev, float(t_k), config.n_steps)
        try:
            pset, st = step(pset, y_k, grid, **step_kw)
        except SdepfError as exc:
            raise type(exc)("step %d: %s" % (k, exc)) from exc
        log_ml += st.log_ml_increment
        summaries.append(summarize(pset, k, float(t_k), st.ess, log_ml,
                                   st.resampled))
        if step_callback is not None:
            step_callback(k, float(t_k), pset, st)
        t_prev = float(t_k)

    return FilterResult(summaries=summaries, final_set=pset, log_marginal=log_ml)
