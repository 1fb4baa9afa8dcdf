"""Example state-space models: noisy pendulum and stochastic epidemic.

Pendulum (angle x1, angular velocity x2, measurements of the angle):

    dx1/dt = x2
    dx2 = -a^2 sin(x1) dt + dbeta,      Var(dbeta) = q dt
    y_k = x1(t_k) + e_k,                e_k ~ N(0, sigma2)

Epidemic (susceptible fraction x, infective fraction y, log contact
rate lam; weekly death counts):

    dx/dt = -g exp(lam) y x
    dy/dt =  g exp(lam) y x - g y
    dlam = dbeta,                       Var(dbeta) = q dt
    d_k ~ Poisson(N theta_k),   theta_k = (x+y)(t_{k-1}) - (x+y)(t_k)

with the population size N unknown and Gamma-distributed, handled by the
conjugate-statistics filter.
"""

from dataclasses import dataclass

import numpy as np

from .proposals import ekf_bridge_builder
from .sde import (SdeModel, SplitSdeModel, TimeGrid, integrate_sde,
                  sample_brownian_increments)

__all__ = [
    "pendulum_model", "pendulum_drift", "pendulum_jacobian",
    "pendulum_simulate", "pendulum_bridge_builder", "PendulumSim",
    "epidemic_model", "epidemic_drift", "epidemic_jacobian",
    "epidemic_theta", "epidemic_simulate", "epidemic_init_sampler",
    "epidemic_indicator", "epidemic_bridge_builder", "epidemic_predict",
    "EpidemicSim", "EpidemicPrediction", "read_count_series",
]


# ---------------------------------------------------------------------------
# pendulum


def pendulum_drift(a):
    """Full-state drift of the pendulum, callable (x, t) -> (..., 2)."""
    a2 = float(a) ** 2

    def drift(x, t):
        return np.stack([x[..., 1], -a2 * np.sin(x[..., 0])], axis=-1)

    return drift


def pendulum_jacobian(a):
    """State Jacobian of the pendulum drift, callable (x, t) -> (..., 2, 2)."""
    a2 = float(a) ** 2

    def jac(x, t):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = -a2 * np.cos(x[..., 0])
        return out

    return jac


def pendulum_model(a=1.0, q=0.01, initial_sampler=None):
    """Split-form pendulum model (angle is the noise-free block).

    Args:
        a: angular frequency parameter, > 0.
        q: diffusion coefficient of the velocity noise, > 0.
        initial_sampler: optional rng -> (2,) initial state draw.

    Returns:
        SplitSdeModel with x1 = angle, x2 = velocity.
    """
    if a <= 0 or q <= 0:
        raise ValueError("need a > 0 and q > 0")
    a2 = float(a) ** 2
    return SplitSdeModel(
        dim_det=1, dim_stoch=1, dim_noise=1,
        drift_det=lambda x1, x2, t: x2,
        drift_stoch=lambda x1, x2, t: -a2 * np.sin(x1),
        dispersion=1.0, diffusion=float(q),
        initial_sampler=initial_sampler)


@dataclass
class PendulumSim:
    """Simulated pendulum truth and measurements."""

    times: np.ndarray
    states: np.ndarray
    ys: np.ndarray
    path_times: np.ndarray
    path: np.ndarray


def pendulum_simulate(a, q, x0, dt_meas, n_meas, obs_var, seed, n_fine=100):
    """Simulate a pendulum path on a fine grid and noisy angle readings.

    Args:
        a, q: model parameters.
        x0: initial state (2,).
        dt_meas: measurement spacing.
        n_meas: number of measurements (at dt_meas, 2 dt_meas, ...).
        obs_var: measurement noise variance.
        seed: master seed; path noise and measurement noise use separate
            child streams.
        n_fine: Euler steps per measurement interval for the truth path.

    Returns:
        PendulumSim; states holds the truth at the measurement times.
    """
    full = SdeModel(dim_state=2, dim_noise=1, drift=pendulum_drift(a),
                    dispersion=np.array([[0.0], [1.0]]), diffusion=float(q))
    times, states, ys, grid, path = _euler_readings(full, x0, dt_meas, n_meas,
                                                   obs_var, seed, n_fine)
    return PendulumSim(times=times, states=states, ys=ys,
                       path_times=grid.times, path=path)


def _euler_readings(model, x0, dt_meas, n_meas, obs_var, seed, n_fine):
    """Euler path of an SdeModel, n_fine steps per interval, and readings
    of its component 0 with N(0, obs_var) errors at dt_meas, 2 dt_meas, ...

    Path and readings draw from separate children of the seed.  x0 is the
    initial state, or a function of the path generator called before the
    path noise is drawn.  Returns (times, states, readings, grid, path).
    """
    path_ss, meas_ss = np.random.SeedSequence(seed).spawn(2)
    path_rng = np.random.default_rng(path_ss)
    if callable(x0):
        x0 = x0(path_rng)
    grid = TimeGrid(0.0, n_meas * dt_meas, n_meas * n_fine)
    incs = sample_brownian_increments(grid, model.diffusion, path_rng)
    path = integrate_sde(model, np.asarray(x0, dtype=float), grid, incs)
    idx = np.arange(1, n_meas + 1) * n_fine
    states = path[idx]
    ys = states[:, 0] + np.sqrt(obs_var) \
        * np.random.default_rng(meas_ss).standard_normal(n_meas)
    return grid.times[idx], states, ys, grid, path


def pendulum_bridge_builder(a, q, obs_var):
    """Proposal builder steering the velocity toward the next angle reading.

    Args:
        a, q: model parameters.
        obs_var: measurement variance used in the conditioning step; a
            float, or a callable pset -> per-particle variances (used by
            the conjugate filter with its running variance estimates).

    Returns:
        Builder callable (pset, grid, y) -> ImportanceSpec.
    """
    drift, jac = pendulum_drift(a), pendulum_jacobian(a)
    h_row = np.array([1.0, 0.0])
    r = obs_var if callable(obs_var) else lambda pset: obs_var
    return ekf_bridge_builder(
        lambda x, t: (drift(x, t), jac(x, t)), np.diag([0.0, float(q)]), 1,
        lambda pset, y: (h_row, r(pset), y))


# ---------------------------------------------------------------------------
# epidemic


def epidemic_drift(g):
    """Full-state drift over (x, y, lam), callable (x, t) -> (..., 3)."""
    g = float(g)

    def drift(state, t):
        x, y, lam = state[..., 0], state[..., 1], state[..., 2]
        flow = g * np.exp(lam) * y * x
        return np.stack([-flow, flow - g * y, np.zeros_like(x)], axis=-1)

    return drift


def epidemic_jacobian(g):
    """State Jacobian of the epidemic drift."""
    g = float(g)

    def jac(state, t):
        x, y, lam = state[..., 0], state[..., 1], state[..., 2]
        s = g * np.exp(lam)
        sy, sx = s * y, s * x
        sxy = sy * x
        out = np.zeros(state.shape[:-1] + (3, 3))
        out[..., 0, 0] = -sy
        out[..., 0, 1] = -sx
        out[..., 0, 2] = -sxy
        out[..., 1, 0] = sy
        out[..., 1, 1] = sx - g
        out[..., 1, 2] = sxy
        return out

    return jac


def _epidemic_constrain(x1, x2):
    return np.clip(x1, 0.0, 1.0), np.clip(x2, -20.0, 20.0)


def epidemic_model(g=1.0, q=0.001, initial_sampler=None):
    """Split-form epidemic model; (x, y) is the noise-free block.

    States are clamped after every Euler step: fractions to [0, 1] and
    the log rate to [-20, 20].

    Args:
        g: recovery rate, > 0.
        q: diffusion coefficient of the log contact rate, > 0.
        initial_sampler: optional rng -> (3,) draw of (x, y, lam).

    Returns:
        SplitSdeModel.
    """
    if g <= 0 or q <= 0:
        raise ValueError("need g > 0 and q > 0")
    g = float(g)

    def drift_det(x1, x2, t):
        x, y = x1[..., 0], x1[..., 1]
        flow = g * np.exp(x2[..., 0]) * y * x
        return np.stack([-flow, flow - g * y], axis=-1)

    return SplitSdeModel(
        dim_det=2, dim_stoch=1, dim_noise=1,
        drift_det=drift_det,
        drift_stoch=lambda x1, x2, t: np.zeros_like(x2),
        dispersion=1.0, diffusion=float(q),
        initial_sampler=initial_sampler,
        constrain=_epidemic_constrain)


def epidemic_init_sampler(beta_a=1.0, beta_b=100.0,
                          lam_mean=float(np.log(5.0)), lam_var=4.0):
    """Initial draw: y ~ Beta(a, b), x = 1 - y, lam ~ N(lam_mean, lam_var)."""
    sd = np.sqrt(lam_var)

    def sampler(rng):
        y = rng.beta(beta_a, beta_b)
        lam = lam_mean + sd * rng.standard_normal()
        return np.array([1.0 - y, y, lam])

    return sampler


def epidemic_theta(start_state, end_state):
    """Expected death fraction over one interval from its endpoint states.

    theta = (x + y) at the interval start minus (x + y) at its end, which
    along an Euler path equals the integral of g y dt over the interval.
    Floored at 1e-12 so Poisson likelihoods stay defined.

    Args:
        start_state: states at t_{k-1}, shape (..., >= 2); components
            0 and 1 are the susceptible and infective fractions.
        end_state: states at t_k, same shape.

    Returns:
        theta, shape (...,).
    """
    start = np.asarray(start_state, dtype=float)
    end = np.asarray(end_state, dtype=float)
    theta = (start[..., 0] + start[..., 1]) - (end[..., 0] + end[..., 1])
    return np.maximum(theta, 1e-12)


@dataclass
class EpidemicSim:
    """Simulated epidemic truth and weekly death counts."""

    times: np.ndarray
    states: np.ndarray
    counts: np.ndarray
    path_times: np.ndarray
    path: np.ndarray


def epidemic_simulate(g, q, n_true, y0, lam0, n_meas, seed, dt_meas=1.0,
                      n_fine=100):
    """Simulate an epidemic truth path and Poisson death counts.

    Args:
        g: recovery rate.
        q: diffusion of the log contact rate; 0 keeps lam frozen at lam0.
        n_true: true population size scaling the counts.
        y0: initial infective fraction (x0 = 1 - y0).
        lam0: initial log contact rate.
        n_meas: number of count intervals.
        seed: master seed (path noise and counts use separate streams).
        dt_meas: interval length.
        n_fine: Euler steps per interval for the truth path.

    Returns:
        EpidemicSim; counts[k] covers (times[k] - dt_meas, times[k]].
    """
    path_ss, count_ss = np.random.SeedSequence(seed).spawn(2)
    path_rng = np.random.default_rng(path_ss)
    count_rng = np.random.default_rng(count_ss)
    x0 = np.array([1.0 - y0, y0, lam0], dtype=float)
    grid = TimeGrid(0.0, n_meas * dt_meas, n_meas * n_fine)
    drift = epidemic_drift(g)

    dt = grid.dt
    state = x0.copy()
    path = np.empty((grid.n_steps + 1, 3))
    path[0] = state
    noise = np.sqrt(q * dt) * path_rng.standard_normal(grid.n_steps) \
        if q > 0 else np.zeros(grid.n_steps)
    for j in range(grid.n_steps):
        t = grid.t0 + j * dt
        state = state + drift(state, t) * dt
        state[2] += noise[j]
        state[:2] = np.clip(state[:2], 0.0, 1.0)
        state[2] = np.clip(state[2], -20.0, 20.0)
        path[j + 1] = state

    idx = np.arange(0, n_meas + 1) * n_fine
    theta = epidemic_theta(path[idx[:-1]], path[idx[1:]])
    counts = count_rng.poisson(n_true * theta)
    return EpidemicSim(times=grid.times[idx[1:]], states=path[idx[1:]],
                       counts=counts.astype(np.int64),
                       path_times=grid.times, path=path)


def epidemic_indicator(states, weights):
    """Weighted mean of exp(lam) x, the instantaneous reproduction factor.

    Values above one mean the infective fraction is still growing.
    """
    states = np.asarray(states, dtype=float)
    return float(np.asarray(weights) @ (np.exp(states[..., 2]) * states[..., 0]))


EKF_LOG_RATE_CAP = 3.0


def epidemic_bridge_builder(g, q, family):
    """Proposal builder nudging the log rate toward the next death count.

    Linearizes the count mean around each particle: d ~= N (c - x - y)
    with c the particle's current x + y and N its posterior-mean
    population size, conditions the EKF prediction on that pseudo
    measurement, and bridges the log rate component.  The pseudo
    measurement's variance d + 1 + d^2 / alpha (alpha the particle's
    Gamma shape) is the count's negative binomial predictive variance.

    The linearization is evaluated at states clipped into the model's
    box with the log rate capped at EKF_LOG_RATE_CAP, so particles far
    out in the prior tail cannot blow up the moment integration; this
    only shapes the proposal, the weights stay exact for it.

    Args:
        g, q: model parameters.
        family: the Gamma-Poisson ConjugateFamily carrying N's posterior.

    Returns:
        Builder callable (pset, grid, d) -> ImportanceSpec.
    """
    drift, jac = epidemic_drift(g), epidemic_jacobian(g)

    def linearize(x, t):
        boxed = np.array(x, dtype=float, copy=True)
        boxed[..., :2] = np.clip(boxed[..., :2], 0.0, 1.0)
        boxed[..., 2] = np.minimum(boxed[..., 2], EKF_LOG_RATE_CAP)
        return drift(boxed, t), jac(boxed, t)

    def measure(pset, d):
        n_hat = family.point_estimate(pset.stats)
        h = np.zeros((pset.n, 1, 3))
        h[:, 0, 0] = -n_hat
        h[:, 0, 1] = -n_hat
        d = float(d)
        r = d + 1.0 + d * d / pset.stats[:, 0]
        c = pset.states[:, 0] + pset.states[:, 1]
        return h, r, (d - n_hat * c)[:, None]

    return ekf_bridge_builder(linearize, np.diag([0.0, 0.0, float(q)]), 2,
                              measure)


@dataclass
class EpidemicPrediction:
    """Forward-simulated epidemic outlook from a filtered population.

    Attributes:
        peak_times: per simulation, the future interval end with the
            largest expected deaths (n_sims,).
        total_deaths: per simulation, population size times the dead
            fraction at the horizon end (n_sims,).
        thetas: per-interval expected death fractions (n_sims, J).
    """

    peak_times: np.ndarray
    total_deaths: np.ndarray
    thetas: np.ndarray


def epidemic_predict(pset, model, family, t_now, horizon, n_sims, rng,
                     n_steps=10):
    """Forward-simulate filtered particles over future count intervals.

    Each of n_sims draws picks a particle by weight, draws a population
    size from that particle's Gamma posterior, and runs the epidemic SDE
    forward.  The peak estimate for a simulation is the end of the future
    interval with the largest N theta; total deaths are N (1 - x - y) at
    the horizon end (the dead fraction accumulates from the epidemic
    start, so this includes deaths already observed).

    Args:
        pset: filtered ParticleSet with Gamma statistics payload.
        model: the epidemic SplitSdeModel.
        family: Gamma-Poisson ConjugateFamily.
        t_now: time of the filtered population (start of the first
            future interval).
        horizon: future interval endpoints, strictly increasing, all
            greater than t_now.
        n_sims: number of forward simulations.
        rng: numpy Generator for all prediction randomness.
        n_steps: Euler steps per interval.

    Returns:
        EpidemicPrediction.
    """
    horizon = np.asarray(horizon, dtype=float)
    if horizon.ndim != 1 or horizon.size == 0 or horizon[0] <= t_now \
            or np.any(np.diff(horizon) <= 0):
        raise ValueError("horizon must be strictly increasing past t_now")
    w = pset.weights
    idx = rng.choice(pset.n, size=n_sims, p=w / w.sum())
    states = pset.states[idx].copy()
    n_draw = family.sample(pset.stats[idx], rng, 1)

    q = model.diffusion.at(t_now)[0, 0]
    thetas = np.empty((n_sims, horizon.size))
    starts = np.concatenate([[t_now], horizon[:-1]])

    x1, x2 = states[:, :2], states[:, 2:]
    for j, (ta, tb) in enumerate(zip(starts, horizon)):
        begin = x1.copy()
        dt = (tb - ta) / n_steps
        for i in range(n_steps):
            t = ta + i * dt
            f1 = model.drift_det(x1, x2, t)
            x1 = x1 + f1 * dt
            x2 = x2 + np.sqrt(q * dt) * rng.standard_normal(x2.shape)
            if model.constrain is not None:
                x1, x2 = model.constrain(x1, x2)
        thetas[:, j] = epidemic_theta(begin, x1)
    peak_times = horizon[np.argmax(thetas, axis=1)]
    total_deaths = n_draw * (1.0 - x1[:, 0] - x1[:, 1])
    return EpidemicPrediction(peak_times=peak_times, total_deaths=total_deaths,
                              thetas=thetas)


# ---------------------------------------------------------------------------
# count series I/O


def _read_series(path, header):
    """(times, values) float arrays from the first two columns of a CSV.

    Blank and '#' lines are skipped; the header's leading names must be
    `header`.  ValueError unless the file opens and holds at least one
    row, every row two finite numbers, times strictly increasing.
    """
    times, values = [], []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        raise ValueError("measurement file not found: %s" % path)
    with fh:
        names = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if names is None:
                names = [c.strip().lower() for c in line.split(",")]
                if names[:len(header)] != list(header):
                    raise ValueError("expected header starting with %r in %s, "
                                     "got %r" % (",".join(header), path, line))
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ValueError("malformed row %r in %s" % (line, path))
            try:
                times.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError:
                raise ValueError("non-numeric row %r in %s" % (line, path))
    if not times:
        raise ValueError("no data rows in %s" % path)
    times, values = np.asarray(times), np.asarray(values)
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise ValueError("non-finite time or value in %s" % path)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing in %s" % path)
    return times, values


def read_count_series(path):
    """Read a death-count CSV with header week,deaths.

    Lines starting with '#' are ignored.  Weeks must be finite and
    strictly increasing, counts nonnegative integers below 2**63.

    Returns:
        (times (K,) floats, counts (K,) int64).

    Raises:
        ValueError: missing file, malformed rows, non-finite values,
            negative/non-integer counts, or non-increasing weeks.
    """
    times, counts = _read_series(path, ("week", "deaths"))
    bad = (counts < 0) | (counts != np.floor(counts)) | (counts >= 2.0 ** 63)
    if np.any(bad):
        raise ValueError("counts must be nonnegative integers, got %r in %s"
                         % (float(counts[bad][0]), path))
    return times, counts.astype(np.int64)
