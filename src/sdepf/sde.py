"""Time grids, Brownian increments and Euler-Maruyama integration.

State-space convention used throughout the package: dynamics follow

    dx = f(x, t) dt + L(t) dbeta,

where beta is Brownian motion with diffusion matrix Q(t), i.e. increments
over dt are N(0, Q(t) dt).  Drift callables must be vectorized over
arbitrary leading batch axes, so f applied to states of shape (N, n)
returns (N, n).  Dispersion and diffusion may be given as constant
arrays (scalars are promoted to 1x1) or callables of time.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import TimeMatrix, mat_vec
from .exceptions import DiffusionError, IntegrationError

__all__ = [
    "TimeGrid", "DiffusionSpec", "SdeModel", "SplitSdeModel",
    "BrownianIncrements", "sample_brownian_increments", "integrate_sde",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid over one interval [t0, t1].

    Attributes:
        t0: left endpoint.
        t1: right endpoint, strictly greater than t0.
        n_steps: Euler steps, an int >= 1 (the grid has n_steps + 1 points).
    """

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise ValueError("grid endpoints must be finite")
        if self.t1 <= self.t0:
            raise ValueError("need t1 > t0, got [%g, %g]" % (self.t0, self.t1))
        n = self.n_steps
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("n_steps must be an int >= 1, got %r" % (n,))

    @property
    def dt(self):
        return (self.t1 - self.t0) / self.n_steps

    @property
    def span(self):
        return self.t1 - self.t0

    @property
    def times(self):
        """All n_steps + 1 grid points including both endpoints."""
        return np.linspace(self.t0, self.t1, self.n_steps + 1)


class DiffusionSpec:
    """Diffusion matrix Q(t) of the driving Brownian motion.

    Accepts a constant (scalar, 1-d diagonal, or square array) or a
    callable t -> array.  Q must be symmetric positive definite wherever
    it is evaluated.  For constant Q the Cholesky factor is cached so
    repeated sampling does not refactorize.
    """

    def __init__(self, q):
        self._mat = TimeMatrix(q, "diffusion Q")
        self._chol_cache = None
        if self._mat.constant:
            self.dim = self._mat.at(0.0).shape[0]
        else:
            self.dim = None

    @property
    def constant(self):
        return self._mat.constant

    def at(self, t):
        """Q evaluated at time t, validated square and symmetric."""
        q = self._mat.at(t)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DiffusionError("Q must be square, got shape %s at t=%g"
                                 % (q.shape, t))
        if not np.allclose(q, q.T, rtol=1e-9, atol=1e-12):
            raise DiffusionError("Q is not symmetric at t=%g" % t)
        return q

    def chol(self, t):
        """Lower Cholesky factor of Q(t).

        Raises:
            DiffusionError: if Q(t) is not positive definite.
        """
        if self.constant and self._chol_cache is not None:
            return self._chol_cache
        q = self.at(t)
        try:
            c = np.linalg.cholesky(q)
        except np.linalg.LinAlgError:
            raise DiffusionError("Q is not positive definite at t=%g" % t)
        if self.constant:
            self._chol_cache = c
        return c


@dataclass
class SdeModel:
    """SDE with drift f(x, t), dispersion L(t) and diffusion Q(t).

    Args:
        dim_state: state dimension n.
        dim_noise: Brownian dimension s.
        drift: callable (x, t) -> drift, batched over leading axes of x.
        dispersion: L, constant array (n x s) or callable of t; a
            scalar value is 1x1 and a 1-d value diagonal.
        diffusion: DiffusionSpec for Q (s x s), or anything it accepts.
        initial_sampler: optional callable rng -> one draw of x(t0),
            shape (dim_state,).
    """

    dim_state: int
    dim_noise: int
    drift: object
    dispersion: object
    diffusion: object
    initial_sampler: object = None

    def __post_init__(self):
        _wrap_noise(self, self.dim_state, self.dim_noise)


def _check_shape(name, shape, want):
    """ValueError naming both shapes unless shape == want."""
    if shape != want:
        raise ValueError("%s: shape %s, but the model's dimensions need %s"
                         % (name, shape, want))


def _wrap_noise(model, rows, s):
    """Wrap a model's L and Q as a TimeMatrix and a DiffusionSpec; a
    constant L must be rows x s and a constant Q s x s."""
    if not isinstance(model.diffusion, DiffusionSpec):
        model.diffusion = DiffusionSpec(model.diffusion)
    if not isinstance(model.dispersion, TimeMatrix):
        model.dispersion = TimeMatrix(model.dispersion, "dispersion L")
    for mat, want in ((model.dispersion, (rows, s)),
                      (model.diffusion._mat, (s, s))):
        if mat.constant:
            _check_shape(mat.name, mat.at(0.0).shape, want)


@dataclass
class SplitSdeModel:
    """SDE whose dispersion is singular: a noise-free block rides on top.

    The state splits as x = (x1, x2) with

        dx1/dt = f1(x1, x2, t)              (no direct noise)
        dx2    = f2(x1, x2, t) dt + L(t) dbeta

    where L(t) restricted to the x2 block is square and invertible.
    dim_det may be zero, which recovers a plain SDE in split clothing.

    constrain, if given, maps (x1, x2) -> (x1, x2) and is applied after
    every Euler step (used for models whose states live in a box).
    """

    dim_det: int
    dim_stoch: int
    dim_noise: int
    drift_det: object
    drift_stoch: object
    dispersion: object
    diffusion: object
    initial_sampler: object = None
    constrain: object = None

    def __post_init__(self):
        if self.dim_stoch != self.dim_noise:
            raise ValueError("stochastic block must be square in the noise "
                             "(dim_stoch=%d, dim_noise=%d)"
                             % (self.dim_stoch, self.dim_noise))
        _wrap_noise(self, self.dim_stoch, self.dim_noise)

    @property
    def dim_state(self):
        return self.dim_det + self.dim_stoch

    def split(self, x):
        """Slice a full state array into its (x1, x2) blocks."""
        return x[..., :self.dim_det], x[..., self.dim_det:]


class BrownianIncrements:
    """Increments of the driving Brownian motion on a grid.

    Attributes:
        values: array (..., n_steps, s); values[..., j, :] is
            beta(t_{j+1}) - beta(t_j), distributed N(0, Q(t_j) dt).
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim < 2:
            raise ValueError("increments need shape (..., n_steps, s)")

    @classmethod
    def from_noise(cls, grid, diffusion, noise):
        """Scale standard normal draws into new Brownian increments; noise
        (replays pass recorded path noise) is never written into.

        Args:
            grid: TimeGrid.
            diffusion: DiffusionSpec.
            noise: standard normals, shape (..., n_steps, s).

        Returns:
            BrownianIncrements with values chol(Q(t_j) dt) @ noise_j.
        """
        return cls(_scale_noise(grid, diffusion, np.array(noise, dtype=float)))


def _scale_noise(grid, diffusion, noise):
    """chol(Q(t_j)) @ noise_j * sqrt(dt) of noise (..., n_steps, s), which
    the caller hands over: a 1x1 factor scales it in place, elementwise
    with mat_vec's bits (the products commute; + 0.0 turns -0 into +0 as
    np.matmul does), and a d x d one makes np.matmul's product."""
    if noise.shape[-2] != grid.n_steps:
        raise ValueError("noise has %d steps, grid has %d"
                         % (noise.shape[-2], grid.n_steps))
    if diffusion.constant:
        chol = diffusion.chol(grid.t0)
    else:
        chol = np.stack([diffusion.chol(t) for t in grid.times[:-1]])
    if chol.shape[-2:] == (1, 1) and noise.shape[-1] == 1:
        out = np.multiply(noise, chol[..., 0], out=noise)
        out += 0.0
    else:
        out = mat_vec(chol, noise)
    out *= np.sqrt(grid.dt)
    return out


def sample_brownian_increments(grid, diffusion, rng, n_paths=None):
    """Draw Brownian increments for every step of a grid.

    The standard-normal block is one draw from rng, scaled into the
    increments in place, bit for bit as BrownianIncrements.from_noise
    scales it; so it is the one block-sized allocation (a d x d Q,
    d > 1, adds np.matmul's product).

    Args:
        grid: TimeGrid.
        diffusion: DiffusionSpec (or compatible input).
        rng: numpy Generator.
        n_paths: optional leading batch size; default one path.

    Returns:
        BrownianIncrements with values of shape (n_steps, s) or
        (n_paths, n_steps, s).
    """
    if not isinstance(diffusion, DiffusionSpec):
        diffusion = DiffusionSpec(diffusion)
    s = diffusion.dim
    if s is None:
        s = diffusion.at(grid.t0).shape[0]
    shape = (grid.n_steps, s) if n_paths is None else (n_paths, grid.n_steps, s)
    return BrownianIncrements(_scale_noise(grid, diffusion,
                                           rng.standard_normal(shape)))


def _increment_values(incs, grid):
    """The (..., n_steps, s) values of incs (BrownianIncrements or array),
    checked against the grid's step count."""
    vals = incs.values if isinstance(incs, BrownianIncrements) \
        else np.asarray(incs, dtype=float)
    if vals.shape[-2] != grid.n_steps:
        raise ValueError("increments cover %d steps, grid has %d"
                         % (vals.shape[-2], grid.n_steps))
    return vals


def _check_finite(arr, what, t):
    if not np.all(np.isfinite(arr)):
        raise IntegrationError("%s became non-finite at t=%g" % (what, t))


def integrate_sde(model, x0, grid, incs):
    """Euler-Maruyama integration of an SdeModel over one grid.

    Args:
        model: SdeModel.
        x0: initial states (..., n).
        grid: TimeGrid.
        incs: BrownianIncrements with matching batch shape and n_steps.

    Returns:
        Path array of shape (n_steps + 1, ..., n); path[0] is x0.
    """
    x = np.asarray(x0, dtype=float)
    vals = _increment_values(incs, grid)
    dt = grid.dt
    l_const = model.dispersion.constant
    l_mat = model.dispersion.at(grid.t0) if l_const else None
    path = np.empty((grid.n_steps + 1,) + x.shape)
    path[0] = x
    for j in range(grid.n_steps):
        t = grid.t0 + j * dt
        fx = np.asarray(model.drift(x, t), dtype=float)
        _check_finite(fx, "drift", t)
        lj = l_mat if l_const else model.dispersion.at(t)
        x = x + fx * dt + mat_vec(lj, vals[..., j, :])
        _check_finite(x, "state", t + dt)
        path[j + 1] = x
    return path
