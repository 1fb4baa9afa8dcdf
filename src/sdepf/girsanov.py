"""Coupled proposal simulation and likelihood-ratio weights.

Particles are propagated under an importance SDE with the model's own
dispersion,

    ds = g(s, t) dt + L(t) dbeta,

and the running log likelihood ratio Lambda between the law of the
target SDE (drift f, dispersion L) and the law of s accumulates, per
Euler step with left-endpoint evaluation,

    d(s, t) = f(s, t) - g(s, t)
    dLambda = d^T L^-T Q^-1 dbeta - 0.5 d^T (L Q L^T)^-1 d dt.

exp(Lambda) is then the importance weight correcting expectations under
the proposal back to the target law.  For the Euler discretization this
weight is the exact likelihood ratio of the two discrete chains, so
E[exp(Lambda)] = 1 holds at any step size, not just in the limit.

One loop, _coupled_loop, runs this recursion for every filter.  Its state
is split into a noise-free block, moved by forward Euler (absent for a
plain SdeModel), and the noise-driven block above.  propagate_coupled and
propagate_coupled_split are its entry points for SdeModel and
SplitSdeModel, and the marginalized Gaussian filter calls it with a
per-step hook that moves the conditional moments along the sampled path.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import as_square_matrix, guarded_inv, mat_mul, mat_vec, quad_form
from .sde import _check_finite, _increment_values

__all__ = [
    "ImportanceSpec", "CoupledResult", "prior_proposal", "propagate_coupled",
    "propagate_coupled_split", "estimate_kl",
]


@dataclass
class ImportanceSpec:
    """Importance (proposal) SDE for one propagation interval.  It keeps
    the model's dispersion L and replaces only the drift.

    Attributes:
        drift: proposal drift g.  Its signature mirrors the drift of the
            model it is used with: (s, t) for SdeModel, (s1, s2, t) for
            SplitSdeModel.  May return per-particle batched values.
    """

    drift: object


@dataclass
class CoupledResult:
    """Endpoint of one coupled propagation interval.

    Attributes:
        state: s(t1), the weighted particle state (..., n); for a split
            model the blocks (s1, s2) concatenated.
        llr: accumulated log likelihood ratio Lambda(t1), shape (...,).
        model_noise: if requested, the Brownian increments (...,
            n_steps, s) under which the model's own Euler chain
            reproduces the s path; otherwise None.
    """

    state: np.ndarray
    llr: np.ndarray
    model_noise: np.ndarray = None


def prior_proposal(model):
    """Bootstrap proposal: simulate the model itself, weights stay one.

    Works for SdeModel, SplitSdeModel and any model exposing a
    drift_stoch attribute for its noise-driven block.
    """
    return ImportanceSpec(drift=_prior_drift(model))


def _prior_drift(model):
    stoch = getattr(model, "drift_stoch", None)
    return model.drift if stoch is None else stoch


def _is_prior(model, imp):
    """Whether imp is the bootstrap proposal of model.  The loop then
    takes the model's stochastic drift to be the proposal's, leaves Lambda
    at exactly zero, which is what the full recursion computes there, and
    builds none of the inverses that only Lambda reads."""
    return imp.drift is _prior_drift(model)


class _LlrOps:
    """Matrices used by the Euler and log-likelihood-ratio steps, built
    once per time.

    l_mat is L, l_inv is L^-1 (also the check that L is invertible),
    a_lin is L^-T Q^-1 and a_quad is (L Q L^T)^-1.  The last two exist
    only when Lambda is accumulated (weighted).
    """

    def __init__(self, l_mat, q_mat, t, weighted):
        self.l_mat = l_mat
        self.l_inv = guarded_inv(l_mat, "dispersion L", t)
        if weighted:
            self.a_lin = mat_mul(np.swapaxes(self.l_inv, -1, -2),
                                 guarded_inv(q_mat, "diffusion Q", t))
            self.a_quad = guarded_inv(
                mat_mul(mat_mul(l_mat, q_mat), np.swapaxes(l_mat, -1, -2)),
                "L Q L^T", t)


def _ops_at(model, grid, weighted):
    """t -> _LlrOps at t (with Lambda's inverses when weighted), built
    once per interval when the model's L and Q are both constant."""
    def build(t):
        return _LlrOps(model.dispersion.at(t), model.diffusion.at(t), t,
                       weighted)
    if model.dispersion.constant and model.diffusion.constant:
        ops = build(grid.t0)
        return lambda t: ops
    return build


def _llr_kernel(llr, f_val, g_val, ops, dt, dbeta):
    d = f_val - g_val
    lin = np.sum(d * mat_vec(ops.a_lin, dbeta), axis=-1)
    quad = quad_form(d, ops.a_quad)
    return llr + lin - 0.5 * quad * dt


def _model_increment(ops, step, f_val, dt):
    """Brownian increment under which the model's Euler step f dt + L db
    equals the proposal step (before any constraint)."""
    return mat_vec(ops.l_inv, step - f_val * dt)


def _drift_at(drift, s1, s2, t):
    return np.asarray(drift(s1, s2, t), dtype=float)


def _euler(s1, f1_val, s2, ds2, dt, constrain):
    """Move the noise-free block (None if absent) by forward Euler and the
    stochastic block by ds2, then apply constrain if given.  Also returns
    the sum of the moved blocks before and after constrain, non-finite if
    an entry is or a drift was (even one constrain clipped) or on overflow."""
    s1 = None if s1 is None else s1 + f1_val * dt
    s2 = s2 + ds2
    moved = [s1, s2]
    if constrain is not None:
        s1, s2 = constrain(s1, s2)
        moved += [s1, s2]
    return s1, s2, sum(b.sum() for b in moved if b is not None)


def _joined(s1, s2):
    return s2 if s1 is None else np.concatenate([s1, s2], axis=-1)


def _on_stoch(drift):
    """An (x, t) drift as an (s1, s2, t) drift of the stochastic block."""
    return lambda s1, s2, t: drift(s2, t)


def _coupled_loop(model, imp, x1_prev, x2_prev, grid, incs,
                  record_noise=False, on_step=None):
    """The coupled Euler/Lambda recursion of every filter.

    Runs the states (s1, s2) and Lambda over the grid on the shared
    increments.  The noise-free block s1 moves by forward Euler; the
    weight uses the stochastic-block drifts.  Each step sums its moved
    blocks (and Lambda when weighted); only a non-finite sum checks each
    drift and state to name the first one.

    Args:
        model: SdeModel, whose drift and imp's take (s, t), or a model with
            drift_det and drift_stoch, whose drifts and imp's take
            (s1, s2, t); its constrain, if any, maps (s1, s2) -> (s1, s2)
            after every step.  It also supplies L and Q.
        imp: ImportanceSpec.
        x1_prev: noise-free block states (..., d1) at grid.t0; None for an
            SdeModel.
        x2_prev: stochastic block states (..., d2) at grid.t0.
        grid: TimeGrid.
        incs: BrownianIncrements or array (..., n_steps, d2).
        record_noise: also return the model increments of the s path.
        on_step: optional (s1, s2, t) called at the start of each step,
            before the states move.

    Returns:
        CoupledResult; its state is the stochastic block when x1_prev is
        None and the blocks concatenated otherwise.
    """
    if x1_prev is None:
        f1, f2, g = None, _on_stoch(model.drift), _on_stoch(imp.drift)
    else:
        f1, f2, g = model.drift_det, model.drift_stoch, imp.drift
    constrain = getattr(model, "constrain", None)
    prior = _is_prior(model, imp)
    s1 = None if x1_prev is None else np.asarray(x1_prev, dtype=float).copy()
    s2 = np.asarray(x2_prev, dtype=float).copy()
    vals = _increment_values(incs, grid)
    llr = np.zeros(s2.shape[:-1])
    dt = grid.dt
    noise = np.empty(vals.shape) if record_noise else None
    ops_at = _ops_at(model, grid, not prior)

    for j in range(grid.n_steps):
        t = grid.t0 + j * dt
        if on_step is not None:
            on_step(s1, s2, t)
        ops = ops_at(t)
        g_val = _drift_at(g, s1, s2, t)
        f1_val = None if s1 is None else _drift_at(f1, s1, s2, t)
        f2_val = g_val if prior else _drift_at(f2, s1, s2, t)
        db = vals[..., j, :]
        ds2 = g_val * dt + mat_vec(ops.l_mat, db)
        if record_noise:
            noise[..., j, :] = _model_increment(ops, ds2, f2_val, dt)
        s1, s2, screen = _euler(s1, f1_val, s2, ds2, dt, constrain)
        if not prior:
            llr = _llr_kernel(llr, f2_val, g_val, ops, dt, db)
            screen += llr.sum()
        if not np.isfinite(screen):   # name the first, in the order read
            for what, val, at in (("proposal drift", g_val, t),
                                  ("drift", f1_val, t), ("drift", f2_val, t),
                                  ("state", s1, t + dt),
                                  ("state", s2, t + dt)):
                if val is not None:
                    _check_finite(val, what, at)
    _check_finite(llr, "log likelihood ratio", grid.t1)
    return CoupledResult(_joined(s1, s2), llr, noise)


def propagate_coupled(model, imp, x_prev, grid, incs, record_noise=False):
    """Propagate the proposal state and its weight over one interval.

    Runs the proposal SDE and the Lambda recursion in lockstep over every
    step of the grid, sharing the given increments.

    Args:
        model: SdeModel (target dynamics).
        imp: ImportanceSpec (proposal dynamics).
        x_prev: particle states at grid.t0, shape (..., n).
        grid: TimeGrid for the interval.
        incs: BrownianIncrements (..., n_steps, s) matching the batch.
        record_noise: also return the model increments of the s path.

    Returns:
        CoupledResult with s(t1) and Lambda(t1).
    """
    return _coupled_loop(model, imp, None, x_prev, grid, incs,
                         record_noise=record_noise)


def propagate_coupled_split(model, imp, x1_prev, x2_prev, grid, incs,
                            record_noise=False):
    """propagate_coupled for split models (noise-free block included).

    The noise-free block advances by forward Euler alongside the
    stochastic block; the weight recursion uses the stochastic-block
    drifts only.

    Args:
        model: SplitSdeModel.
        imp: ImportanceSpec with drift g2(s1, s2, t).
        x1_prev: noise-free block states (..., d1) at grid.t0.
        x2_prev: stochastic block states (..., d2) at grid.t0.
        grid: TimeGrid.
        incs: BrownianIncrements (..., n_steps, d2).
        record_noise: also return the model increments of the s path.

    Returns:
        CoupledResult whose state holds the blocks (s1, s2) concatenated.
    """
    return _coupled_loop(model, imp, x1_prev, x2_prev, grid, incs,
                         record_noise=record_noise)


def estimate_kl(drift_p, drift_q, sigma, paths, grid):
    """Monte Carlo estimate of KL[q || p] between two SDE laws.

    Both laws share the diffusion term with constant covariance sigma;
    they differ only in drift.  Along paths sampled under the q-law,

        KL = E_q[ 0.5 * integral (f_p - f_q)^T sigma^-1 (f_p - f_q) dt ],

    discretized with left-endpoint evaluation on the grid.

    Args:
        drift_p: drift of the reference law, callable (x, t).
        drift_q: drift of the sampling law, callable (x, t).
        sigma: diffusion covariance (scalar or matrix).
        paths: states under q, shape (n_paths, n_steps + 1, n).
        grid: TimeGrid the paths were simulated on.

    Returns:
        Scalar KL estimate (nonnegative up to Monte Carlo noise).
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim == 2:
        paths = paths[None]
    if paths.shape[-2] != grid.n_steps + 1:
        raise ValueError("paths have %d grid points, grid has %d"
                         % (paths.shape[-2], grid.n_steps + 1))
    sig_inv = guarded_inv(as_square_matrix(sigma, "sigma"), "sigma")
    dt = grid.dt
    total = np.zeros(paths.shape[0])
    for j in range(grid.n_steps):
        t = grid.t0 + j * dt
        x = paths[:, j, :]
        delta = np.asarray(drift_p(x, t), dtype=float) \
            - np.asarray(drift_q(x, t), dtype=float)
        total += quad_form(delta, sig_inv) * dt
    return float(0.5 * np.mean(total))
