"""The four benchmark workloads: inputs, construction, one call, checks.

Each workload simulates its measurement inputs from the run's seed with
the package's own simulators, builds its model and proposal through the
public API, and exposes one call that runs the whole filter.  Every call
is checked: against an exact chain Kalman filter where the model is
linear-Gaussian on the Euler chain (ou, lineargauss), and for
finiteness, row counts and a wide band around the simulated truth of the
static parameter otherwise (pendulum, epidemic).  No check compares
against a frozen digest, so a change of the seed-to-number mapping keeps
every check valid.

Package names are looked up at call time (``sdepf.models.x`` rather than
``from sdepf.models import x``) so that the traced run's wrappers, which
replace module attributes, see every call.
"""

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

import sdepf
import sdepf.cli
import sdepf.filtering
import sdepf.models
import sdepf.raoblackwell

from oracle import chain_kalman

# Chain-Kalman gate, in Monte Carlo standard errors.  The standard error
# of a filtered mean at step k is sqrt(P_k / ESS_k), with P_k the exact
# posterior variance and ESS_k the step's effective sample size; that of
# the log marginal is sqrt(sum_k 1 / ESS_k).  Over 180 filter runs of
# these two models (ou at N = 3e3, lineargauss at N = 2e3, three data
# sets each) the largest per-step |z| was 7.3, the largest RMS over
# steps 2.8 and the largest log-marginal |z| 2.5.
Z_MAX = 10.0
Z_RMS = 4.0
Z_LOG_ML = 6.0

# The static parameter's posterior mean after the last update must lie
# within this factor of the simulated truth.
THETA_BAND = 4.0


@dataclass
class Inputs:
    """Simulated measurements plus what the checks need."""

    times: np.ndarray
    ys: np.ndarray
    theta_true: float = float("nan")
    oracle: object = None
    files: dict = field(default_factory=dict)


def _digest_result(result):
    h = hashlib.sha256()
    for row in result.summaries:
        h.update(np.asarray([row.k, row.t, row.ess, row.log_marginal,
                             float(row.resampled)], dtype=float).tobytes())
        h.update(np.asarray(row.mean, dtype=float).tobytes())
        h.update(np.asarray(row.var, dtype=float).tobytes())
        for key in sorted(row.extra):
            h.update(key.encode())
            h.update(np.float64(row.extra[key]).tobytes())
    return h.hexdigest()


def _kalman_gate(result, oracle, components):
    """Compare filtered means and log marginal with the exact chain filter.

    Only the given state components are compared.  Returns (ok, detail).
    """
    rows = result.summaries[1:]
    means = np.array([r.mean for r in rows])
    ess = np.array([r.ess for r in rows])
    if means.shape != oracle.means.shape:
        return False, "summary shape %s, oracle %s" % (means.shape,
                                                        oracle.means.shape)
    idx = list(components)
    se = np.sqrt(oracle.variances[:, idx] / ess[:, None])
    z = np.abs(means[:, idx] - oracle.means[:, idx]) / se
    z_max = float(np.max(z))
    z_rms = float(np.sqrt(np.mean(z * z)))
    z_ml = abs(result.log_marginal - oracle.log_ml) / math.sqrt(np.sum(1.0 / ess))
    detail = "chain Kalman: max|z| %.2f (<= %g), rms z %.2f (<= %g), " \
             "log-marginal |z| %.2f (<= %g)" % (z_max, Z_MAX, z_rms, Z_RMS,
                                               z_ml, Z_LOG_ML)
    ok = z_max <= Z_MAX and z_rms <= Z_RMS and z_ml <= Z_LOG_ML
    return ok, detail


def _theta_gate(rows_finite, n_rows, n_expected, theta_final, theta_true):
    lo, hi = theta_true / THETA_BAND, theta_true * THETA_BAND
    detail = "rows %d (want %d), finite %s, final theta mean %.6g in " \
             "[%.6g, %.6g]" % (n_rows, n_expected, rows_finite, theta_final,
                               lo, hi)
    ok = rows_finite and n_rows == n_expected and lo <= theta_final <= hi
    return ok, detail


# Spans the traced run must record on every workload.
COMMON_LAYERS = ("filtering.run_filter", "filtering.seed_streams",
                 "filtering.init_particle_set", "filtering.draw_increments",
                 "filtering.chunk_map", "linalg.guarded_inv",
                 "filtering.finish_step")
CONJUGATE_LAYERS = ("girsanov.propagate_coupled_split", "proposals.builder",
                    "proposals.ekf_predict", "proposals.ekf_condition",
                    "proposals.build_bridge", "raoblackwell.rb_param_step",
                    "conjugate.log_marginal", "conjugate.update",
                    "conjugate.sample")


class Workload:
    """One named workload.  Subclasses fill in the four hooks."""

    name = ""
    why = ""
    layers = COMMON_LAYERS
    n_particles = 0
    intervals = 0
    steps = 10
    threads = 1

    def simulate(self, seed, workdir):
        """Make the measurement inputs from the seed."""
        raise NotImplementedError

    def build(self, inputs, seed, threads, workdir, first_only=False):
        """Construct model objects; return call(on_step) -> outcome.

        With first_only the call filters the first measurement alone:
        the work up to the first update is the same as in a full call.
        """
        raise NotImplementedError

    def check(self, outcome, inputs):
        """(ok, detail) for one call's outcome."""
        raise NotImplementedError

    def digest(self, outcome):
        return _digest_result(outcome)

    def sizes(self):
        return {"n_particles": self.n_particles, "intervals": self.intervals,
                "steps_per_interval": self.steps, "threads": self.threads}

    def particle_steps(self):
        return self.n_particles * self.steps * self.intervals


def _run_filter_call(model, proposal, meas, inputs, config, first_only,
                     **kwargs):
    end = 1 if first_only else None
    times, ys = inputs.times[:end], inputs.ys[:end]

    def call(on_step):
        return sdepf.run_filter(model, proposal, meas, times, ys, config,
                                step_callback=lambda k, t, pset, st: on_step(),
                                **kwargs)
    return call


class OuBoot(Workload):
    name = "ou_boot"
    why = ("cheapest drift and zero log-ratio: per-particle Python overhead "
           "(per-slot noise draws, seed_streams, init loop) dominates")
    n_particles = 30000
    intervals = 50
    layers = COMMON_LAYERS + ("girsanov.propagate_coupled",
                              "filtering.measurement",
                              "filtering.systematic_resample")
    rate, q, obs_var, x0_var, dt, n_fine = 1.0, 0.8, 0.25, 1.0, 0.5, 50

    def simulate(self, seed, workdir):
        path_ss, meas_ss = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(path_ss)
        model = sdepf.SdeModel(1, 1, lambda x, t: -self.rate * x, 1.0, self.q)
        grid = sdepf.TimeGrid(0.0, self.intervals * self.dt,
                              self.intervals * self.n_fine)
        x0 = np.array([math.sqrt(self.x0_var) * rng.standard_normal()])
        incs = sdepf.sample_brownian_increments(grid, model.diffusion, rng)
        path = sdepf.integrate_sde(model, x0, grid, incs)
        idx = np.arange(1, self.intervals + 1) * self.n_fine
        ys = path[idx, 0] + math.sqrt(self.obs_var) * \
            np.random.default_rng(meas_ss).standard_normal(self.intervals)
        return Inputs(grid.times[idx], ys)

    def build(self, inputs, seed, threads, workdir, first_only=False):
        sd0 = math.sqrt(self.x0_var)
        model = sdepf.SdeModel(
            1, 1, lambda x, t: -self.rate * x, 1.0, self.q,
            initial_sampler=lambda g: np.array([sd0 * g.standard_normal()]))
        meas = sdepf.filtering.gaussian_measurement(0, self.obs_var)
        config = sdepf.FilterConfig(n_particles=self.n_particles,
                                    n_steps=self.steps, seed=seed,
                                    threads=threads)
        return _run_filter_call(model, sdepf.prior_proposal(model), meas,
                                inputs, config, first_only, method="sir")

    def check(self, outcome, inputs):
        if inputs.oracle is None:
            inputs.oracle = chain_kalman(
                [[-self.rate]], [[1.0]], [[self.q]], [1.0], self.obs_var,
                [0.0], [[self.x0_var]], inputs.times, inputs.ys, self.steps)
        return _kalman_gate(outcome, inputs.oracle, (0,))


class PendulumParam(Workload):
    name = "pendulum_param"
    why = ("heaviest user of proposals (one EKF bridge per interval), of "
           "guarded_inv on per-particle batches and of the theta summary")
    n_particles = 5000
    intervals = 100
    layers = COMMON_LAYERS + CONJUGATE_LAYERS
    a, q, obs_var, init_var, dt, n_fine = 1.0, 0.01, 0.25, 0.25, 0.1, 100
    x0 = (1.5, 0.0)
    nu0, s20 = 2.0, 0.2

    def simulate(self, seed, workdir):
        sim = sdepf.models.pendulum_simulate(
            self.a, self.q, np.array(self.x0), self.dt, self.intervals,
            self.obs_var, seed, n_fine=self.n_fine)
        return Inputs(sim.times, sim.ys, theta_true=self.obs_var)

    def build(self, inputs, seed, threads, workdir, first_only=False):
        mean0, sd0 = np.array(self.x0), math.sqrt(self.init_var)
        model = sdepf.models.pendulum_model(
            self.a, self.q,
            initial_sampler=lambda g: mean0 + sd0 * g.standard_normal(2))
        family = sdepf.raoblackwell.invchi2_family(self.nu0, self.s20)
        builder = sdepf.models.pendulum_bridge_builder(
            self.a, self.q, lambda pset: family.point_estimate(pset.stats))
        config = sdepf.FilterConfig(n_particles=self.n_particles,
                                    n_steps=self.steps, seed=seed,
                                    threads=threads)
        return _run_filter_call(model, builder, None, inputs, config,
                                first_only, method="rb_param", family=family,
                                cond_fn=lambda x_prev, x_new: x_new[..., 0])

    def check(self, outcome, inputs):
        rows = outcome.summaries
        # The prior (nu0 = 2) has no mean, so theta_mean is NaN at k = 0.
        values = [v for r in rows for v in
                  (r.ess, r.log_marginal, *r.mean, *r.var,
                   *(r.extra.values() if r.k else ()))]
        return _theta_gate(bool(np.all(np.isfinite(values))), len(rows),
                           self.intervals + 1, rows[-1].extra["theta_mean"],
                           inputs.theta_true)


class LinearGaussRb(Workload):
    name = "lineargauss_rb"
    why = ("inline Euler/moment loop of rb_gauss_step and the innovation "
           "covariance guard; no bridge, no theta summary")
    n_particles = 20000
    intervals = 40
    layers = COMMON_LAYERS + ("raoblackwell.rb_gauss_step",
                              "raoblackwell.kalman_condition",
                              "raoblackwell.log_mvn_density")
    lin_rate, couple, q_eta, ou_rate, q_beta, obs_var = -0.5, 1.0, 0.3, 1.0, 0.4, 0.1
    m0, p0, x2_0, x3_0, x3_var, dt, n_fine = 0.0, 1.0, 0.0, 0.0, 0.5, 0.5, 50

    def _chain(self):
        a_mat = np.array([[self.lin_rate, 0.0, self.couple], [0.0, 0.0, 1.0],
                          [0.0, 0.0, -self.ou_rate]])
        l_mat = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        return a_mat, l_mat, np.diag([self.q_eta, self.q_beta])

    def simulate(self, seed, workdir):
        path_ss, meas_ss = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(path_ss)
        a_mat, l_mat, q_mat = self._chain()
        full = sdepf.SdeModel(3, 2, lambda x, t: x @ a_mat.T, l_mat, q_mat)
        grid = sdepf.TimeGrid(0.0, self.intervals * self.dt,
                              self.intervals * self.n_fine)
        x0 = np.array([self.m0 + math.sqrt(self.p0) * rng.standard_normal(),
                       self.x2_0,
                       self.x3_0 + math.sqrt(self.x3_var) * rng.standard_normal()])
        incs = sdepf.sample_brownian_increments(grid, full.diffusion, rng)
        path = sdepf.integrate_sde(full, x0, grid, incs)
        idx = np.arange(1, self.intervals + 1) * self.n_fine
        ys = path[idx, 0] + math.sqrt(self.obs_var) * \
            np.random.default_rng(meas_ss).standard_normal(self.intervals)
        return Inputs(grid.times[idx], ys)

    def build(self, inputs, seed, threads, workdir, first_only=False):
        def const(value):
            def fn(x2, x3, t):
                out = np.empty(x3.shape[:-1] + (1, 1))
                out[...] = value
                return out
            return fn

        sd3 = math.sqrt(self.x3_var)
        model = sdepf.CondGaussModel(
            dim_lin=1, dim_det=1, dim_stoch=1,
            lin_coeff=const(self.lin_rate),
            lin_shift=lambda x2, x3, t: self.couple * x3,
            lin_noise=const(1.0), lin_diffusion=self.q_eta,
            drift_det=lambda x2, x3, t: x3,
            drift_stoch=lambda x2, x3, t: -self.ou_rate * x3,
            dispersion=1.0, diffusion=self.q_beta,
            meas_matrix=np.array([[1.0]]),
            meas_cov=np.array([[self.obs_var]]),
            initial_sampler=lambda g: np.array(
                [self.x2_0, self.x3_0 + sd3 * g.standard_normal()]),
            init_gauss=(np.array([self.m0]), np.array([[self.p0]])))
        config = sdepf.FilterConfig(n_particles=self.n_particles,
                                    n_steps=self.steps, seed=seed,
                                    threads=threads)
        return _run_filter_call(model, sdepf.prior_proposal(model), None,
                                inputs, config, first_only, method="rb_gauss")

    def check(self, outcome, inputs):
        if inputs.oracle is None:
            a_mat, l_mat, q_mat = self._chain()
            inputs.oracle = chain_kalman(
                a_mat, l_mat, q_mat, [1.0, 0.0, 0.0], self.obs_var,
                [self.m0, self.x2_0, self.x3_0],
                np.diag([self.p0, 0.0, self.x3_var]), inputs.times,
                inputs.ys, self.steps)
        # x2, the time integral of x3, is not measured: its filtered mean
        # is a functional of whole particle paths, whose Monte Carlo error
        # after resampling depends on the surviving ancestors rather than
        # on the step's ESS (|z| up to 11 at N = 2e4, changing sign with
        # the filter seed).  x1 and x3 are compared.
        return _kalman_gate(outcome, inputs.oracle, (0, 2))


class CliEpidemic(Workload):
    name = "cli_epidemic_t2"
    why = ("only workload through cli (config, CSV read/write, indicator "
           "callback) and the only one where _chunk_map splits into chunks")
    n_particles = 10000
    intervals = 30
    threads = 2
    layers = COMMON_LAYERS + CONJUGATE_LAYERS + (
        "cli.main", "models.epidemic_theta", "models.epidemic_indicator")
    n_true = 100000.0

    def _config(self, workdir, name, meas):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[model]\nkind = epidemic\nn_true = %r\n\n[simulate]\n"
                     "n_meas = %d\n\n[io]\nmeasurements = %s\n"
                     % (self.n_true, self.intervals, meas))
        return path

    def simulate(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        meas = os.path.join(workdir, "measurements.csv")
        config = self._config(workdir, "epidemic.ini", meas)
        rc, err = _quiet_main(["simulate", "--config", config, "--out",
                               str(workdir), "--seed", str(seed)])
        if rc != 0:
            raise RuntimeError("sdepf simulate exited %d: %s" % (rc, err))
        # The same series cut after its first count, for first_only calls.
        first = os.path.join(workdir, "measurements_first.csv")
        with open(meas, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        header = sum(1 for ln in lines if ln.startswith("#")) + 1
        with open(first, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:header + 1])
        return Inputs(None, None, theta_true=self.n_true, files={
            "config": config,
            "config_first": self._config(workdir, "epidemic_first.ini", first)})

    def build(self, inputs, seed, threads, workdir, first_only=False):
        out = os.path.join(workdir, "filter-t%d%s"
                           % (threads, "-first" if first_only else ""))
        config = inputs.files["config_first" if first_only else "config"]
        argv = ["filter", "--config", config, "--out", out,
                "--seed", str(seed), "--particles", str(self.n_particles),
                "--threads", str(threads)]

        def call(on_step):
            cli = sdepf.cli
            inner = cli.run_filter

            def run_filter(*args, step_callback=None, **kwargs):
                def chained(k, t, pset, st):
                    step_callback(k, t, pset, st)
                    on_step()
                return inner(*args, step_callback=chained, **kwargs)

            cli.run_filter = run_filter
            try:
                rc, err = _quiet_main(argv)
            finally:
                cli.run_filter = inner
            files = {}
            if rc == 0:
                for name in ("summary.csv", "params.csv"):
                    with open(os.path.join(out, name), "rb") as fh:
                        files[name] = fh.read()
            return {"rc": rc, "stderr": err, "files": files}

        return call

    def check(self, outcome, inputs):
        if outcome["rc"] != 0:
            return False, "sdepf filter exited %d: %s" % (
                outcome["rc"], outcome["stderr"].strip())
        lines = outcome["files"]["summary.csv"].decode().splitlines()
        body = [ln for ln in lines if ln and not ln.startswith("#")]
        cols = body[0].split(",")
        data = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
        # The indicator is undefined before the first update (row k = 0).
        finite = np.isfinite(data)
        finite[0, cols.index("indicator")] = True
        return _theta_gate(bool(np.all(finite)), data.shape[0],
                           self.intervals + 1,
                           data[-1, cols.index("theta_mean")],
                           inputs.theta_true)

    def digest(self, outcome):
        h = hashlib.sha256(str(outcome["rc"]).encode())
        for name in sorted(outcome["files"]):
            h.update(outcome["files"][name])
        return h.hexdigest()


def _quiet_main(argv):
    """sdepf.cli.main with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sdepf.cli.main(argv)
    return rc, err.getvalue()


WORKLOADS = {w.name: w for w in (OuBoot(), PendulumParam(), LinearGaussRb(),
                                 CliEpidemic())}
