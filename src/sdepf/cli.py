"""Command line harness: simulate, filter, kl, selftest.

Configuration is an INI file with sections [model], [filter], [simulate],
[prior], [kl] and [io]; every key has a default, and --seed, --particles,
--out and --threads override the file.  Numeric output is written as CSV
with 17 significant digits and LF line endings, with the resolved
configuration echoed into '#' header lines, so identical runs produce
byte-identical files.

Exit codes: 0 success, 2 configuration or input-format error, 3 numerical
failure during a run, 4 output I/O error.
"""

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import models
from ._linalg import mat_mul, mat_vec
from .exceptions import (ConfigError, DegeneracyError, DiffusionError,
                         IntegrationError, SingularMatrixError)
from .filtering import FilterConfig, gaussian_measurement, run_filter
from .girsanov import (ImportanceSpec, estimate_kl, prior_proposal,
                       propagate_coupled, propagate_coupled_split)
from .proposals import ekf_bridge_builder
from .raoblackwell import (CondGaussModel, gamma_poisson_family,
                           invchi2_family)
from .sde import SdeModel, TimeGrid, integrate_sde, sample_brownian_increments

_FILTER_DEFAULTS = {"method": "", "particles": 1000, "steps_per_interval": 10,
                    "ess_threshold": 0.5, "proposal": "", "dump_steps": ""}

_PRIOR_DEFAULTS = {"nu0": 2.0, "s20": 0.2, "alpha0": 10.0, "beta0": 1e-4}

_KL_DEFAULTS = {"kind": "const", "a": 1.0, "b": 0.0, "sigma2": 1.0,
                "rate": 1.0, "horizon": 1.0, "steps": 100, "paths": 1000,
                "x0": 0.0}


# ---------------------------------------------------------------------------
# configuration plumbing


def _coerce(section, key, raw, like):
    try:
        if isinstance(like, int):
            return int(raw)
        if isinstance(like, float):
            # NaN and inf would slip through every range check below.
            if not math.isfinite(float(raw)):
                raise ConfigError("[%s] %s must be finite, got %r"
                                  % (section, key, raw))
            return float(raw)
        return raw.strip()
    except (TypeError, ValueError):
        raise ConfigError("[%s] %s must be %s, got %r"
                          % (section, key, type(like).__name__, raw))


def load_config(path, overrides):
    """Read an INI config into a dict of resolved sections.

    Args:
        path: config file path or None (all defaults).
        overrides: dict with optional seed/particles/out/threads from the
            command line.

    Returns:
        Dict with keys model, filter, simulate, prior, kl, io, seed,
        threads; every value fully defaulted and type checked.

    Raises:
        ConfigError: unknown sections/keys/kinds or unparseable values.
    """
    parser = configparser.ConfigParser()
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError("config file not found: %s" % path)
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError("cannot parse config %s: %s" % (path, exc))

    known = {"model", "filter", "simulate", "prior", "kl", "io"}
    for sec in parser.sections():
        if sec not in known:
            raise ConfigError("unknown config section [%s]" % sec)

    raw_model = dict(parser["model"]) if parser.has_section("model") else {}
    kind = raw_model.pop("kind", "pendulum").strip()
    if kind not in _KINDS:
        raise ConfigError("[model] kind must be one of %s, got %r"
                          % ("/".join(_KINDS), kind))
    entry = _KINDS[kind]

    def resolve(section_name, defaults, raw=None):
        if raw is None:
            raw = dict(parser[section_name]) \
                if parser.has_section(section_name) else {}
        out = dict(defaults)
        for key, raw_val in raw.items():
            if key not in defaults:
                raise ConfigError("unknown key [%s] %s" % (section_name, key))
            out[key] = _coerce(section_name, key, raw_val, defaults[key])
        return out

    model = dict(resolve("model", entry.model, raw_model), kind=kind)
    filt = resolve("filter", _FILTER_DEFAULTS)
    sim = resolve("simulate", entry.simulate)
    prior = resolve("prior", _PRIOR_DEFAULTS)
    kl = resolve("kl", _KL_DEFAULTS)
    io = resolve("io", {"out": ".", "measurements": "", "seed": 0,
                        "threads": 1})
    for key, sec in (("seed", io), ("threads", io), ("out", io),
                     ("particles", filt)):
        if overrides.get(key) is not None:
            sec[key] = overrides[key]

    for key, allowed in (("method", entry.methods),
                         ("proposal", entry.proposals)):
        if not filt[key]:
            filt[key] = allowed[0]
        if filt[key] not in allowed:
            raise ConfigError("[filter] %s %r not supported for model %r "
                              "(allowed: %s)" % (key, filt[key], kind,
                                                 ", ".join(allowed)))
    for name, sec, keys in (("model", model, entry.positive),
                            ("prior", prior, _PRIOR_DEFAULTS)):
        for key in keys:
            if sec[key] <= 0:
                raise ConfigError("[%s] %s must be positive, got %r"
                                  % (name, key, sec[key]))

    for key in ("particles", "steps_per_interval"):
        if filt[key] < 1:
            raise ConfigError("[filter] %s must be >= 1, got %d"
                              % (key, filt[key]))
    if not (0.0 <= filt["ess_threshold"] <= 1.0):
        raise ConfigError("[filter] ess_threshold must be in [0, 1]")
    if io["seed"] < 0:
        raise ConfigError("[io] seed must be >= 0, got %d" % io["seed"])
    if io["threads"] < 1:
        raise ConfigError("[io] threads must be >= 1")
    if sim["n_meas"] < 1 or sim["dt"] <= 0 or sim["n_fine"] < 1:
        raise ConfigError("[simulate] needs n_meas >= 1, dt > 0, n_fine >= 1")
    if kl["kind"] not in ("const", "linear"):
        raise ConfigError("[kl] kind must be const or linear, got %r"
                          % kl["kind"])
    if kl["steps"] < 1 or kl["paths"] < 1 or kl["sigma2"] <= 0 \
            or kl["horizon"] <= 0:
        raise ConfigError("[kl] needs steps/paths >= 1, sigma2 > 0, horizon > 0")

    dump = []
    if filt["dump_steps"].strip():
        for tok in filt["dump_steps"].split(","):
            try:
                dump.append(int(tok))
            except ValueError:
                raise ConfigError("[filter] dump_steps must be comma-separated "
                                  "integers, got %r" % tok)
            if dump[-1] < 1:
                raise ConfigError("[filter] dump_steps must be >= 1, got %d"
                                  % dump[-1])
    filt["dump_steps"] = dump

    return {"model": model, "filter": filt, "simulate": sim, "prior": prior,
            "kl": kl, "io": io, "seed": io["seed"], "threads": io["threads"]}


def _provenance(cfg, command):
    """Header lines echoing the resolved configuration (not I/O paths)."""
    lines = ["# sdepf %s" % command, "# seed = %d" % cfg["seed"]]
    # [prior] configures the conjugate family of cdrb_param.
    skip = {"prior": "cdrb_param" not in _KINDS[cfg["model"]["kind"]].methods,
            "kl": command != "kl", "simulate": command != "simulate"}
    for sec in ("model", "filter", "simulate", "prior", "kl"):
        if skip.get(sec):
            continue
        for key in sorted(cfg[sec]):
            val = cfg[sec][key]
            if isinstance(val, float):
                val = "%.17g" % val
            elif isinstance(val, list):
                val = ",".join(str(v) for v in val)
            lines.append("# %s.%s = %s" % (sec, key, val))
    return lines


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.17g" % value


def _write_csv(out, name, header_lines, columns, rows):
    """Write out/name (making the directory out), return its path."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


# ---------------------------------------------------------------------------
# model construction: filter pieces and truth simulators


def _constant_1x1(value):
    """Callable (..., x, t) -> value as an (..., 1, 1) array, one matrix
    per particle of the state x."""

    def matrix(*args):
        out = np.empty(args[-2].shape[:-1] + (1, 1))
        out[...] = value
        return out

    return matrix


def _linear_bridge_builder(rate, q, obs_var):
    """Bridge builder for the scalar OU model (measurement of the state)."""
    jac = _constant_1x1(-rate)
    h_row = np.array([1.0])
    return ekf_bridge_builder(lambda x, t: (-rate * x, jac(x, t)),
                              np.array([[float(q)]]), 0,
                              lambda pset, y: (h_row, float(obs_var), y))


def _ou_model(p):
    """The scalar OU model; its initial sampler draws N(x0_mean, x0_var)."""
    rate = p["rate"]
    sd0 = math.sqrt(p["x0_var"])

    def sampler(rng):
        return np.array([p["x0_mean"] + sd0 * rng.standard_normal()])

    return SdeModel(dim_state=1, dim_noise=1,
                    drift=lambda x, t: -rate * x,
                    dispersion=1.0, diffusion=p["q"], initial_sampler=sampler)


def _build_ou(cfg):
    p = cfg["model"]
    args = dict(model=_ou_model(p), method="sir",
                meas_model=gaussian_measurement(0, p["obs_var"]))
    return args, lambda: _linear_bridge_builder(p["rate"], p["q"], p["obs_var"])


def _simulate_ou(p, sim, seed):
    model = _ou_model(p)
    return models._euler_readings(model, model.initial_sampler, sim["dt"],
                                  sim["n_meas"], p["obs_var"], seed,
                                  sim["n_fine"])[:3]


def _build_pendulum(cfg):
    p = cfg["model"]
    sd0 = math.sqrt(p["init_var"])
    mean0 = np.array([p["x1_0"], p["x2_0"]])

    def sampler(rng):
        return mean0 + sd0 * rng.standard_normal(2)

    model = models.pendulum_model(p["a"], p["q"], initial_sampler=sampler)
    if cfg["filter"]["method"] == "cd_sir_singular":
        obs_var = p["obs_var"]
        pieces = dict(method="sir",
                      meas_model=gaussian_measurement(0, obs_var))
    else:
        family = invchi2_family(cfg["prior"]["nu0"], cfg["prior"]["s20"])
        obs_var = lambda pset: family.point_estimate(pset.stats)
        pieces = dict(method="rb_param", meas_model=None, family=family,
                      cond_fn=lambda x_prev, x_new: x_new[..., 0])
    return dict(pieces, model=model), \
        lambda: models.pendulum_bridge_builder(p["a"], p["q"], obs_var)


def _simulate_pendulum(p, sim, seed):
    res = models.pendulum_simulate(p["a"], p["q"],
                                   np.array([p["x1_0"], p["x2_0"]]),
                                   sim["dt"], sim["n_meas"], p["obs_var"],
                                   seed, n_fine=sim["n_fine"])
    return res.times, res.states, res.ys


def _build_epidemic(cfg):
    p = cfg["model"]
    sampler = models.epidemic_init_sampler(p["beta_a"], p["beta_b"],
                                           p["lam0_mean"], p["lam0_var"])
    model = models.epidemic_model(p["g"], p["q"], initial_sampler=sampler)
    family = gamma_poisson_family(cfg["prior"]["alpha0"], cfg["prior"]["beta0"])
    args = dict(model=model, meas_model=None, method="rb_param",
                family=family, cond_fn=models.epidemic_theta)
    return args, lambda: models.epidemic_bridge_builder(p["g"], p["q"], family)


def _simulate_epidemic(p, sim, seed):
    lam0 = p["lam0_mean"] if p["sigma_true"] <= 0 \
        else math.log(p["sigma_true"])
    y0_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    y0 = y0_rng.beta(p["beta_a"], p["beta_b"])
    res = models.epidemic_simulate(p["g"], 0.0, p["n_true"], y0, lam0,
                                   sim["n_meas"], seed, dt_meas=sim["dt"],
                                   n_fine=sim["n_fine"])
    return res.times, res.states, res.counts


def _build_lineargauss(cfg):
    p = cfg["model"]
    couple = p["couple"]
    sd3 = math.sqrt(p["x3_var"])

    def sampler(rng):
        return np.array([p["x2_0"], p["x3_0"] + sd3 * rng.standard_normal()])

    model = CondGaussModel(
        dim_lin=1, dim_det=1, dim_stoch=1,
        lin_coeff=_constant_1x1(p["lin_rate"]),
        lin_shift=lambda x2, x3, t: couple * x3,
        lin_noise=_constant_1x1(1.0),
        lin_diffusion=p["q_eta"],
        drift_det=lambda x2, x3, t: x3,
        drift_stoch=lambda x2, x3, t: -p["ou_rate"] * x3,
        dispersion=1.0, diffusion=p["q_beta"],
        meas_matrix=np.array([[1.0]]), meas_cov=np.array([[p["obs_var"]]]),
        initial_sampler=sampler,
        init_gauss=(np.array([p["m0"]]), np.array([[p["p0"]]])))
    return dict(model=model, meas_model=None, method="rb_gauss"), None


def _simulate_lineargauss(p, sim, seed):
    # The full three-state SDE: the conditioned x1 is simulated too.
    def drift(x, t):
        return np.stack([p["lin_rate"] * x[..., 0] + p["couple"] * x[..., 2],
                         x[..., 2], -p["ou_rate"] * x[..., 2]], axis=-1)

    def x0(rng):
        return np.array([p["m0"] + math.sqrt(p["p0"]) * rng.standard_normal(),
                         p["x2_0"],
                         p["x3_0"] + math.sqrt(p["x3_var"])
                         * rng.standard_normal()])

    disp = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    model = SdeModel(dim_state=3, dim_noise=2, drift=drift,
                     dispersion=disp,
                     diffusion=np.diag([p["q_eta"], p["q_beta"]]))
    return models._euler_readings(model, x0, sim["dt"], sim["n_meas"],
                                  p["obs_var"], seed, sim["n_fine"])[:3]


@dataclass(frozen=True)
class _Kind:
    """Everything the CLI knows about one [model] kind."""

    model: dict             # [model] defaults
    simulate: dict          # [simulate] defaults
    positive: tuple         # [model] keys that must be > 0
    methods: tuple          # allowed [filter] methods, default first
    proposals: tuple        # allowed [filter] proposals, default first
    build: object           # cfg -> run_filter keywords, bridge factory
    truth: object           # (model, simulate, seed) -> times, states, readings
    state_cols: tuple       # truth.csv columns after t
    meas_cols: tuple = ("t", "y")             # measurement file header
    # path -> times, readings of the measurement file
    read: object = lambda path: models._read_series(path, ("t",))
    extra: tuple = None     # (summary column, pset -> value after each step)


_KINDS = {
    "ou": _Kind(
        model={"rate": 1.0, "q": 0.8, "obs_var": 0.25, "x0_mean": 0.0,
               "x0_var": 1.0},
        simulate={"n_meas": 50, "dt": 0.5, "n_fine": 50},
        positive=("q", "obs_var", "x0_var"),
        methods=("cd_sir",), proposals=("prior", "bridge"),
        build=_build_ou, truth=_simulate_ou, state_cols=("x",)),
    "pendulum": _Kind(
        model={"a": 1.0, "q": 0.01, "obs_var": 0.25, "x1_0": 1.5,
               "x2_0": 0.0, "init_var": 0.25},
        simulate={"n_meas": 100, "dt": 0.1, "n_fine": 100},
        positive=("a", "q", "obs_var", "init_var"),
        methods=("cdrb_param", "cd_sir_singular"),
        proposals=("bridge", "prior"),
        build=_build_pendulum, truth=_simulate_pendulum,
        state_cols=("x1", "x2")),
    "epidemic": _Kind(
        model={"g": 1.0, "q": 0.001, "n_true": 100000.0,
               "sigma_true": 1.6, "beta_a": 1.0, "beta_b": 100.0,
               "lam0_mean": math.log(5.0), "lam0_var": 4.0},
        simulate={"n_meas": 30, "dt": 1.0, "n_fine": 100},
        positive=("g", "q", "n_true", "beta_a", "beta_b", "lam0_var"),
        methods=("cdrb_param",), proposals=("bridge", "prior"),
        build=_build_epidemic, truth=_simulate_epidemic,
        state_cols=("x", "y", "lam"), meas_cols=("week", "deaths"),
        read=models.read_count_series,
        extra=("indicator", lambda pset: models.epidemic_indicator(
            pset.states, pset.weights))),
    "lineargauss": _Kind(
        model={"lin_rate": -0.5, "couple": 1.0, "q_eta": 0.3,
               "ou_rate": 1.0, "q_beta": 0.4, "obs_var": 0.1,
               "m0": 0.0, "p0": 1.0, "x2_0": 0.0, "x3_0": 0.0,
               "x3_var": 0.5},
        simulate={"n_meas": 40, "dt": 0.5, "n_fine": 50},
        positive=("q_eta", "q_beta", "obs_var", "p0", "x3_var"),
        methods=("cdrb_gauss",), proposals=("prior",),
        build=_build_lineargauss, truth=_simulate_lineargauss,
        state_cols=("x1", "x2", "x3")),
}


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg):
    """Simulate a truth path and measurements, write truth + measurement CSVs."""
    entry = _KINDS[cfg["model"]["kind"]]
    seed = cfg["seed"]
    out = cfg["io"]["out"]
    times, states, readings = entry.truth(cfg["model"], cfg["simulate"], seed)
    header = _provenance(cfg, "simulate")
    truth_path = _write_csv(out, "truth.csv", header,
                            ("t",) + entry.state_cols,
                            [(t,) + tuple(s) for t, s in zip(times, states)])
    meas_path = _write_csv(out, "measurements.csv", header,
                           entry.meas_cols, list(zip(times, readings)))
    print("seed = %d" % seed)
    print("wrote %s" % truth_path)
    print("wrote %s" % meas_path)
    return 0


class _RunError(Exception):
    """A ValueError raised while a command runs on validated inputs."""


def cmd_filter(cfg):
    """Run a filter over a measurement file, write summary CSVs."""
    entry = _KINDS[cfg["model"]["kind"]]
    meas_path = cfg["io"]["measurements"]
    if not meas_path:
        raise ConfigError("[io] measurements is required for the filter command")
    times, ys = entry.read(meas_path)
    if times[0] <= 0.0:
        raise ConfigError("measurement times must be positive (the filter "
                          "starts at t = 0) in %s" % meas_path)
    filt = cfg["filter"]
    beyond = [k for k in filt["dump_steps"] if k > len(times)]
    if beyond:
        raise ConfigError("[filter] dump_steps %s past the last of the %d "
                          "readings in %s" % (beyond, len(times), meas_path))

    args, bridge = entry.build(cfg)
    args["proposal"] = bridge() if filt["proposal"] == "bridge" \
        else prior_proposal(args["model"])
    fc = FilterConfig(n_particles=filt["particles"],
                      n_steps=filt["steps_per_interval"],
                      ess_threshold=filt["ess_threshold"],
                      seed=cfg["seed"], threads=cfg["threads"])

    extra = {}
    dumps = {}
    dump_steps = set(filt["dump_steps"])

    def callback(k, t, pset, st):
        if entry.extra:
            extra[k] = entry.extra[1](pset)
        if k in dump_steps:
            dumps[k] = (pset.states.copy(), pset.log_weights.copy(),
                        None if pset.stats is None else pset.stats.copy())

    try:
        result = run_filter(times=times, ys=ys, config=fc,
                            step_callback=callback, **args)
    except ValueError as exc:
        # The inputs were validated above, so this came from the run.
        raise _RunError(exc) from exc

    out = cfg["io"]["out"]
    header = _provenance(cfg, "filter")
    n_dim = result.summaries[0].mean.size
    theta = list(result.summaries[0].extra)
    cols = ["k", "t"] + ["mean_%d" % i for i in range(n_dim)] \
        + ["var_%d" % i for i in range(n_dim)] \
        + ["ess", "log_marginal", "resampled"] + theta
    if entry.extra:
        cols += [entry.extra[0]]
    rows = []
    for s in result.summaries:
        row = [s.k, s.t] + list(s.mean) + list(s.var) \
            + [s.ess, s.log_marginal, s.resampled] \
            + [s.extra[c] for c in theta]
        if entry.extra:
            row += [extra.get(s.k, float("nan"))]
        rows.append(row)
    summary_path = _write_csv(out, "summary.csv", header, cols, rows)
    print("seed = %d" % cfg["seed"])
    print("wrote %s" % summary_path)

    if theta:
        prow = [[s.k, s.t] + [s.extra[c] for c in theta]
                for s in result.summaries]
        params_path = _write_csv(out, "params.csv", header, ["k", "t"] + theta,
                                 prow)
        print("wrote %s" % params_path)

    for k in sorted(dumps):
        states, lw, stats = dumps[k]
        cols = ["i"] + ["state_%d" % i for i in range(states.shape[1])] \
            + ["log_weight"]
        rows = [[i] + list(states[i]) + [lw[i]] for i in range(states.shape[0])]
        if stats is not None:
            cols += ["stat_%d" % i for i in range(stats.shape[1])]
            rows = [r + list(stats[i]) for i, r in enumerate(rows)]
        dump_path = _write_csv(out, "particles_%d.csv" % k, header, cols,
                               rows)
        print("wrote %s" % dump_path)
    return 0


def cmd_kl(cfg):
    """Estimate the drift-mismatch KL rate, write kl.csv."""
    p = cfg["kl"]
    seed = cfg["seed"]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    grid = TimeGrid(0.0, p["horizon"], p["steps"])
    sigma = p["sigma2"]

    if p["kind"] == "const":
        a, b = p["a"], p["b"]
        drift_p = lambda x, t: np.full_like(x, a)
        drift_q = lambda x, t: np.full_like(x, b)
        closed = 0.5 * (a - b) ** 2 * p["horizon"] / sigma
    else:
        rate = p["rate"]
        drift_p = lambda x, t: -rate * x
        drift_q = lambda x, t: np.zeros_like(x)
        closed = float("nan")

    model_q = SdeModel(dim_state=1, dim_noise=1, drift=drift_q,
                       dispersion=math.sqrt(sigma), diffusion=1.0)
    x0 = np.full((p["paths"], 1), p["x0"])
    incs = sample_brownian_increments(grid, model_q.diffusion, rng,
                                      n_paths=p["paths"])
    paths = integrate_sde(model_q, x0, grid, incs)
    paths = np.moveaxis(paths, 0, 1)
    est = estimate_kl(drift_p, drift_q, sigma, paths, grid)

    path = _write_csv(cfg["io"]["out"], "kl.csv", _provenance(cfg, "kl"),
                      ["estimate", "closed_form", "paths", "steps"],
                      [[est, closed, p["paths"], p["steps"]]])
    print("seed = %d" % seed)
    print("kl_estimate = %.17g" % est)
    if math.isfinite(closed):
        print("kl_closed_form = %.17g" % closed)
    print("wrote %s" % path)
    return 0


def cmd_selftest(cfg):
    """Run a quick built-in oracle battery; exit 3 on any failure."""
    checks = []

    # Bootstrap proposal carries exactly unit weights.
    model = models.pendulum_model(1.0, 0.01)
    rng = np.random.default_rng(0)
    grid = TimeGrid(0.0, 0.1, 10)
    incs = sample_brownian_increments(grid, model.diffusion, rng, n_paths=64)
    res = propagate_coupled_split(model, prior_proposal(model),
                                  np.full((64, 1), 1.2), np.zeros((64, 1)),
                                  grid, incs)
    checks.append(("bootstrap log-ratio is exactly zero",
                   np.all(res.llr == 0.0)))

    # Constant drifts: Lambda matches the closed form.
    a, q = 0.7, 0.5
    model_c = SdeModel(1, 1, lambda x, t: np.full_like(x, a), 1.0, q)
    imp_c = ImportanceSpec(lambda x, t: np.zeros_like(x), None)
    grid_c = TimeGrid(0.0, 1.0, 64)
    incs_c = sample_brownian_increments(grid_c, model_c.diffusion,
                                        np.random.default_rng(1), n_paths=16)
    res_c = propagate_coupled(model_c, imp_c, np.zeros((16, 1)), grid_c, incs_c)
    beta_total = incs_c.values.sum(axis=(1, 2))
    expect = (a / q) * beta_total - 0.5 * a ** 2 / q
    checks.append(("constant-drift log-ratio matches closed form",
                   np.allclose(res_c.llr, expect, rtol=1e-10, atol=1e-10)))

    # Conjugate updates: sequential equals batch.
    fam = invchi2_family(2.0, 0.2)
    stats = fam.init_stats(1)
    resids = [0.3, -0.1, 0.25, 0.0]
    for r in resids:
        stats = fam.update(stats, np.zeros(1), r)
    batch_nu = 2.0 + len(resids)
    batch_s2 = (2.0 * 0.2 + sum(r * r for r in resids)) / batch_nu
    checks.append(("variance posterior: sequential equals batch",
                   np.allclose(stats[0], [batch_nu, batch_s2], rtol=1e-14)))

    fam_g = gamma_poisson_family(1.0, 1.0)
    lm = fam_g.log_marginal(0, np.array([1.0]), fam_g.init_stats(1))
    checks.append(("count predictive mass at d=0 is 1/2",
                   np.allclose(np.exp(lm), 0.5, rtol=1e-12)))

    # The 1x1 fast path of mat_mul and mat_vec has np.matmul's bits; this
    # fails on a numpy whose matmul no longer turns -0 products into +0.
    vals = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.5])
    a = np.repeat(vals, vals.size).reshape(-1, 1, 1)
    b = np.tile(vals, vals.size).reshape(-1, 1, 1)
    with np.errstate(invalid="ignore", under="ignore"):
        ref = np.matmul(a, b)
        same = mat_mul(a, b).tobytes() == ref.tobytes() \
            and mat_vec(a, b[..., 0]).tobytes() == ref[..., 0].tobytes()
    checks.append(("1x1 products equal np.matmul bit for bit", same))

    failed = 0
    for name, passed in checks:
        print("%s: %s" % ("PASS" if passed else "FAIL", name))
        failed += 0 if passed else 1
    if failed:
        print("%d of %d checks failed" % (failed, len(checks)))
        return 3
    print("all %d checks passed" % len(checks))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="sdepf",
        description="Particle filtering for SDE state-space models.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, doc in (("simulate", "simulate truth and measurements"),
                      ("filter", "run a filter over measurements"),
                      ("kl", "estimate drift-mismatch KL divergence"),
                      ("selftest", "run built-in numerical checks")):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", default=None, help="INI config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--particles", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--threads", type=int, default=None)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "particles": args.particles,
                 "out": args.out, "threads": args.threads}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "filter":
            return cmd_filter(cfg)
        if args.command == "selftest":
            return cmd_selftest(cfg)
        command = cmd_simulate if args.command == "simulate" else cmd_kl
        try:
            return command(cfg)
        except ValueError as exc:
            # load_config validated the inputs, so this came from the run.
            raise _RunError(exc) from exc
    except (ConfigError, ValueError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except (_RunError, DegeneracyError, IntegrationError, SingularMatrixError,
            DiffusionError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
