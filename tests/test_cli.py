"""End-to-end command line tests, driven through subprocess.

Each test invokes ``python -m sdepf ...`` exactly as a user would, so the
exit-code contract, config validation, CSV layout and reproducibility
guarantees are all exercised from outside the package.  The exit-code
tests that inject a failure, and the round trip over every combination
the model-kind table allows, call ``sdepf.cli.main`` in process instead.
"""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

import sdepf.cli


def run_cli(*args):
    """Run the CLI and capture output.

    Args:
        *args: command line tokens after ``python -m sdepf``.

    Returns:
        Completed process with text stdout/stderr.
    """
    return subprocess.run([sys.executable, "-m", "sdepf"] + list(args),
                          capture_output=True, text=True, timeout=600)


def read_output_csv(path):
    """Parse one of the CLI's CSV files, keeping the '#' header aside.

    Returns:
        (header_lines, column_names, data) where data is a float array
        with one row per CSV record.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    cols = body[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    return header, cols, data


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes():
    # [TRIVIAL] built-in battery must succeed on a healthy install.
    res = run_cli("selftest")
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines() == [
        "PASS: bootstrap log-ratio is exactly zero",
        "PASS: constant-drift log-ratio matches closed form",
        "PASS: variance posterior: sequential equals batch",
        "PASS: count predictive mass at d=0 is 1/2",
        "PASS: 1x1 products equal np.matmul bit for bit",
        "all 5 checks passed"]


# ---------------------------------------------------------------------------
# simulate -> filter round trips


def test_ou_simulate_then_filter_roundtrip(tmp_path):
    cfg = write_config(tmp_path / "ou.ini", """
[model]
kind = ou

[simulate]
n_meas = 12
dt = 0.5
n_fine = 20

[filter]
particles = 300
steps_per_interval = 5

[io]
out = %s
""" % tmp_path)
    res = run_cli("simulate", "--config", cfg, "--seed", "3")
    assert res.returncode == 0, res.stdout + res.stderr
    assert (tmp_path / "truth.csv").exists()
    assert (tmp_path / "measurements.csv").exists()

    _, tcols, tdata = read_output_csv(tmp_path / "truth.csv")
    assert tcols == ["t", "x"]
    assert tdata.shape == (12, 2)
    _, mcols, mdata = read_output_csv(tmp_path / "measurements.csv")
    assert mcols == ["t", "y"]
    np.testing.assert_allclose(mdata[:, 0], 0.5 * np.arange(1, 13))

    cfg_f = write_config(tmp_path / "ou_filter.ini", """
[model]
kind = ou

[filter]
particles = 300
steps_per_interval = 5

[io]
measurements = %s
out = %s
""" % (tmp_path / "measurements.csv", tmp_path / "run"))
    res = run_cli("filter", "--config", cfg_f, "--seed", "7")
    assert res.returncode == 0, res.stdout + res.stderr

    header, cols, data = read_output_csv(tmp_path / "run" / "summary.csv")
    assert cols == ["k", "t", "mean_0", "var_0", "ess", "log_marginal",
                    "resampled"]
    # one row per measurement plus the k = 0 prior row
    assert data.shape[0] == 13
    assert data[0, 0] == 0.0 and data[0, 4] == 300.0
    assert np.all(np.isfinite(data))
    assert np.all(data[:, 4] <= 300.0 + 1e-9)
    assert np.all(np.diff(data[:, 1]) > 0)
    # filter should track the simulated truth to well under the prior scale
    final_mean = data[-1, 2]
    truth_final = tdata[-1, 1]
    assert abs(final_mean - truth_final) < 2.0


def test_pendulum_filter_writes_params(tmp_path):
    sim_cfg = write_config(tmp_path / "sim.ini", """
[model]
kind = pendulum

[simulate]
n_meas = 10
dt = 0.1
n_fine = 20

[io]
out = %s
""" % tmp_path)
    assert run_cli("simulate", "--config", sim_cfg).returncode == 0

    _, tcols, _ = read_output_csv(tmp_path / "truth.csv")
    assert tcols == ["t", "x1", "x2"]

    run_cfg = write_config(tmp_path / "filter.ini", """
[model]
kind = pendulum

[filter]
method = cdrb_param
particles = 200
steps_per_interval = 5

[io]
measurements = %s
out = %s
""" % (tmp_path / "measurements.csv", tmp_path / "run"))
    res = run_cli("filter", "--config", run_cfg, "--seed", "11")
    assert res.returncode == 0, res.stdout + res.stderr

    _, cols, data = read_output_csv(tmp_path / "run" / "summary.csv")
    assert cols == ["k", "t", "mean_0", "mean_1", "var_0", "var_1", "ess",
                    "log_marginal", "resampled", "theta_mean", "theta_q05",
                    "theta_q50", "theta_q95"]
    assert data.shape[0] == 11

    _, pcols, pdata = read_output_csv(tmp_path / "run" / "params.csv")
    assert pcols == ["k", "t", "theta_mean", "theta_q05", "theta_q50",
                     "theta_q95"]
    assert pdata.shape[0] == 11
    # quantiles are ordered and the variance estimate stays positive
    assert np.all(pdata[1:, 3] <= pdata[1:, 5])
    assert np.all(pdata[1:, 2] > 0)


def test_pendulum_singular_method(tmp_path):
    sim_cfg = write_config(tmp_path / "sim.ini", """
[model]
kind = pendulum

[simulate]
n_meas = 8
dt = 0.1
n_fine = 10

[io]
out = %s
""" % tmp_path)
    assert run_cli("simulate", "--config", sim_cfg).returncode == 0

    run_cfg = write_config(tmp_path / "filter.ini", """
[model]
kind = pendulum

[filter]
method = cd_sir_singular
proposal = prior
particles = 150
steps_per_interval = 5

[io]
measurements = %s
out = %s
""" % (tmp_path / "measurements.csv", tmp_path / "run"))
    res = run_cli("filter", "--config", run_cfg)
    assert res.returncode == 0, res.stdout + res.stderr
    _, cols, data = read_output_csv(tmp_path / "run" / "summary.csv")
    assert "theta_mean" not in cols
    assert data.shape[0] == 9


def test_epidemic_simulate_then_filter(tmp_path):
    sim_cfg = write_config(tmp_path / "sim.ini", """
[model]
kind = epidemic

[simulate]
n_meas = 8
dt = 1.0
n_fine = 20

[io]
out = %s
""" % tmp_path)
    res = run_cli("simulate", "--config", sim_cfg, "--seed", "2")
    assert res.returncode == 0, res.stdout + res.stderr

    _, mcols, mdata = read_output_csv(tmp_path / "measurements.csv")
    assert mcols == ["week", "deaths"]
    assert np.all(mdata[:, 1] >= 0)
    assert np.all(mdata[:, 1] == np.round(mdata[:, 1]))

    run_cfg = write_config(tmp_path / "filter.ini", """
[model]
kind = epidemic

[filter]
particles = 150
steps_per_interval = 5

[io]
measurements = %s
out = %s
""" % (tmp_path / "measurements.csv", tmp_path / "run"))
    res = run_cli("filter", "--config", run_cfg, "--seed", "5")
    assert res.returncode == 0, res.stdout + res.stderr

    _, cols, data = read_output_csv(tmp_path / "run" / "summary.csv")
    assert cols[-1] == "indicator"
    assert "theta_mean" in cols
    assert data.shape[0] == 9
    ind = data[1:, cols.index("indicator")]
    assert np.all(np.isfinite(ind)) and np.all(ind >= 0)


def test_lineargauss_filter(tmp_path):
    sim_cfg = write_config(tmp_path / "sim.ini", """
[model]
kind = lineargauss

[simulate]
n_meas = 10
dt = 0.5
n_fine = 20

[io]
out = %s
""" % tmp_path)
    assert run_cli("simulate", "--config", sim_cfg).returncode == 0
    _, tcols, _ = read_output_csv(tmp_path / "truth.csv")
    assert tcols == ["t", "x1", "x2", "x3"]

    run_cfg = write_config(tmp_path / "filter.ini", """
[model]
kind = lineargauss

[filter]
particles = 200
steps_per_interval = 5

[io]
measurements = %s
out = %s
""" % (tmp_path / "measurements.csv", tmp_path / "run"))
    res = run_cli("filter", "--config", run_cfg)
    assert res.returncode == 0, res.stdout + res.stderr
    _, cols, data = read_output_csv(tmp_path / "run" / "summary.csv")
    # three state dimensions reported: conditioned x1, then (x2, x3)
    assert cols[:8] == ["k", "t", "mean_0", "mean_1", "mean_2", "var_0",
                        "var_1", "var_2"]
    assert np.all(np.isfinite(data))


# Truth columns of each model kind; summaries carry one mean and one
# variance per state.
TRUTH_COLS = {"ou": ["t", "x"], "pendulum": ["t", "x1", "x2"],
              "epidemic": ["t", "x", "y", "lam"],
              "lineargauss": ["t", "x1", "x2", "x3"]}

ALLOWED = [(kind, method, proposal)
           for kind, entry in sdepf.cli._KINDS.items()
           for method in entry.methods for proposal in entry.proposals]


@pytest.mark.parametrize("kind, method, proposal", ALLOWED)
def test_every_allowed_combination_round_trips(tmp_path, capsys, kind,
                                               method, proposal):
    # Five readings, N = 200: simulate, then filter with 1 and 2 threads.
    cfg = write_config(tmp_path / "run.ini", """
[model]
kind = %s

[simulate]
n_meas = 5
n_fine = 10

[filter]
method = %s
proposal = %s
particles = 200
steps_per_interval = 5
dump_steps = 3

[io]
measurements = %s
""" % (kind, method, proposal, tmp_path / "sim" / "measurements.csv"))
    assert sdepf.cli.main(["simulate", "--config", cfg, "--seed", "3",
                           "--out", str(tmp_path / "sim")]) == 0
    _, tcols, tdata = read_output_csv(tmp_path / "sim" / "truth.csv")
    assert tcols == TRUTH_COLS[kind] and tdata.shape[0] == 5
    _, mcols, _ = read_output_csv(tmp_path / "sim" / "measurements.csv")
    assert mcols == (["week", "deaths"] if kind == "epidemic" else ["t", "y"])

    for threads in ("1", "2"):
        assert sdepf.cli.main(["filter", "--config", cfg, "--seed", "3",
                               "--threads", threads,
                               "--out", str(tmp_path / threads)]) == 0, \
            capsys.readouterr().err
    n_dim = len(TRUTH_COLS[kind]) - 1
    _, cols, data = read_output_csv(tmp_path / "1" / "summary.csv")
    assert cols[:2 + 2 * n_dim] == ["k", "t"] \
        + ["mean_%d" % i for i in range(n_dim)] \
        + ["var_%d" % i for i in range(n_dim)]
    assert ("theta_mean" in cols) == (method == "cdrb_param")
    assert (cols[-1] == "indicator") == (kind == "epidemic")
    assert data.shape[0] == 6
    names = ["summary.csv", "particles_3.csv"]
    if method == "cdrb_param":
        names.append("params.csv")
    assert sorted(p.name for p in (tmp_path / "1").iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() \
            == (tmp_path / "2" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# reproducibility


def test_filter_rerun_is_byte_identical(tmp_path):
    sim_cfg = write_config(tmp_path / "sim.ini", """
[model]
kind = ou

[simulate]
n_meas = 8
dt = 0.5
n_fine = 10

[io]
out = %s
""" % tmp_path)
    assert run_cli("simulate", "--config", sim_cfg).returncode == 0

    base = """
[model]
kind = ou

[filter]
particles = 200
steps_per_interval = 5
dump_steps = 4

[io]
measurements = %s
out = %s
"""
    cfg_a = write_config(tmp_path / "a.ini",
                         base % (tmp_path / "measurements.csv", tmp_path / "a"))
    cfg_b = write_config(tmp_path / "b.ini",
                         base % (tmp_path / "measurements.csv", tmp_path / "b"))
    assert run_cli("filter", "--config", cfg_a, "--seed", "9").returncode == 0
    assert run_cli("filter", "--config", cfg_b, "--seed", "9").returncode == 0
    for name in ("summary.csv", "particles_4.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, "%s differs between identical reruns" % name


def test_threads_do_not_change_output(tmp_path):
    sim_cfg = write_config(tmp_path / "sim.ini", """
[model]
kind = pendulum

[simulate]
n_meas = 8
dt = 0.1
n_fine = 10

[io]
out = %s
""" % tmp_path)
    assert run_cli("simulate", "--config", sim_cfg).returncode == 0

    base = """
[model]
kind = pendulum

[filter]
particles = 120
steps_per_interval = 5

[io]
measurements = %s
out = %s
"""
    cfg_1 = write_config(tmp_path / "t1.ini",
                         base % (tmp_path / "measurements.csv", tmp_path / "t1"))
    cfg_4 = write_config(tmp_path / "t4.ini",
                         base % (tmp_path / "measurements.csv", tmp_path / "t4"))
    r1 = run_cli("filter", "--config", cfg_1, "--seed", "4", "--threads", "1")
    r4 = run_cli("filter", "--config", cfg_4, "--seed", "4", "--threads", "4")
    assert r1.returncode == 0, r1.stdout + r1.stderr
    assert r4.returncode == 0, r4.stdout + r4.stderr
    assert (tmp_path / "t1" / "summary.csv").read_bytes() \
        == (tmp_path / "t4" / "summary.csv").read_bytes()
    assert (tmp_path / "t1" / "params.csv").read_bytes() \
        == (tmp_path / "t4" / "params.csv").read_bytes()


def test_provenance_header(tmp_path):
    sim_cfg = write_config(tmp_path / "sim.ini", """
[model]
kind = ou

[simulate]
n_meas = 5
dt = 0.5
n_fine = 10

[io]
out = %s
""" % tmp_path)
    assert run_cli("simulate", "--config", sim_cfg, "--seed", "21").returncode == 0
    header, _, _ = read_output_csv(tmp_path / "truth.csv")
    assert header[0] == "# sdepf simulate"
    assert header[1] == "# seed = 21"
    assert any(ln.startswith("# model.kind = ou") for ln in header)
    assert any(ln.startswith("# simulate.n_meas = 5") for ln in header)
    # output paths and thread counts must not leak into reproducible headers
    assert not any("io." in ln or "threads" in ln for ln in header)


def test_dump_steps_particle_file(tmp_path):
    sim_cfg = write_config(tmp_path / "sim.ini", """
[model]
kind = ou

[simulate]
n_meas = 6
dt = 0.5
n_fine = 10

[io]
out = %s
""" % tmp_path)
    assert run_cli("simulate", "--config", sim_cfg).returncode == 0

    run_cfg = write_config(tmp_path / "filter.ini", """
[model]
kind = ou

[filter]
particles = 64
steps_per_interval = 5
dump_steps = 2, 5

[io]
measurements = %s
out = %s
""" % (tmp_path / "measurements.csv", tmp_path / "run"))
    res = run_cli("filter", "--config", run_cfg)
    assert res.returncode == 0, res.stdout + res.stderr
    for k in (2, 5):
        _, cols, data = read_output_csv(tmp_path / "run" / ("particles_%d.csv" % k))
        assert cols == ["i", "state_0", "log_weight"]
        assert data.shape == (64, 3)
        np.testing.assert_array_equal(data[:, 0], np.arange(64))


@pytest.mark.parametrize("step", ["0", "-1", "9"])
def test_dump_step_outside_the_run_exits_2(tmp_path, step):
    # Steps run from 1 to the number of readings (6 here); a step the
    # run never reaches is refused before the filter runs.
    (tmp_path / "measurements.csv").write_text(
        "t,y\n" + "".join("%d,0.1\n" % k for k in range(1, 7)))
    run_cfg = write_config(tmp_path / "filter.ini", """
[model]
kind = ou

[filter]
particles = 16
dump_steps = 2, %s

[io]
measurements = %s
out = %s
""" % (step, tmp_path / "measurements.csv", tmp_path / "run"))
    res = run_cli("filter", "--config", run_cfg)
    assert res.returncode == 2, res.stdout + res.stderr
    assert "dump_steps" in res.stderr
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# kl command


def test_kl_constant_drift_closed_form(tmp_path):
    cfg = write_config(tmp_path / "kl.ini", """
[kl]
kind = const
a = 1.0
b = 0.0
sigma2 = 1.0
horizon = 1.0
steps = 50
paths = 200

[io]
out = %s
""" % tmp_path)
    res = run_cli("kl", "--config", cfg)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "kl_estimate" in res.stdout
    assert "kl_closed_form" in res.stdout

    header, cols, data = read_output_csv(tmp_path / "kl.csv")
    assert cols == ["estimate", "closed_form", "paths", "steps"]
    # constant drift mismatch: the estimator integrates an exact constant
    np.testing.assert_allclose(data[0, 0], 0.5, rtol=1e-12)
    np.testing.assert_allclose(data[0, 1], 0.5, rtol=1e-15)
    assert header[0] == "# sdepf kl"
    assert any("kl.kind = const" in ln for ln in header)


def test_kl_linear_drift_has_nan_closed_form(tmp_path):
    cfg = write_config(tmp_path / "kl.ini", """
[kl]
kind = linear
rate = 1.0
steps = 50
paths = 100

[io]
out = %s
""" % tmp_path)
    res = run_cli("kl", "--config", cfg)
    assert res.returncode == 0, res.stdout + res.stderr
    _, _, data = read_output_csv(tmp_path / "kl.csv")
    assert np.isfinite(data[0, 0]) and data[0, 0] > 0
    assert np.isnan(data[0, 1])


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_missing_config_file_exits_2(tmp_path):
    res = run_cli("filter", "--config", str(tmp_path / "nope.ini"))
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_unknown_section_exits_2(tmp_path):
    cfg = write_config(tmp_path / "bad.ini", "[mdoel]\nkind = ou\n")
    res = run_cli("selftest", "--config", cfg)
    assert res.returncode == 2
    assert "unknown config section" in res.stderr


def test_unknown_key_exits_2(tmp_path):
    cfg = write_config(tmp_path / "bad.ini", "[model]\nkind = ou\nfoo = 1\n")
    res = run_cli("selftest", "--config", cfg)
    assert res.returncode == 2


def test_bad_method_for_kind_exits_2(tmp_path):
    cfg = write_config(tmp_path / "bad.ini", """
[model]
kind = ou

[filter]
method = cdrb_gauss

[io]
measurements = whatever.csv
""")
    res = run_cli("filter", "--config", cfg)
    assert res.returncode == 2
    assert "method" in res.stderr


def test_filter_without_measurements_exits_2(tmp_path):
    cfg = write_config(tmp_path / "f.ini", "[model]\nkind = ou\n")
    res = run_cli("filter", "--config", cfg)
    assert res.returncode == 2
    assert "measurements" in res.stderr


def test_bad_measurement_header_exits_2(tmp_path):
    meas = tmp_path / "m.csv"
    meas.write_text("x,y\n1.0,2.0\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = ou

[io]
measurements = %s
""" % meas)
    res = run_cli("filter", "--config", cfg)
    assert res.returncode == 2
    assert "header" in res.stderr


@pytest.mark.parametrize("command, source", [
    ("simulate", "flag"), ("filter", "flag"), ("kl", "flag"),
    ("filter", "ini")])
def test_negative_seed_exits_2(tmp_path, command, source):
    # SeedSequence refused -1 only inside the run, which ended with exit 3
    # "numerical failure: expected non-negative integer".
    meas = tmp_path / "m.csv"
    meas.write_text("t,y\n0.5,0.1\n1.0,0.2\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = ou

[io]
measurements = %s
out = %s
%s""" % (meas, tmp_path, "seed = -1\n" if source == "ini" else ""))
    flag = ["--seed", "-1"] if source == "flag" else []
    res = run_cli(command, "--config", cfg, *flag)
    assert res.returncode == 2, res.stderr
    assert "configuration error: [io] seed must be >= 0, got -1" in res.stderr


def test_non_monotone_measurement_times_exit_2(tmp_path):
    meas = tmp_path / "m.csv"
    meas.write_text("t,y\n1.0,0.1\n0.5,0.2\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = ou

[io]
measurements = %s
""" % meas)
    res = run_cli("filter", "--config", cfg)
    assert res.returncode == 2
    assert "increasing" in res.stderr


def test_degenerate_weights_exit_3(tmp_path):
    # an absurd measurement drives every particle weight to zero
    meas = tmp_path / "m.csv"
    meas.write_text("t,y\n0.5,1e300\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = ou

[filter]
particles = 50

[io]
measurements = %s
out = %s
""" % (meas, tmp_path / "run"))
    res = run_cli("filter", "--config", cfg)
    assert res.returncode == 3
    assert "numerical failure" in res.stderr


def test_value_error_during_run_exits_3(tmp_path, monkeypatch, capsys):
    meas = tmp_path / "m.csv"
    meas.write_text("t,y\n0.5,0.1\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = ou

[io]
measurements = %s
out = %s
""" % (meas, tmp_path / "run"))

    def failing_run(*args, **kwargs):
        raise ValueError("exposure theta must be positive")

    monkeypatch.setattr(sdepf.cli, "run_filter", failing_run)
    assert sdepf.cli.main(["filter", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "exposure theta" in err


def test_kernel_error_names_the_step_exits_3(tmp_path, monkeypatch, capsys):
    # Each case fails in the second interval, (0.5, 1]: a NaN drift, a
    # reading of 1e5 at a variance of 1e-300 (every weight vanishes) and
    # an L that turns 0.  The run fails in step 2 and says so.
    meas = tmp_path / "m.csv"
    meas.write_text("t,y\n0.5,0.0\n1.0,1e5\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = ou

[filter]
particles = 20

[io]
measurements = %s
out = %s
""" % (meas, tmp_path / "run"))
    real = sdepf.cli.run_filter
    nan_drift = lambda x, t: -x if t < 0.5 else np.full(x.shape, np.nan)
    cases = [
        ({"drift": nan_drift}, None, "non-finite at t=0.5"),
        ({}, sdepf.gaussian_measurement(0, 1e-300),
         "all particle weights vanished at t=1"),
        ({"dispersion": lambda t: float(t < 0.5)}, None,
         "dispersion L is singular at t=0.5"),
    ]
    for fields, case_meas, message in cases:
        def failing_run(model, meas_model, fields=fields, case_meas=case_meas,
                        **kwargs):
            with np.errstate(over="ignore"):
                return real(model=dataclasses.replace(model, **fields),
                            meas_model=case_meas or meas_model, **kwargs)

        monkeypatch.setattr(sdepf.cli, "run_filter", failing_run)
        assert sdepf.cli.main(["filter", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: step 2: " in err
        assert message in err


def test_simulate_numerical_failure_exits_3(tmp_path, capsys):
    # n_true = 1e300 passes validation; numpy's Poisson draw then rejects
    # the rate with a ValueError, which is a failure of the run.
    cfg = write_config(tmp_path / "s.ini", """
[model]
kind = epidemic
n_true = 1e300

[io]
out = %s
""" % (tmp_path / "sim"))
    assert sdepf.cli.main(["simulate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "lam value too large" in err


def test_kl_value_error_during_run_exits_3(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "k.ini", """
[io]
out = %s
""" % (tmp_path / "kl"))

    def failing_estimate(*args, **kwargs):
        raise ValueError("paths have 3 grid points, grid has 4")

    monkeypatch.setattr(sdepf.cli, "estimate_kl", failing_estimate)
    assert sdepf.cli.main(["kl", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "grid points" in err


def test_singular_innovation_covariance_exits_3(tmp_path, capsys):
    # Valid positive variances so small that the innovation covariance S
    # is subnormal: 1 / S overflows, so the guard must stop the run.
    meas = tmp_path / "m.csv"
    meas.write_text("t,y\n0.5,0.1\n1.0,0.2\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = lineargauss
obs_var = 1e-320
p0 = 1e-320
q_eta = 1e-320

[filter]
particles = 20

[io]
measurements = %s
out = %s
""" % (meas, tmp_path / "run"))
    assert sdepf.cli.main(["filter", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: step 1: innovation covariance is singular " \
        "at t=0.5, particle 0 (value " in err
    assert "inverse overflows" in err


@pytest.mark.parametrize("kind, section, key, value", [
    ("lineargauss", "model", "obs_var", "nan"),
    ("lineargauss", "model", "obs_var", "inf"),
    ("lineargauss", "model", "obs_var", "-inf"),
    ("epidemic", "prior", "beta0", "nan"),
])
def test_non_finite_config_value_exits_2(tmp_path, capsys, kind, section,
                                         key, value):
    # Every range check has the form "x <= 0", which NaN passes, so a
    # non-finite value must be refused when the value is read.
    meas = tmp_path / "m.csv"
    meas.write_text("t,y\n0.5,0.1\n1.0,0.2\n", encoding="utf-8")
    bad = "%s = %s" % (key, value)
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = %s
%s

[prior]
%s

[filter]
particles = 20

[io]
measurements = %s
out = %s
""" % (kind, bad if section == "model" else "",
       bad if section == "prior" else "", meas, tmp_path / "run"))
    assert sdepf.cli.main(["filter", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "configuration error: [%s] %s must be finite, got '%s'" \
        % (section, key, value) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind, key", [("ou", "obs_var"),
                                       ("pendulum", "obs_var"),
                                       ("epidemic", "q"),
                                       ("lineargauss", "obs_var")])
def test_simulate_non_positive_model_value_exits_2(tmp_path, capsys, kind,
                                                   key):
    # Every command checks [model]: before, simulate wrote NaN readings,
    # silently ignored the value or failed with a math domain error.
    cfg = write_config(tmp_path / "s.ini", "[model]\nkind = %s\n%s = -0.5\n"
                       % (kind, key))
    out = tmp_path / "sim"
    assert sdepf.cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error: [model] %s must be positive, got -0.5" % key \
        in capsys.readouterr().err
    assert not out.exists()


def test_lineargauss_bridge_proposal_exits_2(tmp_path, capsys):
    meas = tmp_path / "m.csv"
    meas.write_text("t,y\n0.5,0.1\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = lineargauss

[filter]
proposal = bridge

[io]
measurements = %s
out = %s
""" % (meas, tmp_path / "run"))
    assert sdepf.cli.main(["filter", "--config", cfg]) == 2
    assert "proposal 'bridge' not supported" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("rows", ["1,3\n2,inf\n", "1,3\nnan,4\n",
                                  "1,3\n2,1e19\n"],
                         ids=["inf_count", "nan_week", "count_over_int64"])
def test_bad_count_value_exits_2(tmp_path, capsys, rows):
    # An infinite count used to crash with OverflowError (exit 1), a NaN
    # week reached the filter and failed there (exit 3).
    meas = tmp_path / "counts.csv"
    meas.write_text("week,deaths\n" + rows, encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = epidemic

[filter]
particles = 20

[io]
measurements = %s
out = %s
""" % (meas, tmp_path / "run"))
    assert sdepf.cli.main(["filter", "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_output_path_is_a_file_exits_4(tmp_path, capsys):
    meas = tmp_path / "m.csv"
    meas.write_text("t,y\n0.5,0.1\n", encoding="utf-8")
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = ou

[filter]
particles = 20

[io]
measurements = %s
""" % meas)
    assert sdepf.cli.main(["filter", "--config", cfg, "--out", str(out)]) == 4
    assert "i/o error" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "not a directory\n"


def test_malformed_count_file_exits_2(tmp_path, capsys):
    meas = tmp_path / "counts.csv"
    meas.write_text("week,deaths\n1,3\n2\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = epidemic

[io]
measurements = %s
out = %s
""" % (meas, tmp_path / "run"))
    assert sdepf.cli.main(["filter", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "malformed" in err


def test_measurement_at_time_zero_exits_2(tmp_path, capsys):
    meas = tmp_path / "m.csv"
    meas.write_text("t,y\n0.0,0.1\n0.5,0.2\n", encoding="utf-8")
    cfg = write_config(tmp_path / "f.ini", """
[model]
kind = ou

[io]
measurements = %s
out = %s
""" % (meas, tmp_path / "run"))
    assert sdepf.cli.main(["filter", "--config", cfg]) == 2
    assert "positive" in capsys.readouterr().err


def test_unknown_command_exits_2():
    res = run_cli("frobnicate")
    assert res.returncode == 2
