"""Measurement-aware bridge proposals from approximate Gaussian filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

from sdepf import (FilterConfig, GaussianBlock, ImportanceSpec, SdeModel,
                   TimeGrid, build_bridge, cli, ekf_condition, ekf_predict,
                   gaussian_measurement, prior_proposal, propagate_coupled,
                   run_filter, sample_brownian_increments)
from sdepf.exceptions import IntegrationError
from sdepf.models import pendulum_drift, pendulum_jacobian

from oracles import chain_kalman_filter


def _linear(f_mat):
    """linearize callable of the linear drift x -> F x."""
    n = f_mat.shape[0]
    return lambda x, t: (x @ f_mat.T, np.broadcast_to(f_mat, x.shape + (n,)))


def _zero_drift(x, t):
    return np.zeros_like(x), np.zeros(x.shape + (x.shape[-1],))


class TestEkfPredict:
    def test_dirac_start_gains_process_noise(self):
        # [TRIVIAL] Zero drift: after n steps the covariance is q * T.
        q = np.diag([0.0, 0.3])
        grid = TimeGrid(0.0, 0.5, 10)
        out = ekf_predict(np.array([[1.0, -2.0]]), _zero_drift, q, grid)
        np.testing.assert_array_equal(out.mean, [[1.0, -2.0]])
        np.testing.assert_allclose(out.cov[0], q * 0.5, atol=1e-14)

    def test_linear_model_matches_manual_recursion(self):
        a = -0.7
        grid = TimeGrid(0.0, 1.0, 8)
        out = ekf_predict(np.array([[2.0]]), _linear(np.array([[a]])),
                          np.array([[0.4]]), grid)
        m, p = 2.0, 0.0
        for _ in range(8):
            p = (1.0 + a * grid.dt) ** 2 * p + 0.4 * grid.dt
            m = m + a * m * grid.dt
        assert out.mean[0, 0] == pytest.approx(m, abs=1e-14)
        assert out.cov[0, 0, 0] == pytest.approx(p, abs=1e-14)

    def test_linearizes_once_per_step_at_the_running_mean(self):
        # One (f, F) evaluation per Euler step, at m_j with
        # m_{j+1} = m_j + f(m_j, t_j) dt, and at t_j = t0 + j dt.
        grid = TimeGrid(0.2, 0.9, 7)
        x0 = np.array([[1.5, 0.0], [-0.3, 0.8]])
        drift, jac = pendulum_drift(1.3), pendulum_jacobian(1.3)
        seen = []

        def linearize(x, t):
            seen.append((x.copy(), t))
            return drift(x, t), jac(x, t)

        out = ekf_predict(x0, linearize, np.diag([0.0, 0.4]), grid)
        assert len(seen) == grid.n_steps
        mean = x0
        for j, (x, t) in enumerate(seen):
            assert t == grid.t0 + j * grid.dt
            assert x.tobytes() == mean.tobytes()
            mean = mean + drift(mean, t) * grid.dt
        assert out.mean.tobytes() == mean.tobytes()

    @staticmethod
    def _linear_predict(f_mat, q_mat, grid):
        return ekf_predict(np.ones((1, f_mat.shape[0])), _linear(f_mat),
                           q_mat, grid)

    @staticmethod
    def _euler_chain_cov(f_mat, q_mat, grid):
        a_mat = np.eye(f_mat.shape[0]) + f_mat * grid.dt
        p = np.zeros_like(f_mat)
        for _ in range(grid.n_steps):
            p = a_mat @ p @ a_mat.T + q_mat * grid.dt
        return p

    def test_three_dim_rank_one_noise_matches_euler_chain(self):
        # The prediction is the Kalman prediction of the Euler chain that
        # the kernels simulate.
        rng = np.random.default_rng(12)
        f_mat = rng.normal(size=(3, 3))
        ell = rng.normal(size=(3, 1))
        q_mat = ell @ ell.T
        grid = TimeGrid(0.0, 0.8, 7)
        out = self._linear_predict(f_mat, q_mat, grid)
        ref = self._euler_chain_cov(f_mat, q_mat, grid)
        np.testing.assert_allclose(out.cov[0], ref, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref).max())

    def test_two_steps_from_dirac_stay_psd(self):
        # [DERIVED] Pendulum-shaped F = [[0, 1], [c, 0]], Q = diag(0, q),
        # dt = 0.5, q = 1: after one step P = Q dt; after two steps the
        # Euler chain gives q dt [[dt^2, dt], [dt, 2]] = [[0.125, 0.25],
        # [0.25, 1.0]] (det q^2 dt^4 > 0), independent of c.  Dropping the
        # F P F^T dt^2 term gives [[0, 0.25], [0.25, 1.0]], whose
        # determinant -q^2 dt^4 is negative.
        f_mat = np.array([[0.0, 1.0], [-0.8, 0.0]])
        out = self._linear_predict(f_mat, np.diag([0.0, 1.0]),
                                   TimeGrid(0.0, 1.0, 2))
        np.testing.assert_allclose(out.cov[0], [[0.125, 0.25], [0.25, 1.0]],
                                   rtol=1e-15)
        assert np.linalg.eigvalsh(out.cov[0]).min() > 0.0
        old_rule = np.array([[0.0, 0.25], [0.25, 1.0]])
        assert np.linalg.eigvalsh(old_rule).min() < 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, (n, n), elements=st.floats(-20.0, 20.0)),
        hnp.arrays(np.float64, (n, n), elements=st.floats(-3.0, 3.0)),
        st.floats(1e-3, 0.5), st.integers(1, 12))))
    def test_dirac_start_predictions_are_psd(self, case):
        # Every prediction from a Dirac start is PSD up to rounding, for
        # any F, any (possibly rank-deficient) Q, step size and count.
        f_mat, ell, span, n_steps = case
        q_mat = ell @ ell.T
        out = self._linear_predict(f_mat, q_mat, TimeGrid(0.0, span, n_steps))
        cov = out.cov[0]
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-13 * np.trace(cov)

    def test_batch_rows_do_not_depend_on_their_neighbours(self):
        # Each particle's arithmetic is the same in any batch, which the
        # chunked builders rely on for thread invariance.
        states = np.random.default_rng(3).normal(size=(7, 2))
        drift, jac = pendulum_drift(1.0), pendulum_jacobian(1.0)

        def predict(x):
            return ekf_predict(x, lambda m, t: (drift(m, t), jac(m, t)),
                               np.diag([0.0, 0.4]), TimeGrid(0.0, 0.3, 10))

        whole = predict(states)
        for sl in (slice(0, 3), slice(3, 7), slice(5, 6)):
            part = predict(states[sl])
            assert part.cov.tobytes() == whole.cov[sl].tobytes()
            assert part.mean.tobytes() == whole.mean[sl].tobytes()

    def test_nonfinite_drift_raises(self):
        with pytest.raises(IntegrationError):
            ekf_predict(np.array([[1.0]]),
                        lambda x, t: (x * np.nan, np.zeros(x.shape + (1,))),
                        np.array([[0.1]]), TimeGrid(0.0, 1.0, 2))

    def test_nonfinite_process_noise_raises(self):
        # A NaN in Q must not vanish with the eigenvalues it spoils.
        with pytest.raises(IntegrationError):
            ekf_predict(np.array([[1.0, 0.0]]), _zero_drift,
                        np.diag([0.0, np.nan]), TimeGrid(0.0, 1.0, 2))

    def test_batched_over_particles(self):
        states = np.array([[0.0], [1.0], [2.0]])
        out = ekf_predict(states, _linear(np.array([[-1.0]])),
                          np.array([[0.2]]), TimeGrid(0.0, 0.4, 4))
        assert out.mean.shape == (3, 1)
        assert out.cov.shape == (3, 1, 1)
        np.testing.assert_allclose(out.mean[:, 0],
                                   np.array([0.0, 1.0, 2.0]) * 0.9 ** 4,
                                   rtol=1e-12, atol=1e-15)


class TestEkfCondition:
    def test_scalar_promotion_and_shrinkage(self):
        moments = GaussianBlock(np.array([[1.0]]), np.array([[[2.0]]]))
        out = ekf_condition(moments, np.array([1.0]), 0.5, 0.0)
        # [DERIVED] S = 2.5, gain = 0.8: m' = 0.2, P' = 0.4.
        assert out.mean[0, 0] == pytest.approx(0.2, rel=1e-14)
        assert out.cov[0, 0, 0] == pytest.approx(0.4, rel=1e-14)

    def test_partial_observation_of_two_states(self):
        moments = GaussianBlock(np.array([[1.0, 0.0]]),
                             np.array([np.diag([1.0, 1.0])]))
        out = ekf_condition(moments, np.array([[1.0, 0.0]]), 1.0, 3.0)
        assert out.mean[0, 0] == pytest.approx(2.0, rel=1e-14)
        assert out.mean[0, 1] == 0.0
        assert out.cov[0, 1, 1] == pytest.approx(1.0, rel=1e-14)

    def test_returns_exactly_symmetric_covariance(self):
        # ekf_condition runs no repair_cov, so it symmetrizes itself.
        rng = np.random.default_rng(9)
        a = rng.normal(size=(50, 3, 3))
        cov = np.matmul(a, np.swapaxes(a, -1, -2))
        cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
        h = rng.normal(size=(50, 2, 3))
        out = ekf_condition(GaussianBlock(rng.normal(size=(50, 3)), cov), h,
                            np.eye(2) * 0.3, rng.normal(size=(50, 2)))
        np.testing.assert_array_equal(out.cov, np.swapaxes(out.cov, -1, -2))


class TestBuildBridge:
    def _posterior(self, means, varis):
        n = len(means)
        mean = np.zeros((n, 2))
        mean[:, 1] = means
        cov = np.zeros((n, 2, 2))
        cov[:, 1, 1] = varis
        return GaussianBlock(mean, cov)

    @staticmethod
    def _endpoint(x_prev, imp, q, t_end, n_steps, rng):
        # The OU model -x: the target drift differs from the bridge's, so
        # Lambda is nonzero, but s still moves by g dt + dbeta.
        model = SdeModel(1, 1, lambda x, t: -x, 1.0, q)
        grid = TimeGrid(0.0, t_end, n_steps)
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=x_prev.shape[0])
        res = propagate_coupled(model, imp, x_prev[:, 1:], grid, incs)
        assert np.all(np.isfinite(res.llr))
        return res.state[:, 0], incs.values.sum(axis=(1, 2))

    def test_endpoint_identity_per_path(self):
        # The state the filter weights and reports must land exactly on
        # m + beta(T), path by path.
        q, t_end, n_steps = 0.8, 0.5, 7
        n = 512
        rng = np.random.default_rng(9)
        x_prev = np.zeros((n, 2))
        x_prev[:, 1] = rng.normal(size=n)
        m_k = rng.normal(size=n)
        p_k = 0.3 + 0.1 * rng.random(n)
        imp = build_bridge(x_prev, self._posterior(m_k, p_k), t_end, index=1)
        end, beta_total = self._endpoint(x_prev, imp, q, t_end,
                                                n_steps, rng)
        np.testing.assert_allclose(end, m_k + beta_total, rtol=0, atol=1e-10)

    def test_endpoint_law_kolmogorov_smirnov(self):
        # [DERIVED] s(T) ~ N(m_k, q T) = N(-1.2, 0.5^2) for q = 0.25,
        # T = 1; the posterior variance (here 0.04) plays no part.
        q, t_end = 0.25, 1.0
        n = 4000
        rng = np.random.default_rng(3)
        x_prev = np.full((n, 2), 0.7)
        imp = build_bridge(x_prev, self._posterior(np.full(n, -1.2),
                                                   np.full(n, 0.04)),
                           t_end, index=1)
        end, _ = self._endpoint(x_prev, imp, q, t_end, 10, rng)
        stat = sps.kstest(end, sps.norm(loc=-1.2, scale=0.5).cdf)
        assert stat.pvalue > 1e-3

    def test_rejects_bad_parameters(self):
        posterior = self._posterior([0.0], [1.0])
        for dt in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                build_bridge(np.zeros((1, 2)), posterior, dt, index=1)

    def test_drift_is_constant_toward_target(self):
        x_prev = np.array([[0.0, 1.0], [0.0, -1.0]])
        imp = build_bridge(x_prev, self._posterior([2.0, 0.0], [0.1, 0.1]),
                           0.5, index=1)
        g = imp.drift(None, x_prev[:, 1:], 0.0)
        np.testing.assert_allclose(g[:, 0], [(2.0 - 1.0) / 0.5,
                                             (0.0 + 1.0) / 0.5], rtol=1e-14)
        # The drift ignores where the path currently is; it is frozen at
        # interval start.
        g_again = imp.drift(None, x_prev[:, 1:] + 100.0, 0.3)
        np.testing.assert_array_equal(g, g_again)

    def test_huge_noise_bridge_close_to_prior_shape(self):
        # When the target mean is the particle's own state the bridge is
        # the free model noise: zero drift, the model's dispersion, and
        # finite drifts whatever the posterior variance.
        x_prev = np.zeros((3, 2))
        imp = build_bridge(x_prev, self._posterior(np.zeros(3),
                                                   [0.0, 0.3, 1e300]),
                           0.5, index=1)
        g = imp.drift(None, x_prev[:, 1:], 0.0)
        np.testing.assert_array_equal(g, np.zeros((3, 1)))


class TestInformativeOuBridge:
    """The CLI's OU bridge where the readings pin the state down (r = 0.01
    against q dt = 1).  The bridge steers with the model's own
    dispersion: a proposal dispersion fitted to the EKF variance sent the
    weighted state past its target by sqrt(q dt / P_k), about 10 here,
    and the log marginal to the order of -1e56 with step ESS near 0.
    """

    P = dict(rate=1.0, q=1.0, obs_var=0.01, x0_mean=0.0, x0_var=1.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tracks_chain_kalman_and_beats_bootstrap_ess(self, seed):
        p = self.P
        times, _, ys = cli._simulate_ou(p, dict(dt=1.0, n_meas=30,
                                                n_fine=50), seed)
        kf = chain_kalman_filter(-p["rate"], 1.0, p["q"], [1.0],
                                 p["obs_var"], [0.0], [[p["x0_var"]]],
                                 times, ys, n_steps=10)
        model = cli._ou_model(p)
        cfg = FilterConfig(n_particles=1000, n_steps=10, seed=seed)
        meas = gaussian_measurement(0, p["obs_var"])
        ess = {}
        for name, proposal in (
                ("bridge", cli._linear_bridge_builder(p["rate"], p["q"],
                                                      p["obs_var"])),
                ("bootstrap", prior_proposal(model))):
            res = run_filter(model, proposal, meas, times, ys, cfg,
                             method="sir")
            ess[name] = np.array([r.ess for r in res.summaries[1:]])
            if name == "bridge":
                # The benchmark's log-marginal gate: |z| <= 6 Monte Carlo
                # standard errors, sqrt(sum 1 / ESS).
                se = np.sqrt(np.sum(1.0 / ess[name]))
                assert abs(res.log_marginal - kf.log_ml) <= 6.0 * se
        assert ess["bridge"].min() > ess["bootstrap"].min()
