"""Marginalized filters: Kalman recursions and conjugate statistics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from sdepf import (CondGaussModel, FilterConfig, GaussianBlock, ImportanceSpec,
                   ParticleSet, SdeModel, SplitSdeModel, TimeGrid,
                   eval_mixture, gamma_poisson_family, invchi2_family,
                   models, prior_proposal, propagate_coupled_split,
                   repair_cov, run_filter, seed_streams)
from sdepf.filtering import draw_increments
from sdepf.exceptions import IntegrationError
from sdepf.proposals import ekf_condition
import sdepf.raoblackwell as rb
from sdepf.raoblackwell import rb_param_step, replay_path

from oracles import (epidemic_week1_posterior, gamma_poisson_marginal_quad,
                     invchi2_marginal_quad)


def _kalman_update(block, h_mat, r_mat, y):
    """rb_gauss_step's measurement update: the shared conditioning, then
    repair_cov.  Returns (GaussianBlock, predicted mean, S)."""
    mean, cov, pred, s_mat, _ = rb._gaussian_condition(block.mean, block.cov,
                                                       h_mat, r_mat, y)
    return GaussianBlock(mean, repair_cov(cov)), pred, s_mat


class TestKalmanUpdate:
    def test_hand_values(self):
        # [DERIVED] m=1, P=0.5, H=1, R=0.5, y=0: S=1, gain=0.5,
        # m'=0.5, P'=0.25, predicted mean 1.
        block = GaussianBlock(np.array([[1.0]]), np.array([[[0.5]]]))
        out, pred, s_mat = _kalman_update(block, [[1.0]], 0.5, 0.0)
        np.testing.assert_allclose(out.mean, [[0.5]], rtol=1e-15)
        np.testing.assert_allclose(out.cov, [[[0.25]]], rtol=1e-15)
        np.testing.assert_allclose(pred, [[1.0]], rtol=1e-15)
        np.testing.assert_allclose(s_mat, [[[1.0]]], rtol=1e-15)

    def test_one_dim_r_is_one_variance_per_particle(self):
        # A 1-d R of length N is the (N, 1, 1) batch, not a diagonal.
        block = GaussianBlock(np.array([[1.0], [1.0], [1.0]]),
                              np.full((3, 1, 1), 0.5))
        r = np.array([0.5, 1.5, 4.5])
        out, pred, s_mat = _kalman_update(block, [[1.0]], r, 0.0)
        ref, _, s_ref = _kalman_update(block, [[1.0]], r[:, None, None], 0.0)
        assert out.mean.tobytes() == ref.mean.tobytes()
        assert s_mat.tobytes() == s_ref.tobytes()
        # [DERIVED] S = 0.5 + R = 1, 2, 5.
        np.testing.assert_allclose(s_mat[:, 0, 0], [1.0, 2.0, 5.0],
                                   rtol=1e-15)

    def test_matches_ekf_condition_bitwise(self):
        # The moment update and the proposal-side conditioning share one
        # code path; identical inputs must give identical bits.
        rng = np.random.default_rng(4)
        mean = rng.normal(size=(6, 2))
        a = rng.normal(size=(6, 2, 2))
        cov = np.matmul(a, np.swapaxes(a, -1, -2)) + np.eye(2)
        h = np.array([[1.0, 0.5]])
        block, pred_b, s_b = _kalman_update(GaussianBlock(mean, cov), h,
                                            0.3, 1.7)
        moments = ekf_condition(GaussianBlock(mean.copy(), cov.copy()), h,
                                0.3, 1.7)
        np.testing.assert_array_equal(block.mean, moments.mean)
        np.testing.assert_array_equal(block.cov, moments.cov)

    def test_no_information_leaves_prior(self):
        # R huge relative to P: posterior barely moves.
        block = GaussianBlock(np.array([[2.0]]), np.array([[[0.5]]]))
        out, _, _ = _kalman_update(block, [[1.0]], 1e12, -50.0)
        assert out.mean[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert out.cov[0, 0, 0] == pytest.approx(0.5, rel=1e-9)


class TestPropagateGaussianBlock:
    """rb._block_step, the Euler step of the conditional moment ODEs."""

    def test_pure_diffusion_variance_is_exact(self):
        # [TRIVIAL] F=0: P(T) = P0 + q T and the Euler sum of a constant
        # integrand is exact.
        mean, cov = np.array([[1.5]]), np.array([[[0.2]]])
        for _ in range(20):
            mean, cov = rb._block_step(mean, cov, np.zeros((1, 1, 1)),
                                       np.zeros((1, 1)), np.ones((1, 1, 1)),
                                       np.array([[0.3]]), 0.05)
        assert mean[0, 0] == 1.5
        assert cov[0, 0, 0] == pytest.approx(0.2 + 0.3, abs=1e-13)

    def test_linear_decay_matches_recursion(self):
        # [DERIVED] F=-1, dt=0.1, 10 steps: mean scales by
        # 0.9**10 = 0.34867844010000015.
        mean, cov = np.array([[2.0]]), np.array([[[0.5]]])
        p_ref = 0.5
        for _ in range(10):
            mean, cov = rb._block_step(mean, cov, -np.ones((1, 1, 1)),
                                       np.zeros((1, 1)), np.ones((1, 1, 1)),
                                       np.array([[0.4]]), 0.1)
            p_ref = p_ref + (-2.0 * p_ref + 0.4) * 0.1
        assert mean[0, 0] == pytest.approx(2.0 * 0.34867844010000015,
                                           abs=1e-13)
        assert cov[0, 0, 0] == pytest.approx(p_ref, abs=1e-13)

    def test_nonfinite_moments_raise(self):
        # An infinite shift f1 leaves the sampled states finite, so the
        # kernel runs through and rb_gauss_step's own check of the
        # moments at the interval's end raises.
        model = dataclasses.replace(
            _decoupled_cond_model(),
            lin_shift=lambda x2, x3, t: np.full(x3.shape, np.inf))
        pset = rb.init_rb_gauss_set(model, np.random.default_rng(3), 5)
        with pytest.raises(IntegrationError, match=r"^Gaussian block "
                                                   r"moments non-finite at "
                                                   r"t=0\.5$"), \
                np.errstate(invalid="ignore"):
            rb.rb_gauss_step(pset, model, prior_proposal(model), 0.4,
                             TimeGrid(0.0, 0.5, 4),
                             noise_rng=np.random.default_rng(4))


class TestRepairCov:
    def test_clamps_negative_eigenvalue(self):
        # [DERIVED] [[1, 2], [2, 1]] has eigenvalues (3, -1); the repair
        # floors the negative one at zero.
        fixed = repair_cov(np.array([[1.0, 2.0], [2.0, 1.0]]))
        w = np.linalg.eigvalsh(fixed)
        np.testing.assert_allclose(w, [0.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(fixed, fixed.T, atol=0)

    def test_scalar_block(self):
        np.testing.assert_array_equal(repair_cov(np.array([[-0.5]])), [[0.0]])

    def test_psd_input_unchanged(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(repair_cov(cov), cov, atol=1e-14)

    def test_symmetrizes(self):
        fixed = repair_cov(np.array([[1.0, 0.2], [0.0, 1.0]]))
        np.testing.assert_allclose(fixed, [[1.0, 0.1], [0.1, 1.0]],
                                   atol=1e-14)

    def test_rows_are_repaired_one_by_one(self):
        # One indefinite matrix in a batch is rebuilt on its own: every
        # other matrix comes back with the bytes of its symmetrized input,
        # and the batch equals the matrices repaired one at a time.
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 3, 3))
        cov = np.matmul(a, np.swapaxes(a, -1, -2))
        cov[2] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        fixed = repair_cov(cov)
        sym = 0.5 * (cov + np.swapaxes(cov, -1, -2))
        for i in range(6):
            assert fixed[i].tobytes() == repair_cov(cov[i]).tobytes()
            if i != 2:
                assert fixed[i].tobytes() == sym[i].tobytes()
        assert np.linalg.eigvalsh(fixed[2]).min() > -1e-12
        assert fixed[2].tobytes() != sym[2].tobytes()


class TestInvChi2Family:
    def test_init_stats(self):
        fam = invchi2_family(2.0, 0.2)
        np.testing.assert_array_equal(fam.init_stats(3),
                                      np.tile([2.0, 0.2], (3, 1)))

    def test_single_update_hand_value(self):
        # [DERIVED] (nu, s2) = (2, 0.2), residual 0:
        # nu' = 3, s2' = (2*0.2 + 0)/3 = 0.13333333333333333.
        fam = invchi2_family(2.0, 0.2)
        out = fam.update(np.array([[2.0, 0.2]]), np.array([1.0]),
                         np.array(1.0))
        np.testing.assert_allclose(out, [[3.0, 0.4 / 3.0]], rtol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1,
                    max_size=50))
    def test_sequential_equals_batch(self, residuals):
        nu0, s20 = 2.0, 0.2
        fam = invchi2_family(nu0, s20)
        stats = fam.init_stats(1)
        for r in residuals:
            stats = fam.update(stats, np.array([0.0]), np.array(r))
        n = len(residuals)
        batch_nu = nu0 + n
        batch_s2 = (nu0 * s20 + np.sum(np.square(residuals))) / batch_nu
        assert stats[0, 0] == batch_nu
        assert stats[0, 1] == pytest.approx(batch_s2, rel=1e-10)

    def test_marginal_is_student_t(self):
        fam = invchi2_family(2.0, 0.2)
        stats = np.array([[5.0, 0.7], [2.0, 0.2]])
        u = np.array([1.0, -0.5])
        y = 0.3
        ours = fam.log_marginal(y, u, stats)
        ref = [sps.t.logpdf(y - 1.0, df=5.0, scale=np.sqrt(0.7)),
               sps.t.logpdf(y + 0.5, df=2.0, scale=np.sqrt(0.2))]
        np.testing.assert_allclose(ours, ref, rtol=1e-12)

    def test_marginal_matches_quadrature(self):
        fam = invchi2_family(3.0, 0.4)
        for r in (0.0, 0.7, -2.1):
            ours = fam.log_marginal(r, np.array([0.0]),
                                    np.array([[3.0, 0.4]]))[0]
            ref = invchi2_marginal_quad(r, 3.0, 0.4)
            assert abs(ours - ref) < 1e-6 * abs(ref) + 1e-9

    def test_mean_and_point_estimate(self):
        fam = invchi2_family(2.0, 0.2)
        stats = np.array([[4.0, 0.3], [2.0, 0.9]])
        mean = fam.mean(stats)
        assert mean[0] == pytest.approx(4.0 * 0.3 / 2.0, rel=1e-14)
        assert np.isnan(mean[1])
        point = fam.point_estimate(stats)
        assert point[0] == pytest.approx(0.6, rel=1e-14)
        assert point[1] == pytest.approx(0.9, rel=1e-14)

    def test_samples_match_inverse_chi2_law(self):
        fam = invchi2_family(2.0, 0.2)
        stats = np.array([[10.0, 0.5]])
        draws = fam.sample(stats, np.random.default_rng(0), 200000)
        assert draws.shape == (200000,)
        # nu s2 / draws is chi-squared with nu degrees of freedom.
        transformed = 10.0 * 0.5 / draws
        assert np.mean(transformed) == pytest.approx(10.0, rel=0.02)
        assert np.mean(draws) == pytest.approx(10.0 * 0.5 / 8.0, rel=0.05)


class TestGammaPoissonFamily:
    def test_init_and_update(self):
        fam = gamma_poisson_family(10.0, 0.001)
        np.testing.assert_array_equal(fam.init_stats(2),
                                      np.tile([10.0, 0.001], (2, 1)))
        out = fam.update(np.array([[10.0, 0.001]]), np.array([2e-4]), 3)
        np.testing.assert_allclose(out, [[13.0, 0.0012]], rtol=1e-12)

    def test_zero_count_hand_value(self):
        # [DERIVED] alpha = beta = theta = 1, d = 0: marginal is
        # (beta/(beta+theta))^alpha = 1/2.
        fam = gamma_poisson_family(1.0, 1.0)
        out = fam.log_marginal(0, np.array([1.0]), np.array([[1.0, 1.0]]))
        assert out[0] == pytest.approx(np.log(0.5), abs=1e-14)

    def test_marginal_is_negative_binomial(self):
        fam = gamma_poisson_family(1.0, 1.0)
        alpha, beta, theta = 7.5, 0.02, 0.004
        stats = np.array([[alpha, beta]])
        for d in (0, 1, 5, 40):
            ours = fam.log_marginal(d, np.array([theta]), stats)[0]
            ref = sps.nbinom.logpmf(d, alpha, beta / (beta + theta))
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_marginal_matches_quadrature(self):
        fam = gamma_poisson_family(1.0, 1.0)
        for d, theta in ((0, 1e-4), (6, 3e-4), (25, 5e-4)):
            ours = fam.log_marginal(d, np.array([theta]),
                                    np.array([[10.0, 0.001]]))[0]
            ref = gamma_poisson_marginal_quad(d, theta, 10.0, 0.001)
            assert abs(ours - ref) < 1e-6 * abs(ref) + 1e-9

    def test_count_validation(self):
        fam = gamma_poisson_family(1.0, 1.0)
        stats = np.array([[1.0, 1.0]])
        with pytest.raises(ValueError):
            fam.log_marginal(-1, np.array([1.0]), stats)
        with pytest.raises(ValueError):
            fam.log_marginal(2.5, np.array([1.0]), stats)
        with pytest.raises(ValueError):
            fam.log_marginal(2, np.array([0.0]), stats)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                              st.floats(min_value=1e-6, max_value=1e-3)),
                    min_size=1, max_size=30))
    def test_sequential_equals_batch(self, events):
        fam = gamma_poisson_family(10.0, 0.001)
        stats = fam.init_stats(1)
        for d, theta in events:
            stats = fam.update(stats, np.array([theta]), d)
        alpha_batch = 10.0 + sum(d for d, _ in events)
        beta_batch = 0.001 + np.sum([t for _, t in events])
        assert stats[0, 0] == alpha_batch
        assert stats[0, 1] == pytest.approx(beta_batch, rel=1e-10)

    def test_mean_and_samples(self):
        fam = gamma_poisson_family(10.0, 0.001)
        stats = np.array([[10.0, 0.001]])
        assert fam.mean(stats)[0] == pytest.approx(1e4, rel=1e-12)
        assert fam.point_estimate(stats)[0] == pytest.approx(1e4, rel=1e-12)
        draws = fam.sample(stats, np.random.default_rng(1), 100000)
        assert draws.shape == (100000,)
        assert np.mean(draws) == pytest.approx(1e4, rel=0.02)
        assert np.std(draws) == pytest.approx(1e4 / np.sqrt(10.0), rel=0.03)


class TestFamilySampleLayout:
    """sample(stats, rng, counts): counts[i] draws of particle i, in
    particle order, bit for bit those of a per-row shape parameter."""

    @staticmethod
    def _per_row(kind, stats, rng, counts):
        a, b = np.repeat(stats[:, 0], counts), np.repeat(stats[:, 1], counts)
        if kind == "invchi2":
            return a * b / rng.chisquare(a)
        return rng.gamma(a, 1.0 / b)

    @pytest.mark.parametrize("kind", ["invchi2", "gamma"])
    @pytest.mark.parametrize("shared_shape", [True, False])
    def test_bit_identical_to_per_row_shape(self, kind, shared_shape):
        rng = np.random.default_rng(12)
        n = 300
        shape = np.full(n, 7.0 if kind == "invchi2" else 31.0)
        if not shared_shape:
            shape[::7] += 2.0
        scale = rng.uniform(0.1, 2.0, n) * (1.0 if kind == "invchi2" else 1e-3)
        stats = np.column_stack([shape, scale])
        fam = invchi2_family(2.0, 0.2) if kind == "invchi2" \
            else gamma_poisson_family(10.0, 0.001)
        counts = rng.integers(0, 6, n)
        counts[:3] = 0
        ours = fam.sample(stats, np.random.default_rng(5), counts)
        ref = self._per_row(kind, stats, np.random.default_rng(5), counts)
        assert ours.shape == (counts.sum(),)
        np.testing.assert_array_equal(ours, ref)
        # An int count is the same as that count for every particle.
        np.testing.assert_array_equal(
            fam.sample(stats, np.random.default_rng(6), 4),
            self._per_row(kind, stats, np.random.default_rng(6),
                          np.full(n, 4)))


    @pytest.mark.parametrize("kind", ["invchi2", "gamma"])
    def test_peak_memory_is_two_blocks(self, kind):
        # K = 64 N draws under a shared shape hold two K-sized blocks at
        # most: the repeated scales and the draws, combined in place.
        n = 5000
        fam = invchi2_family(2.0, 0.2) if kind == "invchi2" \
            else gamma_poisson_family(10.0, 0.001)
        stats = fam.init_stats(n)
        tracemalloc.start()
        try:
            draws = fam.sample(stats, np.random.default_rng(5), 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draws.size == 64 * n
        assert peak <= 2.05 * draws.nbytes


def _decoupled_cond_model():
    """Marginal block independent of the sampled state: the filter must
    reduce to a single Kalman filter with uniform weights."""
    return CondGaussModel(
        dim_lin=1, dim_det=0, dim_stoch=1,
        lin_coeff=lambda x2, x3, t: np.full(x3.shape[:-1] + (1, 1), -0.5),
        lin_shift=lambda x2, x3, t: np.zeros(x3.shape[:-1] + (1,)),
        lin_noise=lambda x2, x3, t: np.ones(x3.shape[:-1] + (1, 1)),
        lin_diffusion=0.3,
        drift_det=lambda x2, x3, t: np.zeros_like(x2),
        drift_stoch=lambda x2, x3, t: -x3,
        dispersion=1.0,
        diffusion=0.4,
        meas_matrix=np.array([[1.0]]),
        meas_cov=np.array([[0.1]]),
        initial_sampler=lambda g: g.normal(0.0, 1.0, size=1),
        init_gauss=(np.array([0.7]), np.array([[0.9]])))


class TestRbGauss:
    def test_decoupled_block_reduces_to_kalman(self):
        model = _decoupled_cond_model()
        times = 0.25 * np.arange(1, 9)
        ys = np.array([0.9, 0.4, 0.6, -0.1, 0.2, 0.5, 0.0, 0.3])
        cfg = FilterConfig(n_particles=40, n_steps=4, seed=5)
        res = run_filter(model, prior_proposal(model), None, times, ys, cfg,
                         method="rb_gauss")

        # Oracle: the same moment recursion written as a plain loop.
        m, p = 0.7, 0.9
        t_prev = 0.0
        for t_k, y_k, row in zip(times, ys, res.summaries[1:]):
            dt = (t_k - t_prev) / 4
            for _ in range(4):
                m = m + (-0.5 * m) * dt
                p = p + (2.0 * (-0.5) * p + 0.3) * dt
            s = p + 0.1
            gain = p / s
            m = m + gain * (y_k - m)
            p = p - gain * gain * s
            assert row.ess == pytest.approx(40.0, rel=1e-12)
            assert not row.resampled
            assert row.mean[0] == pytest.approx(m, abs=1e-10)
            assert row.var[0] == pytest.approx(p, abs=1e-10)
            t_prev = t_k
        blocks = res.final_set.gauss
        np.testing.assert_allclose(blocks.mean - blocks.mean[0], 0.0,
                                   atol=1e-12)

    def test_thread_count_invariance(self):
        model = _decoupled_cond_model()
        times = 0.5 * np.arange(1, 5)
        ys = np.array([0.2, -0.3, 0.4, 0.1])
        outs = []
        for threads in (1, 3):
            cfg = FilterConfig(n_particles=60, n_steps=3, seed=2,
                               threads=threads)
            res = run_filter(model, prior_proposal(model), None, times, ys,
                             cfg, method="rb_gauss")
            outs.append(res)
        np.testing.assert_array_equal(outs[0].final_set.states,
                                      outs[1].final_set.states)
        np.testing.assert_array_equal(outs[0].final_set.gauss.mean,
                                      outs[1].final_set.gauss.mean)
        assert outs[0].log_marginal == outs[1].log_marginal

    def test_summary_layout_marginal_block_first(self):
        model = _decoupled_cond_model()
        cfg = FilterConfig(n_particles=30, n_steps=2, seed=0)
        res = run_filter(model, prior_proposal(model), None, [1.0], [0.5],
                         cfg, method="rb_gauss")
        row = res.summaries[-1]
        assert row.mean.shape == (2,)
        assert row.var.shape == (2,)
        assert np.all(row.var >= 0.0)


def _nonlinear_cond_model(drift_stoch=lambda x2, x3, t: -x3 + np.tanh(x2)):
    def const(value):
        return lambda x2, x3, t: np.full(x3.shape[:-1] + (1, 1), value)

    return CondGaussModel(
        dim_lin=1, dim_det=1, dim_stoch=1, lin_coeff=const(-0.5),
        lin_shift=lambda x2, x3, t: np.sin(x3) + 0.1 * x2,
        lin_noise=lambda x2, x3, t: np.cos(x3)[..., None],
        lin_diffusion=0.3, drift_det=lambda x2, x3, t: x3,
        drift_stoch=drift_stoch, dispersion=1.0,
        diffusion=0.4, meas_matrix=np.array([[1.0]]),
        meas_cov=np.array([[0.1]]),
        initial_sampler=lambda g: g.normal(0.0, 1.0, size=2),
        init_gauss=(np.array([0.7]), np.array([[0.9]])))


def _spy_finish_step(monkeypatch):
    """Record (states, llr) of every rb finish_step call."""
    seen = []
    finish_step = rb.finish_step

    def spy(pset, states, llr, *args, **kwargs):
        seen.append((states, llr))
        return finish_step(pset, states, llr, *args, **kwargs)

    monkeypatch.setattr(rb, "finish_step", spy)
    return seen


def test_rb_gauss_prior_short_cut_is_bit_identical(monkeypatch):
    # Under prior_proposal rb_gauss_step aliases the scaled states to the
    # proposal states and skips Lambda; a new lambda around the same
    # drift forces the full recursion, which must give the same bits.
    model = _nonlinear_cond_model()
    seen = _spy_finish_step(monkeypatch)
    stoch = model.drift_stoch
    outs = []
    for imp in (prior_proposal(model),
                ImportanceSpec(drift=lambda *args: stoch(*args))):
        pset = rb.init_rb_gauss_set(model, np.random.default_rng(3), 40)
        pset, _ = rb.rb_gauss_step(pset, model, imp, 0.4,
                                   TimeGrid(0.0, 0.5, 10), ess_threshold=0.0,
                                   noise_rng=np.random.default_rng(4))
        outs.append(pset)
    for _, llr in seen:
        assert np.all(llr == 0.0) and not np.any(np.signbit(llr))
    assert seen[0][1].tobytes() == seen[1][1].tobytes()
    short, full = outs
    for a, b in ((short.states, full.states),
                 (short.log_weights, full.log_weights),
                 (short.gauss.mean, full.gauss.mean),
                 (short.gauss.cov, full.gauss.cov)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_rb_gauss_sampled_path_is_the_split_kernel(monkeypatch):
    # The sampled (x2, x3) paths and Lambda of rb_gauss_step are those
    # of propagate_coupled_split on a SplitSdeModel with the same drifts,
    # noise and proposal, bit for bit.
    model = _nonlinear_cond_model()
    split = SplitSdeModel(1, 1, 1, model.drift_det, model.drift_stoch, 1.0,
                          0.4)
    imp = ImportanceSpec(drift=lambda x2, x3, t: -0.5 * x3 + 0.2 * x2 + 0.3,
                         dispersion=np.array([[1.3]]))
    grid = TimeGrid(0.0, 0.5, 10)
    seen = _spy_finish_step(monkeypatch)
    pset = rb.init_rb_gauss_set(model, np.random.default_rng(3), 40)
    rb.rb_gauss_step(pset, model, imp, 0.4, grid, ess_threshold=0.0,
                     noise_rng=np.random.default_rng(4))
    incs = draw_increments(grid, split.diffusion, np.random.default_rng(4),
                           pset.n)
    ref = propagate_coupled_split(split, imp, *split.split(pset.states), grid,
                                  incs)
    states, llr = seen[0]
    assert np.all(llr != 0.0)
    assert states.tobytes() == ref.state.tobytes()
    assert llr.tobytes() == ref.llr.tobytes()


def test_rb_gauss_moments_move_from_each_step_start(monkeypatch):
    # The moment ODEs take Euler steps with F, f1 and V evaluated at the
    # sampled states at the start of each step.  The states after j
    # steps come from the split kernel on the first j steps (dt = 1/8
    # keeps every grid time exact).
    model = _nonlinear_cond_model()
    split = SplitSdeModel(1, 1, 1, model.drift_det, model.drift_stoch, 1.0,
                          0.4)
    imp = ImportanceSpec(drift=lambda x2, x3, t: -0.5 * x3 + 0.3,
                         dispersion=np.array([[1.3]]))
    seen = []
    condition = rb._gaussian_condition

    def spy(mean, cov, *args):
        seen.append((mean, cov))
        return condition(mean, cov, *args)

    monkeypatch.setattr(rb, "_gaussian_condition", spy)
    grid = TimeGrid(0.0, 1.0, 8)
    pset = rb.init_rb_gauss_set(model, np.random.default_rng(3), 40)
    rb.rb_gauss_step(pset, model, imp, 0.4, grid, ess_threshold=0.0,
                     noise_rng=np.random.default_rng(4))
    incs = draw_increments(grid, split.diffusion, np.random.default_rng(4),
                           pset.n).values
    x2, x3 = split.split(pset.states)
    mean, cov = pset.gauss.mean, pset.gauss.cov
    for j in range(grid.n_steps):
        t = j * grid.dt
        if j:
            res = propagate_coupled_split(split, imp, *split.split(pset.states),
                                          TimeGrid(0.0, t, j), incs[:, :j])
            x2, x3 = split.split(res.state)
        mean, cov = rb._block_step(mean, cov, model.lin_coeff(x2, x3, t),
                                   model.lin_shift(x2, x3, t),
                                   model.lin_noise(x2, x3, t),
                                   model.lin_diffusion.at(t), grid.dt)
    assert seen[0][0].tobytes() == mean.tobytes()
    assert seen[0][1].tobytes() == cov.tobytes()


@pytest.mark.parametrize("bootstrap", [True, False])
def test_rb_gauss_nan_drift_names_the_step_time(bootstrap):
    # The drift turns NaN from t = 0.5 on, in the middle of the interval
    # [0, 1]: the error names that step's time, not the interval's end.
    model = _nonlinear_cond_model(
        lambda x2, x3, t: -x3 if t < 0.5 else np.full(x3.shape, np.nan))
    imp = prior_proposal(model) if bootstrap \
        else ImportanceSpec(drift=lambda x2, x3, t: -x3)
    pset = rb.init_rb_gauss_set(model, np.random.default_rng(3), 20)
    with pytest.raises(IntegrationError, match=r"drift became non-finite "
                                               r"at t=0\.5$"):
        rb.rb_gauss_step(pset, model, imp, 0.4, TimeGrid(0.0, 1.0, 8),
                         noise_rng=np.random.default_rng(4))


class TestEvalMixture:
    def test_hand_mixture_density(self):
        gauss = GaussianBlock(np.array([[0.0], [2.0]]),
                              np.array([[[1.0]], [[4.0]]]))
        lw = np.log([0.3, 0.7])
        pset = ParticleSet(np.zeros((2, 1)), lw, 0, gauss)
        expected = (0.3 * sps.norm.pdf(0.0, 0.0, 1.0)
                    + 0.7 * sps.norm.pdf(0.0, 2.0, 2.0))
        assert eval_mixture(pset, 0.0) == pytest.approx(expected, rel=1e-12)
        grid_vals = eval_mixture(pset, np.array([0.0, 1.0]))
        assert grid_vals.shape == (2,)
        assert grid_vals[0] == pytest.approx(expected, rel=1e-12)

    def test_single_standard_normal(self):
        # [DERIVED] standard normal density at 0 is
        # 1/sqrt(2 pi) = 0.3989422804014327.
        gauss = GaussianBlock(np.zeros((1, 1)), np.ones((1, 1, 1)))
        pset = ParticleSet(np.zeros((1, 1)), np.zeros(1), 0, gauss)
        assert eval_mixture(pset, 0.0) == pytest.approx(0.3989422804014327,
                                                        rel=1e-13)


class TestRbParam:
    def _static_model(self):
        # State barely moves so the conditioning value is known exactly
        # up to 1e-9; both blocks are scalar.
        return SplitSdeModel(
            1, 1, 1,
            lambda x1, x2, t: np.zeros_like(x1),
            lambda x1, x2, t: np.zeros_like(x2),
            1.0, 1e-20)

    def test_weights_use_pre_update_statistics(self):
        # Two particles with different prior statistics observe the same
        # residual; the weight ratio must come from the statistics as
        # they were before this measurement.
        model = self._static_model()
        fam = invchi2_family(2.0, 0.2)
        _, noise_rng, _, _ = seed_streams(0)
        states = np.array([[0.0, 0.0], [0.0, 1.0]])
        stats = np.array([[2.0, 0.2], [50.0, 1.0]])
        pset = ParticleSet(states, np.full(2, -np.log(2.0)), 0,
                           stats=stats)
        grid = TimeGrid(0.0, 1.0, 2)
        y = 0.5
        out, st_ = rb_param_step(pset, model, prior_proposal(model), fam, y,
                                 grid, cond_fn=lambda xp, xn: xn[..., 1],
                                 ess_threshold=0.0, noise_rng=noise_rng)
        log_w0 = sps.t.logpdf(0.5, df=2.0, scale=np.sqrt(0.2))
        log_w1 = sps.t.logpdf(-0.5, df=50.0, scale=np.sqrt(1.0))
        expected = np.exp([log_w0, log_w1])
        expected /= expected.sum()
        np.testing.assert_allclose(out.weights, expected, atol=1e-7)
        # Statistics were advanced after weighting.
        np.testing.assert_allclose(out.stats[:, 0], [3.0, 51.0], atol=1e-12)
        np.testing.assert_allclose(out.stats[0, 1], (0.4 + 0.25) / 3.0,
                                   atol=1e-7)
        np.testing.assert_allclose(out.stats[1, 1], (50.0 + 0.25) / 51.0,
                                   atol=1e-7)
        inc_expected = np.log(0.5 * (np.exp(log_w0) + np.exp(log_w1)))
        assert st_.log_ml_increment == pytest.approx(inc_expected, abs=1e-7)

    def test_default_conditioning_uses_first_component(self):
        model = SplitSdeModel(
            1, 1, 1,
            lambda x1, x2, t: x2,
            lambda x1, x2, t: -x2,
            1.0, 0.5,
            initial_sampler=lambda g: np.array([g.normal(), g.normal()]))
        fam = invchi2_family(2.0, 0.2)
        cfg = FilterConfig(n_particles=80, n_steps=3, seed=1)
        res = run_filter(model, prior_proposal(model), None,
                         [0.5, 1.0, 1.5], [0.1, -0.2, 0.4], cfg,
                         method="rb_param", family=fam)
        assert res.final_set.stats.shape == (80, 2)
        np.testing.assert_allclose(res.final_set.stats[:, 0], 5.0)
        row = res.summaries[-1]
        for key in ("theta_mean", "theta_q05", "theta_q50", "theta_q95"):
            assert key in row.extra
        assert row.extra["theta_q05"] <= row.extra["theta_q50"]
        assert row.extra["theta_q50"] <= row.extra["theta_q95"]

    def test_theta_mean_nan_while_undefined(self):
        # With nu0 = 2 the posterior mean of the variance is undefined
        # until at least one update has happened.
        fam = invchi2_family(2.0, 0.2)
        est = fam.mean(fam.init_stats(4))
        assert np.all(np.isnan(est))


def _epidemic_case(alpha0=10.0, beta0=0.001):
    """Seed 0 of the epidemic acceptance study (criterion 7): its data,
    model, family and the week-1 quadrature oracle for its first count."""
    g, q, lam_mean, lam_var = 1.0, 0.001, math.log(5.0), 4.0
    rng = np.random.default_rng(np.random.SeedSequence((70, 0)))
    y0 = rng.beta(1.0, 100.0)
    sim = models.epidemic_simulate(g, 0.0, 1e5, y0, math.log(1.6), 30,
                                   seed=int(rng.integers(2 ** 31)))
    sampler = models.epidemic_init_sampler(1.0, 100.0, lam_mean, lam_var)
    model = models.epidemic_model(g, q, initial_sampler=sampler)
    family = gamma_poisson_family(alpha0, beta0)
    oracle = epidemic_week1_posterior(int(sim.counts[0]), g, alpha0, beta0,
                                      1.0, 100.0, lam_mean, lam_var)
    return sim, model, family, oracle


def _week1_run(model, family, sim, proposal=None, **config):
    cfg = FilterConfig(n_particles=20000, n_steps=10, seed=0, **config)
    return run_filter(model, proposal or prior_proposal(model), None,
                      sim.times[:1], sim.counts[:1], cfg, method="rb_param",
                      family=family, cond_fn=models.epidemic_theta)


def _assert_matches_week1_oracle(res, oracle):
    # Within 4 standard errors sqrt(var_w(f) / ESS), ESS being the
    # step's effective sample size before any resampling.
    pset, ess = res.final_set, res.summaries[1].ess
    rate = np.exp(pset.states[:, 2])
    for key, f in (("indicator", rate * pset.states[:, 0]), ("rate", rate)):
        mean = pset.weights @ f
        se = math.sqrt(pset.weights @ (f - mean) ** 2 / ess)
        assert abs(mean - oracle[key]) < 4.0 * se, (key, mean, oracle[key],
                                                    se)


class TestEpidemicWeekOne:
    """The conjugate filter against exact week-1 inference on criterion 7's
    seed 0, under the prior N ~ Gamma(10, 0.001) that the criterion used
    before: its mean is a tenth of the true population of 1e5, so exact
    inference itself puts the contact rate near 34 and the indicator
    E[e^lam x] below 1 after one week, while the true peak is at week 4.7.
    """

    def test_oracle_values(self):
        _, _, _, oracle = _epidemic_case()
        assert oracle["indicator"] == pytest.approx(0.1843, abs=2e-4)
        assert oracle["rate"] == pytest.approx(34.5, abs=0.05)

    def test_weighting_matches_quadrature(self):
        # Bootstrap proposal, no resampling: plain importance weights.
        sim, model, family, oracle = _epidemic_case()
        res = _week1_run(model, family, sim, ess_threshold=0.0)
        assert not res.summaries[1].resampled
        _assert_matches_week1_oracle(res, oracle)

    def test_bridge_matches_quadrature(self):
        # The bridge's pseudo measurement must carry the count's negative
        # binomial predictive variance d + 1 + d^2 / alpha: a variance of
        # d + 1, far below it, leaves a week-1 ESS of 17-87 of 20000
        # against about 5300 for the bootstrap.
        sim, model, family, oracle = _epidemic_case()
        bridge = models.epidemic_bridge_builder(1.0, 0.001, family)
        res = _week1_run(model, family, sim, bridge, ess_threshold=0.0)
        boot = _week1_run(model, family, sim, ess_threshold=0.0)
        _assert_matches_week1_oracle(res, oracle)
        assert res.summaries[1].ess > 0.5 * boot.summaries[1].ess

    def test_resample_move_keeps_posterior(self):
        # Resampling always fires, then moves; the moved population must
        # still estimate the same posterior, and be regenerated: without
        # moves about 38% of the slots hold distinct states.
        sim, model, family, oracle = _epidemic_case()
        res = _week1_run(model, family, sim, ess_threshold=1.0, move_steps=5)
        assert res.summaries[1].resampled
        _assert_matches_week1_oracle(res, oracle)
        n_unique = np.unique(res.final_set.states, axis=0).shape[0]
        assert n_unique > 0.9 * res.final_set.n


class TestResampleMove:
    def _run(self, family, sim, model, move_steps, ess_threshold, n=64,
             weeks=6):
        cfg = FilterConfig(n_particles=n, n_steps=10, seed=3,
                           ess_threshold=ess_threshold, move_steps=move_steps)
        bridge = models.epidemic_bridge_builder(1.0, 0.001, family)
        return run_filter(model, bridge, None, sim.times[:weeks],
                          sim.counts[:weeks], cfg, method="rb_param",
                          family=family, cond_fn=models.epidemic_theta)

    @pytest.mark.parametrize("ess_threshold", (0.0, 0.9))
    def test_replay_reproduces_states(self, ess_threshold):
        # Bridge-propagated particles (threshold 0: never resampled, so
        # never moved) and resampled, moved ones (0.9): re-simulating the
        # stored (x0, Z) under the model rebuilds state, statistics and
        # summed log likelihood.
        sim, model, family, _ = _epidemic_case(beta0=1e-4)
        res = self._run(family, sim, model, 2, ess_threshold)
        assert any(r.resampled for r in res.summaries) == (ess_threshold > 0)
        pset = res.final_set
        assert pset.path.noise.shape == (pset.n, 60, 1)
        states, stats, loglik = replay_path(model, family,
                                            models.epidemic_theta, pset.path)
        np.testing.assert_allclose(states, pset.states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stats, pset.stats, rtol=1e-12, atol=0)
        np.testing.assert_allclose(loglik, pset.path.loglik, rtol=1e-10)

    @pytest.mark.parametrize("ess_threshold", (0.0, 0.9))
    def test_replay_plain_model(self, ess_threshold):
        # The same bookkeeping through propagate_coupled: an OU state with
        # an unknown measurement variance, under a drift-shifted proposal
        # (so the recorded model noise differs from the drawn noise).
        model = SdeModel(1, 1, lambda x, t: -x, 1.0, 0.5,
                         initial_sampler=lambda g: g.normal(size=1))
        imp = ImportanceSpec(drift=lambda x, t: 0.5 - x, dispersion=1.0)
        family = invchi2_family(3.0, 0.2)
        cfg = FilterConfig(n_particles=40, n_steps=4, seed=2,
                           ess_threshold=ess_threshold, move_steps=2)
        res = run_filter(model, imp, None, [0.5, 1.0, 1.5, 2.0],
                         [0.3, 0.1, -0.2, 0.4], cfg, method="rb_param",
                         family=family)
        assert any(r.resampled for r in res.summaries) == (ess_threshold > 0)
        pset = res.final_set
        states, stats, loglik = replay_path(
            model, family, lambda xp, xn: xn[..., 0], pset.path)
        np.testing.assert_allclose(states, pset.states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stats, pset.stats, rtol=1e-12, atol=0)
        np.testing.assert_allclose(loglik, pset.path.loglik, rtol=1e-10)

    def test_recording_alone_changes_nothing(self):
        # Without resampling no move runs; recording the path must leave
        # every number bit-identical to a run without it.
        sim, model, family, _ = _epidemic_case(beta0=1e-4)
        plain = self._run(family, sim, model, 0, 0.0)
        rec = self._run(family, sim, model, 3, 0.0)
        assert plain.final_set.path is None
        np.testing.assert_array_equal(plain.final_set.states,
                                      rec.final_set.states)
        np.testing.assert_array_equal(plain.final_set.log_weights,
                                      rec.final_set.log_weights)
        assert plain.log_marginal == rec.log_marginal

    def test_move_steps_validation(self):
        sim, model, family, _ = _epidemic_case()
        with pytest.raises(ValueError):
            self._run(family, sim, model, -1, 0.5)
        cfg = FilterConfig(n_particles=8, n_steps=2, move_steps=1)
        with pytest.raises(ValueError):
            run_filter(model, prior_proposal(model), None, sim.times[:1],
                       sim.counts[:1], cfg, method="sir")


class TestCondGaussModelCoercion:
    def test_promotes_matrix_specs(self):
        model = _decoupled_cond_model()
        assert model.diffusion.at(0.0)[0, 0] == 0.4
        assert model.lin_diffusion.at(0.0)[0, 0] == 0.3
        assert model.dispersion.at(0.0)[0, 0] == 1.0

    def test_split_with_empty_deterministic_block(self):
        model = _decoupled_cond_model()
        x2, x3 = model.split(np.array([[1.0], [2.0]]))
        assert x2.shape == (2, 0)
        assert x3.shape == (2, 1)
