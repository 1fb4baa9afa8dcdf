"""Weight bookkeeping, resampling and the filter driver."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from sdepf import (CondGaussModel, DiffusionSpec, FilterConfig, GaussianBlock,
                   ImportanceSpec, ParticleSet, SdeModel, TimeGrid, filtering,
                   finish_step, gamma_poisson_family, gaussian_measurement,
                   init_particle_set, invchi2_family, models, prior_proposal,
                   run_filter, seed_streams, sir_step, systematic_counts,
                   systematic_resample, systematic_resample_indices)
from sdepf.exceptions import DegeneracyError, IntegrationError
from sdepf.filtering import (_theta_quantiles, _uniform_quantile,
                             draw_increments)

from oracles import chain_kalman_filter, mixture_cdf, mixture_quantiles


def _finish(loglik, llr=None):
    """finish_step on an equally weighted population that never
    resamples: the one place where weights are normalized and the ESS
    is taken."""
    n = len(loglik)
    pset = ParticleSet(np.zeros((n, 1)), np.full(n, -np.log(n)), 0)
    return finish_step(pset, pset.states,
                       np.zeros(n) if llr is None else llr,
                       np.asarray(loglik, dtype=float), t=1.0,
                       ess_threshold=0.0)


class TestNormalizeLogWeights:
    """finish_step's normalization of the new log weights."""

    def test_hand_values(self):
        # [DERIVED] factors exp(Lambda) = (1, 3) on uniform weights:
        # weights (0.25, 0.75) and log-ML increment log((1 + 3)/2).
        out, st_ = _finish(np.zeros(2), llr=np.log([1.0, 3.0]))
        np.testing.assert_allclose(out.weights, [0.25, 0.75], rtol=1e-15)
        assert st_.log_ml_increment == pytest.approx(np.log(2.0), abs=1e-14)

    def test_minus_inf_is_allowed(self):
        out, st_ = _finish(np.array([0.0, -np.inf]))
        np.testing.assert_array_equal(out.weights, [1.0, 0.0])
        assert st_.log_ml_increment == pytest.approx(-np.log(2.0), abs=1e-14)

    def test_all_minus_inf_degenerates(self):
        with pytest.raises(DegeneracyError):
            _finish(np.zeros(2), llr=np.array([-np.inf, -np.inf]))

    def test_nan_raises(self):
        with pytest.raises(IntegrationError):
            _finish(np.array([0.0, np.nan]))

    def test_plus_inf_raises(self):
        with pytest.raises(IntegrationError):
            _finish(np.array([0.0, np.inf]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=2,
                    max_size=40),
           st.floats(min_value=-200.0, max_value=200.0))
    def test_shift_invariance(self, lw, shift):
        lw = np.array(lw)
        (out1, st1), (out2, st2) = _finish(lw), _finish(lw + shift)
        np.testing.assert_allclose(out1.weights, out2.weights, rtol=1e-10,
                                   atol=1e-15)
        assert st2.log_ml_increment - st1.log_ml_increment \
            == pytest.approx(shift, rel=1e-9, abs=1e-9)
        assert np.sum(out1.weights) == pytest.approx(1.0, abs=1e-12)


class TestEffectiveSampleSize:
    """The ESS = 1 / sum(w^2) that finish_step reports."""

    def test_hand_value(self):
        # [DERIVED] weights (0.5, 0.25, 0.25): 1 / (0.25 + 0.0625 +
        # 0.0625) = 8/3.
        _, st_ = _finish(np.log([2.0, 1.0, 1.0]))
        assert st_.ess == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_uniform_gives_n(self):
        assert _finish(np.zeros(10))[1].ess == pytest.approx(10.0)

    def test_point_mass_gives_one(self):
        assert _finish(np.array([0.0, -np.inf]))[1].ess == 1.0


class TestSystematicResampling:
    def test_offspring_counts_floor_or_ceil(self):
        rng = np.random.default_rng(100)
        w = np.array([0.55, 0.25, 0.15, 0.05])
        for _ in range(50):
            idx = systematic_resample_indices(w, rng)
            counts = np.bincount(idx, minlength=4)
            for i in range(4):
                assert counts[i] in (int(np.floor(4 * w[i])),
                                     int(np.ceil(4 * w[i])))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2,
                    max_size=25),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_offspring_property(self, raw, seed):
        w = np.array(raw)
        w = w / w.sum()
        n = w.size
        idx = systematic_resample_indices(w, np.random.default_rng(seed))
        assert idx.shape == (n,)
        counts = np.bincount(idx, minlength=n)
        scaled = n * w
        assert np.all(counts >= np.floor(scaled) - 1e-9)
        assert np.all(counts <= np.ceil(scaled) + 1e-9)

    def test_uniform_weights_keep_everyone(self):
        idx = systematic_resample_indices(np.full(8, 0.125),
                                          np.random.default_rng(5))
        np.testing.assert_array_equal(idx, np.arange(8))

    def test_resample_keeps_step_index(self):
        states = np.arange(4.0)[:, None]
        lw = np.log(np.array([0.94, 0.02, 0.02, 0.02]))
        pset = ParticleSet(states, lw, 3)
        out = systematic_resample(pset, np.random.default_rng(1))
        assert out.step_index == 3
        # Nearly all offspring come from particle 0.
        assert np.sum(out.states[:, 0] == 0.0) >= 3
        np.testing.assert_allclose(np.exp(out.log_weights), 0.25, rtol=1e-12)

    def test_noise_does_not_depend_on_resampling(self):
        # One step that never resamples and one that always does must
        # leave the noise generator in the same state.
        model = SdeModel(1, 1, lambda x, t: -x, 1.0, 0.5)
        meas = gaussian_measurement(0, 0.1)
        grid = TimeGrid(0.0, 0.5, 4)
        states = np.linspace(-1.0, 1.0, 6)[:, None]
        noise_states = []
        for threshold in (0.0, 1.0):
            _, noise_rng, resample_rng, _ = seed_streams(8)
            pset = ParticleSet(states, np.full(6, -np.log(6.0)))
            _, st_ = sir_step(pset, model, prior_proposal(model), meas, 0.7,
                              grid, ess_threshold=threshold,
                              resample_rng=resample_rng, noise_rng=noise_rng)
            assert st_.resampled == (threshold == 1.0)
            noise_states.append(noise_rng.bit_generator.state)
        assert noise_states[0] == noise_states[1]

    def test_payloads_follow_ancestry(self):
        states = np.arange(3.0)[:, None]
        lw = np.log(np.array([1e-9, 1e-9, 1.0 - 2e-9]))
        gauss = GaussianBlock(np.arange(3.0)[:, None],
                              np.ones((3, 1, 1)))
        stats = np.arange(6.0).reshape(3, 2)
        pset = ParticleSet(states, lw, 0, gauss, stats)
        out = systematic_resample(pset, np.random.default_rng(0))
        np.testing.assert_array_equal(out.states[:, 0], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(out.gauss.mean[:, 0], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(out.stats, np.tile([4.0, 5.0], (3, 1)))


class TestSystematicCounts:
    """Allocation of the theta summary's K draws over the particles."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(min_value=1e-12, max_value=1.0)),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=5000),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_sum_and_floor_ceil(self, raw, k, seed):
        w = np.array(raw)
        if w.sum() == 0.0:
            w[0] = 1.0
        w = w / w.sum()
        counts = systematic_counts(w, k, np.random.default_rng(seed))
        assert counts.shape == w.shape
        assert counts.dtype.kind == "i"
        assert counts.sum() == k
        # Within one of k w_i (the 1e-9 covers the rounding of cumsum).
        assert np.all(np.abs(counts - k * w) < 1.0 + 1e-9)
        assert np.all(counts[w == 0.0] == 0)

    def test_single_particle_takes_everything(self):
        for seed in range(5):
            counts = systematic_counts(np.array([1.0]), 64,
                                       np.random.default_rng(seed))
            np.testing.assert_array_equal(counts, [64])

    def test_dominant_weight(self):
        w = np.array([1e-300, 1.0 - 2e-12, 1e-12, 0.0])
        for seed in range(20):
            counts = systematic_counts(w, 256, np.random.default_rng(seed))
            np.testing.assert_array_equal(counts, [0, 256, 0, 0])

    def test_uniform_weights_give_equal_shares(self):
        counts = systematic_counts(np.full(5, 0.2), 320,
                                   np.random.default_rng(3))
        np.testing.assert_array_equal(counts, np.full(5, 64))

    def test_one_uniform_per_call(self):
        rng = np.random.default_rng(9)
        systematic_counts(np.full(7, 1.0 / 7.0), 448, rng)
        ref = np.random.default_rng(9)
        ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestThetaQuantiles:
    """The cdrb_param summary against the exact mixture quantile."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3000),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_uniform_quantile_is_np_interp(self, k, q, seed):
        v = np.sort(np.random.default_rng(seed).standard_normal(k))
        assert _uniform_quantile(v, q) == \
            np.interp(q, (np.arange(k) + 1) / k, v)

    @pytest.mark.parametrize("kind", ["invchi2", "gamma"])
    @pytest.mark.parametrize("ess_target, spread", [(1.0, 0.05), (0.2, 1.13)])
    def test_matches_exact_mixture_quantile(self, kind, ess_target, spread):
        n = 5000
        rng = np.random.default_rng(41)
        z = np.sort(rng.standard_normal(n))
        if kind == "invchi2":
            fam = invchi2_family(2.0, 0.2)
            stats = np.column_stack([np.full(n, 9.0), 0.4 * np.exp(0.5 * z)])
        else:
            fam = gamma_poisson_family(10.0, 0.001)
            stats = np.column_stack([np.full(n, 40.0),
                                     1e-3 * np.exp(0.5 * z)])
        # Lognormal weights that favour one end of the components, as a
        # likelihood does; spread sets ESS / N.
        w = np.exp(spread * (0.6 * z + 0.8 * rng.standard_normal(n)))
        w /= w.sum()
        ess = 1.0 / np.sum(w * w)
        assert abs(ess / n - ess_target) < 0.02
        k = math.ceil(16 * ess)   # run_filter's summary size

        qs = (0.05, 0.5, 0.95)
        est = _theta_quantiles(fam, stats, w, k, np.random.default_rng(7))
        exact = mixture_quantiles(kind, stats, w, qs)
        assert np.all(np.diff(est) > 0)
        log_term = np.log(2.0 / 1e-9)
        for q, q_hat, q_exact in zip(qs, est, exact):
            assert abs(mixture_cdf(kind, stats, w, q_exact) - q) < 1e-10
            # Bound on |F(q_hat) - q|, F the exact mixture CDF.  q_hat
            # lies between the sorted draws that bracket q K, so it can
            # leave [F^-1(q - d), F^-1(q + d)] only if the empirical CDF
            # F_K of the K draws misses F by d - 1/K at one of those two
            # points t.  There F_K(t) - F(t) = A + B:
            # * A = sum_i (c_i / K - w_i) F_i(t), the allocation error.
            #   c_i - K w_i = e_i - e_(i-1) with every |e_i| < 1, so by
            #   Abel summation |A| <= (1 + sum_i |F_i(t) - F_(i+1)(t)|)
            #   / K.  The components are in stochastic order along the
            #   slots (z is sorted, the shape is shared), so F_i(t) is
            #   monotone in i and |A| <= 2 / K.
            # * B, given the counts, is a mean of K independent centred
            #   indicators with variance at most v / K, v = p (1 - p)
            #   for the p in [q - 0.04, q + 0.04] nearest 1/2: their
            #   mean probability F(t) + A is within d + 2 / K of q, which
            #   the premise below keeps under 0.04.  Bernstein:
            #   P(|B| >= x) <= 2 exp(-K x^2 / (2 (v + x / 3))), and x
            #   below makes that 1e-9.
            # K = ceil(16 ESS) is 16 000 at ESS ~ 1000, where x reaches
            # 0.026 at q = 1/2 (v = 1/4); so the window for p is +-0.04.
            p = min(max(0.5, q - 0.04), q + 0.04)
            v = p * (1.0 - p)
            x = (log_term / 3.0
                 + np.sqrt(log_term ** 2 / 9.0 + 2.0 * log_term * k * v)) / k
            bound = 3.0 / k + x
            assert bound + 2.0 / k < 0.04
            err = abs(mixture_cdf(kind, stats, w, q_hat) - q)
            assert err <= bound, (q, q_hat, q_exact, err, bound)

    @pytest.mark.parametrize("n", [1, 40])
    def test_run_filter_draws_sixteen_per_ess(self, n, monkeypatch):
        # Row k's summary is K = ceil(16 ESS_k) draws from the summary
        # generator, the fourth child of the seed tree, with ESS_k the
        # row's own (pre-resampling) ESS: 16 N on row 0, 16 at N = 1.
        seen = []

        def spy(family, stats, weights, k, rng):
            seen.append((stats.copy(), weights.copy(), k))
            return _theta_quantiles(family, stats, weights, k, rng)

        monkeypatch.setattr(filtering, "_theta_quantiles", spy)
        model = models.pendulum_model(
            1.0, 0.01, initial_sampler=lambda g: g.normal(size=2))
        fam = invchi2_family(3.0, 0.4)
        cfg = FilterConfig(n_particles=n, n_steps=2, ess_threshold=0.0,
                           seed=4)
        res = run_filter(model, prior_proposal(model), None, [0.1, 0.2],
                         [0.2, -0.1], cfg, method="rb_param", family=fam)
        assert len(seen) == len(res.summaries) == 3
        assert seen[0][2] == 16 * n
        rng = seed_streams(4)[3]
        for row, (stats, w, k) in zip(res.summaries, seen):
            assert k == math.ceil(16 * row.ess)
            assert [row.extra["theta_q05"], row.extra["theta_q50"],
                    row.extra["theta_q95"]] == \
                _theta_quantiles(fam, stats, w, k, rng)
        if n == 1:
            assert [k for _, _, k in seen] == [16, 16, 16]
        else:
            # A later row with non-uniform weights, whose ESS is not an
            # integer, so the ceiling matters.
            assert np.ptp(seen[-1][1]) > 0
            assert seen[-1][2] != 16 * res.summaries[-1].ess

    def test_draw_count_changes_only_the_quantiles(self, monkeypatch):
        # The summary generator is its own seed-tree child: drawing
        # 64 N instead of ceil(16 ESS) leaves every other output bit.
        model = models.pendulum_model(
            1.0, 0.5, initial_sampler=lambda g: g.normal(size=2))
        # nu0 = 1: theta_mean is NaN until the second reading.
        fam = invchi2_family(1.0, 0.4)
        cfg = FilterConfig(n_particles=200, n_steps=4, seed=12)
        times = 0.1 * np.arange(1, 9)
        ys = np.sin(3.0 * times)

        def run():
            return run_filter(model, prior_proposal(model), None, times, ys,
                              cfg, method="rb_param", family=fam)

        new = run()
        monkeypatch.setattr(
            filtering, "_theta_quantiles",
            lambda family, stats, w, k, rng:
                _theta_quantiles(family, stats, w, 64 * w.size, rng))
        old = run()
        quantiles = ("theta_q05", "theta_q50", "theta_q95")
        assert any(r.resampled for r in new.summaries)
        assert np.isnan(new.summaries[0].extra["theta_mean"])
        for a, b in zip(new.summaries, old.summaries):
            for f in dataclasses.fields(a):
                if f.name != "extra":
                    assert np.array_equal(getattr(a, f.name),
                                          getattr(b, f.name), equal_nan=True)
            assert a.extra.keys() == b.extra.keys()
            for key in a.extra.keys() - set(quantiles):
                assert np.array_equal(a.extra[key], b.extra[key],
                                      equal_nan=True)
        assert new.log_marginal == old.log_marginal
        assert new.final_set.states.tobytes() == old.final_set.states.tobytes()
        assert any(a.extra[q] != b.extra[q] for q in quantiles
                   for a, b in zip(new.summaries, old.summaries))


class TestFinishStep:
    def _uniform_pset(self, n=2):
        return ParticleSet(np.zeros((n, 1)), np.full(n, -np.log(n)), 0)

    def test_hand_traced_update(self):
        # [DERIVED] uniform prior weights, likelihood factors (1, 3):
        # increment log((1 + 3)/2) = log 2, weights (0.25, 0.75),
        # ESS = 1/(1/16 + 9/16) = 1.6 which exceeds 0.5 * 2, so no
        # resampling.
        pset = self._uniform_pset()
        out, st_ = finish_step(pset, np.ones((2, 1)), np.zeros(2),
                               np.log([1.0, 3.0]), t=0.5)
        assert st_.log_ml_increment == pytest.approx(np.log(2.0), abs=1e-14)
        np.testing.assert_allclose(np.exp(out.log_weights), [0.25, 0.75],
                                   rtol=1e-14)
        assert st_.ess == pytest.approx(1.6, rel=1e-12)
        assert not st_.resampled
        assert st_.t == 0.5
        assert out.step_index == 1

    def test_threshold_one_forces_resampling(self):
        pset = self._uniform_pset()
        out, st_ = finish_step(pset, np.arange(2.0)[:, None], np.zeros(2),
                               np.log([1.0, 3.0]), t=1.0, ess_threshold=1.0,
                               resample_rng=np.random.default_rng(0))
        assert st_.resampled
        np.testing.assert_allclose(np.exp(out.log_weights), 0.5, rtol=1e-12)

    def test_threshold_zero_never_resamples(self):
        pset = self._uniform_pset()
        _, st_ = finish_step(pset, np.zeros((2, 1)), np.zeros(2),
                             np.array([0.0, -200.0]), t=1.0,
                             ess_threshold=0.0)
        assert not st_.resampled

    def test_missing_rng_is_an_error(self):
        pset = self._uniform_pset()
        with pytest.raises(ValueError):
            finish_step(pset, np.zeros((2, 1)), np.zeros(2),
                        np.array([0.0, -200.0]), t=1.0, ess_threshold=0.9)

    def test_all_vanishing_weights_degenerate(self):
        pset = self._uniform_pset()
        with pytest.raises(DegeneracyError):
            finish_step(pset, np.zeros((2, 1)), np.zeros(2),
                        np.array([-np.inf, -np.inf]), t=1.0)

    def test_nan_weights_raise(self):
        pset = self._uniform_pset()
        with pytest.raises(IntegrationError):
            finish_step(pset, np.zeros((2, 1)), np.array([np.nan, 0.0]),
                        np.zeros(2), t=1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(min_value=-20.0, max_value=0.0),
                              st.floats(min_value=-20.0, max_value=20.0),
                              st.floats(min_value=-20.0, max_value=20.0)),
                    min_size=1, max_size=30))
    def test_underflowing_increments_keep_weights(self, rows):
        # Shifting every incremental log weight by -1000 makes each
        # exp(lw) underflow to 0; the normalized weights and the ESS
        # must not notice, and the log-ML increment moves by the shift.
        prior, llr, loglik = np.array(rows).T
        lw = prior - logsumexp(prior)
        assert np.all(np.exp(lw + llr + loglik - 1000.0) == 0.0)
        pset = ParticleSet(np.zeros((prior.size, 1)), lw, 0)
        ref, st_ref = finish_step(pset, pset.states, llr, loglik, t=1.0,
                                  ess_threshold=0.0)
        out, st_ = finish_step(pset, pset.states, llr, loglik - 1000.0,
                               t=1.0, ess_threshold=0.0)
        np.testing.assert_allclose(out.weights, ref.weights, rtol=1e-12)
        assert st_.ess == pytest.approx(st_ref.ess, rel=1e-12)
        assert st_.log_ml_increment - st_ref.log_ml_increment \
            == pytest.approx(-1000.0, abs=1e-9)


class TestSeedStreams:
    def test_reproducible_and_distinct(self):
        # Same seed, same four generators; the four branches differ.
        g1 = seed_streams(42)
        g2 = seed_streams(42)
        assert len(g1) == 4
        draws1 = [g.random() for g in g1]
        draws2 = [g.random() for g in g2]
        assert draws1 == draws2
        assert len(set(np.round(draws1, 12))) == 4

    def test_different_seeds_differ(self):
        for a, b in zip(seed_streams(0), seed_streams(1)):
            assert a.random() != b.random()

    def test_move_stream_leaves_first_four_unchanged(self):
        # The resample-move generator is a fifth child; the first four are
        # still the children 0-3 of SeedSequence(seed).
        with_moves = seed_streams(42, moves=True)
        assert len(with_moves) == 5
        children = np.random.SeedSequence(42).spawn(4)
        for g, plain, child in zip(with_moves, seed_streams(42), children):
            expected = np.random.default_rng(child).random(3)
            np.testing.assert_array_equal(g.random(3), expected)
            np.testing.assert_array_equal(plain.random(3), expected)
        fifth = with_moves[4].random()
        assert fifth not in [np.random.default_rng(c).random()
                             for c in children]


def _ou_setup(n_meas=10, seed=7):
    rate, q, obs_var = 1.0, 0.8, 0.25
    model = SdeModel(1, 1, lambda x, t: -rate * x, 1.0, q,
                     initial_sampler=lambda g: g.normal(0.0, 1.0, size=1))
    times = 0.5 + 0.5 * np.arange(n_meas)
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0)
    ys = []
    for _ in times:
        for _ in range(5):
            x = x - rate * x * 0.1 + np.sqrt(q * 0.1) * rng.normal()
        ys.append(x + np.sqrt(obs_var) * rng.normal())
    return model, times, np.array(ys), (rate, q, obs_var)


class TestRunFilter:
    def test_tracks_exact_chain_filter(self):
        model, times, ys, (rate, q, obs_var) = _ou_setup()
        kf = chain_kalman_filter(-rate, 1.0, q, [1.0], obs_var, [0.0],
                                 [[1.0]], times, ys, n_steps=5)
        n = 8000
        for seed in (0, 1):
            cfg = FilterConfig(n_particles=n, n_steps=5, seed=seed)
            res = run_filter(model, prior_proposal(model),
                             gaussian_measurement(0, obs_var), times, ys, cfg)
            means = np.array([r.mean[0] for r in res.summaries[1:]])
            bound = 6.0 * np.sqrt(kf.covs[:, 0, 0]) / np.sqrt(n)
            assert np.all(np.abs(means - kf.means[:, 0]) < bound)
            assert res.log_marginal == pytest.approx(kf.log_ml, abs=0.2)

    def test_initial_summary_row(self):
        model, times, ys, (_, _, obs_var) = _ou_setup(n_meas=3)
        cfg = FilterConfig(n_particles=50, n_steps=2, seed=0)
        res = run_filter(model, prior_proposal(model),
                         gaussian_measurement(0, obs_var), times, ys, cfg)
        first = res.summaries[0]
        assert first.k == 0
        assert first.t == 0.0
        assert first.ess == 50.0
        assert first.log_marginal == 0.0
        assert not first.resampled
        assert len(res.summaries) == 4

    def test_log_marginal_accumulates_increments(self):
        model, times, ys, (_, _, obs_var) = _ou_setup(n_meas=4)
        increments = []
        cfg = FilterConfig(n_particles=200, n_steps=2, seed=3)
        res = run_filter(model, prior_proposal(model),
                         gaussian_measurement(0, obs_var), times, ys, cfg,
                         step_callback=lambda k, t, pset, st:
                         increments.append(st.log_ml_increment))
        assert len(increments) == 4
        assert res.log_marginal == pytest.approx(np.sum(increments), abs=1e-12)
        lm = [r.log_marginal for r in res.summaries]
        np.testing.assert_allclose(np.diff(lm), increments, rtol=0, atol=1e-12)

    def test_thread_count_does_not_change_results(self):
        model, times, ys, (_, _, obs_var) = _ou_setup(n_meas=6)
        outs = []
        for threads in (1, 4):
            cfg = FilterConfig(n_particles=400, n_steps=4, seed=9,
                               threads=threads)
            res = run_filter(model, prior_proposal(model),
                             gaussian_measurement(0, obs_var), times, ys, cfg)
            outs.append(res)
        np.testing.assert_array_equal(outs[0].final_set.states,
                                      outs[1].final_set.states)
        np.testing.assert_array_equal(outs[0].final_set.log_weights,
                                      outs[1].final_set.log_weights)
        for r1, r2 in zip(outs[0].summaries, outs[1].summaries):
            np.testing.assert_array_equal(r1.mean, r2.mean)
            assert r1.ess == r2.ess

    def test_same_seed_is_bitwise_reproducible(self):
        model, times, ys, (_, _, obs_var) = _ou_setup(n_meas=5)
        cfg = FilterConfig(n_particles=300, n_steps=3, seed=11)
        res1 = run_filter(model, prior_proposal(model),
                          gaussian_measurement(0, obs_var), times, ys, cfg)
        res2 = run_filter(model, prior_proposal(model),
                          gaussian_measurement(0, obs_var), times, ys, cfg)
        np.testing.assert_array_equal(res1.final_set.states,
                                      res2.final_set.states)
        assert res1.log_marginal == res2.log_marginal

    def test_rejects_bad_times(self):
        model, times, ys, (_, _, obs_var) = _ou_setup(n_meas=4)
        cfg = FilterConfig(n_particles=10, n_steps=2, seed=0)
        meas = gaussian_measurement(0, obs_var)
        with pytest.raises(ValueError):
            run_filter(model, prior_proposal(model), meas,
                       times[::-1], ys, cfg)
        with pytest.raises(ValueError):
            run_filter(model, prior_proposal(model), meas,
                       times - 10.0, ys, cfg)
        with pytest.raises(ValueError):
            run_filter(model, prior_proposal(model), meas,
                       times, ys[:-1], cfg)
        with pytest.raises(ValueError):
            run_filter(model, prior_proposal(model), meas,
                       np.stack([times, times]), np.stack([ys, ys]), cfg)

    def test_unknown_method_rejected(self):
        model, times, ys, (_, _, obs_var) = _ou_setup(n_meas=2)
        cfg = FilterConfig(n_particles=10, n_steps=2, seed=0)
        with pytest.raises(ValueError):
            run_filter(model, prior_proposal(model),
                       gaussian_measurement(0, obs_var), times, ys, cfg,
                       method="smooth")

    def test_rb_param_requires_family(self):
        model, times, ys, (_, _, obs_var) = _ou_setup(n_meas=2)
        cfg = FilterConfig(n_particles=10, n_steps=2, seed=0)
        with pytest.raises(ValueError):
            run_filter(model, prior_proposal(model),
                       gaussian_measurement(0, obs_var), times, ys, cfg,
                       method="rb_param")

    def test_reading_far_in_the_tail(self):
        # A reading 60 measurement sigmas beyond the prior predictive
        # makes every likelihood factor underflow; the filter must still
        # return a finite log marginal and ESS >= 1.
        model, times, ys, (_, _, obs_var) = _ou_setup(n_meas=3)
        ys = ys.copy()
        ys[1] = 60.0 * np.sqrt(obs_var) + 10.0
        cfg = FilterConfig(n_particles=200, n_steps=5, seed=3)
        res = run_filter(model, prior_proposal(model),
                         gaussian_measurement(0, obs_var), times, ys, cfg)
        assert np.isfinite(res.log_marginal)
        assert res.log_marginal < -1000.0
        for row in res.summaries:
            assert row.ess >= 1.0
            assert np.all(np.isfinite(row.mean))

    @pytest.mark.parametrize("h", [[1.0, 0.0], 0.0, np.array([0])])
    def test_measurement_index_must_be_an_int(self, h):
        with pytest.raises(ValueError, match="measurement index"):
            gaussian_measurement(h, 0.25)

    @pytest.mark.parametrize("var", [0.0, -0.25, np.nan, np.inf])
    def test_measurement_variance_must_be_positive_and_finite(self, var):
        with pytest.raises(ValueError, match="measurement variance"):
            gaussian_measurement(0, var)

    def test_missing_initial_sampler_rejected(self):
        model = SdeModel(1, 1, lambda x, t: -x, 1.0, 1.0)
        cfg = FilterConfig(n_particles=10, n_steps=2, seed=0)
        with pytest.raises(ValueError):
            run_filter(model, prior_proposal(model),
                       gaussian_measurement(0, 1.0), [1.0], [0.0], cfg)


class TestParticleSetBasics:
    @pytest.mark.parametrize("sampler, dim", [
        (lambda g: g.normal(size=2), 2),
        (lambda g: np.array(g.normal()), 1),
        (lambda g: [g.normal(), -g.normal(), 0.5], 3),
        (lambda g: g.integers(-9, 9, size=2), 2),
    ], ids=["d_array", "zero_d", "list", "integers"])
    def test_init_particle_set_draws_one_per_stream(self, sampler, dim):
        # N draws in slot order from the one init generator, bit for bit
        # the stack of the draws as float arrays (a column for 0-d ones).
        pset = init_particle_set(sampler, np.random.default_rng(3), 5)
        assert pset.states.shape == (5, dim)
        assert pset.n == 5
        np.testing.assert_allclose(np.exp(pset.log_weights), 0.2, rtol=1e-12)
        assert pset.step_index == 0
        rng = np.random.default_rng(3)
        ref = np.stack([np.asarray(sampler(rng), dtype=float)
                        for _ in range(5)]).reshape(5, dim)
        assert pset.states.dtype == ref.dtype
        assert pset.states.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("sizes", [[2, 2, 3], []], ids=["ragged", "none"])
    def test_init_particle_set_ragged_or_no_draws_raise(self, sizes):
        it = iter(sizes)
        with pytest.raises(ValueError):
            init_particle_set(lambda g: g.normal(size=next(it)),
                              np.random.default_rng(3), len(sizes))

    def test_weights_property(self):
        pset = ParticleSet(np.zeros((3, 1)), np.log([0.2, 0.3, 0.5]), 0)
        np.testing.assert_allclose(pset.weights, [0.2, 0.3, 0.5], rtol=1e-14)

    def test_take_slices_all_fields(self):
        gauss = GaussianBlock(np.arange(4.0)[:, None], np.ones((4, 1, 1)))
        stats = np.arange(8.0).reshape(4, 2)
        pset = ParticleSet(np.arange(4.0)[:, None], np.full(4, -np.log(4.0)),
                           2, gauss, stats)
        sub = pset.take(slice(1, 3))
        assert sub.n == 2
        np.testing.assert_array_equal(sub.states[:, 0], [1.0, 2.0])
        np.testing.assert_array_equal(sub.gauss.mean[:, 0], [1.0, 2.0])
        np.testing.assert_array_equal(sub.stats[:, 0], [2.0, 4.0])


class TestDrawIncrements:
    @pytest.mark.parametrize("q, blocks", [
        (0.8, 1.05),
        (lambda t: 0.8, 1.05),
        (np.array([[1.0, 0.3], [0.3, 2.0]]), 2.05),
    ], ids=["const_1x1", "callable_1x1", "const_2x2"])
    def test_peak_memory(self, q, blocks):
        # The standard-normal block is scaled in place: it is the one
        # block-sized allocation, plus np.matmul's product for a 2x2 Q.
        grid, spec = TimeGrid(0.0, 0.5, 10), DiffusionSpec(q)
        tracemalloc.start()
        try:
            incs = draw_increments(grid, spec, np.random.default_rng(0),
                                   30000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= blocks * incs.values.nbytes


def _method_case(case):
    """(model, proposal, meas_model, times, ys, run_filter kwargs) for a
    tiny instance of each filter method.  "sir_split" is method "sir" on
    a split model; "epidemic" is method "rb_param" on the epidemic with
    its count bridge.  The pendulum and epidemic cases use per-particle
    bridge builders, which run once per chunk."""
    times = np.array([0.3, 0.6, 0.9])
    if case == "epidemic":
        model = models.epidemic_model(
            1.0, 0.001, initial_sampler=models.epidemic_init_sampler())
        fam = gamma_poisson_family(10.0, 0.001)
        return (model, models.epidemic_bridge_builder(1.0, 0.001, fam), None,
                times, np.array([25, 30, 40]),
                {"method": "rb_param", "family": fam,
                 "cond_fn": models.epidemic_theta})
    if case == "sir":
        model = SdeModel(1, 1, lambda x, t: -x, 1.0, 0.5,
                         initial_sampler=lambda g: g.normal(size=1))
        return (model, prior_proposal(model), gaussian_measurement(0, 0.1),
                times, np.array([0.4, -0.3, 0.2]), {"method": "sir"})
    if case == "rb_gauss":
        model = CondGaussModel(
            dim_lin=1, dim_det=0, dim_stoch=1,
            lin_coeff=lambda x2, x3, t: np.full(x3.shape[:-1] + (1, 1), -0.5),
            lin_shift=lambda x2, x3, t: x3,
            lin_noise=lambda x2, x3, t: np.ones(x3.shape[:-1] + (1, 1)),
            lin_diffusion=0.3, drift_det=lambda x2, x3, t: np.zeros_like(x2),
            drift_stoch=lambda x2, x3, t: -x3, dispersion=1.0, diffusion=0.4,
            meas_matrix=np.array([[1.0]]), meas_cov=np.array([[0.1]]),
            initial_sampler=lambda g: g.normal(size=1),
            init_gauss=(np.array([0.5]), np.array([[0.9]])))
        return (model, prior_proposal(model), None, times,
                np.array([0.6, 0.1, -0.2]), {"method": "rb_gauss"})
    model = models.pendulum_model(
        1.0, 0.01, initial_sampler=lambda g: np.array([1.5, 0.0])
        + 0.5 * g.standard_normal(2))
    ys = np.array([1.4, 1.2, 1.0])
    if case == "sir_split":
        return (model, models.pendulum_bridge_builder(1.0, 0.01, 0.25),
                gaussian_measurement(0, 0.25), times, ys, {"method": "sir"})
    fam = invchi2_family(3.0, 0.2)
    builder = models.pendulum_bridge_builder(
        1.0, 0.01, lambda pset: fam.point_estimate(pset.stats))
    return (model, builder, None, times, ys,
            {"method": "rb_param", "family": fam})


def _run_case(case, n, threads=1, ess_threshold=0.5, n_meas=None,
              move_steps=0):
    model, proposal, meas, times, ys, kwargs = _method_case(case)
    cfg = FilterConfig(n_particles=n, n_steps=3, ess_threshold=ess_threshold,
                       seed=4, threads=threads, move_steps=move_steps)
    return run_filter(model, proposal, meas, times[:n_meas], ys[:n_meas],
                      cfg, **kwargs)


METHODS = ("sir", "sir_split", "rb_gauss", "rb_param")


def _assert_same_summaries(ref, res):
    assert len(res.summaries) == len(ref.summaries)
    for a, b in zip(ref.summaries, res.summaries):
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.var, b.var)
        assert a.ess == b.ess
        assert a.log_marginal == b.log_marginal
        assert a.resampled == b.resampled
        assert sorted(a.extra) == sorted(b.extra)
        np.testing.assert_array_equal(
            [a.extra[key] for key in sorted(a.extra)],
            [b.extra[key] for key in sorted(b.extra)])


class TestThreadInvariance:
    @pytest.mark.parametrize("n", (1, 2, 3, 5, 17))
    @pytest.mark.parametrize("method", METHODS + ("epidemic",))
    def test_summaries_bit_identical(self, method, n):
        # N < 2 * threads runs as one chunk; larger N splits into chunks.
        # A high threshold makes later intervals start from resampled sets.
        ref = _run_case(method, n, threads=1, ess_threshold=0.9)
        for threads in (2, 3):
            res = _run_case(method, n, threads=threads, ess_threshold=0.9)
            _assert_same_summaries(ref, res)

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 17))
    def test_rb_param_moves_bit_identical(self, n):
        # Move draws are taken before chunking, so resample-move sweeps
        # give the same bits at any thread count.
        ref = _run_case("rb_param", n, threads=1, ess_threshold=0.9,
                        move_steps=2)
        assert ref.final_set.path.noise.shape == (n, 9, 1)
        if n > 1:
            assert any(r.resampled for r in ref.summaries)
        for threads in (2, 3):
            res = _run_case("rb_param", n, threads=threads,
                            ess_threshold=0.9, move_steps=2)
            _assert_same_summaries(ref, res)
            np.testing.assert_array_equal(res.final_set.states,
                                          ref.final_set.states)
            np.testing.assert_array_equal(res.final_set.path.noise,
                                          ref.final_set.path.noise)


def _raising_sampler(rng):
    raise AssertionError("initial sampler called")


class TestRunFilterEdgeCases:
    @pytest.mark.parametrize("method", METHODS)
    def test_single_particle(self, method):
        res = _run_case(method, 1)
        for row in res.summaries:
            assert row.ess == 1.0
            assert not row.resampled
        assert np.isfinite(res.log_marginal)

    def test_single_measurement(self):
        # [DERIVED] one bootstrap update estimates the exact chain
        # likelihood of y_1; the summary has the initial row plus one.
        model, times, ys, (rate, q, obs_var) = _ou_setup(n_meas=1)
        kf = chain_kalman_filter(-rate, 1.0, q, [1.0], obs_var, [0.0],
                                 [[1.0]], times, ys, n_steps=5)
        n = 4000
        cfg = FilterConfig(n_particles=n, n_steps=5, seed=2)
        res = run_filter(model, prior_proposal(model),
                         gaussian_measurement(0, obs_var), times, ys, cfg)
        assert [r.k for r in res.summaries] == [0, 1]
        assert res.summaries[1].t == times[0]
        assert res.summaries[1].log_marginal == res.log_marginal
        assert res.log_marginal == pytest.approx(kf.log_ml, abs=0.1)
        bound = 6.0 * np.sqrt(kf.covs[0, 0, 0] / n)
        assert abs(res.summaries[1].mean[0] - kf.means[0, 0]) < bound

    @pytest.mark.parametrize("n_meas", [0, 1])
    def test_unknown_method_raises_before_any_work(self, n_meas):
        # With no measurements the method used to go unchecked and a
        # one-row result came back; now nothing runs, not even the
        # initial sampler.
        model, times, ys, (_, _, obs_var) = _ou_setup(n_meas=n_meas)
        model = dataclasses.replace(model, initial_sampler=_raising_sampler)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            run_filter(model, prior_proposal(model),
                       gaussian_measurement(0, obs_var), times, ys,
                       FilterConfig(n_particles=4, n_steps=2),
                       method="bogus")

    @pytest.mark.parametrize("method, match, cond_gauss", [
        pytest.param("sir", "method 'sir' needs a MeasurementModel", False,
                     id="sir-method 'sir' needs a MeasurementModel"),
        pytest.param("rb_gauss", "method 'rb_gauss' needs a CondGaussModel, "
                     "got SdeModel", False, id="rb_gauss-method 'rb_gauss' "
                     "needs a CondGaussModel, got SdeModel"),
        pytest.param("sir", "method 'sir' needs an SdeModel or "
                     "SplitSdeModel, got CondGaussModel", True,
                     id="sir-CondGaussModel"),
        pytest.param("rb_param", "method 'rb_param' needs an SdeModel or "
                     "SplitSdeModel, got CondGaussModel", True,
                     id="rb_param-CondGaussModel"),
    ])
    def test_missing_method_input_raises_before_any_work(self, method, match,
                                                         cond_gauss):
        # An OU SdeModel with no measurement model suits neither "sir" nor
        # "rb_gauss"; a CondGaussModel suits neither "sir" nor "rb_param",
        # even with a measurement model and a family.
        model, times, ys, _ = _ou_setup(n_meas=1)
        meas = None
        if cond_gauss:
            model, meas = _method_case("rb_gauss")[0], \
                gaussian_measurement(0, 0.1)
        model = dataclasses.replace(model, initial_sampler=_raising_sampler)
        with pytest.raises(ValueError, match=match):
            run_filter(model, prior_proposal(model), meas, times, ys,
                       FilterConfig(n_particles=4, n_steps=2), method=method,
                       family=invchi2_family(3.0, 0.2))

    @pytest.mark.parametrize("key, value, match", [
        ("n_particles", 2.5, "n_particles must be an int >= 1"),
        ("n_steps", 0, "n_steps must be an int >= 1"),
        ("n_steps", 2.5, "n_steps must be an int >= 1"),
        ("threads", 0, "threads must be an int >= 1"),
        ("threads", 1.0, "threads must be an int >= 1"),
        ("move_steps", -1, "move_steps must be an int >= 0"),
        ("ess_threshold", float("nan"), "ess_threshold must be in"),
        ("ess_threshold", 2.0, "ess_threshold must be in"),
        ("ess_threshold", -0.1, "ess_threshold must be in"),
    ])
    def test_bad_config_raises_before_any_work(self, key, value, match):
        # n_steps = 0 or 2.5 used to draw all N initial states and then
        # fail in TimeGrid or with a TypeError, n_particles = 2.5 raised
        # a TypeError; threads = 0 and a NaN threshold ran silently, and
        # a threshold of 2 resampled every step.
        model, times, ys, (_, _, obs_var) = _ou_setup(n_meas=1)
        model = dataclasses.replace(model, initial_sampler=_raising_sampler)
        cfg = dataclasses.replace(FilterConfig(n_particles=4, n_steps=2),
                                  **{key: value})
        with pytest.raises(ValueError, match=match):
            run_filter(model, prior_proposal(model),
                       gaussian_measurement(0, obs_var), times, ys, cfg)

    @pytest.mark.parametrize("times, ys", [
        ([1.0, np.nan], [0.0, 0.0]), ([np.nan], [0.0]),
        ([1.0, np.inf], [0.0, 0.0]), ([1.0, 2.0], [0.0, np.nan]),
    ], ids=["nan_time", "only_nan_time", "inf_time", "nan_reading"])
    def test_non_finite_input_raises_before_any_work(self, times, ys):
        # A NaN time passed the ordering checks and the initial sampler
        # ran N times before TimeGrid refused it; a NaN reading reached
        # its step and ended there as an IntegrationError.
        model, _, _, (_, _, obs_var) = _ou_setup(n_meas=1)
        model = dataclasses.replace(model, initial_sampler=_raising_sampler)
        with pytest.raises(ValueError, match="must be finite"):
            run_filter(model, prior_proposal(model),
                       gaussian_measurement(0, obs_var), times, ys,
                       FilterConfig(n_particles=4, n_steps=2))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_kernel_error_names_the_step(self, threads):
        # The drift turns NaN in the second interval, (0.5, 1]: the
        # IntegrationError names that step as well as the time.
        model, _, _, (rate, _, obs_var) = _ou_setup(n_meas=2)
        model = dataclasses.replace(
            model, drift=lambda x, t: -rate * x if t < 0.5
            else np.full(x.shape, np.nan))
        proposal = ImportanceSpec(drift=lambda x, t: -x)
        with pytest.raises(IntegrationError, match=r"^step 2: drift became "
                                                   r"non-finite at t=0\.5$"):
            run_filter(model, proposal, gaussian_measurement(0, obs_var),
                       [0.5, 1.0], [0.1, 0.2],
                       FilterConfig(n_particles=20, n_steps=2,
                                    threads=threads))

    @pytest.mark.parametrize("method", METHODS)
    def test_threshold_zero_never_resamples(self, method):
        res = _run_case(method, 17, ess_threshold=0.0)
        assert not any(r.resampled for r in res.summaries)

    @pytest.mark.parametrize("method", METHODS)
    def test_threshold_one_resamples_every_uneven_step(self, method):
        res = _run_case(method, 17, ess_threshold=1.0)
        uneven = [r for r in res.summaries[1:] if r.ess < 17]
        assert uneven
        assert all(r.resampled for r in uneven)
        assert not any(r.resampled for r in res.summaries[1:]
                       if r.ess >= 17)
