"""Pendulum and epidemic model builders, simulators and helpers."""

import numpy as np
import pytest

from sdepf import FilterConfig, gamma_poisson_family
from sdepf.cli import _linear_bridge_builder
from sdepf.filtering import ParticleSet
from sdepf.proposals import build_bridge, ekf_condition, ekf_predict
from sdepf.models import (EKF_LOG_RATE_CAP, epidemic_drift,
                          epidemic_indicator, epidemic_init_sampler,
                          epidemic_jacobian, epidemic_bridge_builder,
                          epidemic_model, epidemic_predict, epidemic_simulate,
                          epidemic_theta, pendulum_bridge_builder,
                          pendulum_drift, pendulum_jacobian, pendulum_model,
                          pendulum_simulate, read_count_series)
from sdepf.sde import TimeGrid


def _finite_difference_jacobian(f, x, h=1e-6):
    n = x.size
    out = np.zeros((n, n))
    for j in range(n):
        up = x.copy()
        dn = x.copy()
        up[j] += h
        dn[j] -= h
        out[:, j] = (f(up, 0.0) - f(dn, 0.0)) / (2.0 * h)
    return out


class TestPendulumPieces:
    def test_drift_hand_values(self):
        drift = pendulum_drift(1.0)
        np.testing.assert_allclose(drift(np.array([0.0, 2.0]), 0.0),
                                   [2.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(drift(np.array([np.pi / 2.0, 0.0]), 0.0),
                                   [0.0, -1.0], atol=1e-15)

    def test_frequency_enters_squared(self):
        drift = pendulum_drift(2.0)
        out = drift(np.array([np.pi / 2.0, 0.0]), 0.0)
        assert out[1] == pytest.approx(-4.0, rel=1e-14)

    def test_jacobian_matches_finite_differences(self):
        drift = pendulum_drift(1.3)
        jac = pendulum_jacobian(1.3)
        for x in (np.array([0.3, -1.0]), np.array([-2.0, 0.5])):
            np.testing.assert_allclose(jac(x, 0.0),
                                       _finite_difference_jacobian(drift, x),
                                       atol=1e-8)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            pendulum_model(a=0.0)
        with pytest.raises(ValueError):
            pendulum_model(q=-1.0)
        model = pendulum_model()
        assert (model.dim_det, model.dim_stoch, model.dim_noise) == (1, 1, 1)

    def test_simulate_shapes_and_determinism(self):
        sim1 = pendulum_simulate(1.0, 0.01, [1.5, 0.0], 0.1, 20, 0.25, seed=4)
        sim2 = pendulum_simulate(1.0, 0.01, [1.5, 0.0], 0.1, 20, 0.25, seed=4)
        sim3 = pendulum_simulate(1.0, 0.01, [1.5, 0.0], 0.1, 20, 0.25, seed=5)
        assert sim1.times.shape == (20,)
        assert sim1.states.shape == (20, 2)
        assert sim1.ys.shape == (20,)
        assert sim1.path.shape == (20 * 100 + 1, 2)
        np.testing.assert_array_equal(sim1.ys, sim2.ys)
        assert not np.array_equal(sim1.ys, sim3.ys)
        np.testing.assert_allclose(sim1.times, 0.1 * np.arange(1, 21),
                                   rtol=1e-12)

    def test_noiseless_measurements_hit_the_angle(self):
        sim = pendulum_simulate(1.0, 0.01, [1.5, 0.0], 0.1, 10, 1e-18,
                                seed=0)
        np.testing.assert_allclose(sim.ys, sim.states[:, 0], atol=1e-8)

    def test_bridge_builder_accepts_callable_variance(self):
        builder = pendulum_bridge_builder(1.0, 0.01,
                                          lambda pset: np.full(pset.n, 0.25))
        states = np.tile([1.4, 0.1], (6, 1))
        pset = ParticleSet(states, np.full(6, -np.log(6.0)))
        imp = builder(pset, TimeGrid(0.0, 0.1, 5), 1.3)
        g = imp.drift(None, states[:, 1:], 0.0)
        assert g.shape == (6, 1)
        assert np.all(np.isfinite(g))
        # A per-particle R is one variance per particle: the same as the
        # constant 0.25.
        same = pendulum_bridge_builder(1.0, 0.01, 0.25)(
            pset, TimeGrid(0.0, 0.1, 5), 1.3)
        assert g.tobytes() == same.drift(None, states[:, 1:], 0.0).tobytes()


class TestEpidemicPieces:
    def test_drift_hand_value(self):
        # [DERIVED] x=0.5, y=0.1, lam=log 2, g=1: flow = 2*0.1*0.5 = 0.1,
        # so (-0.1, 0.1 - 0.1, 0) = (-0.1, 0, 0).
        drift = epidemic_drift(1.0)
        out = drift(np.array([0.5, 0.1, np.log(2.0)]), 0.0)
        np.testing.assert_allclose(out, [-0.1, 0.0, 0.0], atol=1e-15)

    def test_jacobian_matches_finite_differences(self):
        drift = epidemic_drift(1.0)
        jac = epidemic_jacobian(1.0)
        x = np.array([0.7, 0.05, 0.3])
        np.testing.assert_allclose(jac(x, 0.0),
                                   _finite_difference_jacobian(drift, x),
                                   atol=1e-7)

    def test_jacobian_bits_match_the_per_entry_products(self):
        # The Jacobian computes s y, s x and s y x once each; every entry
        # must keep the bits of the per-entry formula written out here,
        # signed zeros included.
        g = 0.9
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.random(200), [0.0, -0.0, 0.3, 0.0, -0.0]])
        y = np.concatenate([rng.random(200), [0.2, 0.0, -0.0, -0.0, 0.0]])
        lam = np.concatenate([rng.normal(0.0, 8.0, 200),
                              [20.0, -20.0, 0.0, 20.0, -20.0]])
        state = np.stack([x, y, lam], axis=-1)
        s = g * np.exp(lam)
        ref = np.zeros((x.size, 3, 3))
        ref[:, 0, 0] = -s * y
        ref[:, 0, 1] = -s * x
        ref[:, 0, 2] = -s * y * x
        ref[:, 1, 0] = s * y
        ref[:, 1, 1] = s * x - g
        ref[:, 1, 2] = s * y * x
        assert epidemic_jacobian(g)(state, 0.0).tobytes() == ref.tobytes()

    def test_theta_hand_values(self):
        # [DERIVED] susceptible+infective drops from 0.9 to 0.75.
        start = np.array([0.6, 0.3, 0.0])
        end = np.array([0.5, 0.25, 0.0])
        assert epidemic_theta(start, end) == pytest.approx(0.15, rel=1e-14)
        # Mass cannot flow backwards; the floor keeps theta positive.
        assert epidemic_theta(end, start) == 1e-12
        batch = epidemic_theta(np.tile(start, (4, 1)), np.tile(end, (4, 1)))
        np.testing.assert_allclose(batch, 0.15, rtol=1e-14)

    def test_model_constrain_clamps_box(self):
        model = epidemic_model()
        x1, x2 = model.constrain(np.array([[-0.1, 1.2]]), np.array([[25.0]]))
        np.testing.assert_array_equal(x1, [[0.0, 1.0]])
        np.testing.assert_array_equal(x2, [[20.0]])

    def test_model_validation(self):
        with pytest.raises(ValueError):
            epidemic_model(g=0.0)
        with pytest.raises(ValueError):
            epidemic_model(q=-0.5)

    def test_init_sampler_stays_in_box(self):
        sampler = epidemic_init_sampler()
        rng = np.random.default_rng(0)
        draws = np.array([sampler(rng) for _ in range(200)])
        assert np.all(draws[:, 1] > 0.0)
        assert np.all(draws[:, 1] < 1.0)
        np.testing.assert_allclose(draws[:, 0] + draws[:, 1], 1.0, rtol=1e-14)

    def test_indicator_hand_value(self):
        # [DERIVED] exp(log 2) * 0.5 = 1 exactly at the turning point.
        val = epidemic_indicator(np.array([[0.5, 0.1, np.log(2.0)]]),
                                 np.array([1.0]))
        assert val == pytest.approx(1.0, rel=1e-14)
        two = epidemic_indicator(np.array([[0.5, 0.1, np.log(2.0)],
                                           [1.0, 0.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        assert two == pytest.approx(0.5 * 1.0 + 0.5 * 1.0, rel=1e-14)


class TestEpidemicSimulate:
    def test_frozen_rate_and_mass_conservation(self):
        sim = epidemic_simulate(1.0, 0.0, 1e5, 0.01, np.log(1.6), 30, seed=1)
        np.testing.assert_array_equal(sim.path[:, 2], np.log(1.6))
        alive = sim.path[:, 0] + sim.path[:, 1]
        assert np.all(np.diff(alive) <= 1e-12)
        assert np.all(alive >= 0.0)
        assert np.all(alive <= 1.0 + 1e-12)

    def test_counts_are_nonnegative_integers(self):
        sim = epidemic_simulate(1.0, 0.001, 1e5, 0.01, np.log(1.6), 25,
                                seed=2)
        assert sim.counts.dtype == np.int64
        assert np.all(sim.counts >= 0)
        assert sim.counts.shape == (25,)
        assert sim.times.shape == (25,)
        np.testing.assert_allclose(sim.times, np.arange(1.0, 26.0),
                                   rtol=1e-12)

    def test_counts_stay_near_expected_totals(self):
        n_true = 1e5
        sim = epidemic_simulate(1.0, 0.0, n_true, 0.01, np.log(1.6), 30,
                                seed=3)
        dead_frac = 1.0 - sim.path[-1, 0] - sim.path[-1, 1]
        total = sim.counts.sum()
        assert abs(total - n_true * dead_frac) < 6.0 * np.sqrt(n_true)

    def test_determinism(self):
        a = epidemic_simulate(1.0, 0.001, 1e5, 0.01, np.log(1.6), 10, seed=7)
        b = epidemic_simulate(1.0, 0.001, 1e5, 0.01, np.log(1.6), 10, seed=7)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.path, b.path)


class TestEpidemicBridge:
    def _pset(self, lam):
        states = np.tile([0.9, 0.05, lam], (4, 1))
        fam = gamma_poisson_family(10.0, 0.001)
        return ParticleSet(states, np.full(4, -np.log(4.0)),
                           stats=fam.init_stats(4)), fam

    def test_drift_sign_follows_the_count(self):
        # The bridge drift moves the log rate toward the count: down for
        # 120 and up for 2000, either side of the free-running forecast
        # N theta, about 1e4 * 0.06 = 600.
        pset, fam = self._pset(np.log(1.6))
        builder = epidemic_bridge_builder(1.0, 0.001, fam)
        for count, sign in ((120, -1.0), (2000, 1.0)):
            imp = builder(pset, TimeGrid(0.0, 1.0, 10), count)
            g = imp.drift(None, None, pset.states[:, 2:], 0.0)
            assert g.shape == (4, 1)
            assert np.all(np.isfinite(g))
            assert np.all(sign * g > 0.0)

    def test_extreme_log_rate_is_tamed(self):
        # Without the linearization cap a log rate of 15 overflows the
        # moment integration; the builder must still return finite specs.
        pset, fam = self._pset(15.0)
        assert 15.0 > EKF_LOG_RATE_CAP
        builder = epidemic_bridge_builder(1.0, 0.001, fam)
        imp = builder(pset, TimeGrid(0.0, 1.0, 10), 5)
        g = imp.drift(None, None, pset.states[:, 2:], 0.0)
        assert np.all(np.isfinite(g))


class TestBridgeRecipe:
    @staticmethod
    def _recipe_case(kind):
        """(builder, pset, y, hand-composed spec, steered block) for one
        of the three named bridge builders at six scattered particles."""
        rng = np.random.default_rng(5)
        grid = TimeGrid(0.0, 1.0, 10)
        if kind == "ou":
            states = rng.normal(0.0, 2.0, (6, 1))
            pset = ParticleSet(states, np.full(6, -np.log(6.0)))
            mom = ekf_predict(states, lambda x, t: (
                -0.6 * x, np.full(x.shape + (1,), -0.6)),
                np.array([[0.8]]), grid)
            mom = ekf_condition(mom, np.array([1.0]), 0.25, 0.7)
            return (_linear_bridge_builder(0.6, 0.8, 0.25), pset, 0.7,
                    build_bridge(states, mom, 1.0, 0), states[:, 0:1])
        if kind == "pendulum":
            states = rng.normal(0.0, 1.0, (6, 2))
            r = 0.1 + 0.05 * np.arange(6)
            pset = ParticleSet(states, np.full(6, -np.log(6.0)))
            drift, jac = pendulum_drift(1.2), pendulum_jacobian(1.2)
            mom = ekf_predict(states, lambda x, t: (drift(x, t), jac(x, t)),
                              np.diag([0.0, 0.05]), grid)
            mom = ekf_condition(mom, np.array([1.0, 0.0]), r, 0.4)
            return (pendulum_bridge_builder(1.2, 0.05, lambda ps: r), pset,
                    0.4, build_bridge(states, mom, 1.0, 1), states[:, 1:])
        states = np.column_stack([rng.uniform(-0.1, 1.1, 6),
                                  rng.uniform(-0.1, 0.3, 6),
                                  rng.normal(1.0, 2.0, 6)])
        fam = gamma_poisson_family(10.0, 0.001)
        pset = ParticleSet(states, np.full(6, -np.log(6.0)),
                           stats=fam.init_stats(6))

        def boxed(x):
            out = x.copy()
            out[..., :2] = np.clip(out[..., :2], 0.0, 1.0)
            out[..., 2] = np.minimum(out[..., 2], EKF_LOG_RATE_CAP)
            return out

        drift, jac = epidemic_drift(1.0), epidemic_jacobian(1.0)
        mom = ekf_predict(states, lambda x, t: (drift(boxed(x), t),
                                                jac(boxed(x), t)),
                          np.diag([0.0, 0.0, 0.001]), grid)
        n_hat = fam.point_estimate(pset.stats)
        h = np.zeros((6, 1, 3))
        h[:, 0, :2] = -n_hat[:, None]
        y_eff = (40.0 - n_hat * (states[:, 0] + states[:, 1]))[:, None]
        # Negative binomial predictive variance d + 1 + d^2 / alpha.
        r = np.full((6, 1, 1), 41.0 + 1600.0 / 10.0)
        mom = ekf_condition(mom, h, r, y_eff)
        return (epidemic_bridge_builder(1.0, 0.001, fam), pset, 40,
                build_bridge(states, mom, 1.0, 2), states[:, 2:])

    @pytest.mark.parametrize("kind", ["ou", "pendulum", "epidemic"])
    def test_builder_equals_hand_composed_recipe(self, kind):
        # Each named builder is the one EKF bridge recipe, predict ->
        # condition -> bridge, composed here by hand; the epidemic
        # linearization boxes each mean once for the drift and the
        # Jacobian, the hand-composed one boxes it for each.
        builder, pset, y, ref, block = self._recipe_case(kind)
        imp = builder(pset, TimeGrid(0.0, 1.0, 10), y)
        g = imp.drift(block, 0.0)
        assert g.tobytes() == ref.drift(block, 0.0).tobytes()


class TestEpidemicPredict:
    def _filtered_pset(self):
        rng = np.random.default_rng(2)
        states = np.column_stack([
            0.6 + 0.05 * rng.random(8),
            0.05 + 0.01 * rng.random(8),
            np.log(1.6) + 0.05 * rng.standard_normal(8)])
        stats = np.tile([500.0, 0.005], (8, 1))
        return ParticleSet(states, np.full(8, -np.log(8.0)),
                           stats=stats)

    def test_shapes_and_ranges(self):
        pset = self._filtered_pset()
        model = epidemic_model()
        fam = gamma_poisson_family(10.0, 0.001)
        horizon = np.arange(11.0, 21.0)
        pred = epidemic_predict(pset, model, fam, 10.0, horizon, 64,
                                np.random.default_rng(3))
        assert pred.thetas.shape == (64, 10)
        assert pred.total_deaths.shape == (64,)
        assert np.all(pred.thetas >= 0.0)
        assert np.all(pred.total_deaths >= 0.0)
        assert np.all(np.isin(pred.peak_times, horizon))

    def test_rejects_bad_horizon(self):
        pset = self._filtered_pset()
        model = epidemic_model()
        fam = gamma_poisson_family(10.0, 0.001)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            epidemic_predict(pset, model, fam, 10.0, [9.0, 11.0], 8, rng)
        with pytest.raises(ValueError):
            epidemic_predict(pset, model, fam, 10.0, [12.0, 11.0], 8, rng)
        with pytest.raises(ValueError):
            epidemic_predict(pset, model, fam, 10.0, [], 8, rng)


class TestReadCountSeries:
    def _write(self, tmp_path, text):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        return path

    def test_roundtrip_with_comments(self, tmp_path):
        path = self._write(tmp_path,
                           "# produced by a simulator\n"
                           "week,deaths\n1,5\n2,12\n3,0\n")
        times, counts = read_count_series(path)
        np.testing.assert_array_equal(times, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(counts, [5, 12, 0])
        assert counts.dtype == np.int64

    def test_rejects_wrong_header(self, tmp_path):
        path = self._write(tmp_path, "t,y\n1,5\n")
        with pytest.raises(ValueError):
            read_count_series(path)

    def test_rejects_negative_or_fractional_counts(self, tmp_path):
        with pytest.raises(ValueError):
            read_count_series(self._write(tmp_path, "week,deaths\n1,-3\n"))
        with pytest.raises(ValueError):
            read_count_series(self._write(tmp_path, "week,deaths\n1,2.5\n"))

    def test_rejects_non_increasing_weeks(self, tmp_path):
        path = self._write(tmp_path, "week,deaths\n1,5\n1,6\n")
        with pytest.raises(ValueError):
            read_count_series(path)

    def test_rejects_empty_file(self, tmp_path):
        path = self._write(tmp_path, "week,deaths\n")
        with pytest.raises(ValueError):
            read_count_series(path)

    @pytest.mark.parametrize("rows", ["1,inf\n", "1,5\nnan,6\n",
                                      "1,1e19\n"],
                             ids=["inf_count", "nan_week", "count_over_int64"])
    def test_rejects_non_finite_and_overflowing_values(self, tmp_path, rows):
        path = self._write(tmp_path, "week,deaths\n" + rows)
        with pytest.raises(ValueError):
            read_count_series(path)

    def test_missing_file_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            read_count_series(tmp_path / "absent.csv")

    def test_rejects_short_rows(self, tmp_path):
        path = self._write(tmp_path, "week,deaths\n1\n")
        with pytest.raises(ValueError):
            read_count_series(path)
