"""Time grids, diffusion specs and Euler-Maruyama integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from sdepf import (DiffusionSpec, FilterConfig, ImportanceSpec, SdeModel,
                   SplitSdeModel, TimeGrid, gaussian_measurement,
                   integrate_sde, run_filter, sample_brownian_increments)
from sdepf._linalg import mat_vec
from sdepf.exceptions import DiffusionError, IntegrationError
from sdepf.sde import BrownianIncrements


class TestTimeGrid:
    def test_basic_properties(self):
        grid = TimeGrid(0.0, 1.0, 10)
        assert grid.dt == pytest.approx(0.1, abs=0)
        assert grid.span == 1.0
        np.testing.assert_allclose(grid.times, np.linspace(0.0, 1.0, 11),
                                   rtol=0, atol=1e-15)

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(0.0, np.inf, 5)
        for n_steps in (2.5, True):
            with pytest.raises(ValueError, match="n_steps"):
                TimeGrid(0.0, 1.0, n_steps)


class TestDiffusionSpec:
    def test_scalar_promotes_to_matrix(self):
        spec = DiffusionSpec(0.8)
        assert spec.constant
        assert spec.dim == 1
        np.testing.assert_array_equal(spec.at(3.0), [[0.8]])

    def test_diagonal_vector(self):
        spec = DiffusionSpec([0.3, 0.4])
        np.testing.assert_array_equal(spec.at(0.0), np.diag([0.3, 0.4]))

    def test_chol_cached_for_constant(self):
        spec = DiffusionSpec(np.array([[4.0, 1.0], [1.0, 3.0]]))
        c1 = spec.chol(0.0)
        c2 = spec.chol(17.0)
        assert c1 is c2
        np.testing.assert_allclose(c1 @ c1.T, [[4.0, 1.0], [1.0, 3.0]],
                                   rtol=1e-14)

    def test_callable_spec(self):
        spec = DiffusionSpec(lambda t: np.array([[1.0 + t]]))
        assert not spec.constant
        assert spec.dim is None
        assert spec.at(1.0)[0, 0] == 2.0

    def test_callable_vector_is_its_diagonal(self):
        # A callable Q is read by the constant's rule: a 1-d value is the
        # diagonal matrix.
        vec = np.array([0.3, 0.4])
        np.testing.assert_array_equal(DiffusionSpec(lambda t: vec).at(0.5),
                                      DiffusionSpec(vec).at(0.5))

    def test_rejects_asymmetric(self):
        spec = DiffusionSpec(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(DiffusionError):
            spec.at(0.0)

    def test_rejects_rectangular(self):
        spec = DiffusionSpec(lambda t: np.ones((2, 1)))
        with pytest.raises(DiffusionError):
            spec.at(0.0)

    def test_rejects_indefinite_in_chol(self):
        spec = DiffusionSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(DiffusionError):
            spec.chol(0.0)


class TestBrownianIncrements:
    @pytest.mark.parametrize("q, row", [
        (4.0, [1.0]),
        (lambda t: 4.0, [1.0]),
        (np.array([[4.0, 2.0], [2.0, 5.0]]), [1.0, 1.5]),
    ], ids=["const_1x1", "callable_1x1", "const_2x2"])
    def test_from_noise_scales_by_chol_and_sqrt_dt(self, q, row):
        # [DERIVED] dbeta = sqrt(dt) * chol(Q) @ eps with eps = 1 and
        # dt = 0.25: sqrt(0.25) * 2 = 1 for Q = 4; chol(Q) = [[2, 0],
        # [1, 2]] for the 2x2 Q, so 0.5 * (2, 3) = (1, 1.5).
        grid = TimeGrid(0.0, 1.0, 4)
        spec = DiffusionSpec(q)
        incs = BrownianIncrements.from_noise(grid, spec,
                                             np.ones((4, len(row))))
        np.testing.assert_allclose(incs.values, np.tile(row, (4, 1)),
                                   rtol=1e-15)
        # Bit for bit the product sqrt(dt) * mat_vec(chol, z), -0 included
        # (mat_vec turns it into +0), and sample_brownian_increments's
        # in-place scaling of its own block gives the same bits.
        # from_noise leaves its input as it was.
        z = np.random.default_rng(5).standard_normal((7, 4, len(row)))
        z[0, 0] = -0.0
        before = z.copy()
        chols = np.stack([spec.chol(t) for t in grid.times[:-1]])
        ref = np.sqrt(grid.dt) * mat_vec(chols, z)
        assert BrownianIncrements.from_noise(grid, spec, z).values.tobytes() \
            == ref.tobytes()
        assert z.tobytes() == before.tobytes()
        drawn = sample_brownian_increments(
            grid, spec, np.random.default_rng(5), n_paths=7).values
        assert drawn.tobytes() == BrownianIncrements.from_noise(
            grid, spec, np.random.default_rng(5).standard_normal(
                (7, 4, len(row)))).values.tobytes()

    def test_sampled_increment_moments(self):
        rng = np.random.default_rng(11)
        grid = TimeGrid(0.0, 2.0, 8)
        q = np.array([[1.0, 0.6], [0.6, 2.0]])
        incs = sample_brownian_increments(grid, DiffusionSpec(q), rng,
                                          n_paths=200000)
        flat = incs.values.reshape(-1, 2)
        cov = np.cov(flat.T)
        np.testing.assert_allclose(flat.mean(axis=0), [0.0, 0.0], atol=4e-3)
        np.testing.assert_allclose(cov, q * grid.dt, rtol=2e-2)

    def test_shapes(self):
        rng = np.random.default_rng(0)
        grid = TimeGrid(0.0, 1.0, 5)
        single = sample_brownian_increments(grid, DiffusionSpec(1.0), rng)
        batch = sample_brownian_increments(grid, DiffusionSpec(1.0), rng,
                                           n_paths=7)
        assert single.values.shape == (5, 1)
        assert batch.values.shape == (7, 5, 1)


class TestEulerStep:
    """integrate_sde on a one-step grid."""

    @staticmethod
    def _step(drift, dispersion, x0, dbeta):
        model = SdeModel(len(x0), 1, drift, dispersion, 1.0)
        return integrate_sde(model, np.array(x0), TimeGrid(0.0, 0.1, 1),
                             BrownianIncrements(np.array([dbeta])))[-1]

    def test_hand_value(self):
        # [DERIVED] x + f dt + L dbeta = 1 + 2*0.1 + 3*0.5 = 2.7.
        out = self._step(lambda x, t: np.array([2.0]), np.array([[3.0]]),
                         [1.0], [0.5])
        np.testing.assert_allclose(out, [2.7], rtol=0, atol=1e-15)

    def test_rectangular_dispersion(self):
        # 2 states driven by 1 noise channel.
        out = self._step(lambda x, t: np.zeros(2), np.array([[0.0], [1.0]]),
                         [0.0, 0.0], [0.25])
        np.testing.assert_allclose(out, [0.0, 0.25], atol=1e-16)


class TestCallableDispersion:
    """A callable L is read by the rule for a constant one: a 1-d value
    is the diagonal matrix, so both give the same bits."""

    L_DIAG = np.array([1.0, 2.0])
    Q = np.diag([0.5, 1.2])

    @staticmethod
    def _drift(x, t):
        return np.sin(x[..., ::-1]) - 0.5 * x

    def _models(self):
        def sampler(rng):
            return rng.normal(size=2)
        return [SdeModel(2, 2, self._drift, l_val, self.Q,
                         initial_sampler=sampler)
                for l_val in (self.L_DIAG, lambda t: self.L_DIAG)]

    def test_integrate_sde(self):
        grid = TimeGrid(0.0, 1.0, 10)
        const, fn = self._models()
        incs = sample_brownian_increments(grid, const.diffusion,
                                          np.random.default_rng(3), n_paths=8)
        x0 = np.random.default_rng(4).normal(size=(8, 2))
        a, b = (integrate_sde(m, x0, grid, incs) for m in (const, fn))
        assert a.tobytes() == b.tobytes()

    def test_run_filter_under_weighted_proposal(self):
        imp = ImportanceSpec(drift=lambda x, t: self._drift(x, t) + 0.3)
        cfg = FilterConfig(n_particles=50, n_steps=5, seed=3)
        a, b = (run_filter(m, imp, gaussian_measurement(0, 0.25),
                           [0.5, 1.0, 1.5], [0.1, -0.2, 0.3], cfg,
                           method="sir")
                for m in self._models())
        assert a.final_set.states.tobytes() == b.final_set.states.tobytes()
        assert a.final_set.log_weights.tobytes() \
            == b.final_set.log_weights.tobytes()
        assert a.log_marginal == b.log_marginal


class TestIntegrateSde:
    def test_linear_growth_zero_noise(self):
        # [DERIVED] dx = x dt with dt = 0.01 over 100 steps:
        # (1.01)**100 = 2.7048138294215285 (Euler compounding, exact).
        grid = TimeGrid(0.0, 1.0, 100)
        model = SdeModel(1, 1, lambda x, t: x, 1.0, 1.0)
        incs = BrownianIncrements(np.zeros((100, 1)))
        path = integrate_sde(model, np.array([1.0]), grid, incs)
        assert path.shape == (101, 1)
        assert path[-1, 0] == pytest.approx(2.7048138294215285, abs=1e-12)

    def test_matches_manual_chain(self):
        # One batch of OU paths against a hand-rolled Euler loop sharing
        # the same increments.
        rng = np.random.default_rng(5)
        grid = TimeGrid(0.0, 1.0, 20)
        model = SdeModel(1, 1, lambda x, t: -0.7 * x, 1.0, 0.5)
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=16)
        x0 = np.full((16, 1), 2.0)
        path = integrate_sde(model, x0, grid, incs)
        x = x0.copy()
        for j in range(20):
            x = x - 0.7 * x * grid.dt + incs.values[:, j, :]
        np.testing.assert_allclose(path[-1], x, rtol=0, atol=1e-14)

    def test_nonfinite_drift_names_time(self):
        grid = TimeGrid(0.0, 1.0, 4)
        model = SdeModel(1, 1, lambda x, t: x / (x - x), 1.0, 1.0)
        incs = BrownianIncrements(np.zeros((4, 1)))
        with np.errstate(all="ignore"):
            with pytest.raises(IntegrationError, match="t="):
                integrate_sde(model, np.array([1.0]), grid, incs)

    def test_strong_order_on_ou(self):
        # [DERIVED: matched-noise refinement] additive noise, so the
        # pathwise RMS error at t = 1 halves (within 25%) when the step
        # halves; the reference shares the same driving increments on a
        # much finer grid.
        model = SdeModel(1, 1, lambda x, t: -x, 1.0, 0.8)
        n, fine_steps = 1000, 1280
        rng = np.random.default_rng(3)
        fine = sample_brownian_increments(TimeGrid(0.0, 1.0, fine_steps),
                                          model.diffusion, rng, n_paths=n)

        def endpoint(factor):
            steps = fine_steps // factor
            vals = fine.values.reshape(n, steps, factor, 1).sum(axis=2)
            path = integrate_sde(model, np.full((n, 1), 1.0),
                                 TimeGrid(0.0, 1.0, steps),
                                 BrownianIncrements(vals))
            return path[-1, :, 0]

        ref = endpoint(1)
        err_coarse = endpoint(64) - ref
        err_half = endpoint(32) - ref
        factor = np.sqrt(np.mean(err_coarse ** 2) / np.mean(err_half ** 2))
        assert 1.5 < factor < 2.5

    def test_pendulum_zero_noise_matches_ode_solver(self):
        # With zero increments the sampled path must follow the
        # deterministic pendulum; solve_ivp is the independent reference.
        model = SdeModel(2, 1,
                         lambda x, t: np.stack([x[..., 1],
                                                -np.sin(x[..., 0])], -1),
                         np.array([[0.0], [1.0]]), 0.01)
        grid = TimeGrid(0.0, 5.0, 20000)
        incs = BrownianIncrements(np.zeros((20000, 1)))
        path = integrate_sde(model, np.array([1.5, 0.0]), grid, incs)
        ref = solve_ivp(lambda t, x: [x[1], -np.sin(x[0])], (0.0, 5.0),
                        [1.5, 0.0], rtol=1e-10, atol=1e-12,
                        t_eval=[5.0])
        np.testing.assert_allclose(path[-1], ref.y[:, -1], atol=2e-3)


class TestSplitModel:
    def test_split_indexing(self):
        model = SplitSdeModel(2, 1, 1,
                              lambda x1, x2, t: np.zeros(2),
                              lambda x1, x2, t: np.zeros(1),
                              1.0, 1.0)
        x1, x2 = model.split(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(x1, [1.0, 2.0])
        np.testing.assert_array_equal(x2, [3.0])

    def test_noise_dimension_must_match_stochastic_block(self):
        with pytest.raises(ValueError):
            SplitSdeModel(1, 2, 1,
                          lambda x1, x2, t: np.zeros(1),
                          lambda x1, x2, t: np.zeros(2),
                          1.0, 1.0)


class TestDeclaredDimensions:
    """A constant L or Q that does not fit dim_state, dim_stoch and
    dim_noise is refused when the model is built, naming both shapes.
    Before, a 1x1 L served any declared dimensions: (1, 2) ran until
    resample-move's path record failed to concatenate its noise, and
    (5, 3) filtered a 1-d model."""

    @pytest.mark.parametrize("dims, l_val, q_val, match", [
        ((1, 2), 1.0, 0.8, r"dispersion L: shape \(1, 1\), but the model's "
         r"dimensions need \(1, 2\)"),
        ((5, 3), 1.0, 0.8, r"dispersion L: shape \(1, 1\), but the model's "
         r"dimensions need \(5, 3\)"),
        ((2, 2), np.eye(2), 0.8, r"diffusion Q: shape \(1, 1\), but the "
         r"model's dimensions need \(2, 2\)"),
    ], ids=["noise_1x2", "state_5x3", "q_1x1_for_2"])
    def test_plain_model(self, dims, l_val, q_val, match):
        with pytest.raises(ValueError, match=match):
            SdeModel(*dims, lambda x, t: -x, l_val, q_val)

    def test_split_model_checks_the_stochastic_block(self):
        with pytest.raises(ValueError, match=r"dispersion L: shape \(1, 1\)"
                                             r".* need \(2, 2\)"):
            SplitSdeModel(1, 2, 2, lambda x1, x2, t: x2[..., :1],
                          lambda x1, x2, t: -x2, 1.0, np.eye(2))

    def test_callable_values_are_not_evaluated(self):
        # A callable L or Q is only read at run time.
        SdeModel(1, 2, lambda x, t: -x, lambda t: 1.0, lambda t: 0.8)


@settings(max_examples=25, deadline=None)
@given(n_steps=st.integers(min_value=1, max_value=40),
       t0=st.floats(min_value=-5.0, max_value=5.0),
       span=st.floats(min_value=1e-3, max_value=10.0))
def test_grid_times_consistent(n_steps, t0, span):
    grid = TimeGrid(t0, t0 + span, n_steps)
    times = grid.times
    assert times.shape == (n_steps + 1,)
    assert times[0] == pytest.approx(t0, abs=1e-12)
    assert times[-1] == pytest.approx(t0 + span, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(np.diff(times), grid.dt, rtol=1e-9)
