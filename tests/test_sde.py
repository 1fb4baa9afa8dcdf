"""Time grids, diffusion specs and Euler-Maruyama integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from sdepf import (DiffusionSpec, SdeModel, SplitSdeModel, TimeGrid,
                   integrate_sde, sample_brownian_increments)
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
