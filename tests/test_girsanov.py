"""Log likelihood ratio recursion and its exactness for the Euler chain."""

import dataclasses

import numpy as np
import pytest
from scipy.stats import norm

from sdepf import (DiffusionSpec, ImportanceSpec, ParticleSet, SdeModel,
                   SplitSdeModel, TimeGrid, estimate_kl, girsanov,
                   integrate_sde, models, prior_proposal, propagate_coupled,
                   propagate_coupled_split, sample_brownian_increments)
from sdepf.exceptions import IntegrationError, SingularMatrixError
from sdepf.sde import BrownianIncrements


def _ou_model(rate=1.0, q=1.0):
    return SdeModel(1, 1, lambda x, t: -rate * x, 1.0, q)


class TestStepLlr:
    """One and two Euler steps of Lambda with constant drifts."""

    @staticmethod
    def _llr(n_steps):
        model = SdeModel(1, 1, lambda x, t: np.full(x.shape, -1.0), 1.0, 0.01)
        imp = ImportanceSpec(drift=lambda x, t: np.zeros(x.shape))
        grid = TimeGrid(0.0, 0.1 * n_steps, n_steps)
        incs = BrownianIncrements(np.full((1, n_steps, 1), 0.01))
        return propagate_coupled(model, imp, np.zeros((1, 1)), grid,
                                 incs).llr

    def test_hand_value(self):
        # [DERIVED] d = f - g = -1, q = 0.01, L = 1:
        # increment = d*(1/q)*dbeta - 0.5*d^2*(1/q)*dt
        #           = (-1)(100)(0.01) - 0.5(100)(0.1) = -6.
        np.testing.assert_allclose(self._llr(1), [-6.0], rtol=0, atol=1e-12)

    def test_accumulates_from_previous_value(self):
        np.testing.assert_allclose(self._llr(2), 2.0 * self._llr(1),
                                   rtol=1e-14)


class TestConstantDriftClosedForm:
    def test_exact_at_any_step_size(self):
        # [DERIVED] For constant drifts a and b the integrands are
        # constant, so the discrete sum telescopes to the closed form
        # Lambda = (a - b)/q * beta(T) - (a - b)^2 T / (2 q) exactly.
        a, b, q, t_end = 0.7, -0.4, 0.5, 1.0
        model = SdeModel(1, 1, lambda x, t: np.full(x.shape, a), 1.0, q)
        imp = ImportanceSpec(drift=lambda x, t: np.full(x.shape, b))
        grid = TimeGrid(0.0, t_end, 37)
        rng = np.random.default_rng(12)
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=300)
        x0 = np.zeros((300, 1))
        res = propagate_coupled(model, imp, x0, grid, incs)
        beta_total = incs.values.sum(axis=(1, 2))
        expected = (a - b) / q * beta_total - (a - b) ** 2 * t_end / (2 * q)
        np.testing.assert_allclose(res.llr, expected, rtol=0, atol=1e-12)


class TestBootstrapReduction:
    def test_plain_model_llr_is_bitwise_zero(self):
        model = _ou_model()
        imp = prior_proposal(model)
        grid = TimeGrid(0.0, 1.0, 50)
        rng = np.random.default_rng(0)
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=64)
        res = propagate_coupled(model, imp, np.ones((64, 1)), grid, incs)
        assert np.all(res.llr == 0.0)

    def test_split_model_llr_is_bitwise_zero(self):
        model = SplitSdeModel(
            1, 1, 1,
            lambda x1, x2, t: x2,
            lambda x1, x2, t: -np.sin(x1),
            1.0, 0.01)
        imp = prior_proposal(model)
        grid = TimeGrid(0.0, 1.0, 10)
        rng = np.random.default_rng(1)
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=32)
        res = propagate_coupled_split(model, imp, np.full((32, 1), 1.5),
                                      np.zeros((32, 1)), grid, incs)
        assert np.all(res.llr == 0.0)


def _full_path_twin(model):
    """The bootstrap proposal under a new drift object: the kernels do not
    recognize it, so they run the full Lambda recursion."""
    drift = prior_proposal(model).drift
    return ImportanceSpec(drift=lambda *args: drift(*args))


def _assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPriorShortCut:
    """Under prior_proposal the kernels skip Lambda and the target drift;
    the results must be the full recursion's, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_plain_kernel(self, dim):
        def drift(x, t):
            return np.sin(x[..., ::-1]) - 0.5 * x

        q = np.diag([0.5, 1.2][:dim])
        model = SdeModel(dim, dim, drift, np.eye(dim), q)
        grid = TimeGrid(0.0, 1.0, 20)
        rng = np.random.default_rng(8)
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=50)
        x0 = rng.normal(size=(50, dim))
        short, full = (propagate_coupled(model, imp, x0, grid, incs,
                                         record_noise=True)
                       for imp in (prior_proposal(model),
                                   _full_path_twin(model)))
        for res in (short, full):
            assert np.all(res.llr == 0.0) and not np.any(np.signbit(res.llr))
        for name in ("state", "llr", "model_noise"):
            _assert_same_bits(getattr(short, name), getattr(full, name))

    @pytest.mark.parametrize("kind", ["pendulum", "epidemic"])
    def test_split_kernel(self, kind):
        rng = np.random.default_rng(9)
        if kind == "pendulum":
            model = models.pendulum_model(1.0, 0.3)
            x = rng.normal(size=(50, 2))
        else:
            # Its clamp to [0, 1] and [-20, 20] binds on some paths.
            model = models.epidemic_model(1.0, 4.0)
            x = np.column_stack([rng.uniform(0.5, 1.0, 50),
                                 rng.uniform(0.0, 0.5, 50),
                                 rng.normal(18.0, 2.0, 50)])
        x1, x2 = model.split(x)
        grid = TimeGrid(0.0, 1.0, 20)
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=50)
        short, full = (propagate_coupled_split(model, imp, x1, x2, grid,
                                               incs, record_noise=True)
                       for imp in (prior_proposal(model),
                                   _full_path_twin(model)))
        for res in (short, full):
            assert np.all(res.llr == 0.0) and not np.any(np.signbit(res.llr))
        for name in ("state", "llr", "model_noise"):
            _assert_same_bits(getattr(short, name), getattr(full, name))


class TestLambdaInverses:
    """_LlrOps inverts Q and L Q L^T only when Lambda is accumulated;
    L^-1 is always built, as the model's invertibility check."""

    @staticmethod
    def _count_inverses(monkeypatch, model, imp):
        calls = []
        inner = girsanov.guarded_inv
        monkeypatch.setattr(girsanov, "guarded_inv",
                            lambda mat, name, t=None: calls.append(name)
                            or inner(mat, name, t))
        grid = TimeGrid(0.0, 1.0, 10)
        incs = sample_brownian_increments(grid, model.diffusion,
                                          np.random.default_rng(4), n_paths=8)
        propagate_coupled(model, imp, np.zeros((8, 1)), grid, incs)
        return calls

    def test_bootstrap_interval_inverts_l_only(self, monkeypatch):
        model = _ou_model()
        calls = self._count_inverses(monkeypatch, model,
                                     prior_proposal(model))
        assert calls == ["dispersion L"]

    def test_weighted_interval_inverts_all(self, monkeypatch):
        model = _ou_model()
        calls = self._count_inverses(monkeypatch, model,
                                     _full_path_twin(model))
        assert sorted(calls) == ["L Q L^T", "diffusion Q", "dispersion L"]

    def test_bootstrap_still_rejects_singular_l(self):
        model = SdeModel(1, 1, lambda x, t: -x, 0.0, 1.0)
        grid = TimeGrid(0.0, 1.0, 4)
        incs = sample_brownian_increments(grid, model.diffusion,
                                          np.random.default_rng(4), n_paths=3)
        with pytest.raises(SingularMatrixError, match="dispersion L"):
            propagate_coupled(model, prior_proposal(model), np.zeros((3, 1)),
                              grid, incs)


class TestBridgeKeepsOnePair:
    """A bridge moves one pair of blocks: Lambda is not zero and the
    noise-free drift runs once per Euler step."""

    def test_pendulum_bridge(self):
        rng = np.random.default_rng(6)
        model = models.pendulum_model(1.0, 0.3)
        calls = []
        det = model.drift_det
        model = dataclasses.replace(
            model, drift_det=lambda *a: calls.append(1) or det(*a))
        states = np.array([1.5, 0.0]) + 0.3 * rng.normal(size=(40, 2))
        grid = TimeGrid(0.0, 0.5, 10)
        pset = ParticleSet(states, np.full(40, -np.log(40.0)))
        imp = models.pendulum_bridge_builder(1.0, 0.3, 0.25)(pset, grid, 1.2)
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=40)
        x1, x2 = model.split(states)
        res = propagate_coupled_split(model, imp, x1, x2, grid, incs)
        assert res.state.shape == (40, 2)
        assert np.all(res.llr != 0.0)
        assert len(calls) == grid.n_steps


class TestOneLoop:
    """An SdeModel and the same dynamics as a SplitSdeModel with no
    noise-free block run the same loop, so they agree bit for bit."""

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_plain_equals_split_without_det_block(self, bootstrap):
        def drift(x, t):
            return np.sin(x[..., ::-1]) - 0.5 * x + t

        q = np.array([[0.5, 0.1], [0.1, 1.2]])
        l_mat = np.array([[1.0, 0.0], [0.4, 0.8]])
        plain = SdeModel(2, 2, drift, l_mat, q)
        split = SplitSdeModel(0, 2, 2, lambda s1, s2, t: s1,
                              lambda s1, s2, t: drift(s2, t), l_mat, q)
        if bootstrap:
            imps = prior_proposal(plain), prior_proposal(split)
        else:
            imps = (ImportanceSpec(lambda x, t: drift(x, t) + 0.3),
                    ImportanceSpec(lambda s1, s2, t: drift(s2, t) + 0.3))
        grid = TimeGrid(0.0, 1.0, 15)
        rng = np.random.default_rng(21)
        incs = sample_brownian_increments(grid, plain.diffusion, rng,
                                          n_paths=30)
        x0 = rng.normal(size=(30, 2))
        a = propagate_coupled(plain, imps[0], x0, grid, incs,
                              record_noise=True)
        b = propagate_coupled_split(split, imps[1], np.empty((30, 0)), x0,
                                    grid, incs, record_noise=True)
        assert np.all(a.llr == 0.0) == bootstrap
        for name in ("state", "llr", "model_noise"):
            _assert_same_bits(getattr(a, name), getattr(b, name))


class TestNonFiniteNaming:
    """Each step is screened by one sum per moved block (and Lambda when
    weighted); a failure names the first non-finite quantity, in the
    order the step reads them, at that step's time."""

    GRID = TimeGrid(0.0, 1.0, 8)

    @staticmethod
    def _nan_from_half(x, t):
        return -x if t < 0.5 else np.full(x.shape, np.nan)

    def _incs(self, model):
        return sample_brownian_increments(self.GRID, model.diffusion,
                                          np.random.default_rng(2),
                                          n_paths=10)

    def _propagate(self, model, imp):
        propagate_coupled(model, imp, np.zeros((10, 1)), self.GRID,
                          self._incs(model))

    def test_bootstrap_proposal_drift(self):
        model = SdeModel(1, 1, self._nan_from_half, 1.0, 0.5)
        with pytest.raises(IntegrationError, match=r"^proposal drift became "
                                                   r"non-finite at t=0\.5$"):
            self._propagate(model, prior_proposal(model))

    def test_weighted_target_drift_at_its_step(self):
        # Only Lambda reads the target drift here: the error names the
        # drift at its step, not Lambda at the interval's end.
        model = SdeModel(1, 1, self._nan_from_half, 1.0, 0.5)
        with pytest.raises(IntegrationError, match=r"^drift became "
                                                   r"non-finite at t=0\.5$"):
            self._propagate(model, ImportanceSpec(drift=lambda x, t: -x))

    def test_inf_drift_under_clipping_constrain(self):
        # np.clip maps the infinite step back into the box; the drift is
        # still named.
        model = SplitSdeModel(
            1, 1, 1,
            lambda s1, s2, t: -s1 if t < 0.25 else np.full(s1.shape, np.inf),
            lambda s1, s2, t: -s2, 1.0, 0.5,
            constrain=lambda s1, s2: (np.clip(s1, -1.0, 1.0),
                                      np.clip(s2, -1.0, 1.0)))
        with pytest.raises(IntegrationError, match=r"^drift became "
                                                   r"non-finite at t=0\.25$"):
            propagate_coupled_split(model, prior_proposal(model),
                                    np.zeros((10, 1)), np.zeros((10, 1)),
                                    self.GRID, self._incs(model))


class TestChainDensityRatio:
    def test_llr_equals_log_transition_density_ratio(self):
        # The accumulated ratio must equal the exact log
        # Radon-Nikodym derivative between the two Euler chains,
        # step by step along the realized path.
        q = 0.6
        model = SdeModel(1, 1, lambda x, t: np.sin(x) - 0.5 * x, 1.0, q)
        g = lambda x, t: np.cos(x)
        imp = ImportanceSpec(drift=g)
        grid = TimeGrid(0.0, 1.0, 25)
        rng = np.random.default_rng(21)
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=40)
        x0 = rng.normal(size=(40, 1))
        res = propagate_coupled(model, imp, x0, grid, incs)

        proposal_model = SdeModel(1, 1, g, 1.0, q)
        path = integrate_sde(proposal_model, x0, grid, incs)
        dt = grid.dt
        sd = np.sqrt(q * dt)
        manual = np.zeros(40)
        for j in range(grid.n_steps):
            x = path[j, :, 0]
            step = path[j + 1, :, 0] - x
            t = grid.t0 + j * dt
            log_p = norm.logpdf(step, loc=model.drift(x, t) * dt, scale=sd)
            log_q = norm.logpdf(step, loc=g(x, t) * dt, scale=sd)
            manual += log_p - log_q
        np.testing.assert_allclose(res.llr, manual, rtol=0, atol=1e-10)
        np.testing.assert_allclose(res.state[:, 0], path[-1, :, 0],
                                   rtol=0, atol=1e-12)


class TestMartingale:
    def test_scalar_weight_mean_is_one(self):
        model = SdeModel(1, 1, lambda x, t: np.sin(x), 1.0, 1.0)
        imp = ImportanceSpec(drift=lambda x, t: np.zeros_like(x))
        grid = TimeGrid(0.0, 1.0, 100)
        rng = np.random.default_rng(2026)
        n = 20000
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=n)
        res = propagate_coupled(model, imp, np.zeros((n, 1)), grid, incs)
        z = np.exp(res.llr)
        se = z.std(ddof=1) / np.sqrt(n)
        assert abs(z.mean() - 1.0) < 3.0 * se

    def test_two_dimensional_weight_mean_is_one(self):
        q = np.array([[0.5, 0.0], [0.0, 1.2]])

        def drift(x, t):
            return np.stack([-x[..., 1], np.tanh(x[..., 0])], axis=-1)

        model = SdeModel(2, 2, drift, np.eye(2), q)
        imp = ImportanceSpec(drift=lambda x, t: np.zeros_like(x))
        grid = TimeGrid(0.0, 1.0, 50)
        rng = np.random.default_rng(77)
        n = 20000
        incs = sample_brownian_increments(grid, model.diffusion, rng,
                                          n_paths=n)
        res = propagate_coupled(model, imp, np.zeros((n, 2)), grid, incs)
        z = np.exp(res.llr)
        se = z.std(ddof=1) / np.sqrt(n)
        assert abs(z.mean() - 1.0) < 3.0 * se


class TestDiscretizationError:
    def test_llr_error_halves_with_step(self):
        # f = -x against g = 0: aggregate one fine Brownian path onto
        # coarser grids; the Lambda error behaves like O(dt).
        q, t_end = 1.0, 1.0
        model = _ou_model(rate=1.0, q=q)
        imp = ImportanceSpec(drift=lambda x, t: np.zeros_like(x))
        rng = np.random.default_rng(14)
        n = 500
        fine_steps = 400
        fine = sample_brownian_increments(TimeGrid(0.0, t_end, fine_steps),
                                          model.diffusion, rng, n_paths=n)

        def lam_at(factor):
            steps = fine_steps // factor
            vals = fine.values.reshape(n, steps, factor, 1).sum(axis=2)
            grid = TimeGrid(0.0, t_end, steps)
            res = propagate_coupled(model, imp, np.ones((n, 1)), grid,
                                    BrownianIncrements(vals))
            return res.llr

        lam_ref = lam_at(1)
        err_coarse = lam_at(8) - lam_ref
        err_half = lam_at(4) - lam_ref
        ratio = np.sqrt(np.mean(err_coarse ** 2) / np.mean(err_half ** 2))
        assert 1.3 < ratio < 2.8


class TestEstimateKl:
    def test_constant_drift_closed_form_exact(self):
        # [DERIVED] KL = 0.5 (a - b)^2 T / sigma^2 = 0.5 * 1 * 2 / 1 = 1,
        # and the left Riemann sum of a constant integrand is exact.
        grid = TimeGrid(0.0, 2.0, 100)
        paths = np.zeros((8, 101, 1))
        val = estimate_kl(lambda x, t: np.ones_like(x),
                          lambda x, t: np.zeros_like(x),
                          1.0, paths, grid)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_matrix_sigma(self):
        # [DERIVED] delta = (1, 2), sigma = diag(1, 4):
        # KL = 0.5 (1 + 1) T = T = 0.5.
        grid = TimeGrid(0.0, 0.5, 10)
        paths = np.zeros((3, 11, 2))
        val = estimate_kl(
            lambda x, t: np.broadcast_to([1.0, 2.0], x.shape),
            lambda x, t: np.zeros_like(x),
            np.diag([1.0, 4.0]), paths, grid)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_rejects_mismatched_grid(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            estimate_kl(lambda x, t: x, lambda x, t: x, 1.0,
                        np.zeros((2, 5, 1)), grid)


class TestPriorProposal:
    def test_plain_model_uses_drift(self):
        model = _ou_model()
        imp = prior_proposal(model)
        x = np.array([[2.0]])
        np.testing.assert_array_equal(imp.drift(x, 0.0), model.drift(x, 0.0))

    def test_split_model_uses_stochastic_drift(self):
        model = SplitSdeModel(1, 1, 1,
                              lambda x1, x2, t: x2,
                              lambda x1, x2, t: -x1,
                              1.0, 1.0)
        imp = prior_proposal(model)
        assert imp.drift is model.drift_stoch
