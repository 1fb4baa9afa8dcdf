"""The matrix guard (closed-form 1x1 batches against the SVD reference)
and the 1x1 products (elementwise against np.matmul, bit for bit)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import svd_guarded_inv
from sdepf._linalg import (guarded_inv, log_mvn_density, mat_mul, mat_vec,
                           quad_form)
from sdepf.exceptions import SingularMatrixError


def _smallest_invertible():
    """The smallest positive double whose reciprocal is finite."""
    with np.errstate(over="ignore", divide="ignore"):
        x = 1.0 / np.finfo(float).max
        while not np.isfinite(1.0 / x):
            x = np.nextafter(x, 1.0)
        while np.isfinite(1.0 / np.nextafter(x, 0.0)):
            x = np.nextafter(x, 0.0)
    return x


_OVERFLOW_EDGE = _smallest_invertible()
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0,
           5e-324, -5e-324, 1e-310, -1e-310, np.finfo(float).tiny,
           _OVERFLOW_EDGE, np.nextafter(_OVERFLOW_EDGE, 0.0),
           np.nextafter(_OVERFLOW_EDGE, 1.0), -_OVERFLOW_EDGE,
           np.finfo(float).max, -np.finfo(float).max, 1e308, -1e-308]

_entries = st.floats(allow_nan=True, allow_infinity=True,
                     allow_subnormal=True) | st.sampled_from(SPECIAL)
_shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=1,
                           max_side=6).map(lambda s: s + (1, 1))


def _outcome(fn, mat):
    """(exception type, None) if fn raises, else (None, result)."""
    try:
        return None, fn(mat)
    except Exception as exc:  # the type itself is compared
        return type(exc), None


def _assert_matches_reference(mat):
    want_exc, want = _outcome(svd_guarded_inv, mat)
    got_exc, got = _outcome(lambda m: guarded_inv(m, "m"), mat)
    assert got_exc is want_exc
    if want_exc is None:
        ref = np.linalg.inv(mat)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


class TestOneByOne:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, _shapes, elements=_entries,
                      fill=st.nothing()))
    def test_raises_and_inverts_like_svd_guard(self, mat):
        _assert_matches_reference(mat)

    @pytest.mark.parametrize("value", SPECIAL)
    def test_special_values(self, value):
        _assert_matches_reference(np.array([[value]]))
        _assert_matches_reference(np.array([[[1.0]], [[value]], [[2.0]]]))

    def test_raise_set(self):
        for value in (0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310,
                      np.nextafter(_OVERFLOW_EDGE, 0.0)):
            with pytest.raises(SingularMatrixError):
                guarded_inv(np.array([[value]]), "m")
        for value in (_OVERFLOW_EDGE, np.finfo(float).max, 1e-300, -3.0):
            assert guarded_inv(np.array([[value]]), "m")[0, 0] == 1.0 / value


class TestLargerMatrices:
    @staticmethod
    def _rotated(cond):
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        return rot @ np.diag([1.0, 1.0 / cond]) @ rot.T

    def test_condition_limit_still_applies(self):
        with pytest.raises(SingularMatrixError, match="badly conditioned"):
            guarded_inv(self._rotated(1e13), "m")
        good = self._rotated(1e11)
        assert np.linalg.cond(good) == pytest.approx(1e11, rel=1e-3)
        out = guarded_inv(good, "m")
        assert out.tobytes() == np.linalg.inv(good).tobytes()

    def test_one_bad_matrix_fails_the_batch(self):
        batch = np.stack([np.eye(2), self._rotated(1e13), np.eye(2)])
        with pytest.raises(SingularMatrixError):
            guarded_inv(batch, "m")

    def test_exactly_singular(self):
        with pytest.raises(SingularMatrixError):
            guarded_inv(np.ones((2, 2)), "m", 1.5)


class TestMessages:
    def test_names_matrix_particle_and_value(self):
        s_mat = np.ones((20, 1, 1))
        s_mat[17] = 0.0
        s_mat[18] = np.nan
        with pytest.raises(SingularMatrixError) as exc:
            guarded_inv(s_mat, "innovation covariance")
        assert str(exc.value) == ("innovation covariance is singular at "
                                  "particle 17 (value 0)")

    def test_names_time(self):
        with pytest.raises(SingularMatrixError) as exc:
            guarded_inv(np.array([[-np.inf]]), "diffusion Q", 0.5)
        assert str(exc.value) == "diffusion Q is singular at t=0.5 (value -inf)"

    def test_time_and_particle_and_overflow(self):
        mat = np.full((3, 1, 1), 2.0)
        mat[1] = 1e-310
        with pytest.raises(SingularMatrixError) as exc:
            guarded_inv(mat, "proposal dispersion B", 2.0)
        assert str(exc.value) == (
            "proposal dispersion B is singular at t=2, particle 1 "
            "(value 1e-310, inverse overflows)")

    def test_nested_batch_index(self):
        mat = np.ones((2, 3, 1, 1))
        mat[1, 2] = 0.0
        with pytest.raises(SingularMatrixError) as exc:
            guarded_inv(mat, "covariance")
        assert str(exc.value) == ("covariance is singular at batch index "
                                  "(1, 2) (value 0)")


def test_log_mvn_density_accepts_known_inverse():
    rng = np.random.default_rng(4)
    cov = rng.uniform(0.5, 2.0, size=(7, 1, 1))
    resid = rng.standard_normal((7, 1))
    own = log_mvn_density(resid, cov)
    given_inv = log_mvn_density(resid, cov, guarded_inv(cov, "covariance"))
    assert own.tobytes() == given_inv.tobytes()
    np.testing.assert_allclose(
        own, -0.5 * (np.log(2 * np.pi * cov[:, 0, 0])
                     + resid[:, 0] ** 2 / cov[:, 0, 0]), rtol=1e-14)


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# NaNs of both signs and several payloads: where both operands are NaN,
# np.matmul keeps the first one's.
NANS = [_nan(0x7FF8000000000001), _nan(0xFFF8000000000000),
        _nan(0x7FF4000000000000), _nan(0xFFFC0000DEADBEEF)]

# Operand shapes for a batch of n, as (a, b) in a @ b or (mat, vec).
MUL_SHAPES = {"batch@batch": lambda n: ((n, 1, 1), (n, 1, 1)),
              "one@batch": lambda n: ((1, 1), (n, 1, 1)),
              "batch@one": lambda n: ((n, 1, 1), (1, 1))}
VEC_SHAPES = {"one.batch": lambda n: ((1, 1), (n, 1)),
              "batch.batch": lambda n: ((n, 1, 1), (n, 1))}


def _operands(shapes):
    elements = _entries | st.sampled_from(NANS)
    return st.integers(1, 8).flatmap(lambda n: st.tuples(*(
        hnp.arrays(np.float64, shape, elements=elements, fill=st.nothing())
        for shape in shapes(n))))


def _matmul_vec(mat, vec):
    return np.matmul(mat, vec[..., None])[..., 0]


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestScalarProducts:
    @pytest.mark.parametrize("case", sorted(MUL_SHAPES))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mat_mul_matches_matmul(self, case, data):
        a, b = data.draw(_operands(MUL_SHAPES[case]))
        with np.errstate(all="ignore"):
            _assert_same_bits(mat_mul(a, b), np.matmul(a, b))

    @pytest.mark.parametrize("case", sorted(VEC_SHAPES))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mat_vec_and_quad_form_match_matmul(self, case, data):
        mat, vec = data.draw(_operands(VEC_SHAPES[case]))
        with np.errstate(all="ignore"):
            want = _matmul_vec(mat, vec)
            _assert_same_bits(mat_vec(mat, vec), want)
            _assert_same_bits(quad_form(vec, mat),
                              np.sum(vec * want, axis=-1))

    def test_all_pairs_of_special_values(self):
        vals = np.array(SPECIAL + NANS)
        a = np.repeat(vals, vals.size).reshape(-1, 1, 1)
        b = np.tile(vals, vals.size).reshape(-1, 1, 1)
        with np.errstate(all="ignore"):
            _assert_same_bits(mat_mul(a, b), np.matmul(a, b))
            _assert_same_bits(mat_vec(a, b[..., 0]), _matmul_vec(a, b[..., 0]))
            for value in vals:
                one = np.array([[value]])
                _assert_same_bits(mat_mul(one, b), np.matmul(one, b))
                _assert_same_bits(mat_mul(b, one), np.matmul(b, one))
                _assert_same_bits(mat_vec(one, b[..., 0]),
                                  _matmul_vec(one, b[..., 0]))

    @pytest.mark.parametrize("mat", [np.ones((1, 1)), np.ones((4, 1, 1))])
    def test_length_three_vector_raises_like_matmul(self, mat):
        vec = np.ones((4, 3))
        with pytest.raises(ValueError) as want:
            _matmul_vec(mat, vec)
        with pytest.raises(ValueError) as got:
            mat_vec(mat, vec)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("b", [np.ones((1, 3)), np.ones((3, 1)),
                                   np.ones((3, 1, 2))])
    def test_other_shapes_go_to_matmul(self, b):
        a = np.full((1, 1), 2.0)
        want_exc, want = _outcome(lambda m: np.matmul(a, m), b)
        got_exc, got = _outcome(lambda m: mat_mul(a, m), b)
        assert got_exc is want_exc
        if want_exc is None:
            _assert_same_bits(got, want)
