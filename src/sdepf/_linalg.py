"""Small dense linear algebra helpers shared across modules.

All matrices here are tiny (state dimensions of a few), so clarity wins
over cleverness; everything supports an arbitrary number of leading batch
axes (typically the particle axis).
"""

import numpy as np

from .exceptions import SingularMatrixError

# Matrices whose condition number exceeds this are treated as singular.
COND_LIMIT = 1e12


def as_matrix(value, name="matrix"):
    """Coerce a scalar, 1-d or 2-d input to a float matrix.

    Scalars become 1x1 matrices, 1-d inputs become diagonal matrices,
    2-d inputs (rectangular allowed) pass through.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return np.diag(arr)
    if arr.ndim == 2:
        return arr
    raise ValueError("%s must be scalar, 1-d or 2-d, got shape %s"
                     % (name, arr.shape))


def as_square_matrix(value, name="matrix"):
    """Like as_matrix, but the result must be square."""
    arr = as_matrix(value, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("%s must be square, got shape %s" % (name, arr.shape))
    return arr


class TimeMatrix:
    """A matrix-valued function of time, possibly constant.

    Wraps either a constant array (scalar and 1-d inputs are promoted via
    as_square_matrix) or a callable t -> matrix.  Constant wrappers let
    callers hoist factorizations out of inner loops.
    """

    def __init__(self, value, name="matrix"):
        self.name = name
        if callable(value):
            self._fn = value
            self.constant = False
            self._value = None
        else:
            self._value = as_matrix(value, name)
            self._fn = None
            self.constant = True

    def at(self, t):
        if self.constant:
            return self._value
        out = np.asarray(self._fn(t), dtype=float)
        if out.ndim == 0:
            out = out.reshape(1, 1)
        return out


def mat_vec(mat, vec):
    """Batched matrix-vector product, mat (..., m, n) with vec (..., n)."""
    return mat_mul(mat, vec[..., None])[..., 0]


def mat_mul(a, b):
    """Batched matrix product a @ b.

    1x1 operands multiply elementwise, with the bits of np.matmul: that
    sums the product into a zero, so + 0.0 turns a -0 product into +0.
    Where both are NaN, np.matmul keeps a's NaN but an elementwise
    product keeps a broadcast operand's, so a broadcast b holding a NaN
    goes to np.matmul, as does every other shape.
    """
    if a.shape[-2:] == (1, 1) and b.shape[-2:] == (1, 1):
        out = a * b
        out += 0.0
        if out.size == b.size or not np.isnan(b).any():
            return out
    return np.matmul(a, b)


def quad_form(vec, mat):
    """Batched quadratic form vec^T mat vec over the last axis."""
    return np.sum(vec * mat_vec(mat, vec), axis=-1)


def symmetrize(mat):
    """Average a nearly-symmetric matrix with its transpose."""
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def guarded_inv(mat, name, t=None):
    """Invert a (batched) matrix after a condition-number check.

    Batches of 1x1 matrices skip the SVD and are exact: the condition
    number of [a] is 1 where a and 1 / a are finite and infinite
    otherwise, and 1.0 / a is the correctly rounded inverse LAPACK
    returns.  So they raise on the same inputs as the SVD path (0, +-inf,
    NaN and subnormals whose reciprocal overflows) and return the same
    bits.  Larger matrices keep the SVD check.

    Args:
        mat: array (..., n, n).
        name: label used in error messages.
        t: optional time reported in error messages.

    Returns:
        The inverse, same shape as mat.

    Raises:
        SingularMatrixError: if the matrix is singular or its condition
            number exceeds COND_LIMIT anywhere in the batch.  For 1x1
            batches the message names the first offending batch index
            and its value.
    """
    mat = np.asarray(mat)
    if mat.shape[-2:] == (1, 1):
        with np.errstate(all="ignore"):
            inv = 1.0 / mat
        bad = ~(np.isfinite(mat) & np.isfinite(inv))
        if np.any(bad):
            raise SingularMatrixError(_singular_1x1(mat, bad, name, t))
        return inv
    where = "" if t is None else " at t=%g" % t
    try:
        with np.errstate(all="ignore"):
            cond = np.linalg.cond(mat)
            inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("%s is singular%s" % (name, where))
    if not np.all(np.isfinite(inv)) or np.any(~np.isfinite(cond)) \
            or np.any(cond > COND_LIMIT):
        raise SingularMatrixError(
            "%s is singular or badly conditioned%s (cond=%s)"
            % (name, where, np.max(cond)))
    return inv


def _singular_1x1(mat, bad, name, t):
    """Error message naming the first offending entry of a 1x1 batch."""
    index = np.unravel_index(np.argmax(bad), bad.shape)[:-2]
    value = mat[index][0, 0]
    where = [] if t is None else ["t=%g" % t]
    if len(index) == 1:
        where.append("particle %d" % index[0])
    elif index:
        where.append("batch index %s" % (tuple(int(i) for i in index),))
    return "%s is singular%s (value %g%s)" % (
        name, " at " + ", ".join(where) if where else "", value,
        ", inverse overflows" if np.isfinite(value) and value != 0 else "")


def log_mvn_density(resid, cov, cov_inv=None):
    """Log density of N(0, cov) evaluated at resid, batched.

    Args:
        resid: residuals (..., m).
        cov: covariance (..., m, m).
        cov_inv: guarded_inv(cov) when the caller already has it.

    Returns:
        Log densities with shape (...,).
    """
    m = resid.shape[-1]
    sign, logdet = np.linalg.slogdet(cov)
    if np.any(sign <= 0):
        raise SingularMatrixError("covariance is not positive definite")
    if cov_inv is None:
        cov_inv = guarded_inv(cov, "covariance")
    maha = quad_form(resid, cov_inv)
    return -0.5 * (m * np.log(2.0 * np.pi) + logdet + maha)
