"""Real embeddings of complex matrices and dense kernel computation.

Everything downstream works on real vectors and matrices obtained from
complex ones through two embeddings: ``underline`` turns an m x n complex
matrix into a real vector of length 2mn, ``overline`` into a real 2m x 2n
matrix that multiplies like the original.
"""

import numpy as np


def vec(m):
    """Stack the columns of a matrix into one vector (column-major)."""
    return np.asarray(m).ravel(order="F")


def unvec(v, rows, cols):
    """Inverse of :func:`vec` for a known target shape."""
    return np.asarray(v).reshape((rows, cols), order="F")


def underline(p):
    """Map a complex m x n matrix to a real vector of length 2mn.

    The real and imaginary parts are stacked row-blockwise (Re above Im)
    and the resulting 2m x n matrix is vectorized column-major.
    """
    p = np.asarray(p, dtype=complex)
    if p.ndim != 2:
        p = np.atleast_2d(p)
    return vec(np.vstack([p.real, p.imag]))


def matrix_from_underline(v, rows, cols):
    """Recover the complex ``rows x cols`` matrix whose embedding is ``v``."""
    stacked = unvec(v, 2 * rows, cols)
    return stacked[:rows] + 1j * stacked[rows:]


def overline(a):
    """Map a complex m x n matrix to the real 2m x 2n block matrix

        [[Re a, -Im a],
         [Im a,  Re a]]

    which represents multiplication by ``a`` on underlined vectors.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        a = np.atleast_2d(a)
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def _check_tol(tol, name="tol"):
    """Raise ValueError unless ``tol`` is a finite number in (0, 1)."""
    if not 0 < tol < 1:     # also false for nan
        raise ValueError(f"{name} must be finite and in (0, 1), got {tol}")


def kernel(m, rel_tol=1e-9):
    """Orthonormal basis of the numerical kernel of a real matrix.

    Singular directions of one SVD whose singular value falls below
    ``rel_tol * sigma_max`` count as kernel; a wide matrix needs the full
    ``vh``, whose extra rows span the rest of the kernel. For the zero
    matrix the full identity basis is returned.

    Args:
        m: real matrix, shape (r, n).
        rel_tol: relative singular-value threshold in (0, 1).

    Returns:
        ``(basis, s)``: an (n, k) array with orthonormal columns spanning
        the kernel, and the singular values of ``m`` in descending order.
    """
    _check_tol(rel_tol, "rel_tol")
    m = np.atleast_2d(np.asarray(m, dtype=float))
    r, n = m.shape
    _, s, vh = np.linalg.svd(m, full_matrices=r < n)
    if not s.any():
        return np.eye(n), s
    rank = int(np.sum(s >= rel_tol * s[0]))
    return vh[rank:].T.copy(), s
