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


def _by_value(keys):
    """``[(value, indices)]`` for each distinct value of an integer array."""
    return [(v, np.flatnonzero(keys == v)) for v in sorted(set(keys.tolist()))]


def _kernels(m, rel_tol):
    """Kernel bases of a stack of real matrices, from one stacked SVD.

    ``m`` has shape (T, r, n). Each matrix's rank comes from its own
    singular values, so the bases can differ in width: they come back
    grouped by width as ``[(indices, bases)]``, ``bases`` of shape
    (G, n, k) with C-ordered slices, together with the (T, min(r, n))
    singular values. ``np.linalg.svd`` factors each matrix of a stack on
    its own, so every slice has the bits of a one-matrix call.
    """
    _check_tol(rel_tol, "rel_tol")
    r, n = m.shape[-2:]
    _, s, vh = np.linalg.svd(m, full_matrices=r < n)
    zero = ~s.any(axis=-1)
    rank = np.where(zero, 0, np.sum(s >= rel_tol * s[:, :1], axis=-1))
    vh[zero] = np.eye(n)
    groups = [(idx, np.ascontiguousarray(vh[idx, k:].swapaxes(-1, -2)))
              for k, idx in _by_value(rank)]
    return groups, s


def kernel(m, rel_tol=1e-9):
    """Orthonormal basis of the numerical kernel of a real matrix.

    Singular directions of one SVD whose singular value falls below
    ``rel_tol * sigma_max`` count as kernel; a wide matrix needs the full
    ``vh``, whose extra rows span the rest of the kernel. For the zero
    matrix the full identity basis is returned. This is the one-matrix
    case of the stacked kernel routine that the census runs on a whole
    stack of channel kernel matrices with one SVD call.

    Args:
        m: real matrix, shape (r, n).
        rel_tol: relative singular-value threshold in (0, 1).

    Returns:
        ``(basis, s)``: an (n, k) array with orthonormal columns spanning
        the kernel, and the singular values of ``m`` in descending order.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    [(_, basis)], s = _kernels(m[None], rel_tol)
    return basis[0], s[0]
