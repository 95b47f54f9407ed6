"""Real embeddings of complex matrices and dense kernel computation.

Everything downstream works on real vectors and matrices obtained from
complex ones through two embeddings: ``underline`` turns an m x n complex
matrix into a real vector of length 2mn, ``overline`` into a real 2m x 2n
matrix that multiplies like the original.
"""

import numpy as np


def vec(m):
    """Stack the columns of a matrix into one vector (column-major).

    A stack of matrices, shape (..., p, q), gives the stack of their
    vectors, shape (..., p*q).
    """
    m = np.asarray(m)
    return m.swapaxes(-1, -2).reshape(*m.shape[:-2], m.shape[-2] * m.shape[-1])


def underline(p):
    """Map a complex m x n matrix to a real vector of length 2mn.

    The real and imaginary parts are stacked row-blockwise (Re above Im)
    and the resulting 2m x n matrix is vectorized column-major. A stack,
    shape (..., m, n), gives the stack of its vectors, shape (..., 2mn).
    """
    p = np.asarray(p, dtype=complex)
    return vec(np.concatenate([p.real, p.imag], axis=-2))


def overline(a):
    """Map a complex m x n matrix to the real 2m x 2n block matrix

        [[Re a, -Im a],
         [Im a,  Re a]]

    which represents multiplication by ``a`` on underlined vectors.
    """
    a = np.asarray(a, dtype=complex)
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def _check_tol(tol):
    """Raise ValueError unless ``tol`` is a finite number in (0, 1)."""
    if not 0 < tol < 1:     # also false for nan
        raise ValueError(f"tol must be finite and in (0, 1), got {tol}")


def _kernels(m, cut):
    """Kernel bases of a stack of real matrices, from one stacked SVD.

    ``m`` has shape (T, r, n) and ``cut`` shape (T,). Matrix t keeps the
    singular values above cut[t], so an exactly zero matrix has rank 0
    and, as LAPACK returns it, the identity for its kernel basis. Returns
    ``(dims, bases)``: the (T,) kernel dimensions and the (T, n, k) stack
    of kernel bases with C-ordered slices when all T dimensions equal k,
    or ``None`` when they differ. ``np.linalg.svd`` factors each matrix of
    a stack on its own, so every slice has the bits of a one-matrix call.
    """
    r, n = m.shape[-2:]
    _, s, vh = np.linalg.svd(m, full_matrices=r < n)
    rank = np.sum(s > cut[:, None], axis=-1)
    if (rank != rank[0]).any():
        return n - rank, None
    return n - rank, np.ascontiguousarray(vh[:, rank[0]:].swapaxes(-1, -2))
