"""The bilinear ambiguity form and its matrix representation.

For a K x K real matrix B and a code with coefficient matrices C_k, the
block

    gamma_k(B) = (1/K) sum_{i,j} B[j,i] C_k C_i^H C_j  -  sum_l B[l,k] C_l

vanishes for every k exactly when B transports the code structure: B
belongs to the channel ambiguity space of a channel H precisely when the
stacked blocks annihilate H. One map is assembled as an explicit real
matrix, B -> underline(gamma(B) H), which turns every ambiguity-space
question into a kernel computation. gamma(I) = 0 and the traceless
symmetric B map isometrically (times |H|_F) onto images orthogonal to
the skew ones (README), so B(H) = span{I} + the map's kernel on skew
matrices. The invariant space is the case H = I_N: gamma(B) H = 0
depends on H only through its column space, so B* = B(I_N) = B(H) for
every H whose columns span C^N.
"""

import numpy as np

from .embed import underline


def unit_gammas(code):
    """Ambiguity blocks of all K^2 unit matrices, in vec(B) column order.

    Entry p of the returned (K^2, LK, N) array is the stacked gamma of
    E_{rs} with r = p % K, s = p // K (column-major positions of vec).
    For the unit matrix the sums collapse to

        gamma_k(E_rs) = (1/K) C_k (C_s^H C_r) - [s == k] C_r.
    """
    K, L, N = code.K, code.L, code.N
    C = np.stack(code.C)                        # (K, L, N)
    CH = C.conj().transpose(0, 2, 1)            # (K, N, L)
    d = CH[None] @ C[:, None]                   # d[r, s] = C_s^H C_r, (K, K, N, N)
    blocks = (C[None, None] @ d[:, :, None]) / K   # [r, s, k], (K, K, K, L, N)
    idx = np.arange(K)
    blocks[:, idx, idx] -= C[:, None]           # [r, s, s] -= C_r
    return blocks.transpose(1, 0, 2, 3, 4).reshape(K * K, L * K, N)


def _channel_kernel_matrices(gammas, H0):
    """Matrix of the map B -> underline(gamma(B) @ H0) on a set of B.

    ``gammas`` is a (P, LK, N) stack of blocks gamma(B_p), such as the
    code's :func:`unit_gammas`; column p is underline(gammas[p] @ H0), the
    image of B_p, so the shape is (2*L*K*M, P). A stack of channel
    matrices, shape (T, N, M), gives the stack of their matrices, shape
    (T, 2*L*K*M, P), with the bits of one matrix at a time.
    """
    return underline(gammas @ H0[..., None, :, :]).swapaxes(-1, -2)

