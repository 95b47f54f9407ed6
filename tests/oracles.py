"""Independent reference implementations used only to cross-check tests.

These deliberately take different computational routes than the package:
the factored product form for the ambiguity blocks, explicit Kronecker
products for the channel lift, exact rational arithmetic (sympy) for
kernel dimensions, per-column loops for the assembled operators, and scipy
for principal angles.
"""

import numpy as np


def gamma_factored(code, B):
    """Ambiguity stack via the factored product form.

    ((1/K) Cs Cs^H - I) (B^T (x) I_L) Cs  with  Cs = vstack(C_k).
    """
    B = np.asarray(B, dtype=float)
    cs = np.vstack(code.C)                        # (LK, N)
    csh = np.hstack([c.conj().T for c in code.C])  # (N, LK)
    lk = code.L * code.K
    left = cs @ csh / code.K - np.eye(lk)
    return left @ np.kron(B.T, np.eye(code.L)) @ cs


def lift_kron(rc, h0, B):
    """Channel lift via the explicit Kronecker product."""
    two_ml = rc.block_rows
    phi = rc.Phi_stacked
    return phi.T @ np.kron(np.asarray(B).T, np.eye(two_ml)) @ phi @ h0 / rc.code.K


def unit_gammas_loop(code):
    """Unit-matrix ambiguity stacks, one unit matrix E_rs at a time."""
    K, L, N = code.K, code.L, code.N
    C = np.stack(code.C)
    out = np.empty((K * K, L * K, N), dtype=complex)
    for p in range(K * K):
        r, s = p % K, p // K
        blocks = (C @ (C[s].conj().T @ C[r])) / K
        blocks[s] -= C[r]
        out[p] = blocks.reshape(L * K, N)
    return out


def scipy_principal_angles(basis_a, basis_b):
    """Principal angles between the spans of two matrix bases, by scipy."""
    from scipy.linalg import subspace_angles

    qa = np.column_stack([np.ravel(b, order="F") for b in basis_a])
    qb = np.column_stack([np.ravel(b, order="F") for b in basis_b])
    return subspace_angles(qa, qb)


def _sympy_code(code):
    import sympy as sp

    mats = []
    for c in code.C:
        mats.append(sp.Matrix(code.L, code.N,
                              lambda r, s, c=c: sp.Rational(int(c[r, s].real))
                              + sp.I * sp.Rational(int(c[r, s].imag))))
    return mats


def _sympy_gamma_stack(code, B):
    import sympy as sp

    Cs = _sympy_code(code)
    K = code.K
    blocks = []
    for k in range(K):
        acc = sp.zeros(code.L, code.N)
        for i in range(K):
            for j in range(K):
                acc += B[j, i] * (Cs[k] * Cs[i].H * Cs[j])
        acc = acc / K
        for l in range(K):
            acc -= B[l, k] * Cs[l]
        blocks.append(acc)
    return sp.Matrix.vstack(*blocks)


def _unit(K, i, j):
    import sympy as sp

    B = sp.zeros(K, K)
    B[i, j] = 1
    return B


def exact_invariant_dim(code):
    """Kernel dimension of B -> ambiguity stack, over exact rationals."""
    import sympy as sp

    K = code.K
    cols = []
    for p in range(K * K):
        g = _sympy_gamma_stack(code, _unit(K, p % K, p // K))
        real = sp.Matrix.vstack(sp.re(g), sp.im(g))
        cols.append(real.reshape(real.rows * real.cols, 1))
    return K * K - sp.Matrix.hstack(*cols).rank()


def exact_channel_dim(code, seed, M):
    """Kernel dimension of B -> stack(B) @ H0 for a random rational H0."""
    import random

    import sympy as sp

    rnd = random.Random(seed)
    H0 = sp.Matrix(code.N, M, lambda r, s: sp.Rational(rnd.randint(-9, 9))
                   + sp.I * sp.Rational(rnd.randint(-9, 9)))
    K = code.K
    cols = []
    for p in range(K * K):
        g = _sympy_gamma_stack(code, _unit(K, p % K, p // K)) * H0
        real = sp.Matrix.vstack(sp.re(g), sp.im(g))
        cols.append(real.reshape(real.rows * real.cols, 1))
    return K * K - sp.Matrix.hstack(*cols).rank()
