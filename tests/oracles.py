"""Independent reference implementations used only to cross-check tests.

These deliberately take different computational routes than the package:
the defining double sum and the factored product form for the ambiguity
blocks, explicit Kronecker products for the dense channel operators and
the channel lift, exact rational arithmetic (sympy) for kernel
dimensions, per-column loops for the assembled operators, scipy for
principal angles, a QR and an arcsine for the angle between a vector and
a subspace, one batch of draws for the Ky Fan sample check, and one
trial at a time for the census.
"""

import numpy as np

from ostbc_blind import (compute_bspace, compute_bstar, draw_channel,
                         lift_to_channel, overline, principal_angles,
                         random_stiefel)


def kron(a, b):
    """Kronecker (tensor) product of two real matrices."""
    return np.kron(np.asarray(a), np.asarray(b))


def dense_phi(rc):
    """The K dense operators Phi_k = I_M (x) overline(C_k), (K, 2ML, 2MN)."""
    return np.stack([kron(np.eye(rc.M), overline(c)) for c in rc.code.C])


def gamma_sums(code, B):
    """Ambiguity stack by the defining sums, one block k at a time.

    gamma_k(B) = (1/K) sum_{i,j} B[j,i] C_k C_i^H C_j - sum_l B[l,k] C_l.
    """
    B = np.asarray(B, dtype=float)
    C = code.C
    blocks = []
    for k in range(code.K):
        acc = np.zeros((code.L, code.N), dtype=complex)
        for i in range(code.K):
            for j in range(code.K):
                acc += B[j, i] * (C[k] @ C[i].conj().T @ C[j])
        acc /= code.K
        for l in range(code.K):
            acc -= B[l, k] * C[l]
        blocks.append(acc)
    return np.vstack(blocks)


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
    phi = np.vstack(dense_phi(rc))
    return phi.T @ np.kron(np.asarray(B).T, np.eye(two_ml)) @ phi @ h0 / rc.code.K


def rayleigh_dense(rc, R):
    """sum_k Phi_k^T R Phi_k through the dense operators, by einsum."""
    phi = dense_phi(rc)
    Q = np.einsum("kia,ij,kjb->ab", phi, R, phi, optimize=True)
    return (Q + Q.T) / 2


def lifted_basis(rc, channel, sub):
    """Orthonormal channel-side basis: normalized lifts of the B-basis,
    by a QR."""
    cols = []
    for b in sub.basis:
        h = lift_to_channel(rc, channel.h0, b)
        cols.append(h / np.linalg.norm(h))
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q


def vector_subspace_angle(v, q):
    """Angle (radians) between a vector and the span of orthonormal
    columns, as the arcsine of the residual norm."""
    v = v / np.linalg.norm(v)
    resid = v - q @ (q.T @ v)
    return float(np.arcsin(min(1.0, np.linalg.norm(resid))))


def build_A_dense(rc, h):
    """Columns Phi_k h through the dense operators."""
    return np.column_stack([p @ h for p in dense_phi(rc)])


def kyfan_traces_oneshot(spec, samples, seed):
    """Traces of all sampled Stiefel matrices drawn in one batch."""
    rng = np.random.default_rng(seed)
    batch = random_stiefel(rng, spec.m, spec.q, samples)
    return np.einsum("nac,ab,nbc->n", batch, spec.P, batch, optimize=True)


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


def census_records_per_trial(code, M_max, trials, seed, tol=1e-9):
    """Census ``(dims, angles)``, each (M_max, trials), by compute_bspace
    and principal_angles, one trial at a time, each channel from its own
    (seed, M, trial) stream."""
    bstar = compute_bstar(code, tol)
    dims = np.empty((M_max, trials), dtype=int)
    angles = np.empty((M_max, trials))
    for M in range(1, M_max + 1):
        for trial in range(trials):
            rng = np.random.default_rng([seed, M, trial])
            sub = compute_bspace(code, draw_channel(code.N, M, rng), tol)
            dims[M - 1, trial] = sub.dim
            angles[M - 1, trial] = np.max(principal_angles(sub.basis,
                                                           bstar.basis))
    return dims, angles


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
