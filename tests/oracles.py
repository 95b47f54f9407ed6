"""Independent reference implementations used only to cross-check tests.

These deliberately take different computational routes than the package:
the defining double sum and the factored product form for the ambiguity
blocks, explicit Kronecker products for the dense channel operators and
the channel lift, exact rational arithmetic (sympy) for kernel
dimensions, per-column loops for the assembled operators, 50-digit
arithmetic (mpmath) for principal angles, both routes of Knyazev and
Argentati for the census angle, a QR and an arcsine for the angle
between a vector and a subspace, dense eigenvalues for the
Davis-Kahan bound on the estimator's angle, a LAPACK QR for the orthonormal
Stiefel samples, one batch of draws for the Ky Fan sample check and for
the link noise, and one trial at a time for the census. It also holds the
tests' writer of code-definition files, a code with irrational entries,
a code whose channel space reaches the invariant space only at two
receive antennas, the transform that maps a code to an equivalent one
and a random draw of it, and four code files whose products are exact
only up to rounding.
"""

import numpy as np

from ostbc_blind import (OstbCode, build_A, builtin_code, compute_bspace,
                         compute_bstar, draw_channel, lift_to_channel,
                         overline, random_stiefel, realify, vec)


def kron(a, b):
    """Kronecker (tensor) product of two real matrices."""
    return np.kron(np.asarray(a), np.asarray(b))


def dense_phi(rc):
    """The K dense operators Phi_k = I_M (x) overline(C_k), (K, 2ML, 2MN)."""
    return np.stack([kron(np.eye(rc.M), overline(c)) for c in rc.code.C])


def rotated_alamouti(K):
    """The first K Alamouti matrices times the unitary W = [[1, i], [i, 1]]
    / sqrt(2): still an orthogonal code, with the ambiguity space of the
    unrotated one, but with entries outside {0, +-1, +-i}, so products with
    its blocks round."""
    w = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2)
    mats = builtin_code("alamouti").C[:K]
    return OstbCode(f"alamouti-k{K}-rotated", 2, 2, K, tuple(c @ w for c in mats))


def real4x3():
    """The first three columns of the real 4 x 4 orthogonal design
    (Tarokh, Jafarkhani and Calderbank, IEEE T-IT 1999).

    X(s) has rows [s1, s2, s3, s4], [-s2, s1, -s4, s3], [-s3, s4, s1, -s2]
    and [-s4, -s3, s2, s1], and C_k = X(e_k)[:, :3]: N = 3, L = 4, K = 4.
    Its invariant space is trivial, but the channel space of one receive
    antenna is 2-dimensional, so the critical antenna count is M* = 2.
    """
    def design(s1, s2, s3, s4):
        return np.array([[s1, s2, s3, s4], [-s2, s1, -s4, s3],
                         [-s3, s4, s1, -s2], [-s4, -s3, s2, s1]])

    return OstbCode("real4x3", 3, 4, 4,
                    tuple(design(*e)[:, :3] for e in np.eye(4)))


def transformed(code, U, V, O):
    """The code C'_k = U (sum_j O_jk C_j) V, for U (L x L) and V (N x N)
    unitary and O (K x K) real orthogonal: again an orthogonal code, with
    B*(C') = O^T B*(C) O and B_C'(H) = O^T B_C(VH) O."""
    mixed = np.einsum("jk,jln->kln", O, np.stack(code.C))
    return OstbCode(f"{code.name}-transformed", code.N, code.L, code.K,
                    tuple(U @ mixed @ V))


def random_transform(code, rng):
    """``code`` transformed by random U, V and O, with V and O."""
    def unitary(n):
        return orthonormal_qr(rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))

    U, V = unitary(code.L), unitary(code.N)
    O = orthonormal_qr(rng.standard_normal((code.K, code.K)))
    return transformed(code, U, V, O), V, O


# Two code files that pass validation although their products round. In
# P0_JSON, a K = 1 code, C^H C = I holds only to rounding (unit error
# 1.1e-16), so every channel kernel matrix is rounding noise. K2_MIXED_JSON
# is alamouti-k2 mixed by random U, V and O (unit error 1.2e-15).
P0_JSON = ('{"name":"p0","N":1,"L":1,"K":1,'
           '"C":[[[[0.9946128276123087,0.1036596505350456]]]]}')
K2_MIXED_JSON = (
    '{"name":"k2-mixed","N":2,"L":2,"K":2,"C":[[[[0.7882733437307758,'
    '0.09059027057762006],[0.30949338927777315,-0.5240537953622066]],'
    '[[0.554705717298186,-0.2504398243827878],[0.004003320223583757,'
    '0.7934515958689676]]],[[[0.6109947910887599,-0.22528006982744603],'
    '[-0.35041112905294264,0.673161419004971]],[[-0.7073888116230802,'
    '0.27483690543926326],[-0.2906283284010601,0.5827528801557846]]]]}')
# Two K = 1 code files that pass validation with unit errors 2.0e-13 and
# 8.0e-13: their channel kernel matrices are rounding noise above the
# floor 32 * eps * |H|_F but under the default cut 1e-9 * |H|_F.
K1_1E13_JSON = ('{"name":"k1-1e-13","N":1,"L":1,"K":1,'
                '"C":[[[[1.0000000000001,0.0]]]]}')
K1_4E13_JSON = ('{"name":"k1-4e-13","N":1,"L":1,"K":1,'
                '"C":[[[[1.0000000000004,0.0]]]]}')


def code_to_dict(code):
    """A code as the JSON definition structure that the code-file loader reads."""
    return {
        "name": code.name,
        "N": code.N,
        "L": code.L,
        "K": code.K,
        "C": [[[[float(e.real), float(e.imag)] for e in row] for row in c]
              for c in code.C],
    }


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


def theoretical_gap(Q, d):
    """delta = theta_d - theta_{d+1} of a symmetric Q, theta descending:
    the gap below its top-d eigenspace."""
    theta = np.linalg.eigvalsh(Q)[::-1]
    return theta[d - 1] - theta[d]


def davis_kahan_bound(rc, R_hat, R, d):
    """Yu, Wang and Samworth's sin-theta bound 2 |Q_hat - Q|_2 / delta
    (Biometrika 102, 2015) on the angle between a top eigenvector of
    Q_hat and the top-d eigenspace of Q, both formed by
    :func:`rayleigh_dense` from R_hat and R, and delta the
    :func:`theoretical_gap` of Q."""
    Q = rayleigh_dense(rc, R)
    error = np.linalg.norm(rayleigh_dense(rc, R_hat) - Q, 2)
    return 2 * error / theoretical_gap(Q, d)


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


def simulate_oneshot(config):
    """The link simulation with all the noise drawn in one batch."""
    rng = np.random.default_rng(config.seed)
    channel = draw_channel(config.code.N, config.M, rng)
    rc = realify(config.code, config.M)
    truth = config.constellation.draw(rng, config.J)
    noise = rng.normal(0.0, np.sqrt(config.sigma2 / 2),
                       size=(config.J, rc.block_rows))
    return truth @ build_A(rc, channel.h0).T + noise, truth, channel


def kyfan_traces_oneshot(spec, samples, seed):
    """Traces of all sampled Stiefel matrices drawn in one batch, by einsum."""
    rng = np.random.default_rng(seed)
    batch = random_stiefel(rng, spec.m, spec.q, samples)
    return np.einsum("nac,ab,nbc->n", batch, spec.P, batch, optimize=True)


def orthonormal_qr(a):
    """The Q factors of a stack (..., m, q) with a positive diagonal of R,
    by one stacked LAPACK QR."""
    Q, r = np.linalg.qr(a)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d = np.where(d == 0, 1.0, d)
    return Q * d[..., None, :]


def random_stiefel_qr(rng, m, q, n=None):
    """random_stiefel's draws, orthonormalized by a QR instead."""
    return orthonormal_qr(rng.standard_normal((m, q) if n is None
                                              else (n, m, q)))


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
    and the principal angles of its basis and B*'s as they are, one trial
    at a time; the trials at M take one draw_channel each, in turn, from
    the (seed, M) stream."""
    bstar = compute_bstar(code, tol)
    qstar = vec(np.stack(bstar.basis)).T
    dims = np.empty((M_max, trials), dtype=int)
    angles = np.empty((M_max, trials))
    for M in range(1, M_max + 1):
        rng = np.random.default_rng([seed, M])
        for trial in range(trials):
            sub = compute_bspace(code, draw_channel(code.N, M, rng), tol)
            dims[M - 1, trial] = sub.dim
            angles[M - 1, trial] = np.max(two_route_angles(
                vec(np.stack(sub.basis)).T[None], qstar))
    return dims, angles


def two_route_angles(qa, qb):
    """Principal angles between the span of each basis of a stack and qb,
    by both routes of Knyazev and Argentati (2002): arcsines of the
    residual's singular values below pi/4, arccosines of Qa^T qb's above.

    ``qa`` is a stack (T, n, ka) of orthonormal columns and ``qb`` an
    orthonormal (n, kb) basis, both taken as they are; returns the
    (T, min(ka, kb)) angles in descending order. Below pi/4 the largest
    is the census angle, bit for bit."""
    cross = qa.swapaxes(-1, -2) @ qb
    sigma = np.linalg.svd(cross, compute_uv=False)
    if qa.shape[-1] >= qb.shape[-1]:
        resid = qb - qa @ cross
    else:
        resid = qa - qb @ cross.swapaxes(-1, -2)
    mu = np.arcsin(np.clip(np.linalg.svd(resid, compute_uv=False), -1.0, 1.0))
    # sigma holds cosines in ascending angle order, mu angles in descending
    return np.where(sigma[..., ::-1] ** 2 >= 0.5, mu,
                    np.arccos(np.clip(sigma[..., ::-1], -1.0, 1.0)))


def mp_principal_angles(basis_a, basis_b, dps=50):
    """Principal angles between the spans of two matrix bases, in
    ``dps``-digit mpmath arithmetic: a QR of each basis, the SVD of
    Qa^T Qb, then arccosines. A basis element that depends on the ones
    before it leaves a diagonal entry of R at rounding level, and its Q
    column is dropped; the dependent elements must come last."""
    import mpmath

    def orth(basis):
        cols = np.column_stack([np.ravel(b, order="F") for b in basis])
        q, r = mpmath.qr(mpmath.matrix(cols.tolist()), mode="skinny")
        diag = [abs(r[j, j]) for j in range(r.cols)]
        keep = [j for j, d in enumerate(diag) if d > mpmath.mpf(10) ** (10 - dps)
                * max(diag)]
        return mpmath.matrix([[q[i, j] for j in keep] for i in range(q.rows)])

    with mpmath.workdps(dps):
        qa, qb = orth(basis_a), orth(basis_b)
        sigma = mpmath.svd_r(qa.T * qb, compute_uv=False)
        angles = [float(mpmath.acos(min(s, 1))) for s in sigma]
    return np.sort(angles)[::-1]


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
