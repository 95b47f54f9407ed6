"""Ambiguity subspaces, their channel lift, and Hurwitz-Radon structure.

Two spaces are computed per code: the channel-independent invariant space
(kernel of the full ambiguity map) and, for a concrete channel
realization, the generally larger channel space (kernel of the map
composed with the channel matrix). Both consist of matrices that are
orthogonal up to a positive constant, always contain the identity, and
carry a basis {I} + Hurwitz-Radon family.
"""

from dataclasses import dataclass, field

import numpy as np

from .embed import _check_tol, _kernels, vec
from .gamma import _channel_kernel_matrices, gamma_operator, unit_gammas
from .ostbc import _apply_phi


class SubspaceError(RuntimeError):
    """A computed subspace violates a structural guarantee."""


class AmbiguityStructureError(RuntimeError):
    """A subspace element breaks the orthogonal-up-to-constant structure."""


def rho(n):
    """Hurwitz-Radon function: n = 2^(4d+c) * odd maps to 2^c + 8d."""
    if n < 1:
        raise ValueError(f"rho is defined for positive integers, got {n}")
    a = 0
    while n % 2 == 0:
        n //= 2
        a += 1
    d, c = divmod(a, 4)
    return 2 ** c + 8 * d


@dataclass(frozen=True)
class AmbiguitySubspace:
    """Orthonormal basis of an ambiguity space of K x K matrices.

    The basis is orthonormal under the Frobenius inner product, with the
    normalized identity I/sqrt(K) always first; the signs of the other
    elements are fixed so their first significant entry (row-major scan)
    is positive.
    """

    code: object
    kind: str                      # "invariant" or "channel"
    M: object                      # receive antennas for kind="channel", else None
    dim: int
    basis: tuple = field(repr=False)   # K x K real matrices
    tol: float
    seed: object = None            # seed the channel was drawn from, if any

    @property
    def identifiable(self):
        """True when the space is trivial (spanned by the identity alone)."""
        return self.dim == 1


def _fix_sign(b):
    """Negate, in place, each K x K matrix of ``b`` (shape (..., K, K))
    whose first significant entry in a row-major scan is negative: the
    first entry above 1e-8 times the matrix's largest magnitude."""
    flat = b.reshape(*b.shape[:-2], b.shape[-2] * b.shape[-1])
    mag = np.abs(flat)
    first = np.argmax(mag > 1e-8 * mag.max(axis=-1, keepdims=True), axis=-1)
    negative = np.take_along_axis(flat, first[..., None], axis=-1) < 0
    np.negative(b, out=b, where=negative[..., None])
    return b


def _identity_first(span, K, resid_tol, error):
    """Identity-seeded Frobenius Gram-Schmidt of the columns of each span.

    ``span`` is a stack (T, K^2, dim); returns the (T, dim, K^2) stack of
    orthonormal rows, vec(I)/sqrt(K) first. Every inner product is a
    row-times-column matmul, which numpy hands to the same BLAS dot as
    ``u @ w`` on two vectors, so a stack gives the bits of its slices
    taken one at a time. A slice stops taking columns once it holds
    ``dim`` rows.
    """
    T, n, dim = span.shape
    u0 = vec(np.eye(K)) / np.sqrt(K)
    resid = np.linalg.norm(u0 - (span @ (u0 @ span)[..., None])[..., 0],
                           axis=-1)
    bad = np.flatnonzero(resid > resid_tol)
    if bad.size:
        raise error(f"identity not in the subspace span "
                    f"(residual {resid[bad[0]]:.3e})")
    taken = np.zeros((T, dim, n))
    taken[:, 0] = u0
    count = np.ones(T, dtype=int)
    rows = np.arange(T)
    for j in range(dim):
        if (count == dim).all():
            break
        w = span[:, :, j].copy()
        for _ in range(2):
            for i in range(count.max()):
                b = taken[:, i]
                c = (b[:, None, :] @ w[:, :, None])[:, 0]
                w = np.where((i < count)[:, None], w - c * b, w)
        nrm = np.sqrt(w[:, None, :] @ w[:, :, None])[:, 0, 0]
        accept = (nrm > 1e-6) & (count < dim)
        taken[rows[accept], count[accept]] = w[accept] / nrm[accept, None]
        count += accept
    if (count != dim).any():
        raise error("orthonormalization lost subspace directions")
    return taken


def _kernel_bases(ops, K, tol):
    """Ambiguity-space bases of a stack of operators acting on vec(B).

    ``ops`` has shape (T, r, K^2). One stacked SVD gives every kernel, and
    each operator's kernel dimension comes from its own singular values.
    Returns ``(dims, mats)``: the (T,) dimensions and the read-only
    (T, dim, K, K) stack of Frobenius-orthonormal bases, the normalized
    identity first and the others sign-fixed, or ``None`` when the
    dimensions differ. Every element must leave a residual of at most
    tol * max(sigma_max, 1) under its own operator; the first operator
    that breaks a check raises :class:`SubspaceError`.
    """
    dims, span, s = _kernels(ops, tol)
    if span is None:
        return dims, None
    taken = _identity_first(span, K, 1e-10, SubspaceError)
    mats = taken.reshape(len(dims), -1, K, K).swapaxes(-1, -2)
    _fix_sign(mats[:, 1:])
    scale = tol * np.maximum(s[:, 0], 1.0)
    residual = np.linalg.norm(ops @ taken.swapaxes(-1, -2), axis=-2)
    over = np.argwhere(residual > scale[:, None])
    if over.size:
        t, e = over[0]
        raise SubspaceError(
            f"basis element leaves kernel residual {residual[t, e]:.3e} "
            f"above tol*scale {scale[t]:.3e}")
    mats.flags.writeable = False
    return dims, mats


def _channel_bases(code, unit, H0, tol):
    """:func:`_kernel_bases` of a stack of channel matrices H0, (T, N, M).

    ``unit`` is the code's :func:`unit_gammas`, built once per code.
    """
    if H0.shape[-2] != code.N:
        raise ValueError(
            f"channel has {H0.shape[-2]} transmit antennas, "
            f"code {code.name!r} expects {code.N}")
    if not H0.any(axis=(-2, -1)).all():
        raise ValueError("zero channel matrix is rejected")
    return _kernel_bases(_channel_kernel_matrices(unit, H0), code.K, tol)


def _subspace(bases, code, tol, kind, M=None, seed=None):
    _, mats = bases
    return AmbiguitySubspace(code, kind, M, mats.shape[1], tuple(mats[0]), tol,
                             seed=seed)


def compute_bstar(code, tol=1e-9):
    """Channel-independent ambiguity space of a code.

    Kernel of the assembled ambiguity operator, reshaped to K x K
    matrices and normalized identity-first. Its dimension is 1 exactly
    when the code is identifiable from second-order statistics.
    """
    _check_tol(tol)
    ops = gamma_operator(code)[None]
    return _subspace(_kernel_bases(ops, code.K, tol), code, tol, "invariant")


def compute_bspace(code, channel, tol=1e-9, seed=None):
    """Ambiguity space of a concrete channel realization.

    Kernel of B -> underline(gamma(B) @ H0). Always contains the
    channel-independent space; equals it with probability one once the
    receive-antenna count reaches the code's critical value. This is the
    one-channel case of the stacked routine that the census runs on a
    chunk of channel draws at a time: one SVD for the whole stack, and
    the same checks and bits for every channel as here.
    """
    _check_tol(tol)
    bases = _channel_bases(code, unit_gammas(code), channel.H0[None], tol)
    return _subspace(bases, code, tol, "channel", M=channel.M, seed=seed)


def lift_to_channel(rc, h0, B):
    """Map an ambiguity matrix to its channel vector.

    Computes Phi^T ((B^T (x) I) / K) Phi h0 with Phi the stack of the
    Phi_k = I_M (x) overline(C_k), forming neither Kronecker product: the
    rows Phi_k h0 are mixed by B^T, and each mixed row goes back through
    Phi_k^T one receive antenna at a time before the K terms are summed.
    For B in the ambiguity space of h0 the lifted vector h satisfies
    A(h) = A(h0) B; restricted to that space the map is an isometry up to
    the factor |h0|/sqrt(K).
    """
    K = rc.code.K
    B = np.asarray(B, dtype=float)
    if B.shape != (K, K):
        raise ValueError(f"B has shape {B.shape}, expected ({K}, {K})")
    mixed = B.T @ _apply_phi(rc, h0)                    # (K, 2ML)
    per_antenna = mixed.reshape(K, rc.M, 2 * rc.code.L) @ rc.blocks
    return per_antenna.sum(axis=0).reshape(rc.channel_len) / K


@dataclass(frozen=True)
class HurwitzRadonBasis:
    """Identity plus an anticommuting family of skew square roots of -I."""

    identity: np.ndarray
    family: tuple
    max_skew_residual: float
    max_involution_residual: float
    max_anticommute_residual: float

    @property
    def family_size(self):
        return len(self.family)


def hr_basis(sub):
    """Extract the {identity} + Hurwitz-Radon basis from an ambiguity space.

    Gram-Schmidt within the span under the Frobenius inner product,
    seeded with the identity; every later element is rescaled to an
    orthogonal matrix. Raises :class:`AmbiguityStructureError` when a
    rescaled element is not orthogonal-up-to-constant within 1e-8, which
    signals a numerically corrupted subspace.
    """
    K = sub.code.K
    span = np.column_stack([vec(b) for b in sub.basis])
    [taken] = _identity_first(span[None], K, 1e-8, AmbiguityStructureError)
    family = []
    for w in taken[1:]:
        b = w.reshape((K, K), order="F")
        c = np.trace(b.T @ b) / K
        dev = np.linalg.norm(b.T @ b - c * np.eye(K))
        if dev > 1e-8 * max(c, 1e-300):
            raise AmbiguityStructureError(
                f"subspace element is not orthogonal up to a constant: "
                f"deviation {dev:.3e} at scale {c:.3e}")
        family.append(_fix_sign(b / np.sqrt(c)))
    if len(family) > rho(K) - 1:
        raise AmbiguityStructureError(
            f"family of {len(family)} exceeds the Hurwitz-Radon bound {rho(K) - 1}")
    skew = 0.0
    invol = 0.0
    anti = 0.0
    eye = np.eye(K)
    for i, a in enumerate(family):
        skew = max(skew, np.linalg.norm(a.T + a))
        invol = max(invol, np.linalg.norm(a @ a + eye))
        for b in family[i + 1:]:
            anti = max(anti, np.linalg.norm(a @ b + b @ a))
    return HurwitzRadonBasis(eye, tuple(family), float(skew), float(invol),
                             float(anti))


def check_pure_rotation(B, tol=1e-8):
    """Test whether B is a rotation up to a positive constant.

    Returns ``(c, is_rotation)`` with c = tr(B^T B)/K; the flag is true
    iff |B^T B - c I| <= tol * c and det(B) > 0.
    """
    B = np.asarray(B, dtype=float)
    if np.linalg.norm(B) == 0.0:
        raise ValueError("zero matrix is rejected")
    K = B.shape[0]
    c = float(np.trace(B.T @ B) / K)
    dev = np.linalg.norm(B.T @ B - c * np.eye(K))
    return c, bool(dev <= tol * c and np.linalg.det(B) > 0)


def _columns(bases):
    """Stack (T, dim, p, q) of matrix bases -> (T, p*q, dim) of their vecs."""
    b = np.asarray(bases, dtype=float)
    return b.swapaxes(-1, -2).reshape(*b.shape[:-2], -1).swapaxes(-1, -2)


def _orth(a):
    """Orthonormal bases of the column spaces of a stack (T, n, k).

    One stacked thin SVD, cut at the rank of the first slice; every stack
    here has one rank, either T = 1 or orthonormal bases of one dimension.
    Returns the (T, n, rank) stack.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = np.count_nonzero(s[0] > np.finfo(float).eps * max(a.shape[-2:])
                            * s[0, 0])
    # Each slice in Fortran order, as LAPACK returns it: that fixes the
    # BLAS kernels of the products below and so the last bits of the angles.
    return np.ascontiguousarray(u[..., :rank].swapaxes(-1, -2)).swapaxes(-1, -2)


def _angles(bases, qb):
    """Principal angles between the span of each basis of a stack and qb.

    ``bases`` is a stack (T, dim, p, q) of matrix bases and ``qb`` an
    orthonormal (p*q, kb) basis from :func:`_orth_basis`. One stacked SVD
    per step for the whole stack; returns the (T, min(dim, kb)) angles,
    each row as :func:`principal_angles` orders it.
    """
    qa = _orth(_columns(bases))
    cross = qa.swapaxes(-1, -2) @ qb
    sigma = np.linalg.svd(cross, compute_uv=False)
    if qa.shape[-1] >= qb.shape[-1]:
        resid = qb - qa @ cross
    else:
        resid = qa - qb @ cross.swapaxes(-1, -2)
    mu = np.arcsin(np.clip(np.linalg.svd(resid, compute_uv=False), -1.0, 1.0))
    return np.where(sigma ** 2 >= 0.5, mu,
                    np.arccos(np.clip(sigma[..., ::-1], -1.0, 1.0)))


def _orth_basis(basis):
    """Orthonormal (n, k) basis of the span of one sequence of matrices."""
    return _orth(_columns([basis]))[0]


def principal_angles(basis_a, basis_b):
    """Principal angles (radians) between the spans of two matrix bases.

    Follows Knyazev and Argentati (2002): cosines from the singular values
    of Qa^T Qb, and arcsines of the residual's singular values for angles
    below pi/4, where the cosine loses precision. Returned in descending
    order, as many as the smaller dimension. This is the one-pair case of
    the stacked angles that the census computes for a whole chunk of
    trials against the invariant space, with the same bits per pair.
    """
    return _angles([basis_a], _orth_basis(basis_b))[0]


def spans_match(basis_a, basis_b, angle_tol=1e-8):
    """True when both bases span the same space within an angular tolerance."""
    if len(basis_a) != len(basis_b):
        return False
    return float(np.max(principal_angles(basis_a, basis_b))) <= angle_tol


def subspace_report(sub, hr=None):
    """JSON-ready report for a computed ambiguity subspace."""
    if hr is None:
        hr = hr_basis(sub)
    return {
        "code": sub.code.name,
        "kind": sub.kind,
        "M": sub.M,
        "seed": sub.seed,
        "dim": sub.dim,
        "tol": sub.tol,
        "basis": [b.ravel(order="C").tolist() for b in sub.basis],
        "hr": {
            "family_size": hr.family_size,
            "max_skew_residual": hr.max_skew_residual,
            "max_anticommute_residual": hr.max_anticommute_residual,
        },
    }
