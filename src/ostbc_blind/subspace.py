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

from .embed import _check_tol, kernel, vec
from .gamma import channel_kernel_matrix, gamma_operator
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


def _fix_sign(b, rel=1e-8):
    flat = b.ravel(order="C")
    first = flat[np.argmax(np.abs(flat) > rel * np.max(np.abs(flat)))]
    return -b if first < 0 else b


def _identity_first(span, K, resid_tol, error):
    """Identity-seeded Frobenius Gram-Schmidt of the columns of ``span``."""
    dim = span.shape[1]
    u0 = vec(np.eye(K)) / np.sqrt(K)
    resid = np.linalg.norm(u0 - span @ (span.T @ u0))
    if resid > resid_tol:
        raise error(f"identity not in the subspace span (residual {resid:.3e})")
    taken = [u0]
    for col in span.T:
        if len(taken) == dim:
            break
        w = col.copy()
        for _ in range(2):
            for b in taken:
                w -= (b @ w) * b
        nrm = np.linalg.norm(w)
        if nrm > 1e-6:
            taken.append(w / nrm)
    if len(taken) != dim:
        raise error("orthonormalization lost subspace directions")
    return taken


def _kernel_subspace(op, code, tol, kind, M=None, seed=None):
    vecs, s = kernel(op, tol)
    mats = [w.reshape((code.K, code.K), order="F")
            for w in _identity_first(vecs, code.K, 1e-10, SubspaceError)]
    basis = (mats[0], *map(_fix_sign, mats[1:]))
    scale = tol * max(s[0], 1.0)
    for b in basis:
        residual = np.linalg.norm(op @ vec(b))
        if residual > scale:
            raise SubspaceError(
                f"basis element leaves kernel residual {residual:.3e} "
                f"above tol*scale {scale:.3e}")
        b.setflags(write=False)
    return AmbiguitySubspace(code, kind, M, len(basis), basis, tol, seed=seed)


def compute_bstar(code, tol=1e-9):
    """Channel-independent ambiguity space of a code.

    Kernel of the assembled ambiguity operator, reshaped to K x K
    matrices and normalized identity-first. Its dimension is 1 exactly
    when the code is identifiable from second-order statistics.
    """
    _check_tol(tol)
    return _kernel_subspace(gamma_operator(code), code, tol, "invariant")


def compute_bspace(code, channel, tol=1e-9, seed=None):
    """Ambiguity space of a concrete channel realization.

    Kernel of B -> underline(gamma(B) @ H0). Always contains the
    channel-independent space; equals it with probability one once the
    receive-antenna count reaches the code's critical value.
    """
    _check_tol(tol)
    if channel.H0.shape[0] != code.N:
        raise ValueError(
            f"channel has {channel.H0.shape[0]} transmit antennas, "
            f"code {code.name!r} expects {code.N}")
    if np.linalg.norm(channel.h0) == 0.0:
        raise ValueError("zero channel matrix is rejected")
    op = channel_kernel_matrix(code, channel.H0)
    return _kernel_subspace(op, code, tol, "channel", M=channel.M, seed=seed)


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
    taken = _identity_first(span, K, 1e-8, AmbiguityStructureError)
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


def _orth(a):
    """Orthonormal basis of the column space of ``a`` from a thin SVD."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cut = np.finfo(float).eps * max(a.shape) * s[0]
    # Fortran order, as LAPACK returns it, fixes the BLAS kernels of the
    # products below and so the last bits of the angles.
    return np.asfortranarray(u[:, :int(np.sum(s > cut))])


def principal_angles(basis_a, basis_b):
    """Principal angles (radians) between the spans of two matrix bases.

    Follows Knyazev and Argentati (2002): cosines from the singular values
    of Qa^T Qb, and arcsines of the residual's singular values for angles
    below pi/4, where the cosine loses precision. Returned in descending
    order, as many as the smaller dimension.
    """
    qa = _orth(np.column_stack([vec(b) for b in basis_a]))
    qb = _orth(np.column_stack([vec(b) for b in basis_b]))
    cross = qa.T @ qb
    sigma = np.linalg.svd(cross, compute_uv=False)
    if qa.shape[1] >= qb.shape[1]:
        resid = qb - qa @ cross
    else:
        resid = qa - qb @ cross.T
    mu = np.arcsin(np.clip(np.linalg.svd(resid, compute_uv=False), -1.0, 1.0))
    return np.where(sigma ** 2 >= 0.5, mu,
                    np.arccos(np.clip(sigma[::-1], -1.0, 1.0)))


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
