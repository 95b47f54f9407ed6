"""Ambiguity subspaces, their channel lift, and Hurwitz-Radon structure.

Two spaces are computed per code, both as the kernel of the map
B -> underline(gamma(B) H): for a concrete channel realization H, the
channel space B(H), and for H = I_N, the channel-independent invariant
space B* = B(I_N), which equals B(H) for every H whose columns span C^N
and lies inside every B(H). Both consist of matrices that are orthogonal
up to a positive constant, always contain the identity, and carry a
basis {I} + Hurwitz-Radon family. Each is span{I} plus the kernel of
the map on skew matrices (README), so the rank is decided on the
K(K-1)/2 skew units alone, and K = 1 has no rank decision.
"""

import numpy as np

from ._record import Record
from .embed import _check_tol, _kernels, vec
from .gamma import _channel_kernel_matrices, unit_gammas
from .ostbc import _phi_t, build_A

RANK_TOL = 1e-9        # default tol: the rank cut is tol * |H|_F
SPAN_ANGLE_TOL = 1e-8  # radians: spans this close in every angle are equal
# One cut per channel, max(tol, RESIDUAL_ROUNDING * K^2 * eps) * |H|_F,
# decides its rank on the skew block and bounds its kernel residuals. |H|_F
# is the largest singular value of the kernel matrix for every code with
# K >= 2 (README), scales with H and never cancels. Over 20000 channels per
# M = 1..N+1 on builtin, rotated and mixed codes, in units of
# K^2 * eps * |H|_F, the largest skew value to drop measured 1.24, the
# largest residual 4.0, the smallest kept value 1.5e11; past N, through
# the factor at M = N+1..N+3 and 64: 1.23, 4.0 and 1.5e13.
RESIDUAL_ROUNDING = 32


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


class AmbiguitySubspace(Record):
    """Orthonormal basis of an ambiguity space of K x K matrices.

    The basis is orthonormal under the Frobenius inner product, with the
    normalized identity I/sqrt(K) always first; the signs of the other
    elements are fixed so their first significant entry (row-major scan)
    is positive. :func:`hr_basis` checks this layout.
    """

    code: object
    kind: str                      # "invariant" or "channel"
    M: object                      # receive antennas for kind="channel", else None
    dim: int
    basis: tuple                   # K x K real matrices
    tol: float
    seed: object = None            # seed the channel was drawn from, if any

    _hidden = ("basis",)

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


def _channel_bases(code, unit, H0, tol):
    """Ambiguity-space bases of a stack of channel matrices H0, (T, N, M).

    ``unit`` is the code's :func:`unit_gammas`, built once per code. B(H)
    = span{I} + ker(A -> gamma(A) H on skew A) (README), so the kernel
    matrix holds the images of I/sqrt(K) and of each (E_ab - E_ba)/sqrt(2),
    a < b, and one stacked SVD of its skew columns decides each channel's
    rank (K = 1 has no skew column and no rank decision). Returns
    ``(dims, mats)``: the (T,) dimensions and the read-only (T, dim, K, K)
    stack of Frobenius-orthonormal bases, I/sqrt(K) first, then the skew
    kernel elements, sign-fixed; ``None`` when the dimensions differ.
    Each channel is first scaled exactly by the power of two that puts its
    largest real or imaginary part in [0.5, 1), so 2^j H gives the bits of
    H and nothing overflows. The cut max(tol, 32 K^2 eps) |H|_F of the
    scaled H decides its rank and bounds the residual of every basis
    element under the whole map B -> gamma(B) H; the first channel that
    breaks a check raises :class:`SubspaceError`. Past N antennas the
    kernel matrix is that of the N x N factor R^T of H = R^T Q^T (a
    stacked QR of H^T): Q^T has orthonormal rows, so both have the same
    kernel and singular values. H0 = I_N gives B*.
    """
    if H0.shape[-2] != code.N:
        raise ValueError(
            f"channel has {H0.shape[-2]} transmit antennas, "
            f"code {code.name!r} expects {code.N}")
    if not H0.any(axis=(-2, -1)).all():
        raise ValueError("zero channel matrix is rejected")
    parts = np.ascontiguousarray(H0, dtype=complex).view(float)
    scale = -np.frexp(np.abs(parts).max(axis=(-2, -1)))[1]
    H0 = np.ldexp(parts, scale[:, None, None]).view(complex)
    K = code.K
    cut = (max(tol, RESIDUAL_ROUNDING * K * K * np.finfo(float).eps)
           * np.linalg.norm(H0.reshape(len(H0), -1), axis=-1))
    if H0.shape[-1] > code.N:
        H0 = np.linalg.qr(H0.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
    skew = np.zeros((K * (K - 1) // 2, K, K))
    skew[(np.arange(len(skew)), *np.triu_indices(K, 1))] = np.sqrt(0.5)
    units = vec(np.concatenate([np.eye(K)[None] / np.sqrt(K),
                                skew - skew.swapaxes(-1, -2)]))
    ops = _channel_kernel_matrices(np.tensordot(units, unit, 1), H0)
    dims, span = _kernels(ops[..., 1:], cut)
    if span is None:
        return dims + 1, None
    # coordinates of each basis element in the units: e_1, then (0, span)
    coords = np.pad(span, ((0, 0), (1, 0), (1, 0)))
    coords[:, 0, 0] = 1.0
    mats = (coords.swapaxes(-1, -2) @ units).reshape(
        len(dims), -1, K, K).swapaxes(-1, -2)
    _fix_sign(mats[:, 1:])
    residual = np.linalg.norm(ops @ coords, axis=-2)
    over = np.argwhere(residual > cut[:, None])
    if over.size:
        t, e = over[0]
        raise SubspaceError(
            f"basis element leaves kernel residual {residual[t, e]:.3e} "
            f"above its bound {cut[t]:.3e}")
    mats.flags.writeable = False
    return dims + 1, mats


def _subspace(bases, code, tol, kind, M=None, seed=None):
    _, mats = bases
    return AmbiguitySubspace(code, kind, M, mats.shape[1], tuple(mats[0]), tol,
                             seed=seed)


def compute_bstar(code, tol=RANK_TOL):
    """Channel-independent ambiguity space B* of a code.

    Whether gamma(B) H = 0 depends on H only through the column space of
    H, so B* is the channel space B(I_N) of the identity channel, and
    equals B(H) for every H whose columns span C^N. It is computed
    through the same kernel route as :func:`compute_bspace`, normalized
    identity-first. Its dimension is 1 exactly when the code is
    identifiable from second-order statistics.
    """
    _check_tol(tol)
    bases = _channel_bases(code, unit_gammas(code), np.eye(code.N)[None], tol)
    return _subspace(bases, code, tol, "invariant")


def compute_bspace(code, channel, tol=RANK_TOL, seed=None):
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
    columns Phi_k h0 of A(h0) (:func:`build_A`) are mixed by B, and
    :func:`_phi_t` takes the mixed columns back through the Phi_k^T and
    sums them. For B in the ambiguity space of h0 the lifted vector h
    satisfies A(h) = A(h0) B; restricted to that space the map is an
    isometry up to the factor |h0|/sqrt(K).
    """
    K = rc.code.K
    B = np.asarray(B, dtype=float)
    if B.shape != (K, K):
        raise ValueError(f"B has shape {B.shape}, expected ({K}, {K})")
    return _phi_t(rc, build_A(rc, h0) @ B)[:, 0] / K


class HurwitzRadonBasis(Record):
    """The skew family that, with the identity, spans an ambiguity space."""

    family: tuple
    max_skew_residual: float
    max_involution_residual: float
    max_anticommute_residual: float

    @property
    def family_size(self):
        return len(self.family)


def hr_basis(sub):
    """Extract the {identity} + Hurwitz-Radon basis from an ambiguity space.

    Checks the layout of :class:`AmbiguitySubspace` as it is, without
    reordering or re-orthonormalizing: the Gram matrix of the basis
    vectors lies within 1e-8 of I, and the first element within 1e-8 of
    I/sqrt(K). Every later element B is rescaled by its own
    c = tr(B^T B)/K into an orthogonal matrix of the family, so the
    residuals are those of the basis as given. Raises
    :class:`AmbiguityStructureError` when either check fails, or when a
    rescaled element is not orthogonal-up-to-constant within 1e-8 or the
    family exceeds the Hurwitz-Radon bound: a corrupted subspace.
    """
    K = sub.code.K
    mats = np.asarray(sub.basis, dtype=float)
    v = vec(mats)
    dev = np.linalg.norm(v @ v.T - np.eye(len(v)))
    if dev > 1e-8:
        raise AmbiguityStructureError(
            f"basis is not orthonormal: Gram deviation {dev:.3e}")
    dev = np.linalg.norm(mats[0] - np.eye(K) / np.sqrt(K))
    if dev > 1e-8:
        raise AmbiguityStructureError(
            f"first basis element is not I/sqrt(K): deviation {dev:.3e}")
    family = []
    for b in mats[1:]:
        c = np.trace(b.T @ b) / K
        dev = np.linalg.norm(b.T @ b - c * np.eye(K))
        if dev > 1e-8 * max(c, 1e-300):
            raise AmbiguityStructureError(
                f"subspace element is not orthogonal up to a constant: "
                f"deviation {dev:.3e} at scale {c:.3e}")
        family.append(b / np.sqrt(c))
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
    return HurwitzRadonBasis(tuple(family), float(skew), float(invol),
                             float(anti))


def _orth_basis(basis):
    """Orthonormal (n, rank) basis of the span of a sequence of matrices:
    one thin SVD of their vectors, cut at singular values above
    eps * max(n, len(basis)) * sigma_max. Its one caller is
    :func:`principal_angles`, which takes bases of unknown shape; the
    bases that :func:`_channel_bases` returns are orthonormal already."""
    a = vec(basis).T
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = np.count_nonzero(s > np.finfo(float).eps * max(a.shape) * s[0])
    # Fortran order, as LAPACK returns it: that fixes the BLAS kernels of
    # the products in principal_angles and so the last bits of the angles.
    return np.asfortranarray(u[:, :rank])


def principal_angles(basis_a, basis_b):
    """Principal angles (radians) between the spans of two matrix bases.

    Follows Knyazev and Argentati (2002): cosines from the singular values
    of Qa^T Qb, and arcsines of the residual's singular values for angles
    below pi/4, where the cosine loses precision. Returned in descending
    order, as many as the smaller dimension. Each basis may be in any
    order and linearly dependent: both are orthonormalized first by
    :func:`_orth_basis`. The census measures its one angle per trial as
    the arcsine route alone (:func:`~.census.find_mstar`).
    """
    qa, qb = _orth_basis(basis_a), _orth_basis(basis_b)
    cross = qa.T @ qb
    sigma = np.linalg.svd(cross, compute_uv=False)
    if qa.shape[1] >= qb.shape[1]:
        resid = qb - qa @ cross
    else:
        resid = qa - qb @ cross.T
    mu = np.arcsin(np.clip(np.linalg.svd(resid, compute_uv=False), -1.0, 1.0))
    # sigma holds cosines in ascending angle order, mu angles in descending
    return np.where(sigma[::-1] ** 2 >= 0.5, mu,
                    np.arccos(np.clip(sigma[::-1], -1.0, 1.0)))


def spans_match(basis_a, basis_b):
    """True when both bases span the same space: equal lengths, and every
    principal angle at most :data:`SPAN_ANGLE_TOL` rad."""
    if len(basis_a) != len(basis_b):
        return False
    return float(np.max(principal_angles(basis_a, basis_b))) <= SPAN_ANGLE_TOL

