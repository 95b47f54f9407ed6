"""Trace maximization of Q^T P Q over matrices with orthonormal columns.

For symmetric P and Q running over m x q matrices with orthonormal
columns, the maximum of tr{Q^T P Q} is the sum of the q largest
eigenvalues, and the maximizers are exactly the Q whose column space
contains every eigenspace strictly above the q-th eigenvalue and lies
inside the span of eigenvectors at or above it. This module evaluates
the maximum, tests the maximizer characterization, and stress-tests the
bound with random samples.
"""

import numpy as np

from ._record import Record


class KyFanError(RuntimeError):
    """A sampled or constructed matrix violated the trace bound/structure."""


class SpectrumSpec(Record):
    """Eigendecomposition of a symmetric matrix with boundary indices.

    ``q_minus`` counts eigenvalues strictly above the q-th one and
    ``q_plus`` counts those equal to it or above (ties resolved with the
    degeneracy tolerance ``degeneracy_tol``, 1e-8 times the largest
    eigenvalue magnitude), so ``0 <= q_minus < q <= q_plus <= m``.
    """

    P: np.ndarray
    q: int
    eigenvalues: np.ndarray     # descending
    eigenvectors: np.ndarray    # columns match eigenvalues
    q_minus: int
    q_plus: int
    degeneracy_tol: float

    _hidden = ("P", "eigenvalues", "eigenvectors")

    @property
    def m(self):
        return self.P.shape[0]

    @classmethod
    def from_matrix(cls, P, q):
        P = np.asarray(P, dtype=float)
        m = P.shape[0]
        if P.shape != (m, m):
            raise ValueError(f"P must be square, got shape {P.shape}")
        scale = np.linalg.norm(P)
        if np.linalg.norm(P - P.T) > 1e-12 * max(scale, 1.0):
            raise ValueError("P must be symmetric")
        if not 1 <= q <= m:
            raise ValueError(f"q must lie in [1, {m}], got {q}")
        lam, V = np.linalg.eigh((P + P.T) / 2)
        lam, V = lam[::-1].copy(), V[:, ::-1].copy()
        tol = 1e-8 * (np.max(np.abs(lam)) if m else 0.0)
        lam_q = lam[q - 1]
        q_minus = int(np.sum(lam > lam_q + tol))
        q_plus = int(np.sum(lam >= lam_q - tol))
        return cls(P, q, lam, V, q_minus, q_plus, float(tol))


def kyfan_value(spec):
    """Maximum of tr{Q^T P Q} over m x q matrices with orthonormal columns."""
    lam = spec.eigenvalues
    return float(np.sum(lam[:spec.q_minus])
                 + lam[spec.q - 1] * (spec.q - spec.q_minus))


def kyfan_membership(spec, Q, tol=1e-8):
    """Test whether Q's column space has the maximizer structure.

    True iff the column space contains the span of eigenvectors strictly
    above the boundary eigenvalue and is contained in the span of those
    at or above it, both within projection residual ``tol``.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (spec.m, spec.q):
        raise ValueError(f"Q has shape {Q.shape}, expected ({spec.m}, {spec.q})")
    if np.linalg.norm(Q.T @ Q - np.eye(spec.q)) > tol:
        raise ValueError("Q does not have orthonormal columns")
    V = spec.eigenvectors
    above = V[:, :spec.q_minus]
    at_or_above = V[:, :spec.q_plus]
    if above.shape[1]:
        res_contains = np.linalg.norm(above - Q @ (Q.T @ above), 2)
        if res_contains > tol:
            return False
    res_within = np.linalg.norm(Q - at_or_above @ (at_or_above.T @ Q), 2)
    return bool(res_within <= tol)


def _orthonormalize(x):
    """Orthonormalize, in place, the columns of every sample of a stack.

    ``x`` is a (q, m, n) stack: column c of sample i is ``x[c, :, i]``.
    Every step is an elementwise operation over the n samples, contiguous
    in memory, taken in a fixed order, so a sample's bits do not depend on
    the other samples of the stack; a stacked LAPACK QR or a BLAS product
    does not promise that. Classical Gram-Schmidt applied twice (Giraud,
    Langou, Rozloznik & van den Eshof, Numer. Math. 2005) leaves the
    columns orthonormal to machine precision: to rounding, they are the Q
    factor of a QR with a positive diagonal of R.
    """
    for c, col in enumerate(x):
        prev = x[:c]
        for _ in range(2 if c else 0):
            # sum() adds the m (or c) terms one at a time, elementwise
            r = sum((prev * col).transpose(1, 0, 2))      # (c, n)
            col -= sum(r[:, None] * prev)
        col /= np.sqrt(sum(col * col))
    return x


def random_stiefel(rng, m, q, n=None):
    """Orthonormalized Gaussian matrices: one (m, q) draw or a stack (n, m, q).

    The stack is a view of a (q, m, n) array orthonormalized by
    :func:`_orthonormalize`, so a draw's bits do not depend on the size
    of the stack it comes in.
    """
    if not 1 <= q <= m:
        raise ValueError(f"need 1 <= q <= m for orthonormal columns, "
                         f"got m={m}, q={q}")
    g = rng.standard_normal((1 if n is None else n, m, q))
    stack = _orthonormalize(g.transpose(2, 1, 0).copy()).transpose(2, 1, 0)
    return stack[0] if n is None else stack


def _traces(x, P):
    """tr{Q^T P Q} of every sample of a (q, m, n) stack, shape (n,).

    Elementwise over the samples in a fixed order, as in
    :func:`_orthonormalize`, so a trace's bits depend on its sample alone.
    """
    m = len(P)
    Px = [sum(P[a, b] * x[:, b] for b in range(m)) for a in range(m)]
    return sum(sum(x[:, a] * Px[a] for a in range(m)))


def construct_maximizer(spec, rng=None, rotate=False):
    """Build a maximizer from the eigenvector characterization.

    Takes all eigenvectors strictly above the boundary plus a
    (q - q_minus)-dimensional slice of the boundary eigenspace; with
    ``rng`` the slice and the optional right rotation are randomized.
    """
    V = spec.eigenvectors
    fixed = V[:, :spec.q_minus]
    boundary = V[:, spec.q_minus:spec.q_plus]
    width = spec.q - spec.q_minus
    if rng is None:
        slice_w = np.eye(boundary.shape[1])[:, :width]
    else:
        slice_w = random_stiefel(rng, boundary.shape[1], width)
    Q = np.column_stack([fixed, boundary @ slice_w])
    if rotate:
        if rng is None:
            raise ValueError("rotation requires an rng")
        B = random_stiefel(rng, spec.q, spec.q)
        Q = Q @ B
    return Q


class KyFanSampleReport(Record):
    """Outcome of a randomized check of the trace bound."""

    m: int
    q: int
    samples: int
    seed: int
    value: float
    bound: float
    max_trace: float
    n_near: int
    passed: bool


# Matrix entries per batch of the sample check (8192 draws of a 6 x 3
# check): bounds its memory whatever the sample count and matrix size.
SAMPLE_ENTRIES = 8192 * 18
# Largest sample count of the check. It bounds the number of draws, and
# memory only through the batches; it does not bound the time, which grows
# with m and q: 2**32 samples of m = 3, q = 1 took 4.6 minutes on a 2-core
# host, and of m = q = 60, at 3.3 ms a sample, would take about 160 days.
MAX_SAMPLES = 2 ** 32
# Samples whose trace lies this close to the maximum must be maximizers.
NEAR_TOL = 1e-9


def kyfan_sample_check(spec, samples, seed):
    """Sample random orthonormal-column matrices against the trace bound.

    Draws ``samples`` matrices, at most :data:`MAX_SAMPLES`, checks that
    no trace exceeds bound = value + 1e-12 |P|, and that every sample
    within :data:`NEAR_TOL` of the maximum passes :func:`kyfan_membership`.
    A sample whose trace lies d below the bound has a column space within
    sqrt(d / gap) of the maximizers', with gap the smaller eigen-gap at
    either side of the boundary cluster, so that residual plus a rounding
    slack of 1e-8 is its tolerance. Violations raise :class:`KyFanError`;
    the returned report carries the summary. The draws come from one
    random stream in batches of :data:`SAMPLE_ENTRIES` matrix entries, and
    each sample's matrix and trace depend on its own draws alone, so the
    result has the same bits for any batch size.
    """
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"sample count must be at most {MAX_SAMPLES} "
                         f"(2**32)")
    rng = np.random.default_rng(seed)
    value = kyfan_value(spec)
    bound = value + 1e-12 * np.linalg.norm(spec.P)
    lam = spec.eigenvalues
    gaps = [lam[spec.q_minus - 1] - lam[spec.q - 1]] if spec.q_minus else []
    if spec.q_plus < spec.m:
        gaps.append(lam[spec.q - 1] - lam[spec.q_plus])
    gap = min(gaps, default=np.inf)
    max_trace = -np.inf
    n_near = 0
    chunk = max(1, SAMPLE_ENTRIES // (spec.m * spec.q))
    for start in range(0, samples, chunk):
        batch = random_stiefel(rng, spec.m, spec.q,
                               min(chunk, samples - start))
        traces = _traces(batch.transpose(2, 1, 0), spec.P)
        max_trace = max(max_trace, float(np.max(traces)))
        if max_trace > bound:
            raise KyFanError(
                f"sampled trace {max_trace:.15e} exceeds bound {bound:.15e}")
        near = np.flatnonzero(traces >= value - NEAR_TOL)
        for idx in near:
            tol = np.sqrt((bound - traces[idx]) / gap) + 1e-8
            if not kyfan_membership(spec, batch[idx], tol):
                raise KyFanError(
                    f"sample {start + idx} is within {NEAR_TOL} of the maximum "
                    f"but fails the maximizer characterization at residual "
                    f"tolerance {tol:.3e}")
        n_near += int(near.size)
    return KyFanSampleReport(spec.m, spec.q, samples, seed, value, float(bound),
                             max_trace, n_near, True)
