"""Simulated MIMO link and the closed-form relaxed blind channel estimator.

The received block in real coordinates is y = A(h0) s + w. The blind
estimator maximizes tr{A(h)^T R A(h)} / |h|^2 over channel vectors h,
which is a Rayleigh quotient: tr{A(h)^T R A(h)} = h^T (sum_k Phi_k^T R
Phi_k) h, so the maximizer is the dominant eigenvector of that matrix.
Phi_k = I_M (x) overline(C_k) is applied one receive antenna at a time
and never formed.
The estimate is reported unit-norm; the residual scalar factor is not
resolved here, and all comparisons downstream are scale invariant.
"""

from dataclasses import dataclass, field

import numpy as np

from .embed import _check_tol
from .ostbc import ChannelRealization, build_A, realify
from .subspace import compute_bspace, lift_to_channel


@dataclass(frozen=True)
class ConstellationModel:
    """Second-order description of the symbol source E[s s^T] = Sigma."""

    kind: str                  # "iid-uniform-pm1", "gaussian", "correlated"
    Sigma: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)        # orthogonal eigenvectors of Sigma
    lambdas: np.ndarray = field(repr=False)  # positive eigenvalues of Sigma

    @classmethod
    def _from_sigma(cls, kind, sigma):
        sigma = np.asarray(sigma, dtype=float)
        sigma = (sigma + sigma.T) / 2
        lam, u = np.linalg.eigh(sigma)
        if np.min(lam) <= 0:
            raise ValueError("second-moment matrix must be positive definite")
        return cls(kind, sigma, u, lam)

    @classmethod
    def iid_pm1(cls, K):
        """Independent uniform +-1 symbols: Sigma = I."""
        return cls._from_sigma("iid-uniform-pm1", np.eye(K))

    @classmethod
    def gaussian(cls, K):
        """Independent standard normal symbols: Sigma = I."""
        return cls._from_sigma("gaussian", np.eye(K))

    @classmethod
    def correlated(cls, sigma):
        """Zero-mean Gaussian symbols with the given second moment."""
        return cls._from_sigma("correlated", sigma)

    def draw(self, rng, J):
        """Draw J symbol vectors, shape (J, K)."""
        K = self.Sigma.shape[0]
        if self.kind == "iid-uniform-pm1":
            return rng.integers(0, 2, size=(J, K)).astype(float) * 2.0 - 1.0
        z = rng.standard_normal((J, K))
        if self.kind == "gaussian":
            return z
        root = (self.U * np.sqrt(self.lambdas)) @ self.U.T
        return z @ root


@dataclass(frozen=True)
class SimulationConfig:
    """One reproducible link simulation: code, antennas, source, noise."""

    code: object
    M: int
    constellation: ConstellationModel
    J: int
    sigma2: float
    seed: int

    def __post_init__(self):
        if self.J < 1:
            raise ValueError(f"block count must be >= 1, got {self.J}")
        if self.M < 1:
            raise ValueError(f"receive-antenna count must be >= 1, got {self.M}")
        _check_noise_variance(self.sigma2)


def _check_noise_variance(sigma2):
    if not (np.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"noise variance must be finite and >= 0, got {sigma2}")


@dataclass(frozen=True)
class EstimateReport:
    """Output of the end-to-end blind estimation run."""

    h_hat: np.ndarray       # unit-norm channel estimate, (2MN,)
    s_hat: np.ndarray       # decoded symbol vectors, (J, K)
    B_hat: np.ndarray       # extracted ambiguity matrix, (K, K)
    residual: float         # | A(h_hat) - A(h0/|h0|) B_hat |
    subspace_angle: float   # radians between h_hat and the lifted span
    eigen_gap: float        # relative gap below the top Rayleigh eigenvalue
    blocks: np.ndarray = field(repr=False)   # received blocks, (J, 2ML)


def draw_channel(N, M, rng):
    """Channel with i.i.d. complex Gaussian entries, unit variance per entry."""
    return ChannelRealization.from_matrix(_gaussian_channel(N, M, rng))


def _gaussian_channel(N, M, rng):
    """The complex (N, M) channel matrix that :func:`draw_channel` draws."""
    if M < 1:
        raise ValueError(f"receive-antenna count must be >= 1, got {M}")
    H0 = (rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M)))
    H0 *= np.sqrt(0.5)
    return H0


def theoretical_R(rc, h0, cm, sigma2):
    """Exact covariance A(h0) Sigma A(h0)^T + (sigma2/2) I, symmetrised.

    Returns a (2ML, 2ML) array; ``sigma2`` must be finite and >= 0. Its
    spectrum is the diagonal of |h0|^2 Lambda_s + (sigma2/2) I plus the
    noise floor sigma2/2 with multiplicity 2ML - K; the columns of A(h0) U
    are the signal-space eigenvectors.
    """
    _check_noise_variance(sigma2)
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (rc.channel_len,):
        raise ValueError(f"channel vector has shape {h0.shape}, "
                         f"expected ({rc.channel_len},)")
    A = build_A(rc, h0)
    R = A @ cm.Sigma @ A.T + (sigma2 / 2) * np.eye(rc.block_rows)
    return (R + R.T) / 2


def predicted_eigenvalues(rc, h0, cm, sigma2):
    """The theoretical covariance spectrum as a sorted array of 2ML values."""
    n2 = float(np.dot(h0, h0))
    signal = n2 * cm.lambdas + sigma2 / 2
    floor = np.full(rc.block_rows - rc.code.K, sigma2 / 2)
    return np.sort(np.concatenate([signal, floor]))


def simulate(config):
    """Run one seeded link simulation.

    Returns ``(blocks, truth, channel)``: J received blocks (J, 2ML) with
    y_i = A(h0) s_i + w_i, the true symbol vectors (J, K), and the drawn
    channel realization. Noise is real Gaussian with variance sigma2/2
    per real dimension; the draw order (channel, symbols, noise) is fixed
    so identical seeds reproduce bit-identical outputs.
    """
    rng = np.random.default_rng(config.seed)
    channel = draw_channel(config.code.N, config.M, rng)
    rc = realify(config.code, config.M)
    A = build_A(rc, channel.h0)
    truth = config.constellation.draw(rng, config.J)
    noise = rng.normal(0.0, np.sqrt(config.sigma2 / 2),
                       size=(config.J, rc.block_rows))
    blocks = truth @ A.T + noise
    return blocks, truth, channel


def sample_R(blocks):
    """Sample covariance (1/J) sum_i y_i y_i^T, a symmetrised (2ML, 2ML) array."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
    J = blocks.shape[0]
    if J < 1 or blocks.size == 0:
        raise ValueError("at least one received block is required")
    R = blocks.T @ blocks / J
    return (R + R.T) / 2


def rayleigh_matrix(rc, R):
    """The 2MN x 2MN matrix sum_k Phi_k^T R Phi_k for a (2ML, 2ML) array R.

    Satisfies h^T Q h = tr{A(h)^T R A(h)} for every h, which reduces the
    trace maximization over normalized channel vectors to a symmetric
    eigenproblem. With Phi_k = I_M (x) overline(C_k), the (m, m') block of
    Q is the sum over k of c_k^T R_{mm'} c_k, where R_{mm'} is the 2L x 2L
    block of R between receive antennas m and m'. The terms are added in
    the order k = 0..K-1; for the builtin codes each c_k is a signed
    permutation, so every term is exact and only that order can move a bit.
    """
    M, two_l = rc.M, 2 * rc.code.L
    R = np.asarray(R, dtype=float).reshape(M, two_l, M * two_l)
    Q = np.zeros((rc.channel_len, rc.channel_len))
    for c in rc.blocks:
        Q += ((c.T @ R).reshape(-1, two_l) @ c).reshape(Q.shape)
    return (Q + Q.T) / 2


def _fix_vector_sign(v):
    pivot = int(np.argmax(np.abs(v)))
    return v if v[pivot] > 0 else -v


def estimate_channel(rc, R):
    """Unit-norm maximizer of tr{A(h)^T R A(h)} over normalized h.

    ``R`` is a (2ML, 2ML) covariance array, as :func:`sample_R` returns.
    Returns ``(h_hat, gap)``: a dominant eigenvector of the Rayleigh
    matrix and the relative gap between its two largest eigenvalues. The
    top eigenvalue's multiplicity equals the dimension of the channel's
    ambiguity space, so it is degenerate by structure whenever the code is
    not identifiable; for the builtin codes at every M it is 4 for
    alamouti, 2 for alamouti-k2 and real2, 1 for alamouti-k3 and scalar.
    Any unit vector of that eigenspace may then come back, and which one
    depends on the last bits of the matrix, so on the order in which
    :func:`rayleigh_matrix` sums its K terms; the ambiguity residual and
    the subspace angle do not. The returned vector's largest-magnitude
    entry is made positive for reproducibility.
    """
    w, vecs = np.linalg.eigh(rayleigh_matrix(rc, R))
    h = vecs[:, -1]
    gap = (w[-1] - w[-2]) / max(abs(w[-1]), 1e-300)
    return _fix_vector_sign(h / np.linalg.norm(h)), float(gap)


def decode(rc, h_hat, y):
    """Decode received block(s) with a channel estimate: A(h)^T y / |h|^2.

    Accepts a single block of shape (2ML,) or a batch (J, 2ML).
    """
    h_hat = np.asarray(h_hat, dtype=float)
    n2 = float(np.dot(h_hat, h_hat))
    if n2 == 0.0:
        raise ValueError("zero channel estimate is rejected")
    A = build_A(rc, h_hat)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return A.T @ y / n2
    return y @ A / n2


def ambiguity_matrix(rc, h0, h_hat):
    """Extract the ambiguity rotation between a true and estimated channel.

    With unit u = h/|h| the columns of A(u) are orthonormal, so
    B_hat = A(u0)^T A(u) solves A(u) = A(u0) B exactly whenever a solution
    exists; the returned residual | A(u) - A(u0) B_hat | measures how far
    the estimate is from the true ambiguity set.
    """
    h0 = np.asarray(h0, dtype=float)
    h_hat = np.asarray(h_hat, dtype=float)
    n0, n1 = np.linalg.norm(h0), np.linalg.norm(h_hat)
    if n0 == 0.0 or n1 == 0.0:
        raise ValueError("zero channel vector is rejected")
    A0 = build_A(rc, h0 / n0)
    A1 = build_A(rc, h_hat / n1)
    B_hat = A0.T @ A1
    residual = float(np.linalg.norm(A1 - A0 @ B_hat))
    return B_hat, residual


def lifted_basis(rc, channel, sub):
    """Orthonormal channel-side basis: normalized lifts of the B-basis."""
    cols = []
    for b in sub.basis:
        h = lift_to_channel(rc, channel.h0, b)
        cols.append(h / np.linalg.norm(h))
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q


def vector_subspace_angle(v, q):
    """Angle (radians) between a vector and the span of orthonormal columns."""
    v = v / np.linalg.norm(v)
    resid = v - q @ (q.T @ v)
    return float(np.arcsin(min(1.0, np.linalg.norm(resid))))


def run_estimate(config, tol=1e-9):
    """Full pipeline: simulate, estimate, decode, extract the ambiguity."""
    _check_tol(tol)
    blocks, _, channel = simulate(config)
    rc = realify(config.code, config.M)
    h_hat, gap = estimate_channel(rc, sample_R(blocks))
    s_hat = decode(rc, h_hat, blocks)
    B_hat, residual = ambiguity_matrix(rc, channel.h0, h_hat)
    sub = compute_bspace(config.code, channel, tol, seed=config.seed)
    q = lifted_basis(rc, channel, sub)
    angle = vector_subspace_angle(h_hat, q)
    return EstimateReport(h_hat, s_hat, B_hat, residual, angle, gap, blocks)
