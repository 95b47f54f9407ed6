"""Simulated MIMO link and the closed-form relaxed blind channel estimator.

The received block in real coordinates is y = A(h0) s + w. The blind
estimator maximizes tr{A(h)^T R A(h)} / |h|^2 over channel vectors h,
which is a Rayleigh quotient: tr{A(h)^T R A(h)} = h^T Q h with
Q = sum_k Phi_k^T R Phi_k, so the maximizer is a top eigenvector of Q.
Q is never formed: block subspace iteration with Rayleigh-Ritz applies it
to a thin block straight from the K blocks overline(C_k) and R, one
receive antenna at a time (Phi_k = I_M (x) overline(C_k)), and stops once
the top Ritz pair has converged. For codes that are not identifiable the
top eigenspace is degenerate, and the unit vector that comes back is fixed
by the solver's constant start block.
The estimate is reported unit-norm; the residual scalar factor is not
resolved here, and all comparisons downstream are scale invariant.
"""

import numpy as np

from ._record import Record
from .embed import _check_tol
from .ostbc import ChannelRealization, _phi, _phi_t, build_A, realify
from .subspace import (MAX_BYTES, RANK_TOL, compute_bspace,
                       lift_to_channel, principal_angles)


class ConstellationModel(Record):
    """Second-order description of the symbol source E[s s^T] = Sigma."""

    kind: str                  # "iid-uniform-pm1", "gaussian", "correlated"
    Sigma: np.ndarray
    U: np.ndarray              # orthogonal eigenvectors of Sigma
    lambdas: np.ndarray        # positive eigenvalues of Sigma

    _hidden = ("Sigma", "U", "lambdas")

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


class SimulationConfig(Record):
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
        rows = 2 * self.M * self.code.L
        if rows * rows * 8 > MAX_BYTES:
            raise ValueError(f"{self.M} receive antennas need a {rows} x "
                             f"{rows} covariance of {rows * rows * 8} bytes, "
                             f"above the budget of {MAX_BYTES} bytes")
        if self.J * rows * 8 > MAX_BYTES:
            raise ValueError(f"{self.J} blocks need a {self.J} x {rows} array "
                             f"of received blocks of {self.J * rows * 8} "
                             f"bytes, above the budget of {MAX_BYTES} bytes")
        _check_noise_variance(self.sigma2)


def _check_noise_variance(sigma2):
    if not (np.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"noise variance must be finite and >= 0, got {sigma2}")


class EstimateReport(Record):
    """Output of the end-to-end blind estimation run."""

    h_hat: np.ndarray       # unit-norm channel estimate, (2MN,)
    s_hat: np.ndarray       # decoded symbol vectors, (J, K)
    B_hat: np.ndarray       # extracted ambiguity matrix, (K, K)
    residual: float         # | A(h_hat) - A(h0/|h0|) B_hat |
    subspace_angle: float   # radians between h_hat and the lifted span
    blocks: np.ndarray      # received blocks, (J, 2ML)

    _hidden = ("blocks",)


def draw_channel(N, M, rng):
    """Channel with i.i.d. complex Gaussian entries, unit variance per entry."""
    return ChannelRealization.from_matrix(_gaussian_channel(N, M, rng))


def _gaussian_channel(N, M, rng, count=None):
    """The complex (N, M) channel matrix that :func:`draw_channel` draws,
    or a (count, N, M) stack of ``count`` such draws, one after another.

    Each draw takes its 2NM normals from ``rng`` as a (2, N, M) array, the
    real parts first, so a stack of count draws holds the bits of count
    single draws however the draws are split into stacks.
    """
    _check_channel_draw(N, M)
    g = rng.standard_normal((2, N, M) if count is None else (count, 2, N, M))
    H0 = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    H0 *= np.sqrt(0.5)
    return H0


def _check_channel_draw(N, M):
    """Peak bytes of drawing one (N, M) channel, three arrays of 16 N M
    bytes; ValueError when M < 1 or they exceed the budget."""
    if M < 1:
        raise ValueError(f"receive-antenna count must be >= 1, got {M}")
    nbytes = 48 * N * M
    if nbytes > MAX_BYTES:
        raise ValueError(f"{M} receive antennas need {nbytes} bytes to draw "
                         f"a {N} x {M} channel, above the budget of "
                         f"{MAX_BYTES} bytes")
    return nbytes


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
    blocks = truth @ A.T
    scale = np.sqrt(config.sigma2 / 2)
    step = max(1, CHUNK_NUMBERS // rc.block_rows)
    for start in range(0, config.J, step):
        part = blocks[start:start + step]
        part += rng.normal(0.0, scale, size=part.shape)
    return blocks, truth, channel


#: Numbers per row chunk of the in-place noise pass of :func:`simulate`,
#: which holds one chunk beside its arrays. The name is shared with
#: ``_floattext.CHUNK_NUMBERS`` (8192), the value is not.
CHUNK_NUMBERS = 1 << 16


def sample_R(blocks):
    """Sample covariance R = (1/J) sum_i y_i y_i^T, a (2ML, 2ML) array.

    The blocks are made C-contiguous first, so that B^T B is one
    symmetric rank-k update that fills one triangle and mirrors it: R is
    symmetric bit for bit.
    """
    blocks = np.ascontiguousarray(np.atleast_2d(blocks), dtype=float)
    J = blocks.shape[0]
    if J < 1 or blocks.size == 0:
        raise ValueError("at least one received block is required")
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflow leaves R non-finite, which estimate_channel rejects
        R = blocks.T @ blocks
        R /= J
        return R


class ConvergenceError(RuntimeError):
    """The top eigenspace did not converge within :data:`MAX_STEPS` steps."""


#: Step limit of the subspace iteration in :func:`estimate_channel`. Steps
#: grow as theta_1 nears the noise: at sigma2 = 1e6 and J = 1e5 the builtin
#: codes take 500 to 1500 at M = 4 to 256, where the signal needs tens.
MAX_STEPS = 5000
#: The top Ritz pair (theta_1, u) is converged once |Q u - theta_1 u| is
#: at most this times theta_1.
RITZ_TOL = 1e-10


def _rayleigh_product(rc, R, V, exp=0):
    """2^exp Q V with Q = sum_k Phi_k^T R Phi_k, for a (2MN, p) block V.

    X = Phi V (:func:`_phi`) holds every Phi_k V as one (2ML, K*p) array;
    it is scaled in place by 2^exp, which is exact, one GEMM applies R to
    all of it, and :func:`_phi_t` sums the K terms Phi_k^T (R Phi_k V). No
    2MN x 2MN array is formed, and the GEMM costs (2ML)^2 K p.
    """
    X = _phi(rc, V)
    np.ldexp(X, exp, out=X)
    return _phi_t(rc, R @ X)


def _fix_vector_sign(v):
    pivot = int(np.argmax(np.abs(v)))
    return v if v[pivot] > 0 else -v


def estimate_channel(rc, R):
    """Unit-norm maximizer of tr{A(h)^T R A(h)} over normalized h.

    ``R`` is a symmetric positive semidefinite (2ML, 2ML) array, such as
    :func:`sample_R` or :func:`theoretical_R` returns. The criterion is the
    Rayleigh quotient of Q = sum_k Phi_k^T R Phi_k, and its maximizer is a
    top eigenvector of Q. Q is only applied to thin blocks, by
    :func:`_rayleigh_product`, and never formed.

    The solver is block subspace iteration with Rayleigh-Ritz on
    p = min(2MN, K^2 + 4) columns: the signal part of Q has rank at most
    K^2, so the block holds it and four more directions. The start block
    is Gaussian from a generator of its own seeded 0, so no simulation
    stream moves. Each step orthonormalizes the block (QR), applies Q once
    and takes the eigenpairs theta_1 >= ... >= theta_p of the p x p
    projection. It stops once the top pair (theta_1, u) has |Q u - theta_1
    u| <= ``RITZ_TOL`` * theta_1, and raises :class:`ConvergenceError` after
    ``MAX_STEPS`` steps. The next block is Q V - (theta_p / 2) V: Q is
    positive semidefinite, so the shift centres the spectrum below the
    block, [0, theta_p], on zero, and the top pair gains the factor
    (2 theta_1 - theta_p) / theta_p a step on it, not theta_1 / theta_p,
    which saves steps where theta_1 stands little above the noise. When
    p = 2MN the block is the whole space and one step is the dense solve.

    Every product is scaled by 2^-e, with e the binary exponent of the
    largest entry of |R|, and ``R`` itself is not copied; the scale is
    capped at 2^1000, so that a covariance of subnormal entries does not
    overflow the block. The iteration then works on numbers near 1 and
    overflows for no finite R. Powers of two scale exactly, so R and
    2^j R give the same bits as long as the scaled products stay normal
    numbers.

    Returns the unit top Ritz vector, its largest-magnitude entry made
    positive. The top eigenvalue's multiplicity equals the dimension of the
    channel's ambiguity space, so it is degenerate by structure whenever
    the code is not identifiable; for the builtin codes at every M it is 4
    for alamouti, 2 for alamouti-k2 and real2, 1 for alamouti-k3 and
    scalar. Which unit vector of a degenerate eigenspace comes back is then
    fixed by the start block and the shift; the ambiguity residual and the
    subspace angle do not depend on it.
    """
    R = np.asarray(R, dtype=float)
    if not np.isfinite(R).all():
        raise ValueError("covariance has non-finite entries")
    exp = min(-np.frexp(max(R.max(), -R.min()))[1], 1000)
    n = rc.channel_len
    p = min(n, rc.code.K ** 2 + 4)
    V = np.linalg.qr(np.random.default_rng(0).standard_normal((n, p)))[0]
    for _ in range(MAX_STEPS):
        QV = _rayleigh_product(rc, R, V, exp)
        H = V.T @ QV
        H = (H + H.T) / 2
        theta, S = np.linalg.eigh(H)
        top = S[:, -1]
        u = V @ top
        resid = np.linalg.norm(QV @ top - theta[-1] * u)
        if resid <= RITZ_TOL * abs(theta[-1]):
            return _fix_vector_sign(u / np.linalg.norm(u))
        QV -= (theta[0] / 2) * V
        V = np.linalg.qr(QV)[0]
        del QV   # only V is held across the next product, the peak
    raise ConvergenceError(
        f"top eigenspace did not converge in {MAX_STEPS} subspace-iteration "
        f"steps: Ritz residual {resid:.3e} above "
        f"{RITZ_TOL:g} * {abs(theta[-1]):.3e}")


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


def run_estimate(config, tol=RANK_TOL):
    """Full pipeline: simulate, estimate, decode, extract the ambiguity."""
    _check_tol(tol)
    blocks, truth, channel = simulate(config)
    del truth   # from here only blocks and s_hat grow with J
    rc = realify(config.code, config.M)
    h_hat = estimate_channel(rc, sample_R(blocks))
    s_hat = decode(rc, h_hat, blocks)
    h0 = channel.h0
    B_hat, residual = ambiguity_matrix(rc, h0, h_hat)
    sub = compute_bspace(config.code, channel, tol, seed=config.seed)
    lifts = [lift_to_channel(rc, h0, b)[:, None] for b in sub.basis]
    [angle] = principal_angles([h_hat[:, None]], lifts)
    return EstimateReport(h_hat, s_hat, B_hat, residual, float(angle), blocks)
