"""Monte Carlo census of ambiguity-space dimensions over antenna counts.

For a fixed code the dimension of the channel ambiguity space is almost
surely the same number for every channel draw, non-increasing in the
number of receive antennas, and beyond a critical antenna count the
space itself coincides with the channel-independent invariant space.
The census samples channels, tabulates the observed dimensions, and
locates that critical count. Disagreement between trials indicates a
tolerance bug, not bad luck, so it fails the run.
"""

import csv
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .estimator import _gaussian_channel
from .gamma import unit_gammas
from .subspace import _angles, _channel_bases, _orth_basis, compute_bstar

# Byte budget of the channel kernel matrices of one stacked pass. The
# census runs the trials at one antenna count in chunks of as many trials
# as fit, so its memory stays bounded for any trial or antenna count; the
# other arrays of a pass are a small multiple of these matrices.
CHUNK_BYTES = 1 << 22


class CensusError(RuntimeError):
    """Observed dimensions or spans violate the deterministic structure."""


@dataclass(frozen=True)
class CensusResult:
    """Census over M = 1..M_max with the critical antenna count.

    The per-trial results are two read-only (M_max, trials) arrays, 16 bytes
    per trial and M; row M - 1 holds the trials at M receive antennas."""

    code: str
    M_range: tuple
    trials: int
    seed: int
    tol: float
    d_mode: dict                # M -> the dimension every trial observed
    d_star: int
    M_star: object              # smallest matching M, or None if not found
    dims: np.ndarray = field(repr=False)     # int: each trial's dimension
    angles: np.ndarray = field(repr=False)   # max principal angle to B*, radians


def _chunk_trials(code, M):
    """Trials per stacked pass at M receive antennas, from CHUNK_BYTES."""
    matrix_bytes = 2 * code.L * code.K * M * code.K ** 2 * 8
    # Each trial also makes Python objects (its generator and channel array,
    # about 520 B) that the byte budget does not count; for tiny codes they
    # would dominate a pass, so a pass takes at most 1024 trials.
    return max(1, min(CHUNK_BYTES // matrix_bytes, 1024))


def find_mstar(code, M_max, trials, seed, tol=1e-9, angle_tol=1e-8):
    """Census M = 1..M_max and locate the critical antenna count.

    Trial t at M draws its channel from the stream
    ``np.random.default_rng([seed, M, t])``, so the results do not depend
    on how the trials are grouped. The trials at one M run as stacked
    passes of :func:`_chunk_trials` trials each: one SVD for the kernels
    of the whole chunk and one for each principal-angle step, with the
    checks and bits of :func:`compute_bspace` and
    :func:`principal_angles` for every trial. The passes fill the
    result's ``dims`` and ``angles`` arrays in place. A pass whose trials
    disagree on the dimension builds no bases and computes no angles:
    the check at the end of that M fails the run.

    The critical count is the smallest M at which every trial's subspace
    equals the invariant space (same dimension and all principal angles
    within ``angle_tol``). Raises :class:`CensusError` when the trials
    at one M disagree on the dimension (the message gives the observed
    histogram), or the dimension fails to be non-increasing, bounded below
    by the invariant dimension and equal to it at every M >= N: whether
    gamma(B) H = 0 depends on H only through its column space, almost
    surely all of C^N once M >= N, so there B(H) is the invariant space.
    """
    if M_max < 1:
        raise ValueError(f"M_max must be >= 1, got {M_max}")
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    bstar = compute_bstar(code, tol)
    unit = unit_gammas(code)
    qstar = _orth_basis(bstar.basis)
    m_range = tuple(range(1, M_max + 1))
    dims = np.empty((M_max, trials), dtype=int)
    angles = np.empty((M_max, trials))
    for M in m_range:
        chunk = _chunk_trials(code, M)
        for start in range(0, trials, chunk):
            stop = min(start + chunk, trials)
            rngs = (np.random.default_rng([seed, M, t])
                    for t in range(start, stop))
            H0 = np.stack([_gaussian_channel(code.N, M, rng) for rng in rngs])
            dims[M - 1, start:stop], bases = _channel_bases(code, unit, H0, tol)
            if bases is not None:
                angles[M - 1, start:stop] = _angles(bases, qstar).max(axis=-1)
        if (dims[M - 1] != dims[M - 1, 0]).any():
            hist = Counter(dims[M - 1].tolist())
            raise CensusError(
                f"{code.name} M={M}: observed dimensions {dict(hist)} are not "
                f"a single value; deterministic-dimension check failed")
    dims.flags.writeable = angles.flags.writeable = False
    d_mode = dict(zip(m_range, dims[:, 0].tolist()))
    matches = (dims[:, 0] == bstar.dim) & (angles <= angle_tol).all(axis=1)
    prev = None
    for M in m_range:
        if d_mode[M] < bstar.dim:
            raise CensusError(
                f"{code.name} M={M}: dimension {d_mode[M]} fell below the "
                f"invariant dimension {bstar.dim}")
        if prev is not None and d_mode[M] > prev:
            raise CensusError(
                f"{code.name}: modal dimension increased from {prev} to "
                f"{d_mode[M]} at M={M}")
        if prev is not None and prev > bstar.dim and d_mode[M] == prev:
            raise CensusError(
                f"{code.name}: modal dimension stalled at {prev} above the "
                f"invariant dimension {bstar.dim} between M={M - 1} and M={M}")
        prev = d_mode[M]
    for M in m_range[code.N - 1:]:
        if d_mode[M] != bstar.dim:
            raise CensusError(
                f"{code.name} M={M}: dimension {d_mode[M]} is not the "
                f"invariant dimension {bstar.dim} although M >= N={code.N}")
    m_star = next((M for M in m_range if matches[M - 1]), None)
    if m_star is not None:
        for M in m_range[m_star - 1:]:
            if not matches[M - 1]:
                raise CensusError(
                    f"{code.name} M={M}: subspace no longer matches the "
                    f"invariant space past M_star={m_star}")
    return CensusResult(code.name, m_range, trials, seed, tol, d_mode,
                        bstar.dim, m_star, dims, angles)


def write_census_csv(result, path):
    """Per-trial rows: code, M, trial, dim, max principal angle (radians)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["code", "M", "trial", "dim",
                         "max_principal_angle_to_bstar"])
        for M, dims, angles in zip(result.M_range, result.dims, result.angles):
            rows = enumerate(zip(dims.tolist(), angles.tolist()))
            writer.writerows([result.code, M, t, dim, repr(angle)]
                             for t, (dim, angle) in rows)


def census_summary(result):
    """JSON-ready summary with the per-M modal dimensions."""
    return {
        "code": result.code,
        "trials": result.trials,
        "seed": result.seed,
        "tol": result.tol,
        "d_star": result.d_star,
        "M_star": result.M_star,
        "d_mode": {str(M): result.d_mode[M] for M in result.M_range},
    }
