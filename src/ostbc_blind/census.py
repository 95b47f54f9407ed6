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
import io
from collections import Counter
from itertools import chain

import numpy as np

from ._record import Record
from .embed import vec
from .estimator import (CHUNK_NUMBERS, _check_budget, _draw_bytes,
                        _gaussian_channel)
from .gamma import unit_gammas
from .subspace import RANK_TOL, SPAN_ANGLE_TOL, _channel_bases, compute_bstar

# Byte budget of the channel draws and kernel matrices of one stacked
# pass. The census runs the trials at one antenna count in chunks of as
# many trials as fit, so its memory stays bounded for any trial or antenna
# count; the other arrays of a pass are a small multiple of these.
CHUNK_BYTES = 1 << 22


class CensusError(RuntimeError):
    """Observed dimensions or spans violate the deterministic structure."""


class CensusResult(Record):
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
    M_star: object              # first M at dim B*, or None if not reached
    dims: np.ndarray            # int: each trial's dimension
    angles: np.ndarray          # largest principal angle of B* to B(H), radians

    _hidden = ("dims", "angles")


def _chunk_trials(code, M):
    """Trials per stacked pass at M receive antennas, from CHUNK_BYTES: a
    trial's channel draw and its 2LK min(M, N) x (1 + K(K-1)/2) kernel
    matrix, the images of the identity and of the skew units."""
    trial_bytes = (_draw_bytes(code.N, M) + 16 * code.L * code.K
                   * min(M, code.N) * (1 + code.K * (code.K - 1) // 2))
    # The budget does not count a trial's other arrays (singular values,
    # basis and angle work); for tiny codes they would dominate a pass, so
    # a pass takes at most 1024 trials.
    return max(1, min(CHUNK_BYTES // trial_bytes, 1024))


def find_mstar(code, M_max, trials, seed, tol=RANK_TOL):
    """Census M = 1..M_max and locate the critical antenna count.

    The channels at M come from one stream,
    ``np.random.default_rng([seed, M])``: each pass draws its trials'
    channels as one (chunk, 2, N, M) normal array, and trial t takes the
    t-th 2NM normals of the stream whatever the chunk sizes, so the
    results do not depend on how the trials are grouped. The trials at
    one M run as stacked passes of :func:`_chunk_trials` trials each, with
    two SVDs for the whole chunk: the kernels (past N, after one QR) and
    the containment residuals. Trial t has the dimension, checks and basis
    bits of :func:`compute_bspace` as if it ran alone on the t-th channel
    that :func:`draw_channel` draws from the stream. B* lies inside every
    B(H), so the trial's angle is arcsin of the largest singular value of
    Q* - Qa (Qa^T Q*), with Qa and Q* the kernel's own orthonormal bases
    of B(H) and B*: the largest principal angle between the two spans. A
    pass whose trials disagree on the dimension builds no bases and
    computes no angles: the check at the end of that M fails the run. The
    critical count M* is the first M at dim B*, where B(H) = B*.

    Raises ValueError, before any channel is drawn, when the result arrays
    (16 bytes per trial and M) and the draw of one channel at M_max exceed
    the budget of :func:`~.estimator._check_budget`; a pass holds more
    only up to a part that grows with neither. Raises :class:`CensusError`
    when the trials at one M disagree on the dimension (the message gives
    the observed histogram); when the dimension fails to be
    non-increasing, or to equal the invariant dimension at every M >= N
    (whether gamma(B) H = 0 depends on H only through its column space,
    almost surely all of C^N once M >= N); or when a trial's B(H) misses
    B* by more than :data:`SPAN_ANGLE_TOL` = 1e-8 rad (the message names
    the first such trial and its angle): a B(H) of lower dimension than
    B* misses it by pi/2.
    """
    if M_max < 1:
        raise ValueError(f"M_max must be >= 1, got {M_max}")
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    _check_budget(16 * trials * M_max + _draw_bytes(code.N, M_max),
                  f"--rx-max {M_max} --trials {trials}")
    bstar = compute_bstar(code, tol)
    unit = unit_gammas(code)
    qstar = vec(np.stack(bstar.basis)).T
    m_range = tuple(range(1, M_max + 1))
    dims = np.empty((M_max, trials), dtype=int)
    angles = np.empty((M_max, trials))
    for M in m_range:
        rng = np.random.default_rng([seed, M])
        chunk = _chunk_trials(code, M)
        for start in range(0, trials, chunk):
            stop = min(start + chunk, trials)
            H0 = _gaussian_channel(code.N, M, rng, stop - start)
            dims[M - 1, start:stop], bases = _channel_bases(code, unit, H0, tol)
            if bases is not None:
                qa = vec(bases).swapaxes(-1, -2)
                resid = qstar - qa @ (qa.swapaxes(-1, -2) @ qstar)
                sines = np.linalg.svd(resid, compute_uv=False)[:, 0]
                angles[M - 1, start:stop] = np.arcsin(np.minimum(sines, 1.0))
        if dims[M - 1].min() != dims[M - 1].max():
            hist = Counter(dims[M - 1].tolist())
            raise CensusError(
                f"{code.name} M={M}: observed dimensions {dict(hist)} are not "
                f"a single value; deterministic-dimension check failed")
    dims.flags.writeable = angles.flags.writeable = False
    d_mode = dict(zip(m_range, dims[:, 0].tolist()))
    prev = None
    for M in m_range:
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
    within = angles.max(axis=1) <= SPAN_ANGLE_TOL   # a NaN reaches the max
    if not within.all():
        M = 1 + int(np.argmin(within))
        t = int(np.argmin(angles[M - 1] <= SPAN_ANGLE_TOL))
        raise CensusError(
            f"{code.name} M={M} trial {t}: channel space misses the invariant "
            f"space by {angles[M - 1, t]:.3e} rad, above {SPAN_ANGLE_TOL:g}")
    m_star = next((M for M in m_range if d_mode[M] == bstar.dim), None)
    return CensusResult(code.name, m_range, trials, seed, tol, d_mode,
                        bstar.dim, m_star, dims, angles)


def write_census_csv(result, path):
    """Per-trial rows: code, M, trial, dim, max principal angle (radians).

    The bytes are those of ``csv.writer``: rows end in ``\\r\\n``, the code
    name is quoted as ``csv`` quotes it, and each angle is its ``repr``.
    The rows are written :data:`CHUNK_NUMBERS` trials at a time.
    """
    name = io.StringIO()
    csv.writer(name).writerow([result.code, ""])     # "<code>,\r\n"
    code = name.getvalue()[:-3].replace("%", "%%")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("code,M,trial,dim,max_principal_angle_to_bstar\r\n")
        for M, dims, angles in zip(result.M_range, result.dims, result.angles):
            row = f"{code},{M},%d,%d,%r\r\n"
            for start in range(0, len(dims), CHUNK_NUMBERS):
                part = slice(start, start + CHUNK_NUMBERS)
                trials = range(len(dims))[part]
                fh.write(row * len(trials) % tuple(chain.from_iterable(
                    zip(trials, dims[part].tolist(), angles[part].tolist()))))

