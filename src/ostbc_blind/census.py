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
class TrialRecord:
    code: str
    M: int
    trial: int
    dim: int
    max_angle_to_bstar: float   # radians; max principal angle to the invariant space


@dataclass(frozen=True)
class CensusResult:
    """Census over M = 1..M_max with the critical antenna count."""

    code: str
    M_range: tuple
    trials: int
    seed: int
    tol: float
    d_mode: dict                # M -> the dimension every trial observed
    d_star: int
    M_star: object              # smallest matching M, or None if not found
    records: tuple = field(repr=False)


def _chunk_trials(code, M):
    """Trials per stacked pass at M receive antennas, from CHUNK_BYTES."""
    matrix_bytes = 2 * code.L * code.K * M * code.K ** 2 * 8
    return max(1, CHUNK_BYTES // matrix_bytes)


def find_mstar(code, M_max, trials, seed, tol=1e-9, angle_tol=1e-8):
    """Census M = 1..M_max and locate the critical antenna count.

    Trial t at M draws its channel from the stream
    ``np.random.default_rng([seed, M, t])``, so the records do not depend
    on how the trials are grouped. The trials at one M run as stacked
    passes of :func:`_chunk_trials` trials each: one SVD for the kernels
    of the whole chunk and one for each principal-angle step, with the
    checks and bits of :func:`compute_bspace` and
    :func:`principal_angles` for every trial.

    The critical count is the smallest M at which every trial's subspace
    equals the invariant space (same dimension and all principal angles
    within ``angle_tol``). Raises :class:`CensusError` when the trials
    at one M disagree on the dimension (the message gives the observed
    histogram) or the dimension fails to be non-increasing and bounded
    below by the invariant dimension.
    """
    if M_max < 1:
        raise ValueError(f"M_max must be >= 1, got {M_max}")
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    bstar = compute_bstar(code, tol)
    unit = unit_gammas(code)
    qstar = _orth_basis(bstar.basis)
    m_range = tuple(range(1, M_max + 1))
    d_mode = {}
    all_records = []
    matches = {}
    for M in m_range:
        dims = np.empty(trials, dtype=int)
        angles = np.empty(trials)
        chunk = _chunk_trials(code, M)
        for start in range(0, trials, chunk):
            rngs = (np.random.default_rng([seed, M, t])
                    for t in range(start, min(start + chunk, trials)))
            H0 = np.stack([_gaussian_channel(code.N, M, rng) for rng in rngs])
            for idx, bases in _channel_bases(code, unit, H0, tol):
                dims[start + idx] = bases.shape[1]
                for i, ang in _angles(bases, qstar):
                    angles[start + idx[i]] = ang.max(axis=-1)
        records = [TrialRecord(code.name, M, t, dim, angle) for t, (dim, angle)
                   in enumerate(zip(dims.tolist(), angles.tolist()))]
        all_records.extend(records)
        hist = Counter(r.dim for r in records)
        if len(hist) != 1:
            raise CensusError(
                f"{code.name} M={M}: observed dimensions {dict(hist)} are not "
                f"a single value; deterministic-dimension check failed")
        d_mode[M] = records[0].dim
        matches[M] = (d_mode[M] == bstar.dim
                      and all(r.max_angle_to_bstar <= angle_tol for r in records))
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
    m_star = next((M for M in m_range if matches[M]), None)
    if m_star is not None:
        for M in m_range[m_star - 1:]:
            if not matches[M]:
                raise CensusError(
                    f"{code.name} M={M}: subspace no longer matches the "
                    f"invariant space past M_star={m_star}")
    return CensusResult(code.name, m_range, trials, seed, tol, d_mode,
                        bstar.dim, m_star, tuple(all_records))


def write_census_csv(result, path):
    """Per-trial rows: code, M, trial, dim, max principal angle (radians)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["code", "M", "trial", "dim",
                         "max_principal_angle_to_bstar"])
        for r in result.records:
            writer.writerow([r.code, r.M, r.trial, r.dim,
                             repr(r.max_angle_to_bstar)])


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
