"""Orthogonal space-time block codes: registry, validation, encoding.

A code is a family of K complex L x N coefficient matrices C_k whose
pairwise combinations satisfy

    C_k^H C_k = I_N                         (unit self-product)
    C_i^H C_j + C_j^H C_i = 0   for i != j  (anti-commuting pairs)

so that the encoded block X(s) = sum_k s_k C_k obeys
X(s)^H X(s) = |s|^2 I_N for every real symbol vector s.
"""

import functools
import json
import sys

import numpy as np

from ._record import Record
from .embed import _check_tol, overline, underline


# The one tolerance of code validation: the builtin registry, the file
# loader and the CLI's `codes validate` all check at this value.
VALIDATION_TOL = 1e-12


class CodeValidationError(ValueError):
    """Raised when a code fails the orthogonality constraints."""


class CodeFormatError(ValueError):
    """Raised when a code definition file cannot be parsed."""


class ValidationReport(Record):
    """Deviation report for the two orthogonality constraint families."""

    name: str
    max_unit_error: float   # worst |C_k^H C_k - I|
    max_pair_error: float   # worst |C_i^H C_j + C_j^H C_i|, i != j
    tol: float

    @property
    def passed(self):
        return self.max_unit_error <= self.tol and self.max_pair_error <= self.tol


class OstbCode(Record):
    """An orthogonal space-time block code over N antennas and L slots.

    ``C`` holds the K complex L x N coefficient matrices. Construction
    checks shapes only; orthogonality is checked by :func:`validate_code`
    and enforced by the registry and loader.
    """

    name: str
    N: int
    L: int
    K: int
    C: tuple

    _hidden = ("C",)

    def __post_init__(self):
        if min(self.N, self.L, self.K) < 1:
            raise CodeFormatError(
                f"code {self.name!r} needs N, L, K >= 1, "
                f"got N={self.N}, L={self.L}, K={self.K}")
        if self.K != len(self.C):
            raise CodeFormatError(
                f"code {self.name!r} declares K={self.K} but has {len(self.C)} matrices")
        mats = []
        for k, c in enumerate(self.C):
            c = np.asarray(c, dtype=complex)
            if c.shape != (self.L, self.N):
                raise CodeFormatError(
                    f"code {self.name!r}: matrix {k} has shape {c.shape}, "
                    f"expected ({self.L}, {self.N})")
            c.setflags(write=False)
            mats.append(c)
        object.__setattr__(self, "C", tuple(mats))


def _alamouti_matrices():
    i2 = np.eye(2)
    omega2 = np.diag([1.0, -1.0])
    omega4 = np.array([[0.0, 1.0], [1.0, 0.0]])
    c3 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return (i2 + 0j, 1j * omega2, c3 + 0j, 1j * omega4)


def _builtin_registry():
    alam = _alamouti_matrices()
    return {
        "alamouti": OstbCode("alamouti", 2, 2, 4, alam),
        "alamouti-k3": OstbCode("alamouti-k3", 2, 2, 3, alam[:3]),
        "alamouti-k2": OstbCode("alamouti-k2", 2, 2, 2, alam[:2]),
        "scalar": OstbCode("scalar", 1, 1, 1, (np.array([[1.0 + 0j]]),)),
        "real2": OstbCode("real2", 2, 2, 2,
                          (np.eye(2) + 0j,
                           np.array([[0.0, 1.0], [-1.0, 0.0]]) + 0j)),
    }


BUILTIN_CODE_NAMES = ("alamouti", "alamouti-k3", "alamouti-k2", "scalar", "real2")


def builtin_code(name):
    """Return a named builtin code; raises KeyError for unknown names."""
    if name not in BUILTIN_CODE_NAMES:
        raise KeyError(
            f"unknown code {name!r}; builtin codes: {', '.join(BUILTIN_CODE_NAMES)}")
    return _validated_builtin(name)


# Codes are frozen with read-only matrices, so every caller can share one.
@functools.lru_cache(maxsize=None)
def _validated_builtin(name):
    code = _builtin_registry()[name]
    report = validate_code(code, VALIDATION_TOL)
    if not report.passed:
        raise CodeValidationError(f"builtin code {name!r} failed validation: {report}")
    return code


def validate_code(code, tol):
    """Measure the worst constraint deviations of a code.

    Returns a :class:`ValidationReport`; it passes iff both the unit
    self-products and the anti-commuting pair sums deviate by at most
    ``tol`` in spectral norm; ``tol`` must be finite and in (0, 1). A
    code with a non-finite entry fails with both deviations infinite.
    """
    _check_tol(tol)
    if not all(np.isfinite(c).all() for c in code.C):
        return ValidationReport(code.name, np.inf, np.inf, tol)
    eye = np.eye(code.N)
    unit_err = 0.0
    pair_err = 0.0
    for i, ci in enumerate(code.C):
        unit_err = max(unit_err, np.linalg.norm(ci.conj().T @ ci - eye, 2))
        for cj in code.C[i + 1:]:
            cross = ci.conj().T @ cj + cj.conj().T @ ci
            pair_err = max(pair_err, np.linalg.norm(cross, 2))
    return ValidationReport(code.name, float(unit_err), float(pair_err), tol)


def encode(code, s):
    """Encode a length-K real symbol vector into the L x N block sum(s_k C_k)."""
    s = np.asarray(s, dtype=float)
    if s.shape != (code.K,):
        raise ValueError(f"symbol vector has shape {s.shape}, expected ({code.K},)")
    return np.tensordot(s, np.stack(code.C), axes=(0, 0))


class ChannelRealization(Record):
    """A channel matrix together with its real vector embedding."""

    M: int
    H0: np.ndarray          # complex (N, M)
    h0: np.ndarray          # real (2*M*N,), equals underline(H0)

    @classmethod
    def from_matrix(cls, H0):
        H0 = np.asarray(H0, dtype=complex)
        if H0.ndim != 2:
            raise ValueError("channel matrix must be 2-dimensional")
        h0 = underline(H0)
        if np.linalg.norm(h0) == 0.0:
            raise ValueError("zero channel matrix is rejected")
        H0 = H0.copy()
        H0.setflags(write=False)
        h0.setflags(write=False)
        return cls(H0.shape[1], H0, h0)


class RealifiedCode(Record):
    """A code paired with a receive-antenna count, in real coordinates.

    ``blocks[:, k]`` is the real 2L x 2N matrix overline(C_k); the
    (2L, K, 2N) layout makes ``blocks.reshape(-1, 2N)`` the stack of all K
    with rows ordered (row of C_k, k). The channel operator of the paper,
    Phi_k = I_M (x) overline(C_k), is never formed: every receive antenna
    owns 2N consecutive entries of the channel vector and 2L consecutive
    rows of a received block, and :func:`_phi` and its adjoint, the only
    products with Phi, apply the stack to each antenna alone. The storage
    does not grow with M. The Phi_k inherit the code's orthogonality:

        Phi_k^T Phi_k = I_{2MN},  Phi_i^T Phi_j + Phi_j^T Phi_i = 0 (i != j)
    """

    code: OstbCode
    M: int
    blocks: np.ndarray      # (2L, K, 2N), read-only

    _hidden = ("blocks",)

    @property
    def block_rows(self):
        """Rows of one received block in real coordinates (2ML)."""
        return 2 * self.M * self.code.L

    @property
    def channel_len(self):
        """Length of the real channel vector (2MN)."""
        return 2 * self.M * self.code.N


def realify(code, M):
    """Pair a code with M receive antennas: the K blocks overline(C_k)."""
    if M < 1:
        raise ValueError(f"receive-antenna count must be >= 1, got {M}")
    blocks = np.stack([overline(c) for c in code.C], axis=1)
    blocks.setflags(write=False)
    return RealifiedCode(code, M, blocks)


def _phi(rc, V):
    """Phi V for a (2MN, p) block V: the (2ML, K*p) array whose column
    block k is Phi_k V, one product per receive antenna."""
    p = V.shape[1]
    stack = rc.blocks.reshape(-1, 2 * rc.code.N)
    return (stack @ V.reshape(rc.M, -1, p)).reshape(rc.block_rows, -1)


def _phi_t(rc, Y):
    """The adjoint of :func:`_phi`: sum_k Phi_k^T Y_k, (2MN, p), for a
    (2ML, K*p) array Y with column blocks Y_k."""
    p = Y.shape[1] // rc.code.K
    stack = rc.blocks.reshape(-1, 2 * rc.code.N)
    return (stack.T @ Y.reshape(rc.M, -1, p)).reshape(rc.channel_len, p)


def build_A(rc, h):
    """Column-stack the K vectors Phi_k h into a 2ML x K matrix, Phi h.

    For any h the result has orthogonal columns of squared norm |h|^2.
    It is C-ordered, the layout the BLAS products downstream are pinned
    to.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (rc.channel_len,):
        raise ValueError(f"channel vector has shape {h.shape}, "
                         f"expected ({rc.channel_len},)")
    return _phi(rc, h[:, None])


def _complex_entry(entry, where):
    """The complex number of a code-file entry, an [re, im] pair of JSON
    numbers (true, false, strings and null are not)."""
    if not (isinstance(entry, list) and len(entry) == 2):
        raise ValueError(f"entry {where} is a {type(entry).__name__}, "
                         f"not an [re, im] pair of numbers")
    for part, value in zip(("re", "im"), entry):
        if type(value) not in (int, float):     # bool is a subclass of int
            raise ValueError(f"entry {where} is not an [re, im] pair of "
                             f"numbers: its {part} is a {type(value).__name__}")
    try:
        return complex(float(entry[0]), float(entry[1]))
    except OverflowError as exc:
        raise ValueError(f"entry {where} is not an [re, im] pair of numbers: "
                         f"{exc}") from exc


def code_from_dict(payload):
    """Build a code from the JSON definition structure (shape checks only).

    The name must be a JSON string, and N, L and K JSON integers (true and
    false are not).
    """
    if not isinstance(payload, dict):
        raise CodeFormatError(f"a code definition must be a JSON object, "
                              f"not a {type(payload).__name__}")
    try:
        name = payload["name"]
        header = {key: payload[key] for key in ("N", "L", "K")}
        raw = payload["C"]
    except KeyError as exc:
        raise CodeFormatError(f"malformed code definition: {exc}") from exc
    if not isinstance(name, str):
        raise CodeFormatError(f"malformed code definition: name must be a "
                              f"JSON string, not a {type(name).__name__}")
    for key, value in header.items():
        if type(value) is not int:      # bool is a subclass of int
            raise CodeFormatError(f"malformed code definition: {key} must be "
                                  f"a JSON integer, not a {type(value).__name__}")
    if max(map(abs, header.values())) > sys.maxsize:
        raise CodeFormatError("malformed code definition: N, L and K must "
                              "fit an array index")
    if not isinstance(raw, list):
        raise CodeFormatError("field 'C' must be a list of matrices")
    mats = []
    for idx, mat in enumerate(raw):
        try:
            rows = [[_complex_entry(e, (i, j)) for j, e in enumerate(row)]
                    for i, row in enumerate(mat)]
        except (TypeError, ValueError) as exc:
            raise CodeFormatError(f"matrix {idx} is not numeric: {exc}") from exc
        if len({len(row) for row in rows}) > 1:
            raise CodeFormatError(f"the rows of matrix {idx} differ in length")
        arr = np.array(rows, dtype=complex)
        if arr.ndim != 2:
            raise CodeFormatError(f"matrix {idx} is not two-dimensional")
        mats.append(arr)
    return OstbCode(name, header["N"], header["L"], header["K"], tuple(mats))


def load_code(path, validate=True):
    """Load a code from a JSON definition file.

    With ``validate=True`` (default) the orthogonality constraints are
    checked at :data:`VALIDATION_TOL` and a failing code raises
    :class:`CodeValidationError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested past the parser's depth
            raise CodeFormatError(f"cannot parse {path}: {exc}") from exc
    code = code_from_dict(payload)
    if validate:
        report = validate_code(code, VALIDATION_TOL)
        if not report.passed:
            raise CodeValidationError(
                f"code {code.name!r} from {path} failed validation: "
                f"unit error {report.max_unit_error:.3e}, "
                f"pair error {report.max_pair_error:.3e}")
    return code
