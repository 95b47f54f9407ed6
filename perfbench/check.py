"""Output checker: invariants of each command's output, not its bytes.

A command fails when it exits nonzero, writes anything to stderr other
than an informational ``note:`` line, or produces output that breaks an
invariant of the theory (dim B* per code, M* = 1, unit-norm estimates,
row counts, the Ky Fan bound). The SHA-256 of every output file is
recorded alongside, so that a change in bytes is visible without being a
failure.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import CODE_SHAPE, CODES, DIM_BSTAR

# The estimate at sigma2 = 0.01 lands within about 1e-2 of the lifted
# ambiguity span for every size the workloads use; 0.1 leaves an order
# of magnitude of margin while still catching a wrong eigenvector.
MAX_RESIDUAL = 0.1
MAX_SUBSPACE_ANGLE = 0.1
MAX_CENSUS_ANGLE = 1e-8
UNIT_NORM_TOL = 1e-9


class CheckError(Exception):
    """An output broke an invariant."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _load_json(workdir, name):
    with open(Path(workdir) / name, encoding="utf-8") as fh:
        return json.load(fh)


def _check_subspace(report, p, kind):
    want = DIM_BSTAR[p["code"]]
    _require(report["code"] == p["code"], f"code {report['code']!r}")
    _require(report["kind"] == kind, f"kind {report['kind']!r}")
    _require(report["dim"] == want, f"dim {report['dim']} != dim B* {want}")
    _require(len(report["basis"]) == want, "basis length != dim")
    K = CODE_SHAPE[p["code"]][2]
    _require(all(len(b) == K * K for b in report["basis"]), "basis shape")
    _require(report["hr"]["family_size"] == want - 1,
             f"HR family size {report['hr']['family_size']} != {want - 1}")


def _codes_list(p, stdout, workdir):
    names = [line.split()[0] for line in stdout.splitlines() if line.strip()]
    _require(tuple(names) == CODES, f"listed codes {names}")


def _codes_validate(p, stdout, workdir):
    _require(stdout.rstrip().endswith(" pass"), "validation did not pass")


def _bstar(p, stdout, workdir):
    _check_subspace(_load_json(workdir, p["json"]), p, "invariant")


def _bspace(p, stdout, workdir):
    report = _load_json(workdir, p["json"])
    _check_subspace(report, p, "channel")
    _require(report["M"] == p["rx"], f"M {report['M']} != {p['rx']}")


def _census(p, stdout, workdir):
    want = DIM_BSTAR[p["code"]]
    summary = _load_json(workdir, p["json"])
    _require(summary["d_star"] == want, f"d_star {summary['d_star']} != {want}")
    _require(summary["M_star"] == 1, f"M_star {summary['M_star']} != 1")
    _require(summary["trials"] == p["trials"], "trial count")
    _require(summary["d_mode"] == {str(M): want for M in range(1, p["rx_max"] + 1)},
             f"d_mode {summary['d_mode']}")
    with open(Path(workdir) / p["csv"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["code", "M", "trial", "dim",
                                  "max_principal_angle_to_bstar"], "CSV header")
    body = rows[1:]
    _require(len(body) == p["rx_max"] * p["trials"],
             f"{len(body)} CSV rows, expected {p['rx_max'] * p['trials']}")
    for row in body:
        _require(row[0] == p["code"] and int(row[3]) == want, f"CSV row {row}")
        _require(float(row[4]) <= MAX_CENSUS_ANGLE, f"CSV angle {row[4]}")


def _estimate(p, stdout, workdir):
    N, _, K = CODE_SHAPE[p["code"]]
    report = _load_json(workdir, p["json"])
    h = report["h_hat"]
    _require(len(h) == 2 * p["rx"] * N, f"h_hat length {len(h)}")
    norm = math.sqrt(sum(x * x for x in h))
    _require(abs(norm - 1.0) <= UNIT_NORM_TOL, f"|h_hat| = {norm!r}")
    s_hat = report["s_hat"]
    _require(len(s_hat) == p["blocks"], f"{len(s_hat)} s_hat rows")
    _require(all(len(row) == K for row in s_hat), "s_hat row length")
    _require(len(report["B_hat"]) == K, "B_hat shape")
    _require(0.0 <= report["residual"] <= MAX_RESIDUAL,
             f"residual {report['residual']!r}")
    _require(0.0 <= report["subspace_angle"] <= MAX_SUBSPACE_ANGLE,
             f"subspace_angle {report['subspace_angle']!r}")


def _kyfan(p, stdout, workdir):
    report = _load_json(workdir, p["json"])
    _require(report["passed"] is True, "kyfan check did not pass")
    _require((report["m"], report["q"], report["samples"])
             == (p["m"], p["q"], p["samples"]), "kyfan sizes")
    _require(report["max_trace"] <= report["bound"], "trace above bound")


CHECKS = {
    "codes-list": _codes_list,
    "codes-validate": _codes_validate,
    "bstar": _bstar,
    "bspace": _bspace,
    "census": _census,
    "estimate": _estimate,
    "kyfan": _kyfan,
}


def file_digests(cmd, workdir):
    """Size and SHA-256 of each output file the command was asked to write."""
    digests = {}
    for name in cmd.outputs:
        path = Path(workdir) / name
        if path.exists():
            data = path.read_bytes()
            digests[name] = {"bytes": len(data),
                             "sha256": hashlib.sha256(data).hexdigest()}
    return digests


def check_command(cmd, returncode, stdout, stderr, workdir):
    """Return None when the command's result is correct, else the reason."""
    if returncode != 0:
        return f"exit status {returncode}: {stderr.strip()[-200:]}"
    noise = [line for line in stderr.splitlines()
             if line.strip() and not line.startswith("note: ")]
    if noise:
        return f"unexpected stderr: {noise[0][:200]}"
    try:
        CHECKS[cmd.kind](cmd.params, stdout, workdir)
    except CheckError as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
