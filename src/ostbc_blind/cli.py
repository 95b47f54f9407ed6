"""Command-line interface: every workflow behind reproducible seeds.

All randomness flows from the --seed flag of each subcommand; identical
command lines produce byte-identical JSON and CSV outputs. JSON is the
machine-readable format, one compact line per report; the printed text
is informal.
"""

import argparse
import json
import sys

import numpy as np

from ._floattext import float_text
from .census import CensusError, find_mstar, write_census_csv
from .estimator import (CHUNK_NUMBERS, ConstellationModel, ConvergenceError,
                        SimulationConfig, _check_budget, draw_channel,
                        run_estimate)
from .kyfan import (MAX_SAMPLES, KyFanError, SpectrumSpec,
                    kyfan_sample_check)
from .ostbc import (BUILTIN_CODE_NAMES, VALIDATION_TOL, builtin_code,
                    load_code, validate_code)
from .subspace import (RANK_TOL, AmbiguityStructureError, SubspaceError,
                       compute_bspace, compute_bstar, hr_basis)

_ERRORS = (ValueError, KeyError, OSError, SubspaceError,
           AmbiguityStructureError, CensusError, KyFanError, ConvergenceError,
           MemoryError, OverflowError)


def _add_code_and_tol_args(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--code", choices=BUILTIN_CODE_NAMES,
                       help="builtin code name")
    group.add_argument("--code-file", help="JSON code-definition file")
    parser.add_argument("--tol", type=float, default=RANK_TOL,
                        help="rank cut: singular values up to "
                             "max(tol, 32 K^2 eps) |H|_F are zero")


def _resolve_code(args, validate=True):
    if args.code is not None:
        return builtin_code(args.code)
    return load_code(args.code_file, validate=validate)


def _format_rows(arr, seps):
    """The ``repr`` of every number of ``arr`` in row-major order, number
    i followed by ``seps[i % len(seps)]`` and the last by nothing, in
    pieces.

    ``len(seps)`` is the size of one row; the rows are formatted about
    :data:`CHUNK_NUMBERS` numbers at a time by :func:`float_text`, which
    works on the whole chunk at once.
    """
    step = max(1, CHUNK_NUMBERS // len(seps))
    for start in range(0, len(arr), step):
        text = float_text(arr[start:start + step].reshape(-1), seps)
        yield seps[-1] + text if start else text


def _row_layout(shape):
    """The compact json.dumps text of one array item of ``shape`` around
    its numbers: the text before the first, the texts between consecutive
    ones, and the text after the last."""
    if not shape:
        return "", (), ""
    pre, seps, post = _row_layout(shape[1:])
    between = seps + (post + "," + pre,)
    return "[" + pre, (between * shape[0])[:-1], post + "]"


def _write_json(payload, path):
    """Write ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``
    and a newline, arrays as their ``tolist()``. Each value of a non-empty
    dictionary that is a non-empty float64 array of finite numbers goes a
    chunk of rows at a time through :func:`_format_rows`. Keys must be
    strings.
    """
    style = dict(sort_keys=True, separators=(",", ":"),
                 default=np.ndarray.tolist)
    with open(path, "w", encoding="utf-8") as fh:
        if not (isinstance(payload, dict) and payload):
            fh.write(json.dumps(payload, **style) + "\n")
            return
        for i, key in enumerate(sorted(payload)):
            fh.write(("," if i else "{") + json.dumps(key) + ":")
            value = payload[key]
            if (isinstance(value, np.ndarray) and value.dtype == float
                    and value.ndim and value.size    # min, max: no copy
                    and np.isfinite([value.min(), value.max()]).all()):
                pre, seps, post = _row_layout(value.shape[1:])
                fh.write("[" + pre)
                fh.writelines(_format_rows(value, seps + (post + "," + pre,)))
                fh.write(post + "]")
            else:
                fh.write(json.dumps(value, **style))
        fh.write("}\n")


def subspace_report(sub, hr):
    """JSON-ready report for an ambiguity subspace and its hr_basis."""
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


def census_summary(result):
    """JSON-ready summary of a census with the per-M modal dimensions."""
    return {
        "code": result.code,
        "trials": result.trials,
        "seed": result.seed,
        "tol": result.tol,
        "d_star": result.d_star,
        "M_star": result.M_star,
        "d_mode": {str(M): result.d_mode[M] for M in result.M_range},
    }


def cmd_codes(args):
    if args.action == "list":
        for name in BUILTIN_CODE_NAMES:
            code = builtin_code(name)
            print(f"{code.name} N={code.N} L={code.L} K={code.K}")
        return 0
    if args.code is None and args.code_file is None:
        print("error: codes validate requires --code or --code-file",
              file=sys.stderr)
        return 2
    code = _resolve_code(args, validate=False)
    report = validate_code(code, args.tol)
    status = "pass" if report.passed else "FAIL"
    print(f"{code.name} unit_error={report.max_unit_error:.3e} "
          f"pair_error={report.max_pair_error:.3e} tol={report.tol:g} {status}")
    return 0 if report.passed else 1


def cmd_bstar(args):
    code = _resolve_code(args)
    sub = compute_bstar(code, args.tol)
    hr = hr_basis(sub)
    report = subspace_report(sub, hr)
    if args.json:
        _write_json(report, args.json)
    print(f"code={code.name} dim={sub.dim} "
          f"identifiable={'true' if sub.identifiable else 'false'} "
          f"hr_family_size={hr.family_size}")
    return 0


def cmd_bspace(args):
    code = _resolve_code(args)
    rng = np.random.default_rng(args.seed)
    channel = draw_channel(code.N, args.rx, rng)
    sub = compute_bspace(code, channel, args.tol, seed=args.seed)
    hr = hr_basis(sub)
    report = subspace_report(sub, hr)
    if args.json:
        _write_json(report, args.json)
    print(f"code={code.name} M={args.rx} seed={args.seed} dim={sub.dim} "
          f"hr_family_size={hr.family_size}")
    return 0


def cmd_census(args):
    code = _resolve_code(args)
    result = find_mstar(code, args.rx_max, args.trials, args.seed, args.tol)
    if args.csv:
        write_census_csv(result, args.csv)
    summary = census_summary(result)
    if args.json:
        _write_json(summary, args.json)
    for M in result.M_range:
        print(f"code={code.name} M={M} dim={result.d_mode[M]} "
              f"trials={result.trials}")
    print(f"code={code.name} d_star={result.d_star} M_star={result.M_star}")
    if result.M_star is None:
        print(f"error: invariant space not reached by M={args.rx_max}",
              file=sys.stderr)
        return 1
    return 0


def cmd_estimate(args):
    code = _resolve_code(args)
    constellation = (ConstellationModel.iid_pm1(code.K)
                     if args.constellation == "iid-uniform-pm1"
                     else ConstellationModel.gaussian(code.K))
    config = SimulationConfig(code, args.rx, constellation, args.blocks,
                              args.sigma2, args.seed)
    report = run_estimate(config, args.tol)
    payload = {
        "h_hat": report.h_hat,
        "s_hat": report.s_hat,
        "B_hat": report.B_hat,
        "residual": report.residual,
        "subspace_angle": report.subspace_angle,
    }
    if args.json:
        _write_json(payload, args.json)
    if args.dump_blocks:
        with open(args.dump_blocks, "w", encoding="utf-8") as fh:
            seps = (",",) * (report.blocks.shape[1] - 1) + ("\n",)
            fh.writelines(_format_rows(report.blocks, seps))
            fh.write("\n")
    angle_deg = np.degrees(report.subspace_angle)
    print(f"code={code.name} M={args.rx} J={args.blocks} sigma2={args.sigma2:g} "
          f"seed={args.seed} residual={report.residual:.3e} "
          f"subspace_angle_deg={angle_deg:.4f}")
    return 0


def cmd_kyfan(args):
    if args.m < 1:
        raise ValueError(f"--m must be a positive matrix size, got {args.m}")
    if not 1 <= args.q <= args.m:
        raise ValueError(f"q must lie in [1, {args.m}], got {args.q}")
    # seven m x m arrays: eigh's LAPACK copy and workspace beside P and the
    # eigenvectors peaked at 5.1-5.3 of them (RSS, m = 1500 and 2500, q < m);
    # the sample check at q = m, at 6.3-7.4
    _check_budget(7 * 8 * args.m * args.m, f"--m {args.m}")
    rng = np.random.default_rng([args.seed, 0])
    P = rng.standard_normal((args.m, args.m))
    P += P.T   # (g + g^T) / 2 in place: the draw is not held beside P
    P /= 2
    spec = SpectrumSpec.from_matrix(P, args.q)
    report = kyfan_sample_check(spec, args.samples, [args.seed, 1])
    payload = {
        "m": report.m,
        "q": report.q,
        "samples": report.samples,
        "seed": args.seed,
        "value": report.value,
        "bound": report.bound,
        "max_trace": report.max_trace,
        "n_near": report.n_near,
        "passed": report.passed,
    }
    if args.json:
        _write_json(payload, args.json)
    print(f"m={args.m} q={args.q} samples={args.samples} seed={args.seed} "
          f"value={report.value:.12g} max_trace={report.max_trace:.12g} "
          f"passed={'true' if report.passed else 'false'}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ostbc-blind",
        description="Ambiguity subspaces and blind channel estimation for "
                    "orthogonal space-time block codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codes", help="list builtin codes or validate one")
    p.add_argument("action", choices=["list", "validate"])
    group = p.add_mutually_exclusive_group()
    group.add_argument("--code", choices=BUILTIN_CODE_NAMES)
    group.add_argument("--code-file")
    p.add_argument("--tol", type=float, default=VALIDATION_TOL)
    p.set_defaults(func=cmd_codes)

    p = sub.add_parser("bstar", help="channel-independent ambiguity space")
    _add_code_and_tol_args(p)
    p.add_argument("--json", help="write the subspace report to this path")
    p.set_defaults(func=cmd_bstar)

    p = sub.add_parser("bspace", help="ambiguity space of one random channel")
    _add_code_and_tol_args(p)
    p.add_argument("--rx", type=int, required=True, help="receive antennas")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", help="write the subspace report to this path")
    p.set_defaults(func=cmd_bspace)

    p = sub.add_parser("census", help="Monte Carlo dimension census over M")
    _add_code_and_tol_args(p)
    p.add_argument("--rx-max", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", help="write per-trial rows to this path")
    p.add_argument("--json", help="write the summary to this path")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("estimate", help="simulate a link and estimate blindly")
    _add_code_and_tol_args(p)
    p.add_argument("--rx", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--constellation", choices=["iid-uniform-pm1", "gaussian"],
                   default="iid-uniform-pm1")
    p.add_argument("--json", help="write the estimate report to this path")
    p.add_argument("--dump-blocks", help="write received blocks as CSV rows")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("kyfan", help="randomized check of the trace bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000,
                   help=f"random matrices to draw, at most {MAX_SAMPLES}")
    p.add_argument("--json", help="write the check report to this path")
    p.set_defaults(func=cmd_kyfan)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, "
                             f"got {args.seed}")
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
