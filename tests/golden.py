"""Golden outputs: recorded command lines and what each one prints and writes.

    python tests/golden.py            # check; exit status 1 on a mismatch
    python tests/golden.py --update   # rewrite tests/golden/manifest.json,
                                      # listing each line that changed

Each line of the manifest runs through ``cli.main`` in a fresh temporary
directory, after the code files its argv names are written there. Its
exit status and the SHA-256 of its stdout, its stderr and every file it
writes must equal the recorded ones. A warning counts as stderr text, one
``Category: message`` line each.

Bytes are compared only where the environment equals the recorded one:
the numpy, Python and BLAS versions and the machine. Elsewhere the last
bits of a number may differ, so the check compares the exit status, the
text around the numbers (by its SHA-256) and the numbers, each within
1e-9 relative plus 1e-12 absolute. Where rounding picks one of many
valid answers, only what does not depend on the pick is compared: an
estimate on a code whose top eigenspace is degenerate returns a vector
of that eigenspace, so there only its ``residual`` and ``subspace_angle``
count, and a basis of more than two elements may rotate within its span,
so it counts as its orthogonal projector.

The check imports ``ostbc_blind`` wherever Python finds it, so it also
runs against an installed package. ``--update`` needs the test oracles and
the benchmark's workloads: the cli-mix and compute-mix command lines at
benchmark seeds 1-3, each distinct line once. The manifest is the one
record of what the CLI prints and writes; each line that is not a
benchmark line has the reason it is recorded beside it in ``_lines``.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from ostbc_blind import cli

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden" / "manifest.json"

REL_TOL = 1e-9
ABS_TOL = 1e-12
# Estimates whose top eigenspace has dimension dim B(h0) > 1 at the
# recorded antenna counts.
DEGENERATE = {"alamouti", "alamouti-k2", "real2", "rot4.json", "k2-mixed.json"}
STABLE_KEYS = ("residual", "subspace_angle")
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def environment():
    """The versions that fix the bits of every output."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # numpy < 1.26 has no mode="dicts"
        blas = None
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "blas": blas}


def run_line(argv, files):
    """Exit status and output bytes of one command line, run in process
    in a temporary directory holding the code files that ``argv`` names."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in set(argv) & set(files):
            Path(tmp, name).write_text(files[name], encoding="utf-8")
        os.chdir(tmp)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                status = cli.main(list(argv))
        finally:
            os.chdir(cwd)
        outputs = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())
                   if p.name not in files}
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    outputs["stdout"] = out.getvalue().encode()
    outputs["stderr"] = err.getvalue().encode()
    return status, outputs


def _code_name(argv):
    for flag in ("--code", "--code-file"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


def _parsed(argv, name, data):
    """The SHA-256 of the text around the numbers, and the numbers, of the
    part of an output that does not depend on how rounding picks among
    equally valid answers."""
    text = data.decode()
    if name.endswith(".json"):
        report = json.loads(text)
        if argv[0] == "estimate" and _code_name(argv) in DEGENERATE:
            report = {k: report[k] for k in STABLE_KEYS}
        elif len(report.get("basis", ())) > 2:
            basis = np.array(report["basis"])
            report["basis"] = (basis.T @ basis).tolist()
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    numbers = [int(x) if x.lstrip("-").isdigit() else float(f"{float(x):.10g}")
               for x in NUMBER.findall(text)]
    skeleton = NUMBER.sub("#", text)
    return [hashlib.sha256(skeleton.encode()).hexdigest(), numbers]


def record(argv, files):
    """The manifest entry of one command line."""
    status, outputs = run_line(argv, files)
    return {"argv": list(argv), "status": status,
            "sha256": {k: hashlib.sha256(v).hexdigest()
                       for k, v in outputs.items()},
            "parsed": {k: _parsed(argv, k, v) for k, v in outputs.items()}}


def _numbers_close(got, want):
    return len(got) == len(want) and all(
        abs(g - w) <= REL_TOL * abs(w) + ABS_TOL for g, w in zip(got, want))


def compare(want, got, exact):
    """The mismatches of one line's entry ``got`` against ``want``."""
    line = " ".join(want["argv"])
    if got["status"] != want["status"]:
        return [f"{line}: exit status {got['status']} != {want['status']}"]
    if got["sha256"].keys() != want["sha256"].keys():
        return [f"{line}: outputs {sorted(got['sha256'])} != "
                f"{sorted(want['sha256'])}"]
    bad = []
    for name, digest in want["sha256"].items():
        if exact:
            if got["sha256"][name] != digest:
                bad.append(f"{line}: {name} bytes differ")
            continue
        (skeleton, numbers), (want_skeleton, want_numbers) = (
            got["parsed"][name], want["parsed"][name])
        if skeleton != want_skeleton:
            bad.append(f"{line}: {name} text differs")
        elif not _numbers_close(numbers, want_numbers):
            bad.append(f"{line}: {name} numbers differ")
    return bad


def load():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def check(manifest=None):
    """Run every recorded line; returns the list of mismatches."""
    manifest = manifest or load()
    exact = manifest["environment"] == environment()
    bad = []
    for want in manifest["lines"]:
        bad += compare(want, record(want["argv"], manifest["files"]), exact)
    return bad


def _code_files():
    import oracles

    def text(code):
        return json.dumps(oracles.code_to_dict(code))

    header = {"name": "m", "N": 1, "L": 1, "K": 1}
    return {"rot3.json": text(oracles.rotated_alamouti(3)),
            "rot4.json": text(oracles.rotated_alamouti(4)),
            "real4x3.json": text(oracles.real4x3()),
            "p0.json": oracles.P0_JSON,
            "k2-mixed.json": oracles.K2_MIXED_JSON,
            "k1-1e-13.json": oracles.K1_1E13_JSON,
            "k1-4e-13.json": oracles.K1_4E13_JSON,
            "no-l.json": json.dumps({"name": "m", "N": 1, "K": 1,
                                     "C": [[[[1.0, 0.0]]]]}),
            "c-number.json": json.dumps(header | {"C": 5}),
            "c-empty.json": json.dumps(header | {"C": [[]]})}


def _lines():
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from workloads import WORKLOADS, build_commands

    lines = []
    for workload in WORKLOADS:
        for seed in (1, 2, 3):
            lines += [list(c.args) for c in build_commands(workload, seed)]
    # codes whose blocks have irrational entries (rotated Alamouti, K = 3
    # and 4), whose invariant space needs M* = 2 (real4x3), or whose
    # products round (p0, k2-mixed), on every subcommand
    for name in ("rot3.json", "rot4.json", "real4x3.json", "p0.json",
                 "k2-mixed.json"):
        code = ["--code-file", name]
        lines += [
            ["bstar", *code, "--json", "b.json"],
            ["bspace", *code, "--rx", "3", "--seed", "1", "--json", "s.json"],
            ["census", *code, "--rx-max", "4", "--seed", "1",
             "--json", "c.json", "--csv", "c.csv"],
            ["census", *code, "--rx-max", "4", "--seed", "2",
             "--tol", "1e-15", "--json", "c.json"],
            ["estimate", *code, "--rx", "3", "--blocks", "500", "--sigma2",
             "0.01", "--seed", "1", "--json", "e.json"],
        ]
    # K = 1 codes whose unit error lies above the rank cut's rounding floor
    for name in ("k1-1e-13.json", "k1-4e-13.json"):
        code = ["--code-file", name]
        lines += [
            ["bstar", *code, "--json", "b.json"],
            ["bspace", *code, "--rx", "2", "--seed", "1", "--json", "s.json"],
            ["census", *code, "--rx-max", "2", "--trials", "10", "--seed", "1",
             "--json", "c.json", "--csv", "c.csv"],
            ["estimate", *code, "--rx", "2", "--blocks", "100", "--sigma2",
             "0.01", "--seed", "1", "--json", "e.json"],
        ]
    lines += [
        # the block dump, and the Gaussian constellation
        ["estimate", "--code", "alamouti-k3", "--rx", "2", "--blocks", "50",
         "--sigma2", "0.01", "--seed", "1", "--json", "e.json",
         "--dump-blocks", "blocks.csv"],
        ["estimate", "--code", "alamouti-k3", "--rx", "2", "--blocks", "500",
         "--sigma2", "0.01", "--seed", "2", "--constellation", "gaussian",
         "--json", "e.json"],
        # a --tol or --seed out of range exits with status 1
        ["bstar", "--code", "alamouti", "--tol", "nan"],
        ["bspace", "--code", "alamouti", "--rx", "2", "--seed", "-1"],
        # the subspace iteration goes past its first step on a simple top
        # eigenvalue
        ["estimate", "--code", "scalar", "--rx", "64", "--blocks", "2000",
         "--sigma2", "10", "--seed", "3"],
        # real4x3 reaches its invariant space at M* = 2, so a census that
        # stops at M = 1 exits with status 1
        ["census", "--code-file", "real4x3.json", "--rx-max", "1",
         "--trials", "50", "--seed", "1"],
        # alamouti-k2 mixed by random unitaries, whose products round, at
        # a rank cut down to the rounding floor
        ["census", "--code-file", "k2-mixed.json", "--rx-max", "3",
         "--trials", "200", "--seed", "16", "--tol", "1e-15"],
        # a 400000 x 400000 covariance exceeds the memory budget: exit
        # status 1 and one error line before anything is drawn
        ["estimate", "--code", "alamouti", "--rx", "100000", "--blocks", "10",
         "--sigma2", "0.01", "--seed", "1"],
        # past N antennas the kernel matrix is built from the channel's
        # N x N triangular factor, so a million antennas take one 32 MB
        # channel, not a 2 GB kernel matrix
        ["bspace", "--code", "alamouti", "--rx", "1000000", "--seed", "1",
         "--json", "s.json"],
        # drawing a 2 x 22369622 channel peaks above the memory budget:
        # exit status 1 and one error line before anything is drawn
        ["bspace", "--code", "alamouti", "--rx", "22369622", "--seed", "1"],
        # 10**10 blocks of 2ML = 8 floats, and 10**10 census trials at
        # M = 1..3, exceed the memory budget: exit status 1 and one error
        # line that names the size, before anything is drawn
        ["estimate", "--code", "alamouti", "--rx", "2", "--blocks",
         "10000000000", "--sigma2", "0.01", "--seed", "1"],
        ["census", "--code", "alamouti", "--rx-max", "3", "--trials",
         "10000000000", "--seed", "1"],
        # a census far past N, whose JSON holds only integers
        ["census", "--code", "alamouti", "--rx-max", "32", "--trials", "50",
         "--seed", "1", "--json", "c.json"],
        # sample 31575 lies 1.4e-10 below the maximum and 7.1e-6 off the
        # maximizers, as far as that deficit allows
        ["kyfan", "--m", "2", "--q", "1", "--samples", "40000", "--seed", "2",
         "--json", "k.json"],
        # seven 100000 x 100000 float arrays exceed the memory budget: exit
        # status 1 and one error line before the matrix is drawn
        ["kyfan", "--m", "100000", "--q", "1", "--seed", "1"],
        # a code file with no L, with a number for C or with an empty
        # matrix in C fails validation with exit status 1
        ["codes", "validate", "--code-file", "c-number.json"],
        ["codes", "validate", "--code-file", "c-empty.json"],
        ["codes", "validate", "--code-file", "no-l.json"],
    ]
    return list(dict.fromkeys(map(tuple, lines)))


def changed_parts(old, new):
    """The parts of a line's entry that differ from its recorded one: its
    exit status, then stdout, stderr and each output file by name."""
    parts = ["status"] if old["status"] != new["status"] else []
    return parts + [name for name in sorted(old["sha256"].keys()
                                            | new["sha256"].keys())
                    if old["sha256"].get(name) != new["sha256"].get(name)]


def update():
    """Rewrite the manifest; print each line that was added, removed or
    changed against the manifest it replaces, with the parts that changed."""
    files = _code_files()
    old = ({tuple(e["argv"]): e for e in load()["lines"]}
           if MANIFEST.exists() else {})
    entries = []
    for argv in _lines():
        entry = record(argv, files)
        line = " ".join(argv)
        if argv not in old:
            print(f"added: {line}")
        elif parts := changed_parts(old.pop(argv), entry):
            print(f"changed: {line}: {', '.join(parts)}")
        entries.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    for argv in old:
        print(f"removed: {' '.join(argv)}")
    MANIFEST.parent.mkdir(exist_ok=True)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write(f'{{"environment": {json.dumps(environment(), sort_keys=True)},\n'
                 f'"files": {json.dumps(files, sort_keys=True, indent=0)},\n'
                 f'"lines": [\n' + ",\n".join(entries) + "\n]}\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--update"]:
        update()
        return 0
    if argv:
        print("usage: python tests/golden.py [--update]", file=sys.stderr)
        return 2
    manifest = load()
    bad = check(manifest)
    for line in bad:
        print(f"mismatch: {line}")
    print(f"{len(manifest['lines'])} lines, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
