"""Metamorphic relations on transformed codes, and a seeded fuzz of the CLI.

For U (L x L) and V (N x N) unitary and O (K x K) real orthogonal, the
code C'_k = U (sum_j O_jk C_j) V is again orthogonal, and its ambiguity
spaces are those of C conjugated by O: B*(C') = O^T B*(C) O and
B_C'(H) = O^T B_C(VH) O. The transformed codes have irrational entries,
so their products round where the builtins' are exact, and the relations
check every float path without a second implementation of it.
"""

import json
import warnings

import numpy as np
import pytest

from ostbc_blind import (BUILTIN_CODE_NAMES, ChannelRealization, OstbCode,
                         builtin_code, compute_bspace, compute_bstar,
                         draw_channel, find_mstar, principal_angles,
                         validate_code)
from ostbc_blind.cli import main

from oracles import code_to_dict, random_transform, real4x3

SEEDS = (1, 2, 3)
ANGLE_TOL = 1e-13


def unit_code(N):
    """The K = 1 code C_1 = I_N: transformed, a random unitary code."""
    return OstbCode(f"unit{N}", N, N, 1, (np.eye(N),))


def max_angle(sub, ref, O):
    """Largest principal angle between ``sub`` and O^T ``ref`` O."""
    assert sub.dim == ref.dim
    return float(np.max(principal_angles(sub.basis,
                                         [O.T @ b @ O for b in ref.basis])))


def assert_relations(code, seed):
    rng = np.random.default_rng([seed, code.K, code.N])
    new, V, O = random_transform(code, rng)
    assert validate_code(new, 1e-12).passed
    assert max_angle(compute_bstar(new), compute_bstar(code), O) <= ANGLE_TOL
    for M in range(1, code.N + 2):
        for _ in range(5):
            H0 = draw_channel(code.N, M, rng).H0
            sub = compute_bspace(new, ChannelRealization.from_matrix(H0))
            ref = compute_bspace(code, ChannelRealization.from_matrix(V @ H0))
            assert max_angle(sub, ref, O) <= ANGLE_TOL, M
    got = find_mstar(new, code.N + 1, 20, seed)
    want = find_mstar(code, code.N + 1, 20, seed)
    assert (got.d_mode, got.M_star) == (want.d_mode, want.M_star)


class TestTransformedCode:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_code(self, any_code, seed):
        assert_relations(any_code, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make", [real4x3, lambda: unit_code(1),
                                      lambda: unit_code(2)],
                             ids=["real4x3", "unit1", "unit2"])
    def test_code_with_a_transition_or_one_matrix(self, make, seed):
        assert_relations(make(), seed)


FUZZ_SEED = 20261020
FUZZ_CASES = 150
FUZZ_BASES = tuple(builtin_code(n) for n in BUILTIN_CODE_NAMES) + (
    real4x3(), unit_code(1), unit_code(2))


def fuzz_valid_codes():
    """One transformed code per base code."""
    rng = np.random.default_rng([FUZZ_SEED, 0])
    return [random_transform(base, rng)[0] for base in FUZZ_BASES]


def fuzz_cases():
    """(code, valid, argv) cases: transformed codes, 30 % of them scaled
    by 1 + delta, delta from 1e-10 to 1e-3, off orthogonality; tol
    log-uniform from 5e-324 to 0.999999, or the default; sigma2 0 or
    log-uniform up to 1e300; small antenna, trial and block counts."""
    rng = np.random.default_rng([FUZZ_SEED, 1])
    cases = []
    for _ in range(FUZZ_CASES):
        base = FUZZ_BASES[rng.integers(len(FUZZ_BASES))]
        code = random_transform(base, rng)[0]
        valid = rng.random() >= 0.3
        if not valid:
            scale = 1 + 10 ** rng.uniform(-10, -3)
            code = OstbCode(code.name, code.N, code.L, code.K,
                            tuple(scale * c for c in code.C))
        command = str(rng.choice(["bstar", "bspace", "census", "estimate"]))
        seed = str(rng.integers(1000))
        argv = {
            "bstar": [],
            "bspace": ["--rx", str(rng.integers(1, 4)), "--seed", seed],
            "census": ["--rx-max", str(rng.integers(1, code.N + 2)),
                       "--trials", str(rng.integers(1, 11)), "--seed", seed],
            "estimate": ["--rx", str(rng.integers(1, 4)),
                         "--blocks", str(rng.integers(1, 51)),
                         "--sigma2", repr(0.0 if rng.random() < 0.1
                                          else 10 ** rng.uniform(-300, 300)),
                         "--seed", seed],
        }[command]
        if rng.random() >= 0.2:
            low, high = np.log(5e-324), np.log(0.999999)
            tol = max(float(np.exp(rng.uniform(low, high))), 5e-324)
            argv += ["--tol", repr(tol)]
        cases.append((code, valid, [command] + argv))
    return cases


def run_quiet(code, argv, tmp_path, capsys):
    """``main`` on ``code`` as a code file: status, stdout and stderr."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(code)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(argv + ["--code-file", str(path)])
    captured = capsys.readouterr()
    assert not caught
    return status, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["bstar"],
    ["bspace", "--rx", "2", "--seed", "1"],
    ["census", "--rx-max", "{N+1}", "--trials", "10", "--seed", "1"],
    ["estimate", "--rx", "2", "--blocks", "50", "--sigma2", "0.01",
     "--seed", "1"],
], ids=lambda argv: argv[0])
def test_fuzz_valid_code_at_the_default_tol(argv, tmp_path, capsys):
    for code in fuzz_valid_codes():
        args = [str(code.N + 1) if a == "{N+1}" else a for a in argv]
        status, _, err = run_quiet(code, args, tmp_path, capsys)
        assert (status, err) == (0, ""), (code.name, err)


def test_fuzz_exits_cleanly(tmp_path, capsys):
    for i, (code, valid, argv) in enumerate(fuzz_cases()):
        status, out, err = run_quiet(code, argv, tmp_path, capsys)
        lines = err.splitlines()
        if valid and "--tol" not in argv and argv[0] in ("bstar", "bspace"):
            assert (status, err) == (0, ""), (i, code.name, argv, err)
        if status == 0:
            assert valid and err == "" and out, (i, code.name, argv)
        else:
            assert status == 1, (i, code.name, argv, err)
            assert len(lines) == 1 and lines[0].startswith("error: "), (
                i, code.name, argv, err)
            assert valid or "failed validation" in lines[0], (i, argv, err)
