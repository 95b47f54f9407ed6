"""The first code with M* > 1, end to end.

Every builtin code reaches its invariant space at one receive antenna.
The first three columns of the real 4 x 4 orthogonal design
(:func:`oracles.real4x3`) need two: its channel space is 2-dimensional at
M = 1 and trivial from M = 2 on, the transition that the census locates.
"""

import json

import numpy as np
import pytest

from ostbc_blind import compute_bstar, find_mstar, validate_code
from ostbc_blind import census
from ostbc_blind.cli import main

from oracles import (code_to_dict, exact_channel_dim, exact_invariant_dim,
                     real4x3)

CODE = real4x3()
D_MODE = {1: 2, 2: 1, 3: 1, 4: 1}


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "real4x3.json"
    path.write_text(json.dumps(code_to_dict(CODE)))
    return str(path)


def test_validates_exactly(code_file, capsys):
    report = validate_code(CODE, 1e-12)
    assert report.max_unit_error == report.max_pair_error == 0.0
    assert main(["codes", "validate", "--code-file", code_file]) == 0
    out = capsys.readouterr().out
    assert "unit_error=0.000e+00 pair_error=0.000e+00" in out
    assert out.rstrip().endswith(" pass")


def test_invariant_space_is_trivial(code_file, capsys):
    assert compute_bstar(CODE).dim == 1
    assert main(["bstar", "--code-file", code_file]) == 0
    assert "dim=1 identifiable=true" in capsys.readouterr().out


def test_exact_oracle_dimensions():
    assert exact_invariant_dim(CODE) == 1
    assert [exact_channel_dim(CODE, seed=3 * M + 1, M=M)
            for M in (1, 2, 3, 4)] == [D_MODE[M] for M in (1, 2, 3, 4)]


def test_float_census_finds_mstar_two():
    result = find_mstar(CODE, 4, 2000, 1)
    assert result.d_star == 1
    assert result.d_mode == D_MODE
    assert result.M_star == 2


def test_census_cli_reports_mstar(code_file, tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["census", "--code-file", code_file, "--rx-max", "4",
                 "--trials", "50", "--seed", "1", "--json", str(path)]) == 0
    assert "d_star=1 M_star=2" in capsys.readouterr().out
    summary = json.loads(path.read_text())
    assert summary["M_star"] == 2
    assert summary["d_mode"] == {str(M): d for M, d in D_MODE.items()}


def test_census_short_of_mstar_exits_1(code_file, capsys):
    assert main(["census", "--code-file", code_file, "--rx-max", "1",
                 "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "code=real4x3 d_star=1 M_star=None"
    assert captured.err == "error: invariant space not reached by M=1\n"


def test_loose_tolerance_gives_a_ragged_pass(code_file, capsys, monkeypatch):
    # At M = 1 the kept singular values reach down to 0.007 sigma_max, so a
    # cut at 0.1 splits the trials: the kernel routine returns no bases.
    original = census._channel_bases
    ragged = []

    def spy(code, unit, H0, tol):
        dims, bases = original(code, unit, H0, tol)
        ragged.append(bases is None)
        return dims, bases

    monkeypatch.setattr(census, "_channel_bases", spy)
    assert main(["census", "--code-file", code_file, "--rx-max", "2",
                 "--trials", "40", "--seed", "1", "--tol", "0.1"]) == 1
    assert capsys.readouterr().err == (
        "error: real4x3 M=1: observed dimensions {3: 3, 2: 37} are not a "
        "single value; deterministic-dimension check failed\n")
    assert ragged == [True]


@pytest.mark.parametrize("rx", [1, 2, 4])
def test_estimate(code_file, tmp_path, rx):
    # At M = 1 the top eigenspace is 2-dimensional, and which of its
    # vectors comes back depends on the last bits of R: check only the
    # residual and the subspace angle.
    path = tmp_path / "e.json"
    assert main(["estimate", "--code-file", code_file, "--rx", str(rx),
                 "--blocks", "2000", "--sigma2", "0.01", "--seed", "1",
                 "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["residual"] <= 5e-3
    assert report["subspace_angle"] <= np.radians(0.5)
