import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ostbc_blind
from ostbc_blind import builtin_code
from ostbc_blind import _floattext, census, cli, estimator, kyfan, subspace
from ostbc_blind.cli import main

from oracles import (K1_1E13_JSON, K1_4E13_JSON, K2_MIXED_JSON, P0_JSON,
                     code_to_dict)


class TestCodes:
    def test_list(self, capsys):
        assert main(["codes", "list"]) == 0
        out = capsys.readouterr().out
        assert "alamouti N=2 L=2 K=4" in out
        assert "scalar N=1 L=1 K=1" in out

    def test_validate_builtin(self, capsys):
        assert main(["codes", "validate", "--code", "alamouti"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["codes", "validate", "--code-file", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_validate_non_orthogonal_file(self, tmp_path, capsys):
        payload = {"name": "bad", "N": 1, "L": 1, "K": 1,
                   "C": [[[[2.0, 0.0]]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["codes", "validate", "--code-file", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_agrees_with_loader(self, tmp_path, capsys):
        # Unit error 2e-10: above the one validation tolerance 1e-12, so
        # `codes validate` and every command that loads the file reject it.
        payload = code_to_dict(builtin_code("alamouti"))
        payload["C"][0] = [[[re * (1 + 1e-10), im] for re, im in row]
                           for row in payload["C"][0]]
        path = tmp_path / "near.json"
        path.write_text(json.dumps(payload))
        assert main(["codes", "validate", "--code-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert "unit_error=2.000e-10" in out
        assert out.rstrip().endswith("tol=1e-12 FAIL")
        assert main(["bstar", "--code-file", str(path)]) == 1
        assert "failed validation" in capsys.readouterr().err

    def test_validate_requires_code(self, capsys):
        assert main(["codes", "validate"]) == 2

    def test_unknown_code_rejected(self):
        with pytest.raises(SystemExit):
            main(["codes", "validate", "--code", "nosuch"])


class TestBstar:
    def test_alamouti(self, capsys):
        assert main(["bstar", "--code", "alamouti"]) == 0
        out = capsys.readouterr().out
        assert "dim=4" in out
        assert "identifiable=false" in out

    def test_odd_k(self, capsys):
        assert main(["bstar", "--code", "alamouti-k3"]) == 0
        out = capsys.readouterr().out
        assert "dim=1" in out
        assert "identifiable=true" in out

    def test_scalar(self, capsys):
        assert main(["bstar", "--code", "scalar"]) == 0
        assert "dim=1" in capsys.readouterr().out

    def test_json_schema(self, tmp_path):
        path = tmp_path / "report.json"
        assert main(["bstar", "--code", "alamouti", "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["code"] == "alamouti"
        assert report["kind"] == "invariant"
        assert report["M"] is None
        assert report["seed"] is None
        assert report["dim"] == 4
        assert len(report["basis"]) == 4
        assert all(len(b) == 16 for b in report["basis"])
        assert report["hr"]["family_size"] == 3
        assert report["hr"]["max_skew_residual"] <= 1e-10
        assert report["hr"]["max_anticommute_residual"] <= 1e-10

    def test_code_file(self, tmp_path, capsys):
        path = tmp_path / "alamouti.json"
        path.write_text(json.dumps(code_to_dict(builtin_code("alamouti"))))
        assert main(["bstar", "--code-file", str(path)]) == 0
        assert "dim=4" in capsys.readouterr().out


class TestBspace:
    def test_basic(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["bspace", "--code", "alamouti", "--rx", "2", "--seed",
                     "3", "--json", str(path)]) == 0
        assert "dim=4" in capsys.readouterr().out
        report = json.loads(path.read_text())
        assert report["kind"] == "channel"
        assert report["M"] == 2
        assert report["seed"] == 3

    def test_reproducible_json(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["bspace", "--code", "real2", "--rx", "1", "--seed", "17"]
        assert main(argv + ["--json", str(p1)]) == 0
        assert main(argv + ["--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("code, rx, seed", [
        ("real2", "3", "2548"), ("alamouti", "4", "883")])
    def test_tight_tolerance(self, code, rx, seed, capsys):
        # channels whose identity-first basis once grew rounding errors
        # above tol=1e-12 in the kernel-residual check
        assert main(["bspace", "--code", code, "--rx", rx, "--seed", seed,
                     "--tol", "1e-12"]) == 0
        assert capsys.readouterr().err == ""


class TestCensus:
    def test_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "census.csv"
        json_path = tmp_path / "summary.json"
        assert main(["census", "--code", "real2", "--rx-max", "2", "--trials",
                     "10", "--seed", "5", "--csv", str(csv_path),
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "d_star=2 M_star=1" in out
        summary = json.loads(json_path.read_text())
        assert summary["d_mode"] == {"1": 2, "2": 2}
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 20

    @pytest.mark.parametrize("code", ["alamouti", "alamouti-k2", "real2"])
    def test_tolerance_below_residual_rounding(self, code, capsys):
        # tol * sigma_max lies under the rounding of the kernel residual
        assert main(["census", "--code", code, "--rx-max", "4", "--trials",
                     "2000", "--seed", "1", "--tol", "1e-15"]) == 0
        assert capsys.readouterr().err == ""

    def test_byte_identical_outputs(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            assert main(["census", "--code", "alamouti", "--rx-max", "2",
                         "--trials", "5", "--seed", "21", "--csv",
                         str(csv_path), "--json", str(json_path)]) == 0
            outs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert outs[0] == outs[1]


class TestCodesWhoseProductsRound:
    """Valid code files whose channel kernel matrices round: in p0 every
    one is rounding noise, in the two K = 1 files noise above the rounding
    floor, and k2-mixed's products are inexact."""

    @pytest.fixture(params=[("p0", P0_JSON, 1), ("k2-mixed", K2_MIXED_JSON, 2),
                            ("k1-1e-13", K1_1E13_JSON, 1),
                            ("k1-4e-13", K1_4E13_JSON, 1)],
                    ids=lambda p: p[0])
    def code_file(self, request, tmp_path):
        name, text, dim = request.param
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        return str(path), dim

    @pytest.mark.parametrize("argv", [
        ["bstar"],
        ["bspace", "--rx", "2", "--seed", "1"],
        ["census", "--rx-max", "3", "--seed", "1"],
        ["estimate", "--rx", "2", "--blocks", "100", "--sigma2", "0.01",
         "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_runs_at_the_default_tolerance(self, code_file, argv, tmp_path,
                                           capsys):
        path, dim = code_file
        out = tmp_path / "out.json"
        assert main(argv + ["--code-file", path, "--json", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        if argv[0] == "census":
            assert report["d_star"] == dim and report["M_star"] == 1
        elif argv[0] != "estimate":
            assert report["dim"] == dim

    def test_census_at_a_tolerance_under_rounding(self, tmp_path, capsys):
        path = tmp_path / "k2-mixed.json"
        path.write_text(K2_MIXED_JSON)
        assert main(["census", "--code-file", str(path), "--rx-max", "3",
                     "--trials", "200", "--seed", "16", "--tol", "1e-15"]) == 0
        assert capsys.readouterr().err == ""

    def test_identity_residual_above_the_cut(self, tmp_path, capsys):
        # K = 1 has no rank decision: the identity's residual under the
        # whole map is its one check, and a unit error of 8e-13 lies above
        # the 32 eps |H|_F cut that --tol 1e-15 falls back to
        path = tmp_path / "k1-4e-13.json"
        path.write_text(K1_4E13_JSON)
        assert main(["bspace", "--code-file", str(path), "--rx", "2",
                     "--seed", "1", "--tol", "1e-15"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: basis element leaves kernel residual ")


class TestEstimate:
    ARGS = ["estimate", "--code", "alamouti", "--rx", "2", "--blocks", "1000",
            "--sigma2", "0.01", "--seed", "13"]

    def test_run_and_report(self, tmp_path, capsys):
        path = tmp_path / "estimate.json"
        assert main(self.ARGS + ["--json", str(path)]) == 0
        assert "residual=" in capsys.readouterr().out
        report = json.loads(path.read_text())
        assert set(report) == {"h_hat", "s_hat", "B_hat", "residual",
                               "subspace_angle"}
        assert len(report["h_hat"]) == 8
        assert len(report["s_hat"]) == 1000
        assert abs(np.linalg.norm(report["h_hat"]) - 1.0) <= 1e-12
        assert report["subspace_angle"] < np.radians(5.0)

    def test_block_dump(self, tmp_path):
        path = tmp_path / "blocks.csv"
        assert main(self.ARGS + ["--dump-blocks", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1000
        assert len(lines[0].split(",")) == 8

    def test_degenerate_code_leaves_stderr_empty(self, capsys):
        # alamouti's top Rayleigh eigenvalue is 4-fold by structure
        assert main(self.ARGS) == 0
        assert capsys.readouterr().err == ""

    def test_byte_identical_json(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--json", str(p1)]) == 0
        assert main(self.ARGS + ["--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestKyfan:
    def test_run(self, tmp_path, capsys):
        path = tmp_path / "kyfan.json"
        assert main(["kyfan", "--m", "6", "--q", "3", "--seed", "2",
                     "--samples", "500", "--json", str(path)]) == 0
        assert "passed=true" in capsys.readouterr().out
        report = json.loads(path.read_text())
        assert report["m"] == 6
        assert report["passed"] is True
        assert report["max_trace"] <= report["bound"]

    def test_rejects_bad_q(self, capsys):
        assert main(["kyfan", "--m", "3", "--q", "9", "--seed", "0",
                     "--samples", "10"]) == 1
        assert "error" in capsys.readouterr().err


class TestParser:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["bstar", "--code", "alamouti", "--bogus"])
        assert exc.value.code == 2

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


def _python_env(**extra):
    """The environment of a child interpreter that imports this package."""
    src = str(Path(ostbc_blind.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_loads_no_scipy():
    probe = ("import sys, ostbc_blind.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=_python_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_cli_import_compiles_no_generated_code():
    # A frozen dataclass compiles six generated methods when it is defined;
    # the package's records compile nothing at import.
    probe = ("import argparse, csv, json, sys\n"
             "import numpy\n"
             "names = []\n"
             "def hook(event, args):\n"
             "    if event == 'compile':\n"
             "        names.append(args[1])\n"
             "sys.addaudithook(hook)\n"
             "import ostbc_blind.cli\n"
             "print(names.count('<string>'))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=_python_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "0"


def test_float_tables_are_built_by_the_first_array_written(tmp_path,
                                                           monkeypatch):
    # Built at import, the formatter's tables cost every command about
    # 0.5 MB of peak RSS.
    probe = ("import ostbc_blind.cli, ostbc_blind._floattext as f; "
             "print(f._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=_python_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "0"
    monkeypatch.chdir(tmp_path)
    _floattext._tables.cache_clear()
    assert main(["bstar", "--code", "alamouti", "--json", "b.json"]) == 0
    assert _floattext._tables.cache_info().currsize == 0
    assert main(["estimate", "--code", "alamouti", "--rx", "2", "--blocks",
                 "10", "--sigma2", "0.01", "--seed", "1",
                 "--json", "e.json"]) == 0
    assert _floattext._tables.cache_info().currsize == 1


def test_outputs_independent_of_blas_threads(tmp_path):
    runs = [
        ["bspace", "--code", "alamouti", "--rx", "64", "--seed", "3",
         "--json", "bspace.json"],
        ["estimate", "--code", "alamouti", "--rx", "3", "--blocks", "500",
         "--sigma2", "0.01", "--seed", "7", "--json", "estimate.json",
         "--dump-blocks", "blocks.csv"],
        # 2MN = 256 > K^2 + 4: the iterative path, not the whole space
        ["estimate", "--code", "alamouti", "--rx", "64", "--blocks", "500",
         "--sigma2", "0.01", "--seed", "7", "--json", "estimate-rx64.json"],
        ["census", "--code", "alamouti-k2", "--rx-max", "2", "--trials", "5",
         "--seed", "11", "--csv", "census.csv", "--json", "census.json"],
        # three batches of Stiefel draws
        ["kyfan", "--m", "6", "--q", "3", "--seed", "2", "--samples",
         "20000", "--json", "kyfan.json"],
    ]
    script = ("import sys; from ostbc_blind.cli import main; "
              f"sys.exit(max(main(argv) for argv in {runs!r}))")
    results = []
    for threads in ("1", "2"):
        workdir = tmp_path / f"threads{threads}"
        workdir.mkdir()
        env = _python_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             cwd=workdir, capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stderr == ""
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        assert len(files) == 7
        results.append((out.stdout, files))
    assert results[0] == results[1]


def assert_same_text(got, want):
    """Equal texts; on a mismatch pytest names the first differing line,
    where its diff of two long texts would take minutes."""
    assert got.split("\n") == want.split("\n")


class TestJsonWriter:
    """The streamed writer gives exactly the text of json.dumps."""

    @staticmethod
    def reference(payload):
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          default=np.ndarray.tolist) + "\n"

    @pytest.mark.parametrize("argv", [
        ["bstar", "--code", "alamouti"],
        ["bspace", "--code", "alamouti-k2", "--rx", "3", "--seed", "4"],
        ["census", "--code", "real2", "--rx-max", "2", "--trials", "3",
         "--seed", "5"],
        ["estimate", "--code", "alamouti", "--rx", "2", "--blocks", "50",
         "--sigma2", "0.01", "--seed", "13"],
        ["kyfan", "--m", "5", "--q", "2", "--seed", "2", "--samples", "50"],
        # s_hat of shape (J, 1), one row past a chunk
        ["estimate", "--code", "scalar", "--rx", "3", "--blocks",
         str(cli.CHUNK_NUMBERS + 1), "--sigma2", "0.01", "--seed", "3"],
        # two chunks of s_hat, with a symbol below 1e-4 that repr formats
        ["estimate", "--code", "alamouti", "--rx", "2", "--blocks", "3000",
         "--sigma2", "0.01", "--seed", "5", "--constellation", "gaussian"],
    ])
    def test_every_subcommand_payload(self, argv, tmp_path, monkeypatch):
        payloads = []
        original = cli._write_json

        def recording(payload, path):
            payloads.append(payload)
            original(payload, path)

        monkeypatch.setattr(cli, "_write_json", recording)
        path = tmp_path / "out.json"
        assert main(argv + ["--json", str(path)]) == 0
        assert len(payloads) == 1
        if "gaussian" in argv:
            assert np.abs(payloads[0]["s_hat"]).min() < 1e-4
        assert_same_text(path.read_text(), self.reference(payloads[0]))

    @pytest.mark.parametrize("payload", [
        {"nan": float("nan"), "inf": [float("inf"), -float("inf"), 1.5]},
        {"mixed": [1.0, float("nan")], "nested": [[0.1, -0.0], [5e-324]]},
        {"empty_list": [], "empty_dict": {}, "none": None},
        {"flags": [True, False], "ints": [1, -2, 3], "mix": [1, 2.5, None]},
        {"z": {"b": 1, "a": {"y": [2.0], "x": "text"}}, "a": [[], {}]},
        [], {}, [{"b": 1.0, "a": 2}], 0.1, float("nan"), None, True, 7, "s",
        {"tuple": (1, 2.5, "x"), "text": "ångström \u2713 \"q\"\n",
         "counts": {"2": {"b": 3, "a": -4}, "1": 0, "10": {}}},
    ])
    def test_edge_cases(self, payload, tmp_path):
        path = tmp_path / "out.json"
        cli._write_json(payload, path)
        assert_same_text(path.read_text(), self.reference(payload))

    @pytest.mark.parametrize("payload", [
        np.array([1.5, np.nan, 2.0]),
        {"a": np.array([[np.inf, 1.0], [2.0, -np.inf]])},
        np.arange(6).reshape(2, 3),
        np.array([True, False]),
        np.linspace(-1.0, 1.0, 7),
        np.array([0.1, -0.0, 5e-324, 1e308, -2.5e-300]),
        np.empty((0, 4)),
        np.empty((3, 0)),
        np.empty(0),
        np.array(0.25),
        np.arange(24.0).reshape(2, 3, 4) / 7,
        np.arange(12.0).reshape(3, 4)[:, ::2] / 3,
        np.arange(6.0, dtype=np.float32) / 3,
        [np.array([1.0]), {"x": np.array([[2.0]])}],
    ], ids=lambda payload: repr(payload)[:40])
    def test_array_edge_cases(self, payload, tmp_path):
        path = tmp_path / "out.json"
        cli._write_json(payload, path)
        assert_same_text(path.read_text(), self.reference(payload))

    @pytest.mark.parametrize("width", [None, 1, 4, 5])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_arrays_across_a_chunk(self, width, offset, rng, tmp_path):
        shape = (cli.CHUNK_NUMBERS // (width or 1) + offset,)
        if width is not None:
            shape += (width,)
        payload = {"a": rng.standard_normal(shape), "b": 1.0}
        path = tmp_path / "out.json"
        cli._write_json(payload, path)
        assert_same_text(path.read_text(), self.reference(payload))


def test_block_dump_matches_row_by_row_repr(tmp_path):
    # 8 numbers per block, so the dump spans two full chunks and one row
    J = 2 * (cli.CHUNK_NUMBERS // 8) + 1
    path = tmp_path / "blocks.csv"
    assert main(["estimate", "--code", "alamouti", "--rx", "2", "--blocks",
                 str(J), "--sigma2", "0.01", "--seed", "13",
                 "--dump-blocks", str(path)]) == 0
    code = builtin_code("alamouti")
    blocks = estimator.simulate(estimator.SimulationConfig(
        code, 2, estimator.ConstellationModel.iid_pm1(code.K), J, 0.01, 13))[0]
    assert_same_text(path.read_text(), "".join(
        ",".join(repr(float(x)) for x in row) + "\n" for row in blocks))


def test_estimate_memory_is_its_arrays(tmp_path):
    """The traced peak grows by at most one blocks row (2ML = 8 numbers)
    and one s_hat row (K = 4) per block: 96 B, bounded here by 128 B."""
    def peak(J):
        tracemalloc.start()
        try:
            assert main(["estimate", "--code", "alamouti", "--rx", "2",
                         "--blocks", str(J), "--sigma2", "0.01", "--seed", "1",
                         "--json", str(tmp_path / "e.json")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(80000) - peak(20000)) / 60000 <= 128


class TestHostileInput:
    """Bad input ends in one `error:` line, exit 1 and no warning."""

    @staticmethod
    def run_quiet(argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = main(argv)
        captured = capsys.readouterr()
        assert not caught
        return status, captured

    def assert_one_error(self, argv, capsys, needle):
        status, captured = self.run_quiet(argv, capsys)
        assert status == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert needle in lines[0]
        assert "Warning" not in captured.err + captured.out

    @pytest.mark.parametrize("sigma2", ["inf", "-inf", "nan"])
    def test_non_finite_noise(self, sigma2, capsys):
        self.assert_one_error(
            ["estimate", "--code", "alamouti", "--rx", "2", "--blocks", "10",
             f"--sigma2={sigma2}", "--seed", "1"], capsys, "noise variance")

    def test_estimate_without_receive_antenna(self, capsys):
        self.assert_one_error(
            ["estimate", "--code", "alamouti", "--rx", "0", "--blocks", "10",
             "--sigma2", "0.1", "--seed", "1"], capsys, "receive-antenna count")

    def test_covariance_above_the_budget(self, capsys, monkeypatch):
        # alamouti at --rx 3: 2ML = 12 rows, a 1152-byte covariance
        def simulate(config):
            raise AssertionError("simulate ran")

        monkeypatch.setattr(estimator, "MAX_BYTES", 1151)
        monkeypatch.setattr(estimator, "simulate", simulate)
        self.assert_one_error(
            ["estimate", "--code", "alamouti", "--rx", "3", "--blocks", "10",
             "--sigma2", "0.1", "--seed", "1"], capsys,
            "3 receive antennas need a 12 x 12 covariance of 1152 bytes, "
            "above the budget of 1151 bytes")

    @staticmethod
    def no_draws(monkeypatch):
        """Make every random draw fail the test."""
        class NoDraws:
            def standard_normal(self, *args):
                raise AssertionError("a random matrix was drawn")

        monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws())

    @pytest.mark.parametrize("argv", [
        ["bspace", "--code", "alamouti", "--rx", "3", "--seed", "1"],
        ["census", "--code", "alamouti", "--rx-max", "3", "--trials", "2",
         "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_channel_draw_above_the_budget(self, argv, capsys, monkeypatch):
        # alamouti at --rx 3: the draw of a 2 x 3 channel peaks at
        # 3 * 16 * 2 * 3 = 288 bytes
        monkeypatch.setattr(estimator, "MAX_BYTES", 287)
        self.no_draws(monkeypatch)
        self.assert_one_error(
            argv, capsys, "3 receive antennas need 288 bytes to draw a 2 x 3 "
            "channel, above the budget of 287 bytes")

    def test_channel_draw_at_the_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(estimator, "MAX_BYTES", 288)
        for argv in (["bspace", "--code", "alamouti", "--rx", "3", "--seed",
                      "1"],
                     ["census", "--code", "alamouti", "--rx-max", "3",
                      "--trials", "2", "--seed", "1"]):
            status, captured = self.run_quiet(argv, capsys)
            assert status == 0 and captured.err == ""

    def test_kyfan_matrix_above_the_budget(self, capsys, monkeypatch):
        # five 20000 x 20000 float arrays: 16 GB, refused before the draw
        self.no_draws(monkeypatch)
        self.assert_one_error(
            ["kyfan", "--m", "20000", "--q", "1", "--seed", "1"], capsys,
            "--m 20000 needs about 16000000000 bytes for five 20000 x 20000 "
            "arrays, above the budget of 2147483648 bytes")
        # 7327 is the largest m within the budget: it gets to the draw
        with pytest.raises(AssertionError, match="was drawn"):
            main(["kyfan", "--m", "7327", "--q", "1", "--seed", "1"])
        self.assert_one_error(
            ["kyfan", "--m", "7328", "--q", "1", "--seed", "1"], capsys,
            "above the budget of 2147483648 bytes")

    def test_kyfan_matrix_at_the_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BYTES", 5 * 8 * 6 * 6)
        status, captured = self.run_quiet(
            ["kyfan", "--m", "6", "--q", "3", "--seed", "1", "--samples",
             "100"], capsys)
        assert status == 0 and captured.err == ""
        monkeypatch.setattr(cli, "MAX_BYTES", 5 * 8 * 6 * 6 - 1)
        self.assert_one_error(
            ["kyfan", "--m", "6", "--q", "3", "--seed", "1"], capsys,
            "--m 6 needs about 1440 bytes for five 6 x 6 arrays, above the "
            "budget of 1439 bytes")

    @pytest.mark.parametrize("q", ["0", "5"])
    def test_kyfan_column_count_out_of_range(self, q, capsys, monkeypatch):
        self.no_draws(monkeypatch)
        self.assert_one_error(["kyfan", "--m", "4", "--q", q, "--seed", "1"],
                              capsys, f"q must lie in [1, 4], got {q}")

    def test_bspace_without_receive_antenna(self, capsys):
        self.assert_one_error(
            ["bspace", "--code", "alamouti", "--rx", "0", "--seed", "1"],
            capsys, "receive-antenna count")

    def test_code_without_matrices(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "empty", "N": 2, "L": 2, "K": 0,
                                    "C": []}))
        for action in (["codes", "validate"], ["bstar"]):
            self.assert_one_error(action + ["--code-file", str(path)], capsys,
                                  "K=0")

    @pytest.mark.parametrize("argv", [
        ["bstar", "--code", "alamouti", "--tol", "nan"],
        ["bstar", "--code", "alamouti", "--tol", "inf"],
        ["bstar", "--code", "alamouti", "--tol", "1e300"],
        ["bstar", "--code", "scalar", "--tol", "nan"],
        ["bspace", "--code", "real2", "--rx", "2", "--seed", "1", "--tol", "nan"],
        ["census", "--code", "alamouti", "--rx-max", "1", "--trials", "2",
         "--seed", "1", "--tol", "1.0"],
        ["estimate", "--code", "alamouti", "--rx", "2", "--blocks", "10",
         "--sigma2", "0.1", "--seed", "1", "--tol", "nan"],
        ["codes", "validate", "--code", "alamouti", "--tol", "nan"],
    ], ids=lambda argv: " ".join(argv[:3] + argv[-1:]))
    def test_tolerance_outside_unit_interval(self, argv, capsys):
        self.assert_one_error(argv, capsys, "tol must be finite and in (0, 1)")

    def test_tolerance_under_the_rounding_floor(self, capsys):
        # 1e-300 * sigma_max lies under the rounding of the kernel matrix:
        # the cut is the floor 32 * K^2 * eps * |H|_F
        status, captured = self.run_quiet(
            ["bspace", "--code", "alamouti", "--rx", "2", "--seed", "1",
             "--tol", "1e-300"], capsys)
        assert status == 0 and captured.err == ""
        assert " dim=4 " in captured.out

    def test_span_without_the_identity(self, monkeypatch, capsys):
        original = subspace._channel_bases

        def identity_replaced(code, unit, H0, tol):
            dims, mats = original(code, unit, H0, tol)
            # (E_11 - E_22)/sqrt(2) is a unit traceless symmetric matrix,
            # orthogonal to I and to every skew element: the basis stays
            # orthonormal and only the identity check of hr_basis fires
            mats = mats.copy()
            mats[:, 0] = 0.0
            mats[:, 0, 0, 0] = np.sqrt(0.5)
            mats[:, 0, 1, 1] = -np.sqrt(0.5)
            return dims, mats

        monkeypatch.setattr(subspace, "_channel_bases", identity_replaced)
        self.assert_one_error(
            ["bspace", "--code", "alamouti", "--rx", "2", "--seed", "1"],
            capsys, "first basis element is not I/sqrt(K): deviation 1.414e+00")

    def test_estimate_checks_tol_before_simulating(self, monkeypatch, capsys):
        def no_simulation(config):
            raise AssertionError("simulate ran before the tolerance check")

        monkeypatch.setattr(estimator, "simulate", no_simulation)
        self.assert_one_error(
            ["estimate", "--code", "alamouti", "--rx", "256", "--blocks",
             "1000", "--sigma2", "0.1", "--seed", "1", "--tol", "nan"],
            capsys, "tol must be finite and in (0, 1)")

    @pytest.mark.parametrize("argv", [
        ["bspace", "--code", "alamouti", "--rx", "2", "--seed", "-1"],
        ["census", "--code", "alamouti", "--rx-max", "1", "--trials", "2",
         "--seed", "-1"],
        ["estimate", "--code", "alamouti", "--rx", "2", "--blocks", "10",
         "--sigma2", "0.1", "--seed", "-1"],
        ["kyfan", "--m", "4", "--q", "2", "--seed", "-1"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed(self, argv, capsys):
        self.assert_one_error(argv, capsys, "--seed")

    def test_estimate_that_does_not_converge(self, monkeypatch, capsys):
        # at M=64 and sigma2=10 the subspace iteration needs several steps
        monkeypatch.setattr(estimator, "MAX_STEPS", 1)
        self.assert_one_error(
            ["estimate", "--code", "alamouti", "--rx", "64", "--blocks", "500",
             "--sigma2", "10", "--seed", "1"], capsys, "did not converge")

    @pytest.mark.parametrize("sigma2, needle", [
        ("1e308", "covariance has non-finite entries"),  # R overflows
        ("1e300", None),                                 # R finite: it runs
    ])
    def test_overflowing_covariance(self, sigma2, needle, capsys):
        argv = ["estimate", "--code", "alamouti", "--rx", "2", "--blocks",
                "10", "--sigma2", sigma2, "--seed", "1"]
        if needle is not None:
            self.assert_one_error(argv, capsys, needle)
        else:
            status, captured = self.run_quiet(argv, capsys)
            assert status == 0 and captured.err == ""

    @pytest.mark.parametrize("argv, needle", [
        # 8e18 bytes (6.94 EiB), which no 64-bit host can map, so the
        # allocation fails at once
        pytest.param(["census", "--code", "scalar", "--rx-max", "1",
                      "--trials", "1000000000000000000", "--seed", "1"],
                     "Unable to allocate 6.94 EiB", id="census"),
        # its 8e18-byte draw is refused against the budget before it is made
        pytest.param(["kyfan", "--m", "1000000000", "--q", "1", "--seed", "1"],
                     "above the budget of 2147483648 bytes", id="kyfan"),
    ])
    def test_allocation_beyond_any_address_space(self, argv, needle, capsys):
        self.assert_one_error(argv, capsys, needle)

    def test_antenna_count_beyond_any_index(self, capsys):
        self.assert_one_error(
            ["census", "--code", "alamouti", "--rx-max",
             "100000000000000000000", "--trials", "1", "--seed", "1"],
            capsys, "above the budget of 2147483648 bytes")

    def test_header_beyond_any_integer(self, tmp_path, capsys):
        text = json.dumps(code_to_dict(builtin_code("alamouti")))
        path = tmp_path / "huge_n.json"
        path.write_text(text.replace('"N": 2', '"N": 1e400', 1))
        for action in (["codes", "validate"], ["bstar"]):
            self.assert_one_error(action + ["--code-file", str(path)], capsys,
                                  "malformed code definition")

    @pytest.mark.parametrize("entry", [[10 ** 400, 0.0], {"a": 1}],
                             ids=["400-digit", "object"])
    def test_entry_that_is_no_number(self, entry, tmp_path, capsys):
        payload = code_to_dict(builtin_code("alamouti"))
        payload["C"][0][0][0] = entry
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(payload))
        self.assert_one_error(["bstar", "--code-file", str(path)], capsys,
                              "matrix 0 is not numeric")

    @pytest.mark.parametrize("part, value, kind", [
        (0, "1", "re is a str"), (1, False, "im is a bool"),
        (1, None, "im is a NoneType")], ids=["string", "false", "null"])
    def test_entry_part_that_is_no_number(self, part, value, kind, tmp_path,
                                          capsys):
        # float() would read "1" and false as the entry's own 1.0 and 0.0
        payload = code_to_dict(builtin_code("alamouti"))
        payload["C"][0][0][0][part] = value
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(payload))
        for action in (["codes", "validate"], ["bstar"]):
            self.assert_one_error(action + ["--code-file", str(path)], capsys,
                                  f"matrix 0 is not numeric: entry (0, 0) is "
                                  f"not an [re, im] pair of numbers: its {kind}")

    def test_name_that_is_no_string(self, tmp_path, capsys):
        payload = code_to_dict(builtin_code("alamouti"))
        payload["name"] = ["x"]
        path = tmp_path / "name.json"
        path.write_text(json.dumps(payload))
        for action in (["codes", "validate"], ["bstar"]):
            self.assert_one_error(action + ["--code-file", str(path)], capsys,
                                  "malformed code definition: name must be a "
                                  "JSON string, not a list")

    def test_header_beyond_any_index(self, tmp_path, capsys):
        text = json.dumps(code_to_dict(builtin_code("alamouti")))
        path = tmp_path / "huge_n.json"
        path.write_text(text.replace('"N": 2', f'"N": {10 ** 400}', 1))
        for action in (["codes", "validate"], ["bstar"]):
            self.assert_one_error(action + ["--code-file", str(path)], capsys,
                                  "malformed code definition: N, L and K "
                                  "must fit an array index")

    def test_entry_that_is_an_object(self, tmp_path, capsys):
        payload = code_to_dict(builtin_code("alamouti"))
        payload["C"][1][1][0] = {"a": 1}
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(payload))
        self.assert_one_error(["bstar", "--code-file", str(path)], capsys,
                              "matrix 1 is not numeric: entry (1, 0) is a "
                              "dict, not an [re, im] pair of numbers")

    @pytest.mark.parametrize("code, value", [
        ("scalar", 1.7), ("scalar", True), ("alamouti", 2.0),
        ("alamouti", "2")], ids=["fraction", "bool", "float", "string"])
    def test_header_that_is_no_integer(self, code, value, tmp_path, capsys):
        # int() would read each as the code's own N and load the code
        payload = code_to_dict(builtin_code(code))
        payload["N"] = value
        path = tmp_path / "header.json"
        path.write_text(json.dumps(payload))
        for action in (["codes", "validate"], ["bstar"]):
            self.assert_one_error(action + ["--code-file", str(path)], capsys,
                                  f"malformed code definition: N must be a "
                                  f"JSON integer, not a {type(value).__name__}")

    def test_ragged_matrix(self, tmp_path, capsys):
        payload = code_to_dict(builtin_code("alamouti"))
        del payload["C"][2][1][1]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(payload))
        self.assert_one_error(["bstar", "--code-file", str(path)], capsys,
                              "the rows of matrix 2 differ in length")

    @pytest.mark.parametrize("change, message", [
        (lambda p: p.pop("L"), "malformed code definition: 'L'"),
        (lambda p: p.update(C=5), "field 'C' must be a list of matrices"),
        (lambda p: p.update(C=[[]]), "matrix 0 is not two-dimensional")],
        ids=["no-L", "C-a-number", "C-an-empty-matrix"])
    def test_malformed_definition(self, change, message, tmp_path, capsys):
        payload = code_to_dict(builtin_code("alamouti"))
        change(payload)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        for action in (["codes", "validate"], ["bstar"]):
            status, captured = self.run_quiet(
                action + ["--code-file", str(path)], capsys)
            assert (status, captured.out) == (1, "")
            assert captured.err == f"error: {message}\n"

    def test_definition_that_is_no_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([code_to_dict(builtin_code("alamouti"))]))
        self.assert_one_error(["bstar", "--code-file", str(path)], capsys,
                              "a code definition must be a JSON object, "
                              "not a list")

    @pytest.mark.parametrize("header", [False, True],
                             ids=["bare", "inside-C"])
    def test_nesting_beyond_the_parser_depth(self, header, tmp_path, capsys):
        text = "[" * 100000 + "]" * 100000
        if header:
            text = ('{"name": "deep", "N": 2, "L": 2, "K": 1, "C": '
                    + text + "}")
        path = tmp_path / "deep.json"
        path.write_text(text)
        for action in (["codes", "validate"], ["bstar"]):
            self.assert_one_error(action + ["--code-file", str(path)], capsys,
                                  f"cannot parse {path}: maximum recursion "
                                  f"depth exceeded")

    @pytest.mark.parametrize("samples", [2 ** 32 + 1, 10 ** 20])
    def test_kyfan_sample_count_beyond_an_hour(self, samples, monkeypatch,
                                               capsys):
        def no_sampling(*args):
            raise AssertionError("sampled before the count check")

        monkeypatch.setattr(kyfan, "random_stiefel", no_sampling)
        self.assert_one_error(
            ["kyfan", "--m", "4", "--q", "2", "--seed", "1", "--samples",
             str(samples)], capsys, f"at most {kyfan.MAX_SAMPLES}")

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_kyfan_without_matrix(self, m, capsys):
        self.assert_one_error(["kyfan", "--m", m, "--q", "1", "--seed", "1"],
                              capsys, f"--m must be a positive matrix size, "
                                      f"got {m}")

    def test_non_finite_code_entry(self, tmp_path, capsys):
        payload = code_to_dict(builtin_code("alamouti"))
        payload["C"][1][0][1] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        status, captured = self.run_quiet(
            ["codes", "validate", "--code-file", str(path)], capsys)
        assert status == 1
        assert captured.err == ""
        assert captured.out.rstrip().endswith("FAIL")
        assert "unit_error=inf" in captured.out
        self.assert_one_error(["bstar", "--code-file", str(path)], capsys,
                              "failed validation")
