"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
from check import check_command
from tracing import parse_importtime
from workloads import WORKLOADS, bstar, build_commands, census, estimate, kyfan


@pytest.fixture
def runner(tmp_path):
    return run.Runner(run.ROOT, tmp_path)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_commands_depend_only_on_the_seed():
    for w in WORKLOADS:
        assert build_commands(w, 3) == build_commands(w, 3)
        assert build_commands(w, 3) != build_commands(w, 4)


def test_one_point_smoke_run(runner):
    commands = [census("alamouti-k2", 1, 2, 5)]
    plain = run.run_pass(runner, commands, traced=False)
    traced = run.run_pass(runner, commands, traced=True)
    for p in (plain, traced):
        (record,) = p.commands
        assert record.failure is None and record.returncode == 0
        assert record.outputs.keys() == {"census-alamouti-k2.csv",
                                         "census-alamouti-k2.json"}
    # Tracing must not change a single output byte.
    assert plain.commands[0].outputs == traced.commands[0].outputs
    assert set(run.end_to_end_metrics([0.5], [plain])) == dict(run.END_TO_END).keys()
    assert set(run.throughput_metrics([plain])) == {"census_trials_per_s"}
    imports = [{"numpy": 0.1, "scipy": 0.2, "ostbc_blind": 0.01}]
    layers = run.layer_metrics([run.pass_totals(traced)], [traced], [plain],
                               imports)
    assert set(layers) == {name for name, _ in run.PER_LAYER}
    assert layers["gamma.unit_gammas.calls"][0] > 0
    assert layers["linalg.svd.calls"][0] > 0
    assert layers["census.svd_per_trial"][0] > 0


def _corrupt_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("cmd, corrupt", [
    (bstar("alamouti"),
     lambda d: _corrupt_json(d / "bstar-alamouti.json",
                             lambda r: r.update(dim=3))),
    (census("alamouti", 2, 3, 7),
     lambda d: (d / "census-alamouti.csv").write_text(
         "\n".join((d / "census-alamouti.csv").read_text().splitlines()[:-1]) + "\n")),
    (estimate("alamouti", 2, 200, 7),
     lambda d: _corrupt_json(d / "estimate-alamouti-rx2.json",
                             lambda r: r.update(h_hat=[2 * x for x in r["h_hat"]]))),
    (kyfan(4, 2, 100, 7),
     lambda d: _corrupt_json(d / "kyfan.json", lambda r: r.update(passed=False))),
])
def test_checker_rejects_corrupted_output(runner, cmd, corrupt):
    launch = runner.cli(cmd.args)
    workdir = runner.workdir
    assert check_command(cmd, launch.returncode, launch.stdout, launch.stderr,
                         workdir) is None
    corrupt(workdir)
    assert check_command(cmd, launch.returncode, launch.stdout, launch.stderr,
                         workdir) is not None


def test_checker_rejects_failed_exit_and_stray_stderr(tmp_path):
    cmd = bstar("alamouti")
    assert check_command(cmd, 1, "", "error: boom\n", tmp_path) is not None
    assert check_command(cmd, 0, "", "Traceback (most recent call last)\n",
                         tmp_path) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cli-mix", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_importtime_attribution():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:        10 |         10 |         warnings",
        "import time:       200 |        210 |       numpy",
        "import time:        30 |         30 |           unittest",
        "import time:        40 |         40 |           numpy.testing",
        "import time:       300 |        370 |         scipy.linalg",
        "import time:         5 |        375 |       ostbc_blind.subspace",
        "import time:         7 |        592 |     ostbc_blind",
    ])
    t = parse_importtime(report)
    assert t["numpy"] == pytest.approx(210e-6)
    assert t["scipy"] == pytest.approx(370e-6)
    assert t["ostbc_blind"] == pytest.approx(12e-6)


@pytest.mark.parametrize("base, head, head_failed, expected", [
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [8] * 10, 0, "improved"),
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [14] * 10, 0, "worse"),
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [10.5] * 10, 0, "unchanged"),
    ([5, 20, 5, 20, 5, 20, 5, 20, 5, 20], [12] * 10, 0, "unresolved"),
    # A head that fails early looks faster; its timings must not count.
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [8] * 10, 1, "failed"),
])
def test_compare_verdicts(base, head, head_failed, expected):
    assert compare.verdict(base, head, "lower", 0.2, head_failed) == expected
