import copy
import json

import pytest

import golden

# Command lines that the CI workflow once ran by hand, each with the exit
# status it required; the manifest holds them now, so an update that drops
# one or changes its status fails here.
MOVED_FROM_CI = {
    "estimate --code scalar --rx 64 --blocks 2000 --sigma2 10 --seed 3": 0,
    "census --code-file real4x3.json --rx-max 1 --trials 50 --seed 1": 1,
    "codes validate --code-file no-l.json": 1,
    "codes validate --code-file c-number.json": 1,
    "codes validate --code-file c-empty.json": 1,
    "census --code-file k2-mixed.json --rx-max 3 --trials 200 --seed 16 "
    "--tol 1e-15": 0,
    "estimate --code alamouti --rx 100000 --blocks 10 --sigma2 0.01 "
    "--seed 1": 1,
}

# Command lines at either side of the channel-draw budget that bounds
# bspace and the census, each with the exit status it requires.
CHANNEL_BUDGET = {
    "bspace --code alamouti --rx 1000000 --seed 1 --json s.json": 0,
    "bspace --code alamouti --rx 22369622 --seed 1": 1,
}


def test_recorded_outputs_are_reproduced():
    manifest = golden.load()
    assert manifest["lines"]
    assert golden.check(manifest) == []


def test_parsed_comparison_tolerates_only_the_last_bits():
    manifest = golden.load()
    [want] = [e for e in manifest["lines"]
              if e["argv"][:3] == ["bspace", "--code-file", "rot3.json"]]
    got = golden.record(want["argv"], manifest["files"])
    assert golden.compare(want, got, exact=True) == []
    assert golden.compare(want, got, exact=False) == []
    skeleton, numbers = got["parsed"]["s.json"]
    i = max(range(len(numbers)), key=lambda i: abs(numbers[i]))
    near, far = copy.deepcopy(got), copy.deepcopy(got)
    near["parsed"]["s.json"][1][i] *= 1 + 1e-12
    far["parsed"]["s.json"][1][i] *= 1 + 1e-6
    far["sha256"]["stdout"] = "0" * 64
    assert golden.compare(want, near, exact=False) == []
    assert golden.compare(want, far, exact=False) == [
        f"{' '.join(want['argv'])}: s.json numbers differ"]
    assert golden.compare(want, far, exact=True) == [
        f"{' '.join(want['argv'])}: stdout bytes differ"]


def test_lines_moved_from_ci_keep_their_exit_status():
    recorded = {" ".join(e["argv"]): e["status"]
                for e in golden.load()["lines"]}
    assert {line: recorded.get(line) for line in MOVED_FROM_CI} == MOVED_FROM_CI


@pytest.mark.parametrize("line", [line for line, status
                                  in MOVED_FROM_CI.items() if status])
def test_lines_moved_from_ci_fail_in_one_error_line(line):
    status, outputs = golden.run_line(line.split(), golden.load()["files"])
    lines = outputs["stderr"].decode().splitlines()
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_channel_budget_lines_keep_their_exit_status():
    recorded = {" ".join(e["argv"]): e["status"]
                for e in golden.load()["lines"]}
    assert ({line: recorded.get(line) for line in CHANNEL_BUDGET}
            == CHANNEL_BUDGET)
    [line] = [line for line, status in CHANNEL_BUDGET.items() if status]
    status, outputs = golden.run_line(line.split(), {})
    assert outputs["stderr"].decode().splitlines() == [
        "error: 22369622 receive antennas need 2147483712 bytes to draw a "
        "2 x 22369622 channel, above the budget of 2147483648 bytes"]


def test_update_lists_each_changed_line_and_part(tmp_path, monkeypatch,
                                                 capsys):
    recorded = golden.load()
    wanted = [["bstar", "--code", "alamouti-k3", "--json",
               "bstar-alamouti-k3.json"],
              ["bstar", "--code", "scalar", "--json", "bstar-scalar.json"],
              ["codes", "validate", "--code", "real2"],
              ["codes", "list"]]
    old = {tuple(e["argv"]): copy.deepcopy(e) for e in recorded["lines"]
           if e["argv"] in wanted[:3]}
    first, second, third = (old[tuple(argv)] for argv in wanted[:3])
    first["status"] = 1
    first["sha256"]["bstar-alamouti-k3.json"] = "0" * 64
    second["sha256"]["stdout"] = second["sha256"]["stderr"] = "0" * 64
    gone = copy.deepcopy(third)
    gone["argv"] = ["codes", "validate", "--code", "alamouti"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(recorded | {"lines": [*old.values(), gone]}))
    monkeypatch.setattr(golden, "MANIFEST", path)
    monkeypatch.setattr(golden, "_lines", lambda: list(map(tuple, wanted)))
    golden.update()
    assert capsys.readouterr().out.splitlines() == [
        "changed: bstar --code alamouti-k3 --json bstar-alamouti-k3.json: "
        "status, bstar-alamouti-k3.json",
        "changed: bstar --code scalar --json bstar-scalar.json: stderr, "
        "stdout",
        "added: codes list",
        "removed: codes validate --code alamouti"]
    assert [e["argv"] for e in golden.load()["lines"]] == wanted
