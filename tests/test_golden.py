import copy

import golden


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
