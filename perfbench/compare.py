"""Compare two program trees with this benchmark, in alternating pairs.

    python3 perfbench/compare.py BASE_TREE HEAD_TREE \
        [--workload cli-mix ...] [--seed 1]

Each tree is a directory holding ``src/ostbc_blind``, such as a checkout of
the parent commit and one of the change. Both are measured by this copy of
the benchmark, with identical settings: each run lasts the ``run_seconds``
of BENCHMARK.json. Ten pairs run per workload; pair i uses seed
``--seed + i`` and runs the base first when i is even and the head first
when i is odd.

For each workload and end-to-end metric the verdict is:

- ``failed``: some head command exited nonzero or failed the output check,
  so no timing of the head counts;
- ``improved``: the head wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the base's
  interquartile range;
- ``worse``: the head's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json (for a throughput, the bound of
  ``wall_s``);
- ``unresolved``: the base's own interquartile range, as a share of its
  median, is wider than the bound, and not every head run beats every
  base run;
- ``unchanged``: otherwise.

Every value, both sides' medians, quartiles and environments (git SHA
included), and the verdicts are written to ``perfbench/.work/compare.json``.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

PAIRS = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, head, better, bound, head_failed=0):
    """Classify head against base for one metric; values are paired.

    ``head_failed`` is the number of head commands that failed.
    """
    if head_failed:
        return "failed"
    sign = 1.0 if better == "lower" else -1.0   # sign * (x - y) > 0: x worse
    mb, mh = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    scale = abs(mb) if mb else 1.0
    if (wins >= 0.9 * len(base) and sign * (mb - mh) > 0
            and abs(mh - mb) > q3 - q1):
        return "improved"
    if (q3 - q1) / scale > bound:
        all_better = all(sign * (b - h) > 0 for b in base for h in head)
        return "unchanged" if all_better else "unresolved"
    if sign * (mh - mb) / scale > bound:
        return "worse"
    return "unchanged"


def summarize(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def compare(spec, base_tree, head_tree, workloads, seed):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    # Throughputs are judged with the bound of wall_s, the time they divide.
    for name in run.THROUGHPUT:
        metrics[name] = {"name": name, "unit": run.THROUGHPUT_UNIT,
                         "better": "higher", "bound": metrics["wall_s"]["bound"]}
    results = {}
    for w in workloads:
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            order = (("base", base_tree), ("head", head_tree))
            for side, tree in (order if i % 2 == 0 else order[::-1]):
                runs[side].append(run.run_workload(
                    tree, w, seed + i, spec["run_seconds"], 0))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        table = {}
        for name, m in metrics.items():
            values = {side: [{**r["metrics"], **r["extra"]}.get(name, {})
                             .get("value") for r in rs]
                      for side, rs in runs.items()}
            base, head = values["base"], values["head"]
            if None in base or None in head:
                continue
            table[name] = {"verdict": verdict(base, head, m["better"], m["bound"],
                                              failed["head"]),
                           "unit": m["unit"], "bound": m["bound"],
                           "base": summarize(base), "head": summarize(head)}
        results[w] = {
            "failed": failed,
            "attempted": {side: sum(r["attempted"] for r in rs)
                          for side, rs in runs.items()},
            "metrics": table,
            "env": {side: rs[0]["env"] for side, rs in runs.items()},
        }
    return results


def report_lines(results):
    lines = []
    for w, res in results.items():
        lines.append(f"{w}: failed base={res['failed']['base']}/"
                     f"{res['attempted']['base']} head={res['failed']['head']}/"
                     f"{res['attempted']['head']}")
        for name, m in res["metrics"].items():
            b, h = m["base"], m["head"]
            lines.append(
                f"  {name:24s} {m['verdict']:10s} base {b['median']:.6g} "
                f"[{b['q1']:.6g}, {b['q3']:.6g}]  head {h['median']:.6g} "
                f"[{h['q1']:.6g}, {h['q3']:.6g}] {m['unit']} n={b['n']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not (tree / "src" / "ostbc_blind" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/ostbc_blind/cli.py")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    os.environ.update(run.THREAD_ENV)
    results = compare(spec, args.base.resolve(), args.head.resolve(),
                      args.workload or list(WORKLOADS), args.seed)
    out = run.WORK / "compare.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print("\n".join(report_lines(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
