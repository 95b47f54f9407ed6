"""Benchmark of the ostbc-blind CLI: real command lines, timed from outside.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 55 --trace 0

One client runs a workload's command list (see ``workloads.py``) as
subprocesses, one after another (a closed loop with one client), and
repeats the whole list until ``--seconds`` is used up. Every command's
output is checked (``check.py``). BLAS and OpenMP threads are pinned to 1:
this is the single-threaded baseline. ``--workload all`` runs the
workloads in turn.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1``
it alternates untraced passes with passes run under ``tracing.py`` and
reports per-layer metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
record (environment, every command's time, exit status, peak RSS and
output SHA-256) is written under ``perfbench/.work/results/``.

The program under test is the source tree around this directory
(``src/ostbc_blind``), run with ``PYTHONPATH`` pointing at it; nothing is
installed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from check import check_command, file_digests
from tracing import parse_importtime, span_totals
from workloads import WORKLOADS, build_commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
TRACER = HERE / "tracing.py"

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_LAUNCHES_PER_PASS = 2
IMPORTTIME_LAUNCHES = 3
COMMAND_TIMEOUT_S = 60.0

# (name, unit); BENCHMARK.json lists the same names. Every workload
# reports each of them.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_bytes", "B"),
)
# Printed and recorded, but not in BENCHMARK.json: a throughput exists only
# on workloads that run its command kind, and failed_ratio is 0 on a
# correct program (the last line carries it as attempted/failed).
THROUGHPUT = {"census_trials_per_s": "census",
              "estimate_blocks_per_s": "estimate",
              "kyfan_samples_per_s": "kyfan"}
THROUGHPUT_UNIT = "1/s"
FAILED_RATIO = ("failed_ratio", "ratio")

PER_LAYER = (
    ("import.numpy_s", "s"),
    ("import.scipy_s", "s"),
    ("import.ostbc_blind_s", "s"),
    ("cli.self_s", "s"),
    ("ostbc.self_s", "s"),
    ("ostbc.builtin_code.calls", "count"),
    ("ostbc.validate_code.calls", "count"),
    ("ostbc.realify.self_s", "s"),
    ("ostbc.realify.phi_bytes", "B"),
    ("gamma.self_s", "s"),
    ("gamma.unit_gammas.calls", "count"),
    ("gamma.channel_kernel_matrix.self_s", "s"),
    ("embed.self_s", "s"),
    ("embed.null_space.self_s", "s"),
    ("linalg.svd.calls", "count"),
    ("linalg.svd.u_bytes", "B"),
    ("subspace.self_s", "s"),
    ("subspace.principal_angles.self_s", "s"),
    ("subspace.compute_bspace.self_s", "s"),
    ("subspace.lift_to_channel.self_s", "s"),
    ("census.self_s", "s"),
    ("census.write_census_csv.self_s", "s"),
    ("census.svd_per_trial", "ratio"),
    ("estimator.self_s", "s"),
    ("estimator.rayleigh_matrix.self_s", "s"),
    ("estimator.rayleigh_matrix.calls", "count"),
    ("estimator.estimate_channel.self_s", "s"),
    ("estimator.simulate.self_s", "s"),
    ("estimator.sample_R.self_s", "s"),
    ("estimator.decode.self_s", "s"),
    ("estimator.simulate_per_run", "ratio"),
    ("kyfan.self_s", "s"),
    ("kyfan.random_stiefel.self_s", "s"),
    ("kyfan.batch_bytes", "B"),
    ("trace.overhead_s", "s"),
)
COUNTERS = ("ostbc.realify.phi_bytes", "linalg.svd.calls", "linalg.svd.u_bytes",
            "kyfan.batch_bytes")


def child_env(tree):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(Path(tree).resolve() / "src")
    return env


@dataclass
class Launch:
    wall_s: float
    returncode: int
    maxrss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Launches processes in the run's scratch directory, one at a time."""

    def __init__(self, tree, workdir):
        self.workdir = Path(workdir)
        self.env = child_env(tree)

    def launch(self, argv):
        out_path, err_path = self.workdir / ".stdout", self.workdir / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                # wait4 gives this child's own peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Launch(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                      out_path.read_text(errors="replace"),
                      err_path.read_text(errors="replace"))

    def cli(self, args):
        return self.launch([sys.executable, "-m", "ostbc_blind.cli", *args])


@dataclass
class CommandRecord:
    args: tuple
    kind: str
    work: int
    wall_s: float
    returncode: int
    maxrss_mb: float
    failure: object          # None, or the reason the output was rejected
    outputs: dict            # file name -> {"bytes", "sha256"}


@dataclass
class Pass:
    traced: bool
    wall_s: float
    commands: list
    traces: list             # CommandTotals per command, when traced


def run_pass(runner, commands, traced):
    """Run the command list once, then check every output."""
    workdir = runner.workdir
    launches = []
    t0 = time.perf_counter()
    for i, cmd in enumerate(commands):
        if traced:
            argv = [sys.executable, str(TRACER), f".spans-{i}.json", *cmd.args]
            launches.append(runner.launch(argv))
        else:
            launches.append(runner.cli(cmd.args))
    wall = time.perf_counter() - t0
    records, traces = [], []
    for i, (cmd, ln) in enumerate(zip(commands, launches)):
        failure = check_command(cmd, ln.returncode, ln.stdout, ln.stderr, workdir)
        records.append(CommandRecord(cmd.args, cmd.kind, cmd.work, ln.wall_s,
                                     ln.returncode, ln.maxrss_mb, failure,
                                     file_digests(cmd, workdir)))
        for name in cmd.outputs:
            (workdir / name).unlink(missing_ok=True)
        if traced:
            spans = workdir / f".spans-{i}.json"
            traces.append(command_totals(json.loads(spans.read_text()))
                          if spans.exists() else None)
            spans.unlink(missing_ok=True)
    return Pass(traced, wall, records, traces)


def timed_passes(seconds, run_one, min_passes):
    """Run passes until another pass of average length would overrun.

    At least ``min_passes`` run, so that no timing rests on one pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_one(len(passes)))
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed + elapsed / len(passes) > seconds):
            return passes


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(setup_walls, passes):
    cmds = [c for p in passes for c in p.commands]
    return {
        "setup_s": (_median(setup_walls), len(setup_walls)),
        # One pass built from each command's median over the passes: a
        # burst of host load that slows one command of one pass moves no
        # median, where it would move that pass's total.
        "wall_s": (sum(_median([c.wall_s for c in same])
                       for same in zip(*(p.commands for p in passes))),
                   len(passes)),
        # Over every command of the run: a median within one pass is a
        # single command's time, and on compute-mix it flips between the
        # slowest census and kyfan from pass to pass.
        "cmd_p50_s": (_median([c.wall_s for c in cmds]), len(cmds)),
        "peak_rss_mb": (max((c.maxrss_mb for c in cmds), default=0.0), len(cmds)),
        "output_bytes": (_median([sum(o["bytes"] for c in p.commands
                                      for o in c.outputs.values())
                                  for p in passes]), len(passes)),
    }


def throughput_metrics(passes):
    """Work units per second of each command kind's wall time, per pass,
    median over passes; only for the kinds the workload runs."""
    metrics = {}
    for name, kind in THROUGHPUT.items():
        rates = []
        for p in passes:
            mine = [c for c in p.commands if c.kind == kind]
            if mine:
                rates.append(sum(c.work for c in mine)
                             / sum(c.wall_s for c in mine))
        if rates:
            metrics[name] = (_median(rates), len(rates))
    return metrics


@dataclass
class CommandTotals:
    """Self seconds and calls per wrapped function, and counters."""

    self_s: Counter
    calls: Counter
    counters: Counter


def command_totals(trace):
    self_s, calls = span_totals(trace)
    return CommandTotals(self_s, calls, Counter(trace["counters"]))


@dataclass
class PassTotals(CommandTotals):
    census_svds: int
    census_trials: int


def pass_totals(p):
    """Layer totals summed over the commands of one traced pass."""
    total = PassTotals(Counter(), Counter(), Counter(), 0, 0)
    for cmd, t in zip(p.commands, p.traces):
        if t is None:
            continue
        total.self_s.update(t.self_s)
        total.calls.update(t.calls)
        total.counters.update(t.counters)
        if cmd.kind == "census":
            total.census_svds += t.counters["linalg.svd.calls"]
            total.census_trials += cmd.work
    return total


def _layer_value(name, t):
    if name in COUNTERS:
        return t.counters[name]
    if name == "census.svd_per_trial":
        return t.census_svds / t.census_trials if t.census_trials else 0.0
    if name == "estimator.simulate_per_run":
        runs = t.calls["estimator.run_estimate"]
        return t.calls["estimator.simulate"] / runs if runs else 0.0
    if name.endswith(".calls"):
        return t.calls[name[:-len(".calls")]]
    key = name[:-len(".self_s")]
    if "." in key:
        return t.self_s[key]
    return sum(v for k, v in t.self_s.items() if k.startswith(key + "."))


def layer_metrics(totals, traced, untraced, imports):
    """Per-layer metrics: medians over traced passes (``totals``)."""
    metrics = {}
    for name, _ in PER_LAYER:
        if name.startswith("import."):
            pkg = name[len("import."):-len("_s")]
            metrics[name] = (_median([t[pkg] for t in imports]), len(imports))
        elif name == "trace.overhead_s":
            metrics[name] = (_median([p.wall_s for p in traced])
                             - _median([p.wall_s for p in untraced]),
                             len(traced) + len(untraced))
        else:
            metrics[name] = (_median([_layer_value(name, t) for t in totals]),
                             len(totals))
    return metrics


def function_table(totals):
    """Median self seconds and calls per wrapped function, for the record."""
    names = sorted(set().union(*(t.calls for t in totals)))
    return {k: {"self_s": _median([t.self_s[k] for t in totals]),
                "calls": totals[0].calls[k]} for k in names}


def environment(tree, seed):
    import numpy   # after THREAD_ENV is in os.environ
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "threads": THREAD_ENV,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(tree),
        "seed": seed,
    }


def git_sha(tree):
    # Only a checkout with its own .git: git would otherwise report the
    # commit of whatever repository happens to enclose the directory.
    if not (Path(tree) / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_workload(tree, workload, seed, seconds, trace):
    """Run one measurement and return the full result record."""
    commands = build_commands(workload, seed)
    workdir = WORK / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(tree, workdir)
    try:
        if trace:
            imports = [parse_importtime(runner.launch(
                [sys.executable, "-X", "importtime", "-c",
                 "import ostbc_blind.cli"]).stderr)
                for _ in range(IMPORTTIME_LAUNCHES)]
            passes = timed_passes(seconds, lambda i: run_pass(
                runner, commands, traced=i % 2 == 1), min_passes=2)
            traced = [p for p in passes if p.traced]
            untraced = [p for p in passes if not p.traced]
            totals = [pass_totals(p) for p in traced]
            metrics = layer_metrics(totals, traced, untraced, imports)
            units = dict(PER_LAYER)
            functions = function_table(totals)
        else:
            # Set-up launches precede every pass, so that setup_s samples
            # the whole run rather than its first seconds.
            setup_walls = []

            def setup_then_pass(i):
                setup_walls.extend(
                    runner.launch([sys.executable, "-c",
                                   "import ostbc_blind.cli"]).wall_s
                    for _ in range(SETUP_LAUNCHES_PER_PASS))
                return run_pass(runner, commands, traced=False)

            passes = timed_passes(seconds, setup_then_pass, min_passes=2)
            metrics = end_to_end_metrics(setup_walls, passes)
            units = dict(END_TO_END)
            functions = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = [c for p in passes for c in p.commands]
    failed = sum(1 for c in records if c.failure is not None)
    extra = {}
    if not trace:
        extra = {k: {"value": v, "unit": THROUGHPUT_UNIT, "n": n}
                 for k, (v, n) in throughput_metrics(passes).items()}
        extra[FAILED_RATIO[0]] = {"value": failed / len(records),
                                  "unit": FAILED_RATIO[1], "n": len(records)}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(tree, seed),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k], "n": n}
                    for k, (v, n) in metrics.items()},
        "extra": extra,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "commands": [vars(c) for c in p.commands]}
                   for p in passes],
        "functions": functions,
    }


def summary_lines(result):
    lines = [f"workload={result['workload']} seed={result['seed']} "
             f"trace={result['trace']} passes={len(result['passes'])} "
             f"attempted={result['attempted']} failed={result['failed']}"]
    for name, m in result["metrics"].items():
        note = " (computed)" if name in COUNTERS and name.endswith("_bytes") else ""
        lines.append(f"  {name:38s} {m['value']:>16.6g} {m['unit']:6s} "
                     f"n={m['n']}{note}")
    if not result["trace"]:
        for name, kind in THROUGHPUT.items():
            if name not in result["extra"]:
                lines.append(f"  {name:38s} {'n/a':>16s} {THROUGHPUT_UNIT:6s} "
                             f"(no {kind} command in this workload)")
    for name, m in result["extra"].items():
        lines.append(f"  {name:38s} {m['value']:>16.6g} {m['unit']:6s} "
                     f"n={m['n']}")
    for c in (c for p in result["passes"] for c in p["commands"]):
        if c["failure"] is not None:
            lines.append(f"  FAILED {' '.join(c['args'])}: {c['failure']}")
    return lines


def contract_line(results):
    """The last output line; with several workloads, metrics per workload."""
    metrics = {r["workload"]: {k: {"value": m["value"], "unit": m["unit"]}
                               for k, m in r["metrics"].items()}
               for r in results}
    return json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics if len(results) > 1 else metrics[results[0]["workload"]],
    })


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "ostbc_blind" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'ostbc_blind'} "
              f"is missing", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # A terminated run still kills and reaps the command it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(ROOT, name, args.seed, args.seconds, args.trace)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print("\n".join(summary_lines(result)), flush=True)
        results.append(result)
    print("env " + json.dumps(results[0]["env"], sort_keys=True))
    print(contract_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
