"""Workload definitions: fixed lists of ostbc-blind CLI command lines.

Every ``--seed`` a command receives is derived from the benchmark seed, so
the same benchmark seed always produces the same command lines. Output
file names are relative; commands run with the scratch directory of the
run as their working directory.
"""

import random
from dataclasses import dataclass

CODES = ("alamouti", "alamouti-k3", "alamouti-k2", "scalar", "real2")

# Expected dim B*, from the Hurwitz-Radon structure of each builtin code.
DIM_BSTAR = {"alamouti": 4, "alamouti-k3": 1, "alamouti-k2": 2,
             "scalar": 1, "real2": 2}
CODE_SHAPE = {"alamouti": (2, 2, 4), "alamouti-k3": (2, 2, 3),
              "alamouti-k2": (2, 2, 2), "scalar": (1, 1, 1),
              "real2": (2, 2, 2)}   # (N, L, K)

SIGMA2 = 0.01


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what it should produce.

    ``params`` holds the values the output checker needs (code, sizes,
    output file names); ``work`` is the unit count a throughput metric
    divides by: channel trials, blocks or samples.
    """

    kind: str
    args: tuple
    params: dict
    work: int = 0

    @property
    def outputs(self):
        return tuple(v for k, v in sorted(self.params.items())
                     if k in ("json", "csv"))


def _seeds(seed):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2 ** 31)


def codes_list():
    return Command("codes-list", ("codes", "list"), {})


def codes_validate(code):
    return Command("codes-validate", ("codes", "validate", "--code", code),
                   {"code": code})


def bstar(code):
    out = f"bstar-{code}.json"
    return Command("bstar", ("bstar", "--code", code, "--json", out),
                   {"code": code, "json": out})


def bspace(code, rx, seed):
    out = f"bspace-{code}.json"
    return Command("bspace", ("bspace", "--code", code, "--rx", str(rx),
                              "--seed", str(seed), "--json", out),
                   {"code": code, "rx": rx, "json": out})


def census(code, rx_max, trials, seed):
    csv, js = f"census-{code}.csv", f"census-{code}.json"
    return Command("census", ("census", "--code", code, "--rx-max", str(rx_max),
                              "--trials", str(trials), "--seed", str(seed),
                              "--csv", csv, "--json", js),
                   {"code": code, "rx_max": rx_max, "trials": trials,
                    "csv": csv, "json": js},
                   work=rx_max * trials)


def estimate(code, rx, blocks, seed):
    out = f"estimate-{code}-rx{rx}.json"
    return Command("estimate", ("estimate", "--code", code, "--rx", str(rx),
                                "--blocks", str(blocks), "--sigma2", str(SIGMA2),
                                "--seed", str(seed), "--json", out),
                   {"code": code, "rx": rx, "blocks": blocks, "json": out},
                   work=blocks)


def kyfan(m, q, samples, seed):
    out = f"kyfan.json"
    return Command("kyfan", ("kyfan", "--m", str(m), "--q", str(q),
                             "--seed", str(seed), "--samples", str(samples),
                             "--json", out),
                   {"m": m, "q": q, "samples": samples, "json": out},
                   work=samples)


def cli_mix(seeds):
    return ([codes_list()]
            + [codes_validate(c) for c in CODES]
            + [bstar(c) for c in CODES]
            + [bspace(c, 2, next(seeds)) for c in CODES]
            + [census("alamouti", 2, 10, next(seeds)),
               estimate("alamouti", 2, 1000, next(seeds)),
               kyfan(6, 3, 1000, next(seeds))])


def compute_mix(seeds):
    """The heavy kernels, each behind one interpreter start: a census sweep
    over every builtin code (many tiny kernels), the M=256 array (tall SVD,
    dense Phi operators, large eigh) and a long stream (work grows with J
    and the sample count at tiny dimension). They share one workload so that
    each of the two workloads can run long enough to average out the host's
    speed drift."""
    return ([census(c, 4, 100, next(seeds)) for c in CODES]
            + [bspace("alamouti", 256, next(seeds)),
               estimate("alamouti", 256, 1000, next(seeds)),
               estimate("alamouti", 2, 100000, next(seeds)),
               kyfan(6, 3, 250000, next(seeds))])


WORKLOADS = {
    "cli-mix": cli_mix,
    "compute-mix": compute_mix,
}


def build_commands(workload, seed):
    """The command list of a workload for one benchmark seed."""
    return WORKLOADS[workload](_seeds(seed))
