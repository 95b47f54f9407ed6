"""Layer tracing from outside the package, and the analysis of its spans.

Run as a script, this file is a stand-in for ``python -m ostbc_blind.cli``:

    python perfbench/tracing.py SPANS.json <cli arguments...>

It imports the CLI, wraps every public module-level function of each
``ostbc_blind`` module at every binding (``from .x import y`` copies a
function into other modules' namespaces, so each copy is replaced), counts
numpy and scipy SVDs, runs the command, and writes the spans kept in
memory to SPANS.json at exit. No file under ``src/`` changes.

A span is ``[name_id, start_ns, end_ns, parent_index]``. SVDs are counted
rather than spanned, so their time stays in the self time of the package
function that asked for them.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("ostbc", "gamma", "embed", "subspace", "census", "estimator",
           "kyfan", "cli")


def _array_bytes(value):
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    return 0


def _realify_bytes(counters, bound, result):
    # Computed from the array sizes the realified code holds.
    counters["ostbc.realify.phi_bytes"] += sum(
        _array_bytes(v) for v in vars(result).values())


def _kyfan_batch_bytes(counters, bound, result):
    # Computed as samples * m * q * 8 (float64 batch of Stiefel draws).
    spec = bound.arguments["spec"]
    counters["kyfan.batch_bytes"] += bound.arguments["samples"] * spec.m * spec.q * 8


# Hooks run after the call, with the bound arguments and the result.
COMPUTED = {
    "ostbc.realify": _realify_bytes,
    "kyfan.kyfan_sample_check": _kyfan_batch_bytes,
}


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock, counters = (self.spans, self.stack,
                                         time.perf_counter_ns, self.counters)
        hook = COMPUTED.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook:
                hook(counters, signature.bind(*args, **kwargs), result)
            return result
        return traced

    def count_svd(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters["linalg.svd.calls"] += 1
            if isinstance(result, tuple):
                # Computed from the size of the U factor returned.
                counters["linalg.svd.u_bytes"] += int(result[0].nbytes)
            return result
        return counted

    def install(self):
        """Wrap every binding of the package's public functions and SVDs."""
        modules = {m: sys.modules[f"ostbc_blind.{m}"] for m in MODULES
                   if f"ostbc_blind.{m}" in sys.modules}
        originals = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        self._rebind(list(modules.values()) + [sys.modules["ostbc_blind"]],
                     originals)

        svd_homes = [sys.modules.get(name) for name in
                     ("numpy.linalg", "numpy.linalg._linalg", "scipy.linalg",
                      "scipy.linalg._decomp_svd")]
        svd_homes = [m for m in svd_homes if m is not None and hasattr(m, "svd")]
        svds = {}
        for mod in svd_homes:
            if id(mod.svd) not in svds:
                svds[id(mod.svd)] = (mod.svd, self.count_svd(mod.svd))
        self._rebind(svd_homes, svds)

    @staticmethod
    def _rebind(namespaces, originals):
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "spans": self.spans, "counters": dict(self.counters)}, fh)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    import ostbc_blind.cli  # noqa: F401  (puts every module in sys.modules)
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["ostbc_blind.cli"].main(cli_args)
    finally:
        tracer.dump(out_path)


# ---- analysis, in the benchmark process ---------------------------------

def span_totals(trace):
    """Per-function self seconds and call counts from one process's spans.

    Self time is a span's duration minus the durations of its children;
    children of one span never overlap, since the CLI is single-threaded.
    """
    spans = trace["spans"]
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = Counter()
    calls = Counter()
    for i, (name_id, start, end, _) in enumerate(spans):
        name = trace["names"][name_id]
        self_s[name] += (end - start - child[i]) * 1e-9
        calls[name] += 1
    return self_s, calls


def parse_importtime(stderr, libraries=("numpy", "scipy"),
                     package="ostbc_blind"):
    """Import seconds of each library and of the package, from a
    ``-X importtime`` report.

    A module's self time goes to the outermost library import that
    encloses it, so the stdlib and numpy modules that scipy pulls in count
    as scipy. What no library import encloses goes to the package when a
    package module encloses it. Interpreter start counts for none.
    """
    nodes = []   # (depth, top-level package name, self seconds), print order
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        nodes.append((depth, name.strip().split(".")[0], int(fields[0]) * 1e-6))
    # A module is printed after everything it imported: its parent is the
    # next line one level up.
    parent = [None] * len(nodes)
    pending = {}
    for i in range(len(nodes) - 1, -1, -1):
        depth = nodes[i][0]
        parent[i] = pending.get(depth - 1)
        pending[depth] = i
    totals = dict.fromkeys((*libraries, package), 0.0)
    for i, (_, _, self_s) in enumerate(nodes):
        owner, j = None, i
        while j is not None:
            top = nodes[j][1]
            if top in libraries or (top == package and owner is None):
                owner = top
            j = parent[j]
        if owner is not None:
            totals[owner] += self_s
    return totals


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
