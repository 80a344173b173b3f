"""Span tracing for the benchmark's traced run, and the per-layer metrics.

Spans are recorded from the benchmark's side, never inside the library:
``Tracer.install`` replaces every public function of each layer module by
a wrapper, wherever the package binds it -- the re-exports in
``multiphoton`` and the names ``cli`` and ``optimize`` import from other
modules included.  A span holds its name, parent, op id, start and end;
spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("linalg", "sources", "circuits", "coincidence", "visibility", "optimize", "fockspace", "cli")
# Not wrapped: as_complex_matrix runs inside nearly every other linalg call
# and golden_section_max is maximize_classical's inner loop, so their time
# stays in their caller's self time.
UNWRAPPED = {"linalg.as_complex_matrix", "optimize.golden_section_max"}
GENERAL = {"coincidence.coincidence_id_general", "coincidence.coincidence_dist_general"}
CLOSED_FORMS = {
    "coincidence.coincidence_hom",
    "coincidence.coincidence_dft3",
    "coincidence.coincidence_mismatch_n3",
    "coincidence.coincidence_sym_phase",
}
OPTIMIZE = ("scan_g2_dft", "scan_overlap", "scan_phase", "maximize_classical", "best_fock", "crossover_window")
CLI_KEYS = ("hom", "dft-vis", "mismatch", "sym", "coinc", "optimize-phi", "optimize-crossover", "verify")

# name: (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "linalg.permanent.calls": ("count", "lower", "ops_per_s, op_p50_ms on cold-tables; setup_s on warm-ensembles"),
    "linalg.permanent.self_s": ("s", "lower", "ops_per_s, op_p50_ms on cold-tables; setup_s on warm-ensembles"),
    "linalg.permanent.computed_flops": ("flop", "lower", "ops_per_s, op_p50_ms on cold-tables (sum of n*2^n, computed)"),
    "linalg.column_select.self_s": ("s", "lower", "op_p50_ms on cold-tables"),
    "linalg.permanent.n10_ms": ("ms", "lower", "none today: kernel probe, no workload reaches n > 7"),
    "linalg.permanent.n14_ms": ("ms", "lower", "none today: kernel probe, no workload reaches n > 7"),
    "linalg.permanent.n18_ms": ("ms", "lower", "none today: kernel probe, no workload reaches n > 7"),
    "circuits.build.calls": ("count", "lower", "op_p50_ms on cold-tables"),
    "circuits.build.self_s": ("s", "lower", "op_p50_ms on cold-tables (includes the unitarity check)"),
    "sources.build.self_s": ("s", "lower", "op_p50_ms on warm-ensembles"),
    "coincidence.table.misses": ("count", "lower", "ops_per_s on cold-tables"),
    "coincidence.table.hits": ("count", "higher", "ops_per_s on warm-ensembles"),
    "coincidence.table.patterns": ("count", "lower", "ops_per_s on cold-tables"),
    "coincidence.general.cold_self_s": ("s", "lower", "ops_per_s, op_p50_ms on cold-tables"),
    "coincidence.general.warm_self_s": ("s", "lower", "ops_per_s, op_p50_ms on warm-ensembles"),
    "coincidence.sum.nonzero_ratio": ("ratio", "higher", "ops_per_s on warm-ensembles (share of the sum not spent on zero terms)"),
    "coincidence.closed_form.calls": ("count", "lower", "op_p50_ms on cli-figures"),
    "coincidence.closed_form.self_s": ("s", "lower", "op_p50_ms on cli-figures"),
    "visibility.calls": ("count", "lower", "small share on every workload"),
    "visibility.self_s": ("s", "lower", "small share on every workload"),
    **{f"optimize.{f}.self_s": ("s", "lower", "op_p50_ms on cli-figures") for f in OPTIMIZE},
    "optimize.rows": ("count", "higher", "op_p50_ms on cli-figures (rows the scans produce)"),
    "fockspace.oracle.self_s": ("s", "lower", "op_p50_ms on cli-figures (through verify)"),
    "cli.startup_ms": ("ms", "lower", "op_p50_ms on cli-figures (its largest share)"),
    "cli.main.self_s": ("s", "lower", "op_p50_ms on cli-figures"),
    "cli.stdout_bytes": ("bytes", "lower", "op_p50_ms on cli-figures"),
    **{f"cli.cmd.{k}.ms": ("ms", "lower", "op_p50_ms, op_p90_ms on cli-figures") for k in CLI_KEYS},
    "trace.ops": ("count", "higher", "none: ops in each pass of the traced run"),
    "trace.spans": ("count", "lower", "none: spans the traced pass recorded"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced over untraced time per op"),
}


def _rows(result) -> int:
    if isinstance(result, list):
        return sum(len(r.rows) for r in result)
    return len(getattr(result, "rows", ()))


# What a span keeps of its call, for the metrics computed at the end.
INFO = {
    "linalg.permanent": lambda args, result: len(args[0]),
    **{name: lambda args, result: args[:2] for name in GENERAL},
    **{f"optimize.{f}": lambda args, result: _rows(result) for f in OPTIMIZE},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, op id, start, end, info]
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter, INFO.get(name)

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the layer modules currently in ``sys.modules``."""
        modules = {layer: sys.modules[f"multiphoton.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in (sys.modules["multiphoton"], *modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, parent, op, start, end, _ in self.spans:
                out.write(json.dumps([name, parent, op, start, end]) + "\n")


def _nonzero_pairs(mp, ensemble, patterns: dict) -> tuple[int, int]:
    """(pattern, ensemble) pairs whose source factor prod n_i^s_i g_i^(s_i)
    is nonzero, and all pairs, for one ensemble."""
    n = ensemble.n
    if n not in patterns:
        patterns[n] = np.array(mp.enumerate_exponent_tuples(n))
    s = patterns[n]
    table = np.zeros((n, n + 1), dtype=bool)
    for i, stat in enumerate(ensemble.stats):
        orders = min(n, stat.max_order) + 1
        table[i, :orders] = [stat.mean_n > 0 and g != 0 for g in stat.g[:orders]]
        table[i, 0] = True
    nonzero = table[np.arange(n), s].all(axis=1)
    return int(nonzero.sum()), len(s)


def aggregate(mp, tracer: Tracer, cached: set[bytes], scope_per_op: bool) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    ``cached`` holds the circuits whose weight table existed when the pass
    began; with ``scope_per_op`` every op starts from an empty table cache.
    """
    spans = tracer.spans
    duration = [end - start for _, _, _, start, end, _ in spans]
    children = [0.0] * len(spans)
    linalg_children = [0.0] * len(spans)
    for k, (name, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[k]
            if name.startswith("linalg."):
                linalg_children[parent] += duration[k]
    own = [d - c for d, c in zip(duration, children)]

    out = {name: 0.0 for name in PER_LAYER}
    seen = {(-1, key) for key in cached}
    patterns: dict = {}
    nonzero = pairs = 0
    for k, (name, parent, op, _, _, info) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if name == "linalg.permanent":
            out["linalg.permanent.calls"] += 1
            out["linalg.permanent.self_s"] += own[k]
            out["linalg.permanent.computed_flops"] += info * 2**info
        elif name == "linalg.column_select":
            out["linalg.column_select.self_s"] += own[k]
        elif layer == "circuits":
            out["circuits.build.calls"] += 1
            out["circuits.build.self_s"] += duration[k]
        elif layer == "sources":
            out["sources.build.self_s"] += own[k]
        elif name in GENERAL:
            circuit, ensemble = info
            key = (op if scope_per_op else -1, circuit.u.tobytes())
            if key in seen:
                out["coincidence.table.hits"] += 1
                out["coincidence.general.warm_self_s"] += own[k]
            else:
                seen.add(key)
                out["coincidence.table.misses"] += 1
                out["coincidence.table.patterns"] += math.comb(2 * circuit.n - 1, circuit.n - 1)
                out["coincidence.general.cold_self_s"] += duration[k] - linalg_children[k]
            a, b = _nonzero_pairs(mp, ensemble, patterns)
            nonzero, pairs = nonzero + a, pairs + b
        elif name in CLOSED_FORMS:
            out["coincidence.closed_form.calls"] += 1
            out["coincidence.closed_form.self_s"] += own[k]
        elif layer == "visibility":
            out["visibility.calls"] += 1
            out["visibility.self_s"] += own[k]
        elif layer == "optimize" and f"{name}.self_s" in out:
            out[f"{name}.self_s"] += own[k]
            out["optimize.rows"] += info
        elif layer == "fockspace":
            out["fockspace.oracle.self_s"] += own[k]
        elif layer == "cli":
            out["cli.main.self_s"] += own[k]
    out["coincidence.sum.nonzero_ratio"] = nonzero / pairs if pairs else 0.0
    out["trace.spans"] = len(spans)
    return out
