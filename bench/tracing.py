"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces public functions of each ``lethargy_lab`` module
with timing wrappers. Several names are imported by value (``distance`` into
``scenarios``, ``separation`` and ``witness``; ``solve_from_basis`` into
``distances``; ``achieved_distances`` into ``report``; the stage functions
into ``scenarios``), so each wrapper is written into every package namespace
that holds the original object. ``spaces.validate_chain`` imports
``distances.distance`` at call time and so sees the wrapper too.

numpy's ``svd`` is wrapped in ``numpy.linalg`` and in the module whose global
``matrix_rank`` calls, so SVDs inside rank tests are counted; it is counted,
not spanned, and its time falls into the caller's self time.

Spans stay in memory as ``[run, id, parent, name, start, end, info]`` and are
written out when the benchmark ends. None of the wrapped functions calls
itself, so a name's total time is the plain sum of its spans.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name); the layer is the span name's first part
TARGETS = (
    ("lethargy_lab.cli", "main", "cli.main"),
    ("lethargy_lab.cli", "_load_config", "cli.load_config"),
    ("lethargy_lab.scenarios", "run_scenario", "scenarios.run"),
    ("lethargy_lab.scenarios", "demo_dense_chain", "scenarios.demo"),
    ("lethargy_lab.scenarios", "validate_config", "scenarios.validate"),
    ("lethargy_lab.scenarios", "_normalized", "scenarios.normalize"),
    ("lethargy_lab.scenarios", "_build_chain", "scenarios.chain_build"),
    ("lethargy_lab.spaces", "Subspace.__init__", "spaces.subspace_new"),
    ("lethargy_lab.spaces", "orthonormal_rows", "spaces.orthonormal_rows"),
    ("lethargy_lab.spaces", "validate_chain", "spaces.validate_chain"),
    ("lethargy_lab.distances", "distance", "distances.distance"),
    ("lethargy_lab.distances", "project_euclidean", "distances.projection"),
    ("lethargy_lab.distances", "distance_lp", "distances.lp"),
    ("lethargy_lab.distances", "descent_distance", "distances.descent"),
    ("lethargy_lab.simplex", "solve_from_basis", "simplex.solve"),
    ("lethargy_lab.separation", "separation_profile", "separation.profile"),
    ("lethargy_lab.separation", "_exact_ratio", "separation.exact_ratio"),
    ("lethargy_lab.separation", "_sampled_ratio", "separation.sampled_ratio"),
    ("lethargy_lab.separation", "check_span_ratio_condition", "separation.span_check"),
    ("lethargy_lab.machinery", "build_index_plan", "machinery.plan"),
    ("lethargy_lab.machinery", "build_step_sequence", "machinery.steps"),
    ("lethargy_lab.machinery", "compute_tilde_a", "machinery.tilde_a"),
    ("lethargy_lab.machinery", "verify_step_inequality", "machinery.step_checks"),
    ("lethargy_lab.witness", "witness_solve", "witness.solve"),
    ("lethargy_lab.witness", "witness_coordinate_exact", "witness.exact"),
    ("lethargy_lab.witness", "achieved_distances", "witness.achieved"),
    ("lethargy_lab.report", "sandwich_check", "report.sandwich"),
    ("lethargy_lab.report", "write_json", "report.write_json"),
    ("lethargy_lab.report", "write_sandwich_csv", "report.write_csv"),
)

LAYERS = ("cli", "scenarios", "spaces", "distances", "simplex", "separation",
          "witness", "report", "machinery")


def _info(name, args, kwargs, result, exc):
    """Small per-call facts the layer metrics need, taken from arguments,
    results and exceptions only."""
    if name == "simplex.solve":
        a = args[1] if len(args) > 1 else kwargs["A"]
        shape = getattr(a, "shape", None) or (len(a), len(a[0]))
        if exc is not None:
            best = getattr(exc, "best", None)
            return {"raised": type(exc).__name__, "shape": list(shape),
                    "pivots": 0 if best is None else int(best.iterations)}
        return {"shape": list(shape), "pivots": int(result.iterations),
                "status": result.status}
    if exc is not None:
        return {"raised": type(exc).__name__}
    if name in ("distances.lp", "distances.descent"):
        return {"method": result.method, "iterations": int(result.iterations),
                "converged": bool(result.converged)}
    if name == "witness.solve":
        return {"converged": bool(result.converged)}
    if name in ("report.write_json", "report.write_csv"):
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return None


def svd_flops(shape, full_matrices: bool, compute_uv: bool) -> float:
    """Golub-Reinsch operation counts (Golub & Van Loan, Matrix Computations,
    4th ed., sec. 8.6) for an m x n SVD, m >= n after transposing."""
    m, n = max(shape), min(shape)
    if not compute_uv:
        return 4.0 * m * n * n - 4.0 * n ** 3 / 3
    if full_matrices:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    return 14.0 * m * n * n + 8.0 * n ** 3


class Tracer:
    """Records spans and counters while installed; ``run`` tags each record."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.run = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [self.run, len(spans), stack[-1] if stack else -1, name,
                      clock(), None, None]
            spans.append(record)
            stack.append(record[1])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                record[5] = clock()
                stack.pop()
                record[6] = _info(name, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_svd(self, fn):
        counters = self.counters

        def svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            c = counters[self.run]
            c["spaces.svd.calls"] += 1
            c["spaces.svd.flops"] += svd_flops(np.shape(a)[-2:], full_matrices,
                                               compute_uv)
            return fn(a, full_matrices, compute_uv, *args, **kwargs)

        svd.__wrapped__ = fn
        return svd

    def _replace(self, namespaces, original, replacement) -> None:
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
                    self._undo.append((namespace, key, original))

    def install(self, run: int) -> None:
        """Wrap every target in every package namespace that holds it; the
        spans recorded until ``uninstall`` belong to ``run``."""
        self.run = run
        self._stack.clear()
        package = [vars(m) for n, m in list(sys.modules.items())
                   if m is not None and (n == "lethargy_lab"
                                         or n.startswith("lethargy_lab."))]
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[method]
                setattr(cls, method, self._wrap(name, original))
                self._undo.append((cls, method, original))
            else:
                original = getattr(module, attr)
                self._replace(package, original, self._wrap(name, original))
        original = np.linalg.svd
        # matrix_rank looks svd up in the globals of numpy's private module
        internal = np.linalg.matrix_rank.__wrapped__.__globals__
        self._replace([vars(np.linalg), internal], original,
                      self._wrap_svd(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def run_metrics(spans: list[list], counters: Counter) -> dict:
    """Per-layer counts, times and ratios of one traced run.

    A ratio whose base is 0 is reported as None; every ratio is given with
    its base in ``bases``.
    """
    by_id = {s[1]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[2] in by_id:
            child_time[s[2]] += s[5] - s[4]
    calls = Counter(s[3] for s in spans)
    total = defaultdict(float)
    self_time = defaultdict(float)
    layer_total = defaultdict(float)
    layer_self = defaultdict(float)
    for s in spans:
        duration = s[5] - s[4]
        total[s[3]] += duration
        self_time[s[3]] += duration - child_time[s[1]]
        layer = _layer(s[3])
        layer_self[layer] += duration - child_time[s[1]]
        parent = by_id.get(s[2])
        if parent is None or _layer(parent[3]) != layer:
            layer_total[layer] += duration

    def where(name, predicate):
        return [s for s in spans if s[3] == name and predicate(s[6] or {})]

    def under(span, ancestor_name):
        parent = by_id.get(span[2])
        while parent is not None:
            if parent[3] == ancestor_name:
                return True
            parent = by_id.get(parent[2])
        return False

    def ratio(num, den):
        return None if den == 0 else num / den

    lp = [s[6] or {} for s in spans if s[3] == "distances.lp"]
    descent = [s[6] or {} for s in spans if s[3] == "distances.descent"]
    simplex = [s[6] or {} for s in spans if s[3] == "simplex.solve"]
    pivots = sum(i.get("pivots", 0) for i in simplex)
    sampled_distances = sum(1 for s in spans if s[3] == "distances.distance"
                            and under(s, "separation.sampled_ratio"))
    witness_solves = calls["witness.solve"]
    m = {
        "cli.main.s": total["cli.main"],
        "cli.load_config.s": total["cli.load_config"],
        "scenarios.validate.s": total["scenarios.validate"],
        "scenarios.normalize.s": total["scenarios.normalize"],
        "scenarios.chain_build.s": total["scenarios.chain_build"],
        "scenarios.extension_attempts": calls["separation.profile"],
        "spaces.subspace_new.calls": calls["spaces.subspace_new"],
        "spaces.subspace_new.s": total["spaces.subspace_new"],
        "spaces.orthonormal_rows.calls": calls["spaces.orthonormal_rows"],
        "spaces.orthonormal_rows.s": total["spaces.orthonormal_rows"],
        "spaces.svd.calls": counters["spaces.svd.calls"],
        "spaces.svd.flops": counters["spaces.svd.flops"],
        "distances.distance.calls": calls["distances.distance"],
        "distances.projection.calls": calls["distances.projection"],
        "distances.projection.s": total["distances.projection"],
        "distances.lp.calls": len(lp),
        "distances.lp.s": total["distances.lp"],
        "distances.lp.fallbacks": sum(1 for i in lp if i.get("method") == "descent"),
        "distances.lp.certified_ratio": ratio(
            sum(1 for i in lp if i.get("method") == "simplex"), len(lp)),
        "distances.descent.calls": len(descent),
        "distances.descent.iterations": sum(i.get("iterations", 0) for i in descent),
        "distances.descent.unconverged": sum(1 for i in descent
                                             if not i.get("converged", True)),
        "simplex.solves": len(simplex),
        "simplex.s": total["simplex.solve"],
        "simplex.pivots": pivots,
        "simplex.pivots_per_solve": ratio(pivots, len(simplex)),
        "simplex.s_per_pivot": ratio(total["simplex.solve"], pivots),
        "simplex.cycle_guards": sum(1 for i in simplex
                                    if i.get("raised") == "SimplexCycleGuard"),
        # computed, not measured: rows x cols x 8 bytes per pivot
        "simplex.bytes": sum(i["shape"][0] * i["shape"][1] * 8 * i.get("pivots", 0)
                             for i in simplex),
        "separation.profile.calls": calls["separation.profile"],
        "separation.profile.s": total["separation.profile"],
        "separation.exact_ratio.calls": calls["separation.exact_ratio"],
        "separation.sampled_ratio.calls": calls["separation.sampled_ratio"],
        "separation.sampled.distance_calls": sampled_distances,
        "separation.sampled.distance_calls_per_ratio": ratio(
            sampled_distances, calls["separation.sampled_ratio"]),
        "separation.span_check.s": total["separation.span_check"],
        "witness.solve.calls": witness_solves,
        "witness.solve.s": total["witness.solve"],
        "witness.converged_ratio": ratio(
            len(where("witness.solve", lambda i: i.get("converged"))), witness_solves),
        "witness.no_progress": len(where("witness.solve",
                                         lambda i: i.get("raised") == "NoProgress")),
        "witness.exact.s": total["witness.exact"],
        "witness.achieved.s": total["witness.achieved"],
        "report.sandwich.s": total["report.sandwich"],
        "report.write.s": total["report.write_json"] + total["report.write_csv"],
        "report.json_bytes": sum((s[6] or {}).get("bytes", 0) for s in spans
                                 if s[3] == "report.write_json"),
        "report.csv_bytes": sum((s[6] or {}).get("bytes", 0) for s in spans
                                if s[3] == "report.write_csv"),
        "machinery.s": layer_total["machinery"],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    # the pipeline glue only: its named stages have metrics of their own
    m["scenarios.self_s"] = self_time["scenarios.run"] + self_time["scenarios.demo"]
    m["distances.s"] = layer_total["distances"]
    m["calls"] = dict(calls)
    m["bases"] = {
        "distances.lp.certified_ratio": len(lp),
        "simplex.pivots_per_solve": len(simplex),
        "simplex.s_per_pivot": pivots,
        "separation.sampled.distance_calls_per_ratio": calls["separation.sampled_ratio"],
        "witness.converged_ratio": witness_solves,
    }
    return m


def combine_runs(per_run: list[dict]) -> dict:
    """Times: the median over the traced runs. Counts: the first run's, since
    they repeat exactly (``trace.counts_repeat`` says whether they did)."""
    out = {}
    for key, value in per_run[0].items():
        values = [r[key] for r in per_run]
        if isinstance(value, float) and None not in values:
            out[key] = statistics.median(values)
        else:
            out[key] = value
    return out
