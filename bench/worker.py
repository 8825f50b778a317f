"""One benchmark process: set-up, then (role ``solve``) the timed runs.

Started by ``bench/run.py`` with the BLAS thread count fixed in its
environment. Prints ``READY`` once set-up is done, so the parent can time
set-up from process start, then ``REF`` and a reading of the host's speed
(``speed.reference``); a ``setup`` process stops there. A ``solve``
process then makes one untimed warm-up run (see ``Workload.warm_sizes``), times
``cli.main(argv)`` runs, each between two speed readings, until about
``--seconds`` have been measured, reads its own
peak resident memory, and only then checks the reports, so neither the
checks nor their memory fall into what is measured. The result goes to
``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 3  # with --trace 0: a median needs at least three runs


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "solve"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path)
    return p.parse_args(argv)


def _digest(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(out.iterdir()) if out.exists() else ():
        data = path.read_bytes()
        total += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), total


class Runner:
    """Runs one workload's argv, keeping one copy of each distinct output."""

    def __init__(self, cli, argv, work: Path):
        self.cli, self.argv, self.work = cli, argv, work
        self.outputs: dict[str, Path] = {}   # digest -> kept report directory
        self.runs: list[dict] = []
        self.speed = None  # the last speed reading, taken after the last run

    def run(self, traced: bool = False) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()  # the previous run's garbage is not this run's cost
        printed = io.StringIO()
        error = None
        code = None
        before = self.speed or speed.reference()
        with contextlib.redirect_stdout(printed):
            start = time.perf_counter()
            try:
                code = self.cli.main(self.argv + ["--out", str(out)])
            except Exception as exc:  # a failed run is recorded, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.speed = speed.reference()
        digest, size = _digest(out)
        if digest not in self.outputs and code == 0:
            kept = self.work / f"kept-{len(self.outputs)}"
            out.rename(kept)
            self.outputs[digest] = kept
        record = {"seconds": elapsed,
                  "ref_seconds": speed.scaled(elapsed, before, self.speed), "exit": code, "error": error,
                  "printed": printed.getvalue().strip(), "digest": digest,
                  "report_bytes": size, "traced": traced}
        self.runs.append(record)
        return record


def _environment(threads: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "timing_scope": ("wall and memory of the benchmark's own processes only; "
                         "no system-wide tracing, no cache dropping"),
    }


def _check(runner: Runner, workload: str, cfg, size) -> tuple[int, int, list]:
    """Check each distinct report set once; charge every run with its
    verdict. A run that raised, exited non-zero or left unreadable reports
    fails all its outputs."""
    import oracles

    verdicts, notes = {}, []
    for digest, kept in runner.outputs.items():
        try:
            verdicts[digest] = oracles.check(workload, kept, cfg, size)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            notes.append(f"reports unreadable: {type(exc).__name__}: {exc}")
    nominal = oracles.nominal_outputs(workload, cfg, size)
    attempted = failed = 0
    for record in runner.runs:
        verdict = verdicts.get(record["digest"]) if record["exit"] == 0 else None
        if verdict is None:
            attempted += nominal
            failed += nominal
            note = f"run failed: exit {record['exit']}, {record['error']}"
        else:
            attempted += verdict[0]
            failed += verdict[1]
            note = None
        for n in ([note] if note else verdict[2]):
            if n not in notes:
                notes.append(n)
    if len(runner.outputs) > 1:
        notes.append(f"{len(runner.outputs)} different report sets from one input")
    return attempted, failed, notes


def _trace_result(tracer, runner: Runner, work: Path) -> tuple[dict, str]:
    """Per-layer metrics over the traced runs, with the tracing overhead;
    writes every span to ``work/spans.json``."""
    from tracing import combine_runs, run_metrics

    per_run = [run_metrics([s for s in tracer.spans if s[0] == index],
                           tracer.counters[index])
               for index, record in enumerate(runner.runs) if record["traced"]]
    layers = combine_runs(per_run)
    traced = [r for r in runner.runs if r["traced"]]
    traced_s = statistics.median(r["ref_seconds"] for r in traced)
    untraced_s = statistics.median(r["ref_seconds"] for r in runner.runs
                                   if not r["traced"])
    layers["trace.solve_s"] = traced_s
    layers["trace.untraced_solve_s"] = untraced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    counts = [k for k, v in per_run[0].items()
              if isinstance(v, int) and not isinstance(v, bool)]
    layers["trace.counts_repeat"] = all(r[k] == per_run[0][k]
                                        for r in per_run for k in counts)
    path = work / "spans.json"
    with open(path, "w") as fh:
        json.dump({"columns": ["run", "id", "parent", "name", "start", "end", "info"],
                   "spans": tracer.spans,
                   "counters": {str(k): dict(v) for k, v in tracer.counters.items()},
                   "layers": layers,
                   "report_bytes": traced[0]["report_bytes"]}, fh)
    return layers, str(path)


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import lethargy_lab.cli as cli
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"lethargy_lab imported from {cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    for name in workload.lazy_imports:
        importlib.import_module(name)
    size = workload.smoke_sizes if args.smoke else workload.sizes
    args.work.mkdir(parents=True, exist_ok=True)
    cfg, run_argv = workload.write_inputs(args.seed, size, args.work)
    print("READY", flush=True)
    print(f"REF {speed.reference()!r}", flush=True)
    if args.role == "setup":
        return 0

    _, warm_argv = workload.write_inputs(args.seed, workload.warm_sizes,
                                         args.work, tag="warm")
    Runner(cli, warm_argv, args.work / "warm").run()
    runner = Runner(cli, run_argv, args.work)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    measured, rounds = 0.0, 0
    while True:
        measured += runner.run()["seconds"]
        if tracer is not None:
            tracer.install(run=len(runner.runs))
            try:
                measured += runner.run(traced=True)["seconds"]
            finally:
                tracer.uninstall()
        rounds += 1
        enough = len(runner.runs) >= (2 if tracer else MIN_RUNS)
        # stop at the round whose end lies nearest to --seconds, so runs of
        # several seconds neither overshoot nor undershoot by a whole run
        if enough and measured + measured / rounds / 2 >= args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, notes = _check(runner, args.workload, cfg, size)
    untraced = [r for r in runner.runs if not r["traced"]]
    result = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "environment": _environment(os.environ.get("OPENBLAS_NUM_THREADS", "?")),
        "solve_samples": [r["ref_seconds"] for r in untraced],
        "solve_wall_samples": [r["seconds"] for r in untraced],
        "report_bytes": untraced[0]["report_bytes"],
        "peak_rss_mb": peak_mb,
        "attempted": attempted, "failed": failed, "notes": notes,
        "program_said": untraced[0]["printed"],
        "distinct_reports": len(runner.outputs),
    }
    if tracer is not None:
        result["layers"], result["trace_file"] = _trace_result(tracer, runner,
                                                               args.work)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
