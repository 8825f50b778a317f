"""lethargy-lab benchmark: end-to-end metrics per workload, per-layer with --trace 1.

    python3 bench/run.py --workload l1-sampled --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

``verify-tilted`` is not in BENCHMARK.json: the program fails its checks at
this commit (bench/README.md, *Known defect*), so it is run by hand only.

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. Each workload is one
``lethargy_lab.cli.main(argv)`` call on inputs made from ``--seed``.

With ``--trace 0`` it prints, per workload:
  setup_s       median over fresh interpreters of: start, import the package
                and the dependencies the workload loads lazily, write the config
  solve_s       median time of one cli.main run, after an untimed warm-up
                (both in reference seconds: speed.py, bench/README.md)
  report_bytes  bytes of the files one run writes
  peak_rss_mb   peak resident memory of the process that ran the workload
  fail_frac     failed / attempted checked outputs (also the JSON's
                ``failed`` and ``attempted``)
With ``--trace 1`` a separate process alternates untraced and traced runs and
prints the per-layer metrics and the tracing overhead; spans are written to
``bench/_work/<workload>-seed<n>.spans.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Only this parent's children run
the workload, one at a time, each with one BLAS thread. Exit status is 0 when
the benchmark ran (whatever the checks found) and non-zero when it could not.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
# this process takes speed readings too, so it runs BLAS like its workers
os.environ.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                  MKL_NUM_THREADS=BLAS_THREADS)

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOAD_NAMES = ("verify-orthogonal", "verify-tilted", "demo-dense", "l1-sampled")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0

def _child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
        "TMPDIR": str(WORK),
    })
    return env


def _spawn(role: str, args, work: Path, deadline: float, result: Path | None = None):
    """Start a worker; return (process, reference seconds from start to READY,
    or None). The speed readings are the parent's before the start and the
    worker's after READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    if result is not None:
        cmd += ["--result", str(result)]
    before = speed.reference()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(),
                            cwd=ROOT, text=True)
    try:
        waiting = max(0.0, deadline - time.monotonic())
        if not select.select([proc.stdout], [], [], waiting)[0]:
            return proc, None
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            return proc, None
        tag, _, after = proc.stdout.readline().partition(" ")
        if tag != "REF":
            return proc, None
        return proc, speed.scaled(ready, before, float(after))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise


def _finish(proc, deadline: float) -> int:
    """Wait for a worker until the deadline; kill it past that. Returns its
    exit status, or -1 when it was killed."""
    try:
        proc.communicate(timeout=max(0.1, deadline - time.monotonic()))
        return proc.returncode
    except subprocess.TimeoutExpired:
        return -1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def measure(args) -> dict:
    """Run one workload in fresh child processes and return the worker's
    result with the set-up samples added."""
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []

    def set_up(samples: int) -> None:
        for _ in range(samples):
            proc, ready = _spawn("setup", args, work, deadline)
            code = _finish(proc, deadline)
            if ready is None or code != 0:
                raise RuntimeError(f"set-up process failed (exit {code})")
            setups.append(ready)

    try:
        extra = 0 if args.trace or args.smoke else SETUP_SAMPLES - 1
        # half the set-up samples before the timed runs and half after, so
        # their median, like solve_s, spans the whole run and not one moment
        # of a shared host whose speed drifts
        set_up(extra // 2)
        result_path = work / "result.json"
        proc, ready = _spawn("solve", args, work, deadline, result_path)
        code = _finish(proc, deadline)
        if ready is None or code != 0:
            raise RuntimeError(f"solve process failed (exit {code})")
        setups.append(ready)
        set_up(extra - extra // 2)
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_samples"] = setups
        if "trace_file" in result:
            spans = WORK / f"{args.workload}-seed{args.seed}.spans.json"
            os.replace(result["trace_file"], spans)
            result["trace_file"] = str(spans.relative_to(ROOT))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(result: dict, trace: bool) -> dict:
    """Print the human-readable table; return the metrics for the JSON line."""
    w = result["workload"]
    env = result["environment"]
    print(f"== {w}  seed {result['seed']}{'  (smoke)' if result['smoke'] else ''}")
    print(f"   env: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, BLAS threads {env['blas_threads']}, nproc "
          f"{env['nproc']}, cpu {env['cpu']}")
    print(f"   scope: {env['timing_scope']}")
    solve = result["solve_samples"]
    setup = result["setup_samples"]
    fail_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    q1, q3 = _quartiles(solve)
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"reference seconds, median of {len(setup)} fresh interpreters"),
        "solve_s": (statistics.median(solve), "s",
                    f"reference seconds, median of {len(solve)} runs, quartiles "
                    f"{q1:.4f}..{q3:.4f}; wall median "
                    f"{statistics.median(result['solve_wall_samples']):.4f}"),
        "report_bytes": (result["report_bytes"], "B", "one run, exact"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "1 process"),
        "fail_frac": (fail_frac, "1", f"{result['failed']} of "
                      f"{result['attempted']} checked outputs failed"),
    }
    for name, (value, unit, how) in metrics.items():
        print(f"   {name:<14} {value:>16.6g} {unit:<5} {how}")
    print(f"   program printed: {result['program_said']!r}")
    for note in result["notes"]:
        print(f"   check: {note}")
    if not trace:
        return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                if k != "fail_frac"}

    layers = result["layers"]
    print(f"   per-layer (median over traced runs; spans in {result['trace_file']}):")
    for name in sorted(layers):
        if name in ("calls", "bases"):
            continue
        value = layers[name]
        base = layers["bases"].get(name)
        extra = f"  (base {base})" if base is not None else ""
        if name in ("spaces.svd.flops", "simplex.bytes"):
            extra = "  (computed from shapes, not measured)"
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"     {name:<46} {shown}{extra}")
    # BENCHMARK.json lists the per-layer metrics every workload reaches;
    # times of layers a workload bypasses are exactly 0 there, so they are
    # left to the table above and the spans file
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer"]
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in listed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs and one set-up sample, for the bench's tests")
    args = p.parse_args(argv)
    # a terminated benchmark unwinds, so that every worker it started is
    # killed and waited for on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "lethargy_lab" / "__init__.py").is_file():
        print(f"no lethargy_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        args.workload = name
        try:
            result = measure(args)
        except (RuntimeError, OSError, json.JSONDecodeError) as exc:
            print(f"{name}: benchmark could not run: {exc}", file=sys.stderr)
            return 1
        shown = summarize(result, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0
        for key, value in shown.items():
            metrics[key if len(names) == 1 else f"{name}/{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
