"""Measure one workload in this process; `run.py` starts it with a pinned
environment. The last line of standard output is the result as JSON.

With --trace 0 it reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced solves and reports the per-layer metrics
taken from the spans, plus the tracing overhead. Before every solve and after
the last it times the fixed loop of `reference.py`, which gauges the host's
speed; `solve_rel` divides each solve by the gauges around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import szwalk  # noqa: E402
from reference import reference_loop  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

ERROR_FLOOR = 1e-12  # below this, a change in abs_error is round-off, not accuracy
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 500
# Before every solve and after the last, the reference loop gauges the host's
# speed for at least REF_MIN_S and REF_SHARE of the previous solve's time.
REF_MIN_S = 0.05
REF_SHARE = 0.1

# Per-layer metric -> (span name, "total" or "self"), per solve or per setup.
SOLVE_TIMES = {
    "quantum.apply_instrument_s": ("quantum.apply_instrument", "total"),
    "sz.run_s": ("sz.run", "total"),
    "sz.self_s": ("sz.run", "self"),
    "sz.markov_reduction_s": ("sz.markov_reduction", "total"),
    "entropy.eta_s": ("entropy.eta", "total"),
    "entropy.limit_estimate_s": ("entropy.limit_estimate", "total"),
    "classical.s": ("classical", "total"),
    "cli.load_config_s": ("cli.load_config", "total"),
    "cli.write_outputs_s": ("cli.write_outputs", "total"),
    "cli.self_s": ("cli.run_config", "self"),
}
SOLVE_COUNTS = {
    "quantum.apply_instrument.calls": "quantum.apply_instrument",
    "sz.run.calls": "sz.run",
    "entropy.eta.calls": "entropy.eta",
    "entropy.limit_estimate.calls": "entropy.limit_estimate",
    "classical.calls": "classical",
}
SETUP_TIMES = {
    "walks.build_s": ("walks.build", "total"),
    "quantum.instrument_build_s": ("quantum.instrument_build", "total"),
}
SETUP_COUNTS = {"quantum.instrument_build.calls": "quantum.instrument_build"}
FIELD = {"total": 0, "self": 1}
E2E_UNITS = {"solve_rel": "1", "setup_s": "s", "abs_error": "nats", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    **{m: "s" for m in (*SETUP_TIMES, *SOLVE_TIMES)},
    **{m: "count" for m in (*SETUP_COUNTS, *SOLVE_COUNTS)},
    "sz.depth": "count", "sz.children": "count", "sz.merged": "count",
    "sz.merge_hit_ratio": "1", "sz.peak_branches": "count", "sz.pruned_mass": "1",
    "sz.branch_steps_per_s": "1/s", "trace_overhead_s": "s",
}


def environment() -> dict:
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def sz_counts(runs: list) -> dict:
    """Tree counts of one solve from the SZRun objects its engine runs returned,
    and the apply_instrument calls those records imply: every block of the
    partition once at depth 0, then once per live parent at every later depth."""
    records = [r for run, _ in runs for r in run.records]
    children = sum(r.branch_count + r.merged_count for r in records)
    merged = sum(r.merged_count for r in records)
    return {
        "sz.depth": max(run.depth for run, _ in runs),
        "sz.children": children,
        "sz.merged": merged,
        "sz.merge_hit_ratio": merged / children,
        "sz.peak_branches": max(r.branch_count for r in records),
        "sz.pruned_mass": max(run.pruned_mass for run, _ in runs),
        "expected_apply_calls": sum(
            blocks * (1 + sum(r.branch_count for r in run.records[:run.depth]))
            for run, blocks in runs),
    }


def layer_metrics(tracer: Tracer, setups: list[int], solves: list[int]) -> dict:
    """Median times and exactly repeating counts over the traced requests."""
    out = {}

    def collect(requests, times, counts):
        summaries = [tracer.summary(r) for r in requests]
        for metric, (span, field) in times.items():
            out[metric] = statistics.median(
                s.get(span, (0.0, 0.0, 0))[FIELD[field]] for s in summaries)
        for metric, span in counts.items():
            values = {s.get(span, (0.0, 0.0, 0))[2] for s in summaries}
            if len(values) != 1:
                raise RuntimeError(f"{metric} differs between requests: {sorted(values)}")
            out[metric] = values.pop()

    collect(setups, SETUP_TIMES, SETUP_COUNTS)
    collect(solves, SOLVE_TIMES, SOLVE_COUNTS)
    tree = [sz_counts(tracer.sz_runs[r]) for r in solves]
    if any(t != tree[0] for t in tree):
        raise RuntimeError("tree counts differ between solves")
    tree = tree[0]
    del tree["expected_apply_calls"]
    out.update(tree)
    out["sz.branch_steps_per_s"] = out["quantum.apply_instrument.calls"] / out["sz.run_s"]
    return out


def check_call_counts(tracer: Tracer, request: int) -> None:
    """The wrappers must have seen every apply_instrument call the engine made."""
    seen = tracer.summary(request).get("quantum.apply_instrument", (0.0, 0.0, 0))[2]
    expected = sz_counts(tracer.sz_runs[request])["expected_apply_calls"]
    if seen != expected:
        raise CheckFailed(f"traced {seen} apply_instrument calls, records imply {expected}")


def timed(context, fn, *args):
    """Call fn inside context; the timer excludes entering and leaving it."""
    with context:
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0


def gauge(seconds: float) -> float:
    """Median time of the reference loop, repeated for at least `seconds`."""
    times = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def describe(times: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(times)
    text = f"n={n} median {statistics.median(times):.6g} s"
    if n >= 20:
        q = int(100 - 1000 / n)
        text += f" p{q} {statistics.quantiles(times, n=100)[q - 1]:.6g} s"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if Path(szwalk.__file__).resolve().parent != ROOT / "src" / "szwalk":
        print(f"error: imported szwalk from {szwalk.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_runs" / args.workload
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    env = environment()
    print("env:", json.dumps(env))

    def traced_if(use_trace: bool, label: str):
        return tracer.request(label) if use_trace else nullcontext()

    # Set-up: repeated, so that its median is steady even when it is short.
    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPS
           or (sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS)):
        gc.collect()
        inputs, elapsed = timed(traced_if(tracer is not None, f"setup{len(setup_times)}"),
                                workload.setup)
        setup_times.append(elapsed)

    # Solves, closed loop, until --seconds have passed (at least one of each kind);
    # in a traced run every second solve is traced.
    plain, traced, errors, solve_requests = [], [], [], []
    refs, plain_refs = [], []  # a gauge before every solve; the one before each plain solve
    attempted = failed = 0
    last = 0.0
    started = time.perf_counter()
    while (attempted < (2 if tracer else 1)
           or time.perf_counter() - started < args.seconds):
        use_trace = tracer is not None and attempted % 2 == 1
        attempted += 1
        gc.collect()
        refs.append(gauge(max(REF_MIN_S, REF_SHARE * last)))
        try:
            result, elapsed = timed(traced_if(use_trace, f"solve{attempted - 1}"),
                                    workload.solve, inputs)
        except Exception:  # noqa: BLE001 - a failed solve is counted, and the run goes on
            failed += 1
            traceback.print_exc()
            continue
        last = elapsed
        if use_trace:
            traced.append(elapsed)
            solve_requests.append(len(tracer.requests) - 1)
        else:
            plain.append(elapsed)
            plain_refs.append(len(refs) - 1)
        try:
            if use_trace:
                check_call_counts(tracer, solve_requests[-1])
            errors.append(workload.check(inputs, result))
        except Exception as exc:  # noqa: BLE001 - a wrong result is counted, as above
            failed += 1
            if getattr(exc, "error", None) is not None:
                errors.append(exc.error)
            traceback.print_exc()

    gc.collect()
    refs.append(gauge(max(REF_MIN_S, REF_SHARE * last)))
    if not plain or (tracer and not traced):
        print("error: no solve completed", file=sys.stderr)
        return 1
    if tracer:
        setup_requests = [i for i, label in enumerate(tracer.requests)
                          if label.startswith("setup")]
        metrics = layer_metrics(tracer, setup_requests, solve_requests)
        metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
        workdir.mkdir(parents=True, exist_ok=True)
        np.savez(workdir / "spans.npz", names=np.array(tracer.names),
                 requests=np.array(tracer.requests), **tracer.arrays())
        units = LAYER_UNITS
    else:
        metrics = {
            # Each solve over the mean of the gauges taken just before and after it.
            "solve_rel": statistics.median(
                t / ((refs[i] + refs[i + 1]) / 2) for t, i in zip(plain, plain_refs)),
            "setup_s": statistics.median(setup_times),
            "abs_error": max(errors + [ERROR_FLOOR]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS

    print(f"workload {args.workload}, seed {args.seed}"
          f"{'' if workload.uses_seed else ' (ignored)'}, trace {args.trace}")
    print(f"solves: {attempted} attempted, {failed} failed, failed_ratio "
          f"{failed / attempted:.6g} (unit 1); untraced {len(plain)}, traced {len(traced)}; "
          f"set-ups: {len(setup_times)}")
    print("untraced solve times:", describe(plain))
    print("reference loop times:", describe(refs))
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.9g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
