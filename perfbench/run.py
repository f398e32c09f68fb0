"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Workloads: ``interactive``, ``bulk``, ``train``, ``fleet_replay`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output reports every end-to-end metric; with ``--trace 1`` the run is
split into an untraced and a traced half and the last line reports every
per-layer metric, with the tracing overhead between the halves.  Every
time is reported at a reference host speed (``harness.SpeedProbe``).
The lines before it give host facts, sample counts, the host-speed
scale with the unscaled figures, and the correctness checks.  The spans
of a traced run are written to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The benchmark runs the library from ``src/`` next to this directory and
exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("interactive", "bulk", "train", "fleet_replay")


def _pin_blas_threads() -> None:
    """One BLAS thread: the load comes from one process on one core.

    Must run before NumPy is first imported; OpenBLAS reads these at
    load time.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def _workload(name: str):
    import fleet_wl
    import serving_wl
    import train_wl

    return {
        "interactive": serving_wl.Serving(serving_wl.INTERACTIVE),
        "bulk": serving_wl.Serving(serving_wl.BULK),
        "train": train_wl,
        "fleet_replay": fleet_wl,
    }[name]


def end_to_end(run, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, with sample notes."""
    from harness import (PROBE_REF_S, peak_rss_mib, percentile,
                         speed_probe, tail_latency)

    samples = len(run.latencies)
    tail, level, windows = tail_latency(run.latencies)
    values = {
        "latency_p50_ms": percentile(run.latencies, 50.0) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "throughput_per_s": run.throughput(),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = [f"latency_p50_ms: {samples} samples",
             f"latency_tail_ms: p{level:.2f} of each of {windows} window(s) "
             f"of {samples // windows} operations, median over windows",
             f"throughput_per_s: median of {len(run.blocks)} blocks",
             f"peak_rss_mib: 1 sample (whole process)"]
    factors = speed_probe().factors
    if factors and run.raw_latencies:
        notes.append(
            f"host speed: times are scaled to a {PROBE_REF_S * 1e3:g} ms "
            f"speed probe, factor median {statistics.median(factors):.3f} "
            f"(range {min(factors):.3f}-{max(factors):.3f}, "
            f"{len(factors)} probes); as measured: latency_p50_ms "
            f"{percentile(run.raw_latencies, 50.0) * 1e3:.4f}, "
            f"throughput_per_s {run.throughput(raw=True):.4f}")
    return values, notes


def layer_metrics(tracer, extra: dict) -> dict:
    """Every per-layer metric from the spans plus the workload's counts;
    metrics of layers the workload never calls read 0."""
    from catalog import LAYERS, PASS_SELF, PASS_SPANS, SPAN_MEDIANS
    from tracer import median_ms

    own = tracer.self_times()
    values = {metric: median_ms(tracer.durations(span))
              for metric, span in SPAN_MEDIANS.items()}
    values["service.tick_self_ms"] = median_ms(
        [self_s for span, self_s in zip(tracer.spans, own)
         if span[0] == "service.tick"])
    for metric, span in PASS_SELF.items():
        values[metric] = median_ms(tracer.self_per_pass(span, PASS_SPANS,
                                                        own))
    values["trace.spans"] = float(len(tracer.spans))
    values.update(extra)
    return {metric: float(values.get(metric, 0.0)) for metric in LAYERS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library is missing ({SRC / 'repro'} not found); "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]

    from catalog import END_TO_END, LAYERS
    from harness import host_facts, settle, timed_setups
    from tracer import Tracer

    workload = _workload(args.workload)
    facts = host_facts()
    print("host: " + json.dumps(facts))
    fixture, setups = timed_setups(lambda: workload.build(args.seed))
    settle()
    if not args.trace:
        run, _ = workload.measure(fixture, args.seconds)
        setups += run.setups
        metrics, notes = end_to_end(run, statistics.median(setups))
        notes.append(f"setup_s: median of {len(setups)} builds")
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        runs = [run]
    else:
        half = args.seconds / 2
        base, _ = workload.measure(fixture, half)
        tracer = Tracer()
        workload.instrument(tracer, fixture)
        with tracer:
            settle()
            traced, extra = workload.measure(fixture, half, tracer)
        overhead = (statistics.median(traced.latencies)
                    / statistics.median(base.latencies) - 1.0)
        extra["trace.overhead_pct"] = overhead * 100.0
        metrics = layer_metrics(tracer, extra)
        notes = [f"tracing overhead: {overhead * 100.0:+.1f}% median "
                 f"operation time, traced vs untraced half",
                 f"spans: {len(tracer.spans)} from {len(traced.latencies)} "
                 f"traced operations"]
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans_path)
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
        units = {name: spec[0] for name, spec in LAYERS.items()}
        runs = [base, traced]

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    for run in runs:
        for note in run.notes:
            print(note)
    for note in notes:
        print(note)
    print(f"operations: {attempted} attempted, {attempted - failed} "
          f"succeeded, {failed} failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
