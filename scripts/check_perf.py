#!/usr/bin/env python
"""Perf gates: the paper's speed claims and the serving tier's invariants.

Nine gates, each run over one ``benchmarks/`` entry point, whose record
is written to ``build/bench-records/<benchmark>.json``; the bars and
record fields are documented in ``docs/benchmarks.md``:

* **ensemble** — the batched N-body pass is not slower than the looped
  one at N = 5 and 8, outputs matching to 1e-5.
* **kernel_fusion** — folded fast-path ticks >= 1.15x unfolded at N=8,
  zero-copy decode not slower than copying, serve arms matching.
* **attack** — the fused subset sweep is not slower than the loop at
  K = 7 and 15.
* **serving** — coalesced serving is not slower than one pass per
  request at S = 4 and 8, outputs matching.
* **scheduler/codec** — fair-share within 10% of FIFO throughput,
  deadline p95 and SLO violations no worse than FIFO, weighted and
  rate-class shares within 15%, fp16 and int8 downlink reductions and
  drift within their bounds.
* **chaos**, **fleet**, **fleet_scale** — goodput under faults, replica
  loss and autoscaling, with every request conserved and none served
  twice.
* **privacy** — rotation devalues a leaked subset, budgets are charged
  exactly once and the ladder engages, exhausted sessions are refused.

The first five compare wall-clock times: each reads the median of the
per-round ratios of ``_bench_utils.time_arms`` and re-measures once
before failing.  The last four replay virtual clocks and seeded draws,
so they are deterministic.  Every gate times on one BLAS thread, as
``perfbench/run.py`` does.

Usage: ``python scripts/check_perf.py``
"""

import importlib.util
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def load_bench(name: str):
    """Import a benchmarks/ module by file (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def failures_of(checks: list[tuple[bool, str]]) -> list[str]:
    """The message of every ``(passed, message)`` check that failed."""
    return [message for passed, message in checks if not passed]


def measure_with_retry(check, label: str) -> list[str]:
    """Run a wall-clock gate, and once more if it fails.

    A median over rounds does not lift a whole run that lands in a slow
    regime of the host (every batched N=8 pass at ~10x its usual time
    has been seen), so a failing run is re-measured once before it
    counts.  ``check`` runs the gate and returns its failure list.
    """
    failures = check()
    if failures:
        print(f"\n{label} gate failed; re-measuring once to rule out host "
              "noise...")
        failures = check()
    return failures


def check_ensemble() -> list[str]:
    bench = load_bench("bench_ensemble")
    record = bench.run_benchmark()
    bench.write_record(record)
    bench.print_record(record)
    checks = []
    for row in record["results"]:
        checks += [
            (row["max_abs_diff"] <= 1e-5,
             f"ensemble N={row['num_nets']}: backends diverge "
             f"(max abs diff {row['max_abs_diff']:.2e} > 1e-5)"),
            (row["speedup"] >= 1.0,
             f"ensemble N={row['num_nets']}: batched is SLOWER than "
             f"looped ({row['speedup']:.2f}x)"),
        ]
    return failures_of(checks)


def check_kernel_fusion() -> list[str]:
    """The folded fast path must pay for itself on the BN-bound pointwise
    workload; the fold-only and arena-only speedups are recorded, not
    gated."""
    bench = load_bench("bench_ensemble")
    record = bench.run_kernel_fusion_benchmark()
    bench.write_record(record)
    bench.print_kernel_fusion(record)
    tick, decode = record["tick"], record["decode"]
    return failures_of([
        (record["max_abs_diff"] <= 1e-5,
         f"kernel_fusion: folded and unfolded serve arms diverge "
         f"(max abs diff {record['max_abs_diff']:.2e} > 1e-5)"),
        (tick["speedup"] >= 1.15,
         f"kernel_fusion: folded fast path is {tick['speedup']:.2f}x "
         f"unfolded tick throughput at N={record['num_nets']} (< 1.15x)"),
        (decode["speedup"] >= 1.0,
         f"kernel_fusion: zero-copy decode is SLOWER than the copying "
         f"parse ({decode['speedup']:.2f}x)"),
    ])


def check_attack() -> list[str]:
    bench = load_bench("bench_attack")
    record = bench.run_benchmark()
    bench.write_record(record)
    bench.print_record(record)
    return failures_of([
        (row["speedup"] >= 1.0,
         f"attack K={row['num_subsets']}: fused sweep is SLOWER than "
         f"looped ({row['speedup']:.2f}x)")
        for row in record["results"]])


def check_serving() -> list[str]:
    bench = load_bench("bench_serving")
    record = bench.run_benchmark()
    bench.write_record(record)
    bench.print_record(record)
    checks = []
    for row in record["results"]:
        checks += [
            (row["max_abs_diff"] <= 1e-5,
             f"serving S={row['num_sessions']}: coalesced outputs diverge "
             f"(max abs diff {row['max_abs_diff']:.2e} > 1e-5)"),
            (row["throughput_ratio"] >= 1.0,
             f"serving S={row['num_sessions']}: coalesced is SLOWER than "
             f"sequential ({row['throughput_ratio']:.2f}x)"),
        ]
    return failures_of(checks)


def check_schedulers() -> list[str]:
    bench = load_bench("bench_serving")
    record = bench.run_scheduler_benchmark()
    bench.write_record(record)
    bench.print_scheduler_record(record)
    ratio = record["throughput"]["fair_vs_fifo"]
    by_policy = {row["scheduler"]: row for row in record["simulated"]}
    fifo, deadline = by_policy["fifo"], by_policy["deadline"]
    weighted = record["weighted"]
    hierarchical = weighted["hierarchical"]
    codec = record["codec"]
    # Affine per-map int8 quantisation promises error <= (max - min) / 510.
    int8_bound = codec["int8_drift_bound"] * 1.01 + 1e-6
    return failures_of([
        (ratio >= 0.9,
         f"scheduler: fair-share degrades throughput vs FIFO by more than "
         f"10% ({ratio:.2f}x)"),
        (deadline["p95_ms"] < fifo["p95_ms"],
         f"scheduler: deadline p95 ({deadline['p95_ms']:.1f} ms) does not "
         f"beat FIFO p95 ({fifo['p95_ms']:.1f} ms)"),
        (deadline["slo_violations"] <= fifo["slo_violations"],
         f"scheduler: deadline misses more SLOs than FIFO "
         f"({deadline['slo_violations']} > {fifo['slo_violations']})"),
        (weighted["share_error"] <= 0.15,
         f"scheduler: weighted shares off the configured "
         f"{weighted['weight_ratio']:g}:1 by "
         f"{weighted['share_error'] * 100:.1f}% (> 15%): "
         f"{weighted['share_ratio']:.2f}x"),
        (hierarchical["aggregate_error"] <= 0.15,
         f"scheduler: rate-class aggregate share off 1:1 vs the outsider "
         f"by {hierarchical['aggregate_error'] * 100:.1f}% (> 15%)"),
        (hierarchical["member_split_error"] <= 0.15,
         f"scheduler: intra-class members split the class share unevenly "
         f"({hierarchical['member_split_ratio']:.2f}x)"),
        (codec["downlink_reduction"] >= 1.9,
         f"codec: fp16 downlink reduction {codec['downlink_reduction']:.2f}x "
         f"below the 1.9x bar"),
        (codec["max_abs_diff"] <= 1e-2,
         f"codec: fp16 feature drift {codec['max_abs_diff']:.2e} above "
         f"1e-2"),
        (codec["int8_downlink_reduction"] >= 3.5,
         f"codec: int8 downlink reduction "
         f"{codec['int8_downlink_reduction']:.2f}x below the 3.5x bar"),
        (codec["int8_max_abs_diff"] <= int8_bound,
         f"codec: int8 feature drift {codec['int8_max_abs_diff']:.2e} above "
         f"the per-map quantisation bound {int8_bound:.2e}"),
    ])


def check_chaos() -> list[str]:
    """Faults may cost tail latency, never correctness."""
    bench = load_bench("bench_serving")
    record = bench.run_chaos_benchmark()
    bench.write_record(record)
    bench.print_chaos_record(record)
    checks = [(record[name]["conservation_ok"],
               f"chaos: {name} replay leaked requests without a terminal "
               f"state: {record[name]['terminal_counts']}")
              for name in ("baseline", "chaos")]
    return failures_of(checks + [
        (record["chaos"]["tick_failures"] >= 1,
         "chaos: the injected tick crash never fired"),
        (record["goodput_ratio"] >= 0.85,
         f"chaos: goodput under {record['frame_fault_rate'] * 100:.0f}% "
         f"frame faults is {record['goodput_ratio']:.2f}x fault-free "
         f"(< 0.85x)"),
    ])


def check_fleet() -> list[str]:
    """Losing a replica may cost latency, never correctness, and the ring
    must bound the failover blast radius."""
    bench = load_bench("bench_serving")
    record = bench.run_fleet_chaos_benchmark()
    bench.write_record(record)
    bench.print_fleet_chaos_record(record)
    checks = []
    for name in ("baseline", "chaos"):
        checks += [
            (record[name]["conservation_ok"],
             f"fleet: {name} replay leaked requests without a terminal "
             f"state across failover: {record[name]['terminal_counts']}"),
            (record[name]["duplicate_serves"] == 0,
             f"fleet: {name} replay served "
             f"{record[name]['duplicate_serves']} requests twice"),
        ]
    return failures_of(checks + [
        (record["chaos"]["failovers"] == 1,
         f"fleet: expected exactly 1 failover after the mid-trace kill, "
         f"saw {record['chaos']['failovers']}"),
        (record["goodput_ratio"] >= 0.70,
         f"fleet: goodput after losing 1 of {record['num_replicas']} "
         f"replicas is {record['goodput_ratio']:.2f}x fault-free (< 0.70x)"),
        (record["chaos"]["migrated_fraction"] <= 0.5,
         f"fleet: failover moved "
         f"{record['chaos']['migrated_fraction'] * 100:.0f}% of live "
         f"sessions (> 50%); the ring should bound it near "
         f"1/{record['num_replicas']}"),
    ])


def check_fleet_scale() -> list[str]:
    """Elasticity must pay for itself at 10^4 sessions."""
    bench = load_bench("bench_serving")
    record = bench.run_fleet_scale_benchmark()
    bench.write_record(record)
    bench.print_fleet_scale_record(record)
    checks = []
    for name in ("static", "autoscaled"):
        arm = record[name]
        checks += [
            (arm["conservation_ok"],
             f"fleet_scale: {name} replay leaked requests without a "
             f"terminal state"),
            (arm["duplicate_serves"] == 0,
             f"fleet_scale: {name} replay served {arm['duplicate_serves']} "
             f"requests twice"),
            (arm["exact_latencies_retained"] == 0,
             f"fleet_scale: {name} replay materialised "
             f"{arm['exact_latencies_retained']} exact latencies for a "
             f"streamed trace (sketches only at scale)"),
        ]
    auto, static = record["autoscaled"], record["static"]
    return failures_of(checks + [
        (auto["spawns"] >= 1,
         "fleet_scale: the diurnal peak never forced a scale-up"),
        (auto["migrations"] >= 1, "fleet_scale: scale-up moved no sessions"),
        (auto["epsilon_ratchet_ok"],
         "fleet_scale: a live migration rolled a privacy ledger backwards"),
        (auto["p99_ms"] <= static["p99_ms"],
         f"fleet_scale: autoscaled p99 ({auto['p99_ms']:.1f} ms) worse than "
         f"static ({static['p99_ms']:.1f} ms)"),
        (record["goodput_ratio"] >= 1.0,
         f"fleet_scale: autoscaling lost goodput "
         f"({record['goodput_ratio']:.2f}x static, < 1.0x)"),
    ])


def check_privacy() -> list[str]:
    """Rotation must devalue leaked subsets, budgets must be conserved and
    the ladder engage, and exhausted sessions must be refused."""
    bench = load_bench("bench_serving")
    record = bench.run_privacy_benchmark()
    bench.write_record(record)
    bench.print_privacy_record(record)
    leak = record["subset_leak"]
    static, rotating = leak["static"], leak["rotating"]
    exhaustion = record["exhaustion"]
    levels = {row["level"] for row in exhaustion["ladder_trace"]}
    extra_sigma = {row["fraction_spent"]: row["extra_sigma"]
                   for row in record["ladder"]}
    return failures_of([
        (static["ssim_vs_leaked"] >= 0.999,
         f"privacy: a leaked subset must decode static traffic perfectly, "
         f"got SSIM {static['ssim_vs_leaked']:.4f}"),
        (rotating["ssim_vs_leaked"] <= static["ssim_vs_leaked"] - 0.05,
         f"privacy: per-query rotation does not degrade the leaked subset "
         f"(rotating SSIM {rotating['ssim_vs_leaked']:.4f} vs static "
         f"{static['ssim_vs_leaked']:.4f})"),
        (rotating["rotations"] >= record["num_queries"] - 1,
         f"privacy: {rotating['rotations']} rotations over "
         f"{record['num_queries']} per-query-rotated queries"),
        (exhaustion["conservation_ok"],
         f"privacy: budget not conserved — served {exhaustion['served']} "
         f"of q_budget {exhaustion['q_budget']}, charged "
         f"{exhaustion['charged']}"),
        (exhaustion["refused"] >= 1,
         "privacy: submits past exhaustion were silently served"),
        (exhaustion["refused"] == exhaustion["refusals_counted"],
         f"privacy: {exhaustion['refused']} submits refused but "
         f"{exhaustion['refusals_counted']} refusals counted"),
        (exhaustion["exhausted_sessions"] == 1,
         f"privacy: {exhaustion['exhausted_sessions']} sessions counted "
         f"exhausted, expected 1"),
        ({"raise-noise", "shrink-map"} <= levels,
         f"privacy: the budget ladder never engaged before exhaustion: "
         f"{sorted(levels)}"),
        (extra_sigma[0.0] == 0.0 and extra_sigma[0.6] > 0.0,
         f"privacy: extra uplink sigma {extra_sigma[0.0]} at 0% spent and "
         f"{extra_sigma[0.6]} at 60% (want 0 and > 0)"),
        (record["accuracy"]["delta"] <= 0.25,
         f"privacy: rotation costs {record['accuracy']['delta']:.3f} clean "
         f"accuracy (> 0.25 tolerance)"),
    ])


def main() -> int:
    # One BLAS thread before NumPy loads, as perfbench/run.py pins it, so
    # a gate ratio and perfbench's per-layer timings describe the same
    # kernels.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    failures = (measure_with_retry(check_ensemble, "ensemble")
                + measure_with_retry(check_kernel_fusion, "kernel_fusion")
                + measure_with_retry(check_attack, "attack")
                + measure_with_retry(check_serving, "serving")
                + measure_with_retry(check_schedulers, "scheduler")
                + check_chaos() + check_fleet() + check_fleet_scale()
                + check_privacy())
    if failures:
        print("\nPERF CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf check ok: all nine gates pass (bars in docs/benchmarks.md)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
