"""Streaming telemetry: mergeable quantile sketches.

Fleet-scale traffic (10^4–10^6 sessions) cannot afford O(requests)
latency lists, so this package provides the primitive the
serving/simulation tier aggregates latencies through:
:class:`QuantileSketch`, a deterministic, mergeable streaming quantile
summary (Munro–Paterson-style multi-level compaction) with
≤ 1%-of-rank error against ``np.percentile``, used by
:class:`~repro.serving.simulate.SimulationReport` for p50/p95/p99 at
O(capacity · log n) memory and merged across replicas/sessions.

The package is dependency-light (NumPy only) and imports nothing from
:mod:`repro.serving`, so telemetry can be consumed anywhere in the
stack without cycles.
"""

from repro.telemetry.sketch import QuantileSketch

__all__ = ["QuantileSketch"]
