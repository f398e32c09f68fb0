"""The one timer and the one record writer every benchmark uses.

:func:`time_arms` times each wall-clock comparison, so every gate reads
the same statistic: the median of per-round ratios, with quartiles.
:func:`write_record` writes each run's record to :data:`RECORD_DIR`
(``build/bench-records/``, gitignored).  The bench modules put this
directory on ``sys.path`` before importing (benchmarks/ is deliberately
not a package so its files stay runnable as plain scripts).
"""

import json
from pathlib import Path
from time import perf_counter

import numpy as np

#: Where every benchmark run writes its record.
RECORD_DIR = Path(__file__).resolve().parent.parent / "build" / "bench-records"

#: Uncounted rounds before the timed ones: each arm pays its first-call
#: costs (allocator growth, arena buffers, lazy caches) outside the median.
WARMUP_ROUNDS = 1


def time_arms(arms: dict, ratios: dict, rounds: int,
              setup: dict | None = None) -> dict:
    """Median seconds of each arm and quartiles of each per-round ratio.

    ``arms`` maps a name to a zero-argument callable.  Every round calls
    each arm once; round ``r`` starts at arm ``r mod len(arms)``, so no
    arm always runs first or always follows the same arm.
    :data:`WARMUP_ROUNDS` uncounted rounds run before ``rounds`` counted
    ones.  ``setup[name]``, where given, runs untimed before every call
    of that arm.

    Returns ``"<arm>_s"``, the arm's median seconds, for every arm, and
    for each ``label: (numerator, denominator)`` in ``ratios`` the median
    of the per-round ratio under ``label`` with its quartiles under
    ``"<label>_q1"`` and ``"<label>_q3"``.  Both arms of a ratio run in
    the same round, so host drift slower than one round cancels out of
    it; the median keeps one slow round from deciding a gate.
    """
    names = list(arms)
    seconds = {name: [] for name in names}
    for r in range(WARMUP_ROUNDS + rounds):
        first = r % len(names)
        for name in names[first:] + names[:first]:
            if setup and name in setup:
                setup[name]()
            start = perf_counter()
            arms[name]()
            elapsed = perf_counter() - start
            if r >= WARMUP_ROUNDS:
                seconds[name].append(elapsed)
    result = {f"{name}_s": float(np.median(s)) for name, s in seconds.items()}
    for label, (num, den) in ratios.items():
        q1, median, q3 = np.percentile(
            np.divide(seconds[num], seconds[den]), [25, 50, 75])
        result.update({label: float(median), f"{label}_q1": float(q1),
                       f"{label}_q3": float(q3)})
    result["rounds"] = rounds
    return result


def ratio_text(timing: dict, label: str) -> str:
    """A ratio of :func:`time_arms` as ``"1.94x [1.90-1.97]"``: median
    and quartiles."""
    return (f"{timing[label]:.2f}x [{timing[label + '_q1']:.2f}-"
            f"{timing[label + '_q3']:.2f}]")


def write_record(record: dict) -> Path:
    """Write ``record`` to ``RECORD_DIR/<record["benchmark"]>.json``.

    The file holds this run's record alone; the next run of the same
    benchmark overwrites it.  Missing directories are created.
    """
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    path = RECORD_DIR / f"{record['benchmark']}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path
