"""Shared helpers for the benchmark record files (BENCH_*.json).

Every benchmark appends its run record to a per-file history list under
:data:`RECORD_DIR` (``build/bench-records/``, gitignored — the directory
``scripts/check_perf.py`` writes to), so running a benchmark never
rewrites the tracked ``BENCH_*.json`` history files at the repo root.
The helpers live here so the serialization format cannot fork between
benchmarks; the bench modules put this directory on ``sys.path`` before
importing (benchmarks/ is deliberately not a package so its files stay
runnable as plain scripts).
"""

import json
from pathlib import Path

#: Where benchmark runs append their records by default.
RECORD_DIR = Path(__file__).resolve().parent.parent / "build" / "bench-records"


def load_history(path: Path) -> list[dict]:
    """The accumulated record list (a legacy single-record file is wrapped)."""
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


#: Most records kept per ``benchmark`` key: the files are append-per-run
#: and grow without bound otherwise; the perf gates only ever read the
#: latest record, so a short tail of history per benchmark is plenty.
MAX_RECORDS_PER_BENCHMARK = 8


def _trim_history(history: list[dict]) -> list[dict]:
    """Keep only the newest records per ``benchmark`` key, order preserved.

    Records without a ``benchmark`` key (legacy formats) share one
    bucket, so even untagged history stays bounded.
    """
    kept_per_key: dict[object, int] = {}
    keep = [False] * len(history)
    for i in range(len(history) - 1, -1, -1):
        key = history[i].get("benchmark") if isinstance(history[i], dict) else None
        count = kept_per_key.get(key, 0)
        if count < MAX_RECORDS_PER_BENCHMARK:
            kept_per_key[key] = count + 1
            keep[i] = True
    return [record for record, kept in zip(history, keep) if kept]


def write_record(record: dict, path: Path) -> Path:
    """Append ``record`` to the per-PR history list at ``path``.

    The history is trimmed to the newest
    :data:`MAX_RECORDS_PER_BENCHMARK` records per ``benchmark`` key, so
    BENCH_*.json growth is bounded across PRs.  Missing parent
    directories are created.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    history = load_history(path)
    history.append(record)
    path.write_text(json.dumps(_trim_history(history), indent=2) + "\n")
    return path
