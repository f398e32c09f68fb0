#!/usr/bin/env python
"""Alternating parent/change pairs of the repository benchmark.

Runs ``perfbench/run.py`` (untraced) in two checkouts, the parent and the
change, ``--pairs`` times each.  Pair ``i`` runs the parent first when
``i`` is even and the change first when it is odd, so a drift of the host
over the session falls on both sides alike.  For every end-to-end metric
it prints each pair's two values, how many pairs the change won (ties
count for neither side), each side's median and quartiles, and whether
the change's median is worse than the parent's by more than the metric's
``bound`` (a fraction of the parent's median).  It also prints each
side's failure share (failed / attempted operations).  A gain holds when
the change wins at least nine tenths of the pairs, its median beats the
parent's by more than the parent's interquartile spread, and its failure
share is no larger than the parent's (see "Comparing two commits" in
docs/benchmarks.md).

Usage (from the root of the change's checkout)::

    git worktree add ../parent HEAD~1     # or: git archive HEAD~1 | tar -x -C ../parent
    python scripts/perf_pairs.py --parent ../parent --workload bulk --seed 1 --pairs 10

The directions and bounds of the metrics come from ``BENCHMARK.json``
of the change's checkout, the run length from ``--seconds`` (default: that
file's ``run_seconds``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: share of the pairs the change must win before a gain counts
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (linear interpolation)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def failure_share(failed: int, attempted: int) -> float:
    """Failed operations as a share of attempted ones (0 when none ran)."""
    return failed / attempted if attempted else 0.0


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None = None,
              failure_shares: tuple[float, float] = (0.0, 0.0)) -> dict:
    """Wins, medians, quartiles and the verdicts of paired runs.

    ``parent[i]`` and ``change[i]`` are pair ``i``; ``better`` is
    ``"higher"`` or ``"lower"``.  ``gain`` is the change's median minus
    the parent's, signed so that positive is better.  ``beyond_bound``
    says whether the change's median is worse than the parent's by more
    than ``bound`` times the parent's median (``False`` without a
    bound).  ``failure_shares`` is (parent, change); a gain never holds
    when the change's share is the larger.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q = quartiles(parent)
    c_q = quartiles(change)
    gain = sign * (c_q[1] - p_q[1])
    spread = p_q[2] - p_q[0]
    parent_share, change_share = failure_shares
    return {
        "pairs": len(parent), "wins": wins, "losses": losses,
        "parent": p_q, "change": c_q, "gain": gain,
        "parent_iqr": spread,
        "beyond_bound": bound is not None and -gain > bound * abs(p_q[1]),
        "claim_holds": (wins >= WIN_SHARE * len(parent) and gain > spread
                        and change_share <= parent_share),
    }


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The JSON result line of one untraced benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark failed in {checkout} "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=REPO_ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {"parent": {m: [] for m in better},
              "change": {m: [] for m in better}}
    failed = {"parent": 0, "change": 0}
    attempted = {"parent": 0, "change": 0}
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result = run_once(checkout, args.workload, args.seed, args.seconds)
            failed[side] += result["failed"]
            attempted[side] += result["attempted"]
            for metric in better:
                values[side][metric].append(result["metrics"][metric]["value"])
        print(f"pair {index + 1} ({order[0]} first): " + ", ".join(
            f"{m} {values['parent'][m][-1]:.4g} -> {values['change'][m][-1]:.4g}"
            for m in better), flush=True)
    shares = tuple(failure_share(failed[side], attempted[side])
                   for side in ("parent", "change"))
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s; failed operations: parent {failed['parent']}/"
          f"{attempted['parent']} ({shares[0]:.2%}), change {failed['change']}/"
          f"{attempted['change']} ({shares[1]:.2%})"
          + ("; the change fails a larger share" if shares[1] > shares[0] else ""))
    for metric, direction in better.items():
        s = summarize(values["parent"][metric], values["change"][metric],
                      direction, bounds[metric], shares)
        print(f"{metric} ({direction} is better): change won {s['wins']}/"
              f"{s['pairs']} (lost {s['losses']}); parent median "
              f"{s['parent'][1]:.4g} [q {s['parent'][0]:.4g}-{s['parent'][2]:.4g}], "
              f"change median {s['change'][1]:.4g} "
              f"[q {s['change'][0]:.4g}-{s['change'][2]:.4g}]; gain "
              f"{s['gain']:+.4g} vs parent IQR {s['parent_iqr']:.4g}: "
              f"{'gain holds' if s['claim_holds'] else 'no gain claimed'}; "
              f"worse than the parent beyond its {bounds[metric]:.0%} bound: "
              f"{'YES' if s['beyond_bound'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
