"""Tests of the benchmark itself, at reduced size.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import catalog  # noqa: E402
import fleet_wl  # noqa: E402
import run as runner  # noqa: E402
import serving_wl  # noqa: E402
import train_wl  # noqa: E402
from harness import Run, tail_latency, tail_level  # noqa: E402
from repro.serving import FeatureResponse, InferenceService  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_BULK = dataclasses.replace(serving_wl.BULK, images=4, pool=2,
                                 check_every=1, block_s=0.05)
SMALL_INTERACTIVE = dataclasses.replace(serving_wl.INTERACTIVE,
                                        check_every=1, block_s=0.05)


def small_fleet(seed: int) -> fleet_wl.Fixture:
    return fleet_wl.Fixture(seed, sessions=300, arrivals=1500)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


# -- metric names and units ---------------------------------------------


def test_catalog_matches_benchmark_json():
    spec = benchmark_spec()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: (unit, better)
            for name, (unit, better, _, _) in catalog.LAYERS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)
    assert all(m["name"] in catalog.END_TO_END for m in spec["end_to_end"])
    assert set(catalog.LAYERS[m][2] for m in catalog.LAYERS) \
        <= set(catalog.END_TO_END)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_emits_every_metric_with_its_unit(trace):
    spec = benchmark_spec()
    done = run_cli("--workload", "interactive", "--seed", "3",
                   "--seconds", "0.6", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("name", ["bulk", "train", "fleet_replay"])
def test_every_workload_reports_every_metric(name):
    workload = {"bulk": serving_wl.Serving(SMALL_BULK), "train": train_wl,
                "fleet_replay": fleet_wl}[name]
    fixture = (small_fleet(5) if name == "fleet_replay"
               else workload.build(5))
    run, _ = workload.measure(fixture, 0.3)
    values, _ = runner.end_to_end(run, 0.1)
    assert set(values) == set(catalog.END_TO_END)
    assert all(value > 0 for value in values.values())
    assert run.failed == 0 and run.attempted >= 1
    if name == "fleet_replay":
        fixture = small_fleet(5)
    tracer = Tracer()
    workload.instrument(tracer, fixture)
    with tracer:
        traced, extra = workload.measure(fixture, 0.3, tracer)
    layers = runner.layer_metrics(tracer, extra)
    assert set(layers) == set(catalog.LAYERS)
    assert traced.failed == 0
    for metric, (_, _, _, where) in catalog.LAYERS.items():
        if name in where.split(", "):
            assert layers[metric] > 0 or metric.startswith(
                ("fleet.rejected", "flops.batch_norm")), metric


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("--workload", "interactive", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- correctness checks -------------------------------------------------


def _flip_last_payload_byte(original):
    def to_bytes(self):
        data = bytearray(original(self))
        data[-1] ^= 0xFF
        return bytes(data)
    return to_bytes


def test_corrupted_response_frame_counts_as_failed(monkeypatch):
    fixture = serving_wl.Fixture(SMALL_INTERACTIVE, 2)
    monkeypatch.setattr(FeatureResponse, "to_bytes",
                        _flip_last_payload_byte(FeatureResponse.to_bytes))
    run, _ = serving_wl.measure(fixture, 0.05)
    assert run.attempted >= 1
    assert run.failed == run.attempted


def test_corrupted_response_values_fail_the_oracle_check(monkeypatch):
    fixture = serving_wl.Fixture(SMALL_INTERACTIVE, 2)
    split = InferenceService._split_outputs

    def corrupt(outputs, group):
        per_request = split(outputs, group)
        per_request[0][0] = per_request[0][0] + 1.0
        return per_request

    monkeypatch.setattr(InferenceService, "_split_outputs",
                        staticmethod(corrupt))
    run, _ = serving_wl.measure(fixture, 0.05)
    rounds = run.attempted // SMALL_INTERACTIVE.sessions
    # the first request of every tick is wrong; every request is checked
    assert run.failed >= rounds >= 1


def test_clean_run_passes_the_oracle_check():
    fixture = serving_wl.Fixture(SMALL_INTERACTIVE, 2)
    run, _ = serving_wl.measure(fixture, 0.05)
    assert run.failed == 0 and run.attempted >= 8


def test_fleet_replays_with_one_seed_have_identical_outcomes():
    first, _ = fleet_wl.replay(small_fleet(11))
    second, _ = fleet_wl.replay(small_fleet(11))
    assert fleet_wl.outcome(first) == fleet_wl.outcome(second)
    assert first.conservation_ok and first.epsilon_ratchet_ok
    assert first.failovers == 1 and first.duplicate_serves == 0
    other, _ = fleet_wl.replay(small_fleet(12))
    assert fleet_wl.outcome(other) != fleet_wl.outcome(first)


def test_train_first_step_matches_the_looped_step():
    fixture = train_wl.build(4)
    expected = train_wl.looped_first_losses(fixture)
    assert np.all(np.isfinite(fixture.first_losses))
    np.testing.assert_allclose(fixture.first_losses, expected, atol=1e-5)


# -- measurement helpers ------------------------------------------------


def test_tail_level_keeps_ten_samples_beyond_it():
    assert tail_level(10_000) == 99.0
    assert tail_level(100) == pytest.approx(90.0)
    assert tail_level(20) == 50.0
    for count in (21, 57, 400, 999):
        assert count * (1 - tail_level(count) / 100) >= 10 - 1e-9


def test_tail_is_the_median_of_windowed_tails():
    one_stall = [1.0] * 1250
    one_stall[100:200] = [50.0] * 100  # a stall filling 1 of 5 windows
    value, level, windows = tail_latency(one_stall)
    assert (value, level, windows) == (1.0, pytest.approx(96.0), 5)
    short = list(range(1, 101))
    assert tail_latency(short) == (pytest.approx(90.1), pytest.approx(90.0),
                                   1)


def test_block_scaling_reaches_its_own_latencies_only():
    run = Run(latencies=[1.0, 2.0])
    run.add_block(4, 3.0, 0, 0.5)
    run.latencies += [4.0]
    run.add_block(1, 4.0, 2, 2.0)
    assert run.latencies == [0.5, 1.0, 8.0]
    assert run.raw_latencies == [1.0, 2.0, 4.0]
    assert run.blocks == [(4, 1.5), (1, 8.0)]
    assert run.raw_blocks == [(4, 3.0), (1, 4.0)]
    assert run.throughput() == pytest.approx((4 / 1.5 + 1 / 8.0) / 2)
    assert run.throughput(raw=True) == pytest.approx((4 / 3.0 + 1 / 4.0) / 2)


class _Nested:
    def outer(self):
        self.inner()
        self.inner()

    def inner(self):
        sum(range(1000))


def test_tracer_self_time_and_restore():
    original = _Nested.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(_Nested, "outer", "outer")
    tracer.wrap(_Nested, "inner", "inner")
    with tracer:
        _Nested().outer()
    assert _Nested.__dict__["outer"] is original
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    own = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    children = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert own[0] == pytest.approx(total - children)
