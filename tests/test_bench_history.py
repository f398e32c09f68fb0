"""Tests for the benchmark history helpers: bounded, per-key trimming."""

import importlib.util
import json
from pathlib import Path

import pytest

_UTILS_PATH = (Path(__file__).resolve().parent.parent
               / "benchmarks" / "_bench_utils.py")


@pytest.fixture(scope="module")
def bench_utils():
    # benchmarks/ is deliberately not a package; load the helper module
    # by file path exactly the way the bench scripts resolve it.
    spec = importlib.util.spec_from_file_location("_bench_utils", _UTILS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWriteRecord:
    def test_appends_in_order(self, bench_utils, tmp_path):
        path = tmp_path / "BENCH_test.json"
        for i in range(3):
            bench_utils.write_record({"benchmark": "a", "run": i}, path)
        history = bench_utils.load_history(path)
        assert [r["run"] for r in history] == [0, 1, 2]

    def test_keeps_newest_eight_per_key(self, bench_utils, tmp_path):
        path = tmp_path / "BENCH_test.json"
        for i in range(12):
            bench_utils.write_record({"benchmark": "a", "run": i}, path)
        history = bench_utils.load_history(path)
        assert len(history) == bench_utils.MAX_RECORDS_PER_BENCHMARK == 8
        assert [r["run"] for r in history] == list(range(4, 12))

    def test_trim_is_per_benchmark_key(self, bench_utils, tmp_path):
        path = tmp_path / "BENCH_test.json"
        for i in range(10):
            bench_utils.write_record({"benchmark": "a", "run": i}, path)
            bench_utils.write_record({"benchmark": "b", "run": i}, path)
        history = bench_utils.load_history(path)
        assert len(history) == 16
        # interleaved append order is preserved after trimming
        assert [(r["benchmark"], r["run"]) for r in history] == [
            (key, i) for i in range(2, 10) for key in ("a", "b")]

    def test_untagged_legacy_records_share_one_bucket(self, bench_utils,
                                                      tmp_path):
        path = tmp_path / "BENCH_test.json"
        for i in range(10):
            bench_utils.write_record({"run": i}, path)
        history = bench_utils.load_history(path)
        assert len(history) == 8
        assert [r["run"] for r in history] == list(range(2, 10))

    def test_legacy_single_record_file_is_wrapped(self, bench_utils,
                                                  tmp_path):
        path = tmp_path / "BENCH_test.json"
        path.write_text(json.dumps({"benchmark": "a", "run": 0}))
        assert bench_utils.load_history(path) == [{"benchmark": "a",
                                                   "run": 0}]
        bench_utils.write_record({"benchmark": "a", "run": 1}, path)
        assert [r["run"] for r in bench_utils.load_history(path)] == [0, 1]

    def test_missing_file_is_empty_history(self, bench_utils, tmp_path):
        assert bench_utils.load_history(tmp_path / "absent.json") == []

    def test_creates_missing_directories(self, bench_utils, tmp_path):
        path = tmp_path / "build" / "bench-records" / "BENCH_test.json"
        bench_utils.write_record({"benchmark": "a", "run": 0}, path)
        assert [r["run"] for r in bench_utils.load_history(path)] == [0]


@pytest.mark.parametrize("name", ["bench_ensemble", "bench_attack",
                                  "bench_serving"])
def test_default_record_path_is_the_gitignored_record_dir(bench_utils, name):
    """Benchmark runs append under build/bench-records/, never to the
    tracked BENCH_*.json files at the repo root."""
    repo_root = _UTILS_PATH.parent.parent
    assert bench_utils.RECORD_DIR == repo_root / "build" / "bench-records"
    spec = importlib.util.spec_from_file_location(
        name, _UTILS_PATH.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.RECORD_PATH.parent == bench_utils.RECORD_DIR
    assert module.write_record.__defaults__ == (module.RECORD_PATH,)
