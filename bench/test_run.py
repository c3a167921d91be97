"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_same_seed_gives_same_ops():
    for workload in run.WORKLOADS.values():
        a, b = run.op_stream(workload, 5), run.op_stream(workload, 5)
        assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]


def test_ladder_cycle_has_one_n_per_band_for_each_pattern():
    ops = next(run.op_stream(run.WORKLOADS["exact-moments-ladder"], 1))
    assert len(ops) == 10
    for (lo, hi), pair in zip(run.LADDER_BANDS, zip(ops[::2], ops[1::2])):
        assert [op.pattern for op in pair] == ["cherry", "star3"]
        assert all(lo <= op.n <= hi for op in pair)


def test_failed_ops_sort_after_every_success():
    op = run.Op("moments", "cherry", 300, work=1)
    outcomes = [run.Outcome(op, t, 0, "", verdict="ok") for t in (0.3, 0.1, 0.2)]
    outcomes.append(run.Outcome(op, 0.01, None, "", verdict="raised"))
    assert run.latency_keys(outcomes, wall=5.0) == [0.1, 0.2, 0.3, 5.0]


def test_tail_rank_leaves_ten_ops_beyond():
    assert run.tail_rank(11) == 1
    assert run.tail_rank(200) == 190


def test_decimal_digits_matches_str_below_the_limit():
    for x in (0, 1, 9, 10, 99, 100, 2 ** 64, 10 ** 50 - 1, 10 ** 50, 7 ** 3000):
        assert run.decimal_digits(x) == len(str(x))
    assert run.decimal_digits(10 ** 20000) == 20001


def test_big_int_reads_past_the_digit_limit():
    assert run.big_int("9" * 9000) == 10 ** 9000 - 1
    assert run.parse_rational("-3/" + "1" + "0" * 5000) == run.Fraction(
        -3, 10 ** 5000)


def test_exact_check_catches_a_wrong_variance():
    op = run.Op("moments", "cherry", 240, work=1)
    outcome = run.run_op(op)
    assert run.check_moments(op, outcome.stdout) == "ok"
    d = json.loads(outcome.stdout)
    d["variance"] = "1/2"
    assert run.check_moments(op, json.dumps(d)) != "ok"


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_counters_repeat_for_the_same_seed(name):
    def counters():
        result = run.traced_run(run.WORKLOADS[name], seed=3, seconds=0)
        assert result["correct"]
        return {k: result["metrics"][k]["value"] for k in run.COUNTERS}

    first = counters()
    assert first == counters()
    assert any(first.values())


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-cherry-n200",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
