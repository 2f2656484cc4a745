"""Tests of the benchmark itself: the shape generator and a smoke run of every workload.

    python3 -m pytest -q perfbench

The smoke runs use `--smoke` (tiny shapes, one second each), so the whole
file takes well under a minute.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import shapes  # noqa: E402
from hogrn import degree_report, load_dataset  # noqa: E402
from run import EXTRA_WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + list(EXTRA_WORKLOADS)


@pytest.mark.parametrize("name", sorted(shapes.PUBLISHED))
def test_generator_matches_published_table(tmp_path, name):
    shape = shapes.PUBLISHED[name]
    shapes.write_dataset(tmp_path, shape, seed=3)
    store, vocab = load_dataset(tmp_path)
    rep = degree_report(store, vocab)
    assert (rep.num_entities, rep.num_relations, rep.num_train, rep.num_valid, rep.num_test) == (
        shape.entities, shape.relations, shape.train, shape.valid, shape.test)
    # same tolerance as the package's own benchmark-statistics criterion
    assert abs(rep.avg_out_degree - shape.avg_out_degree) <= 0.01
    assert rep.median_out_degree == shape.median_out_degree

    # every entity and relation occurs in train; no fact repeats or crosses splits
    assert np.unique(store.train[:, [0, 2]]).size == vocab.num_entities
    assert np.unique(store.train[:, 1]).size == vocab.num_relations
    facts = [set(map(tuple, split.tolist())) for split in (store.train, store.valid, store.test)]
    assert sum(map(len, facts)) == shape.train + shape.valid + shape.test
    assert len(facts[0] | facts[1] | facts[2]) == sum(map(len, facts))


def test_generator_is_seeded(tmp_path):
    a = shapes.generate(shapes.PUBLISHED["WD-singer"], seed=5)
    b = shapes.generate(shapes.PUBLISHED["WD-singer"], seed=5)
    c = shapes.generate(shapes.PUBLISHED["WD-singer"], seed=6)
    assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)
    assert not np.array_equal(a.train, c.train)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_gates(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
