"""Smoke-size tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The workloads are shrunk (small graphs, few iterations, short epochs) so
every test runs in seconds; the code paths are the benchmark's own.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import serve  # noqa: E402
import workloads  # noqa: E402
from repro import erdos_renyi  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.fixture
def smoke(monkeypatch):
    """Shrink every workload to smoke size."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads, "POOL_SIZE", 3)
    monkeypatch.setattr(
        workloads.QAOA2Sweep, "make_graph",
        lambda self, index: erdos_renyi(24, 0.25, rng=workloads.seeds_for(self.seed, index, 0)),
    )
    monkeypatch.setattr(workloads.QAOADeep, "n_nodes", 8)
    monkeypatch.setattr(workloads.QAOADeep, "solver_options", {"layers": 2, "maxiter": 4})
    monkeypatch.setattr(workloads.SPSABatch, "n_nodes", 8)
    monkeypatch.setattr(
        workloads.SPSABatch, "solver_options",
        {"layers": 2, "optimizer": "spsa", "n_starts": 3, "maxiter": 3},
    )
    monkeypatch.setattr(serve, "UNIVERSE", 4)
    monkeypatch.setattr(serve, "EPOCH", 20)
    monkeypatch.setattr(serve, "EPOCHS", 3)
    monkeypatch.setattr(serve, "STREAM_LENGTH", 60)
    monkeypatch.setattr(serve, "OPTIONS", {"layers": 1, "maxiter": 5})


def metric_units(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(smoke, workload, trace):
    record = run.run_one(workload, seed=0, seconds=0.0, trace=trace)
    result = record["result"]
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = metric_units("per_layer" if trace else "end_to_end")
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    assert emitted == expected
    for value in result["metrics"].values():
        assert np.isfinite(value["value"])


def test_traced_layers_cover_the_workload(smoke):
    metrics = run.run_one("qaoa2-sweep", seed=0, seconds=0.0, trace=True)["result"]["metrics"]
    assert metrics["partition.calls"]["value"] >= 1
    assert metrics["gw.calls"]["value"] >= 1
    assert metrics["executor.leaf_jobs"]["value"] >= 2
    assert 0.0 < metrics["attributed_frac"]["value"] <= 1.0


@pytest.mark.parametrize("name", sorted(workloads.IN_PROCESS))
def test_planted_wrong_answers_are_caught(smoke, name):
    workload = workloads.IN_PROCESS[name](seed=0)
    op = workload.ops[0]
    out = workload.run(op)
    assert workload.check(op, out) == []

    not_binary = out.assignment.astype(np.int64)
    not_binary[0] = 2
    assert workload.check(op, workloads.Outcome(not_binary, out.cut, out.energy, out.params))
    assert workload.check(op, workloads.Outcome(
        out.assignment, out.cut + 1.0, out.energy, out.params))
    if name != "qaoa2-sweep":
        assert workload.check(op, workloads.Outcome(
            out.assignment, out.cut, out.energy + 1e-6, out.params))


def test_planted_wrong_serve_replies_are_caught(smoke):
    workload = serve.ServeZipf(seed=0)
    graph = workload.request_graph(0)
    assignment = np.zeros(graph.n_nodes, dtype=np.uint8)
    assignment[: graph.n_nodes // 2] = 1
    cut = workloads.cut_value(graph, assignment)
    assert workload.check([serve.Reply(0, 0.0, "ok", cut=cut, assignment=assignment)]) == []
    assert workload.check([serve.Reply(0, 0.0, "ok", cut=cut + 0.5, assignment=assignment)])
    assert workload.check([serve.Reply(0, 0.0, "HttpResponseError: 500")])
    # An isomorphic repeat must return the same cut as the first answer.
    repeat = next(i for i in range(1, serve.EPOCH)
                  if workload.universe_graph(i) is workload.universe_graph(0))
    other = workload.request_graph(repeat)
    assert workload.check([
        serve.Reply(0, 0.0, "ok", cut=cut, assignment=assignment),
        serve.Reply(repeat, 0.0, "ok", cut=0.0,
                    assignment=np.zeros(other.n_nodes, dtype=np.uint8)),
    ])


def test_serve_segments_serve_whole_epochs(smoke, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    record = run.run_one("serve-zipf", seed=0, seconds=0.0, trace=False)
    assert record["result"]["correct"], record["problems"]
    assert len(record["segment_walls_s"]) == 2 and len(record["setup_samples_s"]) == 2
    assert record["ops"] == 2 * serve.EPOCH


def test_a_wrong_answer_fails_the_command(smoke, monkeypatch, capsys):
    real_run = workloads.QAOADeep.run

    def planted(self, op):
        out = real_run(self, op)
        out.cut += 1.0
        return out

    monkeypatch.setattr(workloads.QAOADeep, "run", planted)
    code = run.main(["--workload", "qaoa-deep", "--seed", "0", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_seed_changes_inputs_but_not_metric_names(smoke):
    for name, make in workloads.IN_PROCESS.items():
        a, b = make(0).ops[0].graph, make(1).ops[0].graph
        assert a != b, name
        assert make(0).ops[0].graph == a, name
    assert serve.ServeZipf(0).request_graph(0) != serve.ServeZipf(1).request_graph(0)
    names = [set(run.run_one("spsa-batch", seed=seed, seconds=0.0, trace=False)
                 ["result"]["metrics"]) for seed in (0, 1)]
    assert names[0] == names[1]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qaoa-deep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(metric_units("end_to_end")) == set(run.END_TO_END_UNITS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
