"""Analytic p=1 fast path vs exact statevector angle grids.

Times the same seeded 16-qubit (γ, β) landscape three ways:

* **analytic** — the closed-form O(E·n) evaluation of
  :mod:`repro.qaoa.analytic` (no statevector at all),
* **statevector** — the generic tier of
  :meth:`repro.qaoa.engine.SweepEngine.angle_grid` (``method="batched"``):
  the product grid evolved as chunked ``(B, 2**n)`` statevector batches,
* **loop** — the per-point ``MaxCutEnergy.expectation`` double loop (the
  seed implementation).

Acceptance bar: analytic matches the statevector grid to ≤1e-9 max abs
deviation, all three agree on the best grid point, and analytic is ≥10×
faster than the statevector grid at n=16.  ``--quick`` emits the JSON
report and the shared-schema ``BENCH_analytic_p1.json`` regression record.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.experiments import AngleGridResult, default_angle_axes, run_angle_grid
from repro.graphs import erdos_renyi
from repro.qaoa import SweepEngine

N_NODES = 16
EDGE_PROB = 0.3
GRAPH_SEED = 0
RESOLUTION = 16


def _graph():
    return erdos_renyi(N_NODES, EDGE_PROB, weighted=True, rng=GRAPH_SEED)


@pytest.fixture(scope="module")
def graph():
    return _graph()


def test_angle_grid_analytic(benchmark, graph):
    result = benchmark(
        lambda: run_angle_grid(graph, resolution=RESOLUTION, method="analytic")
    )
    assert result.energies.shape == (RESOLUTION, RESOLUTION)


def _statevector_grid(engine: SweepEngine, resolution: int) -> AngleGridResult:
    """The exact-statevector comparator: the engine's generic batched tier."""
    gammas, betas = default_angle_axes(resolution)
    energies = engine.angle_grid(gammas, betas, method="batched")
    return AngleGridResult(gammas, betas, energies, method="batched")


def test_angle_grid_statevector(benchmark, graph):
    engine = SweepEngine(graph)
    result = benchmark(lambda: _statevector_grid(engine, RESOLUTION))
    assert result.energies.shape == (RESOLUTION, RESOLUTION)


def test_analytic_matches_statevector(graph):
    analytic = run_angle_grid(graph, resolution=RESOLUTION, method="analytic")
    statevector = _statevector_grid(SweepEngine(graph), RESOLUTION)
    deviation = float(np.abs(analytic.energies - statevector.energies).max())
    assert deviation <= 1e-9
    assert analytic.best_index == statevector.best_index


# ---------------------------------------------------------------------------
# JSON smoke mode: python bench_analytic_p1.py --quick
# ---------------------------------------------------------------------------
def _best_of(fn, repeats: int = 3) -> float:
    fn()  # warm-up (pooled buffers, cached adjacency rows)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def quick_report(n_nodes: int = N_NODES, resolution: int = RESOLUTION) -> dict:
    """Analytic vs statevector grid vs per-point loop on one seeded graph."""
    graph = erdos_renyi(n_nodes, EDGE_PROB, weighted=True, rng=GRAPH_SEED)
    engine = SweepEngine(graph)

    analytic_s = _best_of(
        lambda: run_angle_grid(
            graph, resolution=resolution, engine=engine, method="analytic"
        )
    )
    statevector_s = _best_of(lambda: _statevector_grid(engine, resolution))
    # The loop is the slow reference: time a single pass.
    loop = run_angle_grid(graph, resolution=resolution, method="loop")
    loop_s = loop.elapsed

    analytic = run_angle_grid(
        graph, resolution=resolution, engine=engine, method="analytic"
    )
    statevector = _statevector_grid(engine, resolution)
    dev_statevector = float(
        np.abs(analytic.energies - statevector.energies).max()
    )
    dev_loop = float(np.abs(analytic.energies - loop.energies).max())
    return {
        "bench": "analytic_p1_quick",
        "n_nodes": n_nodes,
        "edge_prob": EDGE_PROB,
        "graph_seed": GRAPH_SEED,
        "grid": [resolution, resolution],
        "analytic_s": analytic_s,
        "statevector_s": statevector_s,
        "loop_s": loop_s,
        "speedup_vs_statevector": statevector_s / analytic_s,
        "speedup_vs_loop": loop_s / analytic_s,
        "max_abs_dev_vs_statevector": dev_statevector,
        "max_abs_dev_vs_loop": dev_loop,
        "best_index": list(analytic.best_index),
        "best_energy": analytic.best_energy,
        "best_index_identical": bool(
            analytic.best_index == statevector.best_index == loop.best_index
        ),
    }


def main() -> None:
    import argparse

    from conftest import REPORTS_DIR, bench_checksum, write_bench_record

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="emit an analytic-vs-statevector-vs-loop angle-grid timing JSON "
        "instead of running pytest-benchmark",
    )
    args = parser.parse_args()
    if not args.quick:
        parser.error("run under pytest for full benchmarks, or pass --quick")
    report = quick_report()
    # Acceptance bar, enforced on every CI run.
    deviation = report["max_abs_dev_vs_statevector"]
    assert deviation <= 1e-9, (
        f"analytic deviates from the statevector grid by {deviation:.2e}"
    )
    assert report["best_index_identical"], "tiers disagree on the best grid point"
    speedup = report["speedup_vs_statevector"]
    assert speedup >= 10.0, (
        f"analytic only {speedup:.1f}x faster than the statevector grid"
    )
    text = json.dumps(report, indent=2)
    print(text)
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / "bench_analytic_p1_quick.json").write_text(text + "\n")
    write_bench_record(
        "analytic_p1",
        n=report["n_nodes"],
        p=1,
        seconds=report["analytic_s"],
        checksum=bench_checksum(
            {
                "best_index": report["best_index"],
                "best_energy": report["best_energy"],
                "max_abs_dev_vs_statevector": report["max_abs_dev_vs_statevector"],
            }
        ),
    )


if __name__ == "__main__":
    main()
