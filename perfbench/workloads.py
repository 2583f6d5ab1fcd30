"""The in-process workloads: QAOA² sweeps, deep QAOA, batched SPSA.

Each workload turns the benchmark seed into a pool of input graphs, builds
its solver through the public API, runs one operation per input, checks
every output against an independent recomputation and scores cut quality
against a reference cut.  The HTTP workload lives in :mod:`serve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro import QAOA2Solver, QAOASolver, erdos_renyi, goemans_williamson
from repro.graphs.graph import Graph
from repro.graphs.maxcut import cut_diagonal, cut_value
from repro.hpc.executor import ExecutorConfig
from repro.qaoa.energy import MaxCutEnergy
from repro.qaoa.engine import SweepEngine

#: Distinct inputs made per run; a run cycles through them if it outlasts them.
POOL_SIZE = 64
#: Absolute tolerance for recomputed energies and cuts.
TOLERANCE = 1e-9


def seeds_for(seed: int, index: int, tag: int) -> int:
    """A 31-bit seed for input ``index`` of stream ``tag`` under ``seed``."""
    return int(np.random.SeedSequence([seed, index, tag]).generate_state(1)[0] >> 1)


@dataclass
class Op:
    """One input: the graph and the solver seed used on it."""

    graph: Graph
    solver_seed: int


@dataclass
class Outcome:
    """What one operation returned, kept for the output checks."""

    assignment: np.ndarray
    cut: float
    energy: float = float("nan")
    params: np.ndarray = None  # type: ignore[assignment]


class Workload:
    """Base class: inputs from the seed, one solve per op, output checks."""

    name = ""
    qubit_counts: tuple = ()
    #: How far a returned cut may sit from ``cut_value`` of its assignment.
    cut_tolerance = TOLERANCE

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops = [Op(self.make_graph(i), seeds_for(seed, i, 1)) for i in range(POOL_SIZE)]

    def make_graph(self, index: int) -> Graph:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Pay first-call costs (thread pools, backend tables, lazy imports)
        on an input outside the pool."""
        raise NotImplementedError

    def run(self, op: Op) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, out: Outcome) -> List[str]:
        """Problems with one output; empty when it is correct."""
        n = op.graph.n_nodes
        assignment = np.asarray(out.assignment)
        if assignment.shape != (n,) or not np.isin(assignment, (0, 1)).all():
            return [f"assignment is not a 0/1 vector of length {n}"]
        if abs(cut_value(op.graph, assignment) - out.cut) > self.cut_tolerance:
            return ["cut does not match its assignment"]
        return []

    def check_once(self, op: Op) -> List[str]:
        """Checks of the evaluation paths themselves, made once per run."""
        return []

    def reference_cut(self, op: Op) -> float:
        """The cut that ``cut_ratio`` divides by: the exact max cut."""
        return float(cut_diagonal(op.graph).max())


class QAOA2Sweep(Workload):
    """Paper Fig. 4 at laptop scale: QAOA² over ER(200, 0.1)."""

    name = "qaoa2-sweep"
    qubit_counts = tuple(range(1, 11))
    # The solver reports cut_value(graph, assignment) itself.
    cut_tolerance = 0.0

    def make_graph(self, index: int) -> Graph:
        return erdos_renyi(200, 0.1, rng=seeds_for(self.seed, index, 0))

    def warm_up(self) -> None:
        graph = erdos_renyi(40, 0.15, rng=seeds_for(self.seed, POOL_SIZE, 0))
        self.run(Op(graph, 0))

    def run(self, op: Op) -> Outcome:
        solver = QAOA2Solver(
            n_max_qubits=10,
            subgraph_method="best",
            qaoa_options={"layers": 3},
            executor=ExecutorConfig(backend="thread", max_workers=2),
            rng=op.solver_seed,
        )
        result = solver.solve(op.graph)
        return Outcome(result.assignment, result.cut)

    def reference_cut(self, op: Op) -> float:
        # The paper compares QAOA² with GW on the full graph.
        return goemans_williamson(op.graph, rng=seeds_for(self.seed, 0, 2)).best_cut


class QAOAWorkload(Workload):
    """A single-circuit QAOA solve; energies are checked on NumpyBackend."""

    n_nodes = 0
    solver_options: Dict[str, object] = {}

    def make_graph(self, index: int) -> Graph:
        return erdos_renyi(self.n_nodes, 0.3, weighted=True,
                           rng=seeds_for(self.seed, index, 0))

    def warm_up(self) -> None:
        options = {**self.solver_options, "maxiter": 2}
        QAOASolver(rng=0, **options).solve(self.make_graph(POOL_SIZE))

    def run(self, op: Op) -> Outcome:
        result = QAOASolver(rng=op.solver_seed, **self.solver_options).solve(op.graph)
        return Outcome(result.assignment, result.cut, result.energy,
                       np.asarray(result.params))

    def check(self, op: Op, out: Outcome) -> List[str]:
        problems = super().check(op, out)
        reference = MaxCutEnergy(op.graph, backend="numpy")
        if abs(reference.expectation(out.params) - out.energy) > TOLERANCE:
            problems.append("energy differs from <C> recomputed on NumpyBackend")
        if out.cut > float(reference.diagonal.max()) + TOLERANCE:
            problems.append("cut exceeds the exact max cut")
        return problems

    def check_once(self, op: Op) -> List[str]:
        """The batched and pointwise evaluators agree on a sample of rows."""
        width = 2 * int(self.solver_options["layers"])
        rows = np.random.default_rng(seeds_for(self.seed, 0, 3)).uniform(
            -np.pi, np.pi, size=(4, width))
        pointwise = MaxCutEnergy(op.graph, backend="auto")
        batched = SweepEngine(op.graph, diagonal=pointwise.diagonal).energies(rows)
        if any(abs(pointwise.expectation(row) - energy) > TOLERANCE
               for row, energy in zip(rows, batched, strict=True)):
            return ["SweepEngine.energies differs from MaxCutEnergy.expectation"]
        return []


class QAOADeep(QAOAWorkload):
    """Stand-in for the paper's large single circuits: pointwise COBYLA."""

    name = "qaoa-deep"
    n_nodes = 18
    qubit_counts = (18,)
    solver_options = {"layers": 3}


class SPSABatch(QAOAWorkload):
    """Lock-step multi-start SPSA: the batched SweepEngine path."""

    name = "spsa-batch"
    n_nodes = 16
    qubit_counts = (16,)
    solver_options = {"layers": 2, "optimizer": "spsa", "n_starts": 8, "maxiter": 40}


IN_PROCESS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (QAOA2Sweep, QAOADeep, SPSABatch)
}
