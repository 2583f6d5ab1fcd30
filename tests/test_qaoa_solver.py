"""Unit tests for the QAOA MaxCut solver."""

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    complete_bipartite,
    cut_value,
    erdos_renyi,
    exact_maxcut_bruteforce,
    ring,
)
from repro.qaoa import QAOASolver, solve_maxcut_qaoa


class TestBasicSolve:
    def test_returns_consistent_cut(self, er_small):
        result = QAOASolver(layers=2, rng=0, maxiter=30).solve(er_small)
        assert result.cut == pytest.approx(cut_value(er_small, result.assignment))

    def test_cut_bounded_by_optimum(self, er_small):
        exact = exact_maxcut_bruteforce(er_small).cut
        result = QAOASolver(layers=3, rng=0).solve(er_small)
        assert result.cut <= exact + 1e-9

    def test_energy_below_cut_bound(self, er_small):
        exact = exact_maxcut_bruteforce(er_small).cut
        result = QAOASolver(layers=3, rng=0).solve(er_small)
        assert result.energy <= exact + 1e-9

    def test_bipartite_solved_exactly(self):
        g = complete_bipartite(4, 4)
        result = QAOASolver(layers=5, selection="topk", rng=0, maxiter=150).solve(g)
        assert result.cut == pytest.approx(16.0)

    def test_deeper_ansatz_not_worse_energy(self):
        g = ring(8)
        e1 = QAOASolver(layers=1, rng=0, maxiter=60).solve(g).energy
        e4 = QAOASolver(layers=4, rng=0, maxiter=200).solve(g).energy
        assert e4 >= e1 - 0.15  # optimizer noise tolerance

    def test_history_and_nfev_populated(self, er_small):
        result = QAOASolver(layers=2, rng=0, maxiter=25).solve(er_small)
        assert result.nfev == len(result.history)
        assert result.nfev <= 27

    def test_paper_iteration_default(self, er_small):
        result = QAOASolver(layers=3, rng=0).solve(er_small)
        assert result.nfev <= 32  # default_iterations(3)=30 (+ tolerance)

    def test_empty_edge_graph(self):
        g = Graph.from_edges(4, [])
        result = QAOASolver(layers=2, rng=0).solve(g)
        assert result.cut == 0.0
        assert result.nfev == 0

    def test_too_many_qubits_rejected(self):
        g = erdos_renyi(30, 0.1, rng=0)
        with pytest.raises(ValueError, match="partition"):
            QAOASolver(max_qubits=26).solve(g)

    def test_seeded_determinism(self, er_small):
        a = QAOASolver(layers=2, rng=42, maxiter=25).solve(er_small)
        b = QAOASolver(layers=2, rng=42, maxiter=25).solve(er_small)
        assert a.cut == b.cut
        assert np.allclose(a.params, b.params)

    def test_convenience_wrapper(self, er_small):
        result = solve_maxcut_qaoa(er_small, layers=2, rng=0, maxiter=20)
        assert result.cut >= 0


class TestSelectionRules:
    def test_topk_at_least_top1(self, er_small):
        top1 = QAOASolver(layers=2, selection="top1", rng=3, maxiter=30).solve(er_small)
        topk = QAOASolver(layers=2, selection="topk", top_k=32, rng=3, maxiter=30).solve(
            er_small
        )
        assert topk.cut >= top1.cut  # same state, wider candidate set

    def test_topk_below_one_rejected(self, er_small):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            QAOASolver(selection="topk", top_k=0, rng=0).solve(er_small)

    def test_sampled_selection_valid(self, er_small):
        result = QAOASolver(layers=2, selection="sampled", shots=512, rng=1,
                            maxiter=25).solve(er_small)
        assert result.cut == pytest.approx(cut_value(er_small, result.assignment))
        assert result.extra["distinct_sampled"] >= 1

    def test_unknown_selection(self, er_small):
        with pytest.raises(ValueError, match="selection"):
            QAOASolver(selection="oracle", rng=0).solve(er_small)

    def test_selection_metadata(self, er_small):
        result = QAOASolver(layers=2, selection="top1", rng=0, maxiter=20).solve(er_small)
        assert "bitstring" in result.extra


class TestObjectives:
    def test_sampled_objective_runs(self, er_small):
        result = QAOASolver(layers=2, objective="sampled", shots=256, rng=0,
                            maxiter=20).solve(er_small)
        assert result.cut >= 0

    def test_unknown_objective(self, er_small):
        with pytest.raises(ValueError, match="objective"):
            QAOASolver(objective="magic", rng=0).solve(er_small)

    @pytest.mark.parametrize("optimizer", ["cobyla", "spsa", "nelder-mead"])
    def test_optimizer_backends(self, er_small, optimizer):
        result = QAOASolver(layers=2, optimizer=optimizer, rng=0, maxiter=30).solve(
            er_small
        )
        # All backends must beat the no-optimization expectation W/2 ... or
        # at least produce a valid solution.
        assert result.cut == pytest.approx(cut_value(er_small, result.assignment))

    def test_warm_start_init(self, er_small):
        warm = np.array([0.4, 0.6, 0.5, 0.2])
        result = QAOASolver(layers=2, init="warm", warm_start=warm, rng=0,
                            maxiter=20).solve(er_small)
        assert result.cut >= 0

    def test_negative_weights_supported(self):
        base = erdos_renyi(8, 0.5, rng=3)
        g = base.with_weights(np.random.default_rng(0).uniform(-1, 1, base.n_edges))
        result = QAOASolver(layers=2, selection="topk", rng=0, maxiter=40).solve(g)
        exact = exact_maxcut_bruteforce(g).cut
        assert result.cut <= exact + 1e-9
        # topk over 16 candidates should land at a decent cut
        assert result.cut >= 0.0  # never below the empty cut


class TestMultiStart:
    def test_single_start_default_unchanged(self, er_small):
        # n_starts=1 must be byte-for-byte the pre-multi-start solver.
        base = QAOASolver(layers=2, rng=0, maxiter=30).solve(er_small)
        one = QAOASolver(layers=2, rng=0, maxiter=30, n_starts=1).solve(er_small)
        np.testing.assert_array_equal(base.params, one.params)
        assert base.cut == one.cut
        assert base.history == one.history

    def test_spsa_multi_start_never_worse(self, er_small):
        # Start 0 shares the init and perturbation stream with the single
        # start, so the fleet's best-seen energy can only improve.
        for seed in (0, 1, 2):
            single = QAOASolver(
                layers=2, optimizer="spsa", rng=seed, maxiter=40
            ).solve(er_small)
            multi = QAOASolver(
                layers=2, optimizer="spsa", rng=seed, maxiter=40, n_starts=4
            ).solve(er_small)
            assert multi.energy >= single.energy - 1e-12

    def test_spsa_multi_start_batched_matches_pointwise(self, er_small):
        batched = QAOASolver(
            layers=2, optimizer="spsa", rng=3, maxiter=40, n_starts=3
        ).solve(er_small)
        pointwise = QAOASolver(
            layers=2, optimizer="spsa", rng=3, maxiter=40, n_starts=3,
            batched=False,
        ).solve(er_small)
        assert batched.cut == pointwise.cut
        # The batched reduction (GEMV) may differ from the per-point dot in
        # the last float bits, so trajectories agree only to ~1e-12.
        np.testing.assert_allclose(batched.params, pointwise.params, atol=1e-9)
        assert batched.nfev == pointwise.nfev

    def test_sequential_optimizer_restarts(self, er_small):
        single = QAOASolver(layers=2, rng=0, maxiter=25).solve(er_small)
        multi = QAOASolver(layers=2, rng=0, maxiter=25, n_starts=3).solve(er_small)
        assert multi.energy >= single.energy - 1e-12
        assert multi.nfev > single.nfev  # fleet-wide evaluation count

    def test_invalid_n_starts(self, er_small):
        with pytest.raises(ValueError, match="n_starts"):
            QAOASolver(layers=2, rng=0, n_starts=0).solve(er_small)

    def test_keep_state_exposes_final_state(self, er_small):
        result = QAOASolver(layers=2, rng=0, maxiter=20, keep_state=True).solve(
            er_small
        )
        state = result.extra["final_state"]
        assert state.shape == (1 << er_small.n_nodes,)
        assert np.linalg.norm(state) == pytest.approx(1.0)
        plain = QAOASolver(layers=2, rng=0, maxiter=20).solve(er_small)
        assert "final_state" not in plain.extra

    def test_keep_state_on_edgeless_graph(self):
        g = Graph.from_edges(3, [])
        result = QAOASolver(layers=1, rng=0, keep_state=True).solve(g)
        state = result.extra["final_state"]
        # No cost layer, zero angles: the state is still |+>^n.
        np.testing.assert_allclose(state, np.full(8, 1 / np.sqrt(8)), atol=1e-15)


class TestParallelSequentialStarts:
    """COBYLA/NM multi-start fans out through map_jobs (ISSUE 4 satellite)."""

    @pytest.mark.parametrize("optimizer", ["cobyla", "nelder-mead"])
    def test_thread_backend_bit_identical_to_serial(self, er_small, optimizer):
        serial = QAOASolver(
            layers=2, optimizer=optimizer, rng=0, maxiter=25, n_starts=4
        ).solve(er_small)
        threaded = QAOASolver(
            layers=2, optimizer=optimizer, rng=0, maxiter=25, n_starts=4,
            starts_executor="thread",
        ).solve(er_small)
        assert threaded.cut == serial.cut
        assert threaded.energy == serial.energy
        np.testing.assert_array_equal(threaded.params, serial.params)
        assert threaded.nfev == serial.nfev

    def test_executor_config_accepted(self, er_small):
        from repro.hpc.executor import ExecutorConfig

        result = QAOASolver(
            layers=2, rng=0, maxiter=20, n_starts=3,
            starts_executor=ExecutorConfig(backend="thread", max_workers=2),
        ).solve(er_small)
        reference = QAOASolver(
            layers=2, rng=0, maxiter=20, n_starts=3
        ).solve(er_small)
        assert result.cut == reference.cut

    def test_process_backend_rejected(self, er_small):
        with pytest.raises(ValueError, match="process"):
            QAOASolver(
                layers=2, rng=0, n_starts=2, starts_executor="process"
            ).solve(er_small)

    def test_sampled_objective_stays_deterministic(self, er_small):
        serial = QAOASolver(
            layers=2, rng=0, maxiter=15, n_starts=3, objective="sampled"
        ).solve(er_small)
        threaded = QAOASolver(
            layers=2, rng=0, maxiter=15, n_starts=3, objective="sampled",
            starts_executor="thread",  # silently serialised: RNG-consuming
        ).solve(er_small)
        assert threaded.cut == serial.cut
        assert threaded.nfev == serial.nfev
