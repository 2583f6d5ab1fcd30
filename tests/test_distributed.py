"""Unit tests for repro.quantum.distributed (cache-blocked simulation)."""

import numpy as np
import pytest

from repro.graphs import cut_diagonal, erdos_renyi
from repro.quantum.distributed import (
    CommStats,
    DistributedStatevector,
    MachineModel,
)
from repro.quantum.gates import rx
from repro.quantum.backend import NumpyBackend
from repro.quantum.statevector import apply_gate, plus_state


def reference_state(n, ops):
    state = plus_state(n)
    for kind, payload in ops:
        if kind == "gate":
            matrix, q = payload
            state = apply_gate(state, matrix, [q])
        else:
            state = state * payload(np.arange(len(state), dtype=np.uint64))
    return state


class TestConstruction:
    def test_invalid_rank_count(self):
        with pytest.raises(ValueError, match="power of two"):
            DistributedStatevector(4, 3)

    def test_more_ranks_than_amplitudes(self):
        with pytest.raises(ValueError, match="more ranks"):
            DistributedStatevector(2, 8)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            DistributedStatevector(4, 2, strategy="magic")

    def test_initial_state_is_zero(self):
        d = DistributedStatevector(4, 4)
        full = d.gather()
        assert full[0] == 1.0 and np.count_nonzero(full) == 1

    def test_plus_state(self):
        d = DistributedStatevector(4, 4)
        d.set_plus_state()
        assert np.allclose(d.gather(), plus_state(4))


@pytest.mark.parametrize("strategy", ["remap", "direct"])
class TestCorrectness:
    def test_local_gate_matches(self, strategy):
        d = DistributedStatevector(5, 4, strategy=strategy)
        d.set_plus_state()
        d.apply_one_qubit(rx(0.7), 1)  # qubit 1 is local (n_local = 3)
        expected = apply_gate(plus_state(5), rx(0.7), [1])
        assert np.allclose(d.gather(), expected)

    def test_global_gate_matches(self, strategy):
        d = DistributedStatevector(5, 4, strategy=strategy)
        d.set_plus_state()
        d.apply_one_qubit(rx(0.7), 4)  # qubit 4 is global
        expected = apply_gate(plus_state(5), rx(0.7), [4])
        assert np.allclose(d.gather(), expected)

    def test_gate_sequence_matches(self, strategy):
        rng = np.random.default_rng(3)
        n = 6
        d = DistributedStatevector(n, 4, strategy=strategy)
        d.set_plus_state()
        state = plus_state(n)
        for _ in range(12):
            q = int(rng.integers(n))
            theta = float(rng.uniform(-2, 2))
            d.apply_one_qubit(rx(theta), q)
            state = apply_gate(state, rx(theta), [q])
        assert np.allclose(d.gather(), state, atol=1e-10)

    def test_diagonal_fn(self, strategy):
        n = 5
        d = DistributedStatevector(n, 4, strategy=strategy)
        d.set_plus_state()
        phase = lambda idx: np.exp(-0.31j * idx.astype(np.float64))
        d.apply_diagonal_fn(phase)
        expected = plus_state(n) * phase(np.arange(2**n, dtype=np.uint64))
        assert np.allclose(d.gather(), expected)

    def test_diagonal_after_remap_uses_logical_indices(self, strategy):
        # Apply a global gate first (may remap), then a diagonal; the
        # diagonal must act on logical indices regardless of data layout.
        n = 5
        d = DistributedStatevector(n, 4, strategy=strategy)
        d.set_plus_state()
        d.apply_one_qubit(rx(0.9), 4)
        phase = lambda idx: np.exp(-0.17j * idx.astype(np.float64))
        d.apply_diagonal_fn(phase)
        expected = apply_gate(plus_state(n), rx(0.9), [4])
        expected = expected * phase(np.arange(2**n, dtype=np.uint64))
        assert np.allclose(d.gather(), expected, atol=1e-10)

    def test_full_qaoa_layer_matches(self, strategy):
        g = erdos_renyi(6, 0.4, rng=2)
        diag = cut_diagonal(g)
        gamma, beta = 0.4, 0.3
        d = DistributedStatevector(6, 4, strategy=strategy)
        d.set_plus_state()
        d.apply_diagonal_fn(lambda idx: np.exp(-1j * gamma * diag[idx]))
        d.apply_rx_layer(beta)
        expected = plus_state(6) * np.exp(-1j * gamma * diag)
        expected = NumpyBackend().apply_mixer_layer(expected[None], beta)
        assert np.allclose(d.gather(), expected[0], atol=1e-10)

    def test_single_rank_degenerate(self, strategy):
        d = DistributedStatevector(4, 1, strategy=strategy)
        d.set_plus_state()
        d.apply_one_qubit(rx(0.5), 3)
        assert d.stats.bytes_moved == 0
        expected = apply_gate(plus_state(4), rx(0.5), [3])
        assert np.allclose(d.gather(), expected)


class TestCommAccounting:
    def test_local_gates_no_comm(self):
        d = DistributedStatevector(6, 4)
        d.set_plus_state()
        for q in range(4):  # all local
            d.apply_one_qubit(rx(0.1), q)
        assert d.stats.bytes_moved == 0

    def test_remap_cheaper_than_direct_for_qaoa(self):
        g = erdos_renyi(6, 0.4, rng=2)
        diag = cut_diagonal(g)
        stats = {}
        for strategy in ("remap", "direct"):
            d = DistributedStatevector(6, 4, strategy=strategy)
            d.set_plus_state()
            for _layer in range(3):
                d.apply_diagonal_fn(lambda idx: np.exp(-0.2j * diag[idx]))
                d.apply_rx_layer(0.3)
            stats[strategy] = d.stats.bytes_moved
        assert stats["remap"] <= stats["direct"]

    def test_direct_exchange_volume(self):
        # One global gate on 2 ranks: both blocks exchanged fully once.
        d = DistributedStatevector(4, 2, strategy="direct")
        d.set_plus_state()
        d.apply_one_qubit(rx(0.2), 3)
        block_bytes = (2**3) * 16
        assert d.stats.bytes_moved == 2 * block_bytes
        assert d.stats.exchanges == 1

    def test_probability_mass_balanced_for_plus(self):
        d = DistributedStatevector(5, 4)
        d.set_plus_state()
        mass = d.local_probability_mass()
        assert np.allclose(mass, 0.25)

    def test_stats_merge(self):
        a = CommStats(1, 10, 1)
        a.merge(CommStats(2, 20, 2))
        assert (a.messages, a.bytes_moved, a.exchanges) == (3, 30, 3)


class TestMachineModel:
    def test_local_gate_time_scales_inverse_ranks(self):
        m = MachineModel()
        t1 = m.gate_time_local(20, 1)
        t4 = m.gate_time_local(20, 4)
        assert t1 == pytest.approx(4 * t4)

    def test_layer_time_positive_and_monotone_in_qubits(self):
        m = MachineModel()
        assert m.qaoa_layer_time(24, 16) < m.qaoa_layer_time(28, 16)

    def test_33_qubit_512_rank_estimate_order_of_magnitude(self):
        # Paper: ~10 minutes for 33 qubits on 512 nodes at p=8.  Our model
        # should land within the same order of magnitude (minutes).
        m = MachineModel()
        seconds = m.qaoa_run_time(33, 512, p_layers=8, iterations=100)
        assert 30.0 < seconds < 6000.0

    def test_remap_strategy_estimated_cheaper(self):
        m = MachineModel()
        t_remap = m.qaoa_layer_time(26, 64, strategy="remap")
        t_direct = m.qaoa_layer_time(26, 64, strategy="direct")
        # remap exchanges halves twice vs full once: same volume, but the
        # latency term differs; just sanity-check both are finite positive.
        assert t_remap > 0 and t_direct > 0


@pytest.mark.parametrize("strategy", ["remap", "direct"])
class TestTwoQubitGates:
    def test_random_mixed_circuit_matches(self, strategy):
        from repro.quantum.gates import CX, rzz

        rng = np.random.default_rng(5)
        n = 6
        d = DistributedStatevector(n, 4, strategy=strategy)
        d.set_plus_state()
        ref = plus_state(n)
        for _ in range(12):
            if rng.random() < 0.5:
                q = int(rng.integers(n))
                theta = float(rng.uniform(-2, 2))
                d.apply_one_qubit(rx(theta), q)
                ref = apply_gate(ref, rx(theta), [q])
            else:
                a, b = rng.choice(n, 2, replace=False).tolist()
                matrix = CX if rng.random() < 0.5 else rzz(float(rng.uniform(-2, 2)))
                d.apply_two_qubit(matrix, a, b)
                ref = apply_gate(ref, matrix, [a, b])
        assert np.allclose(d.gather(), ref, atol=1e-10)

    def test_global_global_pair(self, strategy):
        from repro.quantum.gates import CX

        d = DistributedStatevector(6, 16, strategy=strategy)  # qubits 2-5 global
        d.set_plus_state()
        d.apply_one_qubit(rx(0.4), 4)
        d.apply_two_qubit(CX, 4, 5)
        ref = apply_gate(plus_state(6), rx(0.4), [4])
        ref = apply_gate(ref, CX, [4, 5])
        assert np.allclose(d.gather(), ref, atol=1e-10)

    def test_validation(self, strategy):
        from repro.quantum.gates import CX

        d = DistributedStatevector(5, 4, strategy=strategy)
        with pytest.raises(ValueError, match="4x4"):
            d.apply_two_qubit(np.eye(2), 0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            d.apply_two_qubit(CX, 1, 1)
        with pytest.raises(ValueError, match="out of range"):
            d.apply_two_qubit(CX, 0, 9)

    def test_needs_two_local_qubits(self, strategy):
        from repro.quantum.gates import CX

        d = DistributedStatevector(3, 4, strategy=strategy)  # only 1 local
        with pytest.raises(ValueError, match="two local"):
            d.apply_two_qubit(CX, 0, 1)
