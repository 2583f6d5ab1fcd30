"""Unit tests for repro.quantum.simulator (circuit execution path)."""

import numpy as np
import pytest

from repro.graphs import cut_diagonal, erdos_renyi
from repro.quantum import (
    Circuit,
    IsingHamiltonian,
    SimulationResult,
    StatevectorSimulator,
    run_qaoa_reference,
)
from repro.quantum.circuit import ParamRef
from repro.quantum.gates import gate_matrix
from repro.quantum.statevector import fidelity, plus_state, zero_state


@pytest.fixture
def sim():
    return StatevectorSimulator()


class TestRun:
    def test_empty_circuit_returns_zero_state(self, sim):
        result = sim.run(Circuit(3))
        assert np.allclose(result.state, zero_state(3))

    def test_hadamard_wall_gives_plus_state(self, sim):
        qc = Circuit(4)
        for q in range(4):
            qc.h(q)
        assert np.allclose(sim.statevector(qc), plus_state(4))

    def test_bell_state(self, sim):
        state = sim.statevector(Circuit(2).h(0).cx(0, 1))
        assert state[0] == pytest.approx(1 / np.sqrt(2))
        assert state[3] == pytest.approx(1 / np.sqrt(2))

    def test_ghz_state(self, sim):
        qc = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        state = sim.statevector(qc)
        assert abs(state[0]) == pytest.approx(1 / np.sqrt(2))
        assert abs(state[7]) == pytest.approx(1 / np.sqrt(2))

    def test_initial_state_override(self, sim):
        qc = Circuit(2).x(0)
        init = np.zeros(4, dtype=complex)
        init[2] = 1.0  # |10>
        state = sim.run(qc, initial_state=init).state
        assert abs(state[3]) == pytest.approx(1.0)

    def test_initial_state_dimension_mismatch(self, sim):
        with pytest.raises(ValueError, match="dimension"):
            sim.run(Circuit(2), initial_state=np.ones(3, dtype=complex))

    def test_parametric_circuit_rejected(self, sim):
        qc = Circuit(1)
        qc.rx(ParamRef(0), 0)
        with pytest.raises(ValueError, match="bind"):
            sim.run(qc)

    def test_max_qubits_enforced(self):
        sim = StatevectorSimulator(max_qubits=3)
        with pytest.raises(ValueError, match="max_qubits"):
            sim.run(Circuit(4))

    def test_diagonal_gate_fast_path_matches_general(self, sim):
        # rz via the diagonal fast path vs explicit matrix application.
        from repro.quantum.statevector import apply_gate

        qc = Circuit(3).h(0).h(1).h(2).rz(0.7, 1).rzz(0.4, 0, 2)
        state = sim.statevector(qc)
        expected = plus_state(3)
        expected = apply_gate(expected, gate_matrix("rz", (0.7,)), [1])
        expected = apply_gate(expected, gate_matrix("rzz", (0.4,)), [0, 2])
        assert np.allclose(state, expected)

    def test_norm_preserved_random_circuit(self, sim, rng):
        qc = Circuit(4)
        names = ["h", "x", "rx", "rz", "cx", "rzz", "cz"]
        for _ in range(25):
            name = names[rng.integers(len(names))]
            from repro.quantum.gates import GATE_SET

            _, n_q, n_p = GATE_SET[name]
            qs = rng.choice(4, size=n_q, replace=False).tolist()
            qc.append(name, qs, tuple(rng.uniform(-3, 3, n_p)))
        state = sim.statevector(qc)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


class TestSampling:
    def test_shots_counts(self, sim):
        result = sim.run(Circuit(2).h(0), shots=256, rng=1)
        assert sum(result.counts.values()) == 256
        assert set(result.counts) <= {0, 1}

    def test_counts_bitstrings_format(self, sim):
        result = sim.run(Circuit(2).x(0), shots=10, rng=0)
        assert result.counts_bitstrings() == {"01": 10}  # qubit 0 rightmost

    def test_no_shots_no_counts(self, sim):
        result = sim.run(Circuit(2))
        assert result.counts is None
        assert result.counts_bitstrings() == {}

    def test_expectation_exact_vs_sampled(self, sim):
        g = erdos_renyi(6, 0.5, rng=4)
        h = IsingHamiltonian.from_maxcut(g)
        qc = Circuit(6)
        for q in range(6):
            qc.h(q)
        exact = sim.expectation(qc, h)
        sampled = sim.expectation(qc, h, shots=20000, rng=5)
        assert sampled == pytest.approx(exact, rel=0.05)

    def test_top_bitstrings(self, sim):
        result = sim.run(Circuit(2).x(1))
        assert result.top_bitstrings(1)[0] == 2


class TestQAOAReference:
    def test_reference_matches_circuit_path(self, sim):
        g = erdos_renyi(5, 0.6, rng=8)
        diag = cut_diagonal(g)
        gammas = np.array([0.3, 0.5])
        betas = np.array([0.2, 0.4])
        ref = run_qaoa_reference(diag, gammas, betas)
        qc = Circuit(5)
        for q in range(5):
            qc.h(q)
        for gm, bt in zip(gammas, betas, strict=True):
            for a, b, w in zip(g.u, g.v, g.w, strict=True):
                qc.rzz(-gm * w, int(a), int(b))
            for q in range(5):
                qc.rx(2 * bt, q)
        assert fidelity(sim.statevector(qc), ref) == pytest.approx(1.0, abs=1e-10)

    def test_reference_zero_params_is_plus(self):
        diag = cut_diagonal(erdos_renyi(4, 0.5, rng=1))
        state = run_qaoa_reference(diag, np.zeros(2), np.zeros(2))
        assert np.allclose(state, plus_state(4))

    @pytest.mark.parametrize("length", [12, 0])
    def test_reference_rejects_non_power_of_two_diagonal(self, length):
        # int(log2(len)) used to truncate 12 to a 3-qubit |+⟩ state and
        # overflow on an empty diagonal.
        with pytest.raises(ValueError, match="not a power of 2"):
            run_qaoa_reference(np.zeros(length), [], [])
        with pytest.raises(ValueError, match="not a power of 2"):
            SimulationResult(np.zeros(length, dtype=np.complex128)).n_qubits
