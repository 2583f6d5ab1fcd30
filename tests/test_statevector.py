"""Unit + property tests for repro.quantum.statevector kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum.gates import CX, H, X, rx, rzz
from repro.quantum.backend import NumpyBackend
from repro.quantum.statevector import (
    apply_diagonal,
    apply_gate,
    apply_one_qubit,
    basis_state,
    expectation_diagonal,
    fidelity,
    norm,
    plus_state,
    probabilities,
    sample_counts,
    top_amplitudes,
    zero_state,
)

angles = st.floats(-np.pi, np.pi, allow_nan=False)


class TestStates:
    def test_zero_state(self):
        s = zero_state(3)
        assert s[0] == 1.0 and np.count_nonzero(s) == 1

    def test_plus_state_uniform(self):
        s = plus_state(3)
        assert np.allclose(np.abs(s), 1 / np.sqrt(8))

    def test_basis_state(self):
        s = basis_state(3, 5)
        assert s[5] == 1.0 and norm(s) == pytest.approx(1.0)


class TestApplyGate:
    def test_x_flips_correct_qubit(self):
        for q in range(3):
            s = apply_gate(zero_state(3), X, [q])
            assert s[1 << q] == pytest.approx(1.0)

    def test_h_on_qubit_zero(self):
        s = apply_gate(zero_state(2), H, [0])
        assert s[0] == pytest.approx(1 / np.sqrt(2))
        assert s[1] == pytest.approx(1 / np.sqrt(2))

    def test_cx_entangles(self):
        s = apply_gate(zero_state(2), H, [0])
        s = apply_gate(s, CX, [0, 1])  # control qubit 0
        # Bell state (|00> + |11>)/sqrt2
        assert s[0] == pytest.approx(1 / np.sqrt(2))
        assert s[3] == pytest.approx(1 / np.sqrt(2))

    def test_control_target_ordering_matters(self):
        s1 = apply_gate(basis_state(2, 1), CX, [0, 1])  # control=0 set -> flip q1
        assert np.argmax(np.abs(s1)) == 3
        s2 = apply_gate(basis_state(2, 1), CX, [1, 0])  # control=1 unset -> no-op
        assert np.argmax(np.abs(s2)) == 1

    def test_one_qubit_fast_path_matches_general(self):
        rng = np.random.default_rng(0)
        state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state /= np.linalg.norm(state)
        m = rx(0.7)
        for q in range(4):
            assert np.allclose(
                apply_one_qubit(state, m, q), apply_gate(state, m, [q])
            )

    def test_wrong_matrix_shape(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_gate(zero_state(2), H, [0, 1])

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError, match="duplicate"):
            apply_gate(zero_state(2), CX, [0, 0])

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(zero_state(2), H, [2])

    def test_non_power_of_two_state_rejected(self):
        # int(log2(len)) silently truncated before; malformed states must
        # fail loudly instead of corrupting the result.
        for bad_len in (3, 5, 6, 12):
            state = np.ones(bad_len, dtype=np.complex128)
            with pytest.raises(ValueError, match="power of 2"):
                apply_gate(state, X, [0])
            with pytest.raises(ValueError, match="power of 2"):
                apply_one_qubit(state, X, 0)
            with pytest.raises(ValueError, match="power of 2"):
                NumpyBackend().apply_mixer_layer(state[None], 0.3)

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match="power of 2"):
            apply_gate(np.zeros(0, dtype=np.complex128), X, [0])

    @settings(max_examples=25, deadline=None)
    @given(angles, st.integers(0, 3))
    def test_norm_preserved_single_qubit(self, theta, q):
        rng = np.random.default_rng(42)
        state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state /= np.linalg.norm(state)
        out = apply_gate(state, rx(theta), [q])
        assert norm(out) == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(angles, st.integers(0, 2), st.integers(0, 2))
    def test_norm_preserved_two_qubit(self, theta, a, b):
        if a == b:
            return
        rng = np.random.default_rng(43)
        state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state /= np.linalg.norm(state)
        out = apply_gate(state, rzz(theta), [a, b])
        assert norm(out) == pytest.approx(1.0, abs=1e-10)


class TestDiagonalAndMixer:
    def test_apply_diagonal_elementwise(self):
        state = plus_state(2)
        diag = np.exp(1j * np.arange(4))
        out = apply_diagonal(state, diag)
        assert np.allclose(out, state * diag)

    def test_apply_diagonal_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_diagonal(plus_state(2), np.ones(3))

    def test_rx_layer_matches_per_qubit_gates(self):
        beta = 0.37
        state = plus_state(3)
        expected = state.copy()
        for q in range(3):
            expected = apply_gate(expected, rx(2 * beta), [q])
        out = NumpyBackend().apply_mixer_layer(state[None].copy(), beta)
        assert np.allclose(out[0], expected)

    def test_rx_layer_beta_zero_identity(self):
        state = plus_state(3)
        out = NumpyBackend().apply_mixer_layer(state[None].copy(), 0.0)
        assert np.allclose(out[0], state)

    def test_plus_state_invariant_under_mixer(self):
        # |+>^n is the X-mixer ground state: only a global phase applies.
        state = plus_state(4)
        out = NumpyBackend().apply_mixer_layer(state[None].copy(), 0.8)
        assert fidelity(out[0], state) == pytest.approx(1.0, abs=1e-10)


class TestMeasurement:
    def test_probabilities_sum_to_one(self):
        assert probabilities(plus_state(5)).sum() == pytest.approx(1.0)

    def test_sample_counts_total(self):
        counts = sample_counts(plus_state(3), 1000, rng=0)
        assert sum(counts.values()) == 1000

    def test_sample_counts_deterministic_state(self):
        counts = sample_counts(basis_state(3, 5), 100, rng=0)
        assert counts == {5: 100}

    def test_sample_counts_seeded(self):
        a = sample_counts(plus_state(4), 500, rng=9)
        b = sample_counts(plus_state(4), 500, rng=9)
        assert a == b

    def test_sample_counts_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_counts(plus_state(2), 0)

    def test_top_amplitudes_order(self):
        state = np.array([0.1, 0.7, 0.5, 0.5], dtype=complex)
        state /= np.linalg.norm(state)
        top = top_amplitudes(state, 2)
        assert top[0] == 1
        assert set(top.tolist()) <= {1, 2, 3}

    @pytest.mark.parametrize("k", [0, -3])
    def test_top_amplitudes_rejects_k_below_one(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            top_amplitudes(plus_state(6), k)

    def test_top_amplitudes_k_clamped(self):
        top = top_amplitudes(plus_state(2), 100)
        assert len(top) == 4

    def test_expectation_diagonal(self):
        state = basis_state(2, 3)
        diag = np.array([0.0, 1.0, 2.0, 7.0])
        assert expectation_diagonal(state, diag) == pytest.approx(7.0)

    def test_expectation_uniform_state_is_mean(self):
        diag = np.arange(8, dtype=float)
        assert expectation_diagonal(plus_state(3), diag) == pytest.approx(diag.mean())

    def test_fidelity_bounds(self):
        a, b = plus_state(2), basis_state(2, 0)
        assert fidelity(a, a) == pytest.approx(1.0)
        assert 0 <= fidelity(a, b) <= 1
