"""NISQ noise channels and readout-error simulation.

The paper targets the NISQ regime ("current NISQ devices feature a modest
number of qubits and useful compute time is limited due to decoherence")
and frames its workflow as "preparation of real quantum devices".  This
module provides the standard noise abstractions needed to rehearse that
step without density matrices: stochastic Pauli channels applied as
trajectory noise on the statevector, plus a classical readout-error model
with matrix-inversion mitigation.

Trajectory semantics: each ``apply_*`` call samples one Kraus branch, so
expectation values converge to the channel average over repeated
trajectories — exactly how shot-based simulators model noise cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.quantum.gates import X, Y, Z
from repro.quantum.statevector import apply_one_qubit
from repro.util.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class DepolarizingChannel:
    """Single-qubit depolarizing noise: with probability p apply a uniform
    random Pauli (X, Y or Z)."""

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def apply(self, state: np.ndarray, qubit: int, rng: RngLike = None) -> np.ndarray:
        gen = ensure_rng(rng)
        if gen.random() >= self.probability:
            return state
        pauli = (X, Y, Z)[int(gen.integers(3))]
        return apply_one_qubit(state, pauli, qubit)


@dataclass(frozen=True)
class DephasingChannel:
    """Phase-flip channel: with probability p apply Z."""

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def apply(self, state: np.ndarray, qubit: int, rng: RngLike = None) -> np.ndarray:
        gen = ensure_rng(rng)
        if gen.random() >= self.probability:
            return state
        return apply_one_qubit(state, Z, qubit)


@dataclass
class NoiseModel:
    """Gate-attached trajectory noise for the QAOA fast path.

    ``one_qubit`` noise follows every mixer rotation; ``two_qubit`` noise
    follows every cost-layer edge term (applied to both endpoints, the
    usual two-qubit depolarizing approximation).
    """

    one_qubit: Optional[DepolarizingChannel] = None
    two_qubit: Optional[DepolarizingChannel] = None

    def is_trivial(self) -> bool:
        return (self.one_qubit is None or self.one_qubit.probability == 0.0) and (
            self.two_qubit is None or self.two_qubit.probability == 0.0
        )


def noisy_qaoa_statevector(
    energy,  # repro.qaoa.energy.MaxCutEnergy
    params: np.ndarray,
    noise: NoiseModel,
    rng: RngLike = None,
) -> np.ndarray:
    """One noise trajectory of the QAOA circuit (paper Eq. 2 + noise).

    The cost layer stays an exact diagonal (it is diagonal noise-free), with
    two-qubit channel noise sampled per edge; the mixer applies per-qubit
    channel noise after each RX.  The noiseless layer unitaries run through
    the evaluator's statevector backend (:mod:`repro.quantum.backend`), so
    trajectories and the exact path use the same kernels.
    """
    from repro.quantum.statevector import plus_state

    gen = ensure_rng(rng)
    graph = energy.graph
    backend = energy.backend
    gammas, betas = energy.split_params(params)
    state = plus_state(energy.n_qubits)
    for gamma, beta in zip(gammas, betas, strict=True):
        # The layer primitives take (B, dim) batches; walk a one-row view.
        backend.apply_cost_layer(state[None], energy.diagonal, gamma)
        if noise.two_qubit is not None and noise.two_qubit.probability > 0:
            for a, b in zip(graph.u.tolist(), graph.v.tolist(), strict=True):
                state = noise.two_qubit.apply(state, a, rng=gen)
                state = noise.two_qubit.apply(state, b, rng=gen)
        backend.apply_mixer_layer(state[None], beta)
        if noise.one_qubit is not None and noise.one_qubit.probability > 0:
            for q in range(energy.n_qubits):
                state = noise.one_qubit.apply(state, q, rng=gen)
    return state


def noisy_expectation(
    energy,
    params: np.ndarray,
    noise: NoiseModel,
    *,
    trajectories: int = 16,
    rng: RngLike = None,
) -> float:
    """Channel-averaged ⟨H_C⟩ estimated over noise trajectories."""
    from repro.quantum.statevector import probabilities

    gen = ensure_rng(rng)
    if noise.is_trivial():
        return energy.expectation(params)
    total = 0.0
    for _ in range(max(1, trajectories)):
        state = noisy_qaoa_statevector(energy, params, noise, rng=gen)
        total += float(np.dot(probabilities(state), energy.diagonal))
    return total / max(1, trajectories)


# ---------------------------------------------------------------------------
# Readout error + mitigation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReadoutError:
    """Independent per-qubit assignment errors.

    ``p01`` = P(read 1 | prepared 0), ``p10`` = P(read 0 | prepared 1).
    """

    p01: float
    p10: float

    def __post_init__(self) -> None:
        for p in (self.p01, self.p10):
            if not 0.0 <= p <= 0.5:
                raise ValueError("readout flip probabilities must be in [0, 0.5]")

    def apply_to_counts(
        self, counts: Mapping[int, int], n_qubits: int, rng: RngLike = None
    ) -> Dict[int, int]:
        """Corrupt measured counts by flipping bits independently."""
        gen = ensure_rng(rng)
        out: Dict[int, int] = {}
        for basis, count in counts.items():
            bits = (int(basis) >> np.arange(n_qubits, dtype=np.uint64)) & 1
            for _ in range(count):
                flips = np.where(
                    bits == 0, gen.random(n_qubits) < self.p01,
                    gen.random(n_qubits) < self.p10,
                )
                noisy = bits ^ flips
                key = int((noisy.astype(np.uint64) << np.arange(n_qubits, dtype=np.uint64)).sum())
                out[key] = out.get(key, 0) + 1
        return out

    def single_qubit_matrix(self) -> np.ndarray:
        """Column-stochastic confusion matrix for one qubit."""
        return np.array(
            [[1 - self.p01, self.p10], [self.p01, 1 - self.p10]], dtype=np.float64
        )


def mitigate_readout(
    counts: Mapping[int, int], n_qubits: int, error: ReadoutError
) -> Dict[int, float]:
    """Matrix-inversion readout mitigation (tensor-product model).

    Inverts the per-qubit confusion matrix and applies it tensor-wise to
    the empirical distribution; feasible for the small sub-graph sizes
    QAOA² produces.  Returns a quasi-probability distribution over basis
    states (may contain small negatives, as standard for this method).
    """
    if n_qubits > 16:
        raise ValueError("tensor-product mitigation limited to <= 16 qubits")
    dim = 1 << n_qubits
    shots = sum(counts.values())
    if shots == 0:
        raise ValueError("empty counts")
    probs = np.zeros(dim)
    for basis, count in counts.items():
        probs[int(basis)] = count / shots
    inv1 = np.linalg.inv(error.single_qubit_matrix())
    # Apply the inverse per qubit axis (tensor structure, O(n 2^n)).
    tensor = probs.reshape((2,) * n_qubits)
    for axis in range(n_qubits):
        tensor = np.tensordot(inv1, tensor, axes=([1], [axis]))
        tensor = np.moveaxis(tensor, 0, axis)
    mitigated = tensor.reshape(dim)
    return {i: float(v) for i, v in enumerate(mitigated) if abs(v) > 1e-12}


__all__ = [
    "DepolarizingChannel",
    "DephasingChannel",
    "NoiseModel",
    "noisy_qaoa_statevector",
    "noisy_expectation",
    "ReadoutError",
    "mitigate_readout",
]
