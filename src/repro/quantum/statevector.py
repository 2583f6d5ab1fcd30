"""Vectorised statevector kernels.

This is the numerical core of the Aer-simulator substitute: dense
``complex128`` statevectors over ``n`` qubits with little-endian qubit
indexing (qubit ``q`` = bit ``q`` of the index).  Gate application uses the
reshape/moveaxis tensor kernel; diagonal operators get a fast elementwise
path — the QAOA cost layer is one diagonal multiply, which is what makes
the grid searches of the paper tractable on a laptop.

Batch layout: kernels that sweep many parameter vectors over the same
graph operate on ``(B, 2**n)`` arrays — batch index leading, basis index
trailing — so every per-qubit pass stays one contiguous vectorised
operation across the whole batch (see :mod:`repro.qaoa.engine`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.rng import RngLike, ensure_rng


def n_qubits_for_dim(dim: int) -> int:
    """Qubit count for a statevector length, validating it is a power of 2.

    Every kernel below infers ``n`` from the array length; a silent
    ``int(log2(...))`` truncation on a malformed state corrupts the result,
    so reject non-power-of-2 lengths up front.
    """
    if dim < 1 or (dim & (dim - 1)) != 0:
        raise ValueError(f"statevector length {dim} is not a power of 2")
    return dim.bit_length() - 1


def zero_state(n_qubits: int) -> np.ndarray:
    """|0...0> statevector."""
    state = np.zeros(1 << n_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def plus_state(n_qubits: int) -> np.ndarray:
    """|+>^n — the QAOA initial state (Eq. 2)."""
    dim = 1 << n_qubits
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index>."""
    state = np.zeros(1 << n_qubits, dtype=np.complex128)
    state[index] = 1.0
    return state


def plus_state_batch(
    n_qubits: int, batch: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """``batch`` copies of |+>^n as a ``(batch, 2**n)`` array.

    ``out`` lets callers (the sweep engine) reuse an already-allocated
    buffer; it must have the exact shape and ``complex128`` dtype.
    """
    if batch < 1:
        raise ValueError("batch must be positive")
    dim = 1 << n_qubits
    amplitude = 1.0 / np.sqrt(dim)
    if out is None:
        return np.full((batch, dim), amplitude, dtype=np.complex128)
    if out.shape != (batch, dim) or out.dtype != np.complex128:
        raise ValueError(
            f"out buffer shape {out.shape}/{out.dtype} != ({batch}, {dim})/complex128"
        )
    out[...] = amplitude
    return out


def apply_gate(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a k-qubit unitary to ``qubits`` of ``state`` (returns new array).

    Gate-matrix convention: ``qubits[0]`` is the most significant bit of the
    gate's own 2^k index (see :mod:`repro.quantum.gates`).
    """
    n = n_qubits_for_dim(len(state))
    k = len(qubits)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {matrix.shape} mismatch for {k} qubit(s)")
    if len(set(qubits)) != k:
        raise ValueError("duplicate qubits")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range")
    # Tensor axes: axis a of the reshaped state corresponds to qubit n-1-a.
    psi = state.reshape((2,) * n)
    axes = [n - 1 - q for q in qubits]
    psi = np.moveaxis(psi, axes, range(k))
    tail_shape = psi.shape[k:]
    psi = psi.reshape(1 << k, -1)
    psi = matrix @ psi
    psi = psi.reshape((2,) * k + tail_shape)
    psi = np.moveaxis(psi, range(k), axes)
    return np.ascontiguousarray(psi).reshape(-1)


def apply_one_qubit(state: np.ndarray, matrix: np.ndarray, q: int) -> np.ndarray:
    """Single-qubit fast path: reshape to (high, 2, low) and contract.

    Used in the QAOA mixer loop; avoids the general moveaxis machinery.
    """
    n = n_qubits_for_dim(len(state))
    if not 0 <= q < n:
        raise ValueError(f"qubit {q} out of range")
    view = state.reshape(1 << (n - 1 - q), 2, 1 << q)
    out = np.empty_like(view)
    a, b = view[:, 0, :], view[:, 1, :]
    out[:, 0, :] = matrix[0, 0] * a + matrix[0, 1] * b
    out[:, 1, :] = matrix[1, 0] * a + matrix[1, 1] * b
    return out.reshape(-1)


def apply_diagonal(state: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Multiply by a full 2^n diagonal (e.g. ``exp(-iγ·cut_diagonal)``).

    ``state`` may be a single ``(2**n,)`` vector or a ``(B, 2**n)`` batch;
    the diagonal broadcasts over the leading batch axis.
    """
    if diagonal.shape != state.shape[-1:]:
        raise ValueError("diagonal length mismatch")
    return state * diagonal


def _batch_angles(states: np.ndarray, angles, what: str) -> np.ndarray:
    """Validate a ``(B, dim)`` batch and its layer angles: a scalar shared
    by every row, or a ``(B,)`` per-row vector."""
    if states.ndim != 2:
        raise ValueError(f"expected a (B, dim) batch, got ndim={states.ndim}")
    arr = np.asarray(angles, dtype=np.float64)
    if arr.ndim != 0 and arr.shape != (states.shape[0],):
        raise ValueError(
            f"{what} shape {arr.shape} != batch ({states.shape[0]},) or scalar"
        )
    return arr


def _scratch_like(states: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    if scratch is None:
        return np.empty_like(states)
    if scratch.shape != states.shape or scratch.dtype != states.dtype:
        raise ValueError("scratch buffer shape/dtype mismatch")
    return scratch


def apply_phases_batch(
    states: np.ndarray,
    diagonal: np.ndarray,
    gammas,
    *,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """In place: ``states[b] *= exp(-1j * gammas[b] * diagonal)``.

    The QAOA cost layer on a ``(B, 2**n)`` batch.  ``gammas`` is a
    ``(B,)`` per-row vector, or a scalar whose one phase row is shared by
    every row.  ``scratch`` is an optional ``(B, 2**n)`` complex buffer
    for the phase table so sweep loops avoid a fresh allocation per layer.
    """
    gammas = _batch_angles(states, gammas, "gammas")
    if diagonal.shape != states.shape[-1:]:
        raise ValueError("diagonal length mismatch")
    scratch = _scratch_like(states, scratch)
    phases = scratch if gammas.ndim else scratch[0]
    np.multiply.outer(-1j * gammas, diagonal, out=phases)
    np.exp(phases, out=phases)
    states *= phases
    return states


def apply_rx_layer(
    states: np.ndarray, betas, *, scratch: np.ndarray | None = None
) -> np.ndarray:
    """In place: ``RX(2β)`` on every qubit — the QAOA mixer ``exp(-iβ Σ X_i)``.

    ``states`` is a ``(B, 2**n)`` batch; ``betas`` is a scalar shared by
    every row or a ``(B,)`` vector of per-row mixer angles.  Each qubit
    costs three full-array ufunc passes against ``scratch`` (allocated on
    demand).
    """
    beta_arr = _batch_angles(states, betas, "betas")
    n = n_qubits_for_dim(states.shape[-1])
    c = np.cos(beta_arr)
    s = -1j * np.sin(beta_arr)
    if beta_arr.ndim:
        # Broadcast per-row coefficients over the (B, high, 2, low) view.
        c = c[:, None, None, None]
        s = s[:, None, None, None]
    scratch = _scratch_like(states, scratch)
    batch = states.shape[0]
    for q in range(n):
        view = states.reshape(batch, 1 << (n - 1 - q), 2, 1 << q)
        tview = scratch.reshape(view.shape)
        # a' = c·a + s·b, b' = s·a + c·b via one reversed-axis read:
        # tmp = s·swap(view); view = c·view + tmp.
        np.multiply(view[:, :, ::-1, :], s, out=tview)
        np.multiply(view, c, out=view)
        view += tview
    return states


def walsh_hadamard_batch(
    states: np.ndarray, *, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform along the last axis, in place.

    ``n`` radix-2 butterfly passes; the result carries a factor of
    ``2**(n/2)`` relative to ``H^{⊗n}|ψ⟩`` — callers fold the normalisation
    into downstream constants (one multiply beats ``n`` scaled passes).
    ``states`` must be C-contiguous (the butterflies run on reshaped views;
    a strided input would silently operate on a copy).  ``scratch`` is an
    optional same-shape ping-pong buffer.  Used by the sweep engine's
    mixer-eigenbasis path: ``exp(-iβ ΣX) = H^{⊗n} exp(-iβ ΣZ) H^{⊗n}``.
    """
    n = n_qubits_for_dim(states.shape[-1])
    if not states.flags.c_contiguous:
        raise ValueError("states must be C-contiguous for in-place butterflies")
    src, dst = states, _scratch_like(states, scratch)
    for q in range(n):
        view = src.reshape(-1, 2, 1 << q)
        out = dst.reshape(view.shape)
        np.add(view[:, 0, :], view[:, 1, :], out=out[:, 0, :])
        np.subtract(view[:, 0, :], view[:, 1, :], out=out[:, 1, :])
        src, dst = dst, src
    if src is not states:
        states[...] = src
    return states


def probabilities(state: np.ndarray) -> np.ndarray:
    """|ψ_i|² for every basis state."""
    return np.abs(state) ** 2


def sample_counts(
    state: np.ndarray, shots: int, rng: RngLike = None
) -> dict[int, int]:
    """Sample measurement outcomes; returns {basis index: count}.

    Matches Aer's ``qasm`` sampling semantics (multinomial over |ψ|²).
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    gen = ensure_rng(rng)
    probs = probabilities(state)
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-8):
        probs = probs / total
    samples = gen.choice(len(state), size=shots, p=probs)
    values, counts = np.unique(samples, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts, strict=True)}


def top_amplitudes(state: np.ndarray, k: int = 1) -> np.ndarray:
    """Indices of the ``k`` largest-|amplitude| basis states, descending.

    The paper selects the single highest amplitude as the QAOA solution
    (§3.2) and suggests considering several — both use this helper.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    probs = probabilities(state)
    k = min(k, len(probs))
    idx = np.argpartition(probs, len(probs) - k)[-k:]
    return idx[np.argsort(-probs[idx], kind="stable")]


def expectation_diagonal(state: np.ndarray, diagonal: np.ndarray) -> float:
    """⟨ψ| D |ψ⟩ for a real diagonal observable D (e.g. H_C)."""
    return float(np.real(np.vdot(state, diagonal * state)))


def expectation_diagonal_batch(
    states: np.ndarray, diagonal: np.ndarray
) -> np.ndarray:
    """⟨ψ_b| D |ψ_b⟩ for every row of a ``(B, 2**n)`` batch (real D)."""
    if states.ndim != 2:
        raise ValueError(f"expected (B, dim) batch, got ndim={states.ndim}")
    if diagonal.shape != states.shape[-1:]:
        raise ValueError("diagonal length mismatch")
    return (np.abs(states) ** 2) @ np.real(diagonal)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|⟨a|b⟩|² between two pure states."""
    return float(np.abs(np.vdot(a, b)) ** 2)


def norm(state: np.ndarray) -> float:
    return float(np.linalg.norm(state))


__all__ = [
    "n_qubits_for_dim",
    "zero_state",
    "plus_state",
    "plus_state_batch",
    "basis_state",
    "apply_gate",
    "apply_one_qubit",
    "apply_diagonal",
    "apply_phases_batch",
    "apply_rx_layer",
    "walsh_hadamard_batch",
    "probabilities",
    "sample_counts",
    "top_amplitudes",
    "expectation_diagonal",
    "expectation_diagonal_batch",
    "fidelity",
    "norm",
]
