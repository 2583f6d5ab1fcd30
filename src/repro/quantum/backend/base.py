"""The statevector-backend contract: the full QAOA evolve vocabulary.

Every QAOA evolution in the repo — the sweep engine's chunked batches,
the solver's pointwise objective, RQAOA's per-round evolve, the QAOA²
leaf solves, the service scheduler's lock-step SPSA batches, and the
reference loops in ``quantum/simulator.py`` / ``quantum/noise.py`` — is
expressed in six operations:

* :meth:`StatevectorBackend.plus_state_batch` — the |+⟩^n initial state,
* :meth:`StatevectorBackend.apply_cost_layer` — ``exp(-iγ H_C)`` as an
  elementwise diagonal phase multiply,
* :meth:`StatevectorBackend.apply_mixer_layer` — ``exp(-iβ ΣX)``,
* :meth:`StatevectorBackend.evolve_batch` / :meth:`evolve_state` — the
  composed p-layer circuit, batched and pointwise, both one walk
  through the same cost→mixer loop,
* :meth:`StatevectorBackend.expectations_batch` — ⟨ψ|H_C|ψ⟩ per row,

plus :meth:`walsh_transform` (the unnormalised Walsh–Hadamard transform
used by the spectral angle-grid tier and by fused-mixer backends),
advisory chunk sizing via :meth:`preferred_chunk_size` (the sweep engine
asks the backend how wide its evaluation chunks should be), and scratch
management via :class:`repro.quantum.backend.scratch.ScratchPool`.
Implementations differ only in *how* they realise the operations (NumPy
passes, fused FWHT kernels, future numba/GPU/distributed backends); all
must agree numerically to ≤1e-12 with :class:`NumpyBackend`, which is the
bit-identical wrapper over the seed kernels.

State layout is the repo-wide convention: dense ``complex128``, qubit
``q`` = bit ``q`` of the little-endian basis index.  There is one state
shape: every layer primitive takes a ``(B, 2**n)`` batch (batch index
leading) and rejects a 1-D state; a lone state is a one-row batch.  Each
layer angle is a scalar shared by every row or a ``(B,)`` per-row
vector — :meth:`evolve_state` walks its one row with scalar angles,
:meth:`evolve_batch` with ``(B,)`` columns.  Parameter rows are packed
``[γ_1..γ_p, β_1..β_p]``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.quantum.backend.scratch import ScratchPool, shared_pool
from repro.quantum.statevector import n_qubits_for_dim
from repro.util.tracing import current_trace

# Default sweep-chunk sizing (the cache-resident policy the engine has
# always used): as many rows as keep the two (chunk, 2**n) complex work
# buffers inside CHUNK_BUDGET_BYTES, capped at DEFAULT_CHUNK_SIZE rows.
# Backends that tolerate (or want) wider chunks override
# :meth:`StatevectorBackend.preferred_chunk_size`.
DEFAULT_CHUNK_SIZE = 64
CHUNK_BUDGET_BYTES = 512 * 1024


def cache_resident_chunk_size(n_qubits: int) -> int:
    """Chunk rows for which states + scratch fit ``CHUNK_BUDGET_BYTES``
    (clamped to [1, DEFAULT_CHUNK_SIZE]).  Measured on the batched NumPy
    QAOA kernels: past the cache budget, wider chunks *lose* to narrow
    ones, so this is the advisory default for elementwise backends."""
    row_bytes = 2 * (1 << n_qubits) * 16  # states + scratch rows
    return max(1, min(DEFAULT_CHUNK_SIZE, CHUNK_BUDGET_BYTES // row_bytes))


class BackendUnavailable(RuntimeError):
    """A registered backend cannot run in this environment (e.g. the
    ``compiled`` backend when numba is not installed).

    Raised at resolve/instantiation time so callers fail with a clear
    message instead of an ImportError mid-sweep; the auto policy never
    selects an unavailable backend."""


class StatevectorBackend(ABC):
    """Abstract statevector-evolution backend.

    Subclasses set ``name`` (the registry key) and implement the three
    layer primitives; the composed :meth:`evolve_batch`/:meth:`evolve_state`
    loops are provided here so a backend that only accelerates a primitive
    inherits correct composition, while backends that can fuse across
    layers override the walk both share, :meth:`_evolve_plus` (see
    :class:`repro.quantum.backend.fused.FusedBackend`).
    """

    name: str = "abstract"

    # -- layer primitives ------------------------------------------------
    @abstractmethod
    def plus_state_batch(
        self, n_qubits: int, batch: int, *, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``batch`` copies of |+⟩^n as a ``(batch, 2**n)`` array."""

    @abstractmethod
    def apply_cost_layer(
        self,
        states: np.ndarray,
        diagonal: np.ndarray,
        gammas,
        *,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """In place: multiply by ``exp(-iγ · diagonal)``.

        ``states`` is a ``(B, 2**n)`` batch; ``gammas`` is a scalar shared
        by every row or a ``(B,)`` per-row vector.  ``scratch`` is an
        optional same-shape phase-table buffer.
        """

    @abstractmethod
    def apply_mixer_layer(
        self,
        states: np.ndarray,
        betas,
        *,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """In place: apply ``exp(-iβ Σ_q X_q)`` (RX(2β) on every qubit).

        Same shape contract as :meth:`apply_cost_layer`: a ``(B, 2**n)``
        batch with a scalar or ``(B,)`` β.
        """

    @abstractmethod
    def walsh_transform(
        self, states: np.ndarray, *, scratch: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Unnormalised Walsh–Hadamard transform along the last axis,
        in place (carries a ``2**(n/2)`` factor relative to H^{⊗n})."""

    @abstractmethod
    def expectations_batch(
        self, states: np.ndarray, diagonal: np.ndarray
    ) -> np.ndarray:
        """⟨ψ_b| D |ψ_b⟩ for every row of a ``(B, 2**n)`` batch (real D)."""

    # -- chunk advice -----------------------------------------------------
    def preferred_chunk_size(
        self,
        n_qubits: int,
        *,
        batch: Optional[int] = None,
        layers: Optional[int] = None,
    ) -> int:
        """Advisory sweep-chunk width for this backend (rows per chunk).

        :class:`~repro.qaoa.engine.SweepEngine` consults this instead of
        hard-wiring the cache-budget heuristic, so backends whose kernels
        *want* wide batches (fused BLAS stages, compiled parallel loops)
        can ask for them while elementwise backends keep the
        cache-resident default.  Strictly advisory: results must be
        **bit-identical** for any chunking (pinned by
        ``tests/test_backends.py::TestChunkPolicy``), and the returned
        value must be a pure function of the arguments.  ``batch``/
        ``layers`` describe the sweep about to run when known; the engine
        clamps the advice to ``[1, batch]``.
        """
        return cache_resident_chunk_size(n_qubits)

    # -- composed evolution ---------------------------------------------
    def evolve_batch(
        self,
        diagonal: np.ndarray,
        params_matrix: np.ndarray,
        *,
        pool: Optional[ScratchPool] = None,
    ) -> np.ndarray:
        """Evolve |+⟩^n under p QAOA layers for every parameter row.

        ``params_matrix`` is ``(B, 2p)``; returns the pooled ``(B, 2**n)``
        state buffer, valid until the next backend call on the same pool
        (callers that need to retain states must copy).
        """
        mat = self._params_matrix(params_matrix)
        n = n_qubits_for_dim(len(diagonal))
        m, p = mat.shape[0], mat.shape[1] // 2
        dim = 1 << n
        pool = pool if pool is not None else shared_pool()
        with current_trace().span(
            "backend-evolve", backend=self.name, rows=m, layers=p
        ):
            states = pool.take("states", (m, dim))
            scratch = pool.take("phases", (m, dim))
            return self._evolve_plus(states, diagonal, mat, scratch)

    def evolve_state(self, diagonal: np.ndarray, params: np.ndarray) -> np.ndarray:
        """|ψ_p(γ, β)⟩ for one packed parameter vector (fresh array).

        Walks a one-row batch with *scalar* angles: the angle's shape, not
        the state's, marks a lone state (fused's cost layer keys its
        cheaper one-row kernel on it).  No scratch is passed, so work
        buffers are allocated after any per-diagonal table build: a
        buffer held across the call (pooled or per call) sits under
        fused's first-call cost-table build and raised ``qaoa-deep``'s
        peak RSS by ~4 MiB.  Opens the same ``backend-evolve`` span as
        :meth:`evolve_batch`, with ``rows=1``.
        """
        params = np.asarray(params, dtype=np.float64)
        if params.ndim != 1 or len(params) % 2 != 0:
            raise ValueError("parameter vector must have even length (γs then βs)")
        dim = 1 << n_qubits_for_dim(len(diagonal))
        with current_trace().span(
            "backend-evolve", backend=self.name, rows=1, layers=len(params) // 2
        ):
            states = np.empty((1, dim), dtype=np.complex128)
            return self._evolve_plus(states, diagonal, params, None)[0]

    def _evolve_plus(
        self,
        states: np.ndarray,
        diagonal: np.ndarray,
        params: np.ndarray,
        scratch: Optional[np.ndarray],
    ) -> np.ndarray:
        """Overwrite a ``(B, dim)`` batch with |+⟩^n evolved under p
        cost→mixer layers: the one walk both evolve entry points share.

        ``params`` is a ``(B, 2p)`` matrix (per-row ``(B,)`` angle columns)
        or one ``(2p,)`` vector (scalar angles shared by every row).
        ``scratch`` is shared by every primitive call, or ``None`` for
        each to allocate its own.
        """
        n = n_qubits_for_dim(states.shape[-1])
        self.plus_state_batch(n, states.shape[0], out=states)
        p = params.shape[-1] // 2
        for layer in range(p):
            self.apply_cost_layer(states, diagonal, params[..., layer], scratch=scratch)
            # The phase scratch doubles as the mixer's ping-pong buffer.
            self.apply_mixer_layer(states, params[..., p + layer], scratch=scratch)
        return states

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _params_matrix(params_matrix: np.ndarray) -> np.ndarray:
        mat = np.asarray(params_matrix, dtype=np.float64)
        if mat.ndim == 1:
            mat = mat[None, :]
        if mat.ndim != 2:
            raise ValueError(f"expected (B, 2p) matrix, got ndim={mat.ndim}")
        if mat.shape[1] == 0 or mat.shape[1] % 2 != 0:
            raise ValueError(
                "parameter rows must have even positive length (γs then βs)"
            )
        return mat

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"<{type(self).__name__} name={self.name!r}>"


__all__ = [
    "CHUNK_BUDGET_BYTES",
    "DEFAULT_CHUNK_SIZE",
    "BackendUnavailable",
    "StatevectorBackend",
    "cache_resident_chunk_size",
]
