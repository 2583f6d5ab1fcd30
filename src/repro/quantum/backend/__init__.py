"""Pluggable statevector-evolution backends (see src/repro/quantum/README.md).

This package is the single seam between QAOA consumers (the sweep
engine, solvers, RQAOA, QAOA² leaves, the service scheduler, the
reference simulator/noise loops) and the numerical kernels that evolve
statevectors.  Consumers speak :class:`StatevectorBackend`; kernel
implementations live behind it (``numpy`` — the bit-identical reference;
``fused`` — FWHT-diagonalised mixer; ``compiled`` — numba-JIT'd parallel
kernels, available only where numba is installed and raising
:class:`BackendUnavailable` otherwise), and new ones (GPU, distributed)
plug in via :func:`register_backend` without touching any caller.

The raw layer kernels are intentionally re-exported here: this package
is their sanctioned import surface — nothing outside it (besides the
``repro.quantum`` facade) should import them from
``repro.quantum.statevector`` directly.
"""

from repro.quantum.backend.base import (
    CHUNK_BUDGET_BYTES,
    DEFAULT_CHUNK_SIZE,
    BackendUnavailable,
    StatevectorBackend,
    cache_resident_chunk_size,
)
from repro.quantum.backend.compiled import CompiledBackend, numba_available
from repro.quantum.backend.fused import FusedBackend
from repro.quantum.backend.numpy_backend import NumpyBackend
from repro.quantum.backend.registry import (
    COMPILED_MIN_QUBITS,
    COMPILED_MIN_WORK_ROWS,
    FUSED_MIN_QUBITS,
    auto_backend_name,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.quantum.backend.scratch import (
    DEFAULT_POOL_BUDGET_BYTES,
    ScratchPool,
    shared_pool,
)
from repro.quantum.statevector import (  # noqa: F401 — sanctioned re-exports
    apply_phases_batch,
    apply_rx_layer,
)

__all__ = [
    "CHUNK_BUDGET_BYTES",
    "COMPILED_MIN_QUBITS",
    "COMPILED_MIN_WORK_ROWS",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_POOL_BUDGET_BYTES",
    "FUSED_MIN_QUBITS",
    "BackendUnavailable",
    "CompiledBackend",
    "FusedBackend",
    "NumpyBackend",
    "ScratchPool",
    "StatevectorBackend",
    "apply_phases_batch",
    "apply_rx_layer",
    "auto_backend_name",
    "available_backends",
    "cache_resident_chunk_size",
    "get_backend",
    "numba_available",
    "register_backend",
    "resolve_backend",
    "shared_pool",
]
