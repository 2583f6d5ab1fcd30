"""Compiled (Numba) statevector backend: JIT'd cache-resident evolve loops.

The NumPy backends are pass-structured: every layer costs several full
``(B, 2**n)`` ufunc or BLAS sweeps, so a p-layer evolution streams the
whole working set through memory ``O(p)`` times.  This backend instead
compiles the *entire* evolution into one kernel: each parameter row's
statevector is built and evolved in a single loop nest, so a row stays
resident in the core's cache from state prep through the last mixer —
the same locality argument Aer-style simulators use for their fused
``statevector`` method, here as Numba ``@njit(parallel=True,
cache=True)`` routines (cost phase, RX-mixer butterfly, expectation)
plus a fused whole-evolution kernel, parallelised over batch rows.

Numerics are deliberately conservative: ``complex128`` throughout and
**fastmath off**, so trigonometric contraction/reassociation cannot push
results outside the repo's ≤1e-12 cross-backend parity budget (the
kernels are not bit-identical to NumPy — reduction orders differ — but
parity is property-tested in ``tests/test_backends.py`` and
``tests/test_compiled_backend.py``).

Availability
------------
numba is an *optional* dependency and is imported lazily inside
:func:`numba_available`/``_jit_kernels`` (function-level only — the
``compiled-seam`` analyzer rule pins this), so importing this module, the
registry, or anything else in the repo works on a numba-less install.
Resolving ``"compiled"`` without numba raises
:class:`~repro.quantum.backend.base.BackendUnavailable` with an
actionable message, and the auto policy simply never picks it.

The kernel bodies are plain nopython-style Python (module-level ``prange``
is rebound to ``numba.prange`` at JIT time; interpreted, it is ``range``),
so ``CompiledBackend(mode="python")`` runs the *same* algorithms through
the interpreter — far too slow for real sweeps, but exactly what the
numba-less CI needs to property-test kernel correctness on small graphs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from repro.quantum.backend.base import BackendUnavailable, StatevectorBackend
from repro.quantum.backend.scratch import ScratchPool, shared_pool
from repro.quantum.statevector import (
    _batch_angles,
    n_qubits_for_dim,
    plus_state_batch,
)
from repro.util.tracing import current_trace

# Per-chunk state-buffer budget for the compiled evolve kernel.  The
# kernel walks one row at a time (per-row working set is a single 2**n
# vector, cache-resident by construction), so chunks can be as wide as
# the batch; this cap only bounds the pooled (chunk, 2**n) allocation.
COMPILED_CHUNK_BUDGET_BYTES = 256 * 1024 * 1024

# Rebound to numba.prange when the kernels are JIT-compiled; as plain
# Python this is range, so the same bodies run interpreted (mode="python").
prange = range

_NUMBA_AVAILABLE: Optional[bool] = None
_JITTED: Optional[Dict[str, Callable]] = None


def numba_available() -> bool:
    """Whether the optional numba dependency can be imported (cached)."""
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        try:
            import numba  # noqa: F401 — lazy availability probe

            _NUMBA_AVAILABLE = True
        except ImportError:
            _NUMBA_AVAILABLE = False
    return _NUMBA_AVAILABLE


# ----------------------------------------------------------------------
# Kernel bodies (nopython-style; JIT'd lazily, or run interpreted)
# ----------------------------------------------------------------------
def _kernel_cost_layer(states, diagonal, gammas):
    """states[b] *= exp(-i·gammas[b]·diagonal), row-parallel."""
    rows, dim = states.shape
    for b in prange(rows):
        g = gammas[b]
        for i in range(dim):
            ph = g * diagonal[i]
            states[b, i] = states[b, i] * complex(math.cos(ph), -math.sin(ph))


def _kernel_mixer_layer(states, betas, n_qubits):
    """In-place RX(2β) on every qubit: the per-qubit butterfly, one row
    at a time so the row stays cache-resident across all n passes."""
    rows, dim = states.shape
    for b in prange(rows):
        c = math.cos(betas[b])
        s = complex(0.0, -math.sin(betas[b]))
        for q in range(n_qubits):
            half = 1 << q
            step = half << 1
            for base in range(0, dim, step):
                for i in range(base, base + half):
                    a0 = states[b, i]
                    a1 = states[b, i + half]
                    states[b, i] = c * a0 + s * a1
                    states[b, i + half] = s * a0 + c * a1


def _kernel_expectations(states, diagonal, out):
    """out[b] = Σ_i |states[b,i]|² · diagonal[i], row-parallel."""
    rows, dim = states.shape
    for b in prange(rows):
        acc = 0.0
        for i in range(dim):
            v = states[b, i]
            acc += (v.real * v.real + v.imag * v.imag) * diagonal[i]
        out[b] = acc


def _kernel_evolve(states, diagonal, gammas, betas, n_qubits):
    """The fused p-layer evolution: |+⟩ prep folded into the first cost
    phase, then alternating cost/mixer layers — one row per iteration, so
    the whole evolution of a row runs out of cache."""
    rows, dim = states.shape
    layers = gammas.shape[1]
    amp = 1.0 / math.sqrt(dim)
    for b in prange(rows):
        g0 = gammas[b, 0]
        for i in range(dim):
            ph = g0 * diagonal[i]
            states[b, i] = complex(amp * math.cos(ph), -amp * math.sin(ph))
        for layer in range(layers):
            if layer > 0:
                g = gammas[b, layer]
                for i in range(dim):
                    ph = g * diagonal[i]
                    states[b, i] = states[b, i] * complex(
                        math.cos(ph), -math.sin(ph)
                    )
            c = math.cos(betas[b, layer])
            s = complex(0.0, -math.sin(betas[b, layer]))
            for q in range(n_qubits):
                half = 1 << q
                step = half << 1
                for base in range(0, dim, step):
                    for i in range(base, base + half):
                        a0 = states[b, i]
                        a1 = states[b, i + half]
                        states[b, i] = c * a0 + s * a1
                        states[b, i + half] = s * a0 + c * a1


_PY_KERNELS: Dict[str, Callable] = {
    "cost": _kernel_cost_layer,
    "mixer": _kernel_mixer_layer,
    "expect": _kernel_expectations,
    "evolve": _kernel_evolve,
}


def _jit_kernels() -> Dict[str, Callable]:
    """Compile the kernel set once per process (lazy numba import)."""
    global _JITTED, prange
    if _JITTED is None:
        import numba  # function-level: the compiled-seam invariant

        prange = numba.prange
        jit = numba.njit(parallel=True, cache=True, fastmath=False, nogil=True)
        _JITTED = {name: jit(fn) for name, fn in _PY_KERNELS.items()}
    return _JITTED


class CompiledBackend(StatevectorBackend):
    """Numba-JIT'd statevector evolution (``"compiled"`` in the registry).

    ``mode="jit"`` (the registry default) requires numba and raises
    :class:`BackendUnavailable` without it; ``mode="python"`` runs the
    identical kernel bodies interpreted — a correctness harness for
    numba-less environments, never a performance path.
    """

    name = "compiled"

    def __init__(self, mode: str = "jit") -> None:
        if mode not in ("jit", "python"):
            raise ValueError(f"mode must be 'jit' or 'python', got {mode!r}")
        if mode == "jit" and not numba_available():
            raise BackendUnavailable(
                "the 'compiled' statevector backend needs numba, which is "
                "not installed; pick backend='fused'/'numpy'/'auto' or "
                "install numba (listed in requirements-dev.txt)"
            )
        self.mode = mode
        self._kernels = _jit_kernels() if mode == "jit" else _PY_KERNELS

    # -- shape plumbing ---------------------------------------------------
    @staticmethod
    def _row_angles(states: np.ndarray, values, what: str) -> np.ndarray:
        """The kernels' per-row angle vector; a scalar fills every row."""
        arr = _batch_angles(states, values, what)
        if arr.ndim == 0:
            return np.full(states.shape[0], float(arr))
        return np.ascontiguousarray(arr)

    @staticmethod
    def _require_batch(states: np.ndarray) -> None:
        if states.ndim != 2:
            raise ValueError(f"expected a (B, dim) batch, got ndim={states.ndim}")
        if not states.flags.c_contiguous:
            raise ValueError("states must be C-contiguous for compiled kernels")

    # -- protocol ---------------------------------------------------------
    def plus_state_batch(
        self, n_qubits: int, batch: int, *, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return plus_state_batch(n_qubits, batch, out=out)

    def apply_cost_layer(
        self,
        states: np.ndarray,
        diagonal: np.ndarray,
        gammas,
        *,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self._require_batch(states)
        if diagonal.shape != states.shape[-1:]:
            raise ValueError("diagonal length mismatch")
        gam = self._row_angles(states, gammas, "gammas")
        diag = np.ascontiguousarray(diagonal, dtype=np.float64)
        self._kernels["cost"](states, diag, gam)
        return states

    def apply_mixer_layer(
        self,
        states: np.ndarray,
        betas,
        *,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self._require_batch(states)
        bet = self._row_angles(states, betas, "betas")
        self._kernels["mixer"](states, bet, n_qubits_for_dim(states.shape[-1]))
        return states

    def expectations_batch(
        self, states: np.ndarray, diagonal: np.ndarray
    ) -> np.ndarray:
        self._require_batch(states)
        if diagonal.shape != states.shape[-1:]:
            raise ValueError("diagonal length mismatch")
        out = np.empty(states.shape[0], dtype=np.float64)
        self._kernels["expect"](
            states, np.ascontiguousarray(diagonal, dtype=np.float64), out
        )
        return out

    # -- fused evolution --------------------------------------------------
    def evolve_batch(
        self,
        diagonal: np.ndarray,
        params_matrix: np.ndarray,
        *,
        pool: Optional[ScratchPool] = None,
    ) -> np.ndarray:
        mat = self._params_matrix(params_matrix)
        n = n_qubits_for_dim(len(diagonal))
        m, p = mat.shape[0], mat.shape[1] // 2
        dim = 1 << n
        pool = pool if pool is not None else shared_pool()
        with current_trace().span(
            "backend-evolve", backend=self.name, rows=m, layers=p
        ):
            states = pool.take("states", (m, dim))
            gammas = np.ascontiguousarray(mat[:, :p])
            betas = np.ascontiguousarray(mat[:, p:])
            self._kernels["evolve"](
                states, np.ascontiguousarray(diagonal, dtype=np.float64),
                gammas, betas, n,
            )
            return states

    # -- chunk advice -----------------------------------------------------
    def preferred_chunk_size(
        self,
        n_qubits: int,
        *,
        batch: Optional[int] = None,
        layers: Optional[int] = None,
    ) -> int:
        """As wide as the batch: the evolve kernel's working set is one
        row regardless of chunk width, and row-parallelism wants all the
        rows it can get.  Only the pooled state buffer bounds the width."""
        row_bytes = (1 << n_qubits) * 16
        cap = max(1, COMPILED_CHUNK_BUDGET_BYTES // row_bytes)
        return cap if batch is None else max(1, min(cap, batch))


__all__ = [
    "COMPILED_CHUNK_BUDGET_BYTES",
    "CompiledBackend",
    "numba_available",
]
