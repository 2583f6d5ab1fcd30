"""Fused-mixer backend: the uniform-β mixer via Walsh–Hadamard diagonalisation.

The QAOA mixer ``exp(-iβ Σ_q X_q)`` is diagonal in the Walsh–Hadamard
basis: ``H X H = Z``, so

    exp(-iβ ΣX) = H^{⊗n} · D_β · H^{⊗n},
    D_β|x⟩ = exp(-iβ·(n − 2·popcount(x)))|x⟩,

and — crucially — both ``H^{⊗n}`` and ``D_β`` are tensor products over
qubits, so the diagonalisation *factors*: for any split
``n = s₁ + s₂ + …``,

    exp(-iβ ΣX) = ⊗_j ( H^{⊗s_j} · D_β^{(s_j)} · H^{⊗s_j} / 2^{s_j} ).

The reference backend walks qubit by qubit (``s_j ≡ 1``): 3n full-array
complex ufunc passes per layer, the NumPy pass-count floor the ROADMAP
calls out.  This backend instead applies the diagonalisation in *blocked
stages* of at most 5 qubits, and every qubit goes through one: each stage
is one pass over the state — a BLAS matmul against the stage's fused
``H·diag(eigenphases)·H`` matrix, built from eigenphase tables indexed by
a cached per-stage popcount vector — so a layer costs ``1 + ⌈(n−5)/5⌉``
blocked passes (4 at n=16 and n=18) instead of 3n elementwise ones.
The low 5 qubits (where per-qubit passes stride worst) go through a
realified GEMM on the interleaved re/im view; the rest split into
near-equal stages (:func:`stage_widths`: n=18 → 5 | 5, 4, 4), each a
batched matmul on the ``(B, 2^(n−q−m), 2^m, 2^q)`` view of its ``m``
qubits starting at ``q``, ping-ponging with one scratch buffer.

Bit-flip symmetry: a MaxCut cost diagonal satisfies ``d[z] == d[~z]``
and the mixer commutes with flipping every bit, so the evolved state
keeps ``ψ(z) = ψ(~z)``.  For such diagonals (checked once per diagonal,
cached with its cost table) both evolve entry points walk only the
top-qubit-0 half ``φ`` — ``dim/2`` amplitudes, stored in the first half
of the caller's own buffers: the cost tables are built on ``d[:dim/2]``,
the blocked stages cover the low n−1 qubits, and the top qubit's RX is
one elementwise pass, ``φ ← cos β·φ − i sin β·φ[::-1]`` (X on the top
qubit reverses the half).  The result unfolds as ``ψ = [φ, φ[::-1]]``.
Any other diagonal takes the same walk over every amplitude.

Elementwise fusion: the ``1/2^s`` transform normalisations, the caller's
optional ``scale`` factor (used by the evolve walk to absorb the |+⟩^n
amplitude adjacent to the first cost diagonal), all fold into the
tiny stage matrices — none costs a pass over the state.  Hadamard,
popcount and ΣZ-eigenvalue tables are cached per stage size on the
backend instance (a registry singleton, so process-wide); full-size
scratch comes from the shared
:class:`~repro.quantum.backend.scratch.ScratchPool`.

Parity: ≤1e-12 against :class:`NumpyBackend` for every shape
(property-tested in ``tests/test_backends.py``); ≥1.3× on batched p≥2
evolution at n=16, ≥1.6× on the weighted n=16 ``spsa-batch`` shape and
≥4× over the seed single-state NumPy walk on pointwise p=3 evolution at
n=18 (all gated in ``benchmarks/bench_backends.py``).
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.quantum.backend.base import DEFAULT_CHUNK_SIZE
from repro.quantum.backend.numpy_backend import NumpyBackend
from repro.quantum.statevector import _batch_angles, _scratch_like, n_qubits_for_dim

# Stage widths: ~32×32 stage matrices are big enough that one blocked
# pass replaces five strided per-qubit passes, small enough that building
# them per call is negligible.  Tuned on the n∈{12..18} bench.
LOW_STAGE_QUBITS = 5
HIGH_STAGE_QUBITS = 5
# Cost diagonals with at most this many distinct values (and at most a
# quarter of the state dimension) get the quantised-phase gather path:
# exp() over the unique values only, then an index gather.  MaxCut
# diagonals on unweighted graphs have ≤ E+1 distinct values, so this
# turns the dominant full-size complex exponential of every cost layer
# into a table lookup.
COST_GATHER_MAX_VALUES = 4096
# Weighted diagonals (value-rich: more distinct values than the exact
# gather tolerates) are *bucketed* onto ≤COST_GATHER_MAX_VALUES uniform
# levels instead: the coarse phase is a gather, and the small residual
# d − level is corrected by exp(-iγr)'s Taylor polynomial — evaluated as
# one complex GEMM, (B, K) γ-coefficients against a cached (K, dim)
# residual-power table, so the whole correction is a single output-bound
# matmul pass instead of ~10 elementwise passes (which measure *slower*
# than the dense exp once the float temporaries fall out of cache).
# Only applied where it pays:
COST_BUCKET_MIN_DIM = 1024  # below this the dense exp is already cheap
# Taylor order: exp(-ix) through x⁷, remainder |x|⁸/8! ≤ 2.5e-13 at the
# validity bound below — inside the ≤1e-12 cross-backend parity budget.
COST_RESIDUAL_ORDER = 7
# Validity bound on |x| = |γ·residual|; calls with max|γ|·rmax beyond it
# fall back to the dense exponential (bit-identical to NumpyBackend).
COST_RESIDUAL_X_MAX = 0.1
# The fused mixer's BLAS stages *want* batch width (a wider GEMM amortises
# the stage-matrix build and keeps the kernel in its blocked regime), so
# its chunk advice budgets the two (chunk, 2**n) work buffers far above
# the elementwise cache-resident default.  16 MiB ≈ 8 rows at n=16 — the
# measured sweet spot on the n=16 batched p=2 bench (wider chunks start
# spilling the shared cache and the weighted-gather win shrinks).
FUSED_CHUNK_BUDGET_BYTES = 16 * 1024 * 1024


def stage_widths(n: int) -> Tuple[int, ...]:
    """The mixer's stage plan for ``n`` qubits, lowest qubits first: a
    low stage of ``min(n, LOW_STAGE_QUBITS)``, then the rest split into
    the fewest stages of at most ``HIGH_STAGE_QUBITS``, widest first and
    differing by at most one (n=18 → 5 | 5, 4, 4)."""
    k = min(n, LOW_STAGE_QUBITS)
    count = -(-(n - k) // HIGH_STAGE_QUBITS)
    return (k, *((n - k + count - 1 - i) // count for i in range(count)))


class FusedBackend(NumpyBackend):
    """Blocked Walsh–Hadamard-diagonalised mixer with cached eigenphase
    tables."""

    name = "fused"

    def __init__(self) -> None:
        # Per stage size s: Hadamard matrix H_s, popcount index (intp,
        # gather-ready) and ΣZ eigenvalues s − 2k.
        self._hadamards: Dict[int, np.ndarray] = {}
        self._popcounts: Dict[int, np.ndarray] = {}
        self._eigenvalues: Dict[int, np.ndarray] = {}
        # Per cost diagonal (keyed by object identity, guarded by a weak
        # reference): ("exact", values, inverse) for few-valued diagonals,
        # ("bucket", reps, idx, residual, rmax) for value-rich (weighted)
        # ones, or None when only the dense exponential applies.
        self._cost_cache: Dict[int, Tuple] = {}

    # -- cached stage tables --------------------------------------------
    def _stage_tables(self, s: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        H = self._hadamards.get(s)
        if H is None:
            H = np.ones((1, 1), dtype=np.float64)
            for _ in range(s):
                H = np.kron(H, np.array([[1.0, 1.0], [1.0, -1.0]]))
            idx = np.arange(1 << s, dtype=np.uint64)
            pc = np.zeros(1 << s, dtype=np.intp)
            for q in range(s):
                pc += ((idx >> np.uint64(q)) & np.uint64(1)).astype(np.intp)
            eig = s - 2.0 * np.arange(s + 1, dtype=np.float64)
            # Publish the dependents first; the Hadamard last (its
            # presence is the "built" flag read above).
            self._eigenvalues[s] = eig
            self._popcounts[s] = pc
            self._hadamards[s] = H
        return self._hadamards[s], self._popcounts[s], self._eigenvalues[s]

    def _stage_matrix(self, s: int, beta_arr: np.ndarray, scale: float) -> np.ndarray:
        """``scale · RX(2β)^{⊗s}`` as ``H_s · D_β · H_s / 2^s``.

        ``beta_arr``'s shape leads the result: 0-d gives one
        ``(2^s, 2^s)`` matrix, ``(B,)`` a ``(B, 2^s, 2^s)`` stack.
        """
        H, pc, eig = self._stage_tables(s)
        # exp(-iβ·(s − 2·popcount)) gathered from the (s+1)-entry table.
        phases = np.exp(np.multiply.outer(-1j * beta_arr, eig))[..., pc]
        return (H * phases[..., None, :]) @ H * (scale / (1 << s))

    @staticmethod
    def _realify(matrices: np.ndarray) -> np.ndarray:
        """Real action of a complex matrix on interleaved re/im *row*
        vectors: ``v_real @ R == realify(M v_complex)``."""
        mt = np.swapaxes(matrices, -1, -2)
        shape = (*matrices.shape[:-2], 2 * matrices.shape[-2], 2 * matrices.shape[-1])
        out = np.empty(shape, dtype=np.float64)
        out[..., 0::2, 0::2] = mt.real
        out[..., 0::2, 1::2] = mt.imag
        out[..., 1::2, 0::2] = -mt.imag
        out[..., 1::2, 1::2] = mt.real
        return out

    # -- quantised cost layer --------------------------------------------
    def _cost_table(self, diagonal: np.ndarray) -> Tuple[bool, Optional[Tuple]]:
        """``(half, table)`` for a diagonal, cached per array identity.

        ``half`` — the diagonal is bit-flip symmetric, ``d[z] == d[~z]``
        exactly (every cut diagonal is), checked once with one
        ``array_equal`` pass.  The table then describes only the half
        ``d[:dim//2]`` (top qubit 0), which is all the half walk of
        :meth:`_evolve_plus` reads; the path choice below still keys on
        the full ``dim``, so it is the same for either half.

        ``table`` is the gather decomposition of that (half) diagonal:

        ``("exact", values, inverse)`` — few distinct values (unweighted
        graphs): ``values[inverse]`` reproduces the diagonal *exactly*,
        so gathered phases are bit-identical to the dense exponential.

        ``("bucket", reps, idx, rpow, rmax)`` — value-rich (weighted)
        diagonals bucketed onto ≤``COST_GATHER_MAX_VALUES`` uniform
        levels: ``reps[idx] + r`` reproduces the diagonal to one ulp with
        ``|r| ≤ rmax`` (about half the level step), small enough that the
        phase correction is a short Taylor polynomial in ``γ·r`` — whose
        residual-power table ``rpow[k] = r**k`` (complex, GEMM-ready) is
        precomputed here.  Built only where the correction pass pays
        (``COST_BUCKET_MIN_DIM``, levels ≪ dim).

        ``None`` — dense exponential only.  A dead weak reference means
        the id was recycled and the entry is rebuilt.
        """
        key = id(diagonal)
        rec = self._cost_cache.get(key)
        if rec is not None and rec[0]() is diagonal:
            return rec[1]
        try:
            ref = weakref.ref(diagonal, lambda _, k=key: self._cost_cache.pop(k, None))
        except TypeError:  # non-weakref-able duck array
            return False, None
        dim = diagonal.size
        lower = diagonal[: dim // 2]
        half = dim >= 2 and bool(np.array_equal(lower, diagonal[::-1][: dim // 2]))
        values, inverse = np.unique(lower if half else diagonal, return_inverse=True)
        inverse = np.ascontiguousarray(inverse.reshape(-1), dtype=np.intp)
        if len(values) <= min(COST_GATHER_MAX_VALUES, dim // 4):
            desc: Optional[Tuple] = ("exact", values, inverse)
        else:
            desc = self._bucket_table(values, inverse, dim)
        self._cost_cache[key] = (ref, (half, desc))
        return half, desc

    @staticmethod
    def _bucket_table(
        values: np.ndarray, inverse: np.ndarray, dim: int
    ) -> Optional[Tuple]:
        """Uniform-level bucketing of a value-rich diagonal, or ``None``
        when the residual pass would not pay (small state, degenerate
        range, or too many levels relative to the full dimension ``dim``;
        ``inverse`` covers the half a symmetric diagonal is stored as)."""
        levels = min(COST_GATHER_MAX_VALUES, dim // 4)
        lo, hi = float(values[0]), float(values[-1])
        if (
            dim < COST_BUCKET_MIN_DIM
            or levels < 2
            or not np.isfinite(hi - lo)
            or hi <= lo
        ):
            return None
        step = (hi - lo) / (levels - 1)
        reps = lo + step * np.arange(levels)
        which = np.clip(np.rint((values - lo) / step), 0, levels - 1).astype(np.intp)
        resid_per_value = values - reps[which]
        idx = np.ascontiguousarray(which[inverse])
        residual = resid_per_value[inverse]
        rmax = float(np.abs(resid_per_value).max())
        # Residual-power table for the Taylor GEMM: rpow[k] = residual**k,
        # stored complex so the per-call matmul is a plain zgemm with no
        # upcast copy.  (ORDER+1)·16 bytes per stored entry — 16 MiB for the
        # half of a symmetric n=18 diagonal — cached for the diagonal's
        # lifetime via the weak reference above.
        powers = np.empty((COST_RESIDUAL_ORDER + 1, residual.size), dtype=np.float64)
        powers[0] = 1.0
        for k in range(1, COST_RESIDUAL_ORDER + 1):
            np.multiply(powers[k - 1], residual, out=powers[k])
        rpow = powers.astype(np.complex128)
        return ("bucket", reps, idx, rpow, rmax)

    @staticmethod
    def _residual_coeffs(gam: np.ndarray) -> np.ndarray:
        """Per-row Taylor coefficients of ``exp(-iγ·r)``:
        ``P[b, k] = (-iγ_b)**k / k!`` — the ``(B, K)`` left factor of the
        correction GEMM against the cached residual-power table."""
        coeffs = np.empty((gam.size, COST_RESIDUAL_ORDER + 1), dtype=np.complex128)
        coeffs[:, 0] = 1.0
        base = -1j * gam
        for k in range(1, COST_RESIDUAL_ORDER + 1):
            np.multiply(coeffs[:, k - 1], base, out=coeffs[:, k])
            coeffs[:, k] /= k
        return coeffs

    def _residual_rotation(
        self, gam: np.ndarray, rpow: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``exp(-iγ_b·r)`` per row via the Taylor GEMM, written to ``out``.

        A one-row matmul dispatches to BLAS's vector kernel, whose
        accumulation over the Taylor axis differs from the batched GEMM's
        at ~1e-15 — enough to break the chunk-width invariance the engine
        pins (``TestChunkPolicy``).  One-row *batches* (``γ`` of shape
        ``(1,)``) are therefore evaluated as a duplicated two-row GEMM,
        keeping every batch width on the same kernel; a scalar ``γ`` (one
        phase row shared by the batch, as ``evolve_state`` walks it) has
        no batch to agree with and takes the cheaper vector kernel.
        """
        coeffs = self._residual_coeffs(gam)
        if gam.shape == (1,):
            out[...] = np.matmul(coeffs[[0, 0]], rpow)[:1]
            return out
        return np.matmul(coeffs, rpow, out=out)

    def _apply_cost(
        self,
        table: Optional[Tuple],
        diagonal: np.ndarray,
        gam: np.ndarray,
        states: np.ndarray,
        buf: np.ndarray,
        *,
        fresh: bool = False,
    ) -> np.ndarray:
        """In place on a ``(B, w)`` block: ``states *= exp(-iγ·diagonal)``,
        or with ``fresh`` ``states = exp(-iγ·diagonal)`` (no read of the
        old contents).  ``table`` is ``diagonal``'s gather table (``None``:
        dense), ``buf`` a same-shape phase scratch.  A scalar γ shares one
        phase row across the batch (``fresh`` then needs one row)."""
        g = -1j * gam.reshape(-1)
        phases = buf if gam.ndim else buf[:1]
        kind = None if table is None else table[0]
        if kind == "bucket" and float(np.abs(gam).max(initial=0.0)) * table[4] > (
            COST_RESIDUAL_X_MAX
        ):
            # γ too large for the polynomial budget: dense exponential
            # (same expression as NumpyBackend, bit-identical to it).
            kind = None
        if kind == "bucket":
            _, reps, idx, rpow, _ = table
            # Residual rotation first (GEMM into the scratch), then the
            # coarse gathered phase — into the state when it is fresh,
            # else reusing the scratch once the residual is applied.
            self._residual_rotation(gam, rpow, phases)
            coarse = np.exp(np.multiply.outer(g, reps))
            if fresh:
                np.take(coarse, idx, axis=1, out=states)
            else:
                states *= phases
                np.take(coarse, idx, axis=1, out=phases)
            states *= phases
            return states
        out = states if fresh else phases
        if kind == "exact":
            _, values, inverse = table
            np.take(np.exp(np.multiply.outer(g, values)), inverse, axis=1, out=out)
        else:
            np.multiply.outer(g, diagonal, out=out)
            np.exp(out, out=out)
        if not fresh:
            states *= phases
        return states

    def apply_cost_layer(
        self,
        states: np.ndarray,
        diagonal: np.ndarray,
        gammas,
        *,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        half, table = self._cost_table(diagonal)
        if table is None:
            return super().apply_cost_layer(states, diagonal, gammas, scratch=scratch)
        gam = _batch_angles(states, gammas, "gammas")
        if diagonal.shape != states.shape[-1:]:
            raise ValueError("diagonal length mismatch")
        buf = _scratch_like(states, scratch)
        if not half:
            return self._apply_cost(table, diagonal, gam, states, buf)
        # A symmetric diagonal's table covers the low half; the phases of
        # the high half are the same row reversed (d[z] == d[~z]).
        rows, width = (states.shape[0] if gam.ndim else 1), states.shape[-1] // 2
        flat = buf.reshape(-1)
        phases = flat[: rows * width].reshape(rows, width)
        spare = flat[rows * width : 2 * rows * width].reshape(rows, width)
        self._apply_cost(table, diagonal[:width], gam, phases, spare, fresh=True)
        states[:, :width] *= phases
        states[:, width:] *= phases[:, ::-1]
        return states

    # -- chunk advice -----------------------------------------------------
    def preferred_chunk_size(
        self,
        n_qubits: int,
        *,
        batch: Optional[int] = None,
        layers: Optional[int] = None,
    ) -> int:
        """Wide chunks: the blocked GEMM stages amortise their stage-matrix
        builds over the batch, so starve them of width (the elementwise
        cache budget yields 1-row chunks at n=16) and the fused win
        evaporates.  Budgeted by ``FUSED_CHUNK_BUDGET_BYTES`` over the two
        (chunk, 2**n) work buffers, capped at ``DEFAULT_CHUNK_SIZE`` rows
        and the sweep batch when known."""
        row_bytes = 2 * (1 << n_qubits) * 16
        advised = max(1, min(DEFAULT_CHUNK_SIZE, FUSED_CHUNK_BUDGET_BYTES // row_bytes))
        if batch is not None:
            advised = max(1, min(advised, batch))
        return advised

    # -- the fused mixer -------------------------------------------------
    def apply_mixer_layer(
        self,
        states: np.ndarray,
        betas,
        *,
        scratch: Optional[np.ndarray] = None,
        scale: Optional[float] = None,
    ) -> np.ndarray:
        """Blocked-stage mixer; ``scale`` folds an extra scalar into the
        first stage matrix (no dedicated pass — see :meth:`_evolve_plus`)."""
        beta_arr = _batch_angles(states, betas, "betas")
        n = n_qubits_for_dim(states.shape[-1])
        if not states.flags.c_contiguous:
            raise ValueError("states must be C-contiguous for blocked stages")
        swap = _scratch_like(states, scratch)

        batch = states.shape[0]
        k, *highs = stage_widths(n)
        factor = 1.0 if scale is None else float(scale)

        # Low-k stage: realified GEMM on the interleaved re/im row view
        # (the qubits whose per-qubit passes stride worst).
        low = self._realify(self._stage_matrix(k, beta_arr, factor))
        rv = states.view(np.float64).reshape(batch, -1, (1 << k) * 2)
        sv = swap.view(np.float64).reshape(rv.shape)
        np.matmul(rv, low, out=sv)
        src, dst = swap, states

        # Every higher qubit: one batched matmul per stage of m qubits
        # starting at qubit q, on the (B, 2^(n-q-m), 2^m, 2^q) view; the
        # trailing β axis makes per-row stacks (B, 1, 2^m, 2^m).
        q = k
        for m in highs:
            stage = self._stage_matrix(m, beta_arr[..., None], 1.0)
            xv = src.reshape(batch, 1 << (n - q - m), 1 << m, 1 << q)
            np.matmul(stage, xv, out=dst.reshape(xv.shape))
            src, dst = dst, src
            q += m

        if src is not states:
            states[...] = src
        return states

    # -- the symmetric half walk -----------------------------------------
    # The shared body, bound in this class's own namespace so tools that
    # wrap ``evolve_batch`` per class (``perfbench``'s tracer) find it
    # without wrapping the base twice; the work is :meth:`_evolve_plus`.
    evolve_batch = NumpyBackend.evolve_batch

    def _evolve_plus(
        self,
        states: np.ndarray,
        diagonal: np.ndarray,
        params: np.ndarray,
        scratch: Optional[np.ndarray],
    ) -> np.ndarray:
        """The p-layer walk from |+⟩^n, on half the amplitudes when the
        diagonal is bit-flip symmetric.

        Cost and mixer both commute with flipping every bit, so then
        ``ψ(z) = ψ(~z)`` throughout and the walk runs on ``φ``, the
        ``(B, dim/2)`` top-qubit-0 half, stored in the first half of
        ``states``' own storage (``scratch`` likewise).  The blocked mixer
        stages cover the low n−1 qubits; the top qubit's RX maps ``φ(z)``
        to ``cos β·φ(z) − i sin β·φ(~z)``, and ``~z`` on the half is the
        reversed row.  The result unfolds as ``ψ = [φ, φ[::-1]]``, so
        unfolded states have exact twins.  A non-symmetric diagonal walks
        all of ``states``.

        Adjacent-layer fusion either way: |+⟩^n is uniform, so the first
        cost exponential is written straight into the state (no fill
        pass) and the ``1/√dim`` amplitude folds into the first mixer's
        low stage matrix via ``scale`` (no normalisation pass either).
        """
        half, table = self._cost_table(diagonal)
        p = params.shape[-1] // 2
        if p == 0:
            return super()._evolve_plus(states, diagonal, params, scratch)
        rows, dim = states.shape
        width = dim // 2 if half else dim
        phi = states.reshape(-1)[: rows * width].reshape(rows, width)
        if scratch is None:
            buf = np.empty_like(phi)
        else:
            buf = scratch.reshape(-1)[: rows * width].reshape(rows, width)
        diag = diagonal[:width]
        for layer in range(p):
            gam, beta = np.asarray(params[..., layer]), params[..., p + layer]
            self._apply_cost(table, diag, gam, phi, buf, fresh=layer == 0)
            scale = None if layer else 1.0 / np.sqrt(dim)
            self.apply_mixer_layer(phi, beta, scratch=buf, scale=scale)
            if half:
                c, s = np.cos(beta), -1j * np.sin(beta)
                if np.ndim(beta):
                    c, s = c[:, None], s[:, None]
                np.multiply(phi[:, ::-1], s, out=buf)
                phi *= c
                phi += buf
        if half:
            # Unfold in place, last row first: compact row b sits at
            # [b·w, (b+1)·w) of the flat storage, below its full row's
            # slot [2b·w, 2(b+1)·w) for b ≥ 1, so each write lands only on
            # compact rows already unfolded.
            for b in range(rows - 1, -1, -1):
                row = phi[b]
                states[b, width:] = row[::-1]
                if b:
                    states[b, :width] = row
        return states


__all__ = [
    "COST_BUCKET_MIN_DIM",
    "COST_GATHER_MAX_VALUES",
    "COST_RESIDUAL_ORDER",
    "COST_RESIDUAL_X_MAX",
    "FUSED_CHUNK_BUDGET_BYTES",
    "FusedBackend",
    "HIGH_STAGE_QUBITS",
    "LOW_STAGE_QUBITS",
    "stage_widths",
]
