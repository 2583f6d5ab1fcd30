"""CompiledBackend correctness suite.

numba is optional, so these tests exercise the *kernel bodies* through
``CompiledBackend(mode="python")`` — the identical nopython-style code
run interpreted — on small graphs, with the numpy backend as the parity
oracle.  When numba is installed the same cases additionally run JIT'd;
without it the jit-mode tests assert the :class:`BackendUnavailable`
contract instead.
"""

import numpy as np
import pytest

from repro.graphs import cut_diagonal, erdos_renyi
from repro.qaoa import SweepEngine
from repro.quantum.backend import (
    BackendUnavailable,
    CompiledBackend,
    NumpyBackend,
    ScratchPool,
    numba_available,
)

PARITY_ATOL = 1e-12


@pytest.fixture(scope="module")
def backend():
    return CompiledBackend(mode="python")


def _cases(n_cases=8, seed=31):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, 4))
        graph = erdos_renyi(
            n,
            float(rng.uniform(0.3, 0.8)),
            weighted=bool(rng.integers(0, 2)),
            rng=int(rng.integers(2**31)),
        )
        params = rng.uniform(-np.pi, np.pi, size=(5, 2 * p))
        cases.append((graph, params))
    return cases


class TestAvailability:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            CompiledBackend(mode="gpu")

    def test_jit_mode_contract(self):
        if numba_available():
            assert CompiledBackend(mode="jit").name == "compiled"
        else:
            with pytest.raises(BackendUnavailable, match="numba"):
                CompiledBackend(mode="jit")

    def test_python_mode_always_available(self, backend):
        assert backend.name == "compiled"
        assert backend.mode == "python"


class TestKernelParity:
    CASES = _cases()

    def test_cost_layer(self, backend):
        ref = NumpyBackend()
        rng = np.random.default_rng(1)
        for graph, params in self.CASES:
            diag = cut_diagonal(graph)
            states = ref.plus_state_batch(graph.n_nodes, 5)
            work = backend.plus_state_batch(graph.n_nodes, 5)
            gammas = rng.uniform(-np.pi, np.pi, 5)
            ref.apply_cost_layer(states, diag, gammas)
            backend.apply_cost_layer(work, diag, gammas)
            np.testing.assert_allclose(work, states, atol=PARITY_ATOL)

    def test_mixer_layer(self, backend):
        ref = NumpyBackend()
        rng = np.random.default_rng(2)
        for graph, _ in self.CASES:
            n = graph.n_nodes
            raw = rng.standard_normal((4, 1 << n)) + 1j * rng.standard_normal(
                (4, 1 << n)
            )
            betas = rng.uniform(-np.pi, np.pi, 4)
            a = ref.apply_mixer_layer(raw.copy(), betas)
            b = backend.apply_mixer_layer(raw.copy(), betas)
            np.testing.assert_allclose(b, a, atol=PARITY_ATOL)
            # scalar β broadcast matches per-row duplicates
            shared = backend.apply_mixer_layer(raw.copy(), 0.37)
            perrow = backend.apply_mixer_layer(raw.copy(), np.full(4, 0.37))
            np.testing.assert_allclose(shared, perrow, atol=PARITY_ATOL)

    def test_expectations(self, backend):
        ref = NumpyBackend()
        rng = np.random.default_rng(4)
        for graph, _ in self.CASES:
            diag = cut_diagonal(graph)
            raw = rng.standard_normal((6, diag.size)) + 1j * rng.standard_normal(
                (6, diag.size)
            )
            np.testing.assert_allclose(
                backend.expectations_batch(raw, diag),
                ref.expectations_batch(raw, diag),
                atol=PARITY_ATOL,
            )

    def test_evolve_batch_and_state(self, backend):
        ref = NumpyBackend()
        for graph, params in self.CASES:
            diag = cut_diagonal(graph)
            a = ref.evolve_batch(diag, params).copy()
            b = backend.evolve_batch(diag, params).copy()
            np.testing.assert_allclose(b, a, atol=PARITY_ATOL)
            np.testing.assert_allclose(
                backend.evolve_state(diag, params[0]),
                ref.evolve_state(diag, params[0]),
                atol=PARITY_ATOL,
            )

    def test_evolve_uses_pool_buffer(self, backend):
        pool = ScratchPool()
        graph = erdos_renyi(5, 0.5, weighted=True, rng=1)
        diag = cut_diagonal(graph)
        mat = np.random.default_rng(0).uniform(-1, 1, (4, 4))
        out1 = backend.evolve_batch(diag, mat, pool=pool)
        out2 = backend.evolve_batch(diag, mat, pool=pool)
        assert out1 is out2


class TestValidation:
    def test_shape_errors(self, backend):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        diag = np.zeros(32)
        with pytest.raises(ValueError, match="batch"):
            backend.apply_cost_layer(states.copy(), diag, np.zeros(4))
        # Layer primitives take (B, dim) batches only.
        with pytest.raises(ValueError, match="ndim=1"):
            backend.apply_cost_layer(np.zeros(32, dtype=np.complex128), diag, 0.1)
        with pytest.raises(ValueError, match="ndim=1"):
            backend.apply_mixer_layer(np.zeros(32, dtype=np.complex128), 0.1)
        with pytest.raises(ValueError, match="diagonal"):
            backend.apply_cost_layer(states.copy(), np.zeros(16), np.zeros(3))
        with pytest.raises(ValueError, match="ndim"):
            backend.apply_mixer_layer(states.reshape(3, 2, 16), 0.1)
        with pytest.raises(ValueError, match="batch"):
            backend.expectations_batch(states[0], diag)

    def test_contiguity_required(self, backend):
        rng = np.random.default_rng(0)
        wide = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        strided = wide[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            backend.apply_mixer_layer(strided, 0.1)


class TestEngineIntegration:
    def test_sweep_engine_with_compiled_instance(self, backend):
        graph = erdos_renyi(7, 0.5, weighted=True, rng=9)
        rng = np.random.default_rng(6)
        mat = rng.uniform(-np.pi, np.pi, size=(11, 4))
        reference = SweepEngine(graph, backend="numpy").energies(mat)
        engine = SweepEngine(graph, backend=backend)
        assert engine.backend_name == "compiled"
        np.testing.assert_allclose(engine.energies(mat), reference, atol=PARITY_ATOL)


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestJitParity:
    """Run only where numba exists: JIT'd kernels vs the numpy oracle."""

    def test_jit_evolve_parity(self):
        backend = CompiledBackend(mode="jit")
        ref = NumpyBackend()
        for graph, params in _cases(4, seed=77):
            diag = cut_diagonal(graph)
            a = ref.evolve_batch(diag, params).copy()
            b = backend.evolve_batch(diag, params).copy()
            np.testing.assert_allclose(b, a, atol=PARITY_ATOL)
