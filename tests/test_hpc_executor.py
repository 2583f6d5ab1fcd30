"""Unit tests for the parallel job executors."""


import pytest

from repro.hpc.executor import BACKENDS, ExecutorConfig, map_jobs


def square(x):
    return x * x


class TestExecutorConfig:
    def test_default_workers_positive(self):
        config = ExecutorConfig()
        assert config.max_workers >= 1

    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutorConfig(backend="gpu")

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected(self, workers):
        # Rejected up front: a one-job batch would otherwise run serially
        # and a multi-job one fail inside the pool.
        with pytest.raises(ValueError, match="max_workers"):
            ExecutorConfig(backend="thread", max_workers=workers)
        with pytest.raises(ValueError, match="max_workers"):
            map_jobs(square, [1], backend="thread", max_workers=workers)

    def test_backends_constant(self):
        assert set(BACKENDS) == {"serial", "thread", "process"}


class TestMapJobs:
    def test_serial_preserves_order(self):
        assert map_jobs(square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_jobs(self):
        assert map_jobs(square, []) == []

    def test_thread_backend_matches_serial(self):
        jobs = list(range(20))
        serial = map_jobs(square, jobs, backend="serial")
        threaded = map_jobs(square, jobs, backend="thread", max_workers=4)
        assert serial == threaded

    @pytest.mark.slow
    def test_process_backend_matches_serial(self):
        jobs = list(range(8))
        serial = map_jobs(square, jobs, backend="serial")
        procs = map_jobs(square, jobs, backend="process", max_workers=2)
        assert serial == procs

    def test_single_job_short_circuits(self):
        # With one job, even parallel backends run inline.
        assert map_jobs(square, [5], backend="thread") == [25]

    def test_config_object_used(self):
        config = ExecutorConfig(backend="thread", max_workers=2)
        assert map_jobs(square, [1, 2, 3], config=config) == [1, 4, 9]

    def test_exceptions_propagate_serial(self):
        def bad(x):
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            map_jobs(bad, [1])

    def test_exceptions_propagate_thread(self):
        def bad(x):
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            map_jobs(bad, [1, 2], backend="thread")
