"""Outside-in layer tracing for the benchmark's traced runs.

The program under test has no span hooks of its own on most of the
layers the benchmark reports, so this module wraps the public entry
point of each layer from outside: every wrapper records a span (layer
name, thread, start, end, self time and a small info dict) in an
in-memory list that is summarised and written out when the run ends.

Each function is patched *where it is looked up*: a module global is
replaced in the importing module (``repro.qaoa2.solver.partition_with_cap``),
a method is replaced on the class that defines it.  Nesting is tracked on
a per-thread stack, so a layer's self time excludes the wrapped calls made
inside it, and a call nested directly inside a span of the same name (an
inherited method patched on both the base and the subclass, or
``ResultCache.get`` delegating to ``get_tiered``) is not counted twice.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

# One span: (name, thread id, start, end, self seconds, depth, info).
Span = Tuple[str, int, float, float, float, int, Optional[dict]]

InfoFn = Callable[[tuple, dict, Any], Optional[dict]]


class Tracer:
    """Installs timing wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable, info: Optional[InfoFn] = None,
              cpu: bool = False) -> Callable:
        """``fn`` wrapped so that each outermost call records one span.

        With ``cpu`` the span's info also holds the calling thread's CPU
        seconds, which exclude time spent waiting for the interpreter lock.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]  # [name, seconds spent in child spans]
            stack.append(frame)
            cpu_start = time.thread_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu_s = time.thread_time() - cpu_start
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
            extra = info(args, kwargs, result) if info is not None else None
            if cpu:
                extra = {**(extra or {}), "cpu_s": cpu_s}
            tracer.spans.append(
                (name, threading.get_ident(), start, end, duration - frame[1],
                 len(stack), extra)
            )
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch(self, owner: object, attr: str, name: str,
              info: Optional[InfoFn] = None) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, info))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []

    # -- summaries ------------------------------------------------------
    def to_json(self) -> List[list]:
        """Spans as JSON rows, start times relative to the first span."""
        if not self.spans:
            return []
        t0 = min(span[2] for span in self.spans)
        return [
            [name, tid, round(start - t0, 9), round(end - t0, 9),
             round(self_s, 9), depth, extra]
            for name, tid, start, end, self_s, depth, extra in self.spans
        ]


# ---------------------------------------------------------------------------
# The layer map: which public entry point belongs to which layer
# ---------------------------------------------------------------------------
def _evolve_info(args, kwargs, result) -> dict:
    backend, diagonal, params = args[0], args[1], np.asarray(args[2])
    return {"backend": backend.name, "rows": params.shape[0] if params.ndim == 2 else 1,
            "dim": len(diagonal), "layers": params.shape[-1] // 2}


def _engine_info(args, kwargs, result) -> dict:
    return {"rows": int(len(result))}


def _optimizer_info(args, kwargs, result) -> dict:
    return {"nfev": int(getattr(result, "nfev", 0))}


def _cache_lookup_info(args, kwargs, result) -> dict:
    entry = result[0] if isinstance(result, tuple) else result
    return {"hit": entry is not None}


def _scheduler_info(args, kwargs, result) -> dict:
    return {"jobs": len(args[1])}


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    import repro.qaoa.solver as qaoa_solver
    import repro.qaoa2.solver as qaoa2_solver
    import repro.service.http as service_http
    import repro.service.scheduler as service_scheduler
    import repro.service.service as service_service
    from repro.qaoa.energy import MaxCutEnergy
    from repro.qaoa.engine import SweepEngine
    from repro.quantum.backend.base import StatevectorBackend
    from repro.quantum.backend.compiled import CompiledBackend
    from repro.quantum.backend.fused import FusedBackend
    from repro.service.cache import ResultCache
    from repro.service.scheduler import BatchScheduler

    tracer.patch(qaoa2_solver, "partition_with_cap", "partition")
    tracer.patch(qaoa2_solver, "build_merge_problem", "merge")
    tracer.patch(qaoa2_solver, "goemans_williamson", "gw")
    for module in (qaoa2_solver, qaoa_solver, service_scheduler):
        _patch_map_jobs(tracer, module)
    tracer.patch(qaoa_solver, "minimize", "optimizer", _optimizer_info)
    tracer.patch(qaoa_solver, "multi_start_spsa", "optimizer", _optimizer_info)
    tracer.patch(MaxCutEnergy, "expectation", "objective")
    tracer.patch(SweepEngine, "energies", "engine", _engine_info)
    tracer.patch(StatevectorBackend, "evolve_state", "backend.evolve_state", _evolve_info)
    for cls in (StatevectorBackend, FusedBackend, CompiledBackend):
        tracer.patch(cls, "evolve_batch", "backend.evolve_batch", _evolve_info)
    tracer.patch(service_service, "canonical_fingerprint", "fingerprint")
    tracer.patch(ResultCache, "get", "cache.lookup", _cache_lookup_info)
    tracer.patch(ResultCache, "get_tiered", "cache.lookup", _cache_lookup_info)
    tracer.patch(ResultCache, "put", "cache.put")
    tracer.patch(BatchScheduler, "run", "scheduler", _scheduler_info)
    tracer.patch(service_http, "request_from_wire", "http.decode")
    tracer.patch(service_http, "result_to_wire", "http.encode")


def _patch_map_jobs(tracer: Tracer, module) -> None:
    """Wrap ``module.map_jobs`` and time every job it runs.

    Jobs run on the executor's worker threads, where each becomes a root
    span ``executor.job`` carrying its thread's CPU seconds; the
    ``executor.map`` span on the calling thread records the worker count.
    ``executor.parallel_eff`` is then job CPU seconds over worker capacity,
    so threads that queue for the interpreter lock show as lost capacity.
    """
    original = module.map_jobs

    def map_jobs(fn, jobs, *, config=None, **kwargs):
        jobs = list(jobs)
        backend = config.backend if config is not None else kwargs.get("backend") or "serial"
        if backend != "process":  # a closure would not pickle to a worker process
            fn = tracer.timed("executor.job", fn, cpu=True)
        return original(fn, jobs, config=config, **kwargs)

    def map_info(args, kwargs, result) -> dict:
        config = kwargs.get("config")
        jobs = len(args[1])
        workers = 1
        if config is not None and config.backend != "serial" and jobs > 1:
            workers = min(int(config.max_workers), jobs)
        return {"jobs": jobs, "workers": workers}

    tracer._patches.append((module, "map_jobs", original))
    module.map_jobs = tracer.timed("executor.map", map_jobs, map_info)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: Spans that are not a layer: a whole benchmark operation, and a leaf job's
#: own glue between the wrapped calls it makes.
ROOT_SPANS = ("op", "executor.job")


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Reduce spans to the benchmark's per-layer counters and times."""
    groups: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        groups[span[0]].append(span)

    def calls(name: str) -> int:
        return len(groups.get(name, ()))

    def wall(name: str) -> float:
        return sum(span[3] - span[2] for span in groups.get(name, ()))

    def self_s(name: str) -> float:
        return sum(span[4] for span in groups.get(name, ()))

    def info_sum(name: str, key: str) -> int:
        return sum(int(span[6][key]) for span in groups.get(name, ()) if span[6])

    evolves = groups.get("backend.evolve_state", []) + groups.get("backend.evolve_batch", [])
    per_backend: Dict[str, int] = defaultdict(int)
    bytes_computed = 0
    for span in evolves:
        extra = span[6]
        per_backend[extra["backend"]] += 1
        # Computed, not measured: each of the 2p passes (cost, mixer per
        # layer) reads and writes every complex128 amplitude of every row.
        bytes_computed += extra["rows"] * extra["dim"] * 16 * 2 * extra["layers"]

    lookups = groups.get("cache.lookup", [])
    hits = sum(1 for span in lookups if span[6] and span[6]["hit"])
    map_spans = groups.get("executor.map", [])
    capacity = sum((span[3] - span[2]) * span[6]["workers"] for span in map_spans)
    job_cpu = sum(span[6]["cpu_s"] for span in groups.get("executor.job", ()))

    return {
        "partition.calls": calls("partition"),
        "partition.s": wall("partition"),
        "merge.s": wall("merge"),
        "executor.leaf_jobs": calls("executor.job"),
        "executor.map_s": wall("executor.map"),
        "executor.parallel_eff": job_cpu / capacity if capacity > 0 else 0.0,
        "gw.calls": calls("gw"),
        "gw.s": wall("gw"),
        "optimizer.calls": calls("optimizer"),
        "optimizer.nfev": info_sum("optimizer", "nfev"),
        "optimizer.self_s": self_s("optimizer"),
        "objective.calls": calls("objective"),
        "objective.self_s": self_s("objective"),
        "engine.calls": calls("engine"),
        "engine.rows": info_sum("engine", "rows"),
        "engine.self_s": self_s("engine"),
        "backend.evolve_state.calls": calls("backend.evolve_state"),
        "backend.evolve_state.s": wall("backend.evolve_state"),
        "backend.evolve_batch.calls": calls("backend.evolve_batch"),
        "backend.evolve_batch.rows": info_sum("backend.evolve_batch", "rows"),
        "backend.evolve_batch.s": wall("backend.evolve_batch"),
        "backend.fused.calls": per_backend.get("fused", 0),
        "backend.numpy.calls": per_backend.get("numpy", 0),
        "backend.bytes_computed": bytes_computed,
        "http.requests": calls("http.decode"),
        # Filled in from the server's /stats counters by run.run_serve.
        "http.non_200": 0,
        "http.codec_s": wall("http.decode") + wall("http.encode"),
        "server.coalesced_inflight": 0,
        "server.rejected": 0,
        "fingerprint.calls": calls("fingerprint"),
        "fingerprint.s": wall("fingerprint"),
        "cache.lookups": len(lookups),
        "cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "cache.puts": calls("cache.put"),
        "cache.s": wall("cache.lookup") + wall("cache.put"),
        "scheduler.runs": calls("scheduler"),
        "scheduler.jobs": info_sum("scheduler", "jobs"),
        "scheduler.s": wall("scheduler"),
    }


def attributed_seconds(spans: List[Span]) -> Tuple[float, float]:
    """``(layer self seconds, busy thread-seconds)`` over all threads.

    Busy time is the duration of each thread's root spans: whole
    operations on the driving thread, leaf jobs on executor workers.  A
    layer span's self time counts as attributed; the root spans' own
    self time is the unattributed glue.  With one thread this is
    ``Σ layer self ÷ wall``; with a thread pool it is the same share
    taken over thread-seconds, so it stays within ``[0, 1]``.
    """
    busy = sum(span[3] - span[2] for span in spans
               if span[0] in ROOT_SPANS and span[5] == 0)
    attributed = sum(span[4] for span in spans if span[0] not in ROOT_SPANS)
    return attributed, busy
