"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload qaoa-deep --seed 3 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` repeats the same operations with the layer
wrappers of :mod:`tracer` installed and reports the per-layer metrics.
``--workload all`` runs every workload in turn and prints each one's
metrics.  The last line of standard output is the JSON result; the full
record (host stamp, metrics, traced spans) is written under ``.perfbench/``.
The exit code is non-zero when any output fails its check.

Workloads (see ``perfbench/README.md`` for why each exists):

``qaoa2-sweep``  QAOA² on ER(200, 0.1), leaves through a 2-thread executor
``qaoa-deep``    pointwise-COBYLA QAOA, p=3, on weighted ER(18, 0.3)
``spsa-batch``   8-start lock-step SPSA, p=2, on weighted ER(16, 0.3)
``serve-zipf``   HTTP /solve, Zipf over 32 relabelled weighted ER(12, 0.3)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("qaoa2-sweep", "qaoa-deep", "spsa-batch", "serve-zipf")
#: Fresh set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cut_ratio": "1",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


# ---------------------------------------------------------------------------
# Host and environment stamp
# ---------------------------------------------------------------------------
def blas_threads() -> object:
    """OpenBLAS's thread count, read from the library NumPy loaded."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(qubit_counts) -> dict:
    import importlib.util

    import numpy
    import scipy

    from repro.quantum.backend import auto_backend_name

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    numba = importlib.util.find_spec("numba") is not None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "numba": numba,
        "compiled_backend": "available" if numba else "skipped (numba not installed)",
        # What resolve_backend("auto") picks per qubit count: the engine
        # resolves without a batch hint, MaxCutEnergy's pointwise path with
        # batch=1.
        "auto_backend": {
            str(n): {"engine": auto_backend_name(n), "pointwise": auto_backend_name(n, batch=1)}
            for n in qubit_counts
        },
        "backend.bytes_computed": "computed as rows x 2^n x 16 B x 2p passes, not measured",
    }


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def percentile_ms(latencies, q: float) -> float:
    """Nearest-rank percentile of second-valued latencies, in ms."""
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * q // 100))
    return 1000.0 * ordered[int(rank) - 1]


def timed_setups(workload: str, seed: int) -> list:
    """Wall seconds of fresh processes that only set ``workload`` up."""
    from serve import child_env

    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True, cwd=ROOT, env=child_env(ROOT), stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------
def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from serve import peak_rss_mb
    from workloads import IN_PROCESS

    setups = [] if trace else timed_setups(name, seed)
    workload = IN_PROCESS[name](seed)
    workload.warm_up()

    ops, outcomes, latencies = [], [], []
    start = time.perf_counter()
    # A traced run repeats its operations traced, so it measures half as long.
    budget = seconds / 2 if trace else seconds
    while not outcomes or time.perf_counter() - start < budget:
        ops.append(workload.ops[len(ops) % len(workload.ops)])
        t0 = time.perf_counter()
        outcomes.append(workload.run(ops[-1]))
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    record = {"ops": len(outcomes), "wall_s": wall, "rss_mb": rss, "latencies_s": latencies}

    problems = [(i, p) for i, (op, out) in enumerate(zip(ops, outcomes))
                for p in workload.check(op, out)]
    problems += [(0, p) for p in workload.check_once(ops[0])]
    if trace:
        from tracer import Tracer, attributed_seconds, install_layers, layer_metrics

        tracer = Tracer()
        install_layers(tracer)
        run_op = tracer.timed("op", workload.run)
        try:
            t0 = time.perf_counter()
            traced = [run_op(op) for op in ops]
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        problems += [(i, f"traced cut {b.cut!r} differs from untraced {a.cut!r}")
                     for i, (a, b) in enumerate(zip(outcomes, traced)) if a.cut != b.cut]
        metrics = layer_metrics(tracer.spans)
        attributed, busy = attributed_seconds(tracer.spans)
        metrics["attributed_frac"] = attributed / busy
        metrics["trace_overhead"] = traced_wall / wall
        record["split"] = layer_split(tracer.spans, busy)
        record["spans"] = tracer.to_json()
        return finish(record, problems, metrics, len(outcomes))

    ratios = [out.cut / workload.reference_cut(op) for op, out in zip(ops, outcomes)]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": len(outcomes) / wall,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p99_ms": percentile_ms(latencies, 99),
        "cut_ratio": statistics.fmean(ratios),
        "peak_rss_mb": rss,
    }
    record["setup_samples_s"] = setups
    return finish(record, problems, metrics, len(outcomes))


def layer_split(spans, busy: float) -> dict:
    """Each layer's self time as a share of busy seconds (see
    :func:`tracer.attributed_seconds`)."""
    from tracer import ROOT_SPANS

    shares: dict = {}
    for span in spans:
        label = "unattributed" if span[0] in ROOT_SPANS else span[0]
        shares[label] = shares.get(label, 0.0) + span[4]
    return {label: value / busy for label, value in sorted(shares.items())}


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    from serve import TOLERANCE, ServerProcess, ServeZipf

    t0 = time.perf_counter()
    workload = ServeZipf(seed)
    inputs_s = time.perf_counter() - t0
    # One segment per set-up sample, each against the server that sample
    # started; a traced run measures half as long, on one.
    segments = 1 if trace else SETUP_SAMPLES
    budget = (seconds / 2 if trace else seconds) / segments
    setups, replies, walls, stats, rss = [], [], [], [], 0.0
    for _ in range(segments):
        t0 = time.perf_counter()
        server = ServerProcess(ROOT, traced=False)
        try:
            workload.warm_up(server)
            setups.append(inputs_s + time.perf_counter() - t0)
            part, wall = workload.drive(server, len(replies), budget)
            stats.append(stats_counters(server))
            rss = max(rss, server.command("stats", reply=True)["peak_rss_mb"])
        finally:
            server.stop()
        replies += part
        walls.append(wall)
    wall = sum(walls)
    problems = workload.check(replies)
    record = {"ops": len(replies), "wall_s": wall, "segment_walls_s": walls,
              "rss_mb": rss, "server_stats": stats}

    if trace:
        traced_server = ServerProcess(ROOT, traced=True)
        try:
            workload.warm_up(traced_server)
            traced_server.command("reset", reply=False)
            traced, traced_wall = workload.drive(traced_server, 0, 0.0, count=len(replies))
            stats = stats_counters(traced_server)
            report = traced_server.command("stats", reply=True)
        finally:
            traced_server.stop()
        problems += workload.check(traced)
        # The labelling a cached entry was first solved under depends on
        # which connection reached the server first, and moves the cut's
        # last bits; so here the two runs agree to the check tolerance.
        problems += [(a.index, f"traced cut {b.cut!r} differs from untraced {a.cut!r}")
                     for a, b in zip(replies, traced)
                     if a.status != b.status or abs(a.cut - b.cut) > TOLERANCE]
        metrics = dict(report["layers"])
        metrics["http.non_200"] = stats["non_200"]
        metrics["server.coalesced_inflight"] = stats["coalesced_inflight"]
        metrics["server.rejected"] = stats["rejected"]
        # No whole-request span exists inside the server, so the busy time
        # is what the clients waited for: the summed request latencies.
        busy = sum(reply.latency for reply in traced)
        metrics["attributed_frac"] = report["attributed_s"] / busy
        metrics["trace_overhead"] = traced_wall / wall
        record["split"] = layer_split(report["spans"], busy)
        record["spans"] = report["spans"]
        return finish(record, problems, metrics, len(replies))

    latencies = [reply.latency for reply in replies if reply.status == "ok"]
    metrics = {
        "throughput_per_s": len(replies) / wall,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p99_ms": percentile_ms(latencies, 99),
    }
    metrics.update(setup_s=statistics.median(setups),
                   cut_ratio=workload.cut_ratio(replies), peak_rss_mb=rss)
    record["setup_samples_s"] = setups
    record["latencies_s"] = latencies
    return finish(record, problems, metrics, len(replies))


def stats_counters(server) -> dict:
    """The server's own ``/stats`` counters the per-layer metrics read."""
    from repro.service import HttpMaxCutClient

    with HttpMaxCutClient(server.host, server.port) as client:
        stats = client.stats()
    counters = stats["metrics"]["counters"]
    http = stats["http"]["counters"]
    return {
        "coalesced_inflight": int(counters.get("coalesced_inflight", 0)),
        "rejected": int(counters.get("rejected", 0)),
        "non_200": sum(int(v) for k, v in http.items()
                       if k.startswith("http_") and k[5:].isdigit() and k != "http_200"),
    }


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------
def finish(record: dict, problems: list, metrics: dict, attempted: int) -> dict:
    """Attach the result; ``problems`` holds ``(op index, message)`` pairs."""
    record["problems"] = [f"#{index}: {message}" for index, message in problems]
    record["result"] = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len({index for index, _ in problems}),
        "metrics": metrics,
    }
    return record


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "serve-zipf":
        record = run_serve(seed, seconds, trace)
    else:
        record = run_in_process(name, seed, seconds, trace)
    units = per_layer_units() if trace else END_TO_END_UNITS
    result = record["result"]
    result["metrics"] = {key: {"value": result["metrics"][key], "unit": unit}
                         for key, unit in units.items()}
    return record


def report(name: str, seed: int, trace: bool, record: dict) -> None:
    from serve import ServeZipf
    from workloads import IN_PROCESS

    qubits = ServeZipf.qubit_counts if name == "serve-zipf" else IN_PROCESS[name].qubit_counts
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "environment": environment(qubits), **record}
    result = record["result"]
    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump(record, handle)
    print(json.dumps({"environment": record["environment"]}))
    error_rate = result["failed"] / result["attempted"]
    print(f"{name}: {record['ops']} ops in {record['wall_s']:.2f} s; "
          f"error_rate {error_rate:.4f} (1); record {os.path.relpath(path)}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<28} {value['value']:>14.6g} {value['unit']}")
    for problem in record["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, make the inputs, warm up, and exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.setup_only:
        from workloads import IN_PROCESS

        IN_PROCESS[args.workload](args.seed).warm_up()
        return 0

    if args.workload == "all":
        return run_all(args)
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, bool(args.trace), record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS and set-up stay its own."""
    from serve import child_env

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=os.getcwd(), env=child_env(ROOT), stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines() or [""]
        try:
            results[name] = json.loads(lines.pop())
        except json.JSONDecodeError:  # the run died before its result
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print("\n".join(lines), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
