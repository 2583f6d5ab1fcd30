"""The serve-zipf workload: HTTP ``/solve`` against a 2-shard server.

The server runs in its own process (``python3 perfbench/serve.py``), so the
load generator does not share its interpreter lock.  It prints ``ready HOST
PORT`` once it listens and then answers commands on stdin, one per line:

``reset``  drop the spans recorded so far (after the warm-up request);
``stats``  print one JSON line: peak RSS and, when traced, the layer spans;
EOF        drain and exit.

The load is a closed loop of two keep-alive ``HttpMaxCutClient`` connections
from one process.  Requests are drawn Zipf(1.1) over 32 seeded weighted
ER(12, 0.3) graphs, each relabelled by a seeded permutation, so every cache
hit has to match through canonical fingerprinting.  Every 1000 requests (an
epoch) the 32 graphs are replaced by a fresh seeded set: the hot set shifts,
so about 3% of requests are cache misses all through the run instead of only
in its first seconds, and the miss share does not depend on how many
requests a run gets through.

A timed run is split into segments of whole epochs, each against a fresh
server process (the set-up samples' servers): hit latency differs by up to
a quarter between server processes on the same host and inputs, so one run
averages over several.  Throughput and the latency percentiles pool every
request of every segment.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

UNIVERSE = 32
N_NODES = 12
ZIPF_EXPONENT = 1.1
CLIENTS = 2
SHARDS = 2
OPTIONS = {"layers": 2, "maxiter": 30}
EPOCH = 1000
#: Epochs drawn per run; a run that outlasts them starts the stream again.
EPOCHS = 64
STREAM_LENGTH = EPOCH * EPOCHS
TOLERANCE = 1e-9


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB.

    Read from ``VmHWM``: Linux carries ``ru_maxrss`` over ``execve``, so a
    server process started from the benchmark would report the
    benchmark's peak as its own.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env(root: str) -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------
def server_main(traced: bool) -> int:
    from repro.service import HttpServerThread

    tracer = None
    if traced:
        from tracer import Tracer, attributed_seconds, install_layers, layer_metrics

        tracer = Tracer()
        install_layers(tracer)
    with HttpServerThread(n_shards=SHARDS, seed=0) as handle:
        print(f"ready {handle.host} {handle.port}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "reset" and tracer is not None:
                tracer.reset()
            elif command == "stats":
                report = {"peak_rss_mb": peak_rss_mb()}
                if tracer is not None:
                    spans = list(tracer.spans)
                    report["layers"] = layer_metrics(spans)
                    report["attributed_s"] = attributed_seconds(spans)[0]
                    report["spans"] = tracer.to_json()
                print(json.dumps(report), flush=True)
    return 0


class ServerProcess:
    """The server subprocess, started from the checkout root."""

    def __init__(self, root: str, traced: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(root, "perfbench", "serve.py"),
             "--trace", "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=root,
            env=child_env(root),
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 3 or line[0] != "ready":
            self.stop()
            raise RuntimeError(f"server did not start: {line}")
        self.host, self.port = line[1], int(line[2])

    def command(self, command: str, reply: bool) -> Optional[dict]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline()) if reply else None

    def stop(self) -> None:
        """Close stdin (the server drains and exits) and wait for it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)


# ---------------------------------------------------------------------------
# Load generator and checks
# ---------------------------------------------------------------------------
@dataclass
class Reply:
    index: int
    latency: float
    status: str
    cut: float = float("nan")
    assignment: Optional[np.ndarray] = None


@dataclass
class ServeZipf:
    """Inputs for one seed, plus the load loop and its checks."""

    seed: int
    graphs: list = field(init=False)  # [epoch][rank]
    picks: np.ndarray = field(init=False)
    perms: np.ndarray = field(init=False)

    name = "serve-zipf"
    qubit_counts = (N_NODES,)

    def __post_init__(self) -> None:
        from repro import erdos_renyi
        from workloads import seeds_for

        self.graphs = [
            [erdos_renyi(N_NODES, 0.3, weighted=True,
                         rng=seeds_for(self.seed, epoch * UNIVERSE + k, 0))
             for k in range(UNIVERSE)]
            for epoch in range(EPOCHS)
        ]
        gen = np.random.default_rng(seeds_for(self.seed, 0, 4))
        weights = np.arange(1, UNIVERSE + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self.picks = gen.choice(UNIVERSE, size=STREAM_LENGTH, p=weights / weights.sum())
        self.perms = gen.permuted(
            np.tile(np.arange(N_NODES), (STREAM_LENGTH, 1)), axis=1)
        self.warm_graph = erdos_renyi(N_NODES, 0.3, weighted=True,
                                      rng=seeds_for(self.seed, EPOCHS * UNIVERSE, 0))

    def universe_graph(self, index: int):
        """The unrelabelled graph request ``index`` asks about."""
        slot = index % STREAM_LENGTH
        return self.graphs[slot // EPOCH][self.picks[slot]]

    def request_graph(self, index: int):
        return self.universe_graph(index).relabel(self.perms[index % STREAM_LENGTH])

    def warm_up(self, server: ServerProcess) -> None:
        from repro.service import HttpMaxCutClient

        with HttpMaxCutClient(server.host, server.port) as client:
            client.solve(self.warm_graph, **OPTIONS)

    def drive(self, server: ServerProcess, first: int, seconds: float,
              count: Optional[int] = None) -> tuple:
        """Run the closed loop from request ``first``, an epoch boundary.

        Timed, it stops at the epoch boundary nearest to ``seconds`` (after
        one epoch at least), so it serves whole epochs only: an epoch's
        misses cluster at its start, and a partial epoch would raise the
        miss share.  With ``count`` it serves requests ``first .. count-1``.

        Returns ``(replies in request order, wall seconds)``.
        """
        from repro.service import HttpMaxCutClient

        lock = threading.Lock()
        cursor = [first]
        replies: List[Reply] = []
        start = time.perf_counter()
        deadline = start + seconds
        boundary = [start]  # when the cursor last crossed an epoch boundary

        def next_index() -> Optional[int]:
            with lock:
                index = cursor[0]
                if count is not None:
                    if index >= count:
                        return None
                elif index % EPOCH == 0 and index > first:
                    now = time.perf_counter()
                    if now + (now - boundary[0]) / 2 >= deadline:
                        return None
                    boundary[0] = now
                cursor[0] += 1
                return index

        def client_loop() -> None:
            with HttpMaxCutClient(server.host, server.port) as client:
                while (index := next_index()) is not None:
                    graph = self.request_graph(index)
                    t0 = time.perf_counter()
                    try:
                        result = client.solve(graph, **OPTIONS)
                    except Exception as exc:  # any failure counts against error_rate
                        status, cut, assignment = f"{type(exc).__name__}: {exc}", float("nan"), None
                    else:
                        status, cut, assignment = "ok", float(result.cut), result.assignment
                    replies.append(Reply(index, time.perf_counter() - t0, status, cut, assignment))

        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        replies.sort(key=lambda reply: reply.index)
        return replies, wall

    def check(self, replies: List[Reply]) -> List[str]:
        """``(request index, problem)`` for every reply that fails a check."""
        from repro.graphs.maxcut import cut_value

        problems = []
        first_cut: dict = {}
        max_cut = self.max_cuts()
        for reply in replies:
            if reply.status != "ok":
                problems.append((reply.index, reply.status))
                continue
            k = id(self.universe_graph(reply.index))
            graph = self.request_graph(reply.index)
            assignment = np.asarray(reply.assignment)
            if assignment.shape != (N_NODES,) or not np.isin(assignment, (0, 1)).all():
                problems.append((reply.index, "malformed assignment"))
            elif abs(cut_value(graph, assignment) - reply.cut) > TOLERANCE:
                problems.append((reply.index, "cut does not match its assignment"))
            elif reply.cut > max_cut[k] + TOLERANCE:
                problems.append((reply.index, "cut exceeds the exact max cut"))
            elif first_cut.setdefault(k, reply.cut) != reply.cut:
                problems.append((reply.index, "isomorphic repeat returned another cut"))
        return problems

    def max_cuts(self) -> dict:
        """Exact max cut per universe graph (keyed by ``id``), the cut-ratio
        reference: the largest entry of its cut diagonal."""
        from repro.graphs.maxcut import cut_diagonal

        return {id(g): float(cut_diagonal(g).max()) for epoch in self.graphs for g in epoch}

    def cut_ratio(self, replies: List[Reply]) -> float:
        max_cut = self.max_cuts()
        ratios = [reply.cut / max_cut[id(self.universe_graph(reply.index))]
                  for reply in replies if reply.status == "ok"]
        return float(np.mean(ratios)) if ratios else float("nan")


if __name__ == "__main__":
    sys.exit(server_main(traced=sys.argv[-1] == "1"))
