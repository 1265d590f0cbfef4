"""One benchmark child process: set up, run the timed passes, report.

Run by ``perfbench/run.py`` as ``python -m perfbench.child <json>``
with the repository root and ``src`` on ``PYTHONPATH``.  The child
drives the program only through ``repro.cli.main([...])`` with stdout
and stderr captured, checks every captured output against its pinned
digest, and writes one JSON result file.

Workloads (a closed loop with one client: the next request is sent
when the previous one returns):

* ``paper_all`` — one ``repro all --cache none --jobs 1`` per pass.
* ``sweep_cold`` — the six registry scenarios per pass, in an order
  drawn from the seed, each ``repro sweep <name> --jobs 2`` against a
  fresh cache directory.
* ``sweep_warm`` — set-up fills one cache directory with every
  scenario; each pass then requests the six scenarios in a seeded
  shuffled order with ``--jobs 1`` and must be served from the store.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from perfbench.gate import check_request

SCENARIOS = (
    "table1", "table1_full", "speedup", "stabilization",
    "general_speedup", "cover_scaling",
)
#: Worker processes of each workload's timed requests.
JOBS = {"paper_all": 1, "sweep_cold": 2, "sweep_warm": 1}
WORKLOADS = tuple(JOBS)


class Client:
    """Sends requests through the CLI and judges their outputs."""

    def __init__(self, cli_main, pinned: dict) -> None:
        self.cli_main = cli_main
        self.pinned = pinned
        self.tracer = None
        self._request_id = -1
        self.cells = 0
        self.delivered = 0
        self.failed = 0
        self.errors: list[str] = []

    def attach(self, tracer) -> None:
        """Record a ``request`` span around every later call."""
        self.tracer = tracer
        self._request_id = tracer.name_id("request")

    def send(self, argv: list[str]) -> tuple[float, str | None]:
        """One timed call; returns latency and stdout (None on error)."""
        out, err = io.StringIO(), io.StringIO()
        span = None if self.tracer is None else self.tracer.begin(
            self._request_id
        )
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                status = self.cli_main(argv)
        except (Exception, SystemExit) as exc:  # a failed request
            status = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if span is not None:
            self.tracer.end(span)
        if status != 0:
            self.errors.append(
                f"{' '.join(argv[:2])}: status {status}; "
                f"stderr tail: {err.getvalue()[-300:]!r}"
            )
            return latency, None
        return latency, out.getvalue()

    def judge(self, key: str, stdout: str | None, warm: bool) -> None:
        verdict = check_request(stdout, self.pinned[key], warm)
        self.cells += verdict["cells"]
        self.delivered += verdict["delivered"]
        self.failed += verdict["failed"]
        if verdict["error"]:
            self.errors.append(f"{key}: {verdict['error']}")


def plan_pass(workload: str, rng: random.Random, scratch: str) -> list:
    """``(pin key, argv, warm)`` for each request of one pass."""
    if workload == "paper_all":
        return [("all", ["all", "--cache", "none", "--jobs", "1"], False)]
    order = list(SCENARIOS)
    rng.shuffle(order)
    if workload == "sweep_cold":
        return [
            (f"cold/{name}",
             ["sweep", name, "--jobs", "2",
              "--cache", os.path.join(scratch, f"cold-{name}")],
             False)
            for name in order
        ]
    return [
        (f"warm/{name}",
         ["sweep", name, "--jobs", "1",
          "--cache", os.path.join(scratch, "warm-store")],
         True)
        for name in order
    ]


def fill_store(client: Client, scratch: str) -> None:
    """Set-up of ``sweep_warm``: every scenario once into one store."""
    store = os.path.join(scratch, "warm-store")
    for name in SCENARIOS:
        _, stdout = client.send(
            ["sweep", name, "--jobs", "2", "--cache", store]
        )
        client.judge(f"fill/{name}", stdout, warm=False)


class TraceReader:
    """Accumulates what each request's ``--trace`` manifest holds."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.counters: dict[str, int] = {}
        self.chunk_wall = 0.0
        self.compute_wall = 0.0
        self._n = 0

    def argv(self) -> list[str]:
        self._n += 1
        return ["--trace", os.path.join(self.directory, f"{self._n}.jsonl")]

    def read(self) -> None:
        from repro.obs import load_manifest

        path = os.path.join(self.directory, f"{self._n}.jsonl")
        manifest = load_manifest(path)
        for name, value in manifest["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        for span in manifest["spans"]:
            name = span.get("name", "")
            if not name.startswith("chunk["):
                continue
            if "/" not in name:
                self.chunk_wall += float(span["wall"])
            elif name.endswith("/compute"):
                self.compute_wall += float(span["wall"])
        os.remove(path)


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[0])
    workload = cfg["workload"]
    scratch = cfg["scratch"]
    import_start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - import_start
    scipy_loaded = "scipy" in sys.modules
    with open(cfg["digests"]) as handle:
        pins = json.load(handle)["pins"]
    client = Client(repro.cli.main, pins)
    if workload == "sweep_warm":
        fill_store(client, scratch)
    setup_s = time.monotonic() - cfg["spawned_at"]
    result = {"setup_s": setup_s, "import_s": import_s,
              "scipy_loaded": scipy_loaded}
    if cfg["passes"] or cfg["budget_s"] > 0:
        result.update(timed_passes(cfg, client, workload, scratch))
    else:
        result.update(pass_walls=[], latencies=[], timed_delivered=0)
    # Set-up requests are judged too: a broken fill fails the run.
    result.update(
        cells=client.cells, delivered=client.delivered,
        failed=client.failed, errors=client.errors[:20],
        maxrss_self_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        maxrss_children_kb=resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
    )
    with open(cfg["result"], "w") as handle:
        json.dump(result, handle)
    return 0


def timed_passes(cfg: dict, client: Client, workload: str, scratch: str):
    """Run passes for ``budget_s`` (or exactly ``passes``); time each.

    The request order comes from the run's seed and this child's index,
    so the children of one run send different orders.
    """
    tracer = reader = None
    if cfg["trace"]:
        from perfbench.layers import TARGETS
        from perfbench.tracer import Tracer

        tracer = Tracer(cfg["span_dir"])
        tracer.install(TARGETS)
        client.attach(tracer)
        reader = TraceReader(scratch)
    rng = random.Random(f"{cfg['seed']}/{cfg['index']}")
    delivered_before = client.delivered
    pass_walls: list[float] = []
    latencies: list[float] = []
    started = time.perf_counter()
    while True:
        wall = 0.0
        for key, request_argv, warm in plan_pass(workload, rng, scratch):
            if reader is not None:
                request_argv = request_argv + reader.argv()
            latency, stdout = client.send(request_argv)
            wall += latency
            latencies.append(latency)
            client.judge(key, stdout, warm)
            if reader is not None and stdout is not None:
                reader.read()
        pass_walls.append(wall)
        if workload == "sweep_cold":
            for name in SCENARIOS:
                shutil.rmtree(
                    os.path.join(scratch, f"cold-{name}"), ignore_errors=True
                )
        if cfg["passes"] is not None:
            if len(pass_walls) >= cfg["passes"]:
                break
        elif time.perf_counter() - started >= cfg["budget_s"]:
            break
    out = {
        "pass_walls": pass_walls,
        "latencies": latencies,
        "timed_delivered": client.delivered - delivered_before,
    }
    if tracer is not None:
        out["missing_targets"] = tracer.unresolved()
        tracer.flush()
        tracer.uninstall()
        out.update(
            counters=reader.counters,
            chunk_wall=reader.chunk_wall,
            compute_wall=reader.compute_wall,
        )
    return out


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
