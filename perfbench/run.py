"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with three fresh child
processes in turn.  Each one sets up and then measures its share of
``--seconds``; a child whose share is used up by earlier, longer passes
only sets up.  ``setup_s`` is the median over these children and, when
set-up is short, over up to six more that only set up.  ``--trace 1``
runs the same untraced children and then one traced child with the
same seed and pass count, and reports the per-layer metrics.  Every metric is printed
as ``name = value unit``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 0 only when every output matched its pinned digest.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import gate  # noqa: E402
from perfbench.child import JOBS, WORKLOADS  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END, KERNELS, PER_LAYER, REPORTED_ONLY,
)

DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench-tmp")
RESULTS = os.path.join(ROOT, ".perfbench-out", "results.jsonl")
#: Fresh children per untraced run (three set-up samples; measuring in
#: three time windows also averages over slow drift of the machine).
CHILDREN = 3
#: Short set-ups (no store to fill) are noisy, and cheap: more
#: set-up-only children follow while their set-ups total under
#: ``SETUP_BUDGET_S``, up to ``SETUP_SAMPLES`` samples in all.
SETUP_SAMPLES = 9
SETUP_BUDGET_S = 5.0
#: Every child must finish within this many seconds of the run's start.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """A run that cannot produce a result (exit 2, nothing printed)."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def preflight() -> None:
    if os.environ.get("REPRO_FAULTS"):
        raise BenchmarkError(
            "REPRO_FAULTS is set; refusing to measure with fault injection"
        )
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        raise BenchmarkError(f"no program source under {ROOT}/src")
    if not os.path.isfile(DIGESTS):
        raise BenchmarkError("perfbench/digests.json is missing")


class Children:
    """Starts child processes and kills their whole session on expiry."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        os.makedirs(SCRATCH_ROOT, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT)
        self._n = 0

    def run(self, budget_s: float = 0.0, trace: bool = False,
            passes: int | None = None) -> dict:
        index = self._n
        self._n += 1
        work = os.path.join(self.scratch, f"child-{index}")
        span_dir = os.path.join(work, "spans")
        os.makedirs(span_dir)
        cfg = {
            "workload": self.workload, "seed": self.seed, "index": index,
            "budget_s": budget_s, "trace": trace,
            "passes": passes, "scratch": work, "span_dir": span_dir,
            "digests": DIGESTS, "result": os.path.join(work, "result.json"),
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ROOT, os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        stderr_path = os.path.join(work, "stderr.txt")
        with open(stderr_path, "w") as stderr:
            cfg["spawned_at"] = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.child", json.dumps(cfg)],
                cwd=work, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
                start_new_session=True,
            )
            try:
                status = proc.wait(timeout=max(
                    1.0, self.deadline - time.monotonic()
                ))
            except subprocess.TimeoutExpired:
                status = None
            finally:
                # The child's pool workers share its session.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if status != 0:
            with open(stderr_path) as handle:
                tail = handle.read()[-2000:]
            what = "timed out" if status is None else f"exited {status}"
            raise BenchmarkError(f"child {index} {what}:\n{tail}")
        with open(cfg["result"]) as handle:
            result = json.load(handle)
        result["span_dir"] = span_dir
        return result

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def measure(children: Children, seconds: int) -> list[dict]:
    """The untraced children; each measures its share of ``seconds``."""
    results: list[dict] = []
    timed = 0.0
    for i in range(CHILDREN):
        budget = seconds * (i + 1) / CHILDREN - timed
        results.append(children.run(budget_s=max(budget, 0.0)))
        timed += sum(results[-1]["pass_walls"])
    while len(results) < SETUP_SAMPLES and sum(
        r["setup_s"] for r in results
    ) < SETUP_BUDGET_S:
        results.append(children.run())
    return results


def end_to_end(results: list[dict], workload: str) -> dict:
    walls = [wall for r in results for wall in r["pass_walls"]]
    latencies = [lat for r in results for lat in r["latencies"]]
    peaks = [
        r["maxrss_self_kb"]
        + (r["maxrss_children_kb"] if JOBS[workload] > 1 else 0)
        for r in results if r["pass_walls"]
    ]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median([r["setup_s"] for r in results]),
        "cells_per_s": sum(r["timed_delivered"] for r in results) / sum(walls),
        "request_p50_ms": 1000 * statistics.median(latencies),
        "peak_rss_mb": max(peaks) / 1024,
    }


def per_layer(
    untraced: list[dict], traced: dict, workload: str
) -> tuple[dict, dict]:
    """Per-layer metrics from the traced child; plus its attribution."""
    from perfbench.tracer import attribution, layer_walls, load_spans

    spans, counts = load_spans(traced["span_dir"])
    walls = layer_walls(spans)
    attributed = attribution(spans)
    counters = traced["counters"]

    def count(name: str) -> float:
        return counts.get(name, 0)

    values: dict[str, float] = {
        "startup.import_s": traced["import_s"],
        "startup.scipy_loaded": int(traced["scipy_loaded"]),
        "sweep.executor.cells_computed": counters.get(
            "executor.cells_computed", 0
        ),
        "sweep.executor.cells_cached": counters.get(
            "executor.cells_cached", 0
        ),
        "sweep.executor.chunks": counters.get("executor.chunks", 0),
        "sweep.executor.compute_s": traced["compute_wall"],
        "sweep.shm.bytes": counters.get("executor.shm_bytes", 0),
        "sweep.shm.segments": counters.get("executor.shm_segments", 0),
        "obs.trace_overhead_s": sum(traced["pass_walls"]) - sum(
            wall for r in untraced for wall in r["pass_walls"]
        ),
        "unattributed_s": attributed["unattributed_s"],
    }
    jobs = JOBS[workload]
    run_cells_wall = walls.get("sweep.executor.run_cells", 0.0)
    values["sweep.executor.wait_s"] = (
        attributed["layer_self_s"].get("sweep.executor.run_cells", 0.0)
        if jobs > 1 else 0.0
    )
    values["sweep.executor.worker_busy_ratio"] = (
        traced["chunk_wall"] / (jobs * run_cells_wall)
        if run_cells_wall > 0 else 0.0
    )
    rows = count("sweep.store.lookup_many.rows")
    values["sweep.store.hit_ratio"] = (
        count("sweep.store.lookup_many.hits") / rows if rows else 0.0
    )
    for kernel in KERNELS:
        wall = walls.get(kernel, 0.0)
        values[f"{kernel}.mlr_per_s"] = (
            count(f"{kernel}.lane_rounds") / wall / 1e6 if wall > 0 else 0.0
        )
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        prefix, field = name.rsplit(".", 1)
        values[name] = (
            walls.get(prefix, 0.0) if field == "wall_s" else int(count(name))
        )
    return values, attributed


def format_value(value: float) -> str:
    return repr(round(value, 6)) if isinstance(value, float) else str(value)


def record(args: argparse.Namespace) -> dict:
    """Identity of the measured code and the machine, for every result."""

    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                source.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "source_sha256": source.hexdigest()[:16],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        preflight()
        children = Children(args.workload, args.seed)
        try:
            runs = measure(children, args.seconds)
            if args.trace:
                traced = children.run(trace=True, passes=sum(
                    len(r["pass_walls"]) for r in runs
                ))
                metrics, attributed = per_layer(runs, traced, args.workload)
                runs.append(traced)
                specs = PER_LAYER
            else:
                metrics = end_to_end(runs, args.workload)
                specs = END_TO_END
        finally:
            children.close()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(run["cells"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    errors = [error for run in runs for error in run["errors"]]
    info = record(args)
    print(f"perfbench record {json.dumps(info, sort_keys=True)}")
    for error in errors:
        print(f"perfbench mismatch: {error}")
    units = {name: unit for name, unit, _ in specs + REPORTED_ONLY}
    for name, _, _ in specs:
        print(f"{name} = {format_value(metrics[name])} {units[name]}")
    if args.trace:
        print_attribution(args.workload, attributed, traced)
    else:
        latencies = [lat for r in runs for lat in r["latencies"]]
        p95 = gate.tail_percentile(latencies)
        if p95 is not None:
            print(f"request_p95_ms = {format_value(1000 * p95)} ms "
                  f"(n={len(latencies)})")
        else:
            print(f"request_p95_ms not reported: fewer than ten of "
                  f"n={len(latencies)} samples lie beyond it")
        print(f"request_p50_ms samples n={len(latencies)}, "
              f"passes={sum(len(r['pass_walls']) for r in runs)}")
        print(f"failed_ratio = {format_value(failed / attempted)} fraction "
              f"({failed}/{attempted} cells)")
    correct = failed == 0 and not errors
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "a") as handle:
        handle.write(json.dumps(
            {**info, "correct": correct, "metrics": metrics}, sort_keys=True
        ) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name, _, _ in specs
        },
    }))
    return 0 if correct else 1


def print_attribution(workload: str, attributed: dict, traced: dict) -> None:
    wall = attributed["wall_s"]
    unattributed = attributed["unattributed_s"]
    covered = 1 - unattributed / wall if wall > 0 else 0.0
    print(
        f"attribution workload={workload} traced_wall_s={wall:.4f} "
        f"named_layers={100 * covered:.1f}% "
        f"unattributed_s={unattributed:.4f} "
        f"passes={len(traced['pass_walls'])}"
    )
    ranked = sorted(
        attributed["layer_self_s"].items(), key=lambda item: -item[1]
    )
    for name, value in ranked[:12]:
        print(f"  self {name:<52} {value:9.4f} s")
    if traced.get("missing_targets"):
        print("perfbench: layers not found: "
              + ", ".join(traced["missing_targets"]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
