"""Output-correctness gate and the statistics the benchmark reports.

Every request's captured stdout is reduced to a digest after masking
the only parts that legitimately vary between runs: wall times and the
per-run cache path.  The digests are pinned in ``digests.json`` (made by
``perfbench/pin.py``); a request whose digest differs, that raised, or
that (on ``sweep_warm``) recomputed anything fails all of its cells.
"""

from __future__ import annotations

import hashlib
import re
import statistics

#: ``note: completed in 0.74s (jobs=2, cache=/tmp/x)`` from ``sweep``.
_COMPLETED = re.compile(r"completed in [0-9.]+s \(jobs=(\d+), cache=[^)]*\)")
#: ``backend=batch computed=30 cached=0 elapsed=2.77s`` from ``run``/``all``.
_ELAPSED = re.compile(r"elapsed=[0-9.]+s")
_ACCOUNTING = re.compile(r"computed=(\d+) cached=(\d+)(?: failed=(\d+))?")

#: Metric names: what BENCHMARK.json accepts.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def mask(stdout: str) -> str:
    """Blank the wall times and cache paths, keep everything else."""
    text = _COMPLETED.sub(r"completed in *s (jobs=\1, cache=*)", stdout)
    return _ELAPSED.sub("elapsed=*s", text)


def digest(stdout: str) -> str:
    return hashlib.sha256(mask(stdout).encode()).hexdigest()


def accounting(stdout: str) -> tuple[int, int, int]:
    """Summed ``(computed, cached, failed)`` over every accounting line."""
    computed = cached = failed = 0
    for match in _ACCOUNTING.finditer(stdout):
        computed += int(match.group(1))
        cached += int(match.group(2))
        failed += int(match.group(3) or 0)
    return computed, cached, failed


def check_request(
    stdout: str | None, pinned: dict, require_warm: bool
) -> dict:
    """Judge one request against its pin.

    ``stdout`` is None when the request raised or exited nonzero.
    Returns the cells it attempted, delivered and failed, and the
    reason it failed (None when it passed).
    """
    cells = pinned["cells"]
    if stdout is None:
        return {"cells": cells, "delivered": 0, "failed": cells,
                "error": "request raised or exited nonzero"}
    computed, cached, quarantined = accounting(stdout)
    error = None
    if digest(stdout) != pinned["digest"]:
        error = "output differs from the pinned digest"
    elif require_warm and computed:
        error = f"warm request computed {computed} cells"
    return {
        "cells": cells,
        "delivered": computed + cached - quarantined,
        "failed": cells if error else quarantined,
        "error": error,
    }


def tail_percentile(values: list[float]) -> float | None:
    """The 95th percentile, or None unless ten samples lie beyond it."""
    if len(values) < 2:
        return None
    value = statistics.quantiles(values, n=100, method="inclusive")[94]
    beyond = sum(1 for v in values if v > value)
    return value if beyond >= 10 else None
