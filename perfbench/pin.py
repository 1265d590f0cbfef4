"""Regenerate ``perfbench/digests.json``, the benchmark's pinned outputs.

Usage, from the repository root (takes a few minutes)::

    PYTHONPATH=src python3 perfbench/pin.py

Runs every request the workloads send once, through ``repro.cli.main``
as the benchmark does, and pins the digest of each masked stdout with
its cell count.  Before pinning it checks that ``repro all`` gives the
same reports with ``--backend reference`` (the serial loops the batched
grids are pinned against), so a pin never captures a wrong result.
Re-pin only when a change alters the program's output on purpose.
"""

from __future__ import annotations

import difflib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import gate  # noqa: E402
from perfbench.child import SCENARIOS  # noqa: E402


def call(argv: list[str]) -> str:
    import repro.cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = repro.cli.main(argv)
    if status != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {status}")
    return out.getvalue()


def pin(stdout: str) -> dict:
    computed, cached, failed = gate.accounting(stdout)
    if failed:
        raise SystemExit("refusing to pin an output with quarantined cells")
    return {"digest": gate.digest(stdout), "cells": computed + cached}


def reports(stdout: str) -> list[str]:
    """The report lines, without the backend's accounting lines."""
    return [
        line for line in gate.mask(stdout).splitlines()
        if not line.startswith("backend=")
    ]


def main() -> int:
    pins: dict[str, dict] = {}
    batch = call(["all", "--cache", "none", "--jobs", "1"])
    reference = call(
        ["all", "--cache", "none", "--jobs", "1", "--backend", "reference"]
    )
    if reports(batch) != reports(reference):
        sys.stdout.writelines(difflib.unified_diff(
            reports(reference), reports(batch), "reference", "batch",
            lineterm="\n",
        ))
        print("batch and reference backends disagree; not pinning")
        return 1
    pins["all"] = pin(batch)
    with tempfile.TemporaryDirectory() as scratch:
        for name in SCENARIOS:
            cache = os.path.join(scratch, f"cold-{name}")
            pins[f"cold/{name}"] = pin(call(
                ["sweep", name, "--jobs", "2", "--cache", cache]
            ))
        store = os.path.join(scratch, "warm-store")
        for name in SCENARIOS:
            pins[f"fill/{name}"] = pin(call(
                ["sweep", name, "--jobs", "2", "--cache", store]
            ))
        for name in SCENARIOS:
            stdout = call(["sweep", name, "--jobs", "1", "--cache", store])
            if gate.accounting(stdout)[0]:
                print(f"warm {name} recomputed cells; not pinning")
                return 1
            pins[f"warm/{name}"] = pin(stdout)
    path = os.path.join(ROOT, "perfbench", "digests.json")
    with open(path, "w") as handle:
        json.dump({"pins": pins}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(pins)} outputs in {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
