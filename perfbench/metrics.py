"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; the benchmark's tests keep
the two in step.  Per-layer names are the repository's module names.
"""

from __future__ import annotations

#: Kernel layers: reported with calls, wall, lane-rounds and Mlr/s.
KERNELS = (
    "sweep.batch_ring.cover",
    "sweep.batch_ring.limit",
    "sweep.batch_ring.return_gaps",
    "sweep.batch_walk.cover",
    "sweep.batch_general.cover",
)
#: (name, unit, better) of the metrics the untraced run reports.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cells_per_s", "cells/s", "higher"),
    ("request_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Printed by the untraced run but not gated: ``failed_ratio`` is 0 on
#: a correct program (failures are gated through ``correct``/``failed``
#: instead), and ``request_p95_ms`` exists only where at least ten
#: samples lie beyond it, which only ``sweep_warm`` reaches.
REPORTED_ONLY = [
    ("request_p95_ms", "ms", "lower"),
    ("failed_ratio", "fraction", "lower"),
]

_EXPERIMENT_RUNNERS = (
    "table1", "theorem1", "theorem2", "theorem3", "theorem4", "theorem5",
    "theorem6", "figure1", "figure2", "continuous", "speedup_graphs",
    "stabilization",
)


def _group(prefix: str, *fields: str) -> list[tuple[str, str, str]]:
    units = {
        "calls": ("count", "lower"),
        "wall_s": ("s", "lower"),
        "cells": ("count", "lower"),
        "rows": ("count", "lower"),
        "computed": ("count", "lower"),
        "lane_rounds": ("lane-rounds", "lower"),
        "mlr_per_s": ("Mlr/s", "higher"),
    }
    return [(f"{prefix}.{field}", *units[field]) for field in fields]


#: (name, unit, better) of the metrics the traced run reports.
PER_LAYER = [
    ("startup.import_s", "s", "lower"),
    ("startup.scipy_loaded", "bool", "lower"),
    *[
        (f"experiments.{name}.wall_s", "s", "lower")
        for name in _EXPERIMENT_RUNNERS
    ],
    *_group("experiments.harness.render", "calls", "wall_s"),
    *_group("core.domains.domain_snapshot", "calls", "wall_s"),
    *_group("core.domains.o_values", "calls", "wall_s"),
    *[
        (f"analysis.domains_stats.{name}.wall_s", "s", "lower")
        for name in (
            "border_type_census", "trace_domains", "final_profile_vs_lemma13"
        )
    ],
    *_group("core.ring.step", "calls", "wall_s"),
    *_group("core.path.step", "calls", "wall_s"),
    *_group("experiments.deployments.run_theorem1_deployment",
            "calls", "wall_s"),
    ("theory.ode.integrate_domains.wall_s", "s", "lower"),
    *_group("theory.ode.equilibrium_check", "calls", "wall_s"),
    *_group("graphs.base.diameter", "calls", "computed", "wall_s"),
    *_group("analysis.backend.execute", "calls", "wall_s", "cells"),
    *_group("sweep.spec.configs", "calls", "wall_s", "cells"),
    *_group("sweep.executor.run_cells", "calls", "wall_s"),
    ("sweep.executor.cells_computed", "count", "lower"),
    ("sweep.executor.cells_cached", "count", "higher"),
    ("sweep.executor.chunks", "count", "lower"),
    ("sweep.executor.compute_s", "s", "lower"),
    ("sweep.executor.wait_s", "s", "lower"),
    ("sweep.executor.worker_busy_ratio", "ratio", "higher"),
    ("sweep.shm.bytes", "B", "lower"),
    ("sweep.shm.segments", "count", "lower"),
    *[
        metric
        for kernel in KERNELS
        for metric in _group(
            kernel, "calls", "wall_s", "lane_rounds", "mlr_per_s"
        )
    ],
    *_group("randomwalk.visits.gap_stats", "calls", "wall_s", "cells"),
    *_group("sweep.executor.serial_ring_cover", "calls", "wall_s", "cells"),
    *_group("sweep.executor.serial_general_cover",
            "calls", "wall_s", "cells"),
    *_group("sweep.store.open", "calls", "wall_s"),
    *_group("sweep.store.lookup_many", "calls", "wall_s", "rows"),
    ("sweep.store.hit_ratio", "ratio", "higher"),
    *_group("sweep.store.put_many", "calls", "wall_s", "rows"),
    ("sweep.store.close.wall_s", "s", "lower"),
    *_group("sweep.aggregate.summary_tables", "calls", "wall_s"),
    ("obs.trace_overhead_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
]
