"""The program's layers as the traced run sees them.

Each entry names a public call site by its defining module and
attribute, and the metric prefix the traced run reports it under
(``<prefix>.calls`` and ``<prefix>.wall_s``, plus the work counts its
hooks add).  The prefixes are the repository's module names, so a
later change can name the layer it targets.

Kernel lane-rounds come from the program's own ``repro.obs`` counters:
the hook reads the ambient telemetry's counter before and after the
call (the CLI's ``--trace`` flag makes it ambient in the parent, and
the executor's traced chunks make it ambient in pool workers).
"""

from __future__ import annotations

from repro import obs


def _result_len(tracer, prefix, args, kwargs, result, token) -> None:
    tracer.add(f"{prefix}.cells", len(result))


def _one_cell(tracer, prefix, args, kwargs, result, token) -> None:
    tracer.add(f"{prefix}.cells", 1)


def _arg_len(position: int):
    def after(tracer, prefix, args, kwargs, result, token) -> None:
        tracer.add(f"{prefix}.cells", len(args[position]))

    return after


def _plan_cells(tracer, prefix, args, kwargs, result, token) -> None:
    tracer.add(f"{prefix}.cells", args[0].num_cells)


def _diameter_before(args, kwargs) -> bool:
    return getattr(args[0], "_diameter_cache", None) is None


def _diameter_after(tracer, prefix, args, kwargs, result, token) -> None:
    tracer.add(f"{prefix}.computed", int(token))


def _counter(*names: str):
    """Lane-rounds as the product of the named counters' increments."""

    def before(args, kwargs):
        tel = obs.active()
        if tel is None:
            return None
        return [tel.counters.get(name, 0) for name in names]

    def after(tracer, prefix, args, kwargs, result, token) -> None:
        tel = obs.active()
        if token is None or tel is None:
            return
        value = 1
        for name, start in zip(names, token):
            value *= tel.counters.get(name, 0) - start
        tracer.add(f"{prefix}.lane_rounds", value)

    return before, after


def _lookup_after(tracer, prefix, args, kwargs, result, token) -> None:
    found = result[0]
    tracer.add(f"{prefix}.rows", len(args[1]))
    tracer.add(f"{prefix}.hits", len(found))


def _put_after(tracer, prefix, args, kwargs, result, token) -> None:
    tracer.add(f"{prefix}.rows", len(args[1]))


def _open_store_after(tracer, prefix, args, kwargs, result, token) -> None:
    # Store methods are wrapped on whichever class the default store
    # is, so the layer follows the CLI's default backend.
    store_class = type(result)
    tracer.wrap_attribute(
        store_class, "lookup_many", "sweep.store.lookup_many",
        after=_lookup_after,
    )
    tracer.wrap_attribute(
        store_class, "put_many", "sweep.store.put_many", after=_put_after
    )
    tracer.wrap_attribute(store_class, "close", "sweep.store.close")


_EXPERIMENTS = [
    ("table1", "run_table1", "table1"),
    *[(f"theorem{i}", f"run_theorem{i}", f"theorem{i}") for i in range(1, 7)],
    ("figures", "run_figure1", "figure1"),
    ("figures", "run_figure2", "figure2"),
    ("continuous", "run_continuous", "continuous"),
    ("speedup_graphs", "run_speedup_graphs", "speedup_graphs"),
    ("stabilization", "run_stabilization", "stabilization"),
]

#: (module, attribute, metric prefix, before hook, after hook)
TARGETS: list[tuple] = [
    *[
        (f"repro.experiments.{module}", runner, f"experiments.{name}",
         None, None)
        for module, runner, name in _EXPERIMENTS
    ],
    ("repro.experiments.harness", "Report.render",
     "experiments.harness.render", None, None),
    ("repro.core.domains", "domain_snapshot",
     "core.domains.domain_snapshot", None, None),
    ("repro.core.domains", "o_values", "core.domains.o_values", None, None),
    *[
        ("repro.analysis.domains_stats", name,
         f"analysis.domains_stats.{name}", None, None)
        for name in (
            "border_type_census", "trace_domains", "final_profile_vs_lemma13"
        )
    ],
    ("repro.core.ring", "RingRotorRouter.step", "core.ring.step", None, None),
    ("repro.core.path", "PathRotorRouter.step", "core.path.step", None, None),
    ("repro.experiments.deployments", "run_theorem1_deployment",
     "experiments.deployments.run_theorem1_deployment", None, None),
    ("repro.theory.ode", "integrate_domains", "theory.ode.integrate_domains",
     None, None),
    ("repro.theory.ode", "equilibrium_check", "theory.ode.equilibrium_check",
     None, None),
    ("repro.graphs.base", "PortLabeledGraph.diameter",
     "graphs.base.diameter", _diameter_before, _diameter_after),
    ("repro.analysis.backend", "MeasurementPlan.execute",
     "analysis.backend.execute", None, _plan_cells),
    ("repro.sweep.spec", "ScenarioSpec.configs", "sweep.spec.configs",
     None, _result_len),
    ("repro.sweep.spec", "GeneralScenarioSpec.configs", "sweep.spec.configs",
     None, _result_len),
    ("repro.sweep.executor", "run_cells", "sweep.executor.run_cells",
     None, None),
    ("repro.sweep.executor", "_compute_rotor_covers_serial",
     "sweep.executor.serial_ring_cover", None, _arg_len(2)),
    ("repro.sweep.executor", "_compute_general_serial",
     "sweep.executor.serial_general_cover", None, _arg_len(0)),
    ("repro.sweep.store", "open_store", "sweep.store.open",
     None, _open_store_after),
    ("repro.sweep.batch_ring", "BatchRingKernel.run_until_covered",
     "sweep.batch_ring.cover", *_counter("ring.lane_rounds")),
    ("repro.sweep.batch_ring", "batch_limit_cycles", "sweep.batch_ring.limit",
     *_counter("limit.lanes", "limit.rounds")),
    ("repro.sweep.batch_ring", "batch_return_gaps",
     "sweep.batch_ring.return_gaps", *_counter("gaps.lane_rounds")),
    ("repro.sweep.batch_walk", "BatchRingWalks.run_until_covered",
     "sweep.batch_walk.cover", *_counter("walk.lane_rounds")),
    ("repro.sweep.batch_general", "batch_general_covers",
     "sweep.batch_general.cover", *_counter("general.pair_rounds")),
    ("repro.randomwalk.visits", "ring_walk_gap_statistics",
     "randomwalk.visits.gap_stats", None, _one_cell),
    ("repro.sweep.aggregate", "summary_tables",
     "sweep.aggregate.summary_tables", None, None),
]
