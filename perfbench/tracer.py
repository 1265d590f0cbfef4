"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the program from outside: it
replaces each named function (or method) on its defining module or
class, and every by-name binding of it in other ``repro`` modules, so
the wrapper sits where each caller looks the name up.  Modules that are
imported later (the CLI imports most of its layers lazily) are patched
the moment they finish executing, through a meta-path hook, so the
traced run pays its lazy imports inside the timed pass exactly like the
untraced run does.

Each wrapped call records one span: name, start, end and the index of
the enclosing span in the same process.  Spans live in flat arrays
(24 bytes each; the domain-tracking layers make ~10^6 calls per
``repro all``) and are written out as ``.npz`` files: at the end of the
run for the benchmark's own process, and after each outermost span in a
forked pool worker (pools are torn down with ``terminate()``, so a
worker gets no exit hook).  :func:`load_spans` merges the files.

Self time is a span's duration minus the durations of its direct
children.  Summed over the benchmark process's span tree, the self
times of the named layers plus the self time of the structural spans
(``request``, one per timed CLI call), reported as ``unattributed``,
equal the traced wall time exactly; :func:`attribution` computes both.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import os
import sys
from array import array
from time import perf_counter
from typing import Callable

import numpy as np

#: The span the benchmark opens around each timed CLI call; its self
#: time is wall time that no named layer covers.
REQUEST = "request"

#: ``after(tracer, prefix, args, kwargs, result, before)`` hooks add a
#: layer's work counts; ``before(args, kwargs)`` runs ahead of the call.
Hook = Callable[..., None]

_CURRENT: "Tracer | None" = None
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child() -> None:
    if _CURRENT is not None:
        _CURRENT._become_worker()


class Tracer:
    """In-memory span recorder with a wrapper factory and patcher."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._wrappers: dict[int, Callable] = {}
        self._originals: list[tuple[object, str, object]] = []
        self._targets: dict[str, list[tuple]] = {}
        self._finder: _PatchOnImport | None = None
        self._worker = False
        self._flushes = 0
        self._reset_spans()

    # -- recording -------------------------------------------------------
    def _reset_spans(self) -> None:
        self.span_names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        index = len(self.starts)
        self.span_names.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()
        if self._worker and not self._stack:
            self.flush()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def flush(self) -> None:
        """Write recorded spans and counts to a new file; start afresh."""
        path = os.path.join(
            self.out_dir, f"spans-{os.getpid()}-{self._flushes}.npz"
        )
        self._flushes += 1
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            span_names=np.frombuffer(self.span_names, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            count_names=np.array(sorted(self.counts), dtype=str),
            count_values=np.array(
                [self.counts[k] for k in sorted(self.counts)],
                dtype=np.float64,
            ),
            worker=np.array(self._worker),
        )
        self._reset_spans()
        self.counts = {}

    def _become_worker(self) -> None:
        # A forked worker inherits the parent's buffers and open stack;
        # it records only its own calls.
        self._worker = True
        self._flushes = 0
        self._reset_spans()
        self.counts = {}

    # -- wrapping ----------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        prefix: str,
        before: Hook | None = None,
        after: Hook | None = None,
    ) -> Callable:
        nid = self.name_id(prefix)
        calls = f"{prefix}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, prefix, args, kwargs, result, token)
                return result
            finally:
                self.counts[calls] = self.counts.get(calls, 0) + 1
                self.end(index)

        return traced

    def replace(self, owner: object, attr: str, new: object) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_attribute(
        self,
        owner: object,
        attr: str,
        prefix: str,
        before: Hook | None = None,
        after: Hook | None = None,
    ) -> None:
        """Wrap ``owner.attr`` in place, once; skip it if it is missing."""
        original = getattr(owner, "__dict__", {}).get(attr)
        if not callable(original) or getattr(
            original, "__perfbench_wrapped__", False
        ):
            return
        wrapper = self.wrap(original, prefix, before, after)
        wrapper.__perfbench_wrapped__ = True
        self._wrappers[id(original)] = wrapper
        self.replace(owner, attr, wrapper)

    def install(self, targets: list[tuple]) -> None:
        """Wrap every target, now or when its module is imported.

        ``targets`` holds ``(module, "name" or "Class.method", prefix,
        before, after)`` tuples; :meth:`unresolved` reports the ones
        that were not found.
        """
        global _CURRENT, _FORK_HOOK_REGISTERED
        _CURRENT = self
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_REGISTERED = True
        for target in targets:
            self._targets.setdefault(target[0], []).append(target)
        loaded = sorted(
            name for name in sys.modules if _is_program_module(name)
        )
        for name in loaded:
            self._patch_targets(sys.modules[name])
        for name in loaded:
            self._rebind(sys.modules[name])
        self._finder = _PatchOnImport(self)
        sys.meta_path.insert(0, self._finder)

    def unresolved(self) -> list[str]:
        """Targets in imported modules that are not wrapped."""
        missing = []
        for module_name, targets in sorted(self._targets.items()):
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for _, path, *_ in targets:
                owner = module
                for part in path.split("."):
                    owner = getattr(owner, part, None)
                if not getattr(owner, "__perfbench_wrapped__", False):
                    missing.append(f"{module_name}.{path}")
        return missing

    def uninstall(self) -> None:
        global _CURRENT
        if self._finder is not None and self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        self._wrappers.clear()
        if _CURRENT is self:
            _CURRENT = None

    def patch_module(self, module: object) -> None:
        self._patch_targets(module)
        self._rebind(module)

    def _patch_targets(self, module) -> None:
        for _, path, prefix, before, after in self._targets.get(
            module.__name__, ()
        ):
            owner = module
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is not None:
                self.wrap_attribute(owner, attr, prefix, before, after)

    def _rebind(self, module) -> None:
        """Point by-name imports of wrapped functions at the wrappers."""
        namespace = module.__dict__
        for attr, value in list(namespace.items()):
            wrapper = self._wrappers.get(id(value))
            if wrapper is not None and wrapper is not value:
                self.replace(module, attr, wrapper)


def _is_program_module(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Meta-path hook: patch each program module once it has executed."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not _is_program_module(fullname):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        spec.loader = _PatchingLoader(spec.loader, self.tracer)
        return spec


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def create_module(self, spec):
        return self.inner.create_module(spec)

    def exec_module(self, module) -> None:
        self.inner.exec_module(module)
        self.tracer.patch_module(module)


# -- analysis ----------------------------------------------------------------
class Spans:
    """Spans of one process, with names resolved to strings."""

    def __init__(self, names, span_names, parents, starts, ends, worker):
        self.names = [str(name) for name in names]
        self.span_names = np.asarray(span_names, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.ends = np.asarray(ends, dtype=np.float64)
        self.worker = bool(worker)

    @property
    def durations(self) -> np.ndarray:
        return self.ends - self.starts

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of direct children."""
        durations = self.durations
        child = self.parents >= 0
        covered = np.bincount(
            self.parents[child], weights=durations[child],
            minlength=durations.size,
        )
        return durations - covered

    def per_name(self, values: np.ndarray) -> dict[str, float]:
        sums = np.bincount(
            self.span_names, weights=values, minlength=len(self.names)
        )
        seen = np.bincount(self.span_names, minlength=len(self.names))
        return {
            name: float(sums[i])
            for i, name in enumerate(self.names)
            if seen[i]
        }

    def roots(self) -> np.ndarray:
        """Index of each span's outermost ancestor (itself for roots)."""
        roots = np.where(
            self.parents < 0, np.arange(self.parents.size), self.parents
        )
        while True:
            # Parents precede children, so pointer jumping converges.
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                return roots
            roots = jumped

    def subset(self, keep: np.ndarray) -> "Spans":
        """The spans where ``keep`` holds (whole subtrees, so parent
        indices are remapped onto the kept spans)."""
        new_index = np.cumsum(keep) - 1
        parents = self.parents[keep]
        parents = np.where(parents >= 0, new_index[parents], -1)
        return Spans(
            self.names, self.span_names[keep], parents,
            self.starts[keep], self.ends[keep], self.worker,
        )


def load_spans(out_dir: str) -> tuple[list[Spans], dict[str, float]]:
    """Every span file in ``out_dir`` plus the summed layer counts."""
    spans: list[Spans] = []
    counts: dict[str, float] = {}
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("spans-") and name.endswith(".npz")):
            continue
        with np.load(os.path.join(out_dir, name)) as data:
            spans.append(Spans(
                data["names"], data["span_names"], data["parents"],
                data["starts"], data["ends"], data["worker"],
            ))
            for key, value in zip(data["count_names"], data["count_values"]):
                counts[str(key)] = counts.get(str(key), 0) + float(value)
    return spans, counts


def layer_walls(spans: list[Spans]) -> dict[str, float]:
    """Inclusive wall time per span name, summed over all processes."""
    walls: dict[str, float] = {}
    for part in spans:
        for name, value in part.per_name(part.durations).items():
            walls[name] = walls.get(name, 0.0) + value
    return walls


def attribution(spans: list[Spans]) -> dict:
    """Self-time attribution over the benchmark process's span tree.

    Worker spans run concurrently with their parent's wait and are left
    out, and so are spans outside any request.  Returns the traced wall
    (summed ``request`` spans), the self time of every named layer, and
    ``unattributed_s``, the self time of the request spans; the layer
    self times plus ``unattributed_s`` equal the traced wall.
    """
    wall = 0.0
    layers: dict[str, float] = {}
    unattributed = 0.0
    for part in spans:
        if part.worker or not part.span_names.size:
            continue
        request_ids = [i for i, n in enumerate(part.names) if n == REQUEST]
        roots = part.roots()
        timed = part.subset(np.isin(part.span_names[roots], request_ids))
        wall += float(timed.durations[timed.parents < 0].sum())
        for name, value in timed.per_name(timed.self_times()).items():
            if name == REQUEST:
                unattributed += value
            else:
                layers[name] = layers.get(name, 0.0) + value
    return {
        "wall_s": wall,
        "layer_self_s": layers,
        "unattributed_s": unattributed,
    }
