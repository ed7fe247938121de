"""In-memory span recorder that times the program's layers from outside.

The recorder replaces public functions of ``repro`` with thin wrappers,
patching each name where the caller looks it up (a class attribute, a
module global imported by name, or a dispatch-table entry).  Every call
becomes one span: layer, parent span, start and end.  Spans stay in
memory; :meth:`SpanRecorder.layer_totals` folds them into per-layer call
counts and self time (span duration minus the time its child spans
cover), and :meth:`SpanRecorder.dump` writes the raw spans out.

Nothing under ``src/`` is modified; :meth:`SpanRecorder.restore` puts
every original back.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Every layer the traced run reports, in report order.  Each gets a
#: ``<layer>.calls`` and a ``<layer>.self_s`` metric.
LAYERS: Tuple[str, ...] = (
    "simulation.run",
    "hadoop.heartbeat",
    "hadoop.launch",
    "hadoop.task_finished",
    "hadoop.submit",
    "cluster.load",
    "core.select",
    "core.control_interval",
    "core.task_report",
    "energy.samples",
    "energy.estimate",
    "runner.sweep",
    "runner.execute",
    "runner.spec_hash",
    "runner.build_record",
    "runner.record_digest",
    "runner.cache_put",
    "runner.cache_get",
    "runner.spool_append",
    "runner.spool_scan",
    "serve.decode",
    "serve.validate",
    "serve.pump",
    "serve.decide",
    "serve.report",
    "serve.encode",
    "serve.handle",
)


class SpanRecorder:
    """Collects spans from wrapped functions; one recorder per process."""

    def __init__(self) -> None:
        self._layer_ids: Dict[str, int] = {name: i for i, name in enumerate(LAYERS)}
        self._patches: List[Tuple[Any, Any, Any, bool]] = []
        # Wrappers capture these lists once; clear() empties them in place.
        self.layer: List[int] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self._stack: List[int] = [-1]
        #: counters kept by wrappers with a post-call hook
        self.counters: Dict[str, float] = {
            "select_offered": 0,
            "select_useful": 0,
            "record_lines": 0,
            "record_bytes": 0,
            "cache_gets": 0,
            "cache_hits": 0,
        }
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and counters (patches stay installed)."""
        for spans in (self.layer, self.parent, self.start, self.end):
            spans.clear()
        self._stack[:] = [-1]
        for key in self.counters:
            self.counters[key] = 0

    # ------------------------------------------------------------ wrapping
    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """A span-recording stand-in for ``fn``.

        ``after(args, result)`` runs once the span has closed, so its own
        cost lands in the caller's self time, not in this layer's.
        """
        layer_id = self._layer_ids[name]
        layers, parents, starts, ends, stack = (
            self.layer, self.parent, self.start, self.end, self._stack,
        )

        def span(*args, **kwargs):
            sid = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(span, fn)

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a generator function: one span per step."""
        layer_id = self._layer_ids[name]
        layers, parents, starts, ends, stack = (
            self.layer, self.parent, self.start, self.end, self._stack,
        )

        def steps(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                sid = len(starts)
                layers.append(layer_id)
                parents.append(stack[-1])
                starts.append(0.0)
                ends.append(0.0)
                stack.append(sid)
                starts[sid] = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    ends[sid] = perf_counter()
                    stack.pop()
                yield item

        return functools.update_wrapper(steps, fn)

    def patch(self, owner: Any, attr: str, name: str, *, generator: bool = False,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (class, module or dict) with a span wrapper."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else owner.__dict__[attr]
        make = self.wrap_generator if generator else self.wrap
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(name, original.__func__))
        elif generator:
            replacement = make(name, original)
        else:
            replacement = make(name, original, after)
        if is_dict:
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, is_dict))

    def hook(self, owner: Any, attr: str, after: Callable) -> None:
        """Call ``after(args, result)`` after ``owner[attr]`` without a span."""
        original = owner[attr]

        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, result)
            return result

        owner[attr] = functools.update_wrapper(hooked, original)
        self._patches.append((owner, attr, original, True))

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        for owner, attr, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- results
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.asarray(self.layer, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
        }

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``{layer: (calls, self seconds)}`` over the spans recorded so far."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child_time
        calls = np.bincount(spans["layer"], minlength=len(LAYERS))
        self_s = np.bincount(spans["layer"], weights=self_time, minlength=len(LAYERS))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(LAYERS)}

    def dump(self, path) -> None:
        """Write the raw spans (and the layer-name table) as ``.npz``."""
        np.savez_compressed(path, layers=np.asarray(LAYERS), **self.arrays())


def install_layers(recorder: SpanRecorder, *, daemon: bool = False) -> None:
    """Wrap every layer boundary of ``repro`` this process can reach.

    ``daemon=True`` is the serve daemon's view: the engine's clock pump
    is ``Simulator.run`` (reported as ``serve.pump``) and the socket
    codec and wire validators are wrapped too.
    """
    from repro.cluster.machine import Machine
    from repro.core.service import HeartbeatRequest, LocalSchedulerCore, TrackerInfo
    from repro.energy.model import TaskEnergyModel
    from repro.hadoop import jobtracker as jobtracker_module
    from repro.hadoop import tasktracker as tasktracker_module
    from repro.runner import cache as cache_module
    from repro.runner import engine as engine_module
    from repro.runner import record as record_module
    from repro.runner import spec as spec_module
    from repro.runner import spool as spool_module
    from repro.runner import sweep as sweep_module
    from repro.simulation.engine import Simulator

    counters = recorder.counters

    def count_select(args, result):
        status = args[1]
        if status.free_map_slots > 0 or status.free_reduce_slots > 0:
            counters["select_offered"] += 1
            if result:
                counters["select_useful"] += 1

    def count_line(args, result):
        counters["record_lines"] += 1
        counters["record_bytes"] += len(result) + 1  # plus the newline

    def count_get(args, result):
        counters["cache_gets"] += 1
        if result is not None:
            counters["cache_hits"] += 1

    JobTracker = jobtracker_module.JobTracker
    recorder.patch(Simulator, "run", "serve.pump" if daemon else "simulation.run")
    recorder.patch(JobTracker, "heartbeat", "hadoop.heartbeat")
    recorder.patch(tasktracker_module.TaskTracker, "launch", "hadoop.launch")
    recorder.patch(JobTracker, "task_finished", "hadoop.task_finished")
    recorder.patch(JobTracker, "submit", "hadoop.submit")
    recorder.patch(JobTracker, "submit_prepared", "hadoop.submit")
    for method in ("add_cpu_load", "remove_cpu_load", "io_begin", "io_end"):
        recorder.patch(Machine, method, "cluster.load")
    recorder.patch(LocalSchedulerCore, "select", "core.select", after=count_select)
    recorder.patch(LocalSchedulerCore, "advance_time", "core.control_interval")
    recorder.patch(LocalSchedulerCore, "task_report", "core.task_report")
    recorder.patch(tasktracker_module.__dict__, "samples_from_phases", "energy.samples")
    recorder.patch(TaskEnergyModel, "estimate", "energy.estimate")
    recorder.patch(sweep_module.SweepRunner, "run_spooled", "runner.sweep")
    recorder.patch(engine_module.__dict__, "execute_spec", "runner.execute")
    recorder.patch(spec_module.ScenarioSpec, "spec_hash", "runner.spec_hash")
    recorder.patch(sweep_module.__dict__, "build_record", "runner.build_record")
    recorder.patch(record_module.__dict__, "build_record", "runner.build_record")
    recorder.patch(spool_module.__dict__, "record_digest", "runner.record_digest")
    recorder.patch(record_module.__dict__, "record_digest", "runner.record_digest")
    recorder.patch(cache_module.ResultCache, "put", "runner.cache_put")
    recorder.patch(cache_module.ResultCache, "get", "runner.cache_get", after=count_get)
    recorder.patch(spool_module.ResultSpool, "append", "runner.spool_append")
    recorder.patch(spool_module.ResultSpool, "scan", "runner.spool_scan", generator=True)
    # Not a layer of its own: counts the bytes of every encoded record line.
    recorder.hook(spool_module.__dict__, "encode_line", count_line)

    if daemon:
        from repro.serve import daemon as daemon_module
        from repro.serve import engine as serve_engine_module

        ServeEngine = serve_engine_module.ServeEngine
        recorder.patch(daemon_module.__dict__, "decode", "serve.decode")
        recorder.patch(daemon_module.__dict__, "encode", "serve.encode")
        recorder.patch(ServeEngine, "handle", "serve.handle")
        recorder.patch(HeartbeatRequest, "from_wire", "serve.validate")
        recorder.patch(TrackerInfo, "from_wire", "serve.validate")
        recorder.patch(
            serve_engine_module.__dict__, "report_fields_from_wire", "serve.validate"
        )
        recorder.patch(LocalSchedulerCore, "heartbeat", "serve.decide")
        recorder.patch(ServeEngine._HANDLERS, "report", "serve.report")
